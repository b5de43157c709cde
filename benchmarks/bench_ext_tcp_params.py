"""Extension: TCP throughput vs window, MSS, and congestion knobs.

The paper fixes the window at 8 KB "to ensure experiment repeatability"
and notes in passing that "larger window size increases the throughput"
and that "a larger MSS (up to the size of the maximum buffer size of
the underlying network) is often better".  This bench sweeps both knobs
to verify those remarks hold in the model — and that the ASH fast
path's advantage persists across the sweep.

A second section sweeps the congestion-control knobs that postdate the
paper: initial congestion window (``cwnd_init``), slow-start threshold
(``ssthresh_init``), and SACK on/off.  The cwnd/ssthresh rows use a
short transfer so the slow-start ramp is a visible fraction of the run;
the SACK rows run under a seeded drop schedule where selective repair
(not the ramp) dominates.

Custom sweeps (``--drop``, ``--bulk``, ``--seed``) echo their arguments
into the results JSON under ``cli`` (the bench_scale convention).
"""

from repro.bench.harness import reproduce
from repro.bench.results import BenchTable, ascii_chart
from repro.bench.workloads import (TcpConfig, tcp_bulk_transfer,
                                   tcp_stream_throughput)

WINDOWS = [4096, 8192, 16384, 32768]
MSSES = [536, 1024, 2048, 3072]
BULK = 1024 * 1024
#: short enough that the slow-start ramp is a visible fraction
RAMP_BULK = 64 * 1024
CWND_INITS = [3072, 6144, 12288]
SSTHRESHES = [4096, 8192]
DROP_RATES = [0.1, 0.2]
LOSSY_BULK = 96_000
SEED = 42


def lossy_goodput(drop: float, nbytes: int, seed: int = SEED,
                  sack: bool = True) -> float:
    """Library-path bulk goodput (MB/s) under a seeded drop schedule."""
    *_, elapsed_ps = tcp_bulk_transfer(seed, nbytes, sack=sack,
                                       knobs=dict(drop=drop))
    return nbytes / (elapsed_ps / 1e12) / 1e6


def run_tcp_params(drop_rates=None, lossy_bulk: int = LOSSY_BULK,
                   seed: int = SEED) -> BenchTable:
    drop_rates = DROP_RATES if drop_rates is None else drop_rates
    table = BenchTable(
        name="ext_tcp_params",
        title="Extension: TCP throughput vs window, MSS, congestion knobs",
        columns=["library MB/s", "ASH MB/s"],
    )
    window_series = {"library": [], "ash": []}
    for window in WINDOWS:
        # 32 KB application writes so the window (not the synchronous
        # write size) is the binding constraint
        lib = tcp_stream_throughput(
            config=TcpConfig(window=window), total_bytes=BULK, chunk=32768)
        ash = tcp_stream_throughput(
            config=TcpConfig(window=window, handler="ash"),
            total_bytes=BULK, chunk=32768)
        table.add_row(f"window {window}",
                      **{"library MB/s": lib, "ASH MB/s": ash})
        window_series["library"].append((window, lib))
        window_series["ash"].append((window, ash))
    for mss in MSSES:
        lib = tcp_stream_throughput(
            config=TcpConfig(mss=mss), total_bytes=BULK)
        ash = tcp_stream_throughput(
            config=TcpConfig(mss=mss, handler="ash"), total_bytes=BULK)
        table.add_row(f"mss {mss}",
                      **{"library MB/s": lib, "ASH MB/s": ash})
    # congestion knobs: short clean transfers expose the slow-start ramp
    for cwnd in CWND_INITS:
        lib = tcp_stream_throughput(
            config=TcpConfig(cwnd_init=cwnd), total_bytes=RAMP_BULK)
        table.add_row(f"cwnd_init {cwnd}", **{"library MB/s": lib})
    for ssthresh in SSTHRESHES:
        lib = tcp_stream_throughput(
            config=TcpConfig(ssthresh_init=ssthresh), total_bytes=RAMP_BULK)
        table.add_row(f"ssthresh {ssthresh}", **{"library MB/s": lib})
    # SACK only matters under loss: same seeded drop schedule, on vs off
    for rate in drop_rates:
        pct = int(rate * 100)
        on = lossy_goodput(rate, lossy_bulk, seed=seed, sack=True)
        off = lossy_goodput(rate, lossy_bulk, seed=seed, sack=False)
        table.add_row(f"drop{pct} sack", **{"library MB/s": on})
        table.add_row(f"drop{pct} nosack", **{"library MB/s": off})
    table.note("cwnd/ssthresh rows: 64 KB transfers (ramp-dominated); "
               "sack rows: seeded drop schedule, library path")
    table.note("\n" + ascii_chart(window_series,
                                  title="MB/s vs window (o=ash, *=library)"))
    return table


def test_tcp_parameter_sweep(benchmark):
    table = reproduce(benchmark, run_tcp_params)
    lib_by_window = [table.value(f"window {w}", "library MB/s")
                     for w in WINDOWS]
    # "larger window size increases the throughput"
    assert all(b >= a * 0.98 for a, b in zip(lib_by_window, lib_by_window[1:]))
    assert lib_by_window[-1] > 1.3 * lib_by_window[0]
    # "a larger MSS is often better"
    lib_by_mss = [table.value(f"mss {m}", "library MB/s") for m in MSSES]
    assert lib_by_mss[-1] > lib_by_mss[0]
    # the handler wins across the whole sweep
    for w in WINDOWS:
        assert (table.value(f"window {w}", "ASH MB/s")
                > table.value(f"window {w}", "library MB/s"))
    for m in MSSES:
        assert (table.value(f"mss {m}", "ASH MB/s")
                > table.value(f"mss {m}", "library MB/s"))
    # a bigger initial window never hurts a short transfer
    by_cwnd = [table.value(f"cwnd_init {c}", "library MB/s")
               for c in CWND_INITS]
    assert by_cwnd[-1] >= by_cwnd[0]
    # an early slow-start exit (low ssthresh) costs ramp time
    assert (table.value("ssthresh 8192", "library MB/s")
            >= table.value("ssthresh 4096", "library MB/s"))
    # SACK must beat go-back-N on the same heavy-drop schedule
    assert (table.value("drop20 sack", "library MB/s")
            > table.value("drop20 nosack", "library MB/s"))


if __name__ == "__main__":
    import argparse
    import sys

    from repro.bench.telemetry_cli import bench_main

    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--drop", type=float, action="append", default=None,
                        help="custom drop rate(s) for the SACK rows "
                             "(repeatable)")
    parser.add_argument("--bulk", type=int, default=None,
                        help="custom transfer size for the SACK rows")
    parser.add_argument("--seed", type=int, default=None,
                        help="custom fault-plane / payload seed")
    args, rest = parser.parse_known_args(sys.argv[1:])
    custom = {k: v for k, v in vars(args).items() if v is not None}

    def run():
        table = run_tcp_params(
            drop_rates=args.drop,
            lossy_bulk=args.bulk if args.bulk is not None else LOSSY_BULK,
            seed=args.seed if args.seed is not None else SEED,
        )
        if custom:
            table.cli = custom
        return table

    bench_main(run, rest)
