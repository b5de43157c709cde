#!/usr/bin/env python3
"""Many-flow fairness on one contended AN2 link.

N TCP flows (N >= 16 in the committed baseline) share a single AN2
link: one node pair, one :class:`~repro.hw.link.Link`, a per-flow
virtual-circuit pair and NetStack alias per flow — so every segment of
every flow serializes through the same link and the congestion
controller is what arbitrates the bandwidth.  Each flow pushes the same
number of bytes with a staggered start; per-flow goodput comes from the
flow's own transfer window.

Reported per config:

* **Jain's fairness index** ``(sum x)^2 / (n * sum x^2)`` over per-flow
  goodputs — 1.0 is perfectly fair, 1/n is one flow hogging the link.
  The committed gate is >= 0.9 at 16+ flows (AIMD should converge).
* **aggregate goodput** over the union of the transfer windows — the
  link must stay busy; fairness by collective slowdown doesn't count.
* **per-flow receipts** — payload digests, virtual times, retransmit
  counts and congestion-event digests, pure functions of the seed.

Custom sweeps (``--flows``, ``--bytes``) echo their arguments into the
JSON under ``cli`` (the bench_scale convention) so one-off runs are
reproducible without editing this file; the committed
``BENCH_fairness.json`` is always the default grid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.testbed import make_an2_pair                    # noqa: E402
from repro.net.socket_api import make_stacks, tcp_pair           # noqa: E402

SEED = 42
#: connect-time stagger between consecutive flows, picoseconds (25 us)
STAGGER_PS = 25_000_000
PS_PER_US = 1_000_000


def jain_index(xs: list[float]) -> float:
    """Jain's fairness index: 1.0 = equal shares, 1/n = total capture."""
    if not xs:
        return 1.0
    total = sum(xs)
    sq = sum(x * x for x in xs)
    return (total * total) / (len(xs) * sq) if sq else 1.0


def run_fairness(nflows: int, nbytes: int, sack: bool = True) -> dict:
    """One contended run: ``nflows`` bulk transfers over a shared link."""
    tb = make_an2_pair()
    flows: list[dict] = []

    for j in range(nflows):
        cstack, sstack = make_stacks(tb, flow=j)
        client, server = tcp_pair(cstack, sstack, server_port=80 + j,
                                  client_port=5000 + j,
                                  rto_us=20_000.0, sack=sack)
        data = bytes(random.Random(SEED + j).randrange(256)
                     for _ in range(nbytes))
        rec = {"j": j, "data": data, "got": None,
               "t0": None, "t1": None,
               "client": client, "server": server}
        flows.append(rec)

        def server_body(proc, rec=rec):
            yield from rec["server"].accept(proc)
            rec["got"] = yield from rec["server"].read(proc, nbytes)
            yield from rec["server"].write(proc, b"done")

        def client_body(proc, rec=rec):
            yield proc.engine.sleep(rec["j"] * STAGGER_PS)
            rec["t0"] = proc.engine.now
            yield from rec["client"].connect(proc)
            yield from rec["client"].write(proc, rec["data"])
            reply = yield from rec["client"].read(proc, 4)
            assert reply == b"done"
            rec["t1"] = proc.engine.now

        tb.server_kernel.spawn_process(f"f{j}-server", server_body)
        tb.client_kernel.spawn_process(f"f{j}-client", client_body)

    tb.run()

    per_flow = []
    for rec in flows:
        if rec["got"] != rec["data"] or rec["t1"] is None:
            raise RuntimeError(
                f"flow {rec['j']}: corrupted or incomplete"
            )
        elapsed_ps = rec["t1"] - rec["t0"]
        per_flow.append({
            "flow": rec["j"],
            "digest": hashlib.sha256(rec["got"]).hexdigest()[:16],
            "elapsed_us": elapsed_ps / PS_PER_US,
            "goodput_mbps": nbytes * 8 / (elapsed_ps / 1e12) / 1e6,
            "retransmits": (rec["client"].tcb.retransmits
                            + rec["client"].tcb.fast_retransmits),
            "cc_digest": rec["client"].congestion_digest()[:16],
        })
    goodputs = [f["goodput_mbps"] for f in per_flow]
    span_ps = (max(r["t1"] for r in flows)
               - min(r["t0"] for r in flows))
    return {
        "flows": nflows,
        "bytes_per_flow": nbytes,
        "sack": sack,
        "jain_index": round(jain_index(goodputs), 4),
        "goodput_mbps": nflows * nbytes * 8 / (span_ps / 1e12) / 1e6,
        "min_flow_mbps": round(min(goodputs), 3),
        "max_flow_mbps": round(max(goodputs), 3),
        "per_flow": per_flow,
    }


def run_config(nflows: int, nbytes: int) -> dict:
    entry = run_fairness(nflows, nbytes)
    print(f"  flows={nflows:<3d} bytes={nbytes}  "
          f"jain={entry['jain_index']:.4f}  "
          f"aggregate={entry['goodput_mbps']:8.2f} Mb/s  "
          f"spread=[{entry['min_flow_mbps']:g}, "
          f"{entry['max_flow_mbps']:g}] Mb/s")
    return entry


def bench(quick: bool, cli_cfg: dict | None = None) -> dict:
    out: dict = {
        "bench": "fairness",
        "quick": quick,
        "python": sys.version.split()[0],
        "seed": SEED,
        "configs": [],
    }
    if cli_cfg is not None:
        grid = [(cli_cfg["flows"], cli_cfg["bytes"])]
        out["cli"] = dict(cli_cfg)
    elif quick:
        grid = [(8, 24_000)]
    else:
        grid = [(16, 48_000), (24, 32_000)]
    print(f"many-flow fairness on one shared AN2 link (seed {SEED}):")
    for nflows, nbytes in grid:
        out["configs"].append(run_config(nflows, nbytes))
    out["summary"] = {
        "min_jain_index": min(c["jain_index"] for c in out["configs"]),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one small config (CI smoke run)")
    parser.add_argument("--flows", type=int, default=None,
                        help="custom config: concurrent flows on the link")
    parser.add_argument("--bytes", type=int, default=None,
                        help="custom config: bytes per flow")
    parser.add_argument("--out", default=None,
                        help="output JSON path "
                             "(default: <repo>/BENCH_fairness.json)")
    args = parser.parse_args(argv)

    cli_cfg = None
    if args.flows is not None or args.bytes is not None:
        cli_cfg = {
            "flows": args.flows if args.flows is not None else 16,
            "bytes": args.bytes if args.bytes is not None else 48_000,
        }
    out = bench(args.quick, cli_cfg)
    path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir,
        "BENCH_fairness.json"
    )
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.normpath(path)}")
    if out["summary"]["min_jain_index"] < 0.9:
        print(f"ERROR: fairness collapsed: Jain index "
              f"{out['summary']['min_jain_index']} < 0.9", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
