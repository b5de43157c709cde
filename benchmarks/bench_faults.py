#!/usr/bin/env python3
"""Goodput under injected faults, and recovery invariants.

Sweeps the FaultPlane's link impairments (drop, corrupt, duplicate,
reorder) over a rate grid and measures TCP bulk-transfer goodput at
each point — the degradation curves a transport should show: graceful
goodput loss, never corruption or a hang.  Every point runs under a
seeded fault schedule, so a rerun reproduces the delivered-byte digest,
retransmit counters, virtual completion time and the plane's fault
ledger exactly.

A second section forces mid-handler ASH aborts on the Table V
remote-increment workload and checks the zero-loss degradation
invariant: every aborted delivery falls back to the upcall path, the
shared counter sees every message exactly once, and every message is
answered.

Results land in ``BENCH_faults.json`` at the repo root; ``--quick``
shrinks the sweep for CI smoke runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.ash.examples import (                                 # noqa: E402
    build_remote_increment,
    increment_state,
)
from repro.bench.testbed import (                                # noqa: E402
    CLIENT_TO_SERVER_VCI,
    SERVER_TO_CLIENT_VCI,
    make_an2_pair,
)
from repro.bench.workloads import tcp_bulk_transfer             # noqa: E402
from repro.hw.link import Frame                                  # noqa: E402
from repro.kernel.upcall import UpcallHandler                    # noqa: E402

IMPAIRMENTS = ("drop", "corrupt", "duplicate", "reorder")
SEED = 42


def lossy_transfer(kind: str, rate: float,
                   nbytes: int, sack: bool = True) -> dict:
    """One bulk transfer under a single impairment knob; returns every
    observable of the run."""
    tb, client, server, delivered, elapsed_ps = tcp_bulk_transfer(
        SEED, nbytes, sack=sack, knobs={kind: rate} if rate else None)
    plane = tb.fault_plane
    return {
        "digest": hashlib.sha256(delivered).hexdigest(),
        "elapsed_us": elapsed_ps / 1_000_000,
        "goodput_mbps": nbytes * 8 / (elapsed_ps / 1e12) / 1e6,
        "injected": plane.total(),
        "ledger": plane.ledger(),
        "retransmits": client.tcb.retransmits + server.tcb.retransmits,
        "fast_retransmits": (client.tcb.fast_retransmits
                             + server.tcb.fast_retransmits),
        "fast_recoveries": (client.tcb.fast_recoveries
                            + server.tcb.fast_recoveries),
        "selective_rexmits": (client.tcb.selective_rexmits
                              + server.tcb.selective_rexmits),
        "sack_blocks": client.tcb.sack_blocks_rx + server.tcb.sack_blocks_rx,
        "checksum_failures": (client.tcb.checksum_failures
                              + server.tcb.checksum_failures),
    }


def sack_ablation(rates: list[float], nbytes: int) -> dict:
    """The SACK win, isolated: the same seeded drop/corrupt schedules
    with the scoreboard disabled (``sack=False`` restores drop-OOO +
    go-back-N) versus enabled.  Congestion control runs in both arms, so
    the ratio is the recovery machinery alone."""
    out: dict = {}
    print(f"sack ablation (same schedules, sack on/off):")
    for kind in ("drop", "corrupt"):
        points = []
        for rate in rates:
            if not rate:
                continue
            on = lossy_transfer(kind, rate, nbytes, sack=True)
            off = lossy_transfer(kind, rate, nbytes, sack=False)
            ratio = round(on["goodput_mbps"] / off["goodput_mbps"], 3)
            points.append({
                "rate": rate,
                "goodput_mbps": on["goodput_mbps"],
                "goodput_nosack_mbps": off["goodput_mbps"],
                "sack_speedup": ratio,
            })
            print(f"  {kind:10s} rate={rate:<5g} "
                  f"sack={on['goodput_mbps']:8.2f} Mb/s  "
                  f"nosack={off['goodput_mbps']:8.2f} Mb/s  "
                  f"speedup={ratio:g}x")
        out[kind] = points
    return out


def sweep_curves(rates: list[float], nbytes: int) -> dict:
    curves: dict = {}
    for kind in IMPAIRMENTS:
        points = []
        for rate in rates:
            point = lossy_transfer(kind, rate, nbytes)
            point["rate"] = rate
            points.append(point)
            print(f"  {kind:10s} rate={rate:<5g} "
                  f"goodput={point['goodput_mbps']:8.2f} Mb/s  "
                  f"injected={point['injected']:<4d} "
                  f"rexmit={point['retransmits']:<3d}")
        curves[kind] = points
    return curves


def ash_abort_demo(messages: int) -> dict:
    """Forced mid-handler aborts on remote-increment: zero message loss
    through the upcall fallback."""
    tb = make_an2_pair()
    sk, ck = tb.server_kernel, tb.client_kernel
    srv_ep = sk.create_endpoint_an2(tb.server_nic, CLIENT_TO_SERVER_VCI)
    cli_ep = ck.create_endpoint_an2(tb.client_nic, SERVER_TO_CLIENT_VCI)
    state, params = increment_state(tb.server.memory, "incr_state",
                                    SERVER_TO_CLIENT_VCI)
    program = build_remote_increment()
    ash_id = sk.ash_system.download(
        program, allowed_regions=[(state.base, state.size)],
        user_word=params,
    )
    sk.ash_system.bind(srv_ep, ash_id)
    srv_ep.upcall = UpcallHandler(program=program, user_word=params)
    plane = tb.attach_fault_plane(seed=SEED)
    injector = plane.abort_ash(sk, every=2)
    values = list(range(1, messages + 1))

    replies = []

    def client(proc):
        # round-trip paced (send, await the reply) so this measures
        # abort recovery, not rx-ring exhaustion — inject that
        # separately via stress_nic
        for v in values:
            yield from ck.sys_net_send(
                proc, tb.client_nic,
                Frame(v.to_bytes(4, "little"), vci=CLIENT_TO_SERVER_VCI),
            )
            desc = yield from ck.sys_recv_poll(proc, cli_ep)
            replies.append(desc)
            yield from ck.sys_replenish(proc, cli_ep, desc)

    cli_ep.owner = ck.spawn_process("ash-client", client)
    tb.run()
    counter = mem.load_u32(state.base)
    return {
        "messages": messages,
        "aborts_forced": injector.fired,
        "involuntary_aborts": sk.ash_system.entry(ash_id).involuntary_aborts,
        "upcall_fallbacks": sk.ash_abort_fallbacks,
        "counter": counter,
        "expected": sum(values),
        "replies": len(replies),
        "zero_loss": counter == sum(values) and len(replies) == messages,
        "virtual_ns": tb.engine.now / 1000,
    }


def bench(quick: bool) -> dict:
    # the AN2 MSS is ~3 KB, so a transfer is only a few dozen frames:
    # rates well below ~5% rarely fire on a single run — the grid starts
    # where the curves actually bend
    if quick:
        rates = [0.0, 0.1]
        nbytes = 48_000
        messages = 8
    else:
        rates = [0.0, 0.05, 0.1, 0.2]
        nbytes = 128_000
        messages = 32
    out: dict = {
        "bench": "faults",
        "quick": quick,
        "python": sys.version.split()[0],
        "seed": SEED,
        "transfer_bytes": nbytes,
        "rates": rates,
    }
    print(f"goodput-vs-impairment curves ({nbytes} B transfers, "
          f"seed {SEED}):")
    curves = sweep_curves(rates, nbytes)
    out["curves"] = curves

    out["sack_ablation"] = sack_ablation(rates, nbytes)

    demo = ash_abort_demo(messages)
    out["ash_abort"] = demo
    print(f"  ash abort: {demo['aborts_forced']}/{messages} deliveries "
          f"aborted mid-handler, counter {demo['counter']}"
          f"/{demo['expected']}, "
          f"{demo['upcall_fallbacks']} upcall fallbacks, "
          f"zero_loss={demo['zero_loss']}")

    out["summary"] = {
        "zero_loss_under_abort": demo["zero_loss"],
        "goodput_retained_at_max_rate": {
            kind: round(points[-1]["goodput_mbps"]
                        / points[0]["goodput_mbps"], 3)
            for kind, points in curves.items()
        },
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep (CI smoke run)")
    parser.add_argument("--out", default=None,
                        help="output JSON path "
                             "(default: <repo>/BENCH_faults.json)")
    args = parser.parse_args(argv)
    out = bench(args.quick)
    path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir,
        "BENCH_faults.json"
    )
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.normpath(path)}")
    if not out["summary"]["zero_loss_under_abort"]:
        print("ERROR: messages lost across forced ASH aborts",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
