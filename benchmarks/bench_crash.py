#!/usr/bin/env python3
"""Crash/restart recovery curves, and the degradation-order invariant.

A scripted kernel crash lands mid-way through a TCP bulk transfer: the
kernel tears down every piece of kernel-volatile state (DPF filters,
installed ASHs, upcall bindings, rx rings) while application memory —
including the shared TCB — survives.  On reboot the kernel re-registers
filters, re-verifies and re-installs ASHs through the sandbox, and the
flow resumes from the surviving shared TCB.  This bench sweeps the
outage length and the crash time and records the two curves the
recovery plane promises:

* **recovery time** — from reboot to the first post-reboot delivery
  (how long the sender's retransmission backoff takes to re-find the
  rebooted node), and
* **goodput dip** — delivered goodput relative to the uncrashed run.

A final section turns every seam on at once (crash + memory pressure +
CPU contention + link chaos) and checks that service degraded strictly
in hierarchy order (ash → upcall → ring → drop): the transfer must
complete byte-identically with zero ``degradation.order_violations``.

Every point runs once under a seeded schedule, so reruns reproduce it
exactly.  Results land in ``BENCH_crash.json`` at the repo root;
``--quick`` shrinks the sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.workloads import tcp_bulk_transfer             # noqa: E402

SEED = 42


def crash_transfer(nbytes: int, **world) -> dict:
    """One bulk transfer; ``world`` (a scripted server ``crash``, plus
    ``pressure`` / ``contention`` / link ``knobs`` / fast-path
    ``mode``) goes to ``tcp_bulk_transfer``.  Returns every observable
    of the run."""
    tb, client, server, delivered, elapsed_ps = tcp_bulk_transfer(
        SEED, nbytes, **world)
    sk, ck = tb.server_kernel, tb.client_kernel
    recovery_us = None
    if sk.crash_log:
        rec = sk.crash_log[0]
        if rec["first_delivery_after_reboot"] is not None:
            recovery_us = (rec["first_delivery_after_reboot"]
                           - rec["reboot_at"]) / 1_000_000
    return {
        "digest": hashlib.sha256(delivered).hexdigest(),
        "elapsed_us": elapsed_ps / 1_000_000,
        "goodput_mbps": nbytes * 8 / (elapsed_ps / 1e12) / 1e6,
        "recoveries": sk.recoveries,
        "recovery_us": recovery_us,
        "lost_in_crash": sk.lost_messages,
        "ledger": tb.fault_plane.ledger(),
        "retransmits": client.tcb.retransmits + server.tcb.retransmits,
        "alloc_failures": dict(tb.server.memory.alloc_failures),
        "contention_cycles": tb.server.cpu.contention_cycles,
        "delivery_outcomes": dict(sk.delivery_outcomes),
        "order_violations": (sk.degradation_order_violations
                             + ck.degradation_order_violations),
    }


def bench(quick: bool) -> dict:
    nbytes = 48_000 if quick else 128_000
    # in ring mode a 48 KB transfer runs tens of ms; crash early enough
    # to land mid-flow in every delivery mode
    crash_at = 1_500.0
    if quick:
        outages = [200.0, 2_000.0, 20_000.0]
        crash_times = [500.0, 1_500.0]
        modes = [None, "ash"]
    else:
        outages = [200.0, 1_000.0, 5_000.0, 20_000.0, 60_000.0]
        crash_times = [500.0, 1_500.0, 4_000.0, 10_000.0]
        modes = [None, "upcall", "ash"]
    out: dict = {
        "bench": "crash",
        "quick": quick,
        "python": sys.version.split()[0],
        "seed": SEED,
        "transfer_bytes": nbytes,
    }
    baseline = crash_transfer(nbytes)
    out["baseline"] = baseline
    print(f"baseline ({nbytes} B, no crash): "
          f"{baseline['goodput_mbps']:8.2f} Mb/s")

    print(f"recovery-time vs outage (crash at {crash_at} us):")
    curve = []
    for outage in outages:
        point = crash_transfer(
            nbytes, crash=dict(at_us=crash_at, outage_us=outage))
        point.update(outage_us=outage,
                     goodput_vs_baseline=round(
                         point["goodput_mbps"]
                         / baseline["goodput_mbps"], 4))
        curve.append(point)
        print(f"  outage={outage:<8g} recovery={point['recovery_us']!s:>10}us"
              f"  goodput={point['goodput_mbps']:8.2f} Mb/s "
              f"({point['goodput_vs_baseline']:.0%} of baseline) "
              f"lost={point['lost_in_crash']}")
    out["recovery_vs_outage"] = curve

    print("goodput dip vs crash time (5 ms outage):")
    curve = []
    for at in crash_times:
        point = crash_transfer(
            nbytes, crash=dict(at_us=at, outage_us=5_000.0))
        point.update(crash_at_us=at,
                     goodput_vs_baseline=round(
                         point["goodput_mbps"]
                         / baseline["goodput_mbps"], 4))
        curve.append(point)
        print(f"  crash_at={at:<8g} goodput={point['goodput_mbps']:8.2f} "
              f"Mb/s ({point['goodput_vs_baseline']:.0%}) "
              f"rexmit={point['retransmits']}")
    out["goodput_vs_crash_time"] = curve

    print("combined-fault degradation sweep (all seams on):")
    combined = []
    zero_violations = True
    for mode in modes:
        point = crash_transfer(
            nbytes, mode=mode,
            crash=dict(at_us=crash_at, outage_us=5_000.0),
            pressure=dict(rate=0.1, sites=("rx_refill", "ash_install")),
            contention=dict(rate=0.1, burst_cycles=1_000, budget_rate=0.2),
            knobs=dict(drop=0.02, corrupt=0.02),
        )
        zero_violations &= point["order_violations"] == 0
        point.update(mode=mode or "ring")
        combined.append(point)
        print(f"  mode={mode or 'ring':7s} outcomes={point['delivery_outcomes']} "
              f"violations={point['order_violations']}")
    out["combined_degradation"] = combined

    out["summary"] = {
        "zero_order_violations": zero_violations,
        "every_crash_recovered": all(
            p["recoveries"] == 1
            for p in out["recovery_vs_outage"] + out["goodput_vs_crash_time"]
        ),
        "max_recovery_us": max(
            p["recovery_us"] for p in out["recovery_vs_outage"]
            if p["recovery_us"] is not None
        ),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep (CI smoke run)")
    parser.add_argument("--out", default=None,
                        help="output JSON path "
                             "(default: <repo>/BENCH_crash.json)")
    args = parser.parse_args(argv)
    out = bench(args.quick)
    path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir,
        "BENCH_crash.json"
    )
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.normpath(path)}")
    if not out["summary"]["zero_order_violations"]:
        print("ERROR: a delivery skipped a hierarchy level out of order",
              file=sys.stderr)
        return 1
    if not out["summary"]["every_crash_recovered"]:
        print("ERROR: a crashed node never recovered", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
