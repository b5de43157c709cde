#!/usr/bin/env python3
"""Noisy-neighbor goodput isolation under the multi-tenant plane.

A victim TCP bulk transfer (tenant ``alice``) shares a server with an
aggressor (``mallory``) whose virtual circuit is blasted with junk
frames injected straight at the server NIC, swept over an intensity
grid (frames/s).  Each intensity runs twice:

* **protected** — the tenant plane is installed; mallory's token
  bucket admits at most ``bytes_per_round`` per accounting round and
  clips the rest *pre-DMA*, so admitted abuse is bounded no matter the
  offered load.
* **unprotected** — the ablation: no quotas, every aggressor frame
  costs real DMA, interrupts and replenish CPU, and the victim bleeds.

Reported per intensity: victim goodput for both arms and the
**isolation ratio** (victim goodput / solo-run goodput).  The committed
gate is ``isolation_ratio >= 0.9`` for every protected point.  The
unprotected curve carries no gate — it is the evidence that the gate
is non-trivial (at the top of the committed grid it degrades well
below the protected floor).

Custom sweeps (``--intensity``, ``--kb``) echo their arguments into
the JSON under ``cli`` (the bench_scale convention); the committed
``BENCH_tenancy.json`` is always the default grid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.workloads import tenant_noisy_neighbor          # noqa: E402

#: aggressor intensities, frames/s (0 = solo baseline run)
FULL_GRID = (0, 2_000, 10_000, 30_000, 60_000)
QUICK_GRID = (0, 30_000)
FULL_KB = 96
QUICK_KB = 48
ISOLATION_FLOOR = 0.9


def run_point(intensity_fps: int, total_kb: int, protected: bool) -> dict:
    return tenant_noisy_neighbor(
        intensity_fps=intensity_fps, protected=protected, total_kb=total_kb)


def run_config(intensity_fps: int, total_kb: int,
               solo_mbps: float | None) -> dict:
    """One intensity: protected run + unprotected ablation."""
    prot = run_point(intensity_fps, total_kb, True)
    unprot = run_point(intensity_fps, total_kb, False)

    entry = {
        "intensity_fps": intensity_fps,
        "total_kb": total_kb,
        "protected": prot,
        "unprotected": unprot,
    }
    if solo_mbps is not None:
        entry["protected_isolation_ratio"] = round(
            prot["goodput_mbps"] / solo_mbps, 4)
        entry["unprotected_isolation_ratio"] = round(
            unprot["goodput_mbps"] / solo_mbps, 4)
        print(f"  fps={intensity_fps:<6d} "
              f"protected={prot['goodput_mbps']:6.3f} MB/s "
              f"(ratio {entry['protected_isolation_ratio']:.4f})  "
              f"unprotected={unprot['goodput_mbps']:6.3f} MB/s "
              f"(ratio {entry['unprotected_isolation_ratio']:.4f})  "
              f"clipped={prot['aggressor_dropped']}")
    else:
        print(f"  fps={intensity_fps:<6d} "
              f"solo={prot['goodput_mbps']:6.3f} MB/s")
    return entry


def bench(quick: bool, cli_cfg: dict | None = None) -> dict:
    out: dict = {
        "bench": "tenancy",
        "quick": quick,
        "python": sys.version.split()[0],
        "configs": [],
    }
    if cli_cfg is not None:
        grid = tuple(cli_cfg["intensity"])
        total_kb = cli_cfg["kb"]
        out["cli"] = dict(cli_cfg)
    elif quick:
        grid, total_kb = QUICK_GRID, QUICK_KB
    else:
        grid, total_kb = FULL_GRID, FULL_KB
    if grid[0] != 0:
        grid = (0,) + grid  # the solo point anchors every ratio

    print(f"noisy-neighbor isolation sweep (victim {total_kb} KiB bulk):")
    solo = run_config(0, total_kb, None)
    solo_mbps = solo["protected"]["goodput_mbps"]
    out["configs"].append(solo)
    for fps in grid[1:]:
        out["configs"].append(run_config(fps, total_kb, solo_mbps))

    contended = out["configs"][1:]
    out["summary"] = {
        "solo_goodput_mbps": round(solo_mbps, 4),
        "isolation_floor": ISOLATION_FLOOR,
        "min_protected_isolation_ratio": min(
            (c["protected_isolation_ratio"] for c in contended),
            default=1.0),
        "min_unprotected_isolation_ratio": min(
            (c["unprotected_isolation_ratio"] for c in contended),
            default=1.0),
        "order_violations": sum(
            c["protected"]["order_violations"] for c in out["configs"]),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid (CI smoke run)")
    parser.add_argument("--intensity", type=int, nargs="+", default=None,
                        help="custom config: aggressor frames/s grid")
    parser.add_argument("--kb", type=int, default=None,
                        help="custom config: victim transfer size, KiB")
    parser.add_argument("--out", default=None,
                        help="output JSON path "
                             "(default: <repo>/BENCH_tenancy.json)")
    args = parser.parse_args(argv)

    cli_cfg = None
    if args.intensity is not None or args.kb is not None:
        cli_cfg = {
            "intensity": args.intensity or list(FULL_GRID),
            "kb": args.kb if args.kb is not None else FULL_KB,
        }
    out = bench(args.quick, cli_cfg)
    path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir,
        "BENCH_tenancy.json"
    )
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.normpath(path)}")
    if out["summary"]["order_violations"]:
        print("ERROR: buffer-order violations under protection",
              file=sys.stderr)
        return 1
    floor = out["summary"]["min_protected_isolation_ratio"]
    if floor < ISOLATION_FLOOR:
        print(f"ERROR: isolation broken: protected victim ratio "
              f"{floor} < {ISOLATION_FLOOR}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
