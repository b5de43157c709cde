#!/usr/bin/env python3
"""Fail on performance regressions against the committed bench baselines.

Usage::

    # gate a fresh run against its committed baseline
    python benchmarks/check_bench_trend.py fresh_crash.json --baseline BENCH_crash.json

    # self-check every committed BENCH_*.json against itself (CI smoke)
    python benchmarks/check_bench_trend.py

The committed ``BENCH_*.json`` files at the repo root are the accepted
performance envelope.  This checker walks both documents' numeric
leaves, classifies each leaf by name, and flags any *deterministic*
metric that moved past the threshold in the bad direction:

* **lower is better** — ``elapsed_us``, ``recovery_us``, ``latency_us``
  suffixes, ``virtual_ns``, ``simulated_cycles*``: simulated time/cost,
  fully deterministic, a >N% rise is a real regression;
  ``events_per_packet``: engine events fired per delivered frame, the
  simulator's deterministic cost proxy.
* **higher is better** — ``goodput_mbps``: simulated throughput;
  ``jain_index``: per-flow fairness on contended links;
  ``isolation_ratio``: tenant-contended vs solo victim goodput.
* **skipped by default** — wall-clock-noisy leaves (``*_per_sec``,
  ``wall_s``, ``speedup_*``): they measure the host machine, not the
  model; compare them with ``--include-wallclock`` only on pinned
  hardware.
* everything else (seeds, counts, digests, flags) is ignored — identity
  of those is the digest tests' job, not a trend question.

Missing-leaf drift is also fatal both ways: a perf leaf present in the
baseline but absent from the fresh results (or vice versa) means the
bench schema changed and the baseline must be re-committed consciously.

Stdlib only; ``tests/test_bench_trend.py`` runs the self-check as a
tier-1 gate so the committed baselines always parse and self-compare.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(_HERE)

DEFAULT_THRESHOLD = 0.10  # fractional change that counts as a regression

#: name-suffix → direction; first match wins ("lower" / "higher")
LOWER_IS_BETTER = ("elapsed_us", "recovery_us", "latency_us", "virtual_ns",
                   "events_per_packet")
LOWER_PREFIXES = ("simulated_cycles",)
HIGHER_IS_BETTER = ("goodput_mbps", "jain_index", "isolation_ratio")
#: wall-clock-dependent leaves: excluded unless explicitly requested
WALLCLOCK_MARKERS = ("_per_sec", "wall_s", "speedup_")


def classify(path: str) -> str | None:
    """Direction for one leaf path: 'lower', 'higher', 'wallclock', None."""
    leaf = path.rsplit(".", 1)[-1]
    for marker in WALLCLOCK_MARKERS:
        if marker in leaf:
            return "wallclock"
    for suffix in LOWER_IS_BETTER:
        if leaf.endswith(suffix):
            return "lower"
    for prefix in LOWER_PREFIXES:
        if leaf.startswith(prefix):
            return "lower"
    for suffix in HIGHER_IS_BETTER:
        if leaf.endswith(suffix):
            return "higher"
    return None


def walk_leaves(doc, prefix: str = ""):
    """Yield (dotted-path, value) for every scalar leaf of a JSON doc."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            sub = f"{prefix}.{key}" if prefix else str(key)
            yield from walk_leaves(doc[key], sub)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from walk_leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, doc


def perf_leaves(doc, include_wallclock: bool = False) -> dict:
    """The direction-classified numeric leaves of one bench document."""
    out = {}
    for path, value in walk_leaves(doc):
        direction = classify(path)
        if direction is None:
            continue
        if direction == "wallclock" and not include_wallclock:
            continue
        if value is None:  # e.g. recovery_us on a run with no crash
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[path] = (float(value), "lower" if direction == "wallclock"
                     else direction)
    return out


def compare(baseline: dict, fresh: dict,
            threshold: float = DEFAULT_THRESHOLD,
            include_wallclock: bool = False) -> list[str]:
    """Regression messages from comparing two bench documents."""
    base = perf_leaves(baseline, include_wallclock)
    new = perf_leaves(fresh, include_wallclock)
    errors: list[str] = []
    for path in sorted(set(base) - set(new)):
        errors.append(f"{path}: present in baseline, missing from fresh "
                      f"results (bench schema drift?)")
    for path in sorted(set(new) - set(base)):
        errors.append(f"{path}: present in fresh results, missing from "
                      f"baseline (re-commit the baseline?)")
    for path in sorted(set(base) & set(new)):
        old, direction = base[path]
        cur, _ = new[path]
        if old == 0.0:
            if cur != 0.0:
                errors.append(f"{path}: baseline 0, now {cur:g}")
            continue
        delta = (cur - old) / abs(old)
        worse = delta > threshold if direction == "lower" \
            else -delta > threshold
        if worse:
            arrow = "rose" if delta > 0 else "fell"
            errors.append(
                f"{path}: {arrow} {abs(delta) * 100:.1f}% "
                f"({old:g} -> {cur:g}, {direction}-is-better, "
                f"threshold {threshold * 100:.0f}%)"
            )
    return errors


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def committed_baselines() -> list[str]:
    return sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff fresh bench results against committed baselines"
    )
    parser.add_argument("fresh", nargs="?", default=None,
                        help="fresh bench results JSON (omit to self-check "
                             "every committed BENCH_*.json)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: the committed "
                             "BENCH_<name>.json matching the fresh file)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fractional regression threshold "
                             "(default %(default)s)")
    parser.add_argument("--include-wallclock", action="store_true",
                        help="also compare host-dependent *_per_sec / "
                             "wall_s / speedup_* leaves")
    args = parser.parse_args(argv)

    if args.fresh is None:
        paths = committed_baselines()
        if not paths:
            print("no committed BENCH_*.json baselines found")
            return 1
        failed = 0
        for path in paths:
            doc = _load(path)
            errors = compare(doc, doc, args.threshold,
                             args.include_wallclock)
            n = len(perf_leaves(doc, args.include_wallclock))
            if errors:
                failed += 1
                print(f"FAIL {os.path.basename(path)} (self-compare)")
                for error in errors:
                    print(f"  - {error}")
            else:
                print(f"ok   {os.path.basename(path)} "
                      f"({n} perf leaves, self-compare clean)")
        return 1 if failed else 0

    baseline_path = args.baseline
    if baseline_path is None:
        name = os.path.basename(args.fresh)
        baseline_path = os.path.join(REPO_ROOT, name)
        if not os.path.exists(baseline_path):
            print(f"no --baseline given and {baseline_path} does not exist")
            return 2
    errors = compare(_load(baseline_path), _load(args.fresh),
                     args.threshold, args.include_wallclock)
    if errors:
        print(f"FAIL {args.fresh} vs {baseline_path} "
              f"({len(errors)} regressions)")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"ok   {args.fresh} vs {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
