"""The telemetry-export schema check, wired in as a regular test.

``benchmarks/check_metrics_schema.py`` is the CI gate for sidecar
files; these tests run the same validator in-process so exporter drift
fails the suite even when no sidecar has been regenerated, and pin the
crash/recovery-plane metrics into the export contract.
"""

import glob
import os

from repro import telemetry
from tests import load_bench_script

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_recovery_plane_metrics_are_pinned_counters():
    checker = load_bench_script("check_metrics_schema")
    for name in (
        "crash.crashes", "crash.recoveries", "crash.lost_messages",
        "crash.filters_reinstalled", "crash.ash_reinstalls",
        "mem.alloc_failures", "cpu.contention_cycles",
        "degradation.order_violations",
    ):
        assert checker.WELL_KNOWN_KINDS.get(name) == "counters", name


def test_fault_run_export_validates_and_carries_recovery_counters():
    """A crash + pressure + contention run exports a schema-valid
    document whose counters include the whole recovery plane."""
    from tests.test_faults import crash_tcp_transfer

    checker = load_bench_script("check_metrics_schema")
    with telemetry.session() as sess:
        crash_tcp_transfer(
            seed=79, nbytes=24_000,
            pressure=dict(rate=0.1, sites=("rx_refill",)),
            contention=dict(rate=0.1, burst_cycles=1_000),
        )
    doc = sess.export_metrics()
    assert checker.validate_metrics(doc) == []
    counters = {
        c["name"]
        for node in doc["nodes"]
        for c in node["metrics"]["counters"]
    }
    for name in ("crash.crashes", "crash.recoveries",
                 "mem.alloc_failures", "cpu.contention_cycles",
                 "faults.injected"):
        assert name in counters, f"{name} missing from export"
    # the invariant held, so its violation counter must NOT have fired
    assert "degradation.order_violations" not in counters


def test_committed_sidecars_validate():
    """Every sidecar checked into benchmarks/results/ still parses
    against the current schema (the CLI's no-argument mode)."""
    checker = load_bench_script("check_metrics_schema")
    results = os.path.join(REPO_ROOT, "benchmarks", "results")
    paths = sorted(
        glob.glob(os.path.join(results, "*.telemetry.json"))
        + glob.glob(os.path.join(results, "*.trace.json"))
    )
    for path in paths:
        assert checker.validate_file(path) == [], path
    assert checker.main(paths) == 0
