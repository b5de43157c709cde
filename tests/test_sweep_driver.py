"""Tier-1 gate: the unified chaos-sweep driver's smoke corner.

``benchmarks/sweep_driver.py --smoke`` runs a small corner of the full
workload × fault-scenario grid (tcp_bulk, canary and the two-tenant
noisy-neighbor cell; clean and crashed) and must produce a schema-clean
document whose every summary gate holds: zero order violations, correct
rollout verdicts, every crash recovered within its pinned
recovery-latency bound, zero canary losses, and the protected victim
inside its pinned isolation bound.  Each cell's observables digest must
match its committed golden (``tests/golden/sweep_smoke.json``).
"""

import json
import os

from tests import golden, load_bench_script


def sweep_smoke_records(doc: dict) -> dict:
    """Golden records of a smoke document, keyed workload/scenario: the
    driver's per-cell observables digest plus two diagnostic scalars."""
    return {
        f"{cell['workload']}/{cell['scenario']}": {
            "sha256": cell["digest"],
            "order_violations": cell["observables"]["order_violations"],
            "recovery_us": cell["observables"].get("recovery_us"),
        }
        for cell in doc["grid"]
    }


def test_smoke_grid_green(tmp_path):
    driver = load_bench_script("sweep_driver")
    out = tmp_path / "liveops_sweep_smoke.json"
    assert driver.main(["--smoke", "--out", str(out)]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert driver.validate_doc(doc) == []
    assert doc["schema"] == driver.SCHEMA
    assert doc["quick"] is True
    # every cell reproduces its golden observables digest
    records = sweep_smoke_records(doc)
    assert sorted(records) == sorted(golden.load("sweep_smoke"))
    for key, rec in records.items():
        golden.check("sweep_smoke", key, rec)
    summary = doc["summary"]
    assert summary["zero_order_violations"]
    assert summary["all_rollouts_correct"]
    assert summary["all_crashes_recovered"]
    assert summary["all_recoveries_within_bounds"]
    assert summary["zero_canary_losses"]
    assert summary["all_isolation_within_bounds"]
    # the smoke corner still exercises every workload and at least one
    # crash scenario per crashable workload
    workloads = {cell["workload"] for cell in doc["grid"]}
    scenarios = {cell["scenario"] for cell in doc["grid"]}
    assert workloads == {"tcp_bulk", "canary", "tenant"}
    assert any("crash" in s for s in scenarios)
    crash_cells = [c for c in doc["grid"] if c.get("recovered")]
    assert crash_cells
    for cell in crash_cells:
        assert cell["recovery_within_bound"], cell["scenario"]
    tenant_cells = [c for c in doc["grid"] if c["workload"] == "tenant"]
    assert tenant_cells
    for cell in tenant_cells:
        assert cell["isolation_within_bound"], cell["scenario"]
        assert cell["observables"]["victim_intact"]


def test_committed_full_grid_baseline_schema_clean():
    """The checked-in BENCH_liveops.json (full grid) stays loadable,
    schema-clean, and covers every pinned recovery bound."""
    driver = load_bench_script("sweep_driver")
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_liveops.json",
    )
    with open(path) as fh:
        doc = json.load(fh)
    assert driver.validate_doc(doc) == []
    assert doc["quick"] is False
    lat = doc["summary"]["recovery_latencies"]
    for scenario, bound in driver.RECOVERY_BOUND_US.items():
        key = scenario.replace("/", "_") + "_recovery_us"
        assert key in lat
        assert lat[key] <= bound, (scenario, lat[key], bound)
    iso = doc["summary"]["isolation_ratios"]
    for scenario, bound in driver.ISOLATION_BOUND_RATIO.items():
        key = scenario.replace("/", "_") + "_isolation_ratio"
        assert key in iso
        assert iso[key] >= bound, (scenario, iso[key], bound)
