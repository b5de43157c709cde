"""Tier-1 gate: metric call sites and the export schema cannot drift.

``benchmarks/check_metrics_lint.py`` statically cross-checks every
``counter("...")`` / ``gauge("...")`` / ``histogram("...")`` call site
under ``src/`` against ``check_metrics_schema.KNOWN_METRICS`` — both
directions.  This file runs that lint as part of the ordinary suite and
pins its detection behaviour on synthetic trees.
"""

from tests import load_bench_script


def test_source_tree_is_clean():
    """Every emitted metric is registered under the right kind, and
    every registered metric still has an emitter."""
    lint = load_bench_script("check_metrics_lint")
    assert lint.lint() == []
    assert lint.main([]) == 0


def test_registry_covers_only_real_kinds():
    schema = load_bench_script("check_metrics_schema")
    assert set(schema.KNOWN_METRICS.values()) <= {
        "counters", "gauges", "histograms"
    }


def test_unregistered_call_site_is_flagged(tmp_path):
    lint = load_bench_script("check_metrics_lint")
    (tmp_path / "mod.py").write_text(
        'tel.counter("rogue.metric", op="x").inc()\n'
    )
    errors = lint.lint(root=str(tmp_path), registry={})
    assert len(errors) == 1
    assert "rogue.metric" in errors[0]
    assert "KNOWN_METRICS" in errors[0]


def test_kind_mismatch_is_flagged(tmp_path):
    lint = load_bench_script("check_metrics_lint")
    (tmp_path / "mod.py").write_text('tel.gauge("x.depth").set(3)\n')
    errors = lint.lint(root=str(tmp_path),
                       registry={"x.depth": "counters"})
    assert len(errors) == 1
    assert "emitted as gauges, registered as counters" in errors[0]


def test_stale_registry_entry_is_flagged(tmp_path):
    lint = load_bench_script("check_metrics_lint")
    (tmp_path / "mod.py").write_text("pass\n")
    errors = lint.lint(root=str(tmp_path),
                       registry={"ghost.metric": "counters"})
    assert len(errors) == 1
    assert "no emitter" in errors[0]


def test_indirect_emission_via_literal_satisfies_registry(tmp_path):
    """Names emitted through a variable (e.g. the engine's
    ``sim.calendar.*`` publishing loop) count as live as long as the
    literal appears somewhere in the tree."""
    lint = load_bench_script("check_metrics_lint")
    (tmp_path / "mod.py").write_text(
        'totals = {"sim.x.fired": 3}\n'
        "for name, n in totals.items():\n"
        "    hub.counter(name).inc(n)\n"
    )
    errors = lint.lint(root=str(tmp_path),
                       registry={"sim.x.fired": "counters"})
    assert errors == []


def test_multiline_call_site_is_seen(tmp_path):
    lint = load_bench_script("check_metrics_lint")
    (tmp_path / "mod.py").write_text(
        "tel.counter(\n"
        '    "wrapped.metric",\n'
        "    outcome=o).inc()\n"
    )
    errors = lint.lint(root=str(tmp_path), registry={})
    assert len(errors) == 1 and "wrapped.metric" in errors[0]
