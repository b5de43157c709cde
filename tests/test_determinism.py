"""Determinism: identical runs produce identical virtual timings.

The paper de-noised its DECstations by relinking kernels and taking the
best of ten runs; our substitute is a fully deterministic simulator —
which these tests pin down, because every reproduced table relies on it.
The second half pins a multi-flow scale world to its committed golden
digest (``tests/golden/scale.json``): every simulated observable and
the engine's dispatch ledger, so a change anywhere in the model or the
event engine that moves a single tick shows up here.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench import workloads as W
from repro.bench.workloads import TcpConfig
from tests import golden

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
))

from bench_fairness import run_fairness  # noqa: E402
from bench_scale import ScaleWorld, bench  # noqa: E402

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "results",
)


def test_raw_latency_bitwise_repeatable():
    a = W.raw_pingpong_kernel(iters=6, warmup=1)
    b = W.raw_pingpong_kernel(iters=6, warmup=1)
    assert a == b


def test_udp_pingpong_repeatable():
    a = W.udp_pingpong(iters=5, warmup=1)
    b = W.udp_pingpong(iters=5, warmup=1)
    assert a == b


def test_tcp_session_repeatable_including_fastpath():
    cfg = TcpConfig(handler="ash")
    a = W.tcp_pingpong(config=cfg, iters=5, warmup=1)
    b = W.tcp_pingpong(config=cfg, iters=5, warmup=1)
    assert a == b


def test_remote_increment_repeatable_across_modes():
    for mode in ("ash", "upcall", "user"):
        a = W.remote_increment(mode=mode, iters=4, warmup=1).rt_us
        b = W.remote_increment(mode=mode, iters=4, warmup=1).rt_us
        assert a == b, mode


def test_congestion_control_repeatable_under_loss():
    """The cwnd/ssthresh event stream — the congestion controller's
    entire observable behaviour — is a pure function of the seed."""
    from repro.bench.workloads import tcp_bulk_transfer

    def run():
        _tb, client, server, _, _ = tcp_bulk_transfer(
            11, 24_000, knobs=dict(drop=0.1))
        return client.congestion_digest(), server.congestion_digest()

    assert run() == run()


def test_calibration_change_actually_changes_results():
    """Guard against the cost model silently not being consulted."""
    from repro.hw.calibration import Calibration

    base = W.udp_pingpong(iters=4, warmup=1)
    slower = W.udp_pingpong(
        cal=Calibration(an2_hw_oneway_us=96.0), iters=4, warmup=1
    )
    assert slower > base + 90.0  # ~2x the one-way hardware latency


def test_table2_ethernet_row_matches_committed_results():
    """Table II's Ethernet row — UDP and TCP over the DPF-demultiplexed
    10 Mb/s Ethernet — equals the committed benchmark result exactly."""
    with open(os.path.join(RESULTS_DIR, "table2_udp_tcp.json")) as fh:
        rows = {r["label"]: r for r in json.load(fh)["rows"]}
    want = rows["Ethernet; with checksum"]
    eth = TcpConfig(eth=True)
    assert W.udp_pingpong(eth=True) == want["UDP lat"]
    assert W.udp_train_throughput(eth=True) == want["UDP tput"]
    assert W.tcp_pingpong(config=eth) == want["TCP lat"]
    assert W.tcp_stream_throughput(
        config=eth, total_bytes=512 * 1024) == want["TCP tput"]


# -- golden scale worlds ----------------------------------------------------

def scale_world(**kw) -> ScaleWorld:
    """The one-core golden world, or an SMP variant (``cores=``, ...)."""
    cfg = dict(pairs=1, flows=3, rounds=4, size=2048)
    cfg.update(kw)
    world = ScaleWorld(**cfg)
    world.run()
    return world


def scale_record(world: ScaleWorld) -> dict:
    """Golden record of a finished scale world: the observables digest,
    the completion stamp, and the engine's clock and dispatch ledger."""
    stats = world.engine.stats()
    return golden.record(
        world.observables(),
        finish_ps=world.finish_ps,
        packets=world.packets(),
        now_ps=stats["now_ps"],
        scheduled=stats["scheduled"],
        fired=stats["fired"],
        cancelled=stats["cancelled"],
        inlined=stats["inlined"],
        pending=stats["pending"],
        tombstones=stats["queue"]["tombstones"],
    )


def test_scale_world_matches_golden():
    """Every simulated observable — per-flow round-trip times, cache
    hits/misses, interrupt and frame counts — and the engine's clock
    and dispatch ledger match the golden."""
    golden.check("scale", "1core", scale_record(scale_world()))


def test_scale_world_dispatch_ledger_matches_golden():
    """The dispatch ledger — queue entries plus the same-tick hops the
    fused loop elides, with folded CPU charges and in-place lock takes
    counted as the single timeout or nothing they now cost — matches
    the golden: the scheduled/fired/cancelled/inlined counters, every
    scheduled event either fired or cancelled, and nothing left behind
    on the queue."""
    rec = scale_record(scale_world())
    want = golden.load("scale")["1core"]
    for key in ("scheduled", "fired", "cancelled", "inlined"):
        assert rec[key] == want[key], key
    assert rec["scheduled"] == rec["fired"] + rec["cancelled"]
    assert rec["inlined"] > 0
    assert rec["pending"] == rec["tombstones"] == 0


def test_golden_world_reproduces_in_another_process():
    """Committed goldens only hold if per-process hash randomization
    never leaks into a simulated result.  Recompute the two-core scale
    world in a child interpreter with a different ``PYTHONHASHSEED``
    and compare it to the same golden the in-process test uses."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import json\n"
            "from tests.test_determinism import scale_record\n"
            "from tests.test_scale_smp import smp_world\n"
            "print(json.dumps(scale_record(smp_world(2))))\n")
    seed = "12345" if os.environ.get("PYTHONHASHSEED") != "12345" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    child = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    golden.check("scale", "smp2", json.loads(child.stdout))


def test_scale_bench_smoke():
    """The quick benchmark config runs end to end."""
    out = bench(quick=True)
    assert out["configs"][0]["packets"] > 0
    assert out["configs"][0]["events_per_packet"] > 0
    assert out["configs"][0]["sim_elapsed_us"] > 0


def fairness_record() -> dict:
    """Golden record of the quick fairness config: 8 bulk TCP flows of
    24000 bytes sharing one AN2 link."""
    r = run_fairness(8, 24_000)
    return golden.record(r, jain_index=r["jain_index"],
                         goodput_mbps=r["goodput_mbps"])


def test_fairness_world_matches_golden():
    """Per-flow digests, virtual times, retransmits and congestion
    digests of the shared-link fairness world match the golden."""
    golden.check("fairness", "flows8_bytes24000", fairness_record())


@pytest.mark.slow
def test_scale_bench_full_sweep():
    """The committed sweep runs end to end and keeps its core-sweep
    scaling gate (``bench`` raises below 0.8x of linear)."""
    out = bench(quick=False)
    assert out["summary"]["core_sweep"]
