"""Multi-tenant kernel-bypass isolation: quotas, admission control and
noisy-neighbor containment.

The tentpole bar lives in ``test_containment_matrix``: for every
tenant-scoped abuse scenario (quota-exhaustion flood, buffer leak,
oversized/unverifiable installs, a crash-looping handler, a runtime
cycle hog, a tenant crash), a multi-tenant world with the abuse applied
must leave every *other* tenant's observables — flow digests, TCP
congestion digests, latencies, counters, and the victims' own tenant
telemetry — **bit-identical** to the unperturbed run at 1/2/4 SMP
cores, and the perturbed world stays on its committed golden digest
(``tests/golden/tenancy.json``).  Alongside it: unit
coverage of the quota knobs, the token bucket, the checked degradation
order (throttle -> defer-refill -> drop), the crash-loop breakers, and
the goodput-isolation gate behind ``BENCH_tenancy.json``.
"""

import pytest

from repro.ash.tenancy import (
    ABORT_BREAKER_LIMIT,
    CRASHLOOP_LIMIT,
    TenantManager,
    TenantQuota,
    TenantQuotaError,
)
from repro.bench.testbed import make_an2_pair
from repro.bench.workloads import (
    TENANT_SCENARIOS,
    _build_sink,
    _build_spin,
    tenant_noisy_neighbor,
    tenant_world,
)
from repro.errors import SandboxViolation
from repro.hw.link import Frame
from repro.sandbox.rewriter import BudgetPolicy, SandboxPolicy
from repro.sim.units import us
from tests import golden

STATIC = SandboxPolicy(budget=BudgetPolicy.STATIC_ESTIMATE)


def _world():
    tb = make_an2_pair()
    manager = TenantManager(tb.server_kernel)
    return tb, manager


# ---------------------------------------------------------------------------
# quota knobs (satellite: validation mirrors the NodeCrash pattern)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("knob", [
    "rings", "buffers", "handler_cycles",
    "bytes_per_round", "burst_bytes", "round_us",
])
@pytest.mark.parametrize("value", [0, -1])
def test_quota_knob_validation(knob, value):
    _tb, manager = _world()
    with pytest.raises(ValueError) as err:
        manager.create("eve", **{knob: value})
    assert "eve" in str(err.value)
    assert knob in str(err.value)
    # the bad tenant was not half-created
    with pytest.raises(Exception):
        manager.get("eve")


def test_quota_defaults_validate():
    TenantQuota().validate("ok")  # the defaults must be self-consistent


def test_duplicate_tenant_refused():
    _tb, manager = _world()
    manager.create("alice")
    with pytest.raises(Exception):
        manager.create("alice")


def test_ring_quota_charged_at_bind():
    tb, manager = _world()
    sk = tb.server_kernel
    manager.create("alice", rings=2)
    sk.create_endpoint_an2(tb.server_nic, 10, tenant="alice")
    sk.create_endpoint_an2(tb.server_nic, 11, tenant="alice")
    with pytest.raises(TenantQuotaError):
        sk.create_endpoint_an2(tb.server_nic, 12, tenant="alice")
    # the refused bind left no NIC state behind
    assert tb.server_nic.binding(12) is None
    assert manager.stats()["tenants"]["alice"]["counters"][
        "quota_violations"] == 1


def test_unknown_tenant_refused():
    tb, manager = _world()
    with pytest.raises(Exception):
        tb.server_kernel.create_endpoint_an2(
            tb.server_nic, 10, tenant="nobody")


# ---------------------------------------------------------------------------
# stage 1: token-bucket admission at the NIC
# ---------------------------------------------------------------------------

def test_token_bucket_clips_oversized_frames_pre_dma():
    tb, manager = _world()
    sk = tb.server_kernel
    manager.create("mallory", burst_bytes=2048, bytes_per_round=8192)
    ep = sk.create_endpoint_an2(tb.server_nic, 30, tenant="mallory")
    plane = tb.attach_fault_plane(seed=7)
    plane.flood_tenant(tb.server_nic, 30, frame_bytes=4000, count=10,
                       start_us=10.0, gap_us=20.0)
    tb.run()
    mal = manager.stats()["tenants"]["mallory"]
    # a frame larger than the burst is mathematically never admissible
    assert mal["counters"]["throttled"] == 10
    assert mal["counters"]["dropped"]["tenant_throttle"] == 10
    assert "admitted" not in mal["counters"]
    # pre-DMA: no buffer was consumed, nothing reached the ring
    assert ep.rx_count == 0
    assert len(tb.server_nic.binding(30).buffers) == 8
    assert plane.ledger()["tenant_flood"] == 10


def test_token_bucket_refills_per_round():
    tb, manager = _world()
    manager.create("m", burst_bytes=4096, bytes_per_round=4096,
                   round_us=100.0)
    tb.server_kernel.create_endpoint_an2(tb.server_nic, 30, tenant="m")

    def blast():
        for _ in range(6):
            tb.server_nic._on_wire_frame(Frame(bytes(2048), vci=30))
        yield tb.engine.timeout(us(250.0))  # two full refill rounds later
        tb.server_nic._on_wire_frame(Frame(bytes(2048), vci=30))

    tb.engine.spawn(blast())
    tb.run()
    c = manager.stats()["tenants"]["m"]["counters"]
    assert c["admitted"] == 3           # 2 within the burst, then 1 refilled
    assert c["throttled"] == 4


def test_ethernet_frames_pass_unattributed():
    # tenancy is an AN2/VCI concept; a frame with no VCI is not gated
    tb, manager = _world()
    manager.create("alice")
    assert manager.check(tb.server_nic, Frame(b"x" * 64)) is None


# ---------------------------------------------------------------------------
# stage 2: defer-refill (held-buffer quota + reclaim), stage 3: drop
# ---------------------------------------------------------------------------

def test_held_quota_reclaims_fifo_and_keeps_ring_stocked():
    tb, manager = _world()
    sk = tb.server_kernel
    manager.create("m", buffers=3)
    ep = sk.create_endpoint_an2(tb.server_nic, 30, tenant="m", nbufs=8)
    initial = [a for a, _s in tb.server_nic.binding(30).buffers]

    def blast():
        for _ in range(10):
            tb.server_nic._on_wire_frame(Frame(b"\x01" * 4, vci=30))
            yield tb.engine.timeout(us(30.0))

    tb.engine.spawn(blast())
    tb.run()
    t = manager.get("m")
    m = manager.stats()["tenants"]["m"]
    # no app ever replenished, yet nothing was dropped: the quota
    # reclaim revoked the oldest held buffer each time (defer, not drop)
    assert m["counters"]["admitted"] == 10
    assert "dropped" not in m["counters"]
    assert m["counters"]["reclaims"] == 10 - 3
    assert m["held"] == 3
    assert manager.order_violations == 0
    # FIFO: the held window is the three *youngest* deliveries, and the
    # DMA address sequence is exactly the one a well-behaved tenant's
    # own replenish stream would have produced (a0..a7, then the
    # reclaimed a0, a1): frames 7, 8, 9 landed in a7, a0, a1
    held_addrs = [desc.addr for _ep, desc in t.held]
    assert held_addrs == [initial[7], initial[0], initial[1]]


def test_late_replenish_of_revoked_buffer_is_swallowed():
    tb, manager = _world()
    sk = tb.server_kernel
    manager.create("m", buffers=1)
    ep = sk.create_endpoint_an2(tb.server_nic, 30, tenant="m", nbufs=4)

    def blast():
        tb.server_nic._on_wire_frame(Frame(b"a" * 4, vci=30))
        yield tb.engine.timeout(us(50.0))
        tb.server_nic._on_wire_frame(Frame(b"b" * 4, vci=30))

    descs = []

    def app(proc):
        for _ in range(2):
            descs.append((yield from sk.sys_recv_block(proc, ep)))
        # the first descriptor was revoked when the second arrived;
        # replenishing it now must not double-insert its address
        yield from sk.sys_replenish(proc, ep, descs[0])
        yield from sk.sys_replenish(proc, ep, descs[1])

    ep.owner = sk.spawn_process("app", app)
    tb.engine.spawn(blast())
    tb.run()
    binding = tb.server_nic.binding(30)
    addrs = [a for a, _s in binding.buffers]
    assert len(addrs) == len(set(addrs)) == 4
    assert manager.stats()["tenants"]["m"]["counters"]["reclaims"] == 1
    assert manager.order_violations == 0


# ---------------------------------------------------------------------------
# handler installs: cycle-quota refusal, crash-loop quarantine, ownership
# ---------------------------------------------------------------------------

def test_oversized_static_install_refused_before_kernel_state():
    tb, manager = _world()
    manager.create("m", handler_cycles=1500)
    next_before = tb.server_kernel.ash_system._next_ash
    with pytest.raises(TenantQuotaError) as err:
        manager.download("m", _build_sink(4000, "hog"),
                         allowed_regions=[], policy=STATIC)
    assert "cycle" in str(err.value)
    # the refusal cost nothing: the ASH system was never touched
    assert tb.server_kernel.ash_system._next_ash == next_before
    c = manager.stats()["tenants"]["m"]["counters"]
    assert c["quota_violations"] == 1
    assert c["installs_refused"]["cycle_quota"] == 1


def test_crashloop_installs_quarantine_tenant():
    tb, manager = _world()
    manager.create("m")
    for _ in range(CRASHLOOP_LIMIT):
        with pytest.raises(SandboxViolation):
            manager.download("m", _build_spin(), allowed_regions=[],
                             policy=STATIC)
    assert manager.get("m").quarantined
    # quarantined: even a good install is now refused
    with pytest.raises(TenantQuotaError) as err:
        manager.download("m", _build_sink(), allowed_regions=[])
    assert "quarantine" in str(err.value)
    c = manager.stats()["tenants"]["m"]["counters"]
    assert c["installs_refused"]["verify"] == CRASHLOOP_LIMIT
    assert c["kills"]["quarantine"] == 1


def test_good_install_resets_crashloop_streak():
    _tb, manager = _world()
    manager.create("m")
    for _ in range(CRASHLOOP_LIMIT - 1):
        with pytest.raises(SandboxViolation):
            manager.download("m", _build_spin(), allowed_regions=[],
                             policy=STATIC)
    manager.download("m", _build_sink(), allowed_regions=[])
    assert not manager.get("m").quarantined
    with pytest.raises(SandboxViolation):
        manager.download("m", _build_spin(), allowed_regions=[],
                         policy=STATIC)
    assert not manager.get("m").quarantined  # streak restarted at 1


def test_install_version_requires_ownership():
    _tb, manager = _world()
    manager.create("alice")
    manager.create("bob")
    ash_id = manager.download("alice", _build_sink(), allowed_regions=[])
    with pytest.raises(TenantQuotaError):
        manager.install_version("bob", ash_id, _build_sink())


# ---------------------------------------------------------------------------
# runtime abuse: cycle quota, abort breaker, tenant crash
# ---------------------------------------------------------------------------

def test_runtime_cycle_hog_is_throttled_not_fatal():
    result = tenant_world(scenario="hog_runtime", perturbed=True)
    agg = result["aggressor"]
    assert agg["counters"]["cycle_throttled"] >= 1
    # throttled messages degraded in order to the ring, where the held
    # quota reclaimed them — never a drop
    assert "dropped" not in agg["counters"]
    assert result["order_violations"] == 0


def test_abort_loop_trips_ash_breaker():
    result = tenant_world(scenario="abort_runtime", perturbed=True)
    agg = result["aggressor"]
    assert agg["counters"]["kills"]["ash_breaker"] == 1
    assert result["ledger"]["tenant_abort"] == ABORT_BREAKER_LIMIT


def test_crash_tenant_drops_dead_pre_dma_and_removes_boot_records():
    tb, manager = _world()
    sk = tb.server_kernel
    manager.create("m")
    ep = sk.create_endpoint_an2(tb.server_nic, 30, tenant="m")
    ash_id = manager.download("m", _build_sink(), allowed_regions=[])
    sk.ash_system.bind(ep, ash_id)
    assert ash_id in sk.ash_system._boot_records
    manager.crash_tenant("m")
    assert ep.ash_id is None
    # its handlers and their boot records died with it: a kernel reboot
    # must not resurrect a dead tenant's code
    assert ash_id not in sk.ash_system._boot_records
    tb.server_nic._on_wire_frame(Frame(b"x" * 4, vci=30))
    assert ep.rx_count == 0
    c = manager.stats()["tenants"]["m"]["counters"]
    assert c["dropped"]["tenant_dead"] == 1
    assert c["kills"]["crash"] == 1


# ---------------------------------------------------------------------------
# the tentpole: noisy-neighbor fault containment, bit-identical victims
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", TENANT_SCENARIOS)
def test_containment_matrix(scenario):
    """One tenant is abused; every other tenant's observables are
    bit-identical to the unperturbed run — per core count.  This is the noisy-neighbor containment proof."""
    for ncores in (1, 2, 4):
        base = tenant_world(scenario=scenario, ncores=ncores,
                            perturbed=False)
        pert = tenant_world(scenario=scenario, ncores=ncores,
                            perturbed=True)
        assert pert["ledger"], (scenario, ncores)
        assert base["victims"] == pert["victims"], (scenario, ncores)
        assert base["order_violations"] == 0
        assert pert["order_violations"] == 0


def tenant_record(scenario: str) -> dict:
    """Golden record of the perturbed one-core ``tenant_world``."""
    out = tenant_world(scenario=scenario)
    return golden.record({"victims": out["victims"], "ledger": out["ledger"]},
                         ledger=out["ledger"])


@pytest.mark.parametrize("scenario", TENANT_SCENARIOS)
def test_victim_observables_match_golden(scenario):
    """The perturbed world itself is deterministic: victims and the
    fault ledger match the golden bit for bit."""
    golden.check("tenancy", scenario, tenant_record(scenario))


def test_noisy_neighbor_goodput_gate():
    """The BENCH_tenancy bar, in miniature: under a heavy flood the
    protected victim keeps >=0.9 of its solo goodput; the unprotected
    ablation is measurably worse off than the protected run."""
    solo = tenant_noisy_neighbor(intensity_fps=0, total_kb=48)
    prot = tenant_noisy_neighbor(intensity_fps=60_000, total_kb=48)
    ratio = prot["goodput_mbps"] / solo["goodput_mbps"]
    assert ratio >= 0.9, ratio
    assert prot["payload_sha"] == solo["payload_sha"]
    assert prot["order_violations"] == 0
    unprot = tenant_noisy_neighbor(intensity_fps=60_000, total_kb=48,
                                   protected=False)
    assert unprot["goodput_mbps"] < prot["goodput_mbps"]


def test_tenant_stats_exposed_in_kernel_stats():
    tb, manager = _world()
    manager.create("alice")
    stats = tb.server_kernel.stats()
    assert stats["tenants"]["tenants"]["alice"]["dead"] is False
