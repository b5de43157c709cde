"""Chaos/property tests for the deterministic fault-injection plane.

Covers the FaultPlane's three seam families (link impairments, NIC
stress, forced mid-handler ASH aborts) and the recovery guarantees they
exercise: TCP completing byte-identical under drop+corrupt+duplicate+
reorder, NICs dropping-and-counting under injected exhaustion, UDP
surviving truncated DMA, and an aborted ASH degrading to the upcall
path with zero message loss.  The same seeded schedule must reproduce
its committed golden outcome (``tests/golden/faults.json``) exactly.
"""

import random

import pytest

from repro.ash.examples import build_remote_increment
from repro.bench.testbed import (
    CLIENT_TO_SERVER_VCI,
    SERVER_TO_CLIENT_VCI,
    make_an2_pair,
)
from repro.bench.workloads import tcp_bulk_transfer
from repro.hw.link import Frame
from repro.kernel.upcall import UpcallHandler
from repro.net.socket_api import make_stacks, tcp_pair
from repro.net.udp import UdpSocket
from repro.sim.engine import Engine
from tests import golden

CHAOS_KNOBS = dict(drop=0.03, corrupt=0.03, duplicate=0.04, reorder=0.04)
HEAVY_KNOBS = dict(drop=0.06, corrupt=0.06, duplicate=0.08, reorder=0.08)


def chaos_tcp_transfer(seed: int, nbytes: int,
                       knobs: dict = CHAOS_KNOBS) -> dict:
    """Bulk transfer under combined impairments; returns observables."""
    tb, client, server, delivered, _ = tcp_bulk_transfer(seed, nbytes,
                                                         knobs=knobs)
    return {
        "delivered": delivered,
        "ledger": tb.fault_plane.ledger(),
        "retransmits": (client.tcb.retransmits, server.tcb.retransmits),
        "fast_retransmits": (client.tcb.fast_retransmits,
                             server.tcb.fast_retransmits),
        "checksum_failures": (client.tcb.checksum_failures,
                              server.tcb.checksum_failures),
        "dup_acks_rcvd": (client.tcb.dup_acks_rcvd,
                          server.tcb.dup_acks_rcvd),
        "time_ps": tb.engine.now,
    }


def transfer_record(out: dict) -> dict:
    """Golden record of a chaos/crash transfer's observables."""
    return golden.record(out, time_ps=out["time_ps"],
                         retransmits=out["retransmits"],
                         ledger=out["ledger"])


#: chaos transfers pinned in ``tests/golden/faults.json``
CHAOS_WORLDS = {
    "chaos_seed23": dict(seed=23, nbytes=24_000),
    **{f"chaos_heavy_seed{seed}": dict(seed=seed, nbytes=48_000,
                                       knobs=HEAVY_KNOBS)
       for seed in (3, 17, 91)},
}


def test_fault_smoke():
    """Fast tier-1 smoke: a combined-impairment transfer completes and
    the seeded schedule reproduces exactly."""
    a = chaos_tcp_transfer(seed=11, nbytes=16_000)
    b = chaos_tcp_transfer(seed=11, nbytes=16_000)
    assert sum(a["ledger"].values()) > 0, "no fault ever fired"
    assert a == b, "same seed must reproduce the same run exactly"


def test_combined_impairments_match_golden():
    """The acceptance bar: under a seeded fault schedule the delivered
    bytes, retransmit counts, fault ledger and virtual time match the
    golden."""
    out = chaos_tcp_transfer(**CHAOS_WORLDS["chaos_seed23"])
    golden.check("faults", "chaos_seed23", transfer_record(out))


@pytest.mark.slow
@pytest.mark.parametrize("seed", [3, 17, 91])
def test_chaos_sweep_heavy(seed):
    """Heavier chaos matrix (slow tier): higher rates, larger transfer,
    every run on its golden."""
    key = f"chaos_heavy_seed{seed}"
    out = chaos_tcp_transfer(**CHAOS_WORLDS[key])
    assert sum(out["ledger"].values()) > 0
    golden.check("faults", key, transfer_record(out))


class TestLinkImpairments:
    def test_corrupt_segments_detected_and_counted(self):
        """Bit-corrupted TCP segments fail checksum verification and are
        dropped-and-counted, never delivered as payload."""
        out = chaos_tcp_transfer(
            seed=7, nbytes=48_000,
            knobs=dict(corrupt=0.3),
        )
        assert out["ledger"].get("corrupt", 0) >= 10
        # corruption is caught by the TCP checksum (counted) or, when the
        # flipped bit lands in the IP header, by the header parse; either
        # way the sender's timer retransmits the segment
        assert sum(out["checksum_failures"]) > 0
        assert sum(out["retransmits"]) > 0

    def test_duplicates_and_reorder_yield_dup_acks(self):
        out = chaos_tcp_transfer(
            seed=29, nbytes=24_000,
            knobs=dict(duplicate=0.2, reorder=0.15),
        )
        assert out["ledger"].get("duplicate", 0) > 0
        assert out["ledger"].get("reorder", 0) > 0
        assert sum(out["dup_acks_rcvd"]) > 0

    def test_impairment_window_gates_injection(self):
        """start_us/stop_us windows key off the deterministic clock."""
        tb = make_an2_pair()
        plane = tb.attach_fault_plane(seed=1)
        imp = plane.impair_link(tb.link, drop=1.0, stop_us=0.0)
        ep = tb.server_kernel.create_endpoint_an2(
            tb.server_nic, CLIENT_TO_SERVER_VCI
        )
        for _ in range(4):
            tb.client_nic.transmit(Frame(b"x" * 64,
                                         vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        # the window closed at t=0: every frame passed untouched
        assert plane.ledger() == {}
        assert imp.seen == 4
        assert len(ep.ring) == 4


class TestNicStress:
    def test_exhaustion_drops_and_counts(self):
        """Injected rx-ring exhaustion drops-and-counts (backpressure
        telemetry) while the rest of the stream stays live."""
        tb = make_an2_pair()
        plane = tb.attach_fault_plane(seed=4)
        stress = plane.stress_nic(tb.server_nic, exhaust=0.5)
        ep = tb.server_kernel.create_endpoint_an2(
            tb.server_nic, CLIENT_TO_SERVER_VCI
        )
        nsent = 8
        for _ in range(nsent):
            tb.client_nic.transmit(Frame(b"y" * 128,
                                         vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        dropped = plane.total("nic_exhaust")
        assert 0 < dropped < nsent, "stress should drop some, not all"
        assert tb.server_nic.rx_dropped == dropped
        assert tb.server_nic.drop_reasons == {"stress_exhaust": dropped}
        assert len(ep.ring) == nsent - dropped
        assert stress.seen == nsent

    def test_truncated_dma_does_not_wedge_udp(self):
        """Truncated frames surface as malformed-and-dropped; intact
        datagrams keep flowing."""
        tb = make_an2_pair()
        cstack, sstack = make_stacks(tb)
        csock = UdpSocket(cstack, 7001, rx_vci=2)
        ssock = UdpSocket(sstack, 7000, rx_vci=1)
        plane = tb.attach_fault_plane(seed=9)
        plane.stress_nic(tb.server_nic, truncate=0.5, truncate_to=12)
        nsent = 10
        received = []

        def server(proc):
            while True:
                dg = yield from ssock.recvfrom(proc)
                received.append(dg.payload)

        def client(proc):
            from repro.net.headers import ip_aton

            for i in range(nsent):
                yield from csock.sendto(
                    proc, bytes([i]) * 64, ip_aton("10.0.0.2"), 7000
                )
                yield from proc.compute_us(500.0)

        tb.server_kernel.spawn_process("server", server)
        tb.client_kernel.spawn_process("client", client)
        tb.run(max_virtual_s=1.0)
        truncated = plane.total("nic_truncate")
        assert 0 < truncated < nsent
        assert ssock.malformed == truncated
        assert len(received) == nsent - truncated
        for payload in received:
            assert len(payload) == 64 and len(set(payload)) == 1


def setup_increment(tb):
    """Bind remote_increment both as the ASH and as the upcall, over one
    shared counter, so a degraded delivery is indistinguishable in
    outcome from a consumed one."""
    mem = tb.server.memory
    state = mem.alloc("ustate", 64)
    mem.store_u32(state.base + 0, state.base + 48)   # counter addr
    mem.store_u32(state.base + 4, SERVER_TO_CLIENT_VCI)
    mem.store_u32(state.base + 8, state.base + 56)   # scratch
    ep = tb.server_kernel.create_endpoint_an2(
        tb.server_nic, CLIENT_TO_SERVER_VCI
    )
    ash_id = tb.server_kernel.ash_system.download(
        build_remote_increment(), [(state.base, 64)],
        user_word=state.base,
    )
    tb.server_kernel.ash_system.bind(ep, ash_id)
    ep.upcall = UpcallHandler(
        program=build_remote_increment(), user_word=state.base,
    )
    return ep, ash_id, state.base + 48


def abort_schedule_run() -> dict:
    """Remote increments under a seeded random abort schedule; returns
    the golden record (virtual time, ledger, aborts, counter)."""
    tb = make_an2_pair()
    ep, ash_id, counter = setup_increment(tb)
    plane = tb.attach_fault_plane(seed=6)
    plane.abort_ash(tb.server_kernel, rate=0.5)
    for v in range(1, 5):
        tb.client_nic.transmit(
            Frame(v.to_bytes(4, "little"), vci=CLIENT_TO_SERVER_VCI)
        )
    tb.run()
    entry = tb.server_kernel.ash_system.entry(ash_id)
    obs = {
        "time_ps": tb.engine.now,
        "ledger": plane.ledger(),
        "involuntary_aborts": entry.involuntary_aborts,
        "counter": tb.server.memory.load_u32(counter),
    }
    return golden.record(obs, **obs)


class TestAshAbort:
    def test_mid_handler_abort_falls_back_to_upcall_zero_loss(self):
        """The acceptance bar: a forced mid-handler abort degrades to
        the upcall path and the message is not lost — the counter sees
        every value and every message is answered."""
        tb = make_an2_pair()
        ep, ash_id, counter = setup_increment(tb)
        cli_ep = tb.client_kernel.create_endpoint_an2(
            tb.client_nic, SERVER_TO_CLIENT_VCI
        )
        plane = tb.attach_fault_plane(seed=2)
        injector = plane.abort_ash(tb.server_kernel, every=2)
        values = [1, 2, 3, 4, 5, 6]
        for v in values:
            tb.client_nic.transmit(
                Frame(v.to_bytes(4, "little"), vci=CLIENT_TO_SERVER_VCI)
            )
        tb.run()
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert injector.fired >= 2, "the injector never fired"
        assert entry.involuntary_aborts == injector.fired
        assert plane.total("ash_abort") == injector.fired
        # zero loss: every message incremented the counter exactly once
        # (via the ASH or, after an abort, via the upcall fallback) ...
        assert tb.server.memory.load_u32(counter) == sum(values)
        # ... and every message produced exactly one reply
        assert len(cli_ep.ring) == len(values)
        assert ep.upcall.invocations == injector.fired
        assert tb.server_kernel.ash_abort_fallbacks == injector.fired

    def test_abort_schedule_matches_golden(self):
        """Forced aborts burn cycles; the cycle accounting (and thus
        virtual time) stays on the golden."""
        rec = abort_schedule_run()
        golden.check("faults", "abort_schedule", rec)
        assert rec["counter"] == 10  # zero loss


def test_scenario_script_installs_all_sites():
    """A scenario is a few factory calls; each installs its injector on
    the seam the hot path consults."""
    tb = make_an2_pair()
    plane = tb.attach_fault_plane(seed=5)
    installed = [
        plane.impair_link(tb.link, drop=0.1, skip_first=3),
        plane.stress_nic(tb.server_nic, exhaust=0.2),
        plane.abort_ash(tb.server_kernel, every=3),
        plane.pressure_memory(tb.server, rate=0.1),
        plane.contend_cpu(tb.server, rate=0.1),
    ]
    assert tb.link.impairment is installed[0]
    assert tb.server_nic.stress is installed[1]
    assert tb.server_kernel.ash_system.fault_injector is installed[2]
    assert tb.server.memory.pressure is installed[3]
    assert tb.server.cpu.contention is installed[4]


# ---------------------------------------------------------------------------
# crash/restart recovery plane
# ---------------------------------------------------------------------------

def crash_tcp_transfer(seed: int, nbytes: int = 48_000, crash: bool = True,
                       crash_at_us: float = 1_500.0, **kw) -> dict:
    """:func:`tcp_bulk_transfer` with a 40 ms server crash mid-flow by
    default; returns observables including the recovery record."""
    tb, client, server, delivered, _ = tcp_bulk_transfer(
        seed, nbytes,
        crash=dict(at_us=crash_at_us, outage_us=40_000.0) if crash else None,
        **kw)
    sk, ck = tb.server_kernel, tb.client_kernel
    return {
        "delivered": delivered,
        "ledger": tb.fault_plane.ledger(),
        "recoveries": sk.recoveries,
        "crash_log": [dict(rec) for rec in sk.crash_log],
        "lost_messages": sk.lost_messages,
        "order_violations": (sk.degradation_order_violations,
                             ck.degradation_order_violations),
        "outcomes": (dict(sk.delivery_outcomes),
                     dict(ck.delivery_outcomes)),
        "alloc_failures": dict(tb.server.memory.alloc_failures),
        "contention_cycles": tb.server.cpu.contention_cycles,
        "install_failures": sk.ash_system.install_failures,
        "abort_fallbacks": sk.ash_abort_fallbacks,
        "handler_mode": server.handler_mode,
        "retransmits": (client.tcb.retransmits, server.tcb.retransmits),
        "time_ps": tb.engine.now,
    }


#: crash/pressure/contention transfers pinned in ``tests/golden/faults.json``
CRASH_WORLDS = {
    "crash_seed37": dict(seed=37),
    "crash_seed43_upcall": dict(seed=43, mode="upcall", crash_at_us=900.0),
    "pressure_seed47": dict(seed=47, crash=False, nbytes=24_000,
                            pressure=dict(rate=0.2, sites=("rx_refill",))),
    "contention_seed61": dict(seed=61, crash=False, nbytes=24_000,
                              contention=dict(rate=0.3, burst_cycles=2_000)),
    "combined_seed71": dict(
        seed=71, mode="ash",
        pressure=dict(rate=0.1, sites=("rx_refill", "ash_install")),
        contention=dict(rate=0.1, burst_cycles=1_000, budget_rate=0.2),
        knobs=dict(drop=0.02, corrupt=0.02)),
}


def crash_world(key: str) -> dict:
    """Run one ``CRASH_WORLDS`` transfer and check it against its golden."""
    out = crash_tcp_transfer(**CRASH_WORLDS[key])
    golden.check("faults", key, transfer_record(out))
    return out


class TestCrashRecovery:
    def test_crash_mid_flow_zero_loss(self):
        """The acceptance bar: a node crash mid-transfer tears down all
        kernel-volatile state, yet the flow completes byte-identically
        to the uncrashed run — the SharedTcb survives in application
        memory and the sender's retransmissions bridge the outage."""
        crashed = crash_tcp_transfer(seed=31)
        clean = crash_tcp_transfer(seed=31, crash=False)
        assert crashed["delivered"] == clean["delivered"]
        assert crashed["recoveries"] == 1
        assert clean["recoveries"] == 0
        rec = crashed["crash_log"][0]
        assert rec["reboot_at"] is not None
        # the crash landed mid-flow: traffic resumed after the reboot
        assert rec["first_delivery_after_reboot"] is not None
        assert rec["first_delivery_after_reboot"] >= rec["reboot_at"]
        # retransmissions did real work bridging the outage
        assert crashed["retransmits"][0] > clean["retransmits"][0]
        assert crashed["time_ps"] > clean["time_ps"]
        assert crashed["order_violations"] == (0, 0)

    def test_crash_recovery_matches_golden(self):
        """The crashed run matches its golden."""
        out = crash_world("crash_seed37")
        assert out["recoveries"] == 1

    @pytest.mark.parametrize("mode", ["ash", "upcall"])
    def test_crash_reinstalls_fastpath(self, mode):
        """Reboot re-registers the endpoint's handlers from the boot
        records: a downloaded ASH is re-verified and re-installed under
        its original id, an upcall binding is restored verbatim."""
        out = crash_tcp_transfer(seed=41, mode=mode)
        assert out["recoveries"] == 1
        rec = out["crash_log"][0]
        assert rec["first_delivery_after_reboot"] is not None
        if mode == "ash":
            assert rec["ash_reinstalls"] == 1
            assert rec["ash_reinstall_failures"] == 0
        # post-reboot segments were consumed by the reinstalled handler
        assert out["outcomes"][0].get(mode, 0) > 0
        assert out["order_violations"] == (0, 0)

    def test_messages_lost_in_crash_are_counted(self):
        """Rx-ring contents die with the kernel — never silently: each
        flushed or in-flight message is counted, and TCP recovers every
        byte anyway."""
        out = crash_world("crash_seed43_upcall")
        assert out["crash_log"][0]["lost_messages"] == out["lost_messages"]
        assert out["ledger"].get("node_crash") == 1
        assert out["ledger"].get("node_reboot") == 1


class TestMemPressure:
    def test_rx_refill_pressure_degrades_not_loses(self):
        """Failed replenish allocations park the buffer (deferred
        refill) instead of wedging the ring; the transfer completes."""
        out = crash_world("pressure_seed47")
        assert out["alloc_failures"].get("rx_refill", 0) > 0
        assert out["ledger"].get("mem_pressure", 0) > 0
        assert out["order_violations"] == (0, 0)

    def test_ash_install_pressure_degrades_to_upcall(self):
        """An ASH download refused under memory pressure degrades the
        fast path one level: the upcall handler serves the flow."""
        out = crash_tcp_transfer(
            seed=53, crash=False, nbytes=24_000, mode="ash",
            pressure=dict(rate=1.0, sites=("ash_install",),
                          max_failures=1),
        )
        assert out["handler_mode"] == "upcall"
        assert out["install_failures"] == 1
        assert out["alloc_failures"].get("ash_install") == 1
        assert out["outcomes"][0].get("upcall", 0) > 0
        assert out["order_violations"] == (0, 0)

    def test_direct_alloc_failure_raises_typed_error(self):
        from repro.errors import AllocationError

        tb = make_an2_pair()
        plane = tb.attach_fault_plane(seed=59)
        plane.pressure_memory(tb.server, rate=1.0, sites=("alloc",),
                              max_failures=1)
        with pytest.raises(AllocationError) as exc:
            tb.server.memory.alloc("victim", 128, site="alloc")
        assert exc.value.site == "alloc"
        assert tb.server.memory.alloc_failures == {"alloc": 1}
        # max_failures reached: the next allocation proceeds normally
        region = tb.server.memory.alloc("victim", 128, site="alloc")
        assert region.size == 128


class TestCpuContention:
    def test_contention_stretches_time_zero_loss(self):
        """Stolen cycles stretch virtual time but lose nothing; the
        stretched schedule matches its golden."""
        out = crash_world("contention_seed61")
        calm = crash_tcp_transfer(seed=61, crash=False, nbytes=24_000)
        assert out["contention_cycles"] > 0
        assert out["ledger"].get("cpu_contention", 0) > 0
        assert out["time_ps"] > calm["time_ps"]
        assert out["order_violations"] == (0, 0)

    def test_budget_contention_forces_ash_aborts(self):
        """A contention burst charged against the sandbox's wall-clock
        timer budget forces an involuntary abort mid-handler — which
        degrades in order through the hierarchy with zero loss."""
        out = crash_tcp_transfer(
            seed=67, crash=False, nbytes=24_000, mode="ash",
            # the two-tick budget is 80k cycles: a near-budget burst
            # leaves the handler almost nothing, tripping the timer
            contention=dict(budget_rate=0.5, burst_cycles=79_990),
        )
        assert out["abort_fallbacks"] > 0, \
            "no budget-starved ASH was ever involuntarily aborted"
        sk_outcomes = out["outcomes"][0]
        assert sk_outcomes.get("ash", 0) > 0
        # no upcall is bound: aborted messages degrade ash -> ring
        assert sk_outcomes.get("ring", 0) > out["abort_fallbacks"] // 2
        assert out["order_violations"] == (0, 0)


def test_combined_fault_sweep_zero_order_violations():
    """Everything at once — crash mid-flow, memory pressure, CPU
    contention, link chaos — and service still degrades strictly
    ash → upcall → ring → drop with zero silent loss, bit-identically
    matching its golden."""
    out = crash_world("combined_seed71")
    assert out["recoveries"] == 1
    assert out["order_violations"] == (0, 0)
    fired = out["ledger"]
    assert fired.get("node_crash") == 1 and fired.get("node_reboot") == 1


# ---------------------------------------------------------------------------
# multi-pair fault isolation
# ---------------------------------------------------------------------------

def _pair_observables(tb, client, server, got, data):
    assert got and got[0] == data, "transfer corrupted or incomplete"
    sk, ck = tb.server_kernel, tb.client_kernel
    return {
        "delivered": got[0],
        "retransmits": (client.tcb.retransmits, server.tcb.retransmits),
        "checksum_failures": (client.tcb.checksum_failures,
                              server.tcb.checksum_failures),
        "acks_sent": (client.tcb.acks_sent, server.tcb.acks_sent),
        "outcomes": (dict(sk.delivery_outcomes),
                     dict(ck.delivery_outcomes)),
        "lost_messages": (sk.lost_messages, ck.lost_messages),
        "recoveries": (sk.recoveries, ck.recoveries),
        "order_violations": (sk.degradation_order_violations,
                             ck.degradation_order_violations),
    }


def multi_pair_run(npairs: int = 3, impair: bool = False) -> list:
    """N independent TCP flows in one shared engine; optionally crash
    and chaos pair 0 only.  Returns per-pair observables."""
    engine = Engine()
    world = []
    for i in range(npairs):
        tb = make_an2_pair(engine=engine, name_prefix=f"p{i}.")
        cstack, sstack = make_stacks(tb)
        client, server = tcp_pair(cstack, sstack, rto_us=20_000.0)
        data = bytes(random.Random(100 + i).randrange(256)
                     for _ in range(12_000))
        got = []

        def server_body(proc, server=server, got=got, n=len(data)):
            yield from server.accept(proc)
            got.append((yield from server.read(proc, n)))
            yield from server.write(proc, b"done")

        def client_body(proc, client=client, data=data):
            yield from client.connect(proc)
            yield from client.write(proc, data)
            reply = yield from client.read(proc, 4)
            assert reply == b"done"
            yield from client.linger(proc, duration_us=2_000_000.0)

        tb.server_kernel.spawn_process(f"p{i}.server", server_body)
        tb.client_kernel.spawn_process(f"p{i}.client", client_body)
        world.append((tb, client, server, got, data))
    if impair:
        tb0 = world[0][0]
        plane = tb0.attach_fault_plane(seed=83)
        plane.crash_node(tb0.server_kernel, at_us=2_000.0,
                         outage_us=30_000.0)
        plane.impair_link(tb0.link, drop=0.05, corrupt=0.05,
                          skip_first=3)
    from repro.sim.units import seconds
    engine.run(until=engine.now + seconds(120.0))
    return [_pair_observables(*entry) for entry in world]


def test_multi_pair_fault_isolation():
    """Crashing and impairing one pair in a shared-engine world leaves
    every other flow's observables byte-identical to the unimpaired
    run: faults do not leak across node boundaries."""
    calm = multi_pair_run()
    stormy = multi_pair_run(impair=True)
    # the impaired pair really was hit ...
    assert stormy[0]["recoveries"] == (1, 0)
    assert stormy[0]["retransmits"] != calm[0]["retransmits"]
    # ... and the bystanders never noticed
    assert stormy[1:] == calm[1:]
    for obs in stormy:
        assert obs["order_violations"] == (0, 0)


class TestSeamIndependence:
    """Property: per-seam RNG streams are keyed by (plane seed, seam
    name) alone — adding or removing one injector leaves every other
    seam's draw sequence byte-identical.  This is what makes a chaos
    scenario composable: turning on link impairments cannot silently
    reshuffle which frames the NIC-stress seam drops."""

    @staticmethod
    def _nic_stress(extra_seams):
        tb = make_an2_pair()
        plane = tb.attach_fault_plane(seed=13)
        if extra_seams:
            # install two unrelated seams *before* the one under test —
            # the installation order/index must not leak into its stream
            plane.impair_link(tb.link, drop=0.5)
            plane.stress_nic(tb.client_nic, exhaust=0.5)
        return plane.stress_nic(tb.server_nic, exhaust=0.5)

    def test_site_name_ignores_other_injectors(self):
        lone = self._nic_stress(extra_seams=False)
        crowded = self._nic_stress(extra_seams=True)
        assert lone.site == crowded.site == "nic:server.an2"

    def test_draw_sequence_unchanged_by_added_seams(self):
        lone = self._nic_stress(extra_seams=False)
        crowded = self._nic_stress(extra_seams=True)
        assert ([lone.rng.random() for _ in range(256)]
                == [crowded.rng.random() for _ in range(256)])

    def test_drop_pattern_unchanged_by_added_seams(self):
        """The behavioral face of the same property: the exact frames
        the NIC seam eats are identical with and without bystanders."""
        patterns = []
        for extra in (False, True):
            stress = self._nic_stress(extra_seams=extra)
            patterns.append([
                stress.on_rx(Frame(b"x" * 32, vci=1)) is None
                for _ in range(128)
            ])
        assert patterns[0] == patterns[1]
        # and the pattern is a real mix, not degenerate all/none
        assert any(patterns[0]) and not all(patterns[0])

    def test_streams_keyed_by_seed_and_site(self):
        tb = make_an2_pair()
        plane13 = tb.attach_fault_plane(seed=13)
        draw = lambda plane, site: [  # noqa: E731
            plane._rng_for(site).random() for _ in range(32)]
        # same (seed, site): reproducible; different site or seed: not
        assert draw(plane13, "nic:server.an2") == draw(plane13,
                                                       "nic:server.an2")
        assert draw(plane13, "nic:server.an2") != draw(plane13,
                                                       "nic:client.an2")
        other = make_an2_pair().attach_fault_plane(seed=14)
        assert draw(plane13, "nic:server.an2") != draw(other,
                                                       "nic:server.an2")


class TestRebootStormKnobs:
    def test_storm_validation(self):
        from repro.errors import SimError

        tb = make_an2_pair()
        plane = tb.attach_fault_plane(seed=3)
        with pytest.raises(SimError):
            plane.crash_node(tb.server_kernel, at_us=10.0, repeat=0)
        with pytest.raises(SimError):
            # a storm whose period does not outlast the outage would
            # crash a kernel that never came back up
            plane.crash_node(tb.server_kernel, at_us=10.0,
                             outage_us=100.0, repeat=2, period_us=50.0)

    def test_storm_cycles_recorded(self):
        from repro.sim.units import seconds

        tb = make_an2_pair()
        plane = tb.attach_fault_plane(seed=3)
        storm = plane.crash_node(tb.server_kernel, at_us=100.0,
                                 outage_us=200.0, repeat=3,
                                 period_us=1_000.0)
        tb.engine.run(until=tb.engine.now + seconds(0.01))
        assert len(storm.storms) == 3
        assert tb.server_kernel.crash_count == 3
        assert tb.server_kernel.recoveries == 3
        gaps = [b["crashed_at"] - a["crashed_at"]
                for a, b in zip(storm.storms, storm.storms[1:])]
        assert gaps == [storm.period, storm.period]


class TestMultiTenantCrashReplay:
    """Boot-record replay after Kernel.crash() must restore only the
    *surviving* tenants' handlers — a tenant killed before the crash
    stays gone — in deterministic (sorted ash-id) order, including a
    tenant caught mid-canary by a RolloutController."""

    def _world(self):
        from repro.ash.tenancy import TenantManager
        from repro.bench.workloads import _build_sink

        tb = make_an2_pair()
        sk = tb.server_kernel
        mgr = TenantManager(sk)
        for name in ("alice", "bob", "carol"):
            mgr.create(name)
        eps = {
            "alice": sk.create_endpoint_an2(tb.server_nic, 10,
                                            tenant="alice"),
            "bob": sk.create_endpoint_an2(tb.server_nic, 11, tenant="bob"),
            "carol": sk.create_endpoint_an2(tb.server_nic, 12,
                                            tenant="carol"),
        }
        ids = {
            "alice_v1": mgr.download("alice", _build_sink(name="a1"),
                                     allowed_regions=[]),
            "bob_v1": mgr.download("bob", _build_sink(name="b1"),
                                   allowed_regions=[]),
            "carol_v1": mgr.download("carol", _build_sink(name="c1"),
                                     allowed_regions=[]),
        }
        ids["alice_v2"] = mgr.install_version(
            "alice", ids["alice_v1"], _build_sink(name="a2"))
        sk.ash_system.bind(eps["alice"], ids["alice_v1"])
        sk.ash_system.bind(eps["bob"], ids["bob_v1"])
        sk.ash_system.bind(eps["carol"], ids["carol_v1"])
        return tb, sk, mgr, eps, ids

    def test_killed_tenant_excluded_from_replay(self):
        tb, sk, mgr, eps, ids = self._world()
        mgr.crash_tenant("bob")
        sk.crash()
        sk.reboot()
        entries = set(sk.ash_system._entries)
        assert ids["bob_v1"] not in entries
        assert {ids["alice_v1"], ids["alice_v2"],
                ids["carol_v1"]} <= entries
        assert eps["bob"].ash_id is None
        assert eps["alice"].ash_id == ids["alice_v1"]
        assert eps["carol"].ash_id == ids["carol_v1"]
        # deterministic replay: boot records walked in sorted-id order
        assert list(sk.ash_system._entries) == sorted(entries)
        assert sk.crash_log[-1]["ash_reinstalls"] == 3

    def test_mid_canary_tenant_survives_replay(self):
        from repro.ash.liveops import RolloutController

        tb, sk, mgr, eps, ids = self._world()
        ctrl = RolloutController(
            sk, [(eps["alice"], ids["alice_v1"], ids["alice_v2"])],
            canary_fraction=1.0, name="tenant-canary")
        ctrl.note_round(eps["alice"].name, "golden", 10.0)
        ctrl.start_canary()
        assert eps["alice"].ash_id == ids["alice_v2"]
        mgr.crash_tenant("carol")
        sk.crash()
        sk.reboot()
        # alice comes back exactly mid-canary: both versions replayed,
        # the endpoint still bound to v2; the dead tenant stays dead
        assert eps["alice"].ash_id == ids["alice_v2"]
        assert ids["alice_v1"] in sk.ash_system._entries
        assert ids["carol_v1"] not in sk.ash_system._entries
        assert eps["carol"].ash_id is None
        assert eps["bob"].ash_id == ids["bob_v1"]
        # the manager itself is application-owned: tenant identity,
        # quotas and the quarantine/kill ledger survive the reboot
        assert mgr.get("carol").dead
        assert not mgr.get("alice").dead
