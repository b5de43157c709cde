"""Live-operations plane: versioned ASH installs, staged canary
rollouts with automatic rollback, and the crash-survival of both."""

import json

import pytest

from repro import telemetry
from repro.ash.examples import build_remote_increment
from repro.ash.liveops import RolloutController
from repro.bench.testbed import CLIENT_TO_SERVER_VCI, make_an2_pair
from repro.bench.workloads import canary_rollout
from repro.errors import VcodeError
from tests import golden


def _download_v1(tb):
    sk = tb.server_kernel
    ep = sk.create_endpoint_an2(tb.server_nic, CLIENT_TO_SERVER_VCI)
    state = tb.server.memory.alloc("state", 64)
    v1 = sk.ash_system.download(
        build_remote_increment(),
        allowed_regions=[(state.base, 64)],
        user_word=state.base + 32,
    )
    return sk, ep, v1


class TestInstallVersion:
    def test_versions_coexist_with_lineage(self):
        sk, ep, v1 = _download_v1(make_an2_pair())
        v2 = sk.ash_system.install_version(v1, build_remote_increment())
        e1, e2 = sk.ash_system.entry(v1), sk.ash_system.entry(v2)
        assert (e1.version, e2.version) == (1, 2)
        assert e1.lineage == e2.lineage == v1
        # both installed at once — the coexistence the atomic swap needs
        assert sk.ash_system.has(v1) and sk.ash_system.has(v2)
        assert sk.ash_system.versions(v1) == [v1, v2]
        # a third version chains off v2 but stays in v1's lineage
        v3 = sk.ash_system.install_version(v2, build_remote_increment())
        assert sk.ash_system.entry(v3).version == 3
        assert sk.ash_system.versions(v1) == [v1, v2, v3]
        assert e1.stats()["version"] == 1 and e2.stats()["lineage"] == v1

    def test_version_metadata_survives_crash(self):
        tb = make_an2_pair()
        sk, ep, v1 = _download_v1(tb)
        v2 = sk.ash_system.install_version(v1, build_remote_increment())
        sk.ash_system.bind(ep, v2)
        sk.crash()
        sk.reboot()
        assert ep.ash_id == v2  # the binding rode the boot record
        assert sk.ash_system.entry(v2).version == 2
        assert sk.ash_system.entry(v2).lineage == v1
        assert sk.ash_system.versions(v1) == [v1, v2]

    def test_controller_rejects_non_successor(self):
        tb = make_an2_pair()
        sk, ep, v1 = _download_v1(tb)
        state = tb.server.memory.alloc("other", 64)
        unrelated = sk.ash_system.download(
            build_remote_increment(),
            allowed_regions=[(state.base, 64)], user_word=state.base + 32)
        with pytest.raises(VcodeError):
            RolloutController(sk, [(ep, v1, unrelated)])
        with pytest.raises(VcodeError):
            RolloutController(sk, [])


def canary_crash_record() -> dict:
    """Golden record of a divergent rollout with a mid-canary crash."""
    r = canary_rollout(v2="divergent", crash_during_canary=True)
    return golden.record(r, state=r["state"],
                         lost_messages=r["lost_messages"],
                         recovery_us=r["recovery_us"])


class TestCanaryVerdicts:
    def test_divergent_v2_rolled_back_zero_loss(self):
        r = canary_rollout(v2="divergent")
        assert r["state"] == "rolled_back"
        assert r["guard_reasons"] == ["digest"]
        assert r["lost_messages"] == 0
        assert r["order_violations"] == 0
        assert r["replies_received"] == r["messages_sent"]
        # every flow is back on (or never left) v1, and traffic kept
        # flowing after the verdict (post rounds answered above)
        assert set(r["bound_versions"].values()) == {1}
        assert r["canary_flows"]  # a non-empty deterministic cohort

    def test_identical_v2_promoted(self):
        r = canary_rollout(v2="identical")
        assert r["state"] == "promoted"
        assert r["guard_reasons"] == []
        assert r["lost_messages"] == 0
        assert r["order_violations"] == 0
        assert set(r["bound_versions"].values()) == {2}

    def test_slow_v2_tripped_by_latency_guard(self):
        r = canary_rollout(v2="slow")
        assert r["state"] == "rolled_back"
        assert "latency" in r["guard_reasons"]
        assert set(r["bound_versions"].values()) == {1}

    @pytest.mark.parametrize("v2,expected", [
        ("divergent", "rolled_back"), ("identical", "promoted")])
    def test_verdicts_identical_across_cores(
            self, v2, expected):
        """The acceptance bar: both rollout outcomes byte-identical at
        1/2/4-core SMP."""
        seen = set()
        for ncores in (1, 2, 4):
            r = canary_rollout(v2=v2, ncores=ncores)
            assert r["state"] == expected, ncores
            seen.add(json.dumps(r, sort_keys=True))
        assert len(seen) == 1

    def test_rollout_survives_mid_canary_crash(self):
        """Kernel.crash() mid-canary: the version bindings ride the
        boot-record replay, the verdict lands as if nothing happened."""
        r = canary_rollout(v2="divergent", crash_during_canary=True)
        assert r["state"] == "rolled_back"
        assert r["crashes"] == 1 and r["recoveries"] == 1
        assert r["lost_messages"] == 0
        assert r["order_violations"] == 0
        assert r["recovery_us"] is not None
        ident = canary_rollout(v2="identical", crash_during_canary=True)
        assert ident["state"] == "promoted"
        assert ident["lost_messages"] == 0

    def test_crash_outcome_matches_golden(self):
        """The mid-canary crash outcome matches its golden."""
        golden.check("canary", "divergent_crash", canary_crash_record())


class TestRolloutTelemetry:
    def test_metrics_and_flight_events(self):
        with telemetry.session() as sess:
            r = canary_rollout(v2="divergent")
        assert r["state"] == "rolled_back"
        server = next(t for t in sess.telemetries if t.source == "server")
        counters = server.registry.snapshot()["counters"]

        def total(name):
            return sum(c["value"] for c in counters if c["name"] == name)

        assert total("liveops.installs") == 4      # one v2 per flow
        assert total("liveops.rollouts") == 1
        assert total("liveops.rollbacks") == 1
        assert total("liveops.guard_trips") >= 1
        assert total("liveops.swaps") == r["swaps"] > 0
        # the flight ring explains the rollback without a re-run
        kinds = [e["kind"] for e in server.flight.events]
        assert "rollout" in kinds
        phases = [e.get("phase") for e in server.flight.events
                  if e["kind"] == "rollout"]
        assert "canary" in phases and "rolled_back" in phases
        reasons = [d for d in server.flight.postmortems
                   if d["reason"] == "canary_rollback"]
        assert reasons and reasons[0]["detail"]["reasons"] == ["digest"]

    def test_promotion_counted(self):
        with telemetry.session() as sess:
            canary_rollout(v2="identical")
        server = next(t for t in sess.telemetries if t.source == "server")
        counters = server.registry.snapshot()["counters"]
        assert any(c["name"] == "liveops.promotions" and c["value"] == 1
                   for c in counters)

    def test_slo_guard_fires_on_slow_canary(self):
        """With telemetry on, the workload declares a latency SLO from
        the golden cohort; the slow canary must breach it and the
        controller must report the slo guard alongside latency."""
        with telemetry.session():
            r = canary_rollout(v2="slow")
        assert r["state"] == "rolled_back"
        assert "latency" in r["guard_reasons"]
        assert "slo" in r["guard_reasons"]

    def test_observables_identical_with_and_without_telemetry(self):
        with telemetry.session():
            on = canary_rollout(v2="divergent")
        off = canary_rollout(v2="divergent")
        # the slo guard only exists with telemetry on; everything the
        # simulation *did* (verdict, digests, counters) is identical
        assert on["state"] == off["state"]
        assert on["round_digests"] == off["round_digests"]
        assert on["final_counters"] == off["final_counters"]
        assert on["swaps"] == off["swaps"]


class TestFlightCapacityKnob:
    def test_resize_keeps_newest_events(self):
        tb = make_an2_pair()
        tel = tb.server.telemetry
        tel.enable()
        flight = tel.configure_flight(4)
        assert flight.capacity == 4
        for i in range(6):
            flight.record("evt", i, seq=i)
        assert len(flight.events) == 4
        assert [e["seq"] for e in flight.events] == [2, 3, 4, 5]
        assert flight.aged_out == 2
        # shrink keeps the newest; accounting is preserved
        tel.configure_flight(2)
        assert [e["seq"] for e in flight.events] == [4, 5]
        assert flight.recorded == 6 and flight.aged_out == 4
        # growing never resurrects aged-out events
        tel.configure_flight(8)
        assert [e["seq"] for e in flight.events] == [4, 5]
        with pytest.raises(ValueError):
            flight.resize(0)

    def test_configure_before_first_touch_sets_capacity(self):
        tb = make_an2_pair()
        tel = tb.client.telemetry
        flight = tel.configure_flight(16)
        assert flight.capacity == 16
        assert tel.flight is flight
