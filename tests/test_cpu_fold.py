"""Run-to-next-event CPU charging is exact.

``Cpu.exec`` and ``Process.compute`` charge consecutive quanta in one
timeout up to the next pending event, and take an open gate and a free
CPU without a yield.  Every test here runs a scenario twice: as is, and
the way the CPU charged before either shortcut existed, and requires
identical timestamps and CPU ledgers from both.  The reference run
patches two engine seams: ``_fold`` returns one quantum (one quantum
per timeout) and ``_due_now`` always reports a tie (every pass-through
wait yields and bounces through a same-tick queue hop).
"""

import random
from types import SimpleNamespace

import pytest

from repro.hw.calibration import (
    Calibration,
    PRIO_INTERRUPT,
    PRIO_KERNEL,
    PRIO_USER,
)
from repro.hw.cpu import Cpu
from repro.kernel.process import Process
from repro.sim import Engine
from repro.sim.units import CYCLE_PS

Q = Calibration().exec_quantum_cycles
QPS = Q * CYCLE_PS


def world():
    eng = Engine()
    cal = Calibration()
    cpu = Cpu(eng, cal)
    kernel = SimpleNamespace(engine=eng, cal=cal,
                             node=SimpleNamespace(cpus=[cpu]),
                             schedulers=[None])
    return eng, cpu, kernel


def user(kernel, name="user"):
    """A process whose gate is open: scheduled for the whole test."""
    proc = Process(kernel, name)
    proc.gate.open()
    return proc


def ledger(eng, cpu, procs=()):
    return {"now": eng.now, "busy_ticks": cpu.busy_ticks,
            "cycles_charged": cpu.cycles_charged,
            "user_ticks": [p.user_ticks for p in procs]}


def both(monkeypatch, scenario):
    """``scenario()``'s result, checked against the same scenario
    charged one quantum per timeout with every wait yielded."""
    folded = scenario()
    with monkeypatch.context() as m:
        m.setattr(Engine, "_fold", lambda self, remaining, quantum: quantum)
        m.setattr(Engine, "_due_now", lambda self: True)
        per_quantum = scenario()
    assert folded == per_quantum
    return folded


def test_interrupt_mid_compute_gets_cpu_at_same_boundary(monkeypatch):
    def scenario():
        eng, cpu, kernel = world()
        proc = user(kernel)
        times = {}

        def compute():
            yield from proc.compute(10 * Q)
            times["user"] = eng.now

        def interrupt():
            yield eng.sleep(3 * QPS + QPS // 2)  # mid-quantum
            yield from cpu.exec(Q, prio=PRIO_INTERRUPT)
            times["intr"] = eng.now

        eng.spawn(compute())
        eng.spawn(interrupt())
        eng.run()
        return times, ledger(eng, cpu, [proc])

    times, led = both(monkeypatch, scenario)
    # served at the next quantum boundary (4 Q), for one quantum
    assert times["intr"] == 5 * QPS
    assert times["user"] == 11 * QPS
    assert led["cycles_charged"] == 11 * Q
    assert led["user_ticks"] == [11 * QPS]


def test_run_until_mid_compute_matches_per_quantum_ledger(monkeypatch):
    def scenario():
        eng, cpu, kernel = world()
        proc = user(kernel)
        eng.spawn(proc.compute(10 * Q))
        out = []
        for until in (3 * QPS + QPS // 2, 7 * QPS, None):
            eng.run(until=until)
            out.append(ledger(eng, cpu, [proc]))
        return out

    out = both(monkeypatch, scenario)
    # a run stops with only whole quanta charged, ending at or before
    # its until; the quantum in flight is not charged yet
    assert [o["cycles_charged"] for o in out] == [3 * Q, 7 * Q, 10 * Q]
    assert [o["busy_ticks"] for o in out] == [3 * QPS, 7 * QPS, 10 * QPS]


def test_quiet_compute_costs_one_timeout():
    def stats(cycles):
        eng, cpu, kernel = world()
        eng.spawn(user(kernel).compute(cycles))
        eng.run()
        assert cpu.cycles_charged == cycles
        return eng.stats()

    one, ten = stats(Q), stats(10 * Q)
    assert ten["now_ps"] == 10 * one["now_ps"]
    for key in ("scheduled", "fired", "inlined"):
        assert ten[key] == one[key], key


def test_compute_resumed_by_two_callback_timeout_does_not_fold(monkeypatch):
    """The second callback of a shared timeout runs after the first
    process yields, and schedules an entry before the end of a
    would-be fold; the first process must charge one quantum at a
    time."""
    def scenario():
        eng, cpu, kernel = world()
        proc = user(kernel)
        shared = eng.timeout(QPS)
        times = {}

        def first():
            yield shared
            yield from proc.compute(10 * Q)
            times["user"] = eng.now

        def second():
            yield shared
            yield eng.sleep(QPS + QPS // 2)
            yield from cpu.exec(Q, prio=PRIO_INTERRUPT)
            times["intr"] = eng.now

        eng.spawn(first())
        eng.spawn(second())
        eng.run()
        return times, ledger(eng, cpu, [proc])

    times, _ = both(monkeypatch, scenario)
    assert times["intr"] == 4 * QPS
    assert times["user"] == 12 * QPS


@pytest.mark.parametrize("charge", ["exec", "compute"])
def test_handoff_with_more_urgent_waiter_preempts_after_one_quantum(
        monkeypatch, charge):
    """The holder releases the CPU to a queued user-level waiter and
    queues itself at interrupt priority in the same step: the new owner
    resumes with nothing else pending, yet must yield after one
    quantum."""
    def scenario():
        eng, cpu, kernel = world()
        proc = user(kernel)
        times = {}

        def holder():
            yield from cpu.exec(Q, prio=PRIO_KERNEL)
            yield from cpu.exec(Q, prio=PRIO_INTERRUPT)
            times["holder"] = eng.now

        def waiter():
            if charge == "exec":
                yield from cpu.exec(10 * Q, prio=PRIO_USER)
            else:
                yield from proc.compute(10 * Q)
            times["waiter"] = eng.now

        eng.spawn(holder())
        eng.spawn(waiter())
        eng.run()
        return times, ledger(eng, cpu)

    times, led = both(monkeypatch, scenario)
    assert times["holder"] == 3 * QPS
    assert times["waiter"] == 12 * QPS
    assert led["cycles_charged"] == 12 * Q


def test_gate_closed_during_lock_wait_stops_after_one_quantum(monkeypatch):
    """Descheduled while queued for the CPU, a process that is then
    handed the CPU charges one quantum and waits for its gate, even
    though nothing else wants the CPU."""
    def scenario():
        eng, cpu, kernel = world()
        proc = user(kernel)
        times = {}

        def holder():
            yield from cpu.exec(2 * Q, prio=PRIO_KERNEL)

        def compute():
            yield from proc.compute(10 * Q)
            times["user"] = eng.now

        def scheduler():
            yield eng.sleep(QPS)
            proc.gate.close()
            yield eng.sleep(4 * QPS)
            proc.gate.open()

        eng.spawn(holder())
        eng.spawn(compute())
        eng.spawn(scheduler())
        eng.run()
        return times, ledger(eng, cpu, [proc])

    times, led = both(monkeypatch, scenario)
    # one quantum at 2..3 Q, parked until the gate reopens at 5 Q
    assert times["user"] == 14 * QPS
    assert led["cycles_charged"] == 12 * Q


def test_free_cpu_taken_in_place_only_without_same_tick_entries(
        monkeypatch):
    """An open gate and a free CPU resolve without a yield only when
    nothing else is due at this tick; otherwise the process still
    yields and every same-tick entry runs first."""
    def scenario():
        eng, cpu, kernel = world()
        early, late = user(kernel, "early"), user(kernel, "late")
        late.gate.close()
        seen = {}

        def compute(proc, tag):
            yield from proc.compute(2 * Q)
            seen[tag] = eng.now

        def kernel_work():
            # due at tick 0 behind ``early``: takes the CPU first
            yield from cpu.exec(Q, prio=PRIO_KERNEL)
            seen["kernel"] = eng.now

        def observer(tag):
            # due at the tick a charge starts, behind its yield: its
            # timer pops before that charge's first boundary
            yield eng.sleep(QPS)
            seen[tag] = (eng.now, cpu.cycles_charged)

        def scheduler():
            yield eng.sleep(10 * QPS)
            late.gate.open()
            eng.spawn(observer("late_start"))

        eng.spawn(compute(early, "early"))
        eng.spawn(kernel_work())
        eng.spawn(observer("kernel_start"))
        eng.spawn(compute(late, "late"))
        eng.spawn(scheduler())
        eng.run()
        return seen, ledger(eng, cpu, [early, late])

    seen, _ = both(monkeypatch, scenario)
    assert seen["kernel"] == QPS
    assert seen["kernel_start"] == (QPS, 0)
    assert seen["early"] == 3 * QPS
    assert seen["late_start"] == (11 * QPS, 3 * Q)
    assert seen["late"] == 12 * QPS


@pytest.mark.parametrize("seed", range(12))
def test_random_mixes_match_per_quantum_charging(monkeypatch, seed):
    """Processes at every priority mixing exec, compute, sleeps, gate
    closures and mid-run ``until`` stops, on a coarse time grid so that
    same-tick ties are common: neither shortcut changes anything a run
    can observe, down to the CPU ledger each process sees as it wakes."""
    grid = QPS // 4

    def scenario():
        rng = random.Random(seed)
        eng, cpu, kernel = world()
        procs = [user(kernel, f"u{i}") for i in range(2)]
        trace = []

        def note(*tag):
            trace.append((*tag, eng.now, cpu.cycles_charged,
                          cpu.busy_ticks))

        def worker(tag, proc, prio):
            for step in range(6):
                yield eng.sleep(rng.randrange(0, 16) * grid)
                note(tag, step, "woke")
                cycles = rng.randrange(1, 32) * (Q // 4)
                if proc is not None and rng.random() < 0.6:
                    yield from proc.compute(cycles)
                else:
                    yield from cpu.exec(cycles, prio=prio)
                note(tag, step, "done")

        def scheduler():
            # deschedule and reschedule the user processes now and then
            for step in range(10):
                yield eng.sleep(rng.randrange(1, 24) * grid)
                gate = procs[rng.randrange(2)].gate
                if gate.is_open:
                    gate.close()
                else:
                    gate.open()
                note("sched", step)
            for proc in procs:
                proc.gate.open()

        eng.spawn(worker("u0", procs[0], PRIO_USER))
        eng.spawn(worker("u1", procs[1], PRIO_USER))
        eng.spawn(worker("k", None, PRIO_KERNEL))
        eng.spawn(worker("i", None, PRIO_INTERRUPT))
        eng.spawn(scheduler())
        stops = []
        for until in sorted(rng.randrange(0, 240) * grid for _ in range(3)):
            eng.run(until=until)
            stops.append(ledger(eng, cpu, procs))
        eng.run()
        return trace, stops, ledger(eng, cpu, procs)

    both(monkeypatch, scenario)
