"""The CPU: a single execution resource with cycle accounting.

Everything that consumes processor time — kernel interrupt handlers,
ASH execution, protocol library code, application computation — runs by
holding the CPU and advancing virtual time with
:meth:`Cpu.exec`.  The CPU is a priority lock: device interrupts
(priority 0) get the processor ahead of kernel work (5) ahead of user
code (10).  The holder is preempted only at *charge-quantum* boundaries
(200 cycles = 5 µs), modelling interrupt delivery at instruction
granularity without per-instruction event overhead.

A quantum boundary where nothing can happen costs no event either:
while no queued waiter may take the CPU and no other event is pending,
consecutive quanta are charged in one timeout that ends at the last
boundary before the next pending event (``Engine._fold``).  Nothing
runs between the folded boundaries, so nothing can observe the
difference: every interrupt still gets the CPU at the same boundary.

``exec`` is a generator: call it as ``yield from cpu.exec(cycles)``
from inside a simulation process.
"""

from __future__ import annotations

from typing import Generator

from ..sim.engine import Engine, Event, Timeout
from ..sim.queues import PriorityLock
from ..sim.units import CYCLE_PS
from .calibration import Calibration, PRIO_USER

__all__ = ["Cpu"]


class Cpu:
    """One processor with a cycle ledger."""

    def __init__(self, engine: Engine, cal: Calibration, name: str = "cpu"):
        self.engine = engine
        self.cal = cal
        self.name = name
        self.lock = PriorityLock(engine, f"{name}.lock")
        self.busy_ticks = 0            # total held-and-computing time
        self.cycles_charged = 0
        #: fault-injection seam: a FaultPlane installs a CpuContention
        #: injector here (see repro.sim.faults); None = no one else is
        #: competing for the processor
        self.contention = None
        #: cycles stolen by injected contention bursts (foreign work:
        #: held the CPU but advanced nobody's charge)
        self.contention_cycles = 0

    # -- core execution primitive -----------------------------------------
    def exec(self, cycles: int,
             prio: int = PRIO_USER) -> Generator[Event, None, None]:
        """Hold the CPU for ``cycles`` cycles at priority ``prio``.

        Execution is sliced into quanta; between quanta the CPU is
        yielded to any *more urgent* waiter (then re-acquired), so an
        interrupt arriving mid-computation is served within one quantum.
        While no waiter is more urgent, consecutive quanta are charged
        in one timeout up to the next pending event (see
        :meth:`Engine._fold <repro.sim.engine.Engine._fold>`).  A free
        CPU is taken without a yield when nothing else is due at this
        tick.
        """
        cycles = int(cycles)
        if cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles}")
        if cycles == 0:
            return
        engine = self.engine
        lock = self.lock
        waiters = lock._waiters
        quantum = self.cal.exec_quantum_cycles
        if lock._locked or engine._due_now():
            yield lock.acquire(prio)
        else:
            lock._locked = True  # free and nothing else due: take it here
        try:
            injector = self.contention
            if injector is not None:
                stolen = injector.steal()
                if stolen:
                    # foreign work holds the CPU first: wall-clock
                    # stretches, but none of it counts toward ``cycles``
                    yield Timeout(engine, stolen * CYCLE_PS)
                    self.contention_cycles += stolen
            remaining = cycles
            while True:
                if remaining <= quantum:
                    slice_cycles = remaining
                elif waiters and waiters[0][0] < prio:
                    slice_cycles = quantum
                else:
                    slice_cycles = engine._fold(remaining, quantum)
                start = engine._now
                yield Timeout(engine, slice_cycles * CYCLE_PS)
                self.busy_ticks += engine._now - start
                self.cycles_charged += slice_cycles
                remaining -= slice_cycles
                if remaining <= 0:
                    break
                if waiters and waiters[0][0] < prio:
                    lock.release()
                    yield lock.acquire(prio)
        finally:
            lock.release()

    # -- convenience wrappers -------------------------------------------------
    def exec_us(self, usec: float,
                prio: int = PRIO_USER) -> Generator[Event, None, None]:
        """Hold the CPU for a duration expressed in microseconds."""
        yield from self.exec(self.cal.us_to_cycles(usec), prio)

    @property
    def busy_us(self) -> float:
        return self.busy_ticks / 1_000_000
