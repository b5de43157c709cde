"""User processes: schedulable computations above the kernel.

A :class:`Process` wraps a generator (its *body*) that may only burn CPU
while the scheduler has it scheduled.  The body advances time through
the process API:

* ``yield from proc.compute_us(x)`` — user-mode computation,
* ``yield from proc.syscall_enter()/syscall_exit()`` — kernel crossings,
* ``yield from proc.block_on(event)`` — leave the run queue until the
  event fires, then wait to be scheduled again,
* ``yield from proc.poll(channel)`` — spin (scheduled) until an item
  arrives, the way the paper's latency benchmarks poll the notification
  ring.

The split between *runnable* and *scheduled* is what the paper's Fig. 4
and Table V measure: a message for a process that is runnable but not
scheduled waits for the scheduler unless an ASH or upcall handles it.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from ..hw.calibration import PRIO_KERNEL, PRIO_USER
from ..sim.engine import Event, Timeout
from ..sim.queues import Channel, Gate
from ..sim.units import CYCLE_PS

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

__all__ = ["Process", "ProcessState"]

class ProcessState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


class Process:
    """One user process on a node."""

    _next_pid = 1

    def __init__(self, kernel: "Kernel", name: str,
                 body: Optional[Callable[["Process"], Generator]] = None,
                 core: int = 0):
        self.kernel = kernel
        self.engine = kernel.engine
        self.cal = kernel.cal
        self.name = name
        #: home core: the cpu charged for this process's computation and
        #: the scheduler whose run queue it lives on
        self.core = core
        self.cpu = kernel.node.cpus[core]
        self.scheduler = kernel.schedulers[core]
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.state = ProcessState.READY
        self.gate = Gate(self.engine, f"{name}.gate")
        self.body = body
        self.sim_proc = None
        #: cumulative scheduled CPU time the process consumed (ticks)
        self.user_ticks = 0

    # -- lifecycle --------------------------------------------------------
    def start(self):
        """Register with the scheduler and begin executing the body."""
        if self.body is None:
            raise ValueError(f"{self.name}: no body to run")
        self.scheduler.add(self)
        self.sim_proc = self.engine.spawn(self._wrapper(), name=self.name)
        return self.sim_proc

    def _wrapper(self) -> Generator:
        try:
            result = yield from self.body(self)
            return result
        finally:
            self.state = ProcessState.DONE
            self.scheduler.on_exit(self)

    # -- computation -------------------------------------------------------
    def compute(self, cycles: int) -> Generator[Event, Any, None]:
        """Burn user-mode cycles; only advances while scheduled.

        Unlike ``cpu.exec``, which keeps the CPU until a more urgent
        waiter appears, this loop hands the CPU to any waiter at every
        quantum boundary and waits on its gate again, so a descheduled
        process stops within one quantum.  Two shortcuts cut its events
        and keep their order exact:

        * an open gate and a free CPU are taken in place, without a
          yield, when nothing else is due at this tick (the same tie
          test as the engine's elided same-tick hop);
        * while the gate is open and nobody waits for the CPU,
          consecutive quanta are charged in one timeout up to the next
          pending event (``Engine._fold``).

        The loop never calls ``cpu.contention.steal()`` (``exec``
        does), so a :class:`~repro.sim.faults.CpuContention` injector
        stretches kernel and interrupt-context work but never user
        compute.  The golden digests pin that behaviour.
        """
        cpu = self.cpu
        engine = self.engine
        lock = cpu.lock
        waiters = lock._waiters
        gate = self.gate
        due_now = engine._due_now
        quantum = cpu.cal.exec_quantum_cycles
        remaining = int(cycles)
        while remaining > 0:
            if not gate._open or due_now():
                yield gate.wait()
            ustart = engine._now
            if lock._locked or due_now():
                yield lock.acquire(PRIO_USER)
            else:
                lock._locked = True
            if remaining <= quantum:
                chunk = remaining
            elif waiters or not gate._open:
                chunk = quantum
            else:
                chunk = engine._fold(remaining, quantum)
            start = engine._now
            try:
                yield Timeout(engine, chunk * CYCLE_PS)
                cpu.busy_ticks += engine._now - start
                cpu.cycles_charged += chunk
            finally:
                lock.release()
            self.user_ticks += engine._now - ustart
            remaining -= chunk

    def compute_us(self, usec: float) -> Generator[Event, Any, None]:
        yield from self.compute(self.cal.us_to_cycles(usec))

    # -- kernel interaction ---------------------------------------------------
    def syscall_enter(self) -> Generator[Event, Any, None]:
        """Cross into the kernel (charged at kernel priority)."""
        yield self.gate.wait()
        yield from self.cpu.exec_us(self.cal.syscall_us, PRIO_KERNEL)

    def syscall_exit(self) -> Generator[Event, Any, None]:
        yield from self.cpu.exec_us(self.cal.syscall_us, PRIO_KERNEL)

    # -- waiting ----------------------------------------------------------
    def block_on(self, event: Event) -> Generator[Event, Any, Any]:
        """Leave the run queue until ``event`` fires."""
        self.state = ProcessState.BLOCKED
        self.scheduler.on_block(self)
        value = yield event
        self.state = ProcessState.READY
        self.scheduler.on_unblock(self)
        yield self.gate.wait()
        return value

    def poll(self, channel: Channel) -> Generator[Event, Any, Any]:
        """Poll a channel the way a polling receiver spins on the
        notification ring.

        Modelled event-driven for simulation efficiency: the process
        "discovers" the item one poll-check after it arrives (and only
        while scheduled), which is the same observable behaviour as a
        tight try_get loop without generating an event per spin.  While
        waiting, the process releases its run-queue slot (a real poller
        would burn it; arrival-discovery timing is identical either way,
        and an idle simulation can terminate).
        """
        ok, item = channel.try_get()
        if not ok:
            item = yield from self.block_on(channel.get())
        yield from self.compute_us(self.cal.poll_check_us)
        return item

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name} pid={self.pid} {self.state.value}>"
