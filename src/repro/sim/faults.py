"""Deterministic fault-injection plane.

The paper's premise is that ASHs run *in the kernel's interrupt path*,
so the system has to stay safe and live when messages are lost, mangled
or duplicated, when the NIC runs out of receive buffers, and when a
handler is involuntarily aborted mid-run.  The :class:`FaultPlane`
makes all of those conditions injectable at well-defined seams:

* **link impairments** (:meth:`FaultPlane.impair_link`) — drop,
  bit-corrupt, duplicate, reorder and delay-jitter frames on a
  :class:`~repro.hw.link.Link`;
* **NIC stress** (:meth:`FaultPlane.stress_nic`) — forced rx-ring
  exhaustion and truncated DMA on a :class:`~repro.hw.nic.base.Nic`;
* **kernel-path faults** (:meth:`FaultPlane.abort_ash`) — forced
  involuntary ASH aborts mid-handler, via a deliberately tiny cycle
  budget (:func:`repro.sandbox.budget.forced_abort_budget`);
* **node crash/reboot** (:meth:`FaultPlane.crash_node`) — a scripted
  kernel crash mid-flow that tears down every piece of kernel-volatile
  state (DPF filters, installed ASHs, upcall bindings, rx rings) while
  application memory — including the TCP ``SharedTcb`` region —
  survives; the reboot path rebuilds the kernel from boot records and
  the surviving application state (the exokernel bet);
* **memory pressure** (:meth:`FaultPlane.pressure_memory`) — injected
  allocation failure on ``mem.alloc`` and the allocation-like fast-path
  sites (rx-ring refill, ASH install, pktbuf wrappers), each of which
  must degrade gracefully, counted under ``mem.alloc_failures{site}``;
* **CPU contention** (:meth:`FaultPlane.contend_cpu`) — seeded
  cycle-stealing bursts that stretch wall-clock time without advancing
  the victim's work, interacting with the sandbox abort budget and the
  receive-livelock admission throttle.

Every decision is drawn from a per-seam :class:`random.Random` stream
seeded from ``(plane seed, seam name)`` and consumed in seam-call
order.  Because the engine's event ordering is deterministic, an
identical seeded fault schedule yields **bit-identical outcomes**
(delivered bytes, retransmit counts, the fault ledger) on every run —
``tests/test_faults.py`` pins them to committed golden digests.

Activation windows (``start_us``/``stop_us``) are evaluated against the
engine's deterministic clock, so a scenario is a few factory calls::

    plane = tb.attach_fault_plane(seed=42)
    plane.impair_link(tb.link, drop=0.05, skip_first=3)
    plane.stress_nic(tb.server_nic, exhaust=0.5,
                     start_us=2_000.0, stop_us=4_000.0)
    plane.abort_ash(tb.server_kernel, every=2)

The plane keeps a deterministic **ledger** of everything it injected
(:meth:`FaultPlane.ledger`) and mirrors it into ``faults.*`` telemetry.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..errors import SimError
from .units import us

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.cpu import Cpu
    from ..hw.link import Frame, Link
    from ..hw.nic.base import Nic
    from ..hw.node import Node
    from ..kernel.kernel import Kernel

__all__ = [
    "FaultPlane",
    "LinkImpairment",
    "NicStress",
    "AshAbortInjector",
    "NodeCrash",
    "MemPressure",
    "CpuContention",
    "TenantFlood",
    "TenantLeak",
    "TenantCycleHog",
    "TenantAbortLoop",
    "TenantScript",
]

#: every fault kind the plane can record in its ledger
FAULT_KINDS = (
    "drop", "corrupt", "duplicate", "reorder", "delay",
    "nic_exhaust", "nic_truncate", "ash_abort",
    "node_crash", "node_reboot", "mem_pressure", "cpu_contention",
    "tenant_flood", "tenant_leak", "tenant_hog", "tenant_abort",
    "tenant_crashloop", "tenant_crash",
)


class _Injector:
    """Shared state for one installed injector: window + skip gates."""

    def __init__(self, plane: "FaultPlane", site: str, skip_first: int,
                 start_us: Optional[float], stop_us: Optional[float]):
        self.plane = plane
        self.site = site
        self.rng = plane._rng_for(site)
        self.skip_first = skip_first
        self.start = None if start_us is None else us(start_us)
        self.stop = None if stop_us is None else us(stop_us)
        self.seen = 0        #: seam invocations observed (incl. skipped)
        self.enabled = True

    def _gate(self) -> bool:
        """One seam invocation: True when injection may fire now."""
        self.seen += 1
        if not self.enabled or self.seen <= self.skip_first:
            return False
        now = self.plane.engine.now
        if self.start is not None and now < self.start:
            return False
        if self.stop is not None and now >= self.stop:
            return False
        return True


class LinkImpairment(_Injector):
    """Wire-level impairments for one :class:`~repro.hw.link.Link`.

    Rates are independent per-frame probabilities, drawn in a fixed
    order (drop, corrupt, duplicate, reorder, jitter) so each knob's
    pattern is a deterministic function of the seed and the frame
    sequence.  A dropped frame consumes no further draws.  A duplicate
    trails its original by 5 µs; a reordered frame is held 150 µs.
    """

    def __init__(self, plane: "FaultPlane", link: "Link",
                 drop: float = 0.0, corrupt: float = 0.0,
                 duplicate: float = 0.0, reorder: float = 0.0,
                 delay_jitter_us: float = 0.0,
                 skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        super().__init__(plane, f"link:{link.name}", skip_first,
                         start_us, stop_us)
        self.link = link
        self.drop = drop
        self.corrupt = corrupt
        self.duplicate = duplicate
        self.reorder = reorder
        self.jitter_ticks = us(delay_jitter_us)
        self.reorder_ticks = us(150.0)
        self.dup_gap_ticks = us(5.0)

    def on_send(self, from_end: int, frame: "Frame",
                arrival: int) -> list[tuple[int, "Frame"]]:
        """Deliveries for one transmitted frame: ``[(tick, frame), ...]``
        (empty = the wire ate it)."""
        if not self._gate():
            return [(arrival, frame)]
        rng = self.rng
        plane = self.plane
        site = self.site
        if self.drop and rng.random() < self.drop:
            plane.record("drop", site)
            return []
        if self.corrupt and rng.random() < self.corrupt and len(frame.data):
            frame = self._corrupt(frame, rng)
            plane.record("corrupt", site)
        deliveries = [(arrival, frame)]
        if self.duplicate and rng.random() < self.duplicate:
            deliveries.append((arrival + self.dup_gap_ticks,
                               self._clone(frame)))
            plane.record("duplicate", site)
        if self.reorder and rng.random() < self.reorder:
            # hold the frame long enough for later frames to overtake it
            deliveries = [(when + self.reorder_ticks, f)
                          for when, f in deliveries]
            plane.record("reorder", site)
        if self.jitter_ticks:
            extra = rng.randrange(self.jitter_ticks + 1)
            if extra:
                deliveries = [(when + extra, f) for when, f in deliveries]
                plane.record("delay", site)
        return deliveries

    @staticmethod
    def _clone(frame: "Frame") -> "Frame":
        from ..hw.link import Frame as _Frame

        return _Frame(frame.data, vci=frame.vci, meta=dict(frame.meta))

    @staticmethod
    def _corrupt(frame: "Frame", rng: random.Random) -> "Frame":
        """Flip one random bit of the payload (the link-CRC-escaping
        corruption transport checksums exist to catch)."""
        from ..hw.link import Frame as _Frame

        data = bytearray(frame.data)
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        return _Frame(bytes(data), vci=frame.vci, meta=dict(frame.meta))


class NicStress(_Injector):
    """Receive-side NIC stress: forced ring exhaustion, truncated DMA."""

    def __init__(self, plane: "FaultPlane", nic: "Nic",
                 exhaust: float = 0.0, truncate: float = 0.0,
                 truncate_to: int = 12,
                 skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        # NIC names repeat across nodes ("an2" on client and server), so
        # qualify the seam by the owning node — Nic.bind(node) set the
        # backref before any fault can be installed.  (Node-qualified,
        # not install-index-qualified: the seam name must not depend on
        # what *other* injectors a scenario happens to include, or
        # per-seam stream independence breaks.)
        super().__init__(plane, f"nic:{nic.node.name}.{nic.name}",
                         skip_first, start_us, stop_us)
        self.nic = nic
        self.exhaust = exhaust
        self.truncate = truncate
        self.truncate_to = truncate_to

    def on_rx(self, frame: "Frame") -> Optional["Frame"]:
        """Transform an arriving frame; None = drop as if no buffer."""
        if not self._gate():
            return frame
        rng = self.rng
        if self.exhaust and rng.random() < self.exhaust:
            self.plane.record("nic_exhaust", self.site)
            return None
        if self.truncate and rng.random() < self.truncate \
                and len(frame.data) > self.truncate_to:
            self.plane.record("nic_truncate", self.site)
            from ..hw.link import Frame as _Frame

            return _Frame(bytes(frame.data[:self.truncate_to]),
                          vci=frame.vci, meta=dict(frame.meta))
        return frame


class AshAbortInjector(_Injector):
    """Forces involuntary aborts mid-handler.

    Installed on a kernel's :class:`~repro.ash.system.AshSystem`; when
    it fires, the invocation runs under
    :func:`repro.sandbox.budget.forced_abort_budget` — a budget so small
    the handler trips ``BudgetExceeded`` partway through, exactly the
    paper's two-clock-tick timer abort, just early.  The kernel must
    then degrade to the next delivery path (upcall / normal) with zero
    message loss.
    """

    def __init__(self, plane: "FaultPlane", kernel: "Kernel",
                 every: Optional[int] = None, rate: float = 0.0,
                 skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        super().__init__(plane, f"ash:{kernel.node.name}", skip_first,
                         start_us, stop_us)
        from ..sandbox.budget import forced_abort_budget

        self.kernel = kernel
        self.every = every
        self.rate = rate
        self.budget = forced_abort_budget(kernel.cal)
        self.fired = 0

    def consider(self) -> Optional[int]:
        """Called once per ASH invocation; returns the forced (tiny)
        cycle budget when this invocation must abort, else None."""
        if not self._gate():
            return None
        fire = False
        if self.every:
            fire = self.seen % self.every == 0
        if not fire and self.rate:
            fire = self.rng.random() < self.rate
        if not fire:
            return None
        self.fired += 1
        self.plane.record("ash_abort", self.site)
        return self.budget


class NodeCrash(_Injector):
    """A scripted node crash + reboot, driven by its own engine process.

    At ``at_us`` the kernel crashes (:meth:`repro.kernel.kernel.Kernel.
    crash`): every piece of kernel-volatile state — DPF filters, the
    downloaded-ASH registry, upcall bindings, VCI bindings, pending rx
    rings — is torn down, while application memory (and with it the TCP
    ``SharedTcb`` region) survives untouched.  After ``outage_us`` of
    dead air (NICs down, arriving frames dropped as ``node_down``) the
    kernel reboots: filters are re-inserted, ASHs re-verified and
    re-downloaded through the sandbox, VCIs rebound, and the transport
    re-synchronizes from the surviving shared state via its ordinary
    retransmission machinery — bounded recovery, not a hang.

    A **reboot storm** is the same script run ``repeat`` times: crash,
    outage, reboot, then ``period_us`` after each crash the next one
    (default 4× the outage, so the node is up ~75% of the storm).  Each
    cycle's crash/reboot instants are kept in ``storms``.
    """

    def __init__(self, plane: "FaultPlane", kernel: "Kernel",
                 at_us: float, outage_us: float = 500.0,
                 repeat: int = 1, period_us: Optional[float] = None):
        super().__init__(plane, f"crash:{kernel.node.name}", 0, None, None)
        if repeat < 1:
            raise SimError(f"NodeCrash repeat must be >= 1: {repeat}")
        self.kernel = kernel
        self.at = us(at_us)
        self.outage = us(outage_us)
        self.repeat = repeat
        self.period = (us(period_us) if period_us is not None
                       else 4 * self.outage)
        if self.repeat > 1 and self.period <= self.outage:
            raise SimError(
                f"NodeCrash period_us must exceed outage_us for a storm "
                f"(period {self.period} <= outage {self.outage})")
        self.crashed_at: Optional[int] = None
        self.rebooted_at: Optional[int] = None
        #: one record per storm cycle: {"crashed_at", "rebooted_at"}
        self.storms: list[dict] = []
        plane.engine.spawn(self._script(), name=self.site)

    def _script(self):
        engine = self.plane.engine
        delay = self.at - engine.now
        if delay > 0:
            yield engine.timeout(delay)
        for cycle in range(self.repeat):
            if not self.enabled or self.kernel.crashed:
                return
            self.kernel.crash()
            crashed_at = engine.now
            if self.crashed_at is None:
                self.crashed_at = crashed_at
            self.plane.record("node_crash", self.site)
            yield engine.timeout(self.outage)
            self.kernel.reboot()
            self.rebooted_at = engine.now
            self.plane.record("node_reboot", self.site)
            self.storms.append({"crashed_at": crashed_at,
                                "rebooted_at": self.rebooted_at})
            if cycle + 1 < self.repeat:
                # next crash lands period after the previous one
                yield engine.timeout(self.period - self.outage)


class MemPressure(_Injector):
    """Injected allocation failure, per allocating call site.

    Installed as ``node.memory.pressure``; every gated site draws from
    its **own** seeded stream (``mem:<node>:<site>``) so gating one
    site never perturbs the failure pattern of another.  ``pktbuf`` is
    *not* in the default site set: a refused zero-copy wrapper changes
    no simulated outcome, so gate it explicitly to exercise that
    fallback.

    Refusals degrade, never crash: a refused pktbuf wrapper leaves the
    frame to be read out of node memory, a refused rx-ring refill is
    deferred and flushed by the next successful one, a refused ASH
    install falls back to the upcall path.  Every refusal is counted under
    ``mem.alloc_failures{site}``.
    """

    DEFAULT_SITES = ("rx_refill", "ash_install", "alloc")

    def __init__(self, plane: "FaultPlane", node: "Node",
                 rate: float = 0.0,
                 sites: Optional[tuple] = None,
                 max_failures: Optional[int] = None,
                 skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        super().__init__(plane, f"mem:{node.name}", skip_first,
                         start_us, stop_us)
        self.node = node
        chosen = tuple(sites) if sites is not None else self.DEFAULT_SITES
        self.rates: dict[str, float] = {site: rate for site in chosen}
        self.max_failures = max_failures
        self.fired = 0
        self._site_rng: dict[str, random.Random] = {}
        self._site_seen: dict[str, int] = {}

    def should_fail(self, site: str) -> bool:
        """One allocation attempt at ``site``; True = refuse it."""
        rate = self.rates.get(site, 0.0)
        if not rate:
            return False
        seen = self._site_seen.get(site, 0) + 1
        self._site_seen[site] = seen
        if not self.enabled or seen <= self.skip_first:
            return False
        now = self.plane.engine.now
        if self.start is not None and now < self.start:
            return False
        if self.stop is not None and now >= self.stop:
            return False
        if self.max_failures is not None and self.fired >= self.max_failures:
            return False
        rng = self._site_rng.get(site)
        if rng is None:
            rng = self.plane._rng_for(f"{self.site}:{site}")
            self._site_rng[site] = rng
        if rng.random() >= rate:
            return False
        self.fired += 1
        self.plane.record("mem_pressure", f"{self.site}:{site}")
        tel = self.plane.telemetry
        if tel is not None and tel.enabled:
            tel.counter("mem.alloc_failures", site=site,
                        node=self.node.name).inc()
        return True


class CpuContention(_Injector):
    """Seeded cycle-stealing bursts on a node's first CPU.

    Installed as ``cpu.contention``.  Two seams consume the stream in
    seam-call order:

    * :meth:`steal` — once per :meth:`repro.hw.cpu.Cpu.exec` call; a
      firing burst holds the CPU for ``burst_cycles`` of *foreign* work
      before the victim's charge starts, stretching wall-clock without
      advancing the victim (so the livelock admission window fills with
      fewer messages served);
    * :meth:`budget_penalty` — once per timer-budgeted ASH invocation;
      the abort timer is wall-clock, so a burst landing inside the
      handler's window eats its cycle budget and can force an
      involuntary abort (which must then degrade in order, zero-loss).
    """

    def __init__(self, plane: "FaultPlane", node: "Node",
                 rate: float = 0.0, burst_cycles: int = 400,
                 budget_rate: Optional[float] = None,
                 skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        super().__init__(plane, f"cpu:{node.name}", skip_first,
                         start_us, stop_us)
        self.cpu: "Cpu" = node.cpus[0]
        self.rate = rate
        self.burst_cycles = burst_cycles
        self.budget_rate = rate if budget_rate is None else budget_rate
        self.fired = 0

    def _burst(self, rate: float) -> int:
        if not self._gate():
            return 0
        if not rate or self.rng.random() >= rate:
            return 0
        self.fired += 1
        self.plane.record("cpu_contention", self.site)
        tel = self.plane.telemetry
        if tel is not None and tel.enabled:
            tel.counter("cpu.contention_cycles",
                        cpu=self.cpu.name).inc(self.burst_cycles)
        return self.burst_cycles

    def steal(self) -> int:
        """Cycles of foreign work stealing the CPU from this ``exec``
        call (0 = none this time)."""
        return self._burst(self.rate)

    def budget_penalty(self) -> int:
        """Cycles a contention burst eats out of a wall-clock abort
        budget for the ASH invocation starting now (0 = none)."""
        return self._burst(self.budget_rate)


class TenantFlood(_Injector):
    """A quota-exhaustion flood against one tenant's virtual circuit.

    An engine process blasts oversized frames straight at the NIC (as
    if an external aggressor held the VC), at a fixed cadence.  With a
    :class:`~repro.ash.tenancy.TenantManager` installed, every frame
    larger than the tenant's ``burst_bytes`` is mathematically
    inadmissible and is clipped *pre-DMA* — no buffer, no interrupt, no
    CPU — which is exactly the containment property the multi-tenant
    worlds pin.
    """

    def __init__(self, plane: "FaultPlane", nic: "Nic", vci: int,
                 frame_bytes: int = 20_000, count: int = 50,
                 start_us: float = 0.0, gap_us: float = 50.0):
        super().__init__(plane,
                         f"tenantflood:{nic.node.name}.{nic.name}:vc{vci}",
                         0, None, None)
        if count < 1:
            raise SimError(f"TenantFlood count must be >= 1: {count}")
        if gap_us < 0:
            raise SimError(f"TenantFlood gap_us must be >= 0: {gap_us}")
        self.nic = nic
        self.vci = vci
        self.frame_bytes = frame_bytes
        self.count = count
        self.at = us(start_us)
        self.gap = us(gap_us)
        self.injected = 0
        plane.engine.spawn(self._script(), name=self.site)

    def _script(self):
        from ..hw.link import Frame

        engine = self.plane.engine
        delay = self.at - engine.now
        if delay > 0:
            yield engine.timeout(delay)
        payload = bytes(self.frame_bytes)
        for _ in range(self.count):
            if not self.enabled:
                return
            self.nic._on_wire_frame(Frame(payload, vci=self.vci))
            self.injected += 1
            self.plane.record("tenant_flood", self.site)
            if self.gap:
                yield engine.timeout(self.gap)


class TenantLeak(_Injector):
    """A buffer-leak seam on one tenant's replenish path.

    Installed as the tenant's ``leak_injector``: a firing replenish is
    swallowed (the buffer silently stays on the tenant's held list),
    modelling an application that loses track of its rx buffers.  The
    manager's FIFO held-quota reclaim must keep the ring stocked — in
    the *same* buffer address order a well-behaved tenant would have
    produced — so the leak stays invisible to every other tenant.
    """

    def __init__(self, plane: "FaultPlane", manager, tenant: str,
                 skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        node = manager.kernel.node.name
        super().__init__(plane, f"tenantleak:{node}:{tenant}",
                         skip_first, start_us, stop_us)
        self.tenant = manager.get(tenant)
        self.fired = 0
        self.tenant.leak_injector = self

    def on_replenish(self) -> bool:
        """One replenish by the tenant; True = leak (swallow) it."""
        if not self._gate():
            return False
        self.fired += 1
        self.plane.record("tenant_leak", self.site)
        return True


class TenantCycleHog(_Injector):
    """A cycle-hog seam on one tenant's handler accounting.

    Installed as the tenant's ``hog_injector``: every charged handler
    invocation is inflated by ``factor``, as if the tenant's handler
    burned far more than it admitted to.  The per-round cycle quota
    must then throttle *this* tenant's handler (messages degrade to its
    normal path) without touching anyone else's.
    """

    def __init__(self, plane: "FaultPlane", manager, tenant: str,
                 factor: int = 16, skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        node = manager.kernel.node.name
        super().__init__(plane, f"tenanthog:{node}:{tenant}",
                         skip_first, start_us, stop_us)
        if factor < 1:
            raise SimError(f"TenantCycleHog factor must be >= 1: {factor}")
        self.tenant = manager.get(tenant)
        self.factor = factor
        self.tenant.hog_injector = self

    def inflate(self, cycles: int) -> int:
        """Accounting-side inflation of one invocation's cycle charge."""
        if not self._gate():
            return cycles
        self.plane.record("tenant_hog", self.site)
        return cycles * self.factor


class TenantAbortLoop(_Injector):
    """A crash-looping handler: tenant-scoped forced involuntary aborts.

    Installed as the tenant's ``abort_injector`` — the per-tenant
    sibling of :class:`AshAbortInjector`.  Each firing invocation runs
    under a forced (tiny) cycle budget and aborts mid-handler; after
    :data:`repro.ash.tenancy.ABORT_BREAKER_LIMIT` consecutive aborts
    the manager cuts the tenant's ASH binding (the crash-loop breaker),
    and its traffic continues on the normal path.
    """

    def __init__(self, plane: "FaultPlane", manager, tenant: str,
                 every: int = 1, skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        node = manager.kernel.node.name
        super().__init__(plane, f"tenantabort:{node}:{tenant}",
                         skip_first, start_us, stop_us)
        from ..sandbox.budget import forced_abort_budget

        if every < 1:
            raise SimError(f"TenantAbortLoop every must be >= 1: {every}")
        self.tenant = manager.get(tenant)
        self.every = every
        self.budget = forced_abort_budget(manager.cal)
        self.fired = 0
        self.tenant.abort_injector = self

    def consider(self) -> Optional[int]:
        """Called once per invocation on the tenant's endpoints; returns
        the forced budget when this invocation must abort, else None."""
        if not self._gate():
            return None
        if self.seen % self.every != 0:
            return None
        self.fired += 1
        self.plane.record("tenant_abort", self.site)
        return self.budget


class TenantScript(_Injector):
    """One scripted tenant-lifecycle abuse at a fixed instant.

    ``action``:

    * ``"crash"`` — the tenant's application dies
      (:meth:`~repro.ash.tenancy.TenantManager.crash_tenant`): its ASHs
      and their boot records are removed, its frames drop pre-DMA;
    * ``"install_hog"`` — ``attempts`` downloads of ``program`` (a
      loop-free handler whose static bound exceeds the tenant's cycle
      quota), each refused at the tenant admission layer;
    * ``"install_crashloop"`` — ``attempts`` downloads of ``program``
      (an unverifiable handler); the tenant is quarantined after
      :data:`repro.ash.tenancy.CRASHLOOP_LIMIT` consecutive failures.

    All three are host-level control-plane actions: they consume no
    simulated time, which is what makes the containment bar (victim
    observables bit-identical to the unperturbed run) provable.
    """

    def __init__(self, plane: "FaultPlane", manager, tenant: str,
                 at_us: float, action: str = "crash",
                 program=None, allowed_regions=None, policy=None,
                 attempts: int = 1):
        node = manager.kernel.node.name
        super().__init__(plane, f"tenant:{node}:{tenant}:{action}",
                         0, None, None)
        if action not in ("crash", "install_hog", "install_crashloop"):
            raise SimError(f"unknown TenantScript action {action!r}")
        if action != "crash" and program is None:
            raise SimError(f"TenantScript {action} needs a program")
        if attempts < 1:
            raise SimError(f"TenantScript attempts must be >= 1: {attempts}")
        self.manager = manager
        self.tenant = tenant
        self.at = us(at_us)
        self.action = action
        self.program = program
        self.allowed_regions = allowed_regions
        self.policy = policy
        self.attempts = attempts
        self.refusals = 0
        plane.engine.spawn(self._script(), name=self.site)

    def _script(self):
        engine = self.plane.engine
        delay = self.at - engine.now
        if delay > 0:
            yield engine.timeout(delay)
        if not self.enabled:
            return
        if self.action == "crash":
            self.manager.crash_tenant(self.tenant)
            self.plane.record("tenant_crash", self.site)
            return
        from ..ash.tenancy import TenantQuotaError
        from ..errors import SandboxViolation

        kind = ("tenant_hog" if self.action == "install_hog"
                else "tenant_crashloop")
        for _ in range(self.attempts):
            try:
                self.manager.download(
                    self.tenant, self.program, self.allowed_regions,
                    policy=self.policy)
            except (TenantQuotaError, SandboxViolation):
                self.refusals += 1
            self.plane.record(kind, self.site)


class FaultPlane:
    """Seeded, scenario-scriptable fault injection for one engine."""

    def __init__(self, engine, seed: int = 0, telemetry=None):
        self.engine = engine
        self.seed = seed
        self.telemetry = telemetry
        self._ledger: dict[str, int] = {}
        self.injectors: list[_Injector] = []

    # -- deterministic randomness ----------------------------------------
    def _rng_for(self, site: str) -> random.Random:
        # string seeding is deterministic across processes (unlike
        # hash()), so the same (seed, site) always yields the same stream
        return random.Random(f"faultplane:{self.seed}:{site}")

    # -- installation -----------------------------------------------------
    def impair_link(self, link: "Link", **knobs) -> LinkImpairment:
        """Install wire impairments on ``link`` (see LinkImpairment)."""
        imp = LinkImpairment(self, link, **knobs)
        link.impairment = imp
        self.injectors.append(imp)
        return imp

    def stress_nic(self, nic: "Nic", **knobs) -> NicStress:
        """Install receive-side stress on ``nic`` (see NicStress)."""
        stress = NicStress(self, nic, **knobs)
        nic.stress = stress
        self.injectors.append(stress)
        return stress

    def abort_ash(self, kernel: "Kernel", **knobs) -> AshAbortInjector:
        """Force involuntary ASH aborts on ``kernel`` (see
        AshAbortInjector)."""
        injector = AshAbortInjector(self, kernel, **knobs)
        kernel.ash_system.fault_injector = injector
        self.injectors.append(injector)
        return injector

    def crash_node(self, kernel: "Kernel", at_us: float,
                   outage_us: float = 500.0, repeat: int = 1,
                   period_us: Optional[float] = None) -> NodeCrash:
        """Script a kernel crash at ``at_us`` and a reboot ``outage_us``
        later; ``repeat``/``period_us`` turn it into a reboot storm
        (see NodeCrash)."""
        crash = NodeCrash(self, kernel, at_us, outage_us,
                          repeat=repeat, period_us=period_us)
        self.injectors.append(crash)
        return crash

    def pressure_memory(self, node: "Node", **knobs) -> MemPressure:
        """Inject allocation failures on ``node``'s memory (see
        MemPressure)."""
        pressure = MemPressure(self, node, **knobs)
        node.memory.pressure = pressure
        self.injectors.append(pressure)
        return pressure

    def contend_cpu(self, node: "Node", **knobs) -> CpuContention:
        """Install cycle-stealing bursts on ``node``'s first CPU (see
        CpuContention)."""
        contention = CpuContention(self, node, **knobs)
        contention.cpu.contention = contention
        self.injectors.append(contention)
        return contention

    def flood_tenant(self, nic: "Nic", vci: int, **knobs) -> TenantFlood:
        """Blast oversized frames at one tenant's VC (see TenantFlood)."""
        flood = TenantFlood(self, nic, vci, **knobs)
        self.injectors.append(flood)
        return flood

    def leak_tenant(self, manager, tenant: str, **knobs) -> TenantLeak:
        """Leak one tenant's rx-buffer replenishes (see TenantLeak)."""
        leak = TenantLeak(self, manager, tenant, **knobs)
        self.injectors.append(leak)
        return leak

    def hog_tenant(self, manager, tenant: str, **knobs) -> TenantCycleHog:
        """Inflate one tenant's handler cycle accounting (see
        TenantCycleHog)."""
        hog = TenantCycleHog(self, manager, tenant, **knobs)
        self.injectors.append(hog)
        return hog

    def abortloop_tenant(self, manager, tenant: str,
                         **knobs) -> TenantAbortLoop:
        """Crash-loop one tenant's handler with forced involuntary
        aborts (see TenantAbortLoop)."""
        loop = TenantAbortLoop(self, manager, tenant, **knobs)
        self.injectors.append(loop)
        return loop

    def script_tenant(self, manager, tenant: str, at_us: float,
                      **knobs) -> TenantScript:
        """Scripted tenant crash or install abuse (see TenantScript)."""
        script = TenantScript(self, manager, tenant, at_us, **knobs)
        self.injectors.append(script)
        return script

    # -- accounting --------------------------------------------------------
    def record(self, kind: str, site: str) -> None:
        self._ledger[kind] = self._ledger.get(kind, 0) + 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("faults.injected", kind=kind, site=site).inc()
            tel.flight.record("fault", self.engine.now, fault=kind, site=site)

    def ledger(self) -> dict[str, int]:
        """Deterministic count of injected faults by kind — part of the
        golden-digest bar."""
        return dict(sorted(self._ledger.items()))

    def total(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            return self._ledger.get(kind, 0)
        return sum(self._ledger.values())

    def publish_telemetry(self, hub=None) -> None:
        """End-of-run export: the ledger as ``faults.ledger`` gauges
        (idempotent sets, safe to call per phase)."""
        tel = hub if hub is not None else self.telemetry
        if tel is None or not tel.enabled:
            return
        for kind, count in self._ledger.items():
            tel.gauge("faults.ledger", kind=kind).set(count)
