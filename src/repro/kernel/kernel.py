"""The kernel: interrupt dispatch, demultiplexing and message delivery.

The receive path implements Section V's delivery hierarchy.  After the
NIC DMA lands a frame and raises an interrupt, the kernel:

1. charges the driver cost (including the "software cache flush of the
   message location, to ensure consistency after the DMA"),
2. demultiplexes — by virtual circuit on the AN2, by DPF filter on the
   Ethernet ("no more functionality is required in the kernel than is
   needed to demultiplex the messages to the correct process"),
3. delivers, in order of preference:
   a hard-wired **in-kernel handler** (the Table I baseline), a bound
   **ASH**, a registered **upcall**, or the **normal path** — append a
   notification to the endpoint ring and let the scheduler hook decide
   whether arrival boosts the owning process.

On the Ethernet normal path the kernel must copy the frame out of the
scarce device ring immediately ("a message must not stay in them very
long ... at least one copy is always necessary"); the AN2 normal path
leaves data in the application-provided buffer (zero copies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from ..hw.calibration import Calibration, PRIO_INTERRUPT, PRIO_KERNEL
from ..hw.link import Frame
from ..hw.nic.an2 import An2Nic
from ..hw.nic.base import Nic, RxDescriptor
from ..hw.nic.ethernet import EthernetNic, striped_size
from ..hw.node import Node
from ..sim.queues import Channel
from ..vcode.vm import VmResult
from .dpf import DpfEngine, Predicate
from .process import Process
from .scheduler import RoundRobinScheduler
from .syscalls import SyscallInterface
from .upcall import UpcallHandler, UpcallManager

__all__ = ["Endpoint", "Kernel"]

#: in-kernel handler: fn(kernel, endpoint, desc) -> generator -> consumed?
KernelHandler = Callable[["Kernel", "Endpoint", RxDescriptor], Generator]

#: kernel-side copy buffers per Ethernet endpoint
ETH_KBUFS = 8


@dataclass
class Endpoint:
    """A demultiplexing target: where messages for one consumer land."""

    name: str
    nic: Nic
    vci: Optional[int] = None          #: AN2 virtual circuit
    filter_id: Optional[int] = None    #: Ethernet DPF filter
    owner: Optional[Process] = None
    ring: Channel = None               #: notification ring (kernel/user shared)
    ash_id: Optional[int] = None
    upcall: Optional[UpcallHandler] = None
    kernel_handler: Optional[KernelHandler] = None
    buf_size: int = 4096
    #: Ethernet only: kernel-side buffers messages are copied into
    kbufs: list[int] = field(default_factory=list)
    #: Ethernet only: the DPF predicates, kept so a reboot can re-insert
    #: the filter (the compiled filter itself is kernel-volatile)
    predicates: Optional[list] = None
    rx_count: int = 0
    # receive-livelock guard state (Section VI-4)
    ash_window_start: int = 0
    ash_window_count: int = 0
    livelock_deferrals: int = 0

    def clear_handlers(self) -> None:
        self.ash_id = None
        self.upcall = None
        self.kernel_handler = None


class Kernel(SyscallInterface):
    """One Aegis-like kernel instance per node."""

    def __init__(
        self,
        node: Node,
        boost_on_packet: bool = False,
        ultrix_costs: bool = False,
    ):
        self.node = node
        self.engine = node.engine
        self.cal: Calibration = node.cal
        node.kernel = self
        #: one run queue per core; core 0 first so single-core worlds
        #: spawn exactly the same scheduler loop they always did
        self.schedulers = [
            RoundRobinScheduler(
                self, boost_on_packet=boost_on_packet,
                ultrix_costs=ultrix_costs, core=i,
            )
            for i in range(node.ncores)
        ]
        #: round-robin core assignment cursor for new processes
        self._next_core = 0
        #: per-(nic, core) guard: at most one drain process outstanding
        self._drain_pending: set[tuple[str, int]] = set()
        self.dpf = DpfEngine(self.cal, telemetry=node.telemetry)
        self.upcalls = UpcallManager(self)
        self.endpoints: list[Endpoint] = []
        self._by_vci: dict[tuple[str, int], Endpoint] = {}
        self._by_filter: dict[int, Endpoint] = {}
        self.rx_interrupts = 0
        self.demux_misses = 0
        #: messages whose ASH aborted involuntarily and which then
        #: degraded to the upcall/normal path (zero-loss recovery)
        self.ash_abort_fallbacks = 0
        # -- crash/restart recovery state ---------------------------------
        #: True between crash() and reboot(): all kernel-volatile state
        #: is gone; application memory (incl. SharedTcb regions) survives
        self.crashed = False
        self.crash_count = 0
        self.recoveries = 0
        #: notifications that died with the kernel (pending in rx rings
        #: or in-flight at crash time) — never silent, always counted
        self.lost_messages = 0
        #: one record per crash: {crash_at, reboot_at,
        #: first_delivery_after_reboot, lost_messages,
        #: filters_reinstalled, ash_reinstalls, ash_reinstall_failures}
        self.crash_log: list[dict] = []
        self._boot_records: list[dict] = []
        self._await_first_delivery = False
        # -- degradation-order invariant ----------------------------------
        #: messages whose delivery skipped a hierarchy level without a
        #: legitimate reason (must stay 0: ash → upcall → ring → drop)
        self.degradation_order_violations = 0
        self.delivery_outcomes: dict[str, int] = {}
        # telemetry: instruments are created once here; each op on them
        # is a no-op branch while the node's hub is disabled
        tel = node.telemetry
        self.telemetry = tel
        self._m_rx_interrupts = tel.counter("kernel.rx_interrupts")
        self._m_demux_misses = tel.counter("kernel.demux_misses")
        self._m_demux_us = tel.histogram("kernel.demux_us")
        self._m_livelock = tel.counter("kernel.livelock_deferrals")
        # the ASH runtime (imported here to keep layering one-way)
        from ..ash.system import AshSystem
        self.ash_system = AshSystem(self)
        #: a TenantManager installs itself here (see repro.ash.tenancy);
        #: None = single-tenant kernel, no per-tenant quotas
        self.tenants = None
        for nic in node.nics.values():
            self.attach_nic(nic)

    # span of the message currently being delivered, so transmit paths
    # reached from inside handlers can tag the reply.  Kept on the span
    # tracker (not here) because the NIC and protocol libraries need the
    # same notion of "current delivery" for trace-context attribution.
    @property
    def _active_span(self):
        return self.telemetry.spans.active

    @_active_span.setter
    def _active_span(self, span) -> None:
        self.telemetry.spans.active = span

    @property
    def scheduler(self) -> RoundRobinScheduler:
        """Core 0's scheduler (the whole kernel's, pre-SMP)."""
        return self.schedulers[0]

    # -- configuration ------------------------------------------------------
    def attach_nic(self, nic: Nic) -> None:
        nic.rx_callback = self._on_rx
        nic.rx_kick = self._on_rx_kick

    def spawn_process(self, name: str, body, core: Optional[int] = None) -> Process:
        """Create and start a process; ``core`` pins it, otherwise cores
        are assigned round-robin (deterministic: spawn order decides)."""
        if core is None:
            core = self._next_core
            self._next_core = (self._next_core + 1) % self.node.ncores
        proc = Process(self, name, body, core=core)
        proc.start()
        return proc

    def create_endpoint_an2(
        self,
        nic: An2Nic,
        vci: int,
        nbufs: int = 8,
        buf_size: int = 4096,
        owner: Optional[Process] = None,
        name: Optional[str] = None,
        tenant=None,
    ) -> Endpoint:
        """Bind a VC: the application provides ``nbufs`` receive buffers
        "for messages to be DMA'ed to".  ``tenant`` charges the binding
        against that tenant's ring quota (refused *before* any buffer
        memory is allocated)."""
        if tenant is not None and self.tenants is not None:
            tenant = self.tenants.charge_endpoint(tenant, vci)
        name = name or f"{nic.name}.vc{vci}"
        region = self.node.memory.alloc(f"{name}.bufs", nbufs * buf_size)
        buffers = [
            (region.base + i * buf_size, buf_size) for i in range(nbufs)
        ]
        nic.bind_vci(vci, buffers, owner=owner)
        ep = Endpoint(
            name=name, nic=nic, vci=vci, owner=owner,
            ring=Channel(self.engine, f"{name}.ring"), buf_size=buf_size,
        )
        self.endpoints.append(ep)
        self._by_vci[(nic.name, vci)] = ep
        if tenant is not None and self.tenants is not None:
            self.tenants.bind_endpoint(tenant, ep)
        return ep

    def create_endpoint_eth(
        self,
        nic: EthernetNic,
        predicates: list[Predicate],
        owner: Optional[Process] = None,
        name: Optional[str] = None,
    ) -> Endpoint:
        """Install a DPF filter and the kernel-side copy buffers."""
        fid = self.dpf.insert(predicates)
        name = name or f"{nic.name}.f{fid}"
        buf_size = self.cal.eth_mtu + 32
        region = self.node.memory.alloc(f"{name}.kbufs",
                                        ETH_KBUFS * buf_size)
        ep = Endpoint(
            name=name, nic=nic, filter_id=fid, owner=owner,
            ring=Channel(self.engine, f"{name}.ring"), buf_size=buf_size,
            kbufs=[region.base + i * buf_size for i in range(ETH_KBUFS)],
            predicates=list(predicates),
        )
        self.endpoints.append(ep)
        self._by_filter[fid] = ep
        return ep

    # -- crash / restart -----------------------------------------------------
    def crash(self) -> None:
        """Tear down every piece of kernel-volatile state, mid-flow.

        The exokernel split: application memory — receive buffers,
        protocol state, the TCP ``SharedTcb`` region — is the durable
        truth and survives untouched; what dies is everything the kernel
        built around it (compiled DPF filters, downloaded ASHs, upcall
        and VCI bindings, pending ring notifications).  Each endpoint
        leaves a *boot record* behind so :meth:`reboot` can rebuild the
        kernel around the surviving application state.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        rec = {
            "crash_at": self.engine.now,
            "reboot_at": None,
            "first_delivery_after_reboot": None,
            "lost_messages": 0,
            "filters_reinstalled": 0,
            "ash_reinstalls": 0,
            "ash_reinstall_failures": 0,
        }
        self.crash_log.append(rec)
        for nic in self.node.nics.values():
            nic.down = True
        self._boot_records = []
        for ep in self.endpoints:
            boot = {
                "ep": ep,
                "ash_id": ep.ash_id,
                "upcall": ep.upcall,
                "kernel_handler": ep.kernel_handler,
            }
            # pending, undelivered notifications die with the kernel;
            # they are counted (never silent) and their buffers are
            # reclaimed into the rebind set
            reclaimed: list[tuple[int, int]] = []
            while True:
                ok, desc = ep.ring.try_get()
                if not ok:
                    break
                if not isinstance(desc, RxDescriptor):
                    continue  # a pending wakeup notification: benign
                rec["lost_messages"] += 1
                self.lost_messages += 1
                if desc.buf is not None:
                    desc.buf.release()
                if isinstance(desc.nic, An2Nic):
                    reclaimed.append((desc.addr, self.cal.an2_max_packet))
                elif isinstance(desc.nic, EthernetNic):
                    if desc.meta.get("kbuf"):
                        ep.kbufs.append(desc.addr)
                    else:
                        desc.nic.return_slot(desc.addr)
                self._finish_span(desc, "crash_lost")
            if ep.vci is not None:
                binding = ep.nic.binding(ep.vci)
                bufs: list[tuple[int, int]] = []
                if binding is not None:
                    bufs.extend(binding.buffers)
                    if binding.deferred:
                        bufs.extend(binding.deferred)
                bufs.extend(reclaimed)
                # buffers the application holds at crash time come back
                # later through its ordinary sys_replenish calls
                boot["an2_buffers"] = bufs
                ep.nic.unbind_vci(ep.vci)
            if ep.filter_id is not None:
                boot["predicates"] = ep.predicates
                ep.filter_id = None
            ep.clear_handlers()
            ep.ash_window_start = 0
            ep.ash_window_count = 0
            self._boot_records.append(boot)
        self._by_filter.clear()
        # the packet-filter engine is rebuilt from scratch at reboot
        self.dpf = DpfEngine(self.cal, telemetry=self.node.telemetry)
        self.ash_system.crash()
        if self.tenants is not None:
            # the tenant control plane is application-owned and
            # survives; only its held-descriptor views are now stale
            self.tenants.on_crash()
        tel = self.telemetry
        if tel.enabled:
            tel.counter("crash.crashes").inc()
            if rec["lost_messages"]:
                tel.counter("crash.lost_messages").inc(rec["lost_messages"])
            # the flight recorder lives in application memory (like the
            # SharedTcb regions), so everything recorded before this
            # instant survives the teardown above and lands in the dump
            tel.flight.record("crash", self.engine.now,
                              lost=rec["lost_messages"])
            tel.flight.dump("kernel_crash", self.engine.now,
                            lost=rec["lost_messages"])
        self.node.trace("kernel.crash", f"lost={rec['lost_messages']}")

    def reboot(self) -> None:
        """Rebuild the kernel from boot records + surviving app memory.

        Filters are re-inserted (fresh ids), ASHs re-verified and
        re-downloaded through the sandbox (an install refused under
        memory pressure leaves that endpoint degraded to its upcall
        path), VCIs rebound with the reclaimed buffer set, and the NICs
        powered back up.  The transport then re-synchronizes from the
        surviving ``SharedTcb`` via its ordinary retransmission
        machinery — no protocol-special recovery code.
        """
        if not self.crashed:
            return
        rec = self.crash_log[-1]
        reinstalled, failures = self.ash_system.reboot()
        rec["ash_reinstalls"] = len(reinstalled)
        rec["ash_reinstall_failures"] = failures
        for boot in self._boot_records:
            ep = boot["ep"]
            if "an2_buffers" in boot:
                ep.nic.bind_vci(ep.vci, boot["an2_buffers"], owner=ep.owner)
            if boot.get("predicates") is not None:
                fid = self.dpf.insert(boot["predicates"])
                ep.filter_id = fid
                self._by_filter[fid] = ep
                rec["filters_reinstalled"] += 1
            ep.kernel_handler = boot["kernel_handler"]
            if boot["ash_id"] is not None and boot["ash_id"] in reinstalled:
                ep.ash_id = boot["ash_id"]
            ep.upcall = boot["upcall"]
        for nic in self.node.nics.values():
            nic.down = False
        self.crashed = False
        self.recoveries += 1
        rec["reboot_at"] = self.engine.now
        self._await_first_delivery = True
        self._boot_records = []
        tel = self.telemetry
        if tel.enabled:
            tel.counter("crash.recoveries").inc()
            if rec["filters_reinstalled"]:
                tel.counter("crash.filters_reinstalled").inc(
                    rec["filters_reinstalled"])
            if rec["ash_reinstalls"]:
                tel.counter("crash.ash_reinstalls").inc(rec["ash_reinstalls"])
        self.node.trace(
            "kernel.reboot",
            f"filters={rec['filters_reinstalled']} "
            f"ashes={rec['ash_reinstalls']}",
        )

    def _drop_in_crash(self, desc: RxDescriptor) -> None:
        """An rx interrupt raced the crash: the message dies with the
        kernel (counted), its buffer is reclaimed for the rebind set."""
        rec = self.crash_log[-1]
        rec["lost_messages"] += 1
        self.lost_messages += 1
        if desc.buf is not None:
            desc.buf.release()
        if isinstance(desc.nic, An2Nic):
            self._park_buffer(desc)
        elif isinstance(desc.nic, EthernetNic) and not desc.meta.get("kbuf"):
            desc.nic.return_slot(desc.addr)
        self._finish_span(desc, "crash_lost")
        if self.telemetry.enabled:
            self.telemetry.counter("crash.lost_messages").inc()

    # -- transmit ----------------------------------------------------------
    def kernel_send(self, nic: Nic, frame: Frame, cpu=None) -> Generator:
        """The in-kernel transmit path (descriptor writes + doorbell).

        ``cpu`` is the core doing the work (a syscall charges the
        calling process's core); defaults to core 0.
        """
        cost = (
            self.cal.an2_kernel_send_us
            if isinstance(nic, An2Nic)
            else self.cal.eth_tx_us
        )
        if cpu is None:
            cpu = self.node.cpu
        yield from cpu.exec_us(cost, PRIO_KERNEL)
        nic.transmit(frame)
        span = self._active_span
        if span is not None:
            span.stage("nic_tx", self.engine.now)

    # -- receive path --------------------------------------------------------
    def _on_rx(self, desc: RxDescriptor) -> None:
        self.engine.spawn(self._rx_interrupt(desc), name="rx-intr")

    def _on_rx_kick(self, nic: Nic, core: int) -> None:
        """Batched handoff: a descriptor landed on ``nic``'s per-core rx
        ring.  One drain process per (nic, core) is kept outstanding; a
        kick while a drain is pending coalesces into it — that is the
        batching (the burst amortizes per-frame event overhead)."""
        key = (nic.name, core)
        if key in self._drain_pending:
            return
        self._drain_pending.add(key)
        self.engine.spawn(self._rx_drain(nic, core), name="rx-drain")

    def _rx_drain(self, nic: Nic, core: int) -> Generator:
        """Drain up to ``nic.rx_batch`` descriptors from one core's ring
        through the full interrupt path, then yield the core back (a
        fresh kick re-arms if frames keep arriving — bounded bursts, so
        one hot ring cannot monopolize its core)."""
        ring = nic.rx_rings[core]
        batch = nic.rx_batch
        drained = 0
        try:
            while ring and drained < batch:
                desc = ring.popleft()
                drained += 1
                yield from self._rx_interrupt(desc)
            tel = self.telemetry
            if tel.enabled and drained:
                tel.counter("core.rx_batches",
                            nic=nic.name, core=str(core)).inc()
                tel.histogram("core.batch_frames").observe(drained)
        finally:
            self._drain_pending.discard((nic.name, core))
            if ring:
                self._on_rx_kick(nic, core)

    def _rx_interrupt(self, desc: RxDescriptor) -> Generator:
        if self.crashed:
            self._drop_in_crash(desc)
            return
        cpu = self.node.cpus[desc.core]
        cal = self.cal
        self.rx_interrupts += 1
        self._m_rx_interrupts.inc()
        span = desc.meta.get("span")

        if isinstance(desc.nic, An2Nic):
            # driver cost incl. the post-DMA software cache flush
            yield from cpu.exec_us(cal.an2_kernel_recv_us, PRIO_INTERRUPT)
            self.node.dcache.flush_range(desc.addr, desc.length)
            ep = self._by_vci.get((desc.nic.name, desc.vci))
        else:
            yield from cpu.exec_us(cal.eth_driver_us, PRIO_INTERRUPT)
            self.node.dcache.flush_range(
                desc.addr, desc.dma_span or striped_size(desc.length)
            )
            fid, demux_us = self.dpf.classify(desc.frame.data)
            yield from cpu.exec_us(demux_us, PRIO_INTERRUPT)
            self._m_demux_us.observe(demux_us)
            ep = self._by_filter.get(fid) if fid is not None else None
        if span is not None:
            span.stage("demux", self.engine.now)

        if ep is None:
            self.demux_misses += 1
            self._m_demux_misses.inc()
            self._finish_span(desc, "demux_miss")
            self._recycle(desc)
            return
        ep.rx_count += 1
        yield from self._deliver(ep, desc)

    def _deliver(self, ep: Endpoint, desc: RxDescriptor) -> Generator:
        cpu = self.node.cpus[desc.core]
        cal = self.cal
        span = desc.meta.get("span")
        self._active_span = span
        # why each hierarchy level above the final outcome was skipped;
        # a level skipped with no entry here is an order violation
        skips: dict[str, str] = {}
        try:
            # A crash can land while this delivery is suspended at any
            # yield below.  Work a handler *committed* before the crash
            # stands (its state updates are in application memory); an
            # unconsumed message dies with the kernel — counted, never
            # silently re-routed through torn-down state.
            if self.crashed:
                self._drop_in_crash(desc)
                return
            if ep.kernel_handler is not None:
                consumed = yield from ep.kernel_handler(self, ep, desc)
                if consumed:
                    if span is not None:
                        span.stage("kernel_handler", self.engine.now)
                    self._finish_span(desc, "kernel_handler")
                    self._recycle(desc)
                    self._note_delivery("kernel_handler", skips)
                    return
                if self.crashed:
                    self._drop_in_crash(desc)
                    return
                skips["kernel_handler"] = "declined"
            else:
                skips["kernel_handler"] = "unbound"

            if ep.ash_id is None:
                skips["ash"] = "unbound"
            elif not self._ash_admission(ep):
                skips["ash"] = "livelock_throttle"
            elif self.tenants is not None \
                    and not self.tenants.ash_allowed(ep):
                skips["ash"] = "tenant_cycle_throttle"
            else:
                consumed = yield from self.ash_system.invoke(ep, desc)
                if consumed:
                    self._finish_span(desc, "ash")
                    self._recycle(desc)
                    self._note_delivery("ash", skips)
                    return
                if self.crashed:
                    self._drop_in_crash(desc)
                    return
                if desc.meta.pop("ash_aborted", False):
                    # involuntary abort: the message is NOT lost — it
                    # falls through to the upcall/normal path below
                    self.ash_abort_fallbacks += 1
                    skips["ash"] = "involuntary_abort"
                    if self.telemetry.enabled:
                        self.telemetry.counter("ash.abort_fallbacks").inc()
                else:
                    skips["ash"] = "voluntary_pass"

            if ep.upcall is not None:
                consumed = yield from self.upcalls.dispatch(ep, ep.upcall, desc)
                if consumed:
                    self._finish_span(desc, "upcall")
                    self._recycle(desc)
                    self._note_delivery("upcall", skips)
                    return
                if self.crashed:
                    self._drop_in_crash(desc)
                    return
                skips["upcall"] = "declined"
            else:
                skips["upcall"] = "unbound"

            # -- normal path ------------------------------------------------
            if isinstance(desc.nic, EthernetNic):
                # The device ring is scarce: copy out now, then return the slot.
                if not ep.kbufs:
                    skips["ring"] = "no_kbuf"
                    self._finish_span(desc, "no_kbuf_drop")
                    self._recycle(desc)  # no kernel buffer: drop
                    self._note_delivery("drop", skips)
                    return
                kbuf = ep.kbufs.pop(0)
                cycles = self._eth_copy_out(desc, kbuf)
                yield from cpu.exec(cycles, PRIO_INTERRUPT)
                if self.crashed:
                    ep.kbufs.insert(0, kbuf)
                    self._drop_in_crash(desc)
                    return
                if span is not None:
                    span.stage("copy", self.engine.now)
                tel = self.telemetry
                if tel.enabled:
                    tel.counter("copy.bytes", kind="eth_copyout").inc(desc.length)
                    tel.counter("copy.cycles", kind="eth_copyout").inc(cycles)
                desc.nic.return_slot(desc.addr)
                desc.addr = kbuf
                desc.striped = False
                desc.meta["kbuf"] = True
                desc.dma_span = desc.length
                if desc.buf is not None:
                    # the ring-slot view is now stale; re-point the
                    # pooled buffer at the kernel copy
                    desc.buf.release()
                    desc.buf = desc.nic.pktpool.acquire(kbuf, desc.length)

            if span is not None:
                span.stage("ring_enqueue", self.engine.now)
            ep.ring.put(desc)
            if self.tenants is not None:
                self.tenants.note_ring_delivery(ep, desc)
            self._note_delivery("ring", skips)
            if ep.owner is not None:
                # wake on the *owner's* core: its run queue is where the
                # boost matters, whatever core the frame was steered to
                sched = self.schedulers[ep.owner.core]
                if sched.boost_on_packet and sched.current is not ep.owner:
                    wake = cal.interrupt_wake_us + sched.nprocs * cal.sched_scan_us
                    if sched.ultrix_costs:
                        wake += cal.ultrix_fixed_us
                    yield from cpu.exec_us(wake, PRIO_INTERRUPT)
                sched.on_packet(ep.owner)
        finally:
            self._active_span = None

    #: the Section-V delivery hierarchy, best first — under combined
    #: faults service must degrade strictly down this list, never skip
    _DELIVERY_ORDER = ("kernel_handler", "ash", "upcall", "ring", "drop")

    def _note_delivery(self, outcome: str, skips: dict[str, str]) -> None:
        """Record one message's final delivery path and check the
        degradation-order invariant: every hierarchy level above the
        outcome must have a *legitimate* skip reason (unbound handler,
        livelock throttle, involuntary/voluntary abort, declined upcall,
        kbuf exhaustion) — anything else is a reordering bug."""
        self.delivery_outcomes[outcome] = \
            self.delivery_outcomes.get(outcome, 0) + 1
        tel = self.telemetry
        for level in self._DELIVERY_ORDER[
                :self._DELIVERY_ORDER.index(outcome)]:
            if level not in skips:
                self.degradation_order_violations += 1
                if tel.enabled:
                    tel.counter(
                        "degradation.order_violations",
                        outcome=outcome, skipped=level).inc()
                    tel.flight.record("degradation", self.engine.now,
                                      outcome=outcome, skipped=level)
        if tel.enabled and skips.get("ash") == "involuntary_abort":
            # a forced-abort fall-through is the canonical degradation
            # event forensics care about: keep it in the ring
            tel.flight.record("degradation", self.engine.now,
                              outcome=outcome, skipped="ash",
                              reason="involuntary_abort")
        if self._await_first_delivery and outcome != "drop":
            self._await_first_delivery = False
            self.crash_log[-1]["first_delivery_after_reboot"] = self.engine.now

    def _finish_span(self, desc: RxDescriptor, outcome: str) -> None:
        span = desc.meta.get("span")
        if span is not None:
            self.telemetry.spans.finish(span, self.engine.now, outcome)

    def _ash_admission(self, ep: Endpoint) -> bool:
        """Receive-livelock guard (Section VI-4).

        ASHs are "fundamentally an eager, not a lazy technique"; under a
        message flood an endpoint exceeding its per-tick share has its
        handler disabled for the rest of the tick, and the excess
        messages take the normal (lazy, receiver-priority) path instead.
        """
        limit = self.cal.ash_livelock_limit
        if limit <= 0:
            return True
        from ..sim.units import us as us_ticks

        window = us_ticks(self.cal.tick_us)
        now = self.engine.now
        if now - ep.ash_window_start >= window:
            ep.ash_window_start = now
            ep.ash_window_count = 0
        if ep.ash_window_count >= limit:
            ep.livelock_deferrals += 1
            self._m_livelock.inc()
            return False
        ep.ash_window_count += 1
        return True

    def _eth_copy_out(self, desc: RxDescriptor, kbuf: int) -> int:
        """De-stripe the frame into a kernel buffer; returns cycles."""
        from ..pipes import Interface, PIPE_WRITE, compile_pl, pipel
        if not hasattr(self, "_eth_copy_engine"):
            self._eth_copy_engine = compile_pl(
                pipel(name="ethcopy"), PIPE_WRITE,
                interface=Interface.ETH_STRIPED, cal=self.cal,
            )
            self._eth_copy_engine.telemetry = self.telemetry
        n = desc.length - (desc.length % 4)  # word-aligned body
        cycles = 0
        if n:
            cycles = self._eth_copy_engine.run_fast(
                self.node.memory, desc.addr, kbuf, n, self.node.dcache
            )
        if desc.length % 4:  # trailing bytes, copied by hand
            from ..hw.nic.ethernet import stripe_offset
            for i in range(n, desc.length):
                byte = self.node.memory.load_u8(desc.addr + stripe_offset(i))
                self.node.memory.store_u8(kbuf + i, byte)
            cycles += 4 * (desc.length % 4)
        return cycles

    def _park_buffer(self, desc: RxDescriptor) -> bool:
        """During an outage an application-returned AN2 buffer joins
        the rebind set (its VCI is unbound until reboot)."""
        if not self.crashed:
            return False
        for boot in self._boot_records:
            ep = boot["ep"]
            if ep.nic is desc.nic and ep.vci == desc.vci \
                    and "an2_buffers" in boot:
                boot["an2_buffers"].append(
                    (desc.addr, self.cal.an2_max_packet))
                return True
        return False

    def _recycle(self, desc: RxDescriptor) -> None:
        """Return the receive buffer to the hardware."""
        if desc.buf is not None:
            desc.buf.release()  # views over the slot are invalid from here
        if isinstance(desc.nic, An2Nic):
            if self._park_buffer(desc):
                return
            desc.nic.replenish(desc.vci, desc.addr, self.cal.an2_max_packet)
        elif isinstance(desc.nic, EthernetNic) and not desc.meta.get("kbuf"):
            desc.nic.return_slot(desc.addr)

    def _replenish(self, ep: Endpoint, desc: RxDescriptor) -> Generator:
        """Syscall back end: application returns a buffer it was using."""
        span = desc.meta.get("span")
        if span is not None:
            span.stage("app_consume", self.engine.now)
            self._finish_span(desc, "app")
        if isinstance(desc.nic, EthernetNic) and desc.meta.get("kbuf"):
            if desc.buf is not None:
                desc.buf.release()
            ep.kbufs.append(desc.addr)
        else:
            if self.tenants is not None \
                    and self.tenants.note_replenish(ep, desc):
                return  # swallowed (revoked buffer, or an injected leak)
            self._recycle(desc)
        return
        yield  # pragma: no cover - marks this as a generator

    # -- shared handler accounting -----------------------------------------
    def charge_with_sends(
        self, result: VmResult, pending: list[tuple[Nic, Frame]], prio: int,
        cpu=None,
    ) -> Generator:
        """Charge a handler's cycles, transmitting its sends at the cycle
        offsets they occurred (so replies leave the node at the right
        simulated time).  ``cpu`` is the core the handler ran on."""
        if cpu is None:
            cpu = self.node.cpu
        sends = [entry for entry in result.call_log
                 if entry[0] in ("ash_send", "net_send")]
        charged = 0
        span = self._active_span
        for (name, at_cycles, _v), (nic, frame) in zip(sends, pending):
            yield from cpu.exec(at_cycles - charged, prio)
            charged = at_cycles
            nic.transmit(frame)
            if span is not None:
                span.stage("nic_tx", self.engine.now)
        yield from cpu.exec(result.cycles - charged, prio)

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict:
        """A deterministic snapshot of kernel-level accounting.

        Works with telemetry on or off (the plain attribute counters are
        always maintained); with the hub enabled the metrics snapshot is
        included alongside.
        """
        out = {
            "node": self.node.name,
            "time_ps": self.engine.now,
            "rx_interrupts": self.rx_interrupts,
            "demux_misses": self.demux_misses,
            "ash_abort_fallbacks": self.ash_abort_fallbacks,
            "context_switches": sum(
                s.context_switches for s in self.schedulers
            ),
            "cores": self.node.ncores,
            "crashes": self.crash_count,
            "recoveries": self.recoveries,
            "lost_messages": self.lost_messages,
            "crash_log": [dict(rec) for rec in self.crash_log],
            "delivery_outcomes": dict(sorted(self.delivery_outcomes.items())),
            "degradation_order_violations": self.degradation_order_violations,
            "endpoints": [
                {
                    "name": ep.name,
                    "rx_count": ep.rx_count,
                    "livelock_deferrals": ep.livelock_deferrals,
                    "has_ash": ep.ash_id is not None,
                    "has_upcall": ep.upcall is not None,
                    "has_kernel_handler": ep.kernel_handler is not None,
                }
                for ep in self.endpoints
            ],
            "ash": self.ash_system.stats(),
            "tenants": (self.tenants.stats()
                        if self.tenants is not None else None),
            "nics": {
                nic.name: {
                    "rx_frames": nic.rx_frames,
                    "tx_frames": nic.tx_frames,
                    "rx_dropped": nic.rx_dropped,
                    "drop_reasons": dict(sorted(nic.drop_reasons.items())),
                }
                for nic in sorted(self.node.nics.values(),
                                  key=lambda n: n.name)
            },
        }
        if self.telemetry.enabled:
            out["metrics"] = self.telemetry.registry.snapshot()
            out["spans"] = self.telemetry.spans.snapshot(include_events=False)
        return out
