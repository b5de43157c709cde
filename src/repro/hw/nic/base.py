"""Common NIC machinery.

A NIC sits between a :class:`repro.hw.link.Link` and the node's kernel.
Receive DMA places frame bytes into node memory and hands the kernel an
:class:`RxDescriptor`; the kernel (not the NIC) charges CPU time for
interrupt handling, cache flushing and demultiplexing, because those are
software costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TYPE_CHECKING

from ...sim.engine import Engine
from ...telemetry.tracecontext import adopt_rx_context, attach_tx_context
from ..calibration import Calibration
from ..link import Frame, Link
from .rss import RssDispatcher

if TYPE_CHECKING:  # pragma: no cover
    from ..memory import PhysicalMemory
    from ..node import Node

__all__ = ["RxDescriptor", "PacketBuf", "PacketBufPool", "Nic"]


@dataclass
class RxDescriptor:
    """Where a received frame landed."""

    nic: "Nic"
    frame: Frame
    addr: int              #: physical address of the DMA'd payload
    length: int            #: payload length in bytes
    vci: Optional[int]     #: AN2 virtual circuit, None for Ethernet
    striped: bool = False  #: True when the DMA engine striped the data
    dma_span: int = 0      #: bytes of memory the DMA engine occupied
                           #: (striped layouts occupy more than ``length``)
    buf: Optional["PacketBuf"] = None  #: pooled window over the DMA span
    core: int = 0          #: cpu the RSS dispatch stage steered this to
    meta: dict[str, Any] = field(default_factory=dict)


class PacketBuf:
    """A pooled zero-copy window over a DMA'd packet in node memory.

    The ``view`` aliases the live receive buffer: it stays valid only
    until the buffer is recycled to the NIC, which is why the kernel
    releases the :class:`PacketBuf` exactly when it recycles or
    replenishes the underlying slot.  Consumers that keep payload past
    that point (applications, reassembly) must materialize ``bytes``.
    """

    __slots__ = ("addr", "span", "view", "_pool")

    def __init__(self, pool: "PacketBufPool"):
        self._pool = pool
        self.addr = 0
        self.span = 0
        self.view: Optional[memoryview] = None

    def release(self) -> None:
        self._pool.release(self)


class PacketBufPool:
    """Free-list of :class:`PacketBuf` wrappers for one node.

    Pooling the wrappers (and counting reuse) makes the zero-copy path
    observable: ``datapath.pktbuf.*`` telemetry shows every packet hop
    handing off a view instead of materializing bytes.
    """

    def __init__(self, memory: "PhysicalMemory", telemetry=None,
                 name: str = "pktbuf"):
        self.memory = memory
        self.telemetry = telemetry
        self.name = name
        self._free: list[PacketBuf] = []
        self.created = 0
        self.reused = 0
        self.acquired = 0
        self.released = 0

    @property
    def in_flight(self) -> int:
        return self.acquired - self.released

    def acquire(self, addr: int, span: int) -> PacketBuf:
        tel = self.telemetry
        if self._free:
            buf = self._free.pop()
            self.reused += 1
            if tel is not None and tel.enabled:
                tel.counter("datapath.pktbuf.reused", pool=self.name).inc()
        else:
            buf = PacketBuf(self)
            self.created += 1
            if tel is not None and tel.enabled:
                tel.counter("datapath.pktbuf.created", pool=self.name).inc()
        buf.addr = addr
        buf.span = span
        buf.view = self.memory.read_view(addr, span)
        self.acquired += 1
        if tel is not None and tel.enabled:
            tel.counter("datapath.pktbuf.acquired", pool=self.name).inc()
        return buf

    def release(self, buf: PacketBuf) -> None:
        if buf.view is None:
            return  # already released (idempotent: recycle + replenish paths)
        buf.view = None
        self._free.append(buf)
        self.released += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("datapath.pktbuf.released", pool=self.name).inc()

    def publish_telemetry(self, hub=None) -> None:
        """Snapshot pool gauges into a hub (end-of-run export)."""
        tel = hub if hub is not None else self.telemetry
        if tel is None or not tel.enabled:
            return
        tel.gauge("datapath.pktbuf.in_flight", pool=self.name).set(self.in_flight)
        tel.gauge("datapath.pktbuf.free", pool=self.name).set(len(self._free))

    def stats(self) -> dict:
        return {
            "created": self.created,
            "reused": self.reused,
            "acquired": self.acquired,
            "released": self.released,
            "in_flight": self.in_flight,
        }


class Nic:
    """Base class: link attachment, tx, rx dispatch and drop counting."""

    #: subclasses set a human-readable medium name
    medium = "nic"

    def __init__(self, engine: Engine, cal: Calibration,
                 memory: "PhysicalMemory", name: str):
        self.engine = engine
        self.cal = cal
        self.memory = memory
        self.name = name
        self.link: Optional[Link] = None
        self.link_end: int = 0
        #: the kernel installs this; called with an RxDescriptor
        self.rx_callback: Optional[Callable[[RxDescriptor], None]] = None
        #: the kernel installs this on SMP nodes; called with
        #: ``(nic, core)`` after a descriptor lands on a per-core ring
        self.rx_kick: Optional[Callable[["Nic", int], None]] = None
        #: the owning node, installed by :meth:`bind` (via ``add_nic``);
        #: a standalone NIC (unit tests) keeps None and runs untelemetered
        self.node: Optional["Node"] = None
        #: the owning node's telemetry hub, installed by :meth:`bind`
        self.telemetry = None
        #: the owning node's PacketBufPool, installed by :meth:`bind`
        #: (None until then: received frames carry no zero-copy wrapper)
        self.pktpool: Optional[PacketBufPool] = None
        # -- receive-side scaling (re-homed by bind on SMP nodes) -------
        self.ncores = 1
        #: frames drained per kernel handoff (bind copies the node's)
        self.rx_batch = 1
        #: True once descriptors go through per-core rings + rx_kick
        #: instead of one rx_callback event per frame
        self.batched = False
        self.rx_rings: list[deque] = [deque()]
        self.ring_peaks: list[int] = [0]
        #: the dispatch stage; created at bind, replaceable via set_rss
        self.rss: Optional[RssDispatcher] = None
        self.rx_frames = 0
        self.tx_frames = 0
        self.rx_dropped = 0
        self.tx_dropped = 0
        #: True while the owning node is crashed: the device neither
        #: receives (frames drop as ``node_down``) nor transmits
        self.down = False
        #: why frames were dropped, by reason (backpressure telemetry)
        self.drop_reasons: dict[str, int] = {}
        #: fault-injection seam: a FaultPlane installs a NicStress here
        #: (see repro.sim.faults); None = the device behaves
        self.stress = None
        #: tenant-admission seam: a TenantManager installs itself here
        #: (see repro.ash.tenancy); None = no per-tenant quotas
        self.admission = None
        #: subclasses set this before returning None from _dma
        self._drop_reason = "no_buffer"

    def bind(self, node: "Node") -> "Nic":
        """Adopt the owning node's telemetry, packet pool and topology.

        One atomic step (called by ``Node.add_nic``) instead of the old
        post-hoc attribute pokes, so a NIC can never run half-configured:
        either it is bound — telemetry, pool, rings and RSS all wired —
        or it is a deliberately standalone unit-test device.
        """
        if self.node is node:
            return self
        if self.node is not None:
            raise RuntimeError(
                f"{self.name}: already bound to node {self.node.name}"
            )
        if node.memory is not self.memory:
            raise RuntimeError(
                f"{self.name}: constructed over a different memory than "
                f"node {node.name}'s"
            )
        if self.tx_frames or self.rx_frames:
            # the failure mode bind exists to kill: a NIC that carried
            # traffic before attach silently ran with telemetry=None
            raise RuntimeError(
                f"{self.name}: carried traffic ({self.tx_frames} tx / "
                f"{self.rx_frames} rx frames) before being bound to "
                f"{node.name} — bind the NIC before attaching workloads"
            )
        self.node = node
        self.telemetry = node.telemetry
        self.pktpool = node.pktpool
        self.ncores = node.ncores
        self.rx_batch = node.rx_batch
        # single-core nodes keep the direct one-event-per-frame handoff
        # (identical event schedule to the pre-SMP kernel) unless the
        # node explicitly asked for batching
        self.batched = node.ncores > 1 or node.rx_batch_opt is not None
        self.rx_rings = [deque() for _ in range(self.ncores)]
        self.ring_peaks = [0] * self.ncores
        if self.rss is None:
            self.rss = RssDispatcher(
                self.ncores, telemetry=self.telemetry, nic_name=self.name
            )
        else:  # installed before bind: re-home it
            self.rss.rebind(self.ncores, telemetry=self.telemetry,
                            nic_name=self.name)
        return self

    def set_rss(self, dispatcher: RssDispatcher) -> RssDispatcher:
        """Install an application-defined dispatch stage (pluggable the
        way a DPF filter is: policy from above, mechanism stays here)."""
        dispatcher.rebind(self.ncores, telemetry=self.telemetry,
                          nic_name=self.name)
        self.rss = dispatcher
        return dispatcher

    def attach(self, link: Link, end: int) -> None:
        self.link = link
        self.link_end = end
        link.attach(end, self._on_wire_frame)

    # -- transmit ----------------------------------------------------------
    def transmit(self, frame: Frame) -> None:
        """Hand a frame to the DMA engine (no CPU charge here)."""
        if self.link is None:
            raise RuntimeError(f"{self.name}: not attached to a link")
        if self.down:
            self.tx_dropped += 1
            self.drop_reasons["node_down_tx"] = \
                self.drop_reasons.get("node_down_tx", 0) + 1
            return
        self.tx_frames += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("nic.tx_frames", nic=self.name).inc()
            tel.counter("nic.tx_bytes", nic=self.name).inc(len(frame.data))
            # trace context rides Frame.meta: sidecar only, never part
            # of len(frame) and therefore of any wire or CPU cost
            attach_tx_context(tel, self.engine, frame)
        self.link.send(self.link_end, frame)

    # -- receive ----------------------------------------------------------
    def _count_drop(self, reason: str) -> None:
        """One dropped rx frame, attributed to ``reason``."""
        self.rx_dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("nic.rx_dropped", nic=self.name, reason=reason).inc()

    def _on_wire_frame(self, frame: Frame) -> None:
        if self.down:
            self._count_drop("node_down")
            return
        stress = self.stress
        if stress is not None:
            frame = stress.on_rx(frame)
            if frame is None:  # injected ring exhaustion
                self._count_drop("stress_exhaust")
                return
        admission = self.admission
        if admission is not None:
            # per-tenant quota check *before* DMA: a clipped frame
            # consumes no buffer, no interrupt and no CPU, so one
            # tenant's flood cannot perturb another tenant's schedule
            reason = admission.check(self, frame)
            if reason is not None:
                self._count_drop(reason)
                return
        self._drop_reason = "no_buffer"
        desc = self._dma(frame)
        tel = self.telemetry
        if desc is None:
            self._count_drop(self._drop_reason)
            return
        self.rx_frames += 1
        if self.pktpool is not None \
                and (admission is None or admission.pktbuf_ok(self, frame)) \
                and not self.memory.pressure_gate("pktbuf"):
            # a refused wrapper allocation leaves desc.buf None: the
            # consumers then read the frame out of node memory instead
            desc.buf = self.pktpool.acquire(desc.addr, desc.dma_span or desc.length)
        if tel is not None and tel.enabled:
            tel.counter("nic.rx_frames", nic=self.name).inc()
            tel.counter("nic.rx_bytes", nic=self.name).inc(desc.length)
            # the packet-lifecycle span starts here, riding on the
            # descriptor through the whole delivery hierarchy
            now = self.engine.now
            span = tel.spans.begin(f"{self.name}.rx", now)
            span.stage("nic_rx", now)
            adopt_rx_context(tel, frame, span)
            desc.meta["span"] = span
        # the RSS dispatch stage runs on every successfully DMA'd frame
        # (dropped frames are never steered, so per-core steered counts
        # always sum to rx_frames), *before* any kernel demultiplexing
        core = self.rss.steer(desc) if self.rss is not None else 0
        if self.batched:
            ring = self.rx_rings[core]
            ring.append(desc)
            depth = len(ring)
            if depth > self.ring_peaks[core]:
                self.ring_peaks[core] = depth
            if self.rx_kick is not None:
                self.rx_kick(self, core)
        elif self.rx_callback is not None:
            self.rx_callback(desc)

    def publish_telemetry(self, hub=None) -> None:
        """Snapshot per-core ring gauges + RSS flow table into a hub."""
        tel = hub if hub is not None else self.telemetry
        if tel is None or not tel.enabled:
            return
        for core, ring in enumerate(self.rx_rings):
            label = str(core)
            tel.gauge("core.ring_depth", nic=self.name, core=label) \
                .set(len(ring))
            tel.gauge("core.ring_peak_depth", nic=self.name, core=label) \
                .set(self.ring_peaks[core])
        if self.rss is not None:
            self.rss.publish_telemetry(tel)

    def _dma(self, frame: Frame) -> Optional[RxDescriptor]:
        """Place the frame in memory; None means 'no buffer, drop'."""
        raise NotImplementedError
