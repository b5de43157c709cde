"""Receive-side scaling: steer rx descriptors to cores before demux.

On an SMP node every received frame passes through an
application-definable *dispatch stage* between DMA completion and
kernel demultiplexing — the NIC decides which core's rx ring the
descriptor lands on, so DPF classification, the delivery hierarchy and
the handler all run on that core.  Like a DPF filter, the dispatcher is
pluggable (:meth:`repro.hw.nic.base.Nic.set_rss`): the default steers
by a deterministic hash of the flow identity (AN2 virtual circuit, or
the IPv4 4-tuple on the Ethernet) with *sticky affinity* — once a flow
is assigned a core it stays there until explicitly re-pinned, so
per-flow protocol state never bounces between caches mid-flow.

Determinism: steering is a pure function of frame bytes plus the flow
table, never of Python's salted ``hash()`` or any wall-clock input —
two runs of the same workload steer identically, which is what keeps
SMP worlds on their golden digests under per-core interleaving.
"""

from __future__ import annotations

import struct
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ...hw.link import Frame
    from .base import RxDescriptor

__all__ = ["RssDispatcher", "fnv1a32", "flow_key"]

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193

_ETHERTYPE_IP = b"\x08\x00"
_IPPROTO_TCP = 6
_IPPROTO_UDP = 17


def fnv1a32(data: bytes) -> int:
    """FNV-1a over ``data`` — explicit, never Python's salted ``hash``."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return h


def flow_key(frame: "Frame") -> tuple:
    """The default flow identity of one wire frame.

    * AN2: the virtual circuit *is* the flow (the switch demultiplexes
      by connection identifier, so should receive-side dispatch).
    * Ethernet carrying IPv4: the classic 4-tuple
      (src, dst, proto, src-port, dst-port).
    * anything else: the first 32 payload bytes (deterministic, and all
      a dispatcher can know without a protocol parser).
    """
    if frame.vci is not None:
        return ("vci", frame.vci)
    data = frame.data
    if len(data) >= 34 and data[12:14] == _ETHERTYPE_IP \
            and (data[14] >> 4) == 4:
        ihl = (data[14] & 0x0F) * 4
        proto = data[23]
        src, dst = struct.unpack("!II", data[26:34])
        l4 = 14 + ihl
        if proto in (_IPPROTO_TCP, _IPPROTO_UDP) and len(data) >= l4 + 4:
            sport, dport = struct.unpack("!HH", data[l4:l4 + 4])
            return ("ip4", src, dst, proto, sport, dport)
        return ("ip4", src, dst, proto, 0, 0)
    return ("raw", bytes(data[:32]))


class RssDispatcher:
    """Deterministic hash dispatch with a sticky flow-affinity table.

    The NIC calls :meth:`steer` once per successfully DMA'd frame;
    applications may subclass and override :meth:`select_core` (the
    policy) while keeping the flow table, accounting and telemetry, or
    replace the whole object via ``nic.set_rss``.
    """

    def __init__(self, ncores: int, telemetry=None, nic_name: str = "nic"):
        self.ncores = ncores
        self.telemetry = telemetry
        self.nic_name = nic_name
        #: sticky affinity: flow key -> pinned core
        self.flow_table: dict[tuple, int] = {}
        self.steered = [0] * ncores
        self.migrations = 0

    # -- policy (override point) ------------------------------------------
    def select_core(self, key: tuple, frame: "Frame") -> int:
        """Pick a core for a flow not yet in the table."""
        if self.ncores == 1:
            return 0
        return fnv1a32(repr(key).encode()) % self.ncores

    # -- the dispatch stage -------------------------------------------------
    def steer(self, desc: "RxDescriptor") -> int:
        """Assign ``desc`` to a core (recorded on ``desc.core``)."""
        key = flow_key(desc.frame)
        core = self.flow_table.get(key)
        if core is None:
            core = self.select_core(key, desc.frame)
            self.flow_table[key] = core
        desc.core = core
        self.steered[core] += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("rss.steered", nic=self.nic_name, core=str(core)).inc()
        return core

    def repin(self, key: tuple, core: int) -> None:
        """Explicitly migrate a flow to ``core`` (load shedding, the
        application knows better than the hash)."""
        if not 0 <= core < self.ncores:
            raise ValueError(f"core {core} out of range (ncores={self.ncores})")
        old = self.flow_table.get(key)
        self.flow_table[key] = core
        if old is not None and old != core:
            self.migrations += 1
            tel = self.telemetry
            if tel is not None and tel.enabled:
                tel.counter("rss.migrations", nic=self.nic_name).inc()

    # -- introspection ------------------------------------------------------
    def rebind(self, ncores: int, telemetry=None,
               nic_name: Optional[str] = None) -> None:
        """Re-home the dispatcher when its NIC binds to a node."""
        if ncores != self.ncores:
            self.ncores = ncores
            self.flow_table.clear()
            self.steered = [0] * ncores
        self.telemetry = telemetry
        if nic_name is not None:
            self.nic_name = nic_name

    def publish_telemetry(self, hub=None) -> None:
        tel = hub if hub is not None else self.telemetry
        if tel is None or not tel.enabled:
            return
        tel.gauge("rss.flows", nic=self.nic_name).set(len(self.flow_table))

    def stats(self) -> dict:
        return {
            "ncores": self.ncores,
            "flows": len(self.flow_table),
            "steered": list(self.steered),
            "migrations": self.migrations,
        }
