"""A node: CPUs + caches + memory + NICs, the unit a kernel runs on."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..sim.engine import Engine
from ..sim.trace import Tracer
from ..telemetry import Telemetry
from .cache import DirectMappedCache
from .calibration import Calibration, DEFAULT
from .cpu import Cpu
from .memory import PhysicalMemory
from .nic.base import Nic, PacketBufPool

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

__all__ = ["Node"]

#: frames drained per NIC→kernel handoff on multicore nodes (one
#: interrupt amortizes the per-frame event overhead across the burst)
DEFAULT_RX_BATCH = 8


class Node:
    """Hardware for one modelled DECstation 5000/240 (optionally SMP)."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        cal: Calibration = DEFAULT,
        mem_size: int = 8 * 1024 * 1024,
        tracer: Optional[Tracer] = None,
        ncores: int = 1,
        rx_batch: Optional[int] = None,
    ):
        if ncores < 1:
            raise ValueError(f"{name}: need at least one core, got {ncores}")
        self.engine = engine
        self.name = name
        self.cal = cal
        self.memory = PhysicalMemory(mem_size)
        self.dcache = DirectMappedCache(cal)
        self.ncores = ncores
        # core 0 keeps the historical ``<name>.cpu`` name so single-core
        # worlds (and their pinned telemetry/trace output) are unchanged
        self.cpus = [
            Cpu(engine, cal, name=f"{name}.cpu" if i == 0 else f"{name}.cpu{i}")
            for i in range(ncores)
        ]
        self.cpu = self.cpus[0]
        # NIC→kernel handoff batching: single-core nodes keep the
        # one-event-per-frame path unless a batch is requested explicitly
        self.rx_batch_opt = rx_batch
        self.rx_batch = rx_batch if rx_batch is not None else (
            DEFAULT_RX_BATCH if ncores > 1 else 1
        )
        self.tracer = tracer if tracer is not None else Tracer(engine)
        self.telemetry = Telemetry(engine, source=name, tracer=self.tracer)
        self.pktpool = PacketBufPool(self.memory, self.telemetry, name=name)
        self.nics: dict[str, Nic] = {}
        #: installed by the kernel package at boot
        self.kernel: Optional["Kernel"] = None

    def add_nic(self, nic: Nic) -> Nic:
        if self.nics.get(nic.name) is nic:
            return nic  # idempotent re-add (bind is too)
        if nic.name in self.nics:
            raise ValueError(f"duplicate NIC name {nic.name!r} on {self.name}")
        self.nics[nic.name] = nic
        nic.bind(self)
        return nic

    def trace(self, tag: str, payload: object = None) -> None:
        self.telemetry.trace(self.name, tag, payload)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} cores={self.ncores} nics={list(self.nics)}>"
