"""Canonical two-node testbeds.

The paper's measurements are all taken "on a pair of 40-MHz DECstation
5000/240s ... connected with an AN2 switch" (and, for the Ethernet
rows, a shared 10 Mb/s Ethernet).  These builders assemble that pair:
two nodes, their kernels, and the wire between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..hw.calibration import Calibration, DEFAULT
from ..hw.link import Link
from ..hw.nic.an2 import An2Nic
from ..hw.nic.ethernet import EthernetNic
from ..hw.node import Node
from ..kernel.kernel import Kernel
from ..sim.engine import Engine

__all__ = ["Testbed", "make_an2_pair", "make_eth_pair"]

#: conventional VCI assignments used throughout benches and examples
CLIENT_TO_SERVER_VCI = 1
SERVER_TO_CLIENT_VCI = 2


@dataclass
class Testbed:
    """Two nodes and the wire between them."""

    engine: Engine
    cal: Calibration
    client: Node
    server: Node
    link: Link
    client_nic: Any
    server_nic: Any
    #: installed by attach_fault_plane(); None = no injected faults
    fault_plane: Any = None

    @property
    def client_kernel(self) -> Kernel:
        return self.client.kernel

    @property
    def server_kernel(self) -> Kernel:
        return self.server.kernel

    def run(self, until: Optional[int] = None,
            max_virtual_s: float = 120.0) -> None:
        """Run the simulation.

        ``max_virtual_s`` is a safety cap: a workload bug (e.g. a
        retransmission loop with no listener) otherwise generates timer
        events forever and the run never returns.  Pass ``until`` for an
        explicit bound, or raise the cap for legitimately long runs.
        """
        if until is None and max_virtual_s is not None:
            from ..sim.units import seconds

            until = self.engine.now + seconds(max_virtual_s)
        self.engine.run(until=until)
        self.publish_telemetry()

    def attach_fault_plane(self, seed: int = 0):
        """Create (once) and return the testbed's
        :class:`~repro.sim.faults.FaultPlane`, wired to the client
        node's telemetry hub.  Install faults by calling its factories
        (``impair_link`` / ``stress_nic`` / ``abort_ash`` /
        ``crash_node`` / ...) on the result."""
        if self.fault_plane is None:
            from ..sim.faults import FaultPlane

            self.fault_plane = FaultPlane(
                self.engine, seed=seed, telemetry=self.client.telemetry
            )
        return self.fault_plane

    def publish_telemetry(self) -> None:
        """End-of-run export of engine and packet-pool state into the
        node hubs, so sidecars carry ``sim.calendar.*`` and the
        ``datapath.pktbuf.*`` gauges alongside the packet counters."""
        self.engine.publish_telemetry(self.client.telemetry)
        for node in (self.client, self.server):
            if node.pktpool is not None:
                node.pktpool.publish_telemetry(node.telemetry)
            for nic in node.nics.values():
                nic.publish_telemetry(node.telemetry)
        if self.fault_plane is not None:
            self.fault_plane.publish_telemetry()


def make_an2_pair(
    cal: Calibration = DEFAULT,
    client_kernel_opts: Optional[dict] = None,
    server_kernel_opts: Optional[dict] = None,
    mem_size: int = 16 * 1024 * 1024,
    engine: Optional[Engine] = None,
    name_prefix: str = "",
    ncores: int = 1,
    rx_batch: Optional[int] = None,
) -> Testbed:
    """Two DECstations joined by the AN2 switch.

    Pass a shared ``engine`` (and a distinct ``name_prefix`` per pair)
    to place many independent pairs in one simulated world — the scale
    benchmark sweeps node count this way.
    """
    link = dict(rate_bytes_per_s=cal.an2_rate_bytes_per_s,
                latency_us=cal.an2_hw_oneway_us)
    return _make_pair(cal, An2Nic, "an2", link, client_kernel_opts,
                      server_kernel_opts, mem_size=mem_size, engine=engine,
                      name_prefix=name_prefix, ncores=ncores,
                      rx_batch=rx_batch)


def make_eth_pair(
    cal: Calibration = DEFAULT,
    client_kernel_opts: Optional[dict] = None,
    server_kernel_opts: Optional[dict] = None,
) -> Testbed:
    """Two DECstations on the 10 Mb/s Ethernet."""
    link = dict(rate_bytes_per_s=cal.eth_rate_bytes_per_s,
                latency_us=cal.eth_dma_latency_us,
                min_frame=cal.eth_min_frame)
    return _make_pair(cal, EthernetNic, "eth", link, client_kernel_opts,
                      server_kernel_opts, mem_size=16 * 1024 * 1024,
                      engine=None, name_prefix="", ncores=1, rx_batch=None)


def _make_pair(cal: Calibration, nic_cls, kind: str, link_kw: dict,
               client_kernel_opts: Optional[dict],
               server_kernel_opts: Optional[dict], *, mem_size: int,
               engine: Optional[Engine], name_prefix: str, ncores: int,
               rx_batch: Optional[int]) -> Testbed:
    """Two nodes, one ``nic_cls`` NIC each, joined by one link."""
    if engine is None:
        engine = Engine()
    client = Node(engine, f"{name_prefix}client", cal, mem_size=mem_size,
                  ncores=ncores, rx_batch=rx_batch)
    server = Node(engine, f"{name_prefix}server", cal, mem_size=mem_size,
                  ncores=ncores, rx_batch=rx_batch)
    client_nic = client.add_nic(nic_cls(engine, cal, client.memory, kind))
    server_nic = server.add_nic(nic_cls(engine, cal, server.memory, kind))
    link = Link(engine, name=f"{name_prefix}{kind}-link", **link_kw)
    client_nic.attach(link, 0)
    server_nic.attach(link, 1)
    Kernel(client, **(client_kernel_opts or {}))
    Kernel(server, **(server_kernel_opts or {}))
    return Testbed(engine, cal, client, server, link, client_nic, server_nic)
