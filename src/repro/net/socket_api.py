"""Socket-style veneer and session builders for the two-node testbed.

The protocol libraries expose the paper's experiment knobs directly;
applications (the examples, HTTP, NFS) prefer a plainer read/write
interface, which ``TcpSocket`` gives a connection.  This module also
owns the testbed's addressing: :func:`make_stacks` builds the
client/server :class:`NetStack` pair on either fabric (per-flow virtual
circuits on the AN2, fixed MACs on the Ethernet) and :func:`tcp_pair`
builds a matched connection pair over them; the paper workloads and
the multi-flow benches build their sessions with these two.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from ..bench.testbed import Testbed
from .stack import NetStack
from .tcp import TcpConnection

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process

__all__ = ["TcpSocket", "flow_vcis", "make_stacks", "tcp_pair"]


class TcpSocket:
    """Stream socket semantics over a :class:`TcpConnection`."""

    def __init__(self, conn: TcpConnection):
        self.conn = conn

    def connect(self, proc: "Process") -> Generator:
        yield from self.conn.connect(proc)

    def accept(self, proc: "Process") -> Generator:
        yield from self.conn.accept(proc)

    def sendall(self, proc: "Process", data: bytes) -> Generator:
        yield from self.conn.write(proc, data)

    def recv_exact(self, proc: "Process", n: int) -> Generator:
        data = yield from self.conn.read(proc, n)
        return data

    def recv_line(self, proc: "Process", max_len: int = 4096) -> Generator:
        r"""Read up to and including a ``\r\n`` (or ``\n``) terminator."""
        line = bytearray()
        while len(line) < max_len:
            ch = yield from self.conn.read(proc, 1)
            if not ch:
                break
            line += ch
            if line.endswith(b"\n"):
                break
        return bytes(line)

    def close(self, proc: "Process") -> Generator:
        yield from self.conn.close(proc)


def flow_vcis(flow: int) -> tuple[int, int]:
    """The AN2 circuits of flow ``flow``: (client->server, server->client).
    Flow 0 uses the testbed's conventional circuits 1 and 2."""
    return 2 * flow + 1, 2 * flow + 2


def make_stacks(tb: Testbed, client_ip: str = "10.0.0.1",
                server_ip: str = "10.0.0.2",
                flow: int = 0) -> tuple[NetStack, NetStack]:
    """The (client, server) stacks of a testbed, on either fabric.

    Each stack gets the testbed's MAC and a peer map holding the AN2
    circuits of ``flow`` (:func:`flow_vcis`); a :class:`NetStack` uses
    the one its NIC needs.  So the Ethernet pair demultiplexes through
    DPF filters and ignores ``flow``.
    """
    c2s, s2c = flow_vcis(flow)
    return (NetStack(tb.client_kernel, tb.client_nic, client_ip,
                     mac=b"\x02\x00\x00\x00\x00\x01",
                     an2_peers={server_ip: (c2s, s2c)}),
            NetStack(tb.server_kernel, tb.server_nic, server_ip,
                     mac=b"\x02\x00\x00\x00\x00\x02",
                     an2_peers={client_ip: (s2c, c2s)}))


def tcp_pair(
    cstack: NetStack,
    sstack: NetStack,
    server_port: int = 80,
    client_port: int = 5000,
    **conn_kwargs,
) -> tuple[TcpConnection, TcpConnection]:
    """A matched (client, server) connection pair over two stacks from
    :func:`make_stacks`; on the AN2 each side receives on the circuit
    its peer map names."""
    client = TcpConnection(
        cstack, client_port, sstack.ip, server_port,
        rx_vci=_rx_vci(cstack, sstack), iss=1000,
        name=f"c{client_port}", **conn_kwargs,
    )
    server = TcpConnection(
        sstack, server_port, cstack.ip, client_port,
        rx_vci=_rx_vci(sstack, cstack), iss=7000,
        name=f"s{server_port}", **conn_kwargs,
    )
    return client, server


def _rx_vci(stack: NetStack, peer: NetStack) -> Optional[int]:
    """The circuit ``peer`` reaches ``stack`` on (None on the Ethernet)."""
    return stack.rx_vci(peer.ip) if stack.is_an2 else None
