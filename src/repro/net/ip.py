"""IPv4: encapsulation, validation, fragmentation and reassembly.

The library layer between the raw interface and UDP/TCP.  Send-side
fragmentation splits datagrams at the interface MTU; the reassembler
collects fragments keyed by (source, ident, protocol) as RFC 791
specifies.  The paper's benchmarks never fragment (MSS is chosen below
the MTU) but the library, like the paper's, is a complete IP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ProtocolError
from .headers import Ipv4Header

__all__ = ["build_packets", "Reassembler"]


def build_packets(
    src: int,
    dst: int,
    proto: int,
    payload: bytes,
    mtu: int,
    ident: int = 0,
) -> list[bytes]:
    """Encapsulate ``payload``; fragments if it exceeds the MTU.

    Returns full IP packets (header + payload slice).  Fragment payload
    sizes are multiples of 8 bytes, per RFC 791.
    """
    max_payload = mtu - Ipv4Header.SIZE
    if max_payload <= 0:
        raise ProtocolError(f"MTU {mtu} too small for an IPv4 header")
    if len(payload) <= max_payload:
        header = Ipv4Header(
            src=src, dst=dst, proto=proto,
            total_length=Ipv4Header.SIZE + len(payload),
            ident=ident,
        )
        return [header.pack() + payload]

    frag_unit = (max_payload // 8) * 8
    if frag_unit <= 0:
        raise ProtocolError(f"MTU {mtu} cannot carry any fragment data")
    packets = []
    offset = 0
    while offset < len(payload):
        chunk = payload[offset:offset + frag_unit]
        last = offset + len(chunk) >= len(payload)
        header = Ipv4Header(
            src=src, dst=dst, proto=proto,
            total_length=Ipv4Header.SIZE + len(chunk),
            ident=ident,
            flags=0 if last else Ipv4Header.MF,
            frag_offset=offset // 8,
        )
        packets.append(header.pack() + chunk)
        offset += len(chunk)
    return packets


@dataclass
class _Partial:
    chunks: dict[int, bytes] = field(default_factory=dict)  #: offset -> data
    total: Optional[int] = None   #: full payload size, once the last arrives

    def add(self, header: Ipv4Header, data: bytes) -> Optional[bytes]:
        offset = header.frag_offset * 8
        # always copy: a zero-copy view would alias a receive buffer
        # that gets recycled long before the datagram completes
        self.chunks[offset] = bytes(data)
        if not header.more_fragments:
            self.total = offset + len(data)
        if self.total is None:
            return None
        have = sorted(self.chunks.items())
        pos = 0
        out = bytearray()
        for off, chunk in have:
            if off != pos:
                return None  # hole
            out += chunk
            pos = off + len(chunk)
        if pos != self.total:
            return None
        return bytes(out)


class Reassembler:
    """Fragment reassembly, keyed (src, ident, proto)."""

    def __init__(self) -> None:
        self._partials: dict[tuple[int, int, int], _Partial] = {}

    def push(self, packet: bytes) -> Optional[tuple[Ipv4Header, bytes]]:
        """Feed one IP packet; returns (header, full payload) when a
        datagram completes (immediately, for unfragmented packets)."""
        header = Ipv4Header.unpack(packet)
        data = packet[Ipv4Header.SIZE:header.total_length]
        if len(data) != header.total_length - Ipv4Header.SIZE:
            raise ProtocolError("IPv4 packet shorter than its total_length")
        if not header.more_fragments and header.frag_offset == 0:
            return header, data
        key = (header.src, header.ident, header.proto)
        partial = self._partials.setdefault(key, _Partial())
        full = partial.add(header, data)
        if full is None:
            return None
        del self._partials[key]
        return header, full

    @property
    def pending(self) -> int:
        return len(self._partials)
