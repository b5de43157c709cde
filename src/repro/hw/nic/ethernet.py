"""10 Mb/s Ethernet interface with a striping DMA engine.

Two properties from the paper shape this model:

* Receive buffers are a **limited, device-owned ring** ("the network
  buffers available to the device to receive into are limited, and
  therefore a message must not stay in them very long.  In this case,
  at least one copy is always necessary", Section V-A1).  Software must
  copy the frame out and return the buffer.
* The DMA engine **stripes**: "our Ethernet DMA engine stripes an
  N-byte contiguous packet into a 2N-byte buffer, alternating 16 bytes
  of data and 16 bytes of padding" (Section III-C).  The DILP back end
  must therefore emit a different copy loop for this interface.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..link import Frame
from .base import Nic, RxDescriptor

__all__ = ["EthernetNic", "STRIPE_CHUNK", "stripe_offset", "striped_size"]

#: Bytes of data per stripe (followed by the same amount of padding).
STRIPE_CHUNK = 16


def stripe_offset(i: int) -> int:
    """Buffer offset of payload byte ``i`` under the striping DMA layout."""
    return (i // STRIPE_CHUNK) * (2 * STRIPE_CHUNK) + (i % STRIPE_CHUNK)


def striped_size(nbytes: int) -> int:
    """Buffer space consumed by an ``nbytes`` payload when striped."""
    if nbytes == 0:
        return 0
    return stripe_offset(nbytes - 1) + 1


class EthernetNic(Nic):
    medium = "ethernet"

    #: ring depth: LANCE-class controllers had a handful of buffers
    ring_slots = 8

    def __init__(self, engine, cal, memory, name: str = "eth"):
        super().__init__(engine, cal, memory, name)
        ring_slots = self.ring_slots
        # Each slot must hold a striped MTU frame: 2x the payload bytes.
        slot_size = 2 * cal.eth_mtu + 2 * STRIPE_CHUNK
        self._slot_size = slot_size
        ring = memory.alloc(f"{name}.rxring", slot_size * ring_slots)
        self._free_slots: deque[int] = deque(
            ring.base + i * slot_size for i in range(ring_slots)
        )

    # -- ring management -------------------------------------------------------
    def return_slot(self, addr: int) -> None:
        """Software gives a receive-ring buffer back to the device."""
        self._free_slots.append(addr)

    @property
    def free_slot_count(self) -> int:
        return len(self._free_slots)

    # -- DMA ----------------------------------------------------------------
    def _dma(self, frame: Frame) -> Optional[RxDescriptor]:
        if len(frame.data) > self.cal.eth_mtu + 18:  # payload + 14B hdr + FCS
            self._drop_reason = "oversize"
            return None
        if not self._free_slots:
            self._drop_reason = "ring_exhausted"
            return None
        base = self._free_slots.popleft()
        data = frame.data
        # Stripe: 16 bytes of data, 16 bytes of padding, repeated.
        for start in range(0, len(data), STRIPE_CHUNK):
            chunk = data[start:start + STRIPE_CHUNK]
            self.memory.write(base + stripe_offset(start), chunk)
        return RxDescriptor(
            nic=self,
            frame=frame,
            addr=base,
            length=len(data),
            vci=None,
            striped=True,
            dma_span=striped_size(len(data)),
        )
