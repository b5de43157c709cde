"""Active messages over ASHs.

Section V-C: "the parallel community has spawned a new paradigm of
programming built around the concept of active messages: an efficient,
unprotected transfer of control to the application in the interrupt
handler ...  our work can be viewed as an extension of active messages
to a general purpose environment that preserves small latencies while
also providing protection."

:class:`ActiveMessageLayer` packages that extension: the application
registers small VCODE *handler fragments*; the layer compiles them into
one dispatcher ASH whose prologue bounds-checks the handler index and
jumps through a **jump table** — an indirect ``jr`` whose targets the
sandboxer guards and relocates (Section III-B2's "if they are to code
named by the pre-sandboxed address then they are translated and allowed
to proceed").

Wire format of an active message::

    [handler_index u32][arg0 u32][arg1 u32][payload ...]

Fragment convention: on entry ``A0`` = message address, ``A1`` = length,
``A2`` = the layer's context word; the fragment reads its arguments from
the message and ends with ``v_consume()`` or ``v_pass()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional, TYPE_CHECKING

from ..errors import VcodeError
from ..hw.link import Frame
from ..sandbox.rewriter import SandboxPolicy
from .handler import AshBuilder

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.nic.base import Nic
    from ..kernel.kernel import Endpoint, Kernel
    from ..kernel.process import Process

__all__ = ["ActiveMessageLayer", "am_message", "AM_HEADER"]

#: bytes before the payload: index + two argument words
AM_HEADER = 12

#: a fragment emitter: fn(builder) -> None; must end with consume/pass
FragmentFn = Callable[[AshBuilder], None]


def am_message(index: int, arg0: int = 0, arg1: int = 0,
               payload: bytes = b"") -> bytes:
    """Construct an active message."""
    return (
        index.to_bytes(4, "little")
        + (arg0 & 0xFFFFFFFF).to_bytes(4, "little")
        + (arg1 & 0xFFFFFFFF).to_bytes(4, "little")
        + payload
    )


@dataclass
class _Fragment:
    name: str
    emit: FragmentFn
    label: str


class ActiveMessageLayer:
    """A handler table compiled into one dispatcher ASH."""

    #: handler table capacity
    max_handlers = 16

    def __init__(self, kernel: "Kernel", ep: "Endpoint",
                 context_word: int = 0):
        self.kernel = kernel
        self.ep = ep
        self.context_word = context_word
        self._fragments: list[_Fragment] = []
        self._table_region = kernel.node.memory.alloc(
            f"{ep.name}.amtable", 4 * self.max_handlers
        )
        self.ash_id: Optional[int] = None

    # -- registration ------------------------------------------------------
    def register(self, name: str, emit: FragmentFn) -> int:
        """Add a handler fragment; returns its active-message index."""
        if self.ash_id is not None:
            raise VcodeError("active-message table already finalized")
        if len(self._fragments) >= self.max_handlers:
            raise VcodeError("active-message table full")
        index = len(self._fragments)
        self._fragments.append(_Fragment(name, emit, f"am_{index}_{name}"))
        return index

    # -- compilation --------------------------------------------------------
    def finalize(
        self,
        allowed_regions: list[tuple[int, int]],
        sandbox: bool = True,
        policy: Optional[SandboxPolicy] = None,
    ) -> int:
        """Build, download and bind the dispatcher; returns the ash id.

        The jump table (pre-sandbox label addresses) lives in
        application memory; the dispatcher loads the target and takes an
        indirect jump, which the sandboxer wraps in ``chkjmp``.
        """
        if not self._fragments:
            raise VcodeError("no handler fragments registered")
        b = AshBuilder("am_dispatch")
        bad = b.label("bad_index")

        idx = b.getreg()
        b.v_ld32(idx, b.MSG, 0)                 # handler index
        bound = b.getreg()
        b.v_li(bound, len(self._fragments))
        b.v_bgeu(idx, bound, bad)               # bounds check
        target = b.getreg()
        b.v_sll(target, idx, 2)                 # table is u32-indexed
        table = b.getreg()
        b.v_li(table, self._table_region.base)
        b.v_addu(target, target, table)
        b.v_ld32(target, target, 0)             # pre-sandbox address
        b.v_jr(target)                          # chkjmp translates this
        # the prologue's registers are dead past the jump: free them so
        # fragments have the full temporary class to themselves
        for reg in (idx, bound, target, table):
            b.putreg(reg)

        for fragment in self._fragments:
            b.mark(fragment.label)
            before = set(b.regs.allocated)
            fragment.emit(b)
            # fragments are disjoint code paths: registers one allocated
            # are dead in the others, so recycle them
            for reg in set(b.regs.allocated) - before:
                b.putreg(reg)

        b.mark(bad)
        b.v_pass()
        program = b.finish()

        # fill the table with the fragments' pre-sandbox addresses
        mem = self.kernel.node.memory
        for i, fragment in enumerate(self._fragments):
            mem.store_u32(
                self._table_region.base + 4 * i,
                program.labels[fragment.label],
            )

        allowed = list(allowed_regions) + [
            (self._table_region.base, self._table_region.size)
        ]
        self.ash_id = self.kernel.ash_system.download(
            program, allowed, user_word=self.context_word,
            sandbox=sandbox, policy=policy,
        )
        self.kernel.ash_system.bind(self.ep, self.ash_id)
        return self.ash_id

    # -- sending ------------------------------------------------------------
    @staticmethod
    def send(proc: "Process", kernel: "Kernel", nic: "Nic", vci: int,
             index: int, arg0: int = 0, arg1: int = 0,
             payload: bytes = b"") -> Generator:
        """Send an active message from a user process."""
        yield from kernel.sys_net_send(
            proc, nic, Frame(am_message(index, arg0, arg1, payload), vci=vci)
        )

    @property
    def stats(self):
        if self.ash_id is None:
            return None
        return self.kernel.ash_system.entry(self.ash_id)
