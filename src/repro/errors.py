"""Exception hierarchy for the ASH reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
applications can catch library failures with a single handler.  The
safety-critical conditions the paper describes (wild memory references,
budget exhaustion, illegal jumps) have dedicated subclasses because the
ASH runtime converts them into *involuntary aborts* rather than letting
them propagate into "kernel" state.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimError(ReproError):
    """Discrete-event simulation misuse (e.g. running a finished engine)."""


class CalibrationError(ReproError):
    """An impossible cost-model parameter (negative cycles, zero rate)."""


class VcodeError(ReproError):
    """Malformed VCODE: unknown opcode, bad operand, undefined label."""


class VmFault(ReproError):
    """Runtime fault inside the VCODE interpreter.

    These are the events the paper's safety machinery must catch: they
    terminate the handler with an involuntary abort instead of crashing
    the kernel.
    """


class MemoryFault(VmFault):
    """Load or store outside the memory the handler may touch."""


class JumpFault(VmFault):
    """Indirect jump to an address outside the handler's own code."""


class BudgetExceeded(VmFault):
    """The handler ran past its instruction/time budget."""


class ArithmeticFault(VmFault):
    """Divide by zero or other prevented arithmetic exception."""


class SandboxViolation(ReproError):
    """Download-time rejection: the code can not be made safe.

    Raised by the static verifier (e.g. floating-point instructions or
    signed-overflow arithmetic are present, which the paper disallows at
    download time).
    """


class AllocationError(ReproError):
    """An allocation refused under injected memory pressure.

    Raised (instead of :class:`MemoryError`, which remains the genuine
    out-of-physical-memory condition) when a
    :class:`~repro.sim.faults.MemPressure` injector forces ``mem.alloc``
    to fail.  Every allocating call site on the receive path catches it
    and degrades gracefully — the condition is recoverable by design.
    """

    def __init__(self, site: str, name: str = ""):
        super().__init__(
            f"allocation refused under memory pressure "
            f"(site={site!r}{', ' + name if name else ''})"
        )
        self.site = site


class DemuxError(ReproError):
    """Packet-filter or VCI demultiplexing failure."""


class ProtocolError(ReproError):
    """Malformed packet or protocol-state violation in :mod:`repro.net`."""


class ChecksumError(ProtocolError):
    """An Internet checksum failed verification."""


class SocketError(ProtocolError):
    """Misuse of the user-level socket veneer (not connected, closed...)."""
