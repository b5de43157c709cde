"""Download-time static verification of handler code.

Section III-B1: "At download time, we prevent the usage of
floating-point instructions" and signed arithmetic "may be disallowed
(as is currently done, because the C compiler that we use never
generates any signed arithmetic instructions)".  The verifier is the
first stage of ASH import: it rejects code that cannot be made safe at
all; the rewriter then handles what can be checked dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SandboxViolation
from ..vcode.isa import BRANCH_OPS, FORBIDDEN_OPS, JUMP_OPS, Program

__all__ = ["VerifyReport", "verify", "has_loops"]

#: signed integer arithmetic that *can* be converted to unsigned
CONVERTIBLE_OPS = {"add": "addu", "sub": "subu", "mult": "multu", "div": "divu"}
FLOAT_OPS = {"fadd", "fmul", "fdiv", "fcvt"}

#: a handler larger than this is rejected outright (no legitimate
#: handler approaches it; it bounds verification work)
MAX_PROGRAM_LEN = 16384


@dataclass
class VerifyReport:
    """What the verifier found (on success)."""

    program_len: int
    load_count: int = 0
    store_count: int = 0
    indirect_jump_count: int = 0
    call_names: list[str] = field(default_factory=list)
    backward_branch_pcs: list[int] = field(default_factory=list)

    @property
    def loop_free(self) -> bool:
        return not self.backward_branch_pcs


def has_loops(program: Program) -> bool:
    """True if any branch/jump targets an earlier (or same) instruction."""
    for pc, insn in enumerate(program.insns):
        if insn.op in BRANCH_OPS or insn.op in JUMP_OPS:
            if insn.target is not None and insn.target <= pc:
                return True
        if insn.op == "jr":
            return True  # an indirect jump may go backwards
    return False


def verify(program: Program, allow_convertible_signed: bool = True) -> VerifyReport:
    """Statically check ``program``; raises :class:`SandboxViolation`.

    Floating point is always fatal.  Signed integer arithmetic is fatal
    unless ``allow_convertible_signed`` (the rewriter will convert it to
    the unsigned form, which cannot raise overflow exceptions).
    """
    if len(program) > MAX_PROGRAM_LEN:
        raise SandboxViolation(
            f"{program.name}: {len(program)} instructions exceeds the "
            f"{MAX_PROGRAM_LEN}-instruction download limit"
        )
    report = VerifyReport(program_len=len(program))
    for pc, insn in enumerate(program.insns):
        op = insn.op
        if op in FLOAT_OPS:
            raise SandboxViolation(
                f"{program.name}: floating-point instruction {op!r} at "
                f"pc={pc} (ASHs are denied FP hardware)"
            )
        if op in FORBIDDEN_OPS:
            if not (allow_convertible_signed and op in CONVERTIBLE_OPS):
                raise SandboxViolation(
                    f"{program.name}: signed arithmetic {op!r} at pc={pc} "
                    f"can raise overflow exceptions"
                )
        if op.startswith("ld"):
            report.load_count += 1
        elif op.startswith("st"):
            report.store_count += 1
        elif op == "jr":
            report.indirect_jump_count += 1
        elif op == "call":
            report.call_names.append(insn.label)
        if (op in BRANCH_OPS or op in JUMP_OPS) and insn.target is not None:
            if insn.target <= pc:
                report.backward_branch_pcs.append(pc)
    return report
