"""The VCODE instruction set: a portable RISC the handlers are written in.

The paper writes pipes (and, conceptually, handlers) in VCODE — "a set
of C macros that provide a low-level extension language for dynamic code
generation ... the interface is that of an extended RISC machine:
instructions are low-level register-to-register operations."  We model
that machine directly: 32 registers, MIPS-flavoured three-operand
unsigned arithmetic, load/store with displacement, branches, an
indirect jump, trusted kernel calls, and the paper's networking
extensions (``cksum32``, byteswaps).

Signed arithmetic and floating point exist in the ISA *so the verifier
has something to reject*: the paper prevents overflow exceptions "by
converting all signed arithmetic instructions to unsigned ones" and
prevents FP use at download time.

Code addresses are instruction indices.  A :class:`Program` is a list of
:class:`Insn` plus a resolved label map; branches hold the label name
and, after :func:`assemble`, the resolved target index in ``target``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from ..errors import VcodeError
from ..hw.calibration import Calibration

__all__ = [
    "Insn",
    "Program",
    "assemble",
    "OPCODES",
    "ALU_OPS",
    "LOAD_OPS",
    "STORE_OPS",
    "BRANCH_OPS",
    "FORBIDDEN_OPS",
    "CHECK_OPS",
    "REG_ZERO",
    "REG_V0",
    "REG_A0",
    "REG_A1",
    "REG_A2",
    "REG_A3",
    "REG_SP",
    "NUM_REGS",
    "insn_cost",
]

# -- register conventions (MIPS o32-flavoured) -----------------------------
NUM_REGS = 32
REG_ZERO = 0          #: hardwired zero
REG_V0 = 2            #: return value
REG_A0, REG_A1, REG_A2, REG_A3 = 4, 5, 6, 7   #: arguments
TEMP_REGS = tuple(range(8, 16))               #: t0-t7: scratch
PERSISTENT_REGS = tuple(range(16, 24))        #: s0-s7: preserved
REG_SP = 29           #: stack pointer (user-level stack for the handler)

# -- opcode groups -----------------------------------------------------------
ALU_OPS = {
    # rd, rs, rt
    "addu", "subu", "multu", "and", "or", "xor", "nor", "sltu",
    "sllv", "srlv",
}
ALU_IMM_OPS = {
    # rd, rs, imm
    "addiu", "andi", "ori", "xori", "sltiu", "sll", "srl",
}
LOAD_OPS = {"ld8", "ld16", "ld32"}     # rd, rs(base), imm(offset)
STORE_OPS = {"st8", "st16", "st32"}    # rt(value), rs(base), imm(offset)
BRANCH_OPS = {"beq", "bne", "bltu", "bgeu"}  # rs, rt, label
JUMP_OPS = {"j"}                       # label
INDIRECT_OPS = {"jr"}                  # rs
CALL_OPS = {"call"}                    # name (trusted kernel entry point)
MISC_OPS = {"li", "nop", "ret", "divu"}
EXT_OPS = {"cksum32", "bswap32", "bswap16"}  # networking extensions
#: sandbox-inserted checks: rs(base), imm(offset), size/aux
CHECK_OPS = {"chkld", "chkst", "chkjmp", "chkbudget"}
#: present in the ISA, rejected by the verifier, refused by the VM
FORBIDDEN_OPS = {"add", "sub", "div", "mult", "fadd", "fmul", "fdiv", "fcvt"}

OPCODES = (
    ALU_OPS | ALU_IMM_OPS | LOAD_OPS | STORE_OPS | BRANCH_OPS | JUMP_OPS
    | INDIRECT_OPS | CALL_OPS | MISC_OPS | EXT_OPS | CHECK_OPS | FORBIDDEN_OPS
)

MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class Insn:
    """One instruction.  Unused fields stay None."""

    op: str
    rd: Optional[int] = None
    rs: Optional[int] = None
    rt: Optional[int] = None
    imm: Optional[int] = None
    label: Optional[str] = None     #: symbolic branch target / call name
    target: Optional[int] = None    #: resolved instruction index

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise VcodeError(f"unknown opcode {self.op!r}")
        for reg in (self.rd, self.rs, self.rt):
            if reg is not None and not 0 <= reg < NUM_REGS:
                raise VcodeError(f"{self.op}: register r{reg} out of range")

    def pretty(self) -> str:
        parts = [self.op]
        regs = [f"r{r}" for r in (self.rd, self.rs, self.rt) if r is not None]
        parts.extend(regs)
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.label is not None:
            parts.append(self.label)
        return " ".join(parts)


@dataclass
class Program:
    """Assembled code: instructions + resolved labels + metadata."""

    name: str
    insns: list[Insn]
    labels: dict[str, int] = field(default_factory=dict)
    #: persistent registers the code relies on surviving between runs
    persistent_regs: tuple[int, ...] = ()
    sandboxed: bool = False
    #: pre-sandbox label address -> post-sandbox address; installed by the
    #: rewriter so ``chkjmp`` can translate indirect-jump targets ("if they
    #: are to code named by the pre-sandboxed address then they are
    #: translated and allowed to proceed").
    jump_map: Optional[dict[int, int]] = None
    #: cleared when JIT translation fails, so the VM stops retrying and
    #: runs the program on the reference interpreter from then on
    jit_safe: bool = True

    def __len__(self) -> int:
        return len(self.insns)

    @cached_property
    def forbidden_pcs(self) -> tuple[int, ...]:
        """Indices of forbidden (signed/FP) instructions, scanned once.

        The interpreter and the JIT share this gate: the interpreter
        skips its per-instruction forbidden check when the scan comes
        back empty, and the JIT emits inline traps only at these pcs.
        Valid because a Program's instruction list is fixed after
        :func:`assemble`.
        """
        return tuple(
            pc for pc, insn in enumerate(self.insns)
            if insn.op in FORBIDDEN_OPS
        )

    def disassemble(self) -> str:
        index_to_labels: dict[int, list[str]] = {}
        for label, idx in self.labels.items():
            index_to_labels.setdefault(idx, []).append(label)
        lines = []
        for i, insn in enumerate(self.insns):
            for label in index_to_labels.get(i, []):
                lines.append(f"{label}:")
            lines.append(f"  {i:4d}  {insn.pretty()}")
        return "\n".join(lines)


def assemble(name: str, items: list, persistent_regs: tuple[int, ...] = ()) -> Program:
    """Resolve labels in a mixed list of Insn and ``("label", name)`` marks.

    Labels may appear at the very end of the program (a branch there
    falls off the end, i.e. returns).
    """
    labels: dict[str, int] = {}
    insns: list[Insn] = []
    for item in items:
        if isinstance(item, tuple) and len(item) == 2 and item[0] == "label":
            label = item[1]
            if label in labels:
                raise VcodeError(f"{name}: duplicate label {label!r}")
            labels[label] = len(insns)
        elif isinstance(item, Insn):
            insns.append(item)
        else:
            raise VcodeError(f"{name}: bad program item {item!r}")
    resolved: list[Insn] = []
    for insn in insns:
        if insn.op in BRANCH_OPS or insn.op in JUMP_OPS:
            if insn.label not in labels:
                raise VcodeError(f"{name}: undefined label {insn.label!r}")
            resolved.append(replace(insn, target=labels[insn.label]))
        else:
            resolved.append(insn)
    return Program(name=name, insns=resolved, labels=labels,
                   persistent_regs=tuple(persistent_regs))


def insn_cost(insn: Insn, cal: Calibration) -> int:
    """Base cycle cost of an instruction (before cache stalls).

    Single-cycle RISC baseline; multi-cycle operations follow the R3000:
    ``multu`` ~12 cycles, ``divu`` ~35 cycles.  The networking
    extensions take the costs Section II-B implies (checksum uses the
    add-with-carry idiom; MIPS has no byte-swap instruction so a swap is
    a shift/mask sequence).  Sandbox checks cost what the calibration
    says a software check costs.
    """
    op = insn.op
    if op == "cksum32":
        return cal.cksum32_cycles
    if op == "bswap32":
        return cal.bswap32_cycles
    if op == "bswap16":
        return cal.bswap16_cycles
    if op in ("chkld", "chkst"):
        return cal.sandbox_check_cycles
    if op == "chkjmp":
        return cal.sandbox_jump_check_cycles
    if op == "chkbudget":
        return cal.sandbox_check_cycles
    if op == "multu":
        return 12
    if op == "divu":
        return 35
    return cal.insn_cycles
