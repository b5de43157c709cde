"""The interpreter path must not rot now that the JIT always runs first.

``Vm._interp`` is the JIT's deopt and translation-failure target.  The
heavyweight check re-runs the VM-centric test modules in a subprocess
under the ``tests.vm_reference`` plugin, which makes every translation
fail, so every pinned VM behavior is exercised through the reference
interpreter as well.
"""

import os
import subprocess
import sys

from repro.hw.memory import PhysicalMemory
from repro.vcode import jit
from repro.vcode.isa import Insn, assemble
from repro.vcode.vm import Vm

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the modules that pin VM semantics (and their sandbox interactions)
VM_MODULES = [
    "tests/test_vcode_vm.py",
    "tests/test_vm_ops_coverage.py",
    "tests/test_vcode_extensions.py",
    "tests/test_sandbox.py",
]


def _prog(name="probe"):
    return assemble(name, [Insn("li", rd=2, imm=9), Insn("ret")])


def _vm():
    return Vm(PhysicalMemory(1 << 12))


def test_jit_unsafe_program_falls_back_to_interp():
    prog = _prog()
    prog.jit_safe = False   # e.g. a previous translation failure
    assert _vm().run(prog).value == 9


def test_translation_failure_marks_program_unsafe(monkeypatch):
    def broken(*args, **kwargs):
        raise jit.JitError("untranslatable")

    monkeypatch.setattr(jit, "_translate", broken)
    prog = _prog("untranslatable")   # a name no other test has cached
    assert prog.jit_safe
    assert _vm().run(prog).value == 9
    assert not prog.jit_safe


def test_vm_suite_passes_under_interpreter():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "tests.vm_reference",
         *VM_MODULES],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"VM test modules fail under -p tests.vm_reference:\n"
        f"{proc.stdout[-4000:]}\n{proc.stderr[-2000:]}"
    )
