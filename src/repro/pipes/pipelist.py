"""Pipe lists: the unit of dynamic ILP composition.

The paper's Fig. 1 composes pipes inside a *pipe list* (``pl =
pipel(2)``), then compiles the list into one integrated transfer
function.  The pipe list also owns the paper's persistent-register
export/import interface: "*Export* is used to initialize a register
before use, and *import* to obtain a register's value (e.g., to
determine if a checksum succeeded)."

State values are plain 32-bit integers here; when a compiled pipeline
runs they are loaded into persistent VCODE registers (or threaded
through the vectorized kernels) and written back afterwards.
"""

from __future__ import annotations

from ..errors import VcodeError
from .pipe import Pipe

__all__ = ["PipeList", "pipel"]


class PipeList:
    """An ordered collection of pipes plus their persistent state."""

    def __init__(self, expected: int = 0, name: str = "pl"):
        self.name = name
        self.expected = expected
        self.pipes: list[Pipe] = []
        #: state values keyed by (pipe_id, var name)
        self.state: dict[tuple[int, str], int] = {}

    def add(self, pipe: Pipe) -> int:
        """Register ``pipe``; returns its pipe identifier."""
        pipe_id = len(self.pipes)
        pipe.pipe_id = pipe_id
        self.pipes.append(pipe)
        for var in pipe.state_vars:
            self.state[(pipe_id, var)] = 0
        return pipe_id

    def __len__(self) -> int:
        return len(self.pipes)

    def __iter__(self):
        return iter(self.pipes)

    def pipe(self, pipe_id: int) -> Pipe:
        try:
            return self.pipes[pipe_id]
        except IndexError:
            raise VcodeError(f"{self.name}: no pipe with id {pipe_id}") from None

    # -- persistent register interface ----------------------------------
    def export(self, pipe_id: int, var: str, value: int) -> None:
        """Initialize a pipe's persistent value before a transfer."""
        key = (pipe_id, var)
        if key not in self.state:
            raise VcodeError(
                f"{self.name}: pipe {pipe_id} has no state var {var!r}"
            )
        self.state[key] = value & 0xFFFFFFFF

    def import_(self, pipe_id: int, var: str) -> int:
        """Read back a pipe's persistent value after a transfer."""
        key = (pipe_id, var)
        if key not in self.state:
            raise VcodeError(
                f"{self.name}: pipe {pipe_id} has no state var {var!r}"
            )
        return self.state[key]


def pipel(expected: int = 0, name: str = "pl") -> PipeList:
    """Create a pipe list (the paper's ``pipel(n)`` constructor)."""
    return PipeList(expected, name)
