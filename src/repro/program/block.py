"""Basic blocks and their terminators (pre-layout program form).

The workload generator and the assembler-level tests build programs as
control-flow graphs of :class:`BasicBlock` objects.  Inside a block,
straight-line *body* items are either concrete :class:`Instruction`
objects or :class:`Call` markers (direct calls whose absolute target is
known only after layout).  Each block ends with exactly one
:class:`Terminator` describing how control leaves the block.

Label namespace: every block has a globally unique label of the form
``"<procedure>:<block>"``; procedure entry labels are just
``"<procedure>"``.  The layout pass (:mod:`repro.program.layout`)
resolves all labels to byte addresses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.isa import Instruction, Opcode


@dataclass(frozen=True)
class Call:
    """A direct procedure call (``JAL``) whose target is a label."""

    target_label: str


#: Straight-line body item: a concrete instruction or a call marker.
BodyItem = Union[Instruction, Call]


class TermKind(enum.Enum):
    """How control leaves a basic block."""

    FALLTHROUGH = "fallthrough"      # no control instruction emitted
    BRANCH = "branch"                # conditional, taken label + fallthrough
    JUMP = "jump"                    # unconditional J to a label
    RETURN = "return"                # JR ra
    INDIRECT_JUMP = "indirect_jump"  # JR reg (e.g. switch dispatch)
    HALT = "halt"


@dataclass
class Terminator:
    """Block terminator description.

    ``branch_op``/``rs1``/``rs2`` apply to :data:`TermKind.BRANCH`;
    ``reg`` applies to :data:`TermKind.INDIRECT_JUMP`.  ``targets``
    holds possible successor labels: for a branch, ``targets[0]`` is the
    taken label and ``targets[1]`` the fallthrough label; for an
    indirect jump it lists every table entry (for CFG analysis only —
    the emitted instruction carries no target).
    """

    kind: TermKind
    targets: tuple[str, ...] = ()
    branch_op: Optional[Opcode] = None
    rs1: int = 0
    rs2: int = 0
    reg: int = 0

    def __post_init__(self) -> None:
        if self.kind is TermKind.BRANCH:
            if self.branch_op is None or len(self.targets) != 2:
                raise ValueError(
                    "branch terminator needs branch_op and (taken, fallthrough)")
        elif self.kind is TermKind.JUMP:
            if len(self.targets) != 1:
                raise ValueError("jump terminator needs exactly one target")
        elif self.kind is TermKind.FALLTHROUGH:
            if len(self.targets) != 1:
                raise ValueError("fallthrough terminator needs its successor")


@dataclass
class BasicBlock:
    """A basic block: label, straight-line body, one terminator."""

    label: str
    body: list[BodyItem] = field(default_factory=list)
    terminator: Terminator = field(
        default_factory=lambda: Terminator(TermKind.HALT))

    @property
    def successor_labels(self) -> tuple[str, ...]:
        """Labels of possible intra-procedure successors."""
        return self.terminator.targets
