"""Control-flow graphs and procedures (pre-layout program form)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.program.block import BasicBlock


@dataclass
class ControlFlowGraph:
    """Blocks of one procedure, in intended layout order.

    The first block is the procedure entry.  Layout places blocks in
    list order, so a FALLTHROUGH terminator whose successor is the next
    block in the list costs zero instructions (otherwise a ``J`` is
    inserted).
    """

    blocks: list[BasicBlock] = field(default_factory=list)

    def add(self, block: BasicBlock) -> BasicBlock:
        if any(b.label == block.label for b in self.blocks):
            raise ValueError(f"duplicate block label: {block.label!r}")
        self.blocks.append(block)
        return block

    def block(self, label: str) -> BasicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError("empty CFG")
        return self.blocks[0]

    def edges(self) -> Iterator[tuple[str, str]]:
        """Yield (source_label, successor_label) pairs."""
        for block in self.blocks:
            for succ in block.successor_labels:
                yield block.label, succ

    def labels(self) -> set[str]:
        return {b.label for b in self.blocks}

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on problems."""
        labels = self.labels()
        for block in self.blocks:
            for succ in block.successor_labels:
                # Successors may be intra-procedure labels only; calls are
                # body items, so every terminator target must be local.
                if succ not in labels:
                    raise ValueError(
                        f"block {block.label!r} targets unknown label {succ!r}")


@dataclass
class Procedure:
    """A named procedure: a CFG whose entry label equals the name."""

    name: str
    cfg: ControlFlowGraph

    def __post_init__(self) -> None:
        if self.cfg.blocks and self.cfg.entry.label != self.name:
            raise ValueError(
                f"entry block label {self.cfg.entry.label!r} must equal "
                f"procedure name {self.name!r}")
