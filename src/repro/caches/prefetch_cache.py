"""Prefetch caches that decouple I-cache fetch from trace construction.

Paper, §3.3.1: each of the four prefetch caches holds 256 instructions,
is fully associative, and is allowed to *fill up* — lines are never
replaced; when the cache is full, preconstruction for its associated
region terminates.  This is one of the two resource bounds on a
region's preconstruction effort (the other is preconstruction-buffer
availability).
"""

from __future__ import annotations

from repro.isa import INSTRUCTION_BYTES


class PrefetchCache:
    """A fill-up instruction store for one preconstruction region."""

    def __init__(self, capacity_instructions: int = 256,
                 line_bytes: int = 64) -> None:
        if capacity_instructions <= 0:
            raise ValueError("capacity must be positive")
        line_instructions = line_bytes // INSTRUCTION_BYTES
        if capacity_instructions % line_instructions:
            raise ValueError("capacity must be a whole number of lines")
        self.capacity_lines = capacity_instructions // line_instructions
        self.line_bytes = line_bytes
        #: Line numbers (``pc // line_bytes``) of the resident lines; the
        #: preconstruction engine probes it directly once per step.
        self.lines: set[int] = set()

    # ------------------------------------------------------------------
    def contains(self, pc: int) -> bool:
        return pc // self.line_bytes in self.lines

    @property
    def full(self) -> bool:
        return len(self.lines) >= self.capacity_lines

    @property
    def occupancy_lines(self) -> int:
        return len(self.lines)

    # ------------------------------------------------------------------
    def add_line(self, pc: int) -> bool:
        """Record the line containing ``pc``.

        Returns ``False`` when the cache is already full and the line is
        absent — the signal that the region has hit its fetch bound.
        Adding an already-present line always succeeds (no growth).
        """
        line = pc // self.line_bytes
        lines = self.lines
        if line in lines:
            return True
        if len(lines) >= self.capacity_lines:
            return False
        lines.add(line)
        return True

    def reset(self) -> None:
        """Empty the cache for reuse by a new region."""
        self.lines.clear()
