"""The committed instruction stream.

The functional engine's output is one :class:`Stream`: parallel arrays
with one slot per executed instruction, held for the whole run by the
runner's stream cache (DESIGN §20).  The arrays carry everything
downstream consumers need: the trace-selection FSM reads (pc, inst,
taken, next_pc); the processor's data-cache model replays the memory
addresses; the check oracles scan the pcs.

:class:`StreamRecord` is the per-instruction value type, built only on
demand — by indexing or iterating a :class:`Stream`, and by
:meth:`FunctionalEngine.step
<repro.engine.functional.FunctionalEngine.step>` for incremental
callers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from operator import index as as_index
from typing import Iterable, Iterator, Union, overload

from repro.isa import Instruction


@dataclass(frozen=True, slots=True)
class StreamRecord:
    """One dynamic instruction instance.

    ``taken`` is meaningful only for conditional branches (False
    otherwise).  ``next_pc`` is the address of the dynamically next
    instruction — the branch/jump target when control transfers, the
    fall-through otherwise.  ``mem_addr`` is the effective address of a
    load/store (0 for non-memory instructions); the data-cache timing
    model replays it.
    """

    pc: int
    inst: Instruction
    taken: bool
    next_pc: int
    mem_addr: int = 0

    @property
    def is_control(self) -> bool:
        return self.inst.is_control


def new_arrays() -> tuple[array, bytearray, array, list[Instruction]]:
    """Empty ``(pcs, taken, mem_addrs, insts)`` arrays for a producer."""
    return array("I"), bytearray(), array("I"), []


class Stream:
    """A committed stream as struct-of-arrays, about 17 bytes per
    instruction instead of a ~96-byte :class:`StreamRecord`.

    * ``pcs`` — 32-bit pcs, one more entry than instructions: the last
      is the pc after the final instruction, so instruction *i*'s
      ``next_pc`` is ``pcs[i + 1]`` (a ``HALT`` keeps ``next_pc == pc``).
    * ``taken`` — one byte per instruction, 1 for a taken branch.
    * ``mem_addrs`` — the 32-bit effective address of a load/store, 0
      for other instructions.
    * ``insts`` — the image's own :class:`Instruction` objects, shared.

    A :class:`Stream` is a read-only sequence of :class:`StreamRecord`:
    ``len``, indexing (negative too), contiguous slicing (which returns
    a :class:`Stream`), iteration and ``==``.  Hot consumers read the
    arrays directly.
    """

    __slots__ = ("pcs", "taken", "mem_addrs", "insts")

    def __init__(self, pcs: array, taken: Union[bytes, bytearray],
                 mem_addrs: array, insts: list[Instruction]) -> None:
        n = len(insts)
        if not len(pcs) == n + 1 or not len(taken) == len(mem_addrs) == n:
            raise ValueError(
                f"stream arrays disagree: {len(pcs)} pcs (want {n + 1}), "
                f"{len(taken)} taken, {len(mem_addrs)} mem_addrs for "
                f"{n} instructions")
        self.pcs = pcs
        self.taken = taken
        self.mem_addrs = mem_addrs
        self.insts = insts

    @classmethod
    def from_records(cls, records: Iterable[StreamRecord]) -> Stream:
        """Pack records into arrays.

        Each record's ``pc`` must equal its predecessor's ``next_pc``
        (the arrays store that pc once); a ``ValueError`` names the
        first record that breaks the chain.
        """
        pcs, taken, mem_addrs, insts = new_arrays()
        next_pc = None
        for i, record in enumerate(records):
            if next_pc is not None and record.pc != next_pc:
                raise ValueError(
                    f"record {i} at {record.pc:#x} does not follow its "
                    f"predecessor's next_pc {next_pc:#x}")
            pcs.append(record.pc)
            insts.append(record.inst)
            taken.append(record.taken)
            mem_addrs.append(record.mem_addr)
            next_pc = record.next_pc
        pcs.append(0 if next_pc is None else next_pc)
        return cls(pcs, taken, mem_addrs, insts)

    @property
    def next_pcs(self) -> Iterator[int]:
        """Each instruction's ``next_pc``, in order (no copy)."""
        return islice(self.pcs, 1, None)

    def __len__(self) -> int:
        return len(self.insts)

    @overload
    def __getitem__(self, index: int) -> StreamRecord: ...

    @overload
    def __getitem__(self, index: slice) -> Stream: ...

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[StreamRecord, Stream]:
        if isinstance(index, slice):
            n = len(self.insts)
            start, stop, step = index.indices(n)
            if step != 1:
                raise ValueError("a Stream slice must be contiguous")
            stop = max(start, stop)
            if start == 0 and stop == n:
                return self
            return Stream(self.pcs[start:stop + 1], self.taken[start:stop],
                          self.mem_addrs[start:stop],
                          self.insts[start:stop])
        i = as_index(index)
        if i < 0:
            i += len(self.insts)
        if not 0 <= i < len(self.insts):
            raise IndexError("stream index out of range")
        return StreamRecord(self.pcs[i], self.insts[i], bool(self.taken[i]),
                            self.pcs[i + 1], self.mem_addrs[i])

    def __iter__(self) -> Iterator[StreamRecord]:
        return map(StreamRecord, self.pcs, self.insts,
                   map(bool, self.taken), self.next_pcs, self.mem_addrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stream):
            return NotImplemented
        # An empty stream's single pc is only where it would resume.
        return (self.insts == other.insts and self.taken == other.taken
                and self.mem_addrs == other.mem_addrs
                and (not self.insts or self.pcs == other.pcs))


def as_stream(stream: Union[Stream, Iterable[StreamRecord]]) -> Stream:
    """``stream`` itself, or a sequence of records packed once."""
    if isinstance(stream, Stream):
        return stream
    return Stream.from_records(stream)
