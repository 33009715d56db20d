"""The linked program image: flat instruction memory plus initial data.

A :class:`ProgramImage` is what every downstream consumer works from —
the functional engine executes it, the instruction cache models fetches
from it, and the preconstruction engine reads *static* instructions out
of it when exploring future regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.isa import INSTRUCTION_BYTES, Instruction

#: Default base address of the code segment.
CODE_BASE = 0x1000

#: Default base address of the data segment.
DATA_BASE = 0x40_0000

# PC-to-index arithmetic runs once per executed and once per
# preconstructed instruction; shift/mask beats divmod there.
_PC_SHIFT = INSTRUCTION_BYTES.bit_length() - 1
_PC_MASK = INSTRUCTION_BYTES - 1
assert 1 << _PC_SHIFT == INSTRUCTION_BYTES


@dataclass
class ProgramImage:
    """A fully linked program.

    ``instructions`` is dense from ``code_base``; instruction *i* lives
    at byte address ``code_base + 4*i``.  ``data`` maps word-aligned
    byte addresses to initial 32-bit values (the engine treats absent
    addresses as zero).  ``labels`` maps every procedure and block label
    to its byte address.  ``relocs`` records relocation provenance: the
    data addresses whose initial values are *code* addresses (jump
    tables, function-pointer tables), mapped to the resolved target —
    static analysis uses this instead of guessing which data words are
    code pointers.
    """

    instructions: list[Instruction]
    code_base: int = CODE_BASE
    entry: int = CODE_BASE
    labels: dict[str, int] = field(default_factory=dict)
    data: dict[int, int] = field(default_factory=dict)
    relocs: dict[int, int] = field(default_factory=dict)
    #: Trace-constructor walk scripts recorded on this image, keyed by
    #: (selection, constructor config); see
    #: :mod:`repro.core.preconstructor`.  A memo of pure functions of
    #: the image, so an image must not change once preconstruction has
    #: run on it.
    walk_scripts: dict = field(default_factory=dict, init=False,
                               compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.code_base % INSTRUCTION_BYTES:
            raise ValueError("code_base must be instruction-aligned")

    # ------------------------------------------------------------------
    def fetch(self, pc: int) -> Instruction:
        """Return the instruction at byte address ``pc``.

        Raises ``IndexError`` for addresses outside the code segment —
        the simulator treats that as a wild jump (a bug in the workload
        or the machinery, never silently ignored).
        """
        offset = pc - self.code_base
        index = offset >> _PC_SHIFT
        if (offset & _PC_MASK or index < 0
                or index >= len(self.instructions)):
            raise IndexError(f"PC out of code segment: {pc:#x}")
        return self.instructions[index]

    def try_fetch(self, pc: int) -> Optional[Instruction]:
        """Like :meth:`fetch` but returns ``None`` out of bounds."""
        offset = pc - self.code_base
        index = offset >> _PC_SHIFT
        if (offset & _PC_MASK or index < 0
                or index >= len(self.instructions)):
            return None
        return self.instructions[index]

    def __contains__(self, pc: int) -> bool:
        return self.try_fetch(pc) is not None

    # ------------------------------------------------------------------
    @property
    def code_size(self) -> int:
        """Static code footprint in instructions."""
        return len(self.instructions)

    @property
    def code_bytes(self) -> int:
        return len(self.instructions) * INSTRUCTION_BYTES

    @property
    def code_end(self) -> int:
        """First byte address past the code segment."""
        return self.code_base + self.code_bytes

    def addresses(self) -> Iterator[int]:
        """Yield every instruction address in layout order."""
        for i in range(len(self.instructions)):
            yield self.code_base + i * INSTRUCTION_BYTES

    def label_at(self, pc: int) -> Optional[str]:
        """Reverse label lookup (first match), for diagnostics."""
        for name, addr in self.labels.items():
            if addr == pc:
                return name
        return None

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Stable SHA-256 content address of the whole image.

        Covers every field that affects execution — code, entry, data,
        labels, relocation provenance — through a canonical rendering
        (sorted mappings, positional instruction fields), so the hex
        digest is identical across processes and ``PYTHONHASHSEED``
        values.  The determinism oracles and the cross-interpreter
        generator tests compare images through this.
        """
        import hashlib

        hasher = hashlib.sha256()
        hasher.update(f"base={self.code_base};entry={self.entry};".encode())
        for inst in self.instructions:
            hasher.update(
                f"{inst.op.value},{inst.rd},{inst.rs1},{inst.rs2},"
                f"{inst.imm},{inst.sh1},{inst.sh2};".encode())
        for addr in sorted(self.data):
            hasher.update(f"d{addr}={self.data[addr]};".encode())
        for addr in sorted(self.relocs):
            hasher.update(f"r{addr}={self.relocs[addr]};".encode())
        for name in sorted(self.labels):
            hasher.update(f"l{name}={self.labels[name]};".encode())
        return hasher.hexdigest()
