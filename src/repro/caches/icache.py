"""Instruction cache model.

Paper configuration: 64 KB, 4-way set associative, 64-byte lines
(16 instructions), 1-cycle hit, backed by a perfect L2 with a 10-cycle
hit latency.  The I-cache is shared between the slow-path fetch unit
and the preconstruction engine; per-client traffic counters let the
simulator report the paper's Tables 1-3 (instructions supplied by the
I-cache, I-cache misses, instructions supplied by misses).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.setassoc import SetAssociativeCache
from repro.isa import INSTRUCTION_BYTES


@dataclass
class FetchTraffic:
    """Per-client I-cache traffic counters."""

    instructions_supplied: int = 0
    lines_accessed: int = 0
    misses: int = 0
    instructions_from_misses: int = 0


@dataclass
class ICacheConfig:
    size_bytes: int = 64 * 1024
    ways: int = 4
    line_bytes: int = 64
    hit_latency: int = 1
    miss_latency: int = 10  # perfect L2 hit latency

    @property
    def num_sets(self) -> int:
        sets, rem = divmod(self.size_bytes, self.ways * self.line_bytes)
        if rem or sets <= 0:
            raise ValueError("icache geometry does not divide evenly")
        return sets

    @property
    def instructions_per_line(self) -> int:
        return self.line_bytes // INSTRUCTION_BYTES


class InstructionCache:
    """Shared instruction cache with per-client traffic accounting.

    Clients are arbitrary string names (``"slow_path"``,
    ``"preconstruct"``); :meth:`fetch_line` returns the access latency
    and whether it missed.  Tag state is shared across clients — a line
    prefetched by the preconstruction engine later hits for the slow
    path, which is exactly the side-channel prefetching benefit the
    paper measures in Table 3.
    """

    def __init__(self, config: ICacheConfig | None = None) -> None:
        self.config = config or ICacheConfig()
        line = self.config.line_bytes
        self._lines: SetAssociativeCache[int, bool] = SetAssociativeCache(
            num_sets=self.config.num_sets,
            ways=self.config.ways,
            index_fn=lambda addr: addr // line,
        )
        self.traffic: dict[str, FetchTraffic] = {}

    # ------------------------------------------------------------------
    def line_address(self, pc: int) -> int:
        return pc - (pc % self.config.line_bytes)

    def _client(self, name: str) -> FetchTraffic:
        if name not in self.traffic:
            self.traffic[name] = FetchTraffic()
        return self.traffic[name]

    # ------------------------------------------------------------------
    def fetch_line(self, pc: int, client: str,
                   instructions: int = 1) -> tuple[int, bool]:
        """Access the line containing ``pc`` on behalf of ``client``.

        ``instructions`` is how many instructions this access supplies
        (for traffic accounting).  Returns ``(latency_cycles, missed)``.
        A miss fills the line (perfect L2 — no further misses).
        """
        line_addr = self.line_address(pc)
        traffic = self._client(client)
        traffic.lines_accessed += 1
        traffic.instructions_supplied += instructions
        if self._lines.lookup(line_addr) is not None:
            return self.config.hit_latency, False
        self._lines.insert(line_addr, True)
        traffic.misses += 1
        traffic.instructions_from_misses += instructions
        return self.config.miss_latency, True

    def contains_line(self, pc: int) -> bool:
        """Non-destructive probe (no counters, no fill)."""
        return self.line_address(pc) in self._lines

    # ------------------------------------------------------------------
    @property
    def total_misses(self) -> int:
        return sum(t.misses for t in self.traffic.values())

    def client_traffic(self, name: str) -> FetchTraffic:
        return self._client(name)
