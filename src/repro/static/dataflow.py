"""Generic lattice/worklist dataflow engine over the recovered CFG.

The static layer needs several classic analyses (liveness, reaching
definitions, value ranges, stack-pointer deltas) and they all share one
skeleton: facts drawn from a join-semilattice, per-block transfer
functions, and iteration to a fixpoint in a deterministic order.  This
module provides that skeleton once:

* :class:`FlowGraph` — a frozen, fully deterministic per-procedure
  block graph (sorted nodes, ordered successor/predecessor tuples and
  a reverse-postorder numbering with no dependence on ``dict``/``set``
  insertion order or ``PYTHONHASHSEED``);
* :class:`DataflowAnalysis` — the abstract problem definition: a
  direction, a boundary fact, an optimistic initial fact, ``join``,
  and a per-instruction (or per-block) transfer function, with an
  optional widening hook for infinite-height lattices;
* :func:`solve` — round-robin iteration over reverse postorder
  (postorder for backward problems) until the facts stop changing.

Facts are arbitrary Python values compared with ``==``; analyses in
:mod:`repro.static.analyses` use ``int`` bitmasks and small ``dict``\\ s.
The engine is intraprocedural; interprocedural effects enter through
the transfer functions via callgraph-driven procedure summaries
(:class:`repro.static.analyses.ProcedureSummaries`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generic, Optional, Sequence, TypeVar

from repro.isa import Instruction
from repro.program.image import ProgramImage
from repro.static.recovery import ProcedureRange, RecoveredCFG, Row

F = TypeVar("F")

#: Fixpoint-round bound: after this many full sweeps the engine applies
#: :meth:`DataflowAnalysis.widen` each round, and after twice as many it
#: declares divergence (``DataflowResult.converged`` False) instead of
#: spinning.  Every lattice in this repository converges in a handful
#: of rounds; the bound is a safety net for adversarial inputs.
WIDEN_AFTER_ROUNDS = 8
MAX_ROUNDS = 64


class Direction(enum.Enum):
    """Which way facts flow through the graph."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class FlowGraph:
    """One procedure's reachable blocks as a deterministic graph.

    ``nodes`` are block start addresses in ascending order, restricted
    to blocks reachable from the procedure entry via intra-procedure
    edges (matching :meth:`RecoveredCFG.reachable_blocks`).  Successor
    targets that leave the procedure are dropped here — the verifier's
    SD001 rule owns those — so a block whose control only escapes the
    procedure appears as an exit.
    """

    proc: ProcedureRange
    entry: int
    nodes: tuple[int, ...]
    succs: dict[int, tuple[int, ...]]
    preds: dict[int, tuple[int, ...]]
    rpo: tuple[int, ...]

    @property
    def exits(self) -> tuple[int, ...]:
        """Blocks with no in-procedure successors, ascending."""
        return tuple(n for n in self.nodes if not self.succs[n])

    def rpo_index(self) -> dict[int, int]:
        return {block: i for i, block in enumerate(self.rpo)}


def build_flow_graph(cfg: RecoveredCFG, proc: ProcedureRange) -> FlowGraph:
    """The deterministic flow graph of ``proc``.

    Iterates the reachable-block *set* in sorted order everywhere, so
    the resulting node order, edge order and reverse postorder are pure
    functions of the image.
    """
    reachable = cfg.reachable_blocks(proc)
    nodes = tuple(sorted(reachable))
    succs: dict[int, tuple[int, ...]] = {}
    for start in nodes:
        targets: list[int] = []
        for addr in cfg.blocks[start].successors:
            target = cfg.block_at(addr)
            if (target is not None and target.start in reachable
                    and target.start not in targets):
                targets.append(target.start)
        succs[start] = tuple(targets)
    preds: dict[int, list[int]] = {start: [] for start in nodes}
    for start in nodes:
        for succ in succs[start]:
            preds[succ].append(start)
    rpo = _reverse_postorder(proc.start, succs) if nodes else ()
    return FlowGraph(proc=proc, entry=proc.start, nodes=nodes,
                     succs=succs,
                     preds={s: tuple(p) for s, p in preds.items()},
                     rpo=tuple(rpo))


def _reverse_postorder(entry: int,
                       succs: dict[int, tuple[int, ...]]) -> list[int]:
    """Iterative DFS postorder from ``entry``, reversed.

    Child visit order follows the successor tuples, which are
    themselves deterministic, so the numbering never depends on hash
    iteration order.
    """
    order: list[int] = []
    seen = {entry}
    stack: list[tuple[int, int]] = [(entry, 0)]
    while stack:
        node, i = stack.pop()
        children = succs.get(node, ())
        if i < len(children):
            stack.append((node, i + 1))
            child = children[i]
            if child not in seen:
                seen.add(child)
                stack.append((child, 0))
        else:
            order.append(node)
    order.reverse()
    return order


class DataflowAnalysis(Generic[F]):
    """One dataflow problem: lattice + direction + transfer functions.

    Subclasses set :attr:`direction` and implement :meth:`boundary`,
    :meth:`initial`, :meth:`join` and either
    :meth:`transfer_instruction` (the common case — the engine folds it
    over the block in the right order) or :meth:`transfer_block`, which
    receives the block's decoded rows (:attr:`RecoveredCFG.rows`).
    """

    direction: Direction = Direction.FORWARD

    def __init__(self, image: ProgramImage) -> None:
        self.image = image

    # -- lattice -------------------------------------------------------
    def boundary(self, graph: FlowGraph) -> F:
        """Fact at the procedure entry (forward) or its exits (backward)."""
        raise NotImplementedError

    def initial(self, graph: FlowGraph) -> F:
        """Optimistic starting fact for every other block."""
        raise NotImplementedError

    def join(self, a: F, b: F) -> F:
        raise NotImplementedError

    def widen(self, old: F, new: F) -> F:
        """Accelerate convergence on infinite-height lattices.

        Called in place of plain replacement once a fixpoint has not
        been reached after :data:`WIDEN_AFTER_ROUNDS` sweeps.  The
        default keeps the new fact (finite lattices need nothing more).
        """
        return new

    # -- transfer ------------------------------------------------------
    def transfer_block(self, rows: Sequence[Row], fact: F) -> F:
        """Fold the per-instruction transfer across one block's rows."""
        transfer = self.transfer_instruction
        for pc, inst in (reversed(rows)
                         if self.direction is Direction.BACKWARD else rows):
            fact = transfer(pc, inst, fact)
        return fact

    def transfer_instruction(self, pc: int, inst: Instruction,
                             fact: F) -> F:
        return fact


@dataclass
class DataflowResult(Generic[F]):
    """Fixpoint facts per block.

    ``in_facts``/``out_facts`` are keyed by block start and always mean
    the fact *at the block's first instruction* / *after its last
    instruction*, regardless of direction.
    """

    analysis: DataflowAnalysis[F]
    graph: FlowGraph
    in_facts: dict[int, F]
    out_facts: dict[int, F]
    rounds: int
    converged: bool

    def instruction_facts(self, cfg: RecoveredCFG, block_start: int
                          ) -> list[tuple[int, Instruction, F]]:
        """Per-instruction facts inside one block.

        For a forward analysis each row carries the fact *before* the
        instruction; for a backward analysis the fact *after* it (the
        side a consumer almost always wants — e.g. liveness after a
        definition decides whether the definition is dead).
        """
        analysis = self.analysis
        transfer = analysis.transfer_instruction
        rows: list[tuple[int, Instruction, F]] = []
        if analysis.direction is Direction.FORWARD:
            fact = self.in_facts[block_start]
            for pc, inst in cfg.rows[block_start]:
                rows.append((pc, inst, fact))
                fact = transfer(pc, inst, fact)
        else:
            fact = self.out_facts[block_start]
            for pc, inst in reversed(cfg.rows[block_start]):
                # Walking backward, the held fact is the one *after*
                # ``pc`` in program order: record it, then transfer.
                rows.append((pc, inst, fact))
                fact = transfer(pc, inst, fact)
            rows.reverse()
        return rows


def solve(analysis: DataflowAnalysis[F], cfg: RecoveredCFG,
          graph: Optional[FlowGraph] = None,
          proc: Optional[ProcedureRange] = None) -> DataflowResult[F]:
    """Iterate ``analysis`` to a fixpoint over one procedure.

    Round-robin over reverse postorder (forward) or postorder
    (backward): deterministic, and within a sweep every block sees its
    already-updated predecessors, so shallow CFGs converge in two or
    three rounds.

    Round one transfers every block.  After that a block is transferred
    again only when its joined (and, once widening, widened) input
    differs from the input of its previous transfer: transfers are pure,
    so the skipped one would reproduce the output already held.  The
    sweep order, and so every fact, round count and widening decision,
    is that of transferring every block every round.
    """
    if graph is None:
        if proc is None:
            raise ValueError("solve() needs a FlowGraph or a procedure")
        graph = build_flow_graph(cfg, proc)
    forward = analysis.direction is Direction.FORWARD
    order = graph.rpo if forward else tuple(reversed(graph.rpo))
    boundary = analysis.boundary(graph)
    exits = frozenset(graph.exits)
    block_rows = cfg.rows

    in_facts: dict[int, F] = {}
    out_facts: dict[int, F] = {}
    for node in graph.nodes:
        in_facts[node] = analysis.initial(graph)
        out_facts[node] = analysis.initial(graph)

    rounds = 0
    changed = bool(graph.nodes)
    while changed and rounds < MAX_ROUNDS:
        changed = False
        rounds += 1
        widening = rounds > WIDEN_AFTER_ROUNDS
        for node in order:
            if forward:
                fact = boundary if node == graph.entry else None
                for pred in graph.preds[node]:
                    fact = (out_facts[pred] if fact is None
                            else analysis.join(fact, out_facts[pred]))
                if fact is None:       # unreachable in graph terms
                    fact = analysis.initial(graph)
                if widening:
                    fact = analysis.widen(in_facts[node], fact)
                if fact != in_facts[node]:
                    in_facts[node] = fact
                    changed = True
                elif rounds > 1:
                    continue        # same input as its last transfer
                new_out = analysis.transfer_block(block_rows[node], fact)
                if new_out != out_facts[node]:
                    out_facts[node] = new_out
                    changed = True
            else:
                fact = boundary if node in exits else None
                for succ in graph.succs[node]:
                    fact = (in_facts[succ] if fact is None
                            else analysis.join(fact, in_facts[succ]))
                if fact is None:       # e.g. an infinite loop's blocks
                    fact = analysis.initial(graph)
                if widening:
                    fact = analysis.widen(out_facts[node], fact)
                if fact != out_facts[node]:
                    out_facts[node] = fact
                    changed = True
                elif rounds > 1:
                    continue        # same input as its last transfer
                new_in = analysis.transfer_block(block_rows[node], fact)
                if new_in != in_facts[node]:
                    in_facts[node] = new_in
                    changed = True

    return DataflowResult(analysis=analysis, graph=graph,
                          in_facts=in_facts, out_facts=out_facts,
                          rounds=rounds, converged=not changed)
