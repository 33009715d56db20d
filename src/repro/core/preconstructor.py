"""Trace constructors: walk static code and build candidate traces.

Implements the paper's §3.4 algorithm.  A constructor is assigned a
trace start point from a region's worklist and then:

* fetches and decodes static instructions (through the region's
  prefetch cache, falling back to the shared I-cache port);
* follows strongly-biased conditional branches only in their dominant
  direction, consulting the slow-path bimodal predictor's counters;
* at a weakly-biased branch, follows the not-taken path first and
  pushes the decision point onto a small internal stack; after a trace
  completes it pops the stack and re-walks the alternative direction;
* follows direct calls (remembering the return point on an internal
  call stack so the matching return is resolvable), and terminates the
  path at register-indirect transfers whose target is unknown;
* delimits traces with the *same* :class:`TraceBuilder` rules as the
  processor, so preconstructed traces align with demand traces.

The constructor is incremental: :meth:`step` performs one instruction's
worth of work and reports its port cost, so the engine can meter
progress against the processor's idle slow-path cycles.

A walk is a pure function of the image, the two configs, the start
point and the sequence of biases it reads; the prefetch cache, the
I-cache and the port budget only decide where a point's walk stops.
So each walk is recorded once per image as a *walk script* — a tree of
:class:`_ScriptNode` stretches that branches at every bias read — and
replayed at every later point: a replayed step does the live fetch on
the recorded pc and returns the recorded trace and start point.  A
bias no recorded child matches sends the constructor back to the live
walk, which records the new child.

A correctness invariant enforced here: the constructor never emits a
*partial* trace.  A trace identity is (start PC, branch outcomes), so a
trace cut short by a resource bound would collide with the properly
delimited trace the processor will later ask for; partial work is
always discarded instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.branch import Bias, BimodalPredictor
from repro.caches import InstructionCache
from repro.core.region import Region, StartPoint
from repro.isa import INSTRUCTION_BYTES, Instruction, Kind
from repro.program import ProgramImage
from repro.trace import SelectionConfig, Trace, TraceBuilder


@dataclass(frozen=True)
class ConstructorConfig:
    """Bounds and policies for one constructor's work per start point.

    ``branch_policy`` selects the path-pruning heuristic at conditional
    branches (an ablation axis for the paper's §2.1 heuristic):

    * ``"biased"`` (the paper): follow strongly-biased branches in their
      dominant direction only; fork both ways at weak branches;
    * ``"both"``: fork at every branch (no pruning);
    * ``"taken"`` / ``"not_taken"``: static single-direction policies.
    """

    max_decision_depth: int = 4
    max_traces_per_start: int = 8
    max_walk_instructions: int = 96
    max_call_depth: int = 8
    branch_policy: str = "biased"

    def __post_init__(self) -> None:
        if self.branch_policy not in ("biased", "both", "taken",
                                      "not_taken"):
            raise ValueError(f"unknown branch_policy "
                             f"{self.branch_policy!r}")


@dataclass(slots=True)
class StepResult:
    """Outcome of one constructor step."""

    port_cost: int = 0
    completed: Optional[Trace] = None
    new_start_point: Optional[StartPoint] = None
    finished: bool = False            # start point fully explored
    region_fetch_bound: bool = False  # prefetch cache filled up
    notable: bool = False
    """True when any engine-visible event field above is set — the
    engine's one-load gate for dispatching to its slow handler."""


@dataclass(slots=True)
class _DecisionPoint:
    """Saved walk state at a weakly-biased branch (not-taken explored
    first; this snapshot resumes the taken direction)."""

    entries: list
    entry_stacks: list
    pc: int                # the branch pc itself
    taken_target: int
    call_stack: tuple[int, ...]
    walked: int


#: Sentinel distinguishing "never decoded" from a cached out-of-bounds
#: ``None`` in the shared decode cache.
_UNDECODED = object()

# How a script node ends: still being recorded, at a bias read, at a
# cut (the constructor was released or hit the fetch bound mid-walk),
# or at the end of the walk.
_OPEN, _BRANCH, _CUT, _END = range(4)

#: Event of a plain step that must not fetch: the walk-length bound.
_UNFETCHED = (False, None, None, False, False)

#: A branch ending's children in slot order: the slot of a bias read
#: is its position here (``_SLOTS.index(bias)`` compares identities, so
#: it calls no ``Enum.__hash__``).  A cut's continuation sits in slot 0
#: of a one-slot list.
_SLOTS = (Bias.STRONG_TAKEN, Bias.STRONG_NOT_TAKEN, Bias.WEAK)


class _ScriptNode:
    """One recorded stretch of a walk, up to its next bias read.

    ``pcs`` is the constructor's pc before each step plus one trailing
    entry, the pc before the step after the node (the branch pc, the pc
    after a cut, or ``None`` at the end).  ``events`` is, per step,
    ``None`` for a plain step or ``(fetch allowed, completed trace, new
    start point, finished, notable)``.  ``children`` holds the node
    that continues the walk: one per :class:`Bias` read at a branch
    ending (see ``_SLOTS``), or the one continuation of a cut.
    """

    __slots__ = ("pcs", "events", "kind", "children")

    def __init__(self) -> None:
        self.pcs: Any = []
        self.events: Any = []
        self.kind = _OPEN
        self.children: Optional[list[Optional[_ScriptNode]]] = None


class WalkScripts:
    """The walks recorded on one image under one pair of configs."""

    __slots__ = ("roots", "decode", "pcs")

    def __init__(self) -> None:
        self.roots: dict[StartPoint, _ScriptNode] = {}
        #: PC -> decoded instruction (``None`` out of bounds).
        self.decode: dict[int, Optional[Instruction]] = {}
        #: Interned pc objects, so recorded pcs share one int each.
        self.pcs: dict[int, int] = {}


class TraceConstructor:
    """One of the (four) parallel trace construction units."""

    def __init__(self, image: ProgramImage, icache: InstructionCache,
                 bimodal: BimodalPredictor,
                 selection: SelectionConfig | None = None,
                 config: ConstructorConfig | None = None) -> None:
        self.image = image
        self.icache = icache
        self.bimodal = bimodal
        self.selection = selection or SelectionConfig()
        self.config = config or ConstructorConfig()
        self.region: Optional[Region] = None
        self._builder = TraceBuilder(self.selection)
        key = (self.selection, self.config)
        scripts = image.walk_scripts.get(key)
        if scripts is None:
            scripts = image.walk_scripts[key] = WalkScripts()
        self._roots = scripts.roots
        self._decode = scripts.decode
        self._intern = scripts.pcs.setdefault
        self._branch_policy = self.config.branch_policy
        self._max_walk = self.config.max_walk_instructions
        # One StepResult reused across steps: the engine consumes each
        # result before the next step, and allocating ~1 per walked
        # instruction showed up in profiles.
        self._result = StepResult()
        # The all-quiet result shared by every plain step (no port use,
        # nothing completed) — the overwhelmingly common case, returned
        # without touching any field.  Never mutated.
        self._plain = StepResult()
        # Live walk state.  Call-stack state *after* each buffered
        # entry, aligned with the builder's buffer; needed to restart
        # correctly after truncation.
        self._entry_stacks: list[tuple[int, ...]] = []
        self._pc: Optional[int] = None
        self._call_stack: tuple[int, ...] = ()
        self._decisions: list[_DecisionPoint] = []
        self._traces_emitted = 0
        self._walked = 0
        self._start: Optional[StartPoint] = None
        # Replay cursor: the nodes followed from the root (the last one
        # replaying, its pcs and events cached), the index of its next
        # step, and the biases followed at branch endings.  ``_pcs`` is
        # None while the walk runs live.
        self._path: list[_ScriptNode] = []
        self._pcs: Optional[tuple] = None
        self._events: tuple = ()
        self._n = 0
        self._i = 0
        self._biases: list[Bias] = []
        # Recording: the open node, and the children list and slot it
        # is linked into when it closes (no list: a root, keyed by its
        # start point).  ``_rec`` is None when not recording.
        self._rec: Optional[_ScriptNode] = None
        self._rec_parent: Optional[list[Optional[_ScriptNode]]] = None
        self._rec_key: Any = None
        #: The biases a recovery re-walk reads instead of the table.
        self._bias_feed: Optional[Iterator[Bias]] = None
        #: A replayed step hit the fetch bound: the live walk state must
        #: be rebuilt before any further step.
        self._stale = False

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.region is not None

    def assign(self, region: Region, start: StartPoint) -> None:
        """Begin exploring ``start`` on behalf of ``region``."""
        if self.busy:
            raise RuntimeError("constructor already assigned")
        self.region = region
        self._start = start
        self._stale = False
        root = self._roots.get(start)
        if root is None:
            self._pcs = None
            self._start_walk(start)
            self._record(_ScriptNode(), None, start)
            return
        self._path = []
        self._biases = []
        self._enter(root)
        self._pc = start.pc

    def release(self) -> None:
        if self._rec is not None:
            self._stop_recording(_CUT, self._pc)
        self.region = None
        self._pc = None

    def _fresh_result(self) -> StepResult:
        """Reset and return the reused per-constructor StepResult."""
        result = self._result
        result.port_cost = 0
        result.completed = None
        result.new_start_point = None
        result.finished = False
        result.region_fetch_bound = False
        result.notable = False
        return result

    @staticmethod
    def _fetch_bound(result: StepResult) -> StepResult:
        result.finished = True
        result.region_fetch_bound = True
        result.notable = True
        return result

    # ------------------------------------------------------------------
    def step(self, needs_fetch: Optional[bool] = None) -> StepResult:
        """Perform one instruction's worth of construction work.

        ``needs_fetch`` lets the engine pass its own "is the pc missing
        from the region's prefetch cache" probe so the cache is not
        probed twice per step; ``None`` probes here.

        A recorded step replays: it does the live fetch on the recorded
        pc, then returns the recorded trace and start point.
        """
        region = self.region
        if region is None:
            raise RuntimeError("step on idle constructor")
        pcs = self._pcs
        if pcs is None:
            return self._live_step(region, needs_fetch)
        i = self._i
        if i == self._n:
            return self._node_end(region, needs_fetch)
        event = self._events[i]
        pc = pcs[i]
        if needs_fetch is None:
            needs_fetch = (pc is not None
                           and not region.prefetch_cache.contains(pc))
        result: Optional[StepResult] = None
        if needs_fetch and (event is None or event[0]):
            result = self._fresh_result()
            if not region.prefetch_cache.add_line(pc):
                self._pc = None
                self._pcs = None
                self._stale = True
                return self._fetch_bound(result)
            result.port_cost = self.icache.fetch_line(pc, "preconstruct")[0]
        self._i = i + 1
        self._pc = pcs[i + 1]
        if event is None:
            return result if result is not None else self._plain
        if result is None:
            result = self._fresh_result()
        (_, result.completed, result.new_start_point, result.finished,
         result.notable) = event
        return result

    def _node_end(self, region: Region,
                  needs_fetch: Optional[bool]) -> StepResult:
        """Step past the end of the replayed node: follow the child for
        the bias read now (or the cut's continuation), or resume the
        live walk and record the missing child."""
        node = self._path[-1]
        kind = node.kind
        bias = self.bimodal.bias(node.pcs[-1]) if kind == _BRANCH else None
        children = node.children
        child = None
        if children is not None:
            child = children[0 if bias is None else _SLOTS.index(bias)]
        if child is None:
            self._recover()
            if kind == _BRANCH:
                # The branch step's bias read opens the new child.
                self._rec = node
            elif kind == _CUT:
                self._record(_ScriptNode(), children, 0)
            return self._live_step(region, needs_fetch)
        if bias is not None:
            self._biases.append(bias)
        self._enter(child)
        return self.step(needs_fetch)

    def _enter(self, node: _ScriptNode) -> None:
        self._path.append(node)
        self._pcs = node.pcs
        self._events = node.events
        self._n = len(node.events)
        self._i = 0

    def _recover(self) -> None:
        """Rebuild the live walk state at the replay cursor by walking
        the replayed prefix again, fed the biases the replay followed.
        The re-walk fetches nothing and records nothing."""
        assert self._start is not None
        steps = self._i + sum(len(n.events) for n in self._path[:-1])
        self._bias_feed = iter(self._biases)
        self._start_walk(self._start)
        for _ in range(steps):
            self._walk(self._pc, None)
        assert self._pc == self._path[-1].pcs[self._i]
        self._bias_feed = None
        self._pcs = None

    # ------------------------------------------------------------------
    def _live_step(self, region: Region,
                   needs_fetch: Optional[bool]) -> StepResult:
        """One step of the live walk, recorded when a script is open."""
        if self._stale:
            # Redo what the live walk does at a fetch-bound step.
            self._recover()
            self._stale = False
            self._reset_buffer()
            self._pc = None
        pc = self._pc
        fetch_allowed = pc is not None and self._walked < self._max_walk
        result: Optional[StepResult] = None
        if fetch_allowed and (needs_fetch if needs_fetch is not None
                              else not region.prefetch_cache.contains(pc)):
            result = self._fresh_result()
            if not region.prefetch_cache.add_line(pc):
                # The rest of this walk depends on the point: stop
                # recording here.
                if self._rec is not None:
                    self._stop_recording(_CUT, pc)
                self._reset_buffer()
                self._pc = None
                return self._fetch_bound(result)
            result.port_cost = self.icache.fetch_line(pc, "preconstruct")[0]
        result = self._walk(pc, result)
        rec = self._rec
        if rec is not None:
            rec.pcs.append(pc)
            if result.notable:
                rec.events.append((fetch_allowed, result.completed,
                                   result.new_start_point, result.finished,
                                   True))
                if result.finished:
                    self._stop_recording(_END, None)
            else:
                rec.events.append(None if fetch_allowed or pc is None
                                  else _UNFETCHED)
        return result

    def _record(self, node: _ScriptNode,
                parent: Optional[list[Optional[_ScriptNode]]],
                key: Any) -> None:
        """Record the live walk into ``node``, linked into
        ``parent[key]`` (the roots under ``key`` when ``parent`` is
        None) once it closes."""
        self._rec = node
        self._rec_parent = parent
        self._rec_key = key

    def _stop_recording(self, kind: int, next_pc: Optional[int]) -> None:
        self._close(kind, next_pc)
        self._rec = None

    def _read_bias(self, pc: int) -> Bias:
        """The bias the walk follows at the branch at ``pc``.  While
        recording, the node so far ends at this branch and the step goes
        on in the child for the bias read."""
        if self._bias_feed is not None:
            return next(self._bias_feed)
        bias = self.bimodal.bias(pc)
        if self._rec is not None:
            node = self._close(_BRANCH, pc)
            assert node.children is not None
            self._record(_ScriptNode(), node.children, _SLOTS.index(bias))
        return bias

    def _close(self, kind: int, next_pc: Optional[int]) -> _ScriptNode:
        """End the recorded node and link it into the tree; the first
        writer of a link wins.  Returns the node a branch's children
        hang from."""
        node = self._rec
        assert node is not None
        if node.kind != _OPEN:
            return node  # the replayed node a miss resumed from
        node.pcs.append(next_pc)
        node.pcs = tuple(node.pcs)
        node.events = tuple(node.events)
        node.kind = kind
        if kind == _BRANCH:
            node.children = [None, None, None]
        elif kind == _CUT:
            node.children = [None]
            if not node.events:
                return node  # nothing to replay
        parent = self._rec_parent
        if parent is None:
            winner = self._roots.setdefault(self._rec_key, node)
        else:
            winner = parent[self._rec_key]
            if winner is None:
                winner = parent[self._rec_key] = node
        return winner if winner.kind == kind else node

    # ------------------------------------------------------------------
    def _start_walk(self, start: StartPoint) -> None:
        self._pc = self._intern(start.pc, start.pc)
        self._call_stack = start.call_stack
        self._reset_buffer()
        self._decisions.clear()
        self._traces_emitted = 0
        self._walked = 0

    def _walk(self, pc: Optional[int],
              result: Optional[StepResult]) -> StepResult:
        """The walk part of one live step, after any fetch: a pure
        function of the walk state and the bias it reads."""
        if pc is None:
            return self._backtrack_or_finish()
        if self._walked >= self._max_walk:
            self._reset_buffer()  # never emit a partial trace
            self._pc = None
            return self._backtrack_or_finish()
        inst = self._decode.get(pc, _UNDECODED)
        if inst is _UNDECODED:
            inst = self.image.try_fetch(pc)
            self._decode[pc] = inst
        if inst is None or inst.kind is Kind.HALT:
            self._reset_buffer()
            self._pc = None
            return result if result is not None else self._plain

        taken, next_pc, path_ends = self._advance(pc, inst)
        if next_pc is not None:
            # Interned, so the pcs of recorded scripts and traces share
            # one int object per address.
            next_pc = self._intern(next_pc, next_pc)
        self._walked += 1
        completed = self._builder.add(pc, inst, taken,
                                      next_pc if next_pc is not None else 0)
        self._entry_stacks.append(self._call_stack)
        if completed is None:
            self._pc = None if path_ends else next_pc
            return result if result is not None else self._plain
        if result is None:
            result = self._fresh_result()
        self._complete(completed, result)
        self._pc = None
        return result

    # ------------------------------------------------------------------
    def _append_entry(self, pc: int, inst: Instruction, taken: bool,
                      record_next: int, result: StepResult) -> None:
        """Feed one entry to the builder, handling trace completion."""
        completed = self._builder.add(pc, inst, taken, record_next)
        self._entry_stacks.append(self._call_stack)
        if completed is None:
            return
        self._complete(completed, result)

    def _complete(self, completed: Trace, result: StepResult) -> None:
        """Populate ``result`` for an emitted trace."""
        self._traces_emitted += 1
        result.completed = completed
        result.notable = True
        cut = len(completed)
        if completed.next_pc:
            result.new_start_point = StartPoint(
                pc=completed.next_pc,
                call_stack=self._entry_stacks[cut - 1])
        self._reset_buffer()  # drop any truncation leftover
        if self._traces_emitted >= self.config.max_traces_per_start:
            self._decisions.clear()
            result.finished = True

    def _reset_buffer(self) -> None:
        self._builder.reset()
        self._entry_stacks.clear()

    # ------------------------------------------------------------------
    def _backtrack_or_finish(self) -> StepResult:
        """Resume a saved decision point, or report the start point done."""
        result = self._fresh_result()
        if (self._decisions
                and self._traces_emitted < self.config.max_traces_per_start):
            point = self._decisions.pop()
            self._builder.restore_entries(point.entries)
            self._entry_stacks = list(point.entry_stacks)
            self._call_stack = point.call_stack
            self._walked = point.walked + 1
            inst = self._decode.get(point.pc)
            if inst is None:
                inst = self.image.fetch(point.pc)
            self._append_entry(point.pc, inst, True, point.taken_target,
                               result)
            self._pc = (None if result.completed is not None
                        else point.taken_target)
            return result
        result.finished = True
        result.notable = True
        return result

    # ------------------------------------------------------------------
    def _advance(self, pc: int, inst: Instruction
                 ) -> tuple[bool, Optional[int], bool]:
        """Decide (taken, next_pc, path_ends) for the walked instruction.

        Mutates the call stack for calls and resolved returns, so the
        post-instruction stack snapshot taken by the caller is correct.
        """
        fall = pc + INSTRUCTION_BYTES
        if not inst.is_control:
            return False, fall, False
        kind = inst.kind
        if kind is Kind.BRANCH:
            policy = self._branch_policy
            if policy == "taken":
                return True, pc + inst.imm, False
            if policy == "not_taken":
                return False, fall, False
            if policy == "biased":
                bias = self._read_bias(pc)
                if bias is Bias.STRONG_TAKEN:
                    return True, pc + inst.imm, False
                if bias is Bias.STRONG_NOT_TAKEN:
                    return False, fall, False
            # Weakly biased (or policy "both"): not-taken first,
            # remember the taken path.
            if len(self._decisions) < self.config.max_decision_depth:
                self._decisions.append(_DecisionPoint(
                    entries=self._builder.snapshot_entries(),
                    entry_stacks=list(self._entry_stacks),
                    pc=pc,
                    taken_target=self._intern(pc + inst.imm,
                                              pc + inst.imm),
                    call_stack=self._call_stack,
                    walked=self._walked,
                ))
            return False, fall, False
        if kind is Kind.JUMP:
            return False, inst.imm, False
        if kind is Kind.CALL:
            if len(self._call_stack) >= self.config.max_call_depth:
                return False, None, True  # too deep; end the path
            self._call_stack = self._call_stack + (self._intern(fall, fall),)
            return False, inst.imm, False
        if kind is Kind.JUMP_INDIRECT:
            if inst.is_return and self._call_stack:
                target = self._call_stack[-1]
                self._call_stack = self._call_stack[:-1]
                return False, target, False
            return False, None, True  # statically opaque target
        if kind is Kind.CALL_INDIRECT:
            return False, None, True
        return False, fall, False
