"""Property-based tests (hypothesis) on core data structures and the
trace-selection / preprocessing invariants that preconstruction's
correctness rests on."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import BimodalPredictor, PathHistory, ReturnAddressStack
from repro.caches import SetAssociativeCache
from repro.core import StartPointStack
from repro.engine import FunctionalEngine
from repro.preprocess import propagate_constants
from repro.preprocess.scheduler import schedule_order
from repro.preprocess.dependence import build_dependence_graph
from repro.trace import SelectionConfig, traces_of_stream
from repro.workloads import WorkloadProfile, generate

# ----------------------------------------------------------------------
# Cache properties against a reference model
# ----------------------------------------------------------------------


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)),
                max_size=200),
       st.integers(1, 4), st.integers(1, 4))
def test_setassoc_matches_reference_lru(ops, num_sets, ways):
    """An LRU cache must behave exactly like one OrderedDict-based
    reference per set: lookups, evicted pairs, and the residents listed
    set by set, each set least-recently used first."""
    cache = SetAssociativeCache(num_sets=num_sets, ways=ways,
                                index_fn=lambda key: key)
    reference: list[OrderedDict[int, int]] = [
        OrderedDict() for _ in range(num_sets)]
    for step, (is_insert, key) in enumerate(ops):
        entries = reference[key % num_sets]
        if is_insert:
            expected = None
            if key in entries:
                del entries[key]
            elif len(entries) == ways:
                expected = entries.popitem(last=False)
            entries[key] = step
            assert cache.insert(key, step) == expected
        else:
            assert cache.lookup(key) == entries.get(key)
            if key in entries:
                entries.move_to_end(key)
    assert list(cache.items()) == [
        pair for entries in reference for pair in entries.items()]
    assert cache.occupancy() == sum(map(len, reference))
    assert cache.stats.hits + cache.stats.misses == cache.stats.accesses


@given(st.lists(st.integers(0, 1023), max_size=300),
       st.integers(1, 3))
def test_bimodal_counters_stay_in_range(pcs, initial):
    predictor = BimodalPredictor(entries=64, initial=initial)
    for i, pc in enumerate(pcs):
        predictor.update(pc * 4, taken=bool(i & 1))
        assert 0 <= predictor.counter(pc * 4) <= 3


@given(st.lists(st.integers(), max_size=100), st.integers(1, 8))
def test_path_history_keeps_last_n(values, depth):
    history = PathHistory(depth=depth)
    for value in values:
        history.append(value)
    assert history.ids() == tuple(values[-depth:])


@given(st.lists(st.integers(0, 1 << 20), max_size=100), st.integers(1, 16))
def test_ras_never_exceeds_depth(pushes, depth):
    ras = ReturnAddressStack(depth=depth)
    for addr in pushes:
        ras.push(addr)
        assert len(ras) <= depth
    # Pops return the most recent surviving pushes, newest first.
    survivors = pushes[-depth:]
    for expected in reversed(survivors):
        assert ras.pop() == expected


@given(st.lists(st.integers(0, 40), max_size=120), st.integers(1, 16))
def test_start_point_stack_bounded_and_top_deduped(pcs, depth):
    stack = StartPointStack(depth=depth, completed_memory=0)
    previous_top = None
    for pc in pcs:
        pushed = stack.push(pc)
        assert len(stack) <= depth
        if previous_top == pc:
            assert not pushed
        previous_top = stack.peek_newest()


# ----------------------------------------------------------------------
# Whole-pipeline invariants on randomly generated programs
# ----------------------------------------------------------------------

profile_strategy = st.builds(
    WorkloadProfile,
    name=st.just("prop"),
    seed=st.integers(0, 2**16),
    procedures=st.integers(2, 8),
    constructs_min=st.just(2),
    constructs_max=st.integers(3, 5),
    loop_weight=st.floats(0.1, 0.4),
    diamond_weight=st.floats(0.1, 0.4),
    switch_weight=st.sampled_from([0.0, 0.1]),
    call_weight=st.floats(0.05, 0.3),
    biased_fraction=st.floats(0.0, 1.0),
    call_guard_prob=st.floats(0.0, 0.8),
    fanout=st.integers(1, 3),
)


@settings(max_examples=15, deadline=None)
@given(profile_strategy)
def test_generated_programs_execute_and_partition(profile):
    """Any generated program: executes without wild control flow, and
    its trace partition exactly tiles the dynamic stream."""
    workload = generate(profile)
    stream = FunctionalEngine(workload.image).run(3000)
    traces = traces_of_stream(stream)
    flat = [pc for trace in traces for pc in trace.pcs]
    assert flat == [record.pc for record in stream]
    for prev, cur in zip(traces, traces[1:]):
        assert prev.next_pc == cur.start_pc


@settings(max_examples=10, deadline=None)
@given(profile_strategy, st.integers(0, 3))
def test_trace_identity_uniqueness(profile, align_choice):
    """The invariant preconstruction depends on: a trace identity maps
    to exactly one instruction sequence, for any alignment setting."""
    selection = SelectionConfig(align_multiple=(0, 2, 4, 8)[align_choice])
    workload = generate(profile)
    stream = FunctionalEngine(workload.image).run(3000)
    seen = {}
    for trace in traces_of_stream(stream, selection):
        if trace.partial:
            continue  # cut by the measurement boundary, never cached
        key = trace.trace_id
        if key in seen:
            assert seen[key] == trace.pcs
        else:
            seen[key] = trace.pcs


@settings(max_examples=10, deadline=None)
@given(profile_strategy)
def test_scheduler_output_is_legal_topological_order(profile):
    """For every trace of a random program, the scheduled order must
    respect the dependence graph of the *original* order."""
    workload = generate(profile)
    stream = FunctionalEngine(workload.image).run(2000)
    for trace in traces_of_stream(stream):
        original = trace.instructions
        order = schedule_order(original)
        assert sorted(order) == list(range(len(original)))  # permutation
        graph = build_dependence_graph(original)
        position = {src: i for i, src in enumerate(order)}
        for dst, preds in enumerate(graph.preds):
            for src in preds:
                assert position[src] < position[dst]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16))
def test_constprop_preserves_branch_outcomes(seed):
    """Constant propagation must never change what a trace computes:
    re-executing the committed path with folded instructions gives the
    same architectural register results per instruction position."""
    profile = WorkloadProfile(name="prop", seed=seed, procedures=3,
                              constructs_min=2, constructs_max=4)
    workload = generate(profile)
    stream = FunctionalEngine(workload.image).run(1500)
    for trace in traces_of_stream(stream):
        folded = propagate_constants(trace.instructions)
        # Same ops at control positions; same destinations everywhere.
        for a, b in zip(trace.instructions, folded):
            assert a.destination_register() == b.destination_register()
            if a.is_control:
                assert a == b
