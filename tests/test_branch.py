"""Unit tests for the branch-prediction substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import (
    Bias,
    BimodalPredictor,
    NextTracePredictor,
    NextTracePredictorConfig,
    PathHistory,
    ReturnAddressStack,
    fold_ids,
)


class TestBimodal:
    def test_counter_saturates(self):
        predictor = BimodalPredictor(entries=64, initial=1)
        pc = 0x1000
        for _ in range(10):
            predictor.update(pc, taken=True)
        assert predictor.counter(pc) == 3
        for _ in range(10):
            predictor.update(pc, taken=False)
        assert predictor.counter(pc) == 0

    def test_prediction_follows_training(self):
        predictor = BimodalPredictor(entries=64)
        pc = 0x2000
        predictor.update(pc, taken=True)
        predictor.update(pc, taken=True)
        assert predictor.predict(pc) is True

    def test_bias_classes(self):
        predictor = BimodalPredictor(entries=64, initial=1)
        pc = 0x3000
        assert predictor.bias(pc) is Bias.WEAK
        predictor.update(pc, taken=True)
        predictor.update(pc, taken=True)
        assert predictor.bias(pc) is Bias.STRONG_TAKEN
        for _ in range(3):
            predictor.update(pc, taken=False)
        assert predictor.bias(pc) is Bias.STRONG_NOT_TAKEN

    def test_misprediction_accounting(self):
        predictor = BimodalPredictor(entries=64, initial=1)
        pc = 0x4000
        predicted = predictor.predict(pc)
        predictor.update(pc, taken=not predicted, predicted=predicted)
        assert predictor.mispredictions == 1
        assert predictor.misprediction_rate == 1.0

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=100)

    def test_distinct_branches_do_not_interfere(self):
        predictor = BimodalPredictor(entries=4096, initial=1)
        predictor.update(0x1000, taken=True)
        predictor.update(0x1000, taken=True)
        assert predictor.peek(0x2000) is False


class TestReturnAddressStack:
    def test_lifo_order(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(depth=2)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.overflows == 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


class TestPathHistory:
    def test_bounded_depth(self):
        history = PathHistory(depth=3)
        for i in range(5):
            history.append(i)
        assert history.ids() == (2, 3, 4)

    def test_hash_is_order_sensitive(self):
        assert fold_ids([1, 2]) != fold_ids([2, 1])

    def test_partial_hash(self):
        history = PathHistory(depth=4, initial=[1, 2, 3, 4])
        assert history.hash(length=1) == fold_ids([4])

    def test_snapshot_restore(self):
        history = PathHistory(depth=4, initial=[1, 2])
        snap = history.snapshot()
        history.append(3)
        history.restore(snap)
        assert history.ids() == (1, 2)


class TestNextTracePredictor:
    def test_learns_repeating_sequence(self):
        predictor = NextTracePredictor()
        sequence = ["A", "B", "C", "D"] * 30
        correct_late = 0
        for i, actual in enumerate(sequence):
            predicted = predictor.predict()
            predictor.update(actual, predicted)
            if i >= len(sequence) - 8 and predicted == actual:
                correct_late += 1
        assert correct_late >= 7  # fully learned by the end

    def test_no_prediction_when_cold(self):
        predictor = NextTracePredictor()
        assert predictor.predict() is None
        assert predictor.no_prediction == 1

    def test_secondary_table_covers_new_contexts(self):
        """After learning A->B in one context, a different path ending in
        A still yields B via the short-history secondary table.

        Uses integer trace identities: real trace IDs hash
        deterministically (``TraceID`` folds tuples of ints), whereas
        raw strings are salted by ``PYTHONHASHSEED`` and make the
        table-collision pattern — hence the outcome — run-dependent."""
        a, b, q = 0xA, 0xB, 0x0
        predictor = NextTracePredictor(NextTracePredictorConfig(
            primary_entries=1024, secondary_entries=256, history_depth=4))
        for prefix in (0x1, 0x2, 0x3, 0x4):
            predictor.update(prefix, None)
            predictor.update(a, None)
            predictor.update(b, None)
        # Fresh context ending in A:
        predictor.update(q, None)
        predictor.update(a, None)
        assert predictor.predict() == b

    def test_rhs_restores_history_across_calls(self):
        """Caller-side history is preserved across a callee whose traces
        would otherwise pollute the path."""
        config = NextTracePredictorConfig(history_depth=2, rhs_depth=8)
        predictor = NextTracePredictor(config)
        predictor.update("caller1", None)
        predictor.update("call_trace", None, ends_in_call=True)
        before = predictor.history.ids()
        predictor.update("callee_a", None)
        predictor.update("callee_ret", None, ends_in_return=True)
        # History = restored snapshot + the returning trace appended.
        assert predictor.history.ids() == (before + ("callee_ret",))[-2:]

    def test_accuracy_property(self):
        predictor = NextTracePredictor()
        for actual in ["A", "B"] * 50:
            predicted = predictor.predict()
            predictor.update(actual, predicted)
        assert 0.0 <= predictor.accuracy <= 1.0
        assert predictor.accuracy > 0.5

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            NextTracePredictorConfig(primary_entries=1000)


class _ReferenceNextTracePredictor:
    """The predictor as one object per table entry, each holding a
    prediction and a 2-bit hysteresis counter — the model the flat
    tables must reproduce."""

    class Entry:
        def __init__(self):
            self.prediction = None
            self.confidence = 0

    def __init__(self, config):
        self.config = config
        self.primary = [self.Entry() for _ in range(config.primary_entries)]
        self.secondary = [self.Entry()
                          for _ in range(config.secondary_entries)]
        self.history = PathHistory(depth=config.history_depth)
        self.rhs = []

    def _entries(self):
        return (self.primary[self.history.hash()
                             % self.config.primary_entries],
                self.secondary[self.history.hash(length=1)
                               % self.config.secondary_entries])

    def predict(self):
        for entry in self._entries():
            if entry.prediction is not None:
                return entry.prediction
        return None

    def update(self, actual, ends_in_call, ends_in_return):
        for entry in self._entries():
            if entry.prediction == actual:
                entry.confidence = min(3, entry.confidence + 1)
            elif entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.prediction = actual
                entry.confidence = 1
        self.history.append(actual)
        if ends_in_call:
            if len(self.rhs) >= self.config.rhs_depth:
                self.rhs.pop(0)
            self.rhs.append(self.history.snapshot())
        if ends_in_return and self.rhs:
            self.history.restore(self.rhs.pop())
            self.history.append(actual)


class TestFlatNextTraceTables:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 11), st.booleans(),
                              st.booleans()), max_size=300),
           st.sampled_from([(16, 4, 2, 3), (64, 16, 4, 8), (4, 1, 1, 1)]))
    def test_matches_per_entry_model(self, sequence, geometry):
        primary, secondary, depth, rhs = geometry
        config = NextTracePredictorConfig(
            primary_entries=primary, secondary_entries=secondary,
            history_depth=depth, rhs_depth=rhs)
        flat = NextTracePredictor(config)
        model = _ReferenceNextTracePredictor(config)
        for trace_id, call, ret in sequence:
            predicted = flat.predict()
            assert predicted == model.predict()
            flat.update(trace_id, predicted, ends_in_call=call,
                        ends_in_return=ret)
            model.update(trace_id, call, ret)
        assert flat._primary == [e.prediction for e in model.primary]
        assert list(flat._primary_confidence) == [
            e.confidence for e in model.primary]
        assert flat._secondary == [e.prediction for e in model.secondary]
        assert list(flat._secondary_confidence) == [
            e.confidence for e in model.secondary]
