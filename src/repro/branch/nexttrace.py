"""Path-based next-trace predictor with hybrid backup and RHS.

Implements the predictor the paper's frontend relies on (§6, item 1):

* a **correlated table** indexed by a hash of the last ``depth`` trace
  identities, each entry holding a predicted next-trace id plus a 2-bit
  replacement-hysteresis counter (stored flat: one list of predictions
  and one ``bytearray`` of counters per table, so building a predictor
  allocates two objects per table, not one per entry);
* a **secondary table** indexed by the most recent trace id only, which
  reduces cold-start and aliasing losses (the "hybrid configuration");
* a **Return History Stack** (RHS) that snapshots the path history at
  calls and restores it at returns, so history across a call site is
  not polluted by the callee's traces.

The predictor is generic over hashable trace identities; the frontend
passes :class:`repro.trace.TraceID` values and tells the predictor when
a dispatched trace ends in a call or a return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Hashable, Optional, TypeVar

from repro.branch.history import PathHistory

T = TypeVar("T", bound=Hashable)

_MASK32 = 0xFFFF_FFFF


@dataclass
class NextTracePredictorConfig:
    """Geometry of the hybrid predictor."""

    primary_entries: int = 16384
    secondary_entries: int = 4096
    history_depth: int = 4
    rhs_depth: int = 32

    def __post_init__(self) -> None:
        for field_name in ("primary_entries", "secondary_entries"):
            value = getattr(self, field_name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{field_name} must be a power of two")


class NextTracePredictor(Generic[T]):
    """Hybrid path-based next-trace predictor."""

    def __init__(self, config: NextTracePredictorConfig | None = None) -> None:
        self.config = config or NextTracePredictorConfig()
        cfg = self.config
        # Per table: predicted next-trace ids and 2-bit hysteresis
        # counters (0..3), indexed alike.
        self._primary: list[Optional[T]] = [None] * cfg.primary_entries
        self._primary_confidence = bytearray(cfg.primary_entries)
        self._secondary: list[Optional[T]] = [None] * cfg.secondary_entries
        self._secondary_confidence = bytearray(cfg.secondary_entries)
        self.history: PathHistory = PathHistory(depth=cfg.history_depth)
        self._rhs: list[tuple[Hashable, ...]] = []
        self.predictions = 0
        self.correct = 0
        self.no_prediction = 0

    # ------------------------------------------------------------------
    def _primary_index(self) -> int:
        return self.history.hash() % self.config.primary_entries

    def _secondary_index(self) -> int:
        return self.history.hash(length=1) % self.config.secondary_entries

    # ------------------------------------------------------------------
    def predict(self) -> Optional[T]:
        """Predict the next trace id given current path history.

        The primary (long-history) table wins when it has a prediction;
        otherwise fall back to the secondary table.  Returns ``None``
        when neither table has learned anything for this path — the
        frontend then uses the slow path.
        """
        self.predictions += 1
        prediction = self._primary[self._primary_index()]
        if prediction is not None:
            return prediction
        backup = self._secondary[self._secondary_index()]
        if backup is not None:
            return backup
        self.no_prediction += 1
        return None

    # ------------------------------------------------------------------
    def update(self, actual: T, predicted: Optional[T],
               ends_in_call: bool = False,
               ends_in_return: bool = False) -> None:
        """Train both tables on the observed next trace and advance history.

        ``predicted`` is what :meth:`predict` returned for this slot (so
        accuracy accounting matches what the frontend acted on).  The
        RHS hooks fire *after* the history update: a trace ending in a
        call pushes the updated history; one ending in a return restores
        the matching snapshot.
        """
        if predicted is not None and predicted == actual:
            self.correct += 1
        for table, confidence, index in (
                (self._primary, self._primary_confidence,
                 self._primary_index()),
                (self._secondary, self._secondary_confidence,
                 self._secondary_index())):
            if table[index] == actual:
                if confidence[index] < 3:
                    confidence[index] += 1
            elif confidence[index]:
                confidence[index] -= 1
            else:
                table[index] = actual
                confidence[index] = 1

        self.history.append(actual)
        if ends_in_call:
            if len(self._rhs) >= self.config.rhs_depth:
                self._rhs.pop(0)
            self._rhs.append(self.history.snapshot())
        if ends_in_return and self._rhs:
            self.history.restore(self._rhs.pop())
            # The returned-to path continues after the call: fold the
            # returning trace in so the history reflects the return.
            self.history.append(actual)

    # ------------------------------------------------------------------
    @property
    def accuracy(self) -> float:
        return self.correct / self.predictions if self.predictions else 0.0
