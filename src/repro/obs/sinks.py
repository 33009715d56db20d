"""Event sinks: where the bus delivers cycle-stamped event records.

A sink consumes plain dicts (JSON-serialisable scalars only) via
:meth:`emit`.  Three implementations cover the use cases:

* :class:`NullSink` — discard everything (the "enabled but silent"
  configuration; the truly zero-cost configuration is no bus at all);
* :class:`JsonlSink` — stream each record to a file as one compact,
  key-sorted JSON object per line, so identical event sequences yield
  byte-identical files;
* :class:`RingBufferSink` — keep the last ``capacity`` records in
  memory (unbounded when ``capacity`` is ``None``), the sink behind
  :func:`repro.runner.run_observed`.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Optional

Record = dict[str, Any]


def _encode(record: Record) -> str:
    """One canonical JSONL line: compact separators, sorted keys."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class EventSink:
    """Base sink: subclasses override :meth:`emit`."""

    def emit(self, record: Record) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resource (idempotent)."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(EventSink):
    """Discard every record."""

    def emit(self, record: Record) -> None:
        pass


class RingBufferSink(EventSink):
    """Keep the last ``capacity`` records (all of them when ``None``)."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.events: deque[Record] = deque(maxlen=capacity)

    @property
    def capacity(self) -> Optional[int]:
        return self.events.maxlen

    def emit(self, record: Record) -> None:
        self.events.append(record)

    def drain(self) -> list[Record]:
        """Return and clear the buffered records."""
        drained = list(self.events)
        self.events.clear()
        return drained


class JsonlSink(EventSink):
    """Stream records to ``path``, one canonical JSON object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w", encoding="utf-8")
        self.emitted = 0

    def emit(self, record: Record) -> None:
        self._fh.write(_encode(record))
        self._fh.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def write_events_jsonl(events: Iterable[Record], path: str | Path) -> Path:
    """Write an in-memory event sequence in :class:`JsonlSink` format."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as fh:
        for record in events:
            fh.write(_encode(record))
            fh.write("\n")
    return target


def read_events_jsonl(path: str | Path) -> list[Record]:
    """Load an event file written by :class:`JsonlSink`."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
