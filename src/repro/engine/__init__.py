"""Functional execution engine producing the dynamic instruction stream."""

from repro.engine.functional import ExecutionError, FunctionalEngine
from repro.engine.state import ArchState, to_signed, to_unsigned
from repro.engine.stream import Stream, StreamRecord, as_stream

__all__ = [
    "ExecutionError", "FunctionalEngine", "ArchState", "to_signed",
    "to_unsigned", "Stream", "StreamRecord", "as_stream",
]
