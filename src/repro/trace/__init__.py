"""Trace substrate: trace identity, selection rules, and the trace cache."""

from repro.trace.selection import (
    SelectionConfig,
    TraceBuilder,
    traces_of_stream,
)
from repro.trace.trace import MAX_TRACE_LENGTH, Trace, TraceID
from repro.trace.trace_cache import (
    BYTES_PER_ENTRY,
    TraceCache,
    TraceCacheConfig,
)

__all__ = [
    "SelectionConfig", "TraceBuilder", "traces_of_stream",
    "MAX_TRACE_LENGTH", "Trace", "TraceID", "BYTES_PER_ENTRY", "TraceCache",
    "TraceCacheConfig",
]
