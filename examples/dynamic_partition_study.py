#!/usr/bin/env python3
"""Dynamic trace-storage partitioning study (the paper's future work).

The paper notes gcc wants a small preconstruction buffer and go a large
one, and suggests dynamic allocation without investigating it.  This
example runs the hill-climbing partition controller implemented in
:mod:`repro.sim.dynamic_partition` against the static splits and prints
the adaptation trajectory.

Run:  python examples/dynamic_partition_study.py [instructions]
"""

from __future__ import annotations

import sys

from repro.api import (
    DynamicPartitionConfig,
    StreamCache,
    build_frontend_config,
    run_frontend,
)

TOTAL = 512


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 80_000
    cache = StreamCache(instructions=instructions)
    for benchmark in ("gcc", "go"):
        image = cache.image(benchmark)
        stream = cache.stream(benchmark)
        print(f"\n=== {benchmark} ({instructions} instructions, "
              f"{TOTAL}-entry budget) ===")
        for pb in (32, 128, 256):
            config = build_frontend_config(TOTAL - pb, pb)
            result = run_frontend(image, config, len(stream), stream=stream)
            print(f"static  TC={TOTAL - pb:3d} PB={pb:3d}: "
                  f"{result.stats.trace_miss_rate_per_ki:6.2f} miss/KI")
        # The controller re-divides the point's own TC+PB total,
        # starting from its split.
        result = run_frontend(
            image, build_frontend_config(TOTAL - 128, 128), stream=stream,
            partition=DynamicPartitionConfig())
        events = result.partition_events or []
        print(f"dynamic (start PB=128):  "
              f"{result.stats.trace_miss_rate_per_ki:6.2f} miss/KI")
        print(f"  PB trajectory: "
              f"{[event.pb_entries for event in events]}")
        print(f"  epoch miss rates: "
              f"{[round(e.epoch_miss_rate, 4) for e in events]}")
    print("\nObservation: at this run scale the repartitioning disturbance")
    print("(index reshuffling, recency loss) roughly cancels the adaptation")
    print("benefit — consistent with the paper leaving the split static.")


if __name__ == "__main__":
    main()
