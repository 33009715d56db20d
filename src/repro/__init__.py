"""Reproduction of "Trace Preconstruction" (Jacobson & Smith, ISCA 2000).

A from-scratch trace-processor simulation stack:

* :mod:`repro.isa` / :mod:`repro.program` / :mod:`repro.workloads` —
  a RISC ISA, static program representation, and synthetic SPECint95
  stand-in workloads;
* :mod:`repro.engine` — functional execution producing dynamic streams;
* :mod:`repro.caches` / :mod:`repro.branch` / :mod:`repro.trace` —
  the memory and prediction substrate plus trace selection/caching;
* :mod:`repro.core` — **trace preconstruction**, the paper's
  contribution;
* :mod:`repro.preprocess` / :mod:`repro.processor` — fill-unit
  preprocessing and the trace-processor timing model;
* :mod:`repro.sim` / :mod:`repro.analysis` — simulation drivers and
  the per-table / per-figure experiment reproductions;
* :mod:`repro.static` — static binary analysis over linked images:
  CFG recovery, dominators/natural loops, call graph, the program
  verifier behind ``python -m repro analyze``, and static region
  seeding for ``--static-seed`` runs;
* :mod:`repro.runner` — experiment descriptions (`ExperimentSpec`),
  a content-addressed result cache, and a benchmark-grouped process
  pool behind ``python -m repro all --jobs N``;
* :mod:`repro.obs` — observability: the cycle-domain event bus,
  interval metrics, run manifests, Chrome/Perfetto export and stdlib
  logging behind ``python -m repro stats`` / ``trace``;
* :mod:`repro.telemetry` — host-domain (wall-clock) observability of
  the harness itself: span tracing across the process pool, the
  OpenMetrics registry, merged host+sim Perfetto export and
  ``cProfile`` capture behind ``--telemetry-json`` /
  ``python -m repro profile``;
* :mod:`repro.api` — the stable import facade for all of the above.

Quickstart::

    from repro.api import ExperimentSpec, run_point

    base = ExperimentSpec(benchmark="gcc", tc_entries=256)
    pre = base.replace(pb_entries=256)
    print(run_point(base).metrics["trace_misses_per_ki"], "->",
          run_point(pre).metrics["trace_misses_per_ki"])
"""

__version__ = "1.7.0"

__all__ = ["__version__"]
