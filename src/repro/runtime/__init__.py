"""Parallel execution runtime: process pools and timing.

The analysis layer (:mod:`repro.analysis`) and the Monte Carlo estimators
(:mod:`repro.montecarlo`) are pure functions of their configuration; this
package supplies the execution substrate that makes bulk evaluation fast
without touching their semantics:

* :mod:`~repro.runtime.executor` -- an order-preserving, chunked
  ``ProcessPoolExecutor`` map with a serial fast path at ``jobs=1``;
* :mod:`~repro.runtime.sweeps` -- parallel drop-in equivalents of the
  Figure 6/7/8 sweeps that fan configuration points out over workers and
  merge records back in serial order;
* :mod:`~repro.runtime.montecarlo` -- parallel Monte Carlo drivers whose
  results are **bit-identical for a given root seed regardless of the
  worker count** (fixed chunking + ``SeedSequence.spawn`` streams +
  order-independent reductions);
* :mod:`~repro.runtime.timing` -- wall-time / throughput instrumentation
  surfaced through ``repro.analysis.report`` and the ``bench`` CLI
  subcommand;
* :mod:`~repro.runtime.throughput` -- the hot-path throughput benchmark
  suite behind ``bench --suite throughput`` and the perf-regression gate
  that compares it against the committed
  ``benchmarks/BASELINE_throughput.json``.

See ``docs/performance.md`` for the worker model, the determinism
guarantee and benchmarking instructions.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_BASELINE_PATH": "repro.runtime.throughput",
    "DEFAULT_THRESHOLD": "repro.runtime.throughput",
    "canonical_throughput_payload": "repro.runtime.throughput",
    "compare_to_baseline": "repro.runtime.throughput",
    "make_baseline": "repro.runtime.throughput",
    "run_throughput_suite": "repro.runtime.throughput",
    "effective_jobs": "repro.runtime.executor",
    "parallel_map": "repro.runtime.executor",
    "metered_parallel_map": "repro.runtime.executor",
    "parallel_structure_function_reliability": "repro.runtime.montecarlo",
    "parallel_unavailability_importance_sampling": "repro.runtime.montecarlo",
    "parallel_reliability_sweep": "repro.runtime.sweeps",
    "parallel_availability_sweep": "repro.runtime.sweeps",
    "parallel_performance_sweep": "repro.runtime.sweeps",
    "RuntimeMetrics": "repro.runtime.timing",
    "StageTiming": "repro.runtime.timing",
    "Stopwatch": "repro.runtime.timing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
