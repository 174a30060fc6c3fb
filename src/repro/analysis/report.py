"""Markdown experiment-report generation.

Regenerates the paper's full evaluation (Figures 6-8 plus the extension
studies) and renders it as a single Markdown document -- the programmatic
source of ``EXPERIMENTS.md``.  Running it is the one-command check that
the reproduction still holds end to end:

    python -m repro.analysis.report > EXPERIMENTS_regenerated.md

The figure sweeps run through the :mod:`repro.runtime` layer, so
``generate_report(jobs=...)`` (or ``python -m repro report --jobs N``)
fans the chain solves out over a process pool; the closing "Runtime"
section reports wall time and throughput per stage either way.
"""

from __future__ import annotations

import io

import numpy as np

from repro.analysis.sweep import FIG6_CONFIGS
from repro.analysis.tables import (
    format_availability_table,
    format_performance_table,
    format_reliability_table,
)
from repro.core import (
    DRAConfig,
    RepairPolicy,
    bdr_mttf,
    compare_designs,
    dra_mttf,
    unavailability_elasticities,
)

__all__ = ["generate_report"]

_LANDMARKS = [0.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0, 100_000.0]
_FIG6_SHOWN = (
    "BDR",
    "DRA(N=3,M=2)",
    "DRA(N=6,M=2)",
    "DRA(N=9,M=2)",
    "DRA(N=9,M=4)",
    "DRA(N=9,M=8)",
)


def generate_report(*, jobs: int = 1) -> str:
    """Regenerate every experiment and render the Markdown report.

    Parameters
    ----------
    jobs:
        Worker processes for the figure sweeps (0 = all cores, 1 = serial;
        the record values are identical either way).
    """
    from repro.obs import MetricsRegistry, collecting
    from repro.runtime import RuntimeMetrics

    metrics = RuntimeMetrics()
    registry = MetricsRegistry()
    with collecting(registry):
        return _render(metrics, registry, jobs)


def _render(metrics, registry, jobs: int) -> str:
    from repro.runtime import (
        Stopwatch,
        parallel_availability_sweep,
        parallel_performance_sweep,
        parallel_reliability_sweep,
    )

    out = io.StringIO()
    w = out.write

    w("# Regenerated evaluation — DRA (ICPP 2004)\n\n")
    w("All tables below are computed live from the library; the narrative\n")
    w("comparisons with the paper are maintained in EXPERIMENTS.md.\n\n")

    # Figure 6.
    w("## Figure 6 — LC reliability R(t)\n\n```\n")
    recs = parallel_reliability_sweep(
        times=np.array(_LANDMARKS), configs=FIG6_CONFIGS,
        jobs=jobs, metrics=metrics,
    )
    shown = [r for r in recs if r.label in _FIG6_SHOWN]
    w(format_reliability_table(shown, time_points=_LANDMARKS))
    w("\n```\n\n")

    # Figure 7.
    w("## Figure 7 — steady-state availability\n\n```\n")
    arecs = parallel_availability_sweep(
        configs=[(3, 2), (5, 2), (9, 2), (9, 4), (9, 6), (9, 8)],
        jobs=jobs, metrics=metrics,
    )
    w(format_availability_table(arecs))
    w("\n```\n\n")

    # Figure 8.
    w("## Figure 8 — bandwidth available to faulty LCs (N = 6)\n\n```\n")
    w(format_performance_table(
        parallel_performance_sweep(jobs=jobs, metrics=metrics)
    ))
    w("\n```\n\n")

    # MTTF extension.
    w("## Extension — MTTF per configuration\n\n```\n")
    w(f"{'config':>14} {'MTTF (h)':>12} {'vs BDR':>8}\n")
    with Stopwatch() as sw:
        base = bdr_mttf()
        w(f"{'BDR':>14} {base.hours:>12.0f} {'1.00x':>8}\n")
        mttf_configs = [(3, 2), (6, 2), (9, 2), (9, 4), (9, 8)]
        for n, m in mttf_configs:
            res = dra_mttf(DRAConfig(n=n, m=m))
            w(f"{res.label:>14} {res.hours:>12.0f} {res.hours / base.hours:>7.2f}x\n")
    metrics.record("MTTF extension", sw.elapsed,
                   items=len(mttf_configs) + 1, unit="points")
    w("```\n\n")

    # Elasticities extension.
    w("## Extension — unavailability elasticities, DRA(9, 4), mu = 1/3\n\n```\n")
    for r in unavailability_elasticities(DRAConfig(n=9, m=4)):
        w(f"  {r.field:>8} {r.elasticity:+6.3f}\n")
    w("```\n\n")

    # Cost extension.
    w("## Extension — cost vs availability (LC cost = 1.0, mu = 1/3)\n\n```\n")
    for d in compare_designs(8, 2, RepairPolicy.three_hours()):
        w(f"  {d.label:<24} cost {d.cost:6.2f}   A = {d.availability:.12f}\n")
    w("```\n\n")

    # Runtime instrumentation (wall time / throughput per stage above).
    w("## Runtime — wall time per stage\n\n```\n")
    w(metrics.format_table())
    w("\n```\n\n")

    # Observability: solver/model counters collected while the sections
    # above ran (merged across workers when jobs > 1; identical content
    # for any jobs value -- see docs/observability.md).
    w("## Observability — collected metrics\n\n```\n")
    w(registry.format_table() if len(registry) else "(no metrics recorded)")
    w("\n```\n")

    return out.getvalue()


if __name__ == "__main__":  # pragma: no cover - exercised via CLI test
    print(generate_report())
