"""Parallel-runtime scaling bench (beyond the paper).

Exercises the `repro.runtime` parallel paths end to end: the Figure 6
sweep fanned over a process pool, a 1e6-trial structure-function Monte
Carlo batch. Prints the jobs→wall-time scaling
ladder, re-checks the bit-identity guarantee on every ladder rung, and
-- on hosts with at least 4 cores -- asserts the ≥2x wall-clock speedup
at 4 workers (on smaller hosts the pool can only add overhead, so the
assertion is informational only there).
"""

import os

import numpy as np

from repro.analysis.sweep import reliability_sweep
from repro.core import DRAConfig
from repro.runtime import (
    Stopwatch,
    parallel_reliability_sweep,
    parallel_structure_function_reliability,
)

TIMES = np.linspace(0.0, 100_000.0, 21)
MC_TRIALS = 1_000_000
JOBS_LADDER = (1, 2, 4)


def _print_ladder(title, unit, rows):
    base = rows[0][1]
    print(f"\n=== {title} ===")
    print(f"{'jobs':>5} {'wall (s)':>10} {unit + '/s':>14} {'speedup':>8}")
    for jobs, wall, items in rows:
        rate = items / wall if wall else 0.0
        print(f"{jobs:>5} {wall:>10.3f} {rate:>14,.0f} {base / wall:>7.2f}x")
    return base / rows[-1][1]


def _assert_speedup_if_multicore(speedup_at_max):
    if (os.cpu_count() or 1) >= 4:
        assert speedup_at_max >= 2.0, (
            f"expected >=2x speedup at {JOBS_LADDER[-1]} workers on a "
            f"{os.cpu_count()}-core host, got {speedup_at_max:.2f}x"
        )


def test_mc_batch_scaling(benchmark):
    cfg = DRAConfig(n=9, m=4)
    reference = None
    rows = []
    for jobs in JOBS_LADDER:
        with Stopwatch() as sw:
            est = parallel_structure_function_reliability(
                cfg, TIMES, MC_TRIALS, 2024, jobs=jobs
            )
        rows.append((jobs, sw.elapsed, MC_TRIALS))
        if reference is None:
            reference = est.reliability
        else:
            assert np.array_equal(reference, est.reliability), (
                f"jobs={jobs} changed the seeded MC estimate"
            )
    benchmark(
        parallel_structure_function_reliability,
        cfg, TIMES, MC_TRIALS, 2024, jobs=JOBS_LADDER[-1],
    )
    speedup = _print_ladder(
        f"structure-function MC, {MC_TRIALS:,} trials (DRA N=9, M=4)",
        "trials", rows,
    )
    _assert_speedup_if_multicore(speedup)


def test_fig6_sweep_scaling(benchmark):
    serial = reliability_sweep(times=TIMES)
    rows = []
    for jobs in JOBS_LADDER:
        with Stopwatch() as sw:
            records = parallel_reliability_sweep(times=TIMES, jobs=jobs)
        rows.append((jobs, sw.elapsed, len(records)))
        assert records == serial, f"jobs={jobs} changed the sweep records"
    benchmark(parallel_reliability_sweep, times=TIMES, jobs=JOBS_LADDER[-1])
    speedup = _print_ladder(
        "Figure 6 reliability sweep (13 chains x 21 time points)",
        "points", rows,
    )
    _assert_speedup_if_multicore(speedup)
