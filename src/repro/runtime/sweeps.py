"""Parallel drivers for the Figure 6/7/8 sweeps.

Each driver is a drop-in equivalent of its serial counterpart in
:mod:`repro.analysis.sweep`: same arguments, same record order, same
values.  The unit of parallel work is one *curve* -- a (configuration,
repair-policy) pair -- because each unit builds and solves an independent
Markov chain, which is where all the time goes; the per-unit record
lists are merged back in serial submission order so the output is
indistinguishable from a serial run.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.analysis.sweep import (
    FIG6_CONFIGS,
    FIG6_TIME_GRID,
    FIG7_CONFIGS,
    SweepRecord,
    availability_sweep,
    performance_sweep,
    reliability_sweep,
)
from repro.core.parameters import FailureRates, RepairPolicy
from repro.core.performance import DEFAULT_LC_CAPACITY_GBPS
from repro.runtime.executor import effective_jobs, metered_parallel_map
from repro.runtime.timing import RuntimeMetrics, Stopwatch

__all__ = [
    "parallel_reliability_sweep",
    "parallel_availability_sweep",
    "parallel_performance_sweep",
]

#: Sentinel naming the baseline curve in a work-unit spec.
_BDR = "BDR"


def _reliability_unit(payload: tuple) -> list[SweepRecord]:
    times, spec, rates, variant, method = payload
    if spec == _BDR:
        return reliability_sweep(
            times, configs=(), rates=rates, include_bdr=True, method=method
        )
    n, m = spec
    return reliability_sweep(
        times,
        configs=[(n, m)],
        rates=rates,
        variant=variant,
        include_bdr=False,
        method=method,
    )


def parallel_reliability_sweep(
    times: np.ndarray | None = None,
    configs: Iterable[tuple[int, int]] | None = None,
    rates: FailureRates | None = None,
    *,
    variant: str = "paper",
    include_bdr: bool = True,
    method: str = "expm_multiply",
    jobs: int = 1,
    metrics: RuntimeMetrics | None = None,
) -> list[SweepRecord]:
    """Figure 6 records, one worker task per reliability curve."""
    times = FIG6_TIME_GRID if times is None else np.asarray(times, dtype=np.float64)
    configs = FIG6_CONFIGS if configs is None else tuple(configs)
    rates = rates or FailureRates()
    jobs = effective_jobs(jobs)
    specs: list[Any] = ([_BDR] if include_bdr else []) + list(configs)
    payloads = [(times, spec, rates, variant, method) for spec in specs]
    with Stopwatch() as sw:
        per_unit = metered_parallel_map(_reliability_unit, payloads, jobs=jobs)
    records = [rec for unit in per_unit for rec in unit]
    if metrics is not None:
        metrics.record(
            "reliability sweep (Figure 6)",
            sw.elapsed,
            items=len(records),
            unit="points",
            jobs=jobs,
        )
    return records


def _availability_unit(payload: tuple) -> list[SweepRecord]:
    spec, repair, rates, variant = payload
    if spec == _BDR:
        return availability_sweep(
            configs=(), repairs=[repair], rates=rates, include_bdr=True
        )
    n, m = spec
    return availability_sweep(
        configs=[(n, m)],
        repairs=[repair],
        rates=rates,
        variant=variant,
        include_bdr=False,
    )


def parallel_availability_sweep(
    configs: Iterable[tuple[int, int]] | None = None,
    repairs: Sequence[RepairPolicy] | None = None,
    rates: FailureRates | None = None,
    *,
    variant: str = "paper",
    include_bdr: bool = True,
    jobs: int = 1,
    metrics: RuntimeMetrics | None = None,
) -> list[SweepRecord]:
    """Figure 7 records, one worker task per (repair policy, config)."""
    configs = FIG7_CONFIGS if configs is None else tuple(configs)
    repairs = tuple(repairs) if repairs else (
        RepairPolicy.three_hours(),
        RepairPolicy.half_day(),
    )
    rates = rates or FailureRates()
    jobs = effective_jobs(jobs)
    specs: list[tuple[Any, RepairPolicy]] = []
    for rp in repairs:
        if include_bdr:
            specs.append((_BDR, rp))
        specs.extend(((n, m), rp) for n, m in configs)
    payloads = [(spec, rp, rates, variant) for spec, rp in specs]
    with Stopwatch() as sw:
        per_unit = metered_parallel_map(_availability_unit, payloads, jobs=jobs)
    records = [rec for unit in per_unit for rec in unit]
    if metrics is not None:
        metrics.record(
            "availability sweep (Figure 7)",
            sw.elapsed,
            items=len(records),
            unit="points",
            jobs=jobs,
        )
    return records


def parallel_performance_sweep(
    loads: Sequence[float] | None = None,
    *,
    n: int = 6,
    c_lc: float = DEFAULT_LC_CAPACITY_GBPS,
    b_bus: float | None = None,
    jobs: int = 1,  # noqa: ARG001 - accepted for API uniformity
    metrics: RuntimeMetrics | None = None,
) -> list[SweepRecord]:
    """Figure 8 records (algebraic -- microseconds of work, so the
    ``jobs`` argument is accepted for uniformity but the computation runs
    in-process)."""
    with Stopwatch() as sw:
        records = performance_sweep(loads=loads, n=n, c_lc=c_lc, b_bus=b_bus)
    if metrics is not None:
        metrics.record(
            "performance sweep (Figure 8)",
            sw.elapsed,
            items=len(records),
            unit="points",
            jobs=1,
        )
    return records
