"""Parallel sweeps must be indistinguishable from their serial originals."""

import numpy as np

from repro.analysis.sweep import (
    availability_sweep,
    performance_sweep,
    reliability_sweep,
)
from repro.core import RepairPolicy
from repro.runtime import (
    RuntimeMetrics,
    parallel_availability_sweep,
    parallel_performance_sweep,
    parallel_reliability_sweep,
)

TIMES = np.linspace(0.0, 100_000.0, 6)
CONFIGS = [(3, 2), (5, 3), (9, 4)]


class TestReliabilitySweep:
    def test_matches_serial_records_exactly(self):
        serial = reliability_sweep(times=TIMES, configs=CONFIGS)
        for jobs in (1, 2):
            assert parallel_reliability_sweep(
                times=TIMES, configs=CONFIGS, jobs=jobs
            ) == serial

    def test_variant_and_no_bdr_forwarded(self):
        serial = reliability_sweep(
            times=TIMES, configs=[(4, 2)], variant="extended", include_bdr=False
        )
        parallel = parallel_reliability_sweep(
            times=TIMES, configs=[(4, 2)], variant="extended",
            include_bdr=False, jobs=2,
        )
        assert parallel == serial

    def test_metrics_recorded(self):
        metrics = RuntimeMetrics()
        records = parallel_reliability_sweep(
            times=TIMES, configs=[(3, 2)], metrics=metrics
        )
        assert len(metrics.stages) == 1
        assert metrics.stages[0].items == len(records)
        assert metrics.stages[0].wall_s >= 0.0
        assert "points" in metrics.format_table()


class TestAvailabilitySweep:
    def test_matches_serial_records_exactly(self):
        serial = availability_sweep(configs=CONFIGS)
        for jobs in (1, 2):
            assert parallel_availability_sweep(configs=CONFIGS, jobs=jobs) == serial

    def test_custom_repairs_forwarded(self):
        repairs = [RepairPolicy(mu=0.1)]
        serial = availability_sweep(configs=[(3, 2)], repairs=repairs)
        assert parallel_availability_sweep(
            configs=[(3, 2)], repairs=repairs, jobs=2
        ) == serial


class TestPerformanceSweep:
    def test_matches_serial_records_exactly(self):
        assert parallel_performance_sweep(jobs=4) == performance_sweep()
