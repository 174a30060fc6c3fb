"""Sweeps, paper-style tables and export helpers."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SweepRecord": "repro.analysis.sweep",
    "reliability_sweep": "repro.analysis.sweep",
    "availability_sweep": "repro.analysis.sweep",
    "performance_sweep": "repro.analysis.sweep",
    "format_reliability_table": "repro.analysis.tables",
    "format_availability_table": "repro.analysis.tables",
    "format_performance_table": "repro.analysis.tables",
    "format_series": "repro.analysis.tables",
    "chain_to_networkx": "repro.analysis.export",
    "records_to_csv": "repro.analysis.export",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
