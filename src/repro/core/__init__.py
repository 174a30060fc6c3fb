"""The paper's primary contribution: DRA dependability models.

This subpackage implements Section 5 of the paper exactly:

* :mod:`~repro.core.parameters` -- the component failure rates of Section 5
  and the (N, M) router configuration.
* :mod:`~repro.core.states` -- the typed state space of the Figure 5(b)
  Markov model.
* :mod:`~repro.core.reliability` -- BDR (Fig. 5a) and DRA (Fig. 5b)
  reliability chains and ``R(t)`` evaluation (reproduces Figure 6).
* :mod:`~repro.core.availability` -- repair-augmented chains and
  steady-state availability (reproduces Figure 7).
* :mod:`~repro.core.performance` -- the Section 5.3 bandwidth-degradation
  model (reproduces Figure 8).
* :mod:`~repro.core.nines` -- the paper's "9^x" availability notation.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FailureRates": "repro.core.parameters",
    "DRAConfig": "repro.core.parameters",
    "RepairPolicy": "repro.core.parameters",
    "AllHealthy": "repro.core.states",
    "InterZoneState": "repro.core.states",
    "UAPIState": "repro.core.states",
    "UAPDState": "repro.core.states",
    "BusDown": "repro.core.states",
    "Failed": "repro.core.states",
    "build_bdr_reliability_chain": "repro.core.reliability",
    "build_dra_reliability_chain": "repro.core.reliability",
    "bdr_reliability": "repro.core.reliability",
    "dra_reliability": "repro.core.reliability",
    "ReliabilityResult": "repro.core.reliability",
    "build_bdr_availability_chain": "repro.core.availability",
    "build_dra_availability_chain": "repro.core.availability",
    "bdr_availability": "repro.core.availability",
    "dra_availability": "repro.core.availability",
    "AvailabilityResult": "repro.core.availability",
    "PerformanceModel": "repro.core.performance",
    "bandwidth_to_faulty": "repro.core.performance",
    "degradation_series": "repro.core.performance",
    "count_nines": "repro.core.nines",
    "nines_notation": "repro.core.nines",
    "from_nines": "repro.core.nines",
    "MTTFResult": "repro.core.mttf",
    "bdr_mttf": "repro.core.mttf",
    "dra_mttf": "repro.core.mttf",
    "mttf_improvement": "repro.core.mttf",
    "RateImportance": "repro.core.importance",
    "unavailability_elasticities": "repro.core.importance",
    "reliability_rate_sensitivity": "repro.core.importance",
    "CostModel": "repro.core.cost",
    "CostedDesign": "repro.core.cost",
    "compare_designs": "repro.core.cost",
    "HeterogeneousPerformanceModel": "repro.core.hetero",
    "HeteroDegradation": "repro.core.hetero",
    "PerformabilityModel": "repro.core.performability",
    "PerformabilityResult": "repro.core.performability",
    "bdr_interval_availability": "repro.core.interval",
    "dra_interval_availability": "repro.core.interval",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
