"""repro -- reproduction of "DRA: A Dependable Architecture for
High-Performance Routers" (Mandviwalla & Tzeng, ICPP 2004).

Subpackages
-----------
``repro.core``
    The paper's contribution: Markov dependability models (reliability,
    availability) and the bandwidth-degradation analysis for the DRA and
    BDR architectures.
``repro.markov``
    Generic CTMC engine (transient, stationary, absorbing, uniformization,
    sensitivity solvers).
``repro.sim``
    Discrete-event simulation kernel.
``repro.router``
    Executable BDR/DRA router model: linecards (PIU/PDLU/SRU/LFE), crossbar
    fabric, the enhanced internal bus with its CSMA/CD control plane and
    counter-based TDM arbiter, the three-tier EIB protocol, fault injection
    and coverage.
``repro.traffic``
    Workload generators (Poisson / CBR / on-off) and flow matrices.
``repro.montecarlo``
    Monte Carlo dependability estimation used to cross-validate the Markov
    models.
``repro.analysis``
    Parameter sweeps, paper-style table formatting and CSV/graph export.

Quickstart
----------
>>> import numpy as np
>>> from repro.core import DRAConfig, dra_reliability
>>> r = dra_reliability(DRAConfig(n=9, m=4), np.array([40_000.0]))
>>> bool(r.reliability[0] > 0.95)  # BDR is 0.45 by this point
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "DRAConfig": "repro.core.parameters",
    "FailureRates": "repro.core.parameters",
    "RepairPolicy": "repro.core.parameters",
    "bdr_availability": "repro.core.availability",
    "bdr_reliability": "repro.core.reliability",
    "dra_availability": "repro.core.availability",
    "dra_reliability": "repro.core.reliability",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
