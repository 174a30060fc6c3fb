"""Generic continuous-time Markov chain (CTMC) engine.

This subpackage is the numerical substrate for the paper's dependability
analysis (Section 5 of Mandviwalla & Tzeng, ICPP 2004).  It provides:

* :class:`~repro.markov.ctmc.CTMC` -- an immutable chain with a sparse
  generator matrix and a typed state registry.
* :class:`~repro.markov.builder.CTMCBuilder` -- incremental construction of
  chains from (state, state, rate) triples.
* :mod:`~repro.markov.transient` -- transient state-probability solvers
  (matrix exponential, Krylov ``expm_multiply`` and an RK45 ODE fallback).
* :mod:`~repro.markov.uniformization` -- Jensen's uniformization with an
  a-priori truncation error bound, used to cross-check the other solvers;
  its Poisson weights and truncation point are computed with numpy in
  log space, not with ``scipy.stats``.
* :mod:`~repro.markov.stationary` -- steady-state solvers (sparse linear
  solve, dense null space, power iteration on the uniformized chain).
* :mod:`~repro.markov.absorbing` -- absorption probabilities, mean time to
  absorption and phase-type distribution evaluation.
* :mod:`~repro.markov.sensitivity` -- parametric sensitivity of transient
  and stationary probabilities.

All solvers operate on :class:`scipy.sparse` matrices and are vectorized
over time grids; no Python-level loop touches individual matrix entries
after construction.

The names below are re-exported lazily (:mod:`repro._lazy`): importing
this package loads no solver, and ``scipy.integrate`` is imported only
inside the ODE paths that call it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CTMC": "repro.markov.ctmc",
    "CTMCBuilder": "repro.markov.builder",
    "transient_distribution": "repro.markov.transient",
    "stationary_distribution": "repro.markov.stationary",
    "uniformized_distribution": "repro.markov.uniformization",
    "absorption_probabilities": "repro.markov.absorbing",
    "absorption_time_moments": "repro.markov.absorbing",
    "mean_time_to_absorption": "repro.markov.absorbing",
    "phase_type_cdf": "repro.markov.absorbing",
    "transient_sensitivity": "repro.markov.sensitivity",
    "reward_vector": "repro.markov.rewards",
    "instantaneous_reward": "repro.markov.rewards",
    "accumulated_reward": "repro.markov.rewards",
    "interval_availability": "repro.markov.rewards",
    "expected_first_passage_times": "repro.markov.firstpassage",
    "hitting_probabilities": "repro.markov.firstpassage",
    "DTMC": "repro.markov.dtmc",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
