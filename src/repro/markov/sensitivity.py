"""Parametric sensitivity of CTMC solutions.

Used by the ablation benches to report how sensitive the paper's
reliability and availability figures are to the assumed component failure
rates (which the paper takes from a single Cisco OC-48 datasheet).

Two estimators are provided:

* central finite differences over a user-supplied chain factory, and
* the forward-sensitivity ODE ``ds/dt = s Q + pi dQ/dtheta`` integrated
  jointly with the Kolmogorov equation, for callers that can supply
  ``dQ/dtheta`` directly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.markov.ctmc import CTMC
from repro.markov.transient import transient_distribution

__all__ = ["transient_sensitivity", "forward_sensitivity"]


def transient_sensitivity(
    chain_factory: Callable[[float], CTMC],
    theta: float,
    times: Sequence[float] | np.ndarray,
    *,
    rel_step: float = 1e-4,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference sensitivity ``d pi(t) / d theta``.

    Parameters
    ----------
    chain_factory:
        Maps a parameter value to a CTMC.  The two perturbed chains must
        enumerate states in the same order (true for all builders in
        :mod:`repro.core`).
    theta:
        Parameter value at which to differentiate.
    times:
        Time grid.
    rel_step:
        Relative perturbation size (absolute step ``rel_step * max(|theta|, 1e-12)``).
    initial:
        Initial distribution; default all mass on state index 0.

    Returns
    -------
    numpy.ndarray
        ``(len(times), n_states)`` array of derivatives.
    """
    h = rel_step * max(abs(theta), 1e-12)
    lo = chain_factory(theta - h)
    hi = chain_factory(theta + h)
    if lo.states != hi.states:
        raise ValueError("chain_factory changed the state ordering under perturbation")
    pi_lo = transient_distribution(lo, times, initial)
    pi_hi = transient_distribution(hi, times, initial)
    return (pi_hi - pi_lo) / (2.0 * h)


def forward_sensitivity(
    chain: CTMC,
    dQ: np.ndarray,
    times: Sequence[float] | np.ndarray,
    initial: np.ndarray | None = None,
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> np.ndarray:
    """Exact forward sensitivity given the generator derivative ``dQ/dtheta``.

    Integrates the coupled system::

        d pi / dt = pi Q
        d s  / dt = s Q + pi dQ

    with ``s(0) = 0``.  Returns ``s(t)`` of shape ``(len(times), n_states)``.
    """
    n = chain.n_states
    dQ = np.asarray(dQ, dtype=np.float64)
    if dQ.shape != (n, n):
        raise ValueError(f"dQ shape {dQ.shape} != ({n}, {n})")
    QT = chain.generator.T.tocsr()
    dQT = dQ.T
    pi0 = (
        chain.initial_distribution()
        if initial is None
        else np.asarray(initial, dtype=np.float64)
    )
    t = np.asarray(times, dtype=np.float64)
    t_uniq = np.unique(t)
    y0 = np.concatenate([pi0, np.zeros(n)])

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        pi, s = y[:n], y[n:]
        return np.concatenate([QT @ pi, QT @ s + dQT @ pi])

    t_end = float(t_uniq[-1]) if t_uniq.size else 0.0
    if t_end == 0.0:
        return np.zeros((t.size, n))
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs, (0.0, t_end), y0, t_eval=t_uniq, method="LSODA", rtol=rtol, atol=atol
    )
    if not sol.success:  # pragma: no cover
        raise RuntimeError(f"sensitivity integration failed: {sol.message}")
    by_time = {float(tv): sol.y[n:, i] for i, tv in enumerate(sol.t)}
    out = np.empty((t.size, n))
    for k, tk in enumerate(t):
        out[k] = by_time[float(tk)]
    return out
