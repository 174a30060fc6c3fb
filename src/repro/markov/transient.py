"""Transient distribution solvers for CTMCs.

Computes ``pi(t) = pi(0) @ expm(Q t)`` on a grid of time points.  Three
methods are provided:

``expm_multiply``
    Krylov/Taylor action of the matrix exponential on a vector
    (:func:`scipy.sparse.linalg.expm_multiply`); never forms ``expm(Q t)``
    explicitly.  Default, and the right choice for the paper's chains
    (hundreds of states, very stiff rate spread).

``expm``
    Dense Pade matrix exponential; O(n^3) per distinct time step but an
    independent code path, used in cross-validation tests.

``ode``
    RK45 integration of the Kolmogorov forward equation via
    :func:`scipy.integrate.solve_ivp`; a third independent path.

All methods return an ``(n_times, n_states)`` array whose rows are
probability distributions.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from repro.markov.ctmc import CTMC

__all__ = ["transient_distribution", "TRANSIENT_METHODS"]

TRANSIENT_METHODS = ("expm_multiply", "expm", "ode")


def transient_distribution(
    chain: CTMC,
    times: Sequence[float] | np.ndarray,
    initial: np.ndarray | None = None,
    *,
    method: str = "expm_multiply",
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """State probabilities of ``chain`` at each time in ``times``.

    Parameters
    ----------
    chain:
        The CTMC to solve.
    times:
        Nonnegative time points (need not be sorted or distinct).
    initial:
        Initial distribution; defaults to all mass on state index 0.
    method:
        One of :data:`TRANSIENT_METHODS`.
    rtol, atol:
        Tolerances for the ``ode`` method (ignored otherwise).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(times), n_states)``; row ``k`` is ``pi(times[k])``.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if t.size and t.min() < 0.0:
        raise ValueError("times must be nonnegative")
    pi0 = (
        chain.initial_distribution()
        if initial is None
        else np.asarray(initial, dtype=np.float64)
    )
    if pi0.shape != (chain.n_states,):
        raise ValueError(
            f"initial distribution shape {pi0.shape} != ({chain.n_states},)"
        )
    if not np.isclose(pi0.sum(), 1.0, atol=1e-9):
        raise ValueError(f"initial distribution sums to {pi0.sum()}, expected 1")
    if t.size == 0:
        return np.empty((0, chain.n_states))

    if method == "expm_multiply":
        out = _solve_expm_multiply(chain, t, pi0)
    elif method == "expm":
        out = _solve_dense_expm(chain, t, pi0)
    elif method == "ode":
        out = _solve_ode(chain, t, pi0, rtol=rtol, atol=atol)
    else:
        raise ValueError(f"unknown method {method!r}; choose from {TRANSIENT_METHODS}")

    # Solvers introduce tiny negative round-off; clip and renormalize so
    # downstream reliability/availability numbers are proper probabilities.
    np.clip(out, 0.0, None, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _solve_expm_multiply(chain: CTMC, t: np.ndarray, pi0: np.ndarray) -> np.ndarray:
    # Row-vector evolution pi(t) = pi0 @ expm(Qt) is the column evolution of
    # the transposed generator: expm(Q.T t) @ pi0.
    QT = chain.generator.T.tocsr()
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    out_sorted = np.empty((t.size, chain.n_states))
    v = pi0.copy()
    prev = 0.0
    for k, tk in enumerate(sorted_t):
        dt = tk - prev
        if dt > 0.0:
            v = scipy.sparse.linalg.expm_multiply(QT * dt, v)
            prev = tk
        out_sorted[k] = v
    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    return out


def _solve_dense_expm(chain: CTMC, t: np.ndarray, pi0: np.ndarray) -> np.ndarray:
    Q = chain.generator.toarray()
    out = np.empty((t.size, chain.n_states))
    # Cache by time value: grids often contain repeated points.
    cache: dict[float, np.ndarray] = {}
    for k, tk in enumerate(t):
        key = float(tk)
        if key not in cache:
            cache[key] = scipy.linalg.expm(Q * key)
        out[k] = pi0 @ cache[key]
    return out


def _solve_ode(
    chain: CTMC, t: np.ndarray, pi0: np.ndarray, *, rtol: float, atol: float
) -> np.ndarray:
    QT = chain.generator.T.tocsr()

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return QT @ y

    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    t_end = float(sorted_t[-1])
    if t_end == 0.0:
        return np.tile(pi0, (t.size, 1))
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        pi0,
        t_eval=np.unique(sorted_t),
        method="LSODA",  # stiff-aware: failure ~1e-6/h vs repair ~1e0/h rates
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:  # pragma: no cover - scipy failure path
        raise RuntimeError(f"ODE transient solve failed: {sol.message}")
    by_time = {float(tv): sol.y[:, i] for i, tv in enumerate(sol.t)}
    out = np.empty((t.size, chain.n_states))
    for k, tk in enumerate(t):
        out[k] = by_time[float(tk)]
    return out
