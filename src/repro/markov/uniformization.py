"""Jensen's uniformization for CTMC transient analysis.

Uniformization rewrites ``pi(t) = pi(0) @ expm(Q t)`` as a Poisson mixture
over powers of the uniformized DTMC ``P = I + Q/Lambda``::

    pi(t) = sum_{k=0}^{inf} PoissonPMF(k; Lambda t) * pi(0) @ P^k

Truncating the sum at ``K`` leaves a tail error bounded (in total
variation) by ``1 - PoissonCDF(K; Lambda t)``, which gives this solver an
*a-priori* error guarantee the expm-based paths lack.  It is used as the
independent oracle in the cross-solver validation tests.

The Poisson weights and the truncation point are computed here with
numpy in log space (Loader's saddle-point form of the PMF), which keeps
``scipy.stats`` -- half a second of import -- out of every solver path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.markov.ctmc import CTMC
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["uniformized_distribution", "poisson_truncation_point", "poisson_weights"]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: Stirling-series coefficients B_2j / (2j (2j - 1)), j = 1..5.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """``log(n!) - log(sqrt(2 pi n) (n/e)^n)`` for integers ``n >= 1``.

    Below 16 the closed form loses nothing (its terms are < 50); above,
    the five-term Stirling series is exact to double precision.
    """
    out = np.empty_like(n)
    small = n <= 15.0
    ns = n[small]
    out[small] = [math.lgamma(v + 1.0) for v in ns.tolist()]
    out[small] -= (ns + 0.5) * np.log(ns) - ns + _HALF_LOG_2PI
    nl = n[~small]
    inv2 = 1.0 / (nl * nl)
    series = _STIRLING[-1]
    for coef in _STIRLING[-2::-1]:
        series = coef + series * inv2
    out[~small] = series / nl
    return out


def _bd0(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``x log(x/mu) + mu - x`` without cancellation (Loader, 2000).

    Near ``x == mu`` the direct form subtracts nearly equal numbers; there
    the series ``sum_j 2 x v^(2j+1) / (2j+1)``, ``v = (x-mu)/(x+mu)``, is
    summed instead.
    """
    d = x - mu
    # For mu below ~1e-300, x / mu overflows to inf and the weight
    # exp(-inf) is 0 -- the correct limit of mu^k / k! there.
    with np.errstate(over="ignore"):
        out = x * np.log(x / mu) - d
    near = np.abs(d) < 0.1 * (x + mu)
    if near.any():
        dn, sn = d[near], (x + mu)[near]
        v = dn / sn
        total = dn * v
        term = 2.0 * x[near] * v
        v2 = v * v
        for j in range(1, 1000):
            term = term * v2
            nxt = total + term / (2 * j + 1)
            if np.array_equal(nxt, total):
                break
            total = nxt
        out[near] = total
    return out


def poisson_weights(rate_times: np.ndarray, k_max: int) -> np.ndarray:
    """Poisson PMF ``P(X = k)``, ``X ~ Poisson(mu)``, for ``k = 0..k_max``.

    One row per entry of ``rate_times`` (the means ``mu >= 0``).  Each
    weight is ``exp(-stirlerr(k) - bd0(k, mu)) / sqrt(2 pi k)``: the
    exponent is a sum of small, well-conditioned terms rather than the
    near-cancelling ``k log mu - log k! - mu``, so the relative error
    stays near machine precision even for ``mu`` in the tens of
    thousands.  ``mu = 0`` gives the point mass at ``k = 0``.
    """
    mu = np.asarray(rate_times, dtype=np.float64)
    out = np.zeros((mu.size, k_max + 1))
    out[mu == 0.0, 0] = 1.0
    pos = mu > 0.0
    if not pos.any():
        return out
    m = mu[pos][:, np.newaxis]
    k = np.arange(1, k_max + 1, dtype=np.float64)[np.newaxis, :]
    kk = np.broadcast_to(k, (m.shape[0], k_max))
    mm = np.broadcast_to(m, kk.shape)
    log_w = -(_stirlerr(kk.ravel()) + _bd0(kk.ravel(), mm.ravel())).reshape(kk.shape)
    rows = np.empty((m.shape[0], k_max + 1))
    rows[:, 0] = np.exp(-m[:, 0])
    rows[:, 1:] = np.exp(log_w) / np.sqrt(2.0 * math.pi * k)
    out[pos] = rows
    return out


def poisson_truncation_point(rate_time: float, tolerance: float) -> int:
    """``K = k* + 1``, where ``k*`` is the smallest ``k`` whose Poisson
    tail ``P(X > k)`` is at most ``tolerance``, ``X ~ Poisson(rate_time)``.

    The tail is summed from far above the mean downwards (small terms
    first).  The summation starts at a ``k_max`` whose Chernoff bound
    ``P(X > k_max) <= exp(-bd0(k_max, mu))`` is below
    ``tolerance * e^-40``, so the neglected mass cannot move ``k*``.
    """
    if rate_time <= 0.0:
        return 0
    mu = float(rate_time)
    # bd0(mu + x, mu) >= x^2 / (2 (mu + x)); solve for the x reaching `bound`.
    bound = 40.0 - math.log(tolerance)
    k_max = math.ceil(mu + bound + math.sqrt(bound * bound + 2.0 * bound * mu))
    pmf = poisson_weights(np.array([mu]), k_max)[0]
    # tail[k] = P(X > k) = sum_{j > k} pmf[j]
    tail = np.cumsum(pmf[:0:-1])[::-1]
    return int(np.argmax(tail <= tolerance)) + 1


def uniformized_distribution(
    chain: CTMC,
    times: Sequence[float] | np.ndarray,
    initial: np.ndarray | None = None,
    *,
    tolerance: float = 1e-12,
    rate: float | None = None,
) -> np.ndarray:
    """Transient distribution via uniformization.

    Parameters
    ----------
    chain, times, initial:
        As in :func:`repro.markov.transient.transient_distribution`.
    tolerance:
        Total-variation bound on the Poisson truncation error per time point.
    rate:
        Uniformization constant ``Lambda``; defaults to slightly above the
        maximum exit rate.

    Returns
    -------
    numpy.ndarray
        ``(len(times), n_states)`` distribution array.
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
        raise ValueError("initial distribution has wrong shape")
    if t.size == 0:
        return np.empty((0, chain.n_states))

    P, lam = chain.uniformized_matrix(rate)
    PT = P.T.tocsr()
    t_max = float(t.max())
    K = poisson_truncation_point(lam * t_max, tolerance)
    if _metrics.REGISTRY is not None:
        reg = _metrics.REGISTRY
        reg.counter("solver.uniformization.solves").inc()
        reg.counter("solver.uniformization.iterations").inc(K)
        reg.gauge("solver.uniformization.truncation_k").set(K)
    if _trace.TRACER is not None:
        _trace.TRACER.emit(
            "solver.uniformization",
            n_states=chain.n_states,
            rate=lam,
            rate_time=lam * t_max,
            truncation_k=K,
            tolerance=tolerance,
            n_times=int(t.size),
        )

    # Iterate v_k = pi0 @ P^k once up to K, accumulating the Poisson-weighted
    # sum for every requested time point simultaneously.  The weight table
    # evaluates elementwise, so it matches a per-time loop bit for bit.
    weights = poisson_weights(lam * t, K)
    out = np.zeros((t.size, chain.n_states))
    v = pi0.copy()
    for k in range(K + 1):
        out += weights[:, [k]] * v[np.newaxis, :]
        if k < K:
            v = PT @ v
    # Renormalize away the truncated Poisson tail mass.
    out /= out.sum(axis=1, keepdims=True)
    return out
