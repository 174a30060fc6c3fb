"""Markov reward models.

Attaches a reward rate to every state of a CTMC and computes:

* the **instantaneous** expected reward ``E[r(X_t)] = pi(t) . r``;
* the **accumulated** expected reward ``E[int_0^t r(X_s) ds]``, by
  integrating the Kolmogorov equation jointly with the reward integral
  (LSODA, stiff-safe for the dependability chains);
* **interval availability** -- the expected fraction of ``[0, t]`` spent
  in operational states, i.e. accumulated reward with a 0/1 reward
  vector.  This is the quantity an SLA actually bounds; the paper reports
  only the steady-state limit, which interval availability converges to.

Used by :mod:`repro.core.availability` for downtime-cost figures and by
the extension benches.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.markov.ctmc import CTMC
from repro.markov.transient import transient_distribution

__all__ = [
    "reward_vector",
    "instantaneous_reward",
    "accumulated_reward",
    "interval_availability",
]


def reward_vector(chain: CTMC, rates: dict[Hashable, float] | None = None,
                  *, default: float = 0.0) -> np.ndarray:
    """Dense reward-rate vector for ``chain``.

    ``rates`` maps state labels to reward rates; unlisted states get
    ``default``.
    """
    r = np.full(chain.n_states, float(default))
    for state, value in (rates or {}).items():
        r[chain.index_of(state)] = float(value)
    return r


def instantaneous_reward(
    chain: CTMC,
    rewards: np.ndarray,
    times: Sequence[float] | np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """``E[r(X_t)]`` at each time point."""
    rewards = _check_rewards(chain, rewards)
    pi = transient_distribution(chain, times, initial)
    return pi @ rewards


def accumulated_reward(
    chain: CTMC,
    rewards: np.ndarray,
    times: Sequence[float] | np.ndarray,
    initial: np.ndarray | None = None,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """``E[int_0^t r(X_s) ds]`` at each time point.

    Integrates the augmented system ``d pi/dt = pi Q``,
    ``dy/dt = pi . r`` with ``y(0) = 0``.
    """
    rewards = _check_rewards(chain, rewards)
    t = np.asarray(times, dtype=np.float64)
    if t.size and t.min() < 0.0:
        raise ValueError("times must be nonnegative")
    pi0 = (
        chain.initial_distribution()
        if initial is None
        else np.asarray(initial, dtype=np.float64)
    )
    n = chain.n_states
    QT = chain.generator.T.tocsr()

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        pi = y[:n]
        return np.concatenate([QT @ pi, [pi @ rewards]])

    t_uniq = np.unique(t)
    t_end = float(t_uniq[-1]) if t_uniq.size else 0.0
    if t_end == 0.0:
        return np.zeros(t.size)
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        np.concatenate([pi0, [0.0]]),
        t_eval=t_uniq,
        method="LSODA",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:  # pragma: no cover - scipy failure path
        raise RuntimeError(f"reward integration failed: {sol.message}")
    by_time = {float(tv): sol.y[n, i] for i, tv in enumerate(sol.t)}
    by_time[0.0] = 0.0
    return np.array([by_time[float(tk)] for tk in t])


def interval_availability(
    chain: CTMC,
    operational: Iterable[Hashable],
    times: Sequence[float] | np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Expected fraction of ``[0, t]`` spent in ``operational`` states.

    Converges to the steady-state availability as ``t`` grows; starts at
    1.0 for a system launched in an operational state.
    """
    t = np.asarray(times, dtype=np.float64)
    r = reward_vector(chain, {s: 1.0 for s in operational})
    acc = accumulated_reward(chain, r, t, initial)
    out = np.empty(t.size)
    for k, tk in enumerate(t):
        if tk == 0.0:
            pi0 = (
                chain.initial_distribution()
                if initial is None
                else np.asarray(initial, dtype=np.float64)
            )
            out[k] = float(pi0 @ r)
        else:
            out[k] = acc[k] / tk
    return np.clip(out, 0.0, 1.0)


def _check_rewards(chain: CTMC, rewards: np.ndarray) -> np.ndarray:
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.shape != (chain.n_states,):
        raise ValueError(
            f"reward vector shape {rewards.shape} != ({chain.n_states},)"
        )
    return rewards
