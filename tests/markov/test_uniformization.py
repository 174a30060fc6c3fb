"""Uniformization tests: Poisson weights, truncation point and agreement
with expm."""

import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from repro.markov import CTMCBuilder, transient_distribution, uniformized_distribution
from repro.markov.uniformization import poisson_truncation_point, poisson_weights
from repro.validate import (
    assert_distribution_rows,
    assert_solvers_agree,
    distribution_atol,
)


class TestTruncationPoint:
    def test_zero_rate_time(self):
        assert poisson_truncation_point(0.0, 1e-12) == 0

    def test_tail_below_tolerance(self):
        from scipy import stats

        for rt in (0.5, 5.0, 50.0):
            k = poisson_truncation_point(rt, 1e-10)
            assert stats.poisson.sf(k, rt) <= 1e-10

    def test_grows_with_rate_time(self):
        assert poisson_truncation_point(100.0, 1e-10) > poisson_truncation_point(
            1.0, 1e-10
        )


#: Relative-error bounds on every weight >= 1e-300, fixed before the
#: numpy weights replaced scipy.stats: one for mu <= 1e3, one for
#: mu <= 1e5 (where log k! alone is ~1e6, so its last ulp is ~1e-10).
_BOUND_MODERATE = 1e-12
_BOUND_LARGE = 1e-9
_SMALLEST_WEIGHT = 1e-300

_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")
_STIRLING_FROM = 200


@functools.lru_cache(maxsize=1)
def _small_log_factorials() -> tuple[Decimal, ...]:
    """``log k!`` for ``k < _STIRLING_FROM``, summed at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        out = [Decimal(0)]
        for j in range(1, _STIRLING_FROM):
            out.append(out[-1] + Decimal(j).ln())
    return tuple(out)


def _exact_pmf(k: int, mu: float) -> float:
    """Poisson PMF at 50 significant digits (the test-only exact oracle).

    ``log k!`` is summed exactly below 200 and taken from the Stirling
    series above, where its first omitted term is below 1e-28.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        m = Decimal(mu)
        if k < _STIRLING_FROM:
            log_fact = _small_log_factorials()[k]
        else:
            n = Decimal(k)
            log_fact = (n + Decimal("0.5")) * n.ln() - n + (2 * _PI_50).ln() / 2
            for coef, power in ((12, 1), (-360, 3), (1260, 5), (-1680, 7), (1188, 9)):
                log_fact += 1 / (coef * n**power)
        return float((k * m.ln() - log_fact - m).exp())


def _weight_window(mu: float, max_points: int) -> np.ndarray:
    """The ``k`` whose weight is at least ``_SMALLEST_WEIGHT``, thinned
    evenly to at most ``max_points``."""
    k_max = int(mu + 40.0 * math.sqrt(mu) + 60.0)
    w = poisson_weights(np.array([mu]), k_max)[0]
    ks = np.flatnonzero(w >= _SMALLEST_WEIGHT)
    return ks[:: max(1, ks.size // max_points)]


def _max_rel_error(mu: float, ks: np.ndarray, reference: np.ndarray) -> float:
    w = poisson_weights(np.array([mu]), int(ks[-1]))[0][ks]
    return float(np.max(np.abs(w / reference - 1.0)))


class TestPoissonWeights:
    @pytest.mark.parametrize(
        "mu,bound",
        [(mu, _BOUND_MODERATE) for mu in (1e-3, 0.5, 5.0, 50.0, 250.0, 1e3)]
        + [(mu, _BOUND_LARGE) for mu in (5e3, 5e4, 1e5)],
    )
    def test_match_exact_oracle(self, mu, bound):
        ks = _weight_window(mu, max_points=400)
        exact = np.array([_exact_pmf(int(k), mu) for k in ks])
        assert _max_rel_error(mu, ks, exact) <= bound

    # scipy.stats.poisson.pmf computes exp(k log mu - gammaln(k+1) - mu),
    # whose own rounding is 1.7e-12 relative at mu = 250 and 4.1e-12 at
    # mu = 1e3 against the 50-digit oracle above; beyond mu = 50 the
    # difference from scipy is scipy's error, so the tight bound is held
    # against the oracle there and scipy is held to the large one.
    @pytest.mark.parametrize(
        "mu,bound",
        [(mu, _BOUND_MODERATE) for mu in (1e-3, 0.5, 5.0, 50.0)]
        + [(mu, _BOUND_LARGE) for mu in (250.0, 1e3, 5e3, 5e4, 1e5)],
    )
    def test_match_scipy(self, mu, bound):
        from scipy import stats

        ks = _weight_window(mu, max_points=100_000)
        assert _max_rel_error(mu, ks, stats.poisson.pmf(ks, mu)) <= bound

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_mean_is_point_mass(self):
        w = poisson_weights(np.array([0.0, 0.0]), 5)
        assert w.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]] * 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_time_row(self, two_state_chain):
        pi = uniformized_distribution(two_state_chain, np.array([0.0, 1.0]))
        assert pi[0].tolist() == two_state_chain.initial_distribution().tolist()

    def test_rows_sum_to_one(self):
        mus = np.array([1e-3, 0.5, 5.0, 50.0, 500.0])
        w = poisson_weights(mus, poisson_truncation_point(500.0, 1e-12))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestTruncationPointMatchesScipy:
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.5, 5.0, 50.0, 500.0, 5e3, 5e4])
    def test_isf_walk_up_rule(self, mu, tol):
        from scipy import stats

        # The rule the scipy-based solver used: isf(tol) + 1, walked up
        # while the tail still exceeds tol.
        expected = 0
        if mu > 0.0:
            expected = int(stats.poisson.isf(tol, mu)) + 1
            while stats.poisson.sf(expected, mu) > tol:
                expected += 1
        assert poisson_truncation_point(mu, tol) == expected


class TestAgreement:
    # budget for sim-vs-expm agreement: uniformization's advertised
    # Poisson-tail truncation (1e-12) plus the float rounding of the
    # dense expm path.
    def test_matches_expm_on_two_state(self, two_state_chain):
        t = np.linspace(0.0, 10.0, 11)
        a = uniformized_distribution(two_state_chain, t)
        b = transient_distribution(two_state_chain, t, method="expm")
        assert_solvers_agree(
            a, b, budget=1e-12 + distribution_atol(2),
            label="uniformization vs expm",
        )

    def test_matches_expm_on_absorbing(self, absorbing_chain):
        t = np.array([0.0, 2.0, 8.0, 30.0])
        a = uniformized_distribution(absorbing_chain, t)
        b = transient_distribution(absorbing_chain, t, method="expm")
        assert_solvers_agree(
            a, b, budget=1e-12 + distribution_atol(3),
            label="uniformization vs expm",
        )

    def test_rows_are_distributions(self, absorbing_chain):
        t = np.linspace(0.0, 30.0, 7)
        pi = uniformized_distribution(absorbing_chain, t)
        assert_distribution_rows(pi, label="uniformization")

    def test_explicit_rate_accepted(self, two_state_chain):
        t = np.array([1.0])
        a = uniformized_distribution(two_state_chain, t, rate=10.0)
        b = uniformized_distribution(two_state_chain, t)
        # two truncations, one per uniformization rate
        assert_solvers_agree(a, b, budget=2e-12, label="rate override")

    def test_zero_transition_chain(self):
        b = CTMCBuilder()
        b.add_state("frozen")
        pi = uniformized_distribution(b.build(), np.array([0.0, 5.0]))
        np.testing.assert_allclose(pi, [[1.0], [1.0]])


class TestValidation:
    def test_negative_times_rejected(self, two_state_chain):
        with pytest.raises(ValueError, match="nonnegative"):
            uniformized_distribution(two_state_chain, np.array([-1.0]))

    def test_empty_times(self, two_state_chain):
        out = uniformized_distribution(two_state_chain, np.array([]))
        assert out.shape == (0, 2)
