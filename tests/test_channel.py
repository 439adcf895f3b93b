"""Channel-law tests: reductions to known distributions, quadrature
identities, moment formulas, and sampling contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

from helpers import relaxed_pair
from noma_effrate.channel import (
    AlphaMuChannel,
    ChannelPair,
    UnboundedDensityError,
    gain_cdf,
    gain_moment,
    gain_pdf,
    min_gain_mixture,
    min_gain_moment,
    min_gain_pdf,
    sample_gain,
    sample_min_gain,
)

RAYLEIGH = AlphaMuChannel(2, 1, 1.0)


def make_pair(alpha=2, mu=1, omega_s=1.0, omega_w2=0.1):
    return ChannelPair(
        AlphaMuChannel(alpha, mu, omega_s),
        AlphaMuChannel(alpha, mu, math.sqrt(omega_w2)),
    )


class TestConstruction:
    def test_rejects_non_integer_alpha(self):
        with pytest.raises(ValueError):
            AlphaMuChannel(2.5, 1, 1.0)

    def test_rejects_non_integer_mu(self):
        with pytest.raises(ValueError):
            AlphaMuChannel(2, 1.5, 1.0)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            AlphaMuChannel(2, 1, 0.0)

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_rejects_nonfinite_omega(self, omega):
        with pytest.raises(ValueError, match="omega: must be finite"):
            AlphaMuChannel(2, 1, omega)

    @pytest.mark.parametrize(
        "alpha, omega", [(617, math.sqrt(0.1)), (2, 1e200), (2, 1e-170), (1, 1e100), (3, 1e-100)]
    )
    def test_rejects_omega_power_that_overflows(self, alpha, omega):
        # omega^(+-alpha) or omega^(+-4), the second gain moment's scale, is not a finite positive double
        with pytest.raises(ValueError, match="overflows"):
            AlphaMuChannel(alpha, 1, omega)

    def test_accepts_omega_powers_near_the_double_range(self):
        for ch in (AlphaMuChannel(616, 1, math.sqrt(0.1)), AlphaMuChannel(1, 1, 1e76)):
            assert 0 < ch.omega**ch.alpha and ch.omega**-ch.alpha < math.inf
            assert 0 < gain_moment(ch, 2) < math.inf

    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError):
            ChannelPair(AlphaMuChannel(2, 1, 1.0), AlphaMuChannel(2, 1, 1.0))

    def test_rejects_mismatched_parameters(self):
        with pytest.raises(ValueError):
            ChannelPair(AlphaMuChannel(2, 2, 1.0), AlphaMuChannel(2, 1, 0.5))

    def test_relaxed_allows_equal_omegas(self):
        pair = relaxed_pair(AlphaMuChannel(2, 1, 1.0), AlphaMuChannel(2, 1, 1.0))
        assert pair.omega_tilde == pytest.approx(0.5)

    def test_omega_tilde(self):
        pair = make_pair(2, 1, 1.0, 0.1)
        assert pair.omega_tilde == pytest.approx(1.0 / 11.0, rel=1e-14)

    def test_rejects_omega_tilde_that_underflows(self):
        # omega_s^-4 = 1e308 and omega_w^-4 = 1.23e308 are finite, their sum is not: omega_tilde = 0
        strong, weak = AlphaMuChannel(4, 1, 1e-77), AlphaMuChannel(4, 1, 0.9495e-77)
        with pytest.raises(ValueError, match="omega_tilde"):
            ChannelPair(strong, weak)
        assert ChannelPair(AlphaMuChannel(4, 1, 1e-76), weak).omega_tilde > 0


class TestGainPdf:
    def test_rayleigh_at_one(self):
        assert gain_pdf(RAYLEIGH, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_rayleigh_at_origin(self):
        assert gain_pdf(RAYLEIGH, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_unbounded_at_origin_for_alpha_mu_one(self):
        ch = AlphaMuChannel(1, 1, 1.0)
        with pytest.raises(UnboundedDensityError):
            gain_pdf(ch, 0.0)

    def test_matches_cdf_derivative(self):
        ch = AlphaMuChannel(3, 2, 0.8)
        x, h = 0.5, 1e-5
        deriv = (gain_cdf(ch, x + h) - gain_cdf(ch, x - h)) / (2 * h)
        assert gain_pdf(ch, x) == pytest.approx(deriv, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_integrates_to_one(self, alpha, mu):
        ch = AlphaMuChannel(alpha, mu, 0.9)
        total, err = quad(lambda x: gain_pdf(ch, x), 0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestGainCdf:
    def test_rayleigh(self):
        assert gain_cdf(RAYLEIGH, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_zero_at_origin(self):
        for ch in (RAYLEIGH, AlphaMuChannel(3, 2, 0.7)):
            assert gain_cdf(ch, 0.0) == 0.0

    def test_nakagami_incomplete_gamma(self):
        # alpha=2, mu=3: the gain is Gamma(3, omega^2/3)
        ch = AlphaMuChannel(2, 3, 1.0)
        assert gain_cdf(ch, 2.0) == pytest.approx(gammainc(3, 6.0), rel=1e-12)

    def test_matches_pdf_integral(self):
        ch = AlphaMuChannel(3, 2, 1.1)
        for x in np.geomspace(0.05, 5.0, 7):
            total, _ = quad(lambda t: gain_pdf(ch, t), 0, x, limit=200)
            assert gain_cdf(ch, x) == pytest.approx(total, rel=1e-8)

    @given(
        x1=st.floats(0.0, 20.0),
        x2=st.floats(0.0, 20.0),
        alpha=st.integers(1, 4),
        mu=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, x1, x2, alpha, mu):
        ch = AlphaMuChannel(alpha, mu, 1.3)
        lo, hi = sorted((x1, x2))
        f_lo, f_hi = gain_cdf(ch, lo), gain_cdf(ch, hi)
        assert 0.0 <= f_lo <= f_hi <= 1.0


class TestNakagamiReduction:
    """alpha=2 gains are Gamma-distributed with shape mu, scale omega^2/mu."""

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_pdf_and_cdf(self, mu):
        omega = 1.4
        ch = AlphaMuChannel(2, mu, omega)
        oracle = gamma_dist(a=mu, scale=omega**2 / mu)
        for x in np.geomspace(0.05, 8.0, 9):
            assert gain_pdf(ch, x) == pytest.approx(oracle.pdf(x), rel=1e-10)
            assert gain_cdf(ch, x) == pytest.approx(oracle.cdf(x), rel=1e-10)


class TestMinGainPdf:
    def test_symmetric_exponential_pair(self):
        pair = relaxed_pair(RAYLEIGH, AlphaMuChannel(2, 1, 1.0))
        for x in (0.1, 0.7, 2.0):
            assert min_gain_pdf(pair, x) == pytest.approx(2 * math.exp(-2 * x), rel=1e-12)

    def test_exponential_minimum_rate(self):
        # omega_w^2 = 0.1: min of Exp(1) and Exp(10) is Exp(11)
        pair = make_pair(2, 1, 1.0, 0.1)
        assert min_gain_pdf(pair, 0.1) == pytest.approx(11 * math.exp(-1.1), rel=1e-12)

    def test_matches_survival_product_derivative(self):
        pair = make_pair(3, 2, 1.0, 0.36)
        x, h = 0.3, 1e-5

        def cdf_min(t):
            return 1 - (1 - gain_cdf(pair.strong, t)) * (1 - gain_cdf(pair.weak, t))

        deriv = (cdf_min(x + h) - cdf_min(x - h)) / (2 * h)
        assert min_gain_pdf(pair, x) == pytest.approx(deriv, rel=1e-6)

    def test_pointwise_identity(self):
        # f_min = f_s (1-F_w) + f_w (1-F_s), with the survival functions
        # computed directly so the deep tail stays representable
        pair = make_pair(3, 3, 1.0, 0.25)
        x = np.geomspace(0.01, 4.0, 25)

        def survival(ch, t):
            u = ch.mu * t ** (0.5 * ch.alpha) / ch.omega**ch.alpha
            return sum(
                np.exp(-u + j * np.log(u) - math.lgamma(j + 1)) for j in range(ch.mu)
            )

        lhs = min_gain_pdf(pair, x)
        rhs = gain_pdf(pair.strong, x) * survival(pair.weak, x) + gain_pdf(
            pair.weak, x
        ) * survival(pair.strong, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_integrates_to_one(self, alpha, mu):
        pair = make_pair(alpha, mu, 1.0, 0.4)
        total, _ = quad(lambda x: min_gain_pdf(pair, x), 0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mixture_weights_sum_to_one(self):
        for alpha, mu in [(1, 1), (2, 3), (4, 2)]:
            pair = make_pair(alpha, mu, 1.0, 0.3)
            assert sum(w for w, _ in min_gain_mixture(pair)) == pytest.approx(
                1.0, rel=1e-12
            )


class TestMoments:
    def test_exponential_moments(self):
        assert gain_moment(RAYLEIGH, 1) == pytest.approx(1.0, rel=1e-14)
        assert gain_moment(RAYLEIGH, 2) == pytest.approx(2.0, rel=1e-14)

    def test_against_monte_carlo(self):
        ch = AlphaMuChannel(4, 3, 1.2)
        rng = np.random.default_rng(2024)
        draws = sample_gain(ch, rng, 10_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(gain_moment(ch, 1) - draws.mean()) < 3 * se

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_pdf_integral(self, k):
        ch = AlphaMuChannel(3, 2, 0.9)
        want, _ = quad(lambda x: x**k * gain_pdf(ch, x), 0, np.inf, limit=300)
        assert gain_moment(ch, k) == pytest.approx(want, rel=1e-8)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gain_moment(RAYLEIGH, 0)


class TestMinGainMoments:
    def test_exponential_minimum_mean(self):
        pair = make_pair(2, 1, 1.0, 0.1)
        assert min_gain_moment(pair, 1) == pytest.approx(1.0 / 11.0, rel=1e-12)

    def test_symmetric_pair_mean(self):
        pair = relaxed_pair(RAYLEIGH, AlphaMuChannel(2, 1, 1.0))
        assert min_gain_moment(pair, 1) == pytest.approx(0.5, rel=1e-12)

    def test_second_moment_against_quadrature(self):
        pair = make_pair(3, 2, 1.0, 0.36)
        want, _ = quad(lambda x: x**2 * min_gain_pdf(pair, x), 0, np.inf, limit=300)
        assert min_gain_moment(pair, 2) == pytest.approx(want, rel=1e-8)

    def test_first_moment_against_quadrature(self):
        pair = make_pair(4, 3, 1.1, 0.5)
        want, _ = quad(lambda x: x * min_gain_pdf(pair, x), 0, np.inf, limit=300)
        assert min_gain_moment(pair, 1) == pytest.approx(want, rel=1e-8)

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported order"):
            min_gain_moment(make_pair(), 3)


class TestSampling:
    def test_exponential_mean(self):
        rng = np.random.default_rng(7)
        draws = sample_gain(RAYLEIGH, rng, 1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3 * se

    @pytest.mark.parametrize("alpha,mu", [(2, 1), (3, 2), (4, 1), (1, 3)])
    def test_kolmogorov_smirnov(self, alpha, mu):
        ch = AlphaMuChannel(alpha, mu, 0.9)
        rng = np.random.default_rng(11)
        draws = sample_gain(ch, rng, 100_000)
        stat = kstest(draws, lambda x: gain_cdf(ch, x)).statistic
        # 1% critical value of the KS statistic, asymptotic form
        crit = 1.6276 / math.sqrt(draws.size)
        assert stat < crit

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("mu", [1, 3])
    @pytest.mark.parametrize("size", [None, 1000])
    def test_in_place_keeps_bits(self, alpha, mu, size):
        # the in-place form must equal the expression it replaced, for array
        # draws and for a scalar draw (size None), where it acts on a float
        ch = AlphaMuChannel(alpha, mu, 0.8)
        got = sample_gain(ch, np.random.default_rng(17), size)
        y = np.random.default_rng(17).gamma(shape=mu, scale=1.0, size=size)
        want = (ch.omega**alpha * y / mu) ** (2.0 / alpha)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)

    def test_deterministic_per_seed(self):
        a = sample_gain(RAYLEIGH, np.random.default_rng(99), 1000)
        b = sample_gain(RAYLEIGH, np.random.default_rng(99), 1000)
        np.testing.assert_array_equal(a, b)

    def test_min_gain_sampling_mean(self):
        pair = make_pair(2, 1, 1.0, 0.1)
        rng = np.random.default_rng(5)
        draws = sample_min_gain(pair, rng, 1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0 / 11.0) < 3 * se
