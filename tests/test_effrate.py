"""Effective-rate tests: Jensen limits, strategy agreement, low/high-SNR
approximations, derivative formulas against finite differences, and the
power-coefficient search."""

import itertools
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from helpers import relaxed_pair
from noma_effrate.channel import AlphaMuChannel, ChannelPair
from noma_effrate.effrate import (
    LN2,
    LOG2_E,
    DelayQos,
    NomaSystem,
    er_derivatives,
    er_high_snr,
    er_low_snr,
    er_noma,
    er_oma,
    ergodic_rate,
    log1p_sinr,
    log_moment,
    min_energy_per_bit,
    noma_oma_gap,
    power_search,
    rate_loss,
    sum_er_noma,
    wideband_slope,
)
from noma_effrate.specfun import ContourError, laguerre_expectation


def make_pair(alpha=2, mu=1, omega_s=1.0, omega_w2=0.1):
    return ChannelPair(
        AlphaMuChannel(alpha, mu, omega_s),
        AlphaMuChannel(alpha, mu, math.sqrt(omega_w2)),
    )


def make_system(alpha=2, mu=1, a_s=0.24, rho_db=10.0, theta=0.5, omega_w2=0.1, tb=1.0):
    return NomaSystem(
        make_pair(alpha, mu, 1.0, omega_w2),
        a_s,
        10.0 ** (rho_db / 10.0),
        DelayQos(theta, tb),
    )


class TestTypes:
    def test_nu_definition(self):
        qos = DelayQos(0.5, 2.0)
        assert qos.nu == pytest.approx(0.5 * 2.0 / LN2, rel=1e-14)

    def test_theta_zero_is_unconstrained(self):
        assert DelayQos(0.0).nu == 0.0

    def test_power_coefficient_ordering(self):
        with pytest.raises(ValueError):
            make_system(a_s=0.6)

    def test_a_w_complement(self):
        assert make_system(a_s=0.24).a_w == pytest.approx(0.76)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_rho_not_finite_positive(self, rho):
        with pytest.raises(ValueError, match="rho"):
            NomaSystem(make_pair(), 0.24, rho, DelayQos(0.5))

    @pytest.mark.parametrize(
        "theta, tb, field",
        [(math.nan, 1.0, "theta"), (math.inf, 1.0, "theta"), (-1.0, 1.0, "theta"),
         (0.5, math.inf, "block_time_bandwidth"), (0.5, math.nan, "block_time_bandwidth")],
    )
    def test_qos_rejects_nonfinite(self, theta, tb, field):
        with pytest.raises(ValueError, match=field):
            DelayQos(theta, tb)


class TestStrategies:
    """er_noma, er_oma and ergodic_rate share one rate path, so every one of them
    rejects what it cannot evaluate, with or without a delay constraint."""

    @pytest.mark.parametrize("rate", [er_noma, er_oma, ergodic_rate])
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_unsupported_strategy_rejected(self, rate, theta, grid, user):
        sys = make_system(theta=theta)
        with pytest.raises(ValueError, match="unsupported strategy"):
            rate([sys, replace(sys, rho=2.0)] if grid else sys, user, "monte-carlo")

    def test_closed_form_mean_above_one_raises(self, monkeypatch):
        # E[(1 + SINR)^-w] <= 1 for w > 0.  At omega_s = 1e76 on Rayleigh fading a Fox-H
        # residue line at the double contour's offset cancels to 1.2e73; at its saddle the
        # weak user's form gives the quadrature rate.  A form reading (1, ln 1.2e73) is
        # rejected on both paths
        from noma_effrate import closedform

        pair = ChannelPair(AlphaMuChannel(1, 1, 1e76), AlphaMuChannel(1, 1, 1e75))
        sys = NomaSystem(pair, 0.24, 10.0, DelayQos(0.5))
        want = er_noma(sys, "weak").value
        assert want == pytest.approx(2.05889369, rel=1e-8)
        assert er_noma(sys, "weak", "closed-form").value == pytest.approx(want, rel=1.1e-10)
        monkeypatch.setattr(closedform, "ratio_mellin_analytic", lambda *args: (1.0, math.log(1.212525219e73)))
        with pytest.raises(ContourError, match=r"theta = 0.5 \(nu = 0.7213475204\): the mean "
                           r"1.212525219e\+73 exceeds 1; use strategy = quadrature"):
            er_noma(sys, "weak", "closed-form")
        law, k, params, _ = log1p_sinr(sys, "weak")
        with pytest.raises(ContourError, match="^the mean 1.2125.*e\\+73 exceeds 1$"):
            log_moment(law, k, sys.nu, params, "closed-form")


# Weak NOMA inputs where the Fox-H residue coefficients z2^(x-k) and 1/k! leave the doubles
# (their sums are carried in logs): five laws x six SNRs x three exponents, and six Rayleigh
# points at large nu, two of them also grid points.  a_s = 0.24, omega_s = 1, omega_w^2 = 0.1
EXTREME_NAMED = [(2, 1, -30, 100), (2, 1, 50, 100), (2, 1, 10, 119), (2, 1, 10, 150),
                 (2, 1, 150, 33.6), (2, 1, 300, 10)]
EXTREME_GRID = list(dict.fromkeys([
    *((alpha, mu, rho_db, theta) for (alpha, mu), rho_db, theta in itertools.product(
        [(2, 1), (2, 2), (2, 3), (4, 3), (1, 2)], [10, 50, 100, 150, 200, 300], [3, 10, 33.6])),
    *EXTREME_NAMED,
]))


class TestExtremeClosedForm:
    """Closed-form rates whose Mellin values or residue terms lie beyond the doubles."""

    @staticmethod
    def assert_weak_matches(alpha, mu, rho_db, theta):
        sys = make_system(alpha, mu, rho_db=rho_db, theta=theta)
        want = er_noma(sys, "weak").value
        assert er_noma(sys, "weak", "closed-form").value == pytest.approx(want, rel=1e-9, abs=0)

    @pytest.mark.parametrize("alpha, mu, rho_db, theta", [
        *EXTREME_NAMED, (2, 2, 100, 33.6), (2, 2, 300, 10), (2, 3, 150, 33.6), (4, 3, 300, 10),
        (1, 2, 200, 33.6), (1, 2, 300, 10),
    ])
    def test_weak_rows_match_quadrature(self, alpha, mu, rho_db, theta):
        self.assert_weak_matches(alpha, mu, rho_db, theta)

    @pytest.mark.slow
    def test_weak_grid_matches_quadrature(self):
        assert len(EXTREME_GRID) == 94
        for point in EXTREME_GRID:
            self.assert_weak_matches(*point)

    @pytest.mark.parametrize("mu", [40, 81])
    def test_strong_mean_below_the_doubles(self, mu):
        # E[(1 + a_s rho g)^-nu] is about e^-1008 at theta = 28 and 120 dB: zero as a linear
        # double, its log carried from the contour to the rate
        sys = make_system(mu=mu, rho_db=120.0, theta=28.0)
        want = er_noma(sys, "strong").value
        assert er_noma(sys, "strong", "closed-form").value == pytest.approx(want, rel=1e-9, abs=0)


class TestLogMoment:
    """The one entry point to log E[(1+SINR)^-w] and its tilted form, for rates and delay bounds."""

    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_tilted_at_zero_is_the_ergodic_mean(self, user):
        sys = make_system(alpha=3, mu=2, rho_db=15.0)
        law, k, params, _ = log1p_sinr(sys, user)
        want = ergodic_rate(sys, user).value * LN2
        for route in ("quadrature", "closed-form"):
            got = log_moment(law, k, 0.0, params, route, tilted=True)[0]
            assert math.exp(got) == pytest.approx(want, rel=1e-7), route

    def test_columns_broadcast(self):
        # w and tilted broadcast against each other: the plain and tilted moments of three
        # exponents in one call, each the value it takes alone
        law, k, params, _ = log1p_sinr(make_system(), "weak")
        w = np.array([0.5, 2.0, 8.0])
        got, err = log_moment(law, k, w, params, tilted=[[False], [True]])
        assert got.shape == err.shape == (6,)
        alone = [log_moment(law, k, x, params, tilted=t)[0] for t in (False, True) for x in w]
        assert got.tolist() == alone
        assert np.all(got[:3] < 0) and np.all(np.diff(got[:3]) < 0)

    def test_closed_form_tilts_at_zero_only(self):
        law, k, params, _ = log1p_sinr(make_system(), "strong")
        for w, tilted in ((0.5, True), (0.0, False)):
            with pytest.raises(ValueError, match="tilted at w = 0"):
                log_moment(law, k, w, params, "closed-form", tilted)


class TestErNoma:
    def test_jensen_equality_limit(self):
        sys = make_system(theta=1e-9)
        for user in ("strong", "weak"):
            er = er_noma(sys, user).value
            erg = ergodic_rate(sys, user).value
            assert abs(er - erg) < 1e-6

    def test_vanishing_power_share(self):
        sys = make_system(a_s=1e-6)
        assert er_noma(sys, "strong").value < 1e-4

    def test_theta_zero_delegates_to_ergodic(self):
        sys = make_system(theta=0.0)
        assert er_noma(sys, "strong").value == pytest.approx(
            ergodic_rate(sys, "strong").value, rel=1e-12
        )

    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_strategies_agree(self, user):
        sys = make_system(alpha=3, mu=2, theta=0.5, rho_db=15.0)
        q = er_noma(sys, user, "quadrature").value
        c = er_noma(sys, user, "closed-form").value
        tol = 1e-5 if user == "strong" else 1e-3
        assert c == pytest.approx(q, rel=tol)

    def test_monotone_in_theta(self):
        vals = [
            sum_er_noma(make_system(theta=t)) for t in (0.1, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("rho_db, a_s", [(0, 0.3), (10, 0.24), (20, 0.1), (20, 0.4)])
    def test_small_theta_matches_mpmath(self, theta, rho_db, a_s):
        # strong Rayleigh: E[(1 + c g)^-w] = e^(1/c) c^-w Gamma(1 - w, 1/c), c = a_s rho;
        # at small theta the log of that mean is about theta itself
        sys = make_system(a_s=a_s, rho_db=rho_db, theta=theta)
        with mp.workdps(50):
            w, c = mp.mpf(theta) / mp.log(2), mp.mpf(a_s * sys.rho)
            mean = mp.exp(1 / c) * c**-w * mp.gammainc(1 - w, 1 / c)
            want = float(-mp.log(mean) / (w * mp.log(2)))
        assert er_noma(sys, "strong").value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha, mu", [(2, 1), (2, 2), (2, 3), (1, 2), (4, 3)])
    def test_jensen_upper_bound_at_small_theta(self, alpha, mu):
        pair = make_pair(alpha, mu)
        systems = [
            NomaSystem(pair, a_s, 10.0 ** (rho_db / 10.0), DelayQos(1e-9))
            for a_s in (0.1, 0.24, 0.4) for rho_db in (0, 10, 20, 30)
        ]
        for user in ("strong", "weak"):
            for er, erg in zip(er_noma(systems, user), ergodic_rate(systems, user)):
                assert er.value <= erg.value + 1e-6

    def test_jensen_upper_bound(self):
        for theta in (0.1, 0.5, 2.0):
            sys = make_system(theta=theta, alpha=3, mu=2)
            for user in ("strong", "weak"):
                er = er_noma(sys, user).value
                erg = ergodic_rate(sys, user).value
                assert er <= erg + 1e-9


class TestErOma:
    def test_theta_zero_half_ergodic(self):
        sys = make_system(theta=0.0)
        for user, ch in (("strong", sys.pair.strong), ("weak", sys.pair.weak)):
            want = 0.5 * laguerre_expectation(
                ch, lambda x: np.log2(1 + sys.rho * x)
            )
            assert er_oma(sys, user).value == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("strategy", ["quadrature", "closed-form"])
    def test_theta_zero_reports_error(self, strategy):
        # the same error estimate as the ergodic rate's, scaled by the half share
        sys = make_system(theta=0.0)
        for user in ("strong", "weak"):
            r = er_oma(sys, user, strategy)
            assert r.strategy == strategy
            assert 0 < r.error_estimate <= 1e-8 * r.value

    def test_symmetric_pair_equal_rates(self):
        pair = relaxed_pair(AlphaMuChannel(2, 1, 1.0), AlphaMuChannel(2, 1, 1.0))
        sys = NomaSystem(pair, 0.24, 10.0, DelayQos(0.7))
        assert er_oma(sys, "strong").value == pytest.approx(
            er_oma(sys, "weak").value, rel=1e-12
        )

    def test_strategies_agree(self):
        sys = make_system(theta=1.0, rho_db=10.0)
        for user in ("strong", "weak"):
            q = er_oma(sys, user, "quadrature").value
            c = er_oma(sys, user, "closed-form").value
            assert c == pytest.approx(q, rel=1e-6)


class TestHighSnr:
    def test_weak_forced_values(self):
        assert er_high_snr(make_system(a_s=0.2), "weak").value == pytest.approx(
            math.log2(5.0), rel=1e-12
        )
        assert er_high_snr(make_system(a_s=0.24), "weak").value == pytest.approx(
            2.058893689053569, rel=1e-12
        )

    def test_strong_converges_to_exact(self):
        sys = make_system(alpha=2, mu=2, theta=0.5, rho_db=40.0, a_s=0.24)
        approx = er_high_snr(sys, "strong").value
        exact = er_noma(sys, "strong").value
        assert abs(approx - exact) < 0.05

    @pytest.mark.parametrize("alpha, mu", [(2, 1), (2, 3), (4, 3), (1, 2)])
    def test_strong_theta_zero_limit(self, alpha, mu):
        def at(theta):
            return make_system(alpha=alpha, mu=mu, theta=theta, rho_db=60.0)

        limit = er_high_snr(at(0.0), "strong").value
        assert limit == pytest.approx(er_high_snr(at(1e-9), "strong").value, rel=1e-7)
        assert limit == pytest.approx(ergodic_rate(at(0.0), "strong").value, rel=1e-4)

    def test_validity_condition(self):
        # alpha*mu = 1 <= 2*nu for theta=1
        sys = make_system(alpha=1, mu=1, theta=1.0)
        with pytest.raises(ValueError, match="invalid"):
            er_high_snr(sys, "strong")

    def test_weak_independent_of_channel(self):
        a = er_high_snr(make_system(alpha=2, mu=1, theta=0.5), "weak").value
        b = er_high_snr(make_system(alpha=3, mu=3, theta=2.0), "weak").value
        assert a == b


class TestDerivatives:
    def test_strong_first_derivative_exponential(self):
        sys = make_system(a_s=0.24)
        first, _ = er_derivatives(sys, "strong")
        assert first == pytest.approx(LOG2_E * 0.24, rel=1e-12)

    def test_strong_second_derivative_at_nu_zero(self):
        sys = make_system(a_s=0.24, theta=0.0)
        _, second = er_derivatives(sys, "strong")
        # E[g^2] = 2 for the exponential gain
        assert second == pytest.approx(-LOG2_E * 0.24**2 * 2.0, rel=1e-12)

    @pytest.mark.parametrize("user", ["strong", "weak"])
    @pytest.mark.parametrize("alpha,mu", [(2, 1), (3, 2)])
    def test_against_finite_differences(self, user, alpha, mu):
        # second-order forward stencils anchored at rho=0 where the rate is 0
        sys = make_system(alpha=alpha, mu=mu, theta=0.5)
        h = 1e-3

        def rate(rho):
            return er_noma(replace(sys, rho=rho), user, "quadrature").value

        r1, r2, r3 = rate(h), rate(2 * h), rate(3 * h)
        fd_first = (4 * r1 - r2) / (2 * h)
        fd_second = (-5 * r1 + 4 * r2 - r3) / h**2
        first, second = er_derivatives(sys, user)
        assert first == pytest.approx(fd_first, rel=1e-3)
        assert second == pytest.approx(fd_second, rel=1e-3)


class TestLowSnr:
    def test_zero_at_zero_snr(self):
        sys = make_system()
        tiny = replace(sys, rho=1e-300)
        assert er_low_snr(tiny, "strong").value == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_at_small_snr(self):
        sys = make_system(rho_db=-30.0)  # rho = 1e-3
        for user in ("strong", "weak"):
            taylor = er_low_snr(sys, user).value
            exact = er_noma(sys, user).value
            assert taylor == pytest.approx(exact, rel=1e-3)

    def test_sum_grows_linearly(self):
        slopes = []
        for rho in (1e-5, 2e-5):
            sys = replace(make_system(), rho=rho)
            total = er_low_snr(sys, "strong").value + er_low_snr(sys, "weak").value
            slopes.append(total / rho)
        ds, dw = er_derivatives(make_system(), "strong")[0], er_derivatives(
            make_system(), "weak"
        )[0]
        assert slopes[0] == pytest.approx(ds + dw, rel=1e-4)
        assert slopes[1] == pytest.approx(ds + dw, rel=1e-4)


class TestLowSnrMetrics:
    def test_min_energy_strong_exponential(self):
        sys = make_system(a_s=0.24)
        assert min_energy_per_bit(sys, "strong") == pytest.approx(
            1.0 / (0.24 * LOG2_E), rel=1e-12
        )

    def test_min_energy_theta_invariant(self):
        vals = {
            min_energy_per_bit(make_system(theta=t), "weak") for t in (0.1, 1.0, 2.0)
        }
        assert len({round(v, 14) for v in vals}) == 1

    def test_min_energy_weak_exponential_minimum(self):
        sys = make_system(a_s=0.24)
        want = 1.0 / (0.76 * LOG2_E / 11.0)
        assert min_energy_per_bit(sys, "weak") == pytest.approx(want, rel=1e-12)

    def test_wideband_slope_unity_case(self):
        # exponential gain at nu=0: 2 (a log2 e)^2 ln2 / (log2 e a^2 * 2) = 1
        sys = make_system(theta=0.0)
        assert wideband_slope(sys, "strong") == pytest.approx(1.0, rel=1e-12)

    def test_wideband_slope_decreases_with_theta(self):
        slopes = [wideband_slope(make_system(theta=t), "strong") for t in (0.1, 0.5, 1, 2)]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))

    def test_weak_slope_matches_low_snr_curve_fit(self):
        sys = make_system()
        h = 1e-4  # around -40 dB in linear terms

        def rate(rho):
            return er_noma(replace(sys, rho=rho), "weak", "quadrature").value

        r1, r2 = rate(h), rate(2 * h)
        fd_first = (4 * r1 - r2) / (2 * h)
        fd_second = (r2 - 2 * r1) / h**2
        fd_slope = -2.0 * fd_first**2 / fd_second * LN2
        assert wideband_slope(sys, "weak") == pytest.approx(fd_slope, rel=0.05)


class TestErgodic:
    def test_exponential_integral_identity(self):
        sys = make_system(a_s=0.24, rho_db=10.0)
        c = sys.a_s * sys.rho
        want = float(mp.exp(1 / c) * mp.e1(1 / c) / mp.log(2))
        assert ergodic_rate(sys, "strong").value == pytest.approx(want, rel=1e-9)

    def test_constant_kernel_expectation(self):
        # a variance-free rate reduces the expectation to log2(1+gamma)
        ch = AlphaMuChannel(3, 2, 1.0)
        gamma = 3.7
        got = laguerre_expectation(ch, lambda x: np.full_like(x, math.log2(1 + gamma)))
        assert got == pytest.approx(math.log2(1 + gamma), rel=1e-12)

    @pytest.mark.parametrize("rho_db", [0.0, 10.0, 20.0, 30.0])
    def test_closed_form_vs_quadrature(self, rho_db):
        sys = make_system(alpha=2, mu=2, rho_db=rho_db)
        for user in ("strong", "weak"):
            c = ergodic_rate(sys, user, "closed-form").value
            q = ergodic_rate(sys, user, "quadrature").value
            assert c == pytest.approx(q, rel=1e-6)


class TestRateLoss:
    def test_vanishes_without_delay_constraint(self):
        assert rate_loss(make_system(theta=1e-9)) < 1e-6

    def test_monotone_in_theta(self):
        assert rate_loss(make_system(theta=2.0)) > rate_loss(make_system(theta=0.5))

    def test_increases_with_snr(self):
        assert rate_loss(make_system(rho_db=30.0)) > rate_loss(make_system(rho_db=10.0))


class TestNomaOmaGap:
    def test_negligible_under_strict_delay(self):
        # strict delay and severe fading: the superposition advantage
        # collapses (evaluated at the very asymmetric omega_w^2 = 0.01 pair,
        # where the loose-delay gap peaks above 2 bits)
        strict = [
            abs(noma_oma_gap(make_system(theta=2.0, rho_db=r, omega_w2=0.01)))
            for r in (0, 10, 20, 30, 40)
        ]
        loose = [
            noma_oma_gap(make_system(theta=0.5, rho_db=r, omega_w2=0.01))
            for r in (0, 10, 20, 30, 40)
        ]
        assert max(strict) < 0.25
        assert max(strict) < 0.3 * max(loose)

    def test_positive_over_practical_range(self):
        for rho_db in (10, 20, 30, 40):
            assert noma_oma_gap(make_system(theta=0.5, rho_db=rho_db)) > 0

    def test_shrinks_as_weak_link_strengthens(self):
        wide = noma_oma_gap(make_system(theta=1.0, rho_db=20.0, omega_w2=0.1))
        narrow = noma_oma_gap(make_system(theta=1.0, rho_db=20.0, omega_w2=0.5))
        assert wide > narrow


class TestPowerSearch:
    def test_singleton_grid(self):
        best_a, _ = power_search(make_system(), [0.1])
        assert best_a == 0.1

    def test_matches_brute_force(self):
        sys = make_system(alpha=2, mu=2, theta=0.5, rho_db=20.0)
        grid = [0.05, 0.1, 0.15, 0.2, 0.24]
        best_a, best_sum = power_search(sys, grid)
        sums = {a: sum_er_noma(replace(sys, a_s=a)) for a in grid}
        want = min(a for a, v in sums.items() if v == max(sums.values()))
        assert best_a == want
        assert best_sum == pytest.approx(max(sums.values()), rel=1e-12)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            power_search(make_system(), [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="feasible range"):
            power_search(make_system(), [0.3])


class TestGrids:
    """A grid of systems sharing one channel pair is one engine pass per
    user and route, with the bits of one system at a time."""

    @staticmethod
    def grid(alpha, mu, thetas=(0.5, 2.0), a_s=(0.05, 0.25, 0.45), rho_db=(0, 10, 20, 30)):
        pair = make_pair(alpha, mu)
        return [
            NomaSystem(pair, a, 10.0 ** (r / 10.0), DelayQos(t))
            for a in a_s for t in thetas for r in rho_db
        ]

    @staticmethod
    def assert_bitwise(rate, systems, *args):
        got = rate(systems, *args)
        assert isinstance(got, list) and len(got) == len(systems)
        assert got == [rate(s, *args) for s in systems]

    @pytest.mark.parametrize(
        "alpha, mu, thetas",
        [
            (2, 1, (0.5, 2.0)),
            (2, 3, (0.5, 2.0)),  # the weak user's high-SNR columns need high orders
            (4, 3, (0.5, 2.0)),
            (2, 3, (0.5, 0.0, 2.0)),  # theta = 0 columns amid theta > 0 ones
        ],
    )
    @pytest.mark.parametrize("rate", [er_noma, er_oma, ergodic_rate])
    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_grid_equals_one_at_a_time(self, alpha, mu, thetas, rate, user, monkeypatch):
        from noma_effrate import specfun

        scans, find_height = [], specfun._find_height

        def spy_height(logf):
            heights = find_height(logf)
            scans.append(heights.size)
            return heights

        monkeypatch.setattr(specfun, "_find_height", spy_height)
        systems = self.grid(alpha, mu, thetas)
        self.assert_bitwise(rate, systems, user)
        assert scans  # every grid takes the gain rule's window scan

    @pytest.mark.parametrize("rate", [er_noma, er_oma, ergodic_rate])
    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_mixed_theta_is_one_engine_pass(self, rate, user, monkeypatch):
        # theta = 0 rows are tilted columns of the same engine pass as theta > 0 rows
        from noma_effrate import effrate

        calls = []
        for name in ("laguerre_log_expectation", "laguerre_expectation"):
            def spy(*args, engine=getattr(effrate, name), name=name):
                calls.append(name)
                return engine(*args)

            monkeypatch.setattr(effrate, name, spy)
        rate(self.grid(2, 3, thetas=(0.5, 0.0, 2.0)), user)
        assert calls == ["laguerre_log_expectation"]

    def test_grid_wider_than_a_column_block(self):
        from noma_effrate.specfun import _COLUMNS

        systems = self.grid(2, 2, thetas=(0.5, 1.0), rho_db=np.linspace(0, 30, _COLUMNS // 3))
        assert len(systems) > _COLUMNS
        for rate in (er_noma, er_oma, ergodic_rate):
            self.assert_bitwise(rate, systems, "weak")

    def test_closed_form_grid(self):
        systems = self.grid(2, 1, thetas=(0.5, 0.0), a_s=(0.2,), rho_db=(10,))
        for rate in (er_noma, er_oma, ergodic_rate):
            self.assert_bitwise(rate, systems, "strong", "closed-form")

    def test_closed_form_grid_shares_contours(self, monkeypatch):
        # a cf-nakagami3-shaped grid: 2 exponents are 2 Fox-H specs, the 3 mixture components
        # inside each one's outer factor, one lattice height pair each, not one per system (12)
        import sys

        from noma_effrate import specfun

        callers, find_height = [], specfun._find_height

        def spy(logf):
            callers.append(sys._getframe(1).f_code.co_name)
            return find_height(logf)

        monkeypatch.setattr(specfun, "_find_height", spy)
        systems = self.grid(2, 3, thetas=(0.5, 1.0), a_s=(0.15, 0.3), rho_db=(5, 15, 25))
        er_noma(systems, "weak", "closed-form")
        assert callers.count("_fox_double_integral") == 2 * 2

    @pytest.mark.parametrize("alpha, mu", [(2, 3), (4, 3), (6, 2)])
    def test_closed_form_grid_spans_130_dB(self, alpha, mu):
        # -10 to 120 dB is more than one run of columns sharing a double contour: one
        # lattice at the middle column's saddles would be 6.3e-8 off at the grid's ends
        systems = self.grid(alpha, mu, thetas=(0.5, 1.0, 2.0), a_s=(0.24,), rho_db=range(-10, 121, 5))
        got = [r.value for r in er_noma(systems, "weak", "closed-form")]
        want = [r.value for r in er_noma(systems, "weak")]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_sum_and_power_search(self):
        systems = self.grid(2, 2, thetas=(0.5,), a_s=(0.1,))
        assert sum_er_noma(systems) == [sum_er_noma(s) for s in systems]
        grid = [0.2, 0.05, 0.1]
        assert power_search(systems, grid) == [power_search(s, grid) for s in systems]

    def test_empty_grid(self):
        assert er_noma([], "strong") == []

    def test_grid_must_share_one_pair(self):
        a, b = make_system(mu=1), make_system(mu=2)
        with pytest.raises(ValueError, match="one channel pair"):
            er_noma([a, b], "strong")
