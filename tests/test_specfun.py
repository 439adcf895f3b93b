"""Contour-quadrature and expectation-kernel tests.

The Meijer-G/Fox-H engines are checked three ways: against the reduction
identities they were built from, against mpmath's independent
implementation, and against direct quadrature of the expectations whose
closed forms they evaluate.
"""

import itertools
import math
import time
import tracemalloc
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import loggamma

from noma_effrate.channel import (
    AlphaMuChannel,
    ChannelPair,
    gain_moment,
    min_gain_mixture,
    min_gain_pdf,
)
from noma_effrate.closedform import power_mellin_analytic, ratio_mellin_analytic
from noma_effrate.specfun import (
    ContourError,
    FoxH2Spec,
    MeijerGSpec,
    fox_h2,
    laguerre_expectation,
    laguerre_log_expectation,
    meijer_g,
)


def set_contour(monkeypatch, nodes=129, max_nodes=1 << 19, rtol=1e-8):
    """Set the contour rules' starting nodes, node budget and tolerance."""
    from noma_effrate import specfun

    monkeypatch.setattr(specfun, "_NODES", nodes)
    monkeypatch.setattr(specfun, "_MAX_NODES", max_nodes)
    monkeypatch.setattr(specfun, "CONTOUR_RTOL", rtol)


def linear(form):
    """A Mellin closed form's (sign, log|mean|) as the mean."""
    sign, log_abs = form
    return sign * np.exp(log_abs)


def make_pair(alpha=2, mu=1, omega_s=1.0, omega_w2=0.1):
    return ChannelPair(
        AlphaMuChannel(alpha, mu, omega_s),
        AlphaMuChannel(alpha, mu, math.sqrt(omega_w2)),
    )


class TestMeijerIdentities:
    @pytest.mark.parametrize("z", np.geomspace(1e-3, 1e3, 9).tolist())
    def test_exponential(self, z):
        spec = MeijerGSpec(a=(), b=(0.0,), m=1, n=0)
        got = meijer_g(spec, z)
        assert got.sign > 0
        assert got.log_abs == pytest.approx(-z, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("z", [0.3, 1.7, 12.0])
    def test_no_right_pole_family(self, z):
        # G^{0,1}_{1,0}(z | 1; -) = e^(-1/z): m = 0, so the saddle scan runs geometrically
        # to the right of the one pole family
        spec = MeijerGSpec(a=(1.0,), b=(), m=0, n=1)
        assert meijer_g(spec, z).value == pytest.approx(math.exp(-1.0 / z), rel=1e-8)

    @pytest.mark.parametrize("z", np.geomspace(1e-3, 1e3, 9).tolist())
    def test_binomial(self, z):
        y = -1.3
        spec = MeijerGSpec(a=(1 + y,), b=(0.0,), m=1, n=1)
        want = math.gamma(-y) * (1 + z) ** y
        assert meijer_g(spec, z).value == pytest.approx(want, rel=1e-8)

    def test_binomial_spec_point(self):
        # (1+z)^y at z=0.5, y=-1.3 -> Gamma(1.3) * 1.5^-1.3
        y = -1.3
        spec = MeijerGSpec(a=(1 + y,), b=(0.0,), m=1, n=1)
        want = math.gamma(1.3) * 1.5**-1.3
        assert meijer_g(spec, 0.5).value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "a,b,m,n,z",
        [
            ((), (0.0,), 1, 0, 2.5),
            ((0.3,), (0.0,), 1, 1, 0.8),
            ((0.5, -0.25), (0.0, 0.5, -0.25), 3, 1, 1.7),
        ],
    )
    def test_against_mpmath(self, a, b, m, n, z):
        spec = MeijerGSpec(a=a, b=b, m=m, n=n)
        want = float(
            mp.meijerg(
                [list(a[:n]), list(a[n:])], [list(b[:m]), list(b[m:])], z
            )
        )
        assert meijer_g(spec, z).value == pytest.approx(want, rel=1e-9)

    def test_doubling_nodes_stays_within_error(self, monkeypatch):
        spec = MeijerGSpec(a=(0.3,), b=(0.0, 0.5), m=2, n=1)
        set_contour(monkeypatch, nodes=129)
        coarse = meijer_g(spec, 1.3)
        set_contour(monkeypatch, nodes=257)
        fine = meijer_g(spec, 1.3)
        assert abs(fine.value - coarse.value) <= 2 * abs(coarse.value) * max(
            coarse.error, 1e-14
        )

    def test_interleaved_poles_raise(self):
        # a=1 numerator-type against b=1.5: right family starts left of the
        # left family's top -> empty gap
        spec = MeijerGSpec(a=(-1.0,), b=(-2.5,), m=1, n=1)
        with pytest.raises(ContourError):
            meijer_g(spec, 1.0)

    def test_rejects_nonpositive_argument(self):
        spec = MeijerGSpec(a=(), b=(0.0,), m=1, n=0)
        with pytest.raises(ValueError):
            meijer_g(spec, 0.0)


class TestMellinStrongClosedForm:
    def test_spec_sample_point(self):
        # alpha=2, mu=1, a_s=0.2, rho=10, omega=1, exponent 1.5
        ch = AlphaMuChannel(2, 1, 1.0)
        c, w = 0.2 * 10.0, 1.5
        want, _ = quad(
            lambda x: (1 + c * x) ** -w * math.exp(-x), 0, np.inf, limit=200
        )
        assert linear(power_mellin_analytic(ch, c, w)) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha,mu", [(1, 2), (2, 2), (3, 1), (4, 3)])
    def test_against_gain_quadrature(self, alpha, mu):
        ch = AlphaMuChannel(alpha, mu, 0.9)
        c, w = 2.4, 0.7213
        want = laguerre_expectation(ch, lambda x: (1 + c * x) ** -w)
        assert linear(power_mellin_analytic(ch, c, w)) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1, 2, 4, 6])
    @pytest.mark.parametrize("mu", [1, 3, 10])
    def test_far_saddles_against_gain_quadrature(self, alpha, mu):
        # c over fifteen decades and w up to 1212.7 move each line's saddle far across the
        # scan, to both ends of a gap or deep into an open side; the closed forms hold the
        # contour tolerance on the value, |delta ln| <= 1e-8, also where the mean lies far
        # below the doubles (down to about e^-9000)
        from noma_effrate.closedform import log_mean_analytic
        from noma_effrate.specfun import CONTOUR_RTOL

        ch, cs = AlphaMuChannel(alpha, mu, 1.0), np.geomspace(1e-3, 1e12, 16)
        ws = np.array([0.05, 0.72, 3.3, 40.1, 400.3, 1212.7])
        c_grid, w_grid = np.meshgrid(cs, ws)
        want = laguerre_log_expectation(
            ch, lambda g, c: np.log1p(c * g), -w_grid.ravel(), (c_grid.ravel(),)
        )[0].reshape(w_grid.shape)
        for w, row in zip(ws.tolist(), want):
            sign, got = power_mellin_analytic(ch, cs, w)
            assert np.all(sign == 1.0)
            np.testing.assert_allclose(got, row, rtol=0, atol=CONTOUR_RTOL, err_msg=f"w={w}")
        log_mean = laguerre_expectation(ch, lambda g, c: np.log1p(c * g) / math.log(2.0), (cs,))
        np.testing.assert_allclose(
            np.log(log_mean_analytic(ch, cs)), np.log(log_mean), rtol=0, atol=CONTOUR_RTOL
        )


class TestFoxH2:
    def test_spec_assembly_point(self):
        # alpha=2, mu=1, rho=10, a_s=0.2, omega_s^2=1, omega_w^2=0.1, w=1.5
        pair = make_pair(2, 1, 1.0, 0.1)
        rho, a_s, w = 10.0, 0.2, 1.5
        kernel = lambda x: (1 + rho * x) ** -w * (1 + a_s * rho * x) ** w
        want, _ = quad(
            lambda x: kernel(x) * min_gain_pdf(pair, x), 0, np.inf, limit=300
        )
        got = linear(ratio_mellin_analytic(pair, rho, a_s, w))
        assert got == pytest.approx(want, rel=1e-4)

    def test_degenerate_exponent_approaches_one(self):
        pair = make_pair(2, 1, 1.0, 0.1)
        vals = [linear(ratio_mellin_analytic(pair, 10.0, 0.2, w)) for w in (0.2, 0.1, 0.05)]
        errs = [abs(v - 1.0) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.06

    def test_against_monte_carlo(self):
        pair = make_pair(2, 2, 1.0, 0.1)
        rho, a_s, w = 10.0, 0.2, 1.5
        rng = np.random.default_rng(31)
        from noma_effrate.channel import sample_min_gain

        g = sample_min_gain(pair, rng, 10_000_000)
        samples = (1 + rho * g) ** -w * (1 + a_s * rho * g) ** w
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        got = linear(ratio_mellin_analytic(pair, rho, a_s, w))
        assert abs(got - samples.mean()) < 3 * se

    def test_direct_kernel_value(self, monkeypatch):
        # at mu=1 the branch prefactors collapse and the bare double-contour
        # kernel equals Gamma(w) Gamma(-w) times the ratio expectation
        pair = make_pair(2, 1, 1.0, 0.1)
        mu, al = 1, 2
        rho, a_s, w = 4.0, 0.3, 0.85
        wt = pair.omega_tilde
        z1 = rho * (wt / mu) ** (2 / al)
        spec = FoxH2Spec(outer_c=mu, outer_r=2 / al, power=w)
        set_contour(monkeypatch, rtol=1e-9)
        h = fox_h2(spec, z1, a_s * z1)
        kernel = lambda x: (1 + rho * x) ** -w * (1 + a_s * rho * x) ** w
        mean, _ = quad(lambda x: kernel(x) * min_gain_pdf(pair, x), 0, np.inf, limit=300)
        want = mean * math.gamma(w) * math.gamma(-w)
        assert h.value == pytest.approx(want, rel=1e-7)

    def test_doubling_nodes_stays_within_error(self, monkeypatch):
        spec = FoxH2Spec(outer_c=2.0, outer_r=1.0, power=0.7213)
        set_contour(monkeypatch, nodes=129, rtol=1e-7)
        coarse = fox_h2(spec, 0.8, 0.2)
        set_contour(monkeypatch, nodes=257, rtol=1e-7)
        fine = fox_h2(spec, 0.8, 0.2)
        assert abs(fine.value - coarse.value) <= 2 * abs(coarse.value) * max(
            coarse.error, 1e-12
        )

    def test_integer_power_rejected(self):
        with pytest.raises(ContourError):
            FoxH2Spec(outer_c=1.0, outer_r=1.0, power=2.0)

    def test_non_convergence_reports_estimates(self, monkeypatch):
        from noma_effrate.specfun import ConvergenceError

        spec = MeijerGSpec(a=(0.3,), b=(0.0, 0.5), m=2, n=1)
        set_contour(monkeypatch, nodes=65, max_nodes=66, rtol=1e-14)
        with pytest.raises(ConvergenceError) as exc:
            meijer_g(spec, 1.3)
        assert exc.value.estimates is not None
        assert len(exc.value.estimates) == 2

    def test_fox_non_convergence_reports_estimates(self, monkeypatch):
        # the residue lines converge within 257 nodes but the double contour
        # does not: an exhausted budget raises instead of returning its value
        from noma_effrate.specfun import ConvergenceError

        spec = FoxH2Spec(outer_c=2.0, outer_r=1.0, power=0.7213)
        set_contour(monkeypatch, nodes=65, max_nodes=257, rtol=1e-8)
        with pytest.raises(ConvergenceError) as exc:
            fox_h2(spec, 0.8, 0.2)
        assert len(exc.value.estimates) == 2
        assert all(math.isfinite(e) for e in exc.value.estimates)

    def test_fox_non_convergence_fails_fast(self, monkeypatch):
        # an O(h) error in every Hankel row sum never settles to rtol; the
        # double contour's own node budget ends it within seconds
        from noma_effrate import specfun

        windows = specfun.sliding_window_view

        def skewed(c, n):
            return windows(c * (1.0 + 1.0 / n), n)

        monkeypatch.setattr(specfun, "sliding_window_view", skewed)
        spec = FoxH2Spec(outer_c=2.0, outer_r=1.0, power=0.7213)
        start = time.perf_counter()
        with pytest.raises(specfun.ConvergenceError, match="double contour"):
            fox_h2(spec, 0.8, 0.2)
        assert time.perf_counter() - start < 20.0

    def test_double_integral_matches_row_loop(self, monkeypatch):
        self.assert_double_integral_matches_row_loop(monkeypatch, (1.0,))

    def test_double_integral_with_mixture_matches_row_loop(self, monkeypatch):
        self.assert_double_integral_matches_row_loop(monkeypatch, (1.0, 0.6, 0.3))

    @staticmethod
    def assert_double_integral_matches_row_loop(monkeypatch, weights):
        # the separable lattice evaluation against a direct row-by-row trapezoid of the
        # full five-Gamma integrand, times the outer factor's mixture sum, on its own grid
        from noma_effrate.specfun import _find_height, _fox_double_integral, refine

        c0, r, x = 2.0, 1.0, 0.7213
        log_z1, log_z2 = math.log(0.8), math.log(0.2)
        sigma, tau = -0.35, -0.4
        set_contour(monkeypatch, nodes=65, max_nodes=4097, rtol=1e-10)

        def log_f(s, t):
            u = np.asarray(s + t)
            mixture = sum(w * np.prod([1 + r * u / (c0 + j) for j in range(k)], axis=0)
                          for k, w in enumerate(weights))
            return (
                loggamma(c0 + r * u) + loggamma(x + s) + loggamma(-s)
                + loggamma(t - x) + loggamma(-t) + s * log_z1 + t * log_z2 + np.log(mixture + 0j)
            )

        (hu,) = 1.3 * _find_height(lambda u: log_f(sigma + 1j * u, complex(tau)).real)
        (hv,) = 1.3 * _find_height(lambda v: log_f(complex(sigma), tau + 1j * v).real)

        def rows_estimate(n):
            u, v = np.linspace(-hu, hu, 2 * n - 1), np.linspace(0.0, hv, n)
            rows = [np.trapezoid(np.exp(log_f(sigma + 1j * u, tau + 1j * vj)), u) for vj in v]
            # rows at -v are the conjugates of rows at v
            return 2.0 * np.trapezoid(np.real(rows), v) / (4.0 * math.pi**2)

        (want,), _ = refine(lambda n, cols: [rows_estimate(n)], 65, 4097, 1e-10, "oracle", 1)
        spec = FoxH2Spec(outer_c=c0, outer_r=r, power=x, weights=weights)
        (got,), (log_scale,), (err,) = _fox_double_integral(
            spec, np.array([log_z1]), np.array([log_z2]), sigma, tau
        )
        assert err <= 1e-10
        assert got * math.exp(log_scale) == pytest.approx(want, rel=1e-12)

    @staticmethod
    def per_component(pair, rho, a_s, w):
        """The weak form as one single-weight Fox-H value per mixture component, of shape
        mu+k, combined with the weights w_k / Gamma(mu+k) in logs: (sign, log|mean|)."""
        r = 2.0 / pair.alpha
        signs, logs = [], []
        for weight, c in min_gain_mixture(pair):
            z1 = rho * (c.omega**c.alpha / c.mu) ** r
            h = fox_h2(FoxH2Spec(outer_c=c.mu, outer_r=r, power=w), z1, a_s * z1)
            signs.append(h.sign)
            logs.append(np.log(weight) - math.lgamma(c.mu) + h.log_abs)
        top = np.max(logs, axis=0)
        total = np.sum(np.multiply(signs, np.exp(logs - top)), axis=0)
        total *= -w * math.sin(math.pi * w) / math.pi  # 1 / (Gamma(w) Gamma(-w))
        return np.sign(total), top + np.log(np.abs(total))

    @pytest.mark.parametrize("alpha", [1, 2, 4])
    @pytest.mark.parametrize("mu", [2, 3, 5, 10])
    def test_folded_mixture_matches_per_component(self, alpha, mu):
        # one Fox-H value whose outer factor sums the mixture equals the sum of the
        # components' own Fox-H values
        pair = make_pair(alpha, mu)
        a_s = np.tile([0.15, 0.3], 3)
        rho = 10.0 ** (np.repeat([5.0, 15.0, 25.0], 2) / 10.0)
        for theta in (0.17, 0.5, 2.0):
            w = theta / math.log(2.0)
            sign, got = ratio_mellin_analytic(pair, rho, a_s, w)
            want_sign, want = self.per_component(pair, rho, a_s, w)
            assert np.array_equal(sign, want_sign)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"theta={theta}")

    def test_weak_form_is_one_fox_h(self, monkeypatch):
        from noma_effrate import closedform

        calls = []

        def spy(spec, z1, z2):
            calls.append(spec)
            return fox_h2(spec, z1, z2)

        monkeypatch.setattr(closedform, "fox_h2", spy)
        pair = make_pair(2, 3)
        ratio_mellin_analytic(pair, np.array([3.2, 31.6]), np.array([0.24, 0.3]), 1.7)
        assert len(calls) == 1
        (w0, _), *rest = min_gain_mixture(pair)
        assert calls[0].outer_c == 3 and calls[0].weights == (1.0, *(w / w0 for w, _ in rest))

    def test_small_exponent_matches_quadrature(self):
        pair = make_pair(2, 1, 1.0, 0.1)
        rho, a_s, w = 10.0, 0.2, 0.05
        want = laguerre_expectation(pair, lambda x: ((1 + rho * x) / (1 + a_s * rho * x)) ** -w)
        assert linear(ratio_mellin_analytic(pair, rho, a_s, w)) == pytest.approx(want, rel=1e-8)

    def test_contour_placement_matches_loop(self, monkeypatch):
        from noma_effrate import specfun
        from noma_effrate.specfun import _place_fox_contours

        def loop(c0, r, x):
            # the scalar scan of tau: the residue gap and sigma's window (-reach, 0)
            best = None
            for tau in np.linspace(-0.95, -0.05, 37):
                m_t = min(abs((x - tau) - round(x - tau)), -tau)
                n_res = math.ceil(x - tau)
                reach = min(x, tau + c0 / r, x - n_res + 1 + c0 / r)
                score = min(m_t, reach / 2)
                if best is None or score > best[0]:
                    best = (score, tau, n_res, reach)
            if best[0] <= 0:
                return None
            return best[1:]

        class Placed(Exception):
            pass

        def placed(spec, log_z1, log_z2, sigma, tau):
            raise Placed(sigma, tau)

        monkeypatch.setattr(specfun, "_fox_double_integral", placed)
        rejected = 0
        for c0, r, x in itertools.product(
            [0.1, 0.5, 1.0, 3.0], [0.5, 1.0, 2.0], [5e-4, 0.05, 0.25, 0.5, 0.7213, 1.5, 2.9, 4.05]
        ):
            spec = FoxH2Spec(outer_c=c0, outer_r=r, power=x)
            want = loop(c0, r, x)
            if want is None:
                rejected += 1
                with pytest.raises(ContourError):
                    _place_fox_contours(spec)
                continue
            assert _place_fox_contours(spec) == want, (c0, r, x)
            n_res = want[1]
            for z1 in (1e-6, 0.8, 1e12):
                # the lines fox_h2 integrates on: every pole family stays on its side
                with pytest.raises(Placed) as lines:
                    fox_h2(spec, z1, 0.2 * z1)
                sigma, tau = lines.value.args
                margins = [
                    sigma + x, -sigma,  # Gamma(x+s), Gamma(-s)
                    tau - (x - n_res), x - n_res + 1 - tau, -tau,  # Gamma(t-x), Gamma(-t)
                    c0 / r + sigma + tau,  # the outer Gamma on the double contour
                    c0 / r + sigma + x - n_res + 1,  # and on the last residue line
                ]
                assert min(margins) > 0, (c0, r, x, z1, margins)
        assert 0 < rejected < 96


def assert_loggamma_matches_scipy(z):
    """The real part to 1e-12 relative and the phase to 1e-12 relative modulo 2 pi.

    Both bounds floor the reference at 1: near the zeros of ln|Gamma| only
    an absolute bound holds, for scipy's value as much as for ours.
    """
    from noma_effrate.specfun import loggamma as own

    got, want = own(z), loggamma(z)
    re_err = np.abs(got.real - want.real) / np.maximum(np.abs(want.real), 1.0)
    turns = np.remainder(got.imag - want.imag + math.pi, 2.0 * math.pi) - math.pi
    phase_err = np.abs(turns) / np.maximum(np.abs(want.imag), 1.0)
    assert re_err.max() <= 1e-12, z.flat[np.argmax(re_err)]
    assert phase_err.max() <= 1e-12, z.flat[np.argmax(phase_err)]


class TestLogGamma:
    def test_tall_lines(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-3.0, 3.0, 4000) + 1j * rng.uniform(-1e3, 1e3, 4000)
        assert_loggamma_matches_scipy(z)
        # whole vertical lines, as the contour engines pass them
        t = np.linspace(-1e3, 1e3, 4001)
        assert_loggamma_matches_scipy(np.array([-2.7, -0.35, 0.5, 1.0, 2.9])[:, None] + 1j * t)

    def test_reflection_half_plane(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(-300.0, 0.5, 4000) + 1j * rng.uniform(-50.0, 50.0, 4000)
        assert_loggamma_matches_scipy(z)

    def test_large_real_parts(self):
        # Mellin exponents in the thousands put Gamma arguments far right
        x = np.geomspace(0.5, 1e6, 400)[:, None]
        assert_loggamma_matches_scipy(x + 1j * np.array([-1e3, -7.0, 0.0, 0.3, 40.0, 1e3]))

    def test_negative_real_axis(self):
        from noma_effrate.specfun import loggamma as own

        x = -np.random.default_rng(3).uniform(0.0, 200.0, 4000)
        z = x + 0j
        assert_loggamma_matches_scipy(z)
        # the real part is ln|Gamma|
        want = np.array([math.lgamma(v) for v in x])
        np.testing.assert_allclose(own(z).real, want, rtol=1e-12, atol=1e-12)

    def test_conjugate_symmetry(self):
        from noma_effrate.specfun import loggamma as own

        rng = np.random.default_rng(4)
        z = rng.uniform(-50.0, 50.0, 2000) + 1j * rng.uniform(0.0, 300.0, 2000)
        got, want = own(z.conj()), own(z).conj()
        turns = np.remainder(got.imag - want.imag + math.pi, 2.0 * math.pi) - math.pi
        assert np.all(got.real == want.real)
        assert np.abs(turns).max() <= 1e-12

    def test_scalar_and_poles(self):
        from noma_effrate.specfun import loggamma as own

        assert own(7.5) == pytest.approx(math.lgamma(7.5), rel=1e-14)
        assert np.ndim(own(7.5)) == 0
        with np.errstate(all="raise"):
            assert np.all(own(np.array([0.0, -1.0, -7.0]) + 0j).real == math.inf)
            for pole in (0.0, -1.0, -7.0):
                assert own(pole).real == math.inf

    def test_saddle_objective_at_denominator_pole(self):
        # 1/Gamma(s) vanishes at s = 0, the middle grid point of (-0.95, 0.95):
        # the objective reads -inf there, and the line may sit on it without a warning
        import warnings

        from noma_effrate.specfun import _meijer_integrand, _saddle_search

        spec = MeijerGSpec(a=(0.0,), b=(1.0, 1.0), m=1, n=1)
        log_g = _meijer_integrand(spec)
        assert log_g(0j).real == -math.inf
        assert abs(_saddle_search(log_g, -1.0, 1.0, np.array([math.log(0.7)]))[0]) < 1e-9
        want = float(mp.meijerg([[0.0], []], [[1.0], [1.0]], 0.7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = meijer_g(spec, 0.7).value
        assert got == pytest.approx(want, rel=1e-9)


class TestBatches:
    """An array of arguments is one contour evaluation per spec, with each column's value."""

    @pytest.mark.parametrize("alpha,mu", [(2, 1), (2, 3), (4, 3)])
    def test_closed_forms_equal_one_at_a_time(self, alpha, mu):
        from noma_effrate.closedform import log_mean_analytic, min_log_mean_difference_analytic

        pair, w = make_pair(alpha, mu), 0.5 / math.log(2.0)
        grid = itertools.product([0.15, 0.3], 10.0 ** (np.array([5.0, 15.0, 25.0]) / 10.0))
        a_s, rho = (np.array(col) for col in zip(*grid))
        forms = [
            (lambda c: linear(power_mellin_analytic(pair.strong, c, w)), (a_s * rho,)),
            (lambda c: log_mean_analytic(pair.weak, c), (rho,)),
            (lambda r, a: linear(ratio_mellin_analytic(pair, r, a, w)), (rho, a_s)),
            (lambda r, a: min_log_mean_difference_analytic(pair, r, a), (rho, a_s)),
        ]
        for form, args in forms:
            got = form(*args)
            assert got.shape == rho.shape
            np.testing.assert_allclose(got, [form(*p) for p in zip(*args)], rtol=1e-13, atol=0)

    def test_scalar_is_a_batch_of_one(self):
        spec = FoxH2Spec(outer_c=2.0, outer_r=1.0, power=0.7213)
        one, batch = fox_h2(spec, 0.8, 0.2), fox_h2(spec, np.array([0.8]), np.array([0.2]))
        assert isinstance(one.value, float) and isinstance(one.error, float)
        assert (one.value, one.log_abs, one.sign, one.error) == (
            batch.value[0], batch.log_abs[0], batch.sign[0], batch.error
        )
        with pytest.raises(ValueError):
            fox_h2(spec, np.array([0.8, 0.1]), np.array([0.2]))
        with pytest.raises(ValueError):
            meijer_g(MeijerGSpec(a=(), b=(0.0,), m=1, n=0), np.array([1.0, -1.0]))

    def test_batch_memory_is_bounded(self):
        # columns go through the lattice in blocks, so the peak does not grow with the batch
        import tracemalloc

        spec = FoxH2Spec(outer_c=2.0, outer_r=1.0, power=0.7213)

        def peak(n):
            z1 = np.geomspace(0.05, 900.0, n)
            tracemalloc.start()
            try:
                fox_h2(spec, z1, 0.2 * z1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) <= 2 * peak(64)


class TestSaddlePlacement:
    """Each Meijer-G line sits at its best scan point: one loggamma call places every line."""

    def test_lines_are_placed_in_one_loggamma_call(self, monkeypatch):
        from noma_effrate import specfun

        def unreachable(*args, **kwargs):
            raise AssertionError("meijer_g placed a line by math.lgamma")

        loggamma_, lines = specfun.loggamma, specfun._trapezoid_lines
        calls, in_rule = {"all": 0, "rules": 0}, [False]

        def counted(z):
            calls["all"] += 1
            calls["rules"] += in_rule[0]
            return loggamma_(z)

        def rule(*args):
            in_rule[0] = True
            try:
                return lines(*args)
            finally:
                in_rule[0] = False

        monkeypatch.setattr(math, "lgamma", unreachable)
        monkeypatch.setattr(specfun, "loggamma", counted)
        monkeypatch.setattr(specfun, "_trapezoid_lines", rule)
        spec = MeijerGSpec(a=(0.5, -0.25), b=(0.0, 0.5, -0.25), m=3, n=1)
        z = np.geomspace(0.05, 900.0, 70)  # two blocks of lines
        got = meijer_g(spec, z)
        monkeypatch.undo()
        assert calls["rules"] > 0 and calls["all"] - calls["rules"] == 1
        want = [meijer_g(spec, x).value for x in z[[0, 35, 69]].tolist()]
        np.testing.assert_allclose(got.value[[0, 35, 69]], want, rtol=1e-13, atol=0)

    def test_arguments_sharing_a_saddle_share_a_line(self, monkeypatch):
        from noma_effrate import specfun

        find_height, rows = specfun._find_height, []

        def counted(logf):
            height = find_height(logf)
            rows.append(height.size)
            return height

        monkeypatch.setattr(specfun, "_find_height", counted)
        spec = MeijerGSpec(a=(0.5, -0.25), b=(0.0, 0.5, -0.25), m=3, n=1)
        z = np.array([0.3, 1.7, 0.3, 1.7, 0.3])
        got = meijer_g(spec, z)
        monkeypatch.undo()
        assert rows == [2]  # one rule, two lines
        want = [meijer_g(spec, x).value for x in (0.3, 1.7)]
        np.testing.assert_allclose(got.value, want * 2 + want[:1], rtol=1e-13, atol=0)


class TestNestedRule:
    """The trapezoid rules reuse the previous level's nodes and evaluate only the new ones."""

    MEIJER = MeijerGSpec(a=(0.5, -0.25), b=(0.0, 0.5, -0.25), m=3, n=1)
    FOX = FoxH2Spec(outer_c=2.0, outer_r=1.0, power=0.7213)

    @pytest.fixture(autouse=True)
    def contour(self, monkeypatch):
        set_contour(monkeypatch, nodes=65, max_nodes=1 << 14, rtol=1e-12)

    @staticmethod
    def levels(monkeypatch, prepare, fresh):
        """[size, estimate, loggamma elements outside _find_height] per refinement level
        of the rule that ``prepare()`` returns, prepared before the counted run."""
        from noma_effrate import specfun

        run = prepare()
        levels, scanning = [], [False]
        refine, loggamma_, find_height = specfun.refine, specfun.loggamma, specfun._find_height

        def counted(z):
            if not scanning[0]:
                levels[-1][2] += np.size(z)
            return loggamma_(z)

        def scan(logf):
            scanning[0] = True
            try:
                return find_height(logf)
            finally:
                scanning[0] = False

        def recorded(estimate, n, *args, width):
            # a rule of one column, as the one-argument calls below make
            def wrapped(m, cols):
                levels.append([m, None, 0])
                (levels[-1][1],) = estimate(m, cols)
                return [levels[-1][1]]

            return refine(wrapped, n, *args, width=width)

        with monkeypatch.context() as patch:
            patch.setattr(specfun, "loggamma", counted)
            patch.setattr(specfun, "_find_height", scan)
            patch.setattr(specfun, "refine", recorded)
            if fresh:
                patch.setattr(specfun, "_nested", lambda log_f, origin: (
                    lambda h, lo, hi: log_f(origin + 1j * h * np.arange(lo, hi + 1))
                ))
            run()
        assert len(levels) >= 3
        return levels

    def line(self):
        # the offset's scan makes one loggamma call of its own, outside every rule level
        from noma_effrate.specfun import _meijer_integrand, _saddle_search, _trapezoid_lines

        log_g, log_z = _meijer_integrand(self.MEIJER), np.array([math.log(1.7)])
        offsets = _saddle_search(log_g, -0.5, -0.25, log_z)
        return lambda: _trapezoid_lines(log_g, log_z, offsets)

    def lattice(self):
        from noma_effrate.specfun import _fox_double_integral

        return lambda: _fox_double_integral(
            self.FOX, np.array([math.log(0.8)]), np.array([math.log(0.2)]), -0.35, -0.4
        )

    @pytest.mark.parametrize("rule", ["line", "lattice"])
    def test_estimates_match_fresh_evaluation(self, monkeypatch, rule):
        nested = self.levels(monkeypatch, getattr(self, rule), fresh=False)
        fresh = self.levels(monkeypatch, getattr(self, rule), fresh=True)
        assert [n for n, _, _ in nested] == [n for n, _, _ in fresh]
        for (n, got, _), (_, want, _) in zip(nested, fresh):
            assert got == pytest.approx(want, rel=1e-14, abs=0), n

    def test_line_evaluates_only_midpoints(self, monkeypatch):
        nested = self.levels(monkeypatch, self.line, fresh=False)
        fresh = self.levels(monkeypatch, self.line, fresh=True)
        n_terms = len(self.MEIJER.a) + len(self.MEIJER.b)
        sizes = [n for n, _, _ in nested]
        assert [count for _, _, count in fresh] == [n_terms * n for n in sizes]
        # the first level in full, then the (n - 1) / 2 midpoints of each later one
        assert [count for _, _, count in nested] == [n_terms * sizes[0]] + [
            n_terms * (n - 1) // 2 for n in sizes[1:]
        ]

    def test_lattice_evaluates_only_new_nodes(self, monkeypatch):
        from noma_effrate import specfun

        nested, calls = specfun._nested, []  # [origin, lo, hi, nodes evaluated]

        def counting(log_f, origin):
            def counted(s):
                calls[-1][3] += s.size
                return log_f(s)

            values = nested(counted, origin)

            def recorded(h, lo, hi):
                calls.append([origin, lo, hi, 0])
                return values(h, lo, hi)

            return recorded

        monkeypatch.setattr(specfun, "_nested", counting)
        self.lattice()()
        seen = set()
        for origin, lo, hi, count in calls:
            odd = (hi + 1) // 2 - (lo + 1) // 2  # odd k in lo..hi
            assert count == (odd if origin in seen else hi - lo + 1), (origin, lo, hi)
            seen.add(origin)
        assert len(seen) == 3 and len(calls) >= 9


class TestLaguerreTable:
    # the class and case ids are those of the Gauss-Laguerre table an earlier rule used
    @pytest.mark.parametrize("intervals", [32, 64, 128, 256])
    @pytest.mark.parametrize("mu", range(1, 9))
    def test_monomials_exact(self, intervals, mu, monkeypatch):
        # started at `intervals` steps, the trapezoid rule in ln r gives the moments
        # E[y^j] = Gamma(mu + j) / Gamma(mu) of y = mu g^(alpha/2) ~ Gamma(mu)
        from noma_effrate import specfun

        monkeypatch.setattr(specfun, "_GAIN_NODES", intervals + 1)
        j = np.arange(12.0)
        want = np.exp(loggamma(mu + j) - loggamma(mu))
        for alpha in (1, 2):
            log_y = lambda g, j: j * (math.log(mu) + 0.5 * alpha * np.log(g))  # noqa: E731
            got = np.exp(laguerre_log_expectation(AlphaMuChannel(alpha, mu, 1.0), log_y, 1.0, (j,))[0])
            np.testing.assert_allclose(got, want, rtol=2e-12, atol=0, err_msg=f"alpha={alpha}")


class TestLaguerreExpectation:
    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_unit_kernel(self, alpha, mu):
        ch = AlphaMuChannel(alpha, mu, 1.1)
        got = laguerre_expectation(ch, lambda x: np.ones_like(x))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_identity_kernel_exponential(self):
        ch = AlphaMuChannel(2, 1, 1.0)
        assert laguerre_expectation(ch, lambda x: x) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha,mu", [(2, 1), (3, 2), (4, 4)])
    def test_square_kernel_matches_moment(self, alpha, mu):
        ch = AlphaMuChannel(alpha, mu, 0.8)
        got = laguerre_expectation(ch, lambda x: x**2)
        assert got == pytest.approx(gain_moment(ch, 2), rel=1e-9)

    def test_rayleigh_incomplete_gamma_kernel(self):
        # E[(1+2x)^-1.5], x ~ Exp(1): frozen 25-digit mpmath value of
        # exp(1/c) c^-w Gamma(1-w, 1/c) with c=2, w=1.5
        ch = AlphaMuChannel(2, 1, 1.0)
        want = 0.3443204575812015284561288
        got = laguerre_expectation(ch, lambda x: (1 + 2 * x) ** -1.5)
        assert got == pytest.approx(want, rel=1e-10)

    def test_min_gain_branches_match_raw_quadrature(self):
        pair = make_pair(3, 2, 1.0, 0.36)
        kernel = lambda x: (1 + 1.7 * x) ** -0.9
        got = laguerre_expectation(pair, kernel)
        want, _ = quad(
            lambda x: kernel(x) * min_gain_pdf(pair, x), 0, np.inf, limit=300
        )
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "mu, pair",
        [(30, False), (40, False), (60, False), (20, True), (30, True), (40, True), (60, True)],
    )
    def test_large_shape_mean_matches_moment(self, mu, pair):
        # the envelope scan ends past the mass of the law's largest shape (2 mu - 1 for a
        # pair), which lies beyond y = r^alpha = 80 for these shapes
        from noma_effrate.channel import min_gain_moment

        ch = AlphaMuChannel(2, mu, 1.0)
        if pair:
            target = ChannelPair(ch, AlphaMuChannel(2, mu, 0.9))
            want = min_gain_moment(target, 1)
        else:
            target, want = ch, gain_moment(ch, 1)
        assert laguerre_expectation(target, lambda x: x) == pytest.approx(want, rel=1e-12)

    def test_log_expectation_matches_linear(self):
        pair = make_pair(2, 2, 1.0, 0.1)
        w = 3.7
        kernel = lambda x: (1 + 2.4 * x) ** -w
        log_kernel = lambda x: -w * np.log1p(2.4 * x)
        want = laguerre_expectation(pair, kernel)
        got, err = laguerre_log_expectation(pair, log_kernel)
        assert got == pytest.approx(math.log(want), abs=1e-8)
        assert err < 1e-8

    def test_log_expectation_extreme_exponent(self):
        # exponent far beyond linear-space representability
        ch = AlphaMuChannel(2, 1, 1.0)
        w = 1200.0
        log_kernel = lambda x: -w * np.log1p(2.4 * x)
        got, _ = laguerre_log_expectation(ch, log_kernel)
        want, _ = quad(
            lambda x: np.exp(-w * np.log1p(2.4 * x)) * np.exp(-x), 0, np.inf, limit=300
        )
        assert got == pytest.approx(math.log(want), rel=1e-5)
        # alpha = 4: the integrand peaks near g = 2e-3, so the reference
        # splits its range there
        pair = make_pair(4, 3, 1.0, 0.1)
        got, err = laguerre_log_expectation(pair, log_kernel)
        f = lambda x: math.exp(log_kernel(x)) * min_gain_pdf(pair, x)
        want = sum(
            quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=500)[0]
            for lo, hi in [(0.0, 0.02), (0.02, np.inf)]
        )
        assert got == pytest.approx(math.log(want), rel=1e-9)
        assert err < 1e-9

    def test_exhausted_order_budget_raises(self):
        # a step kernel defeats the rule: its budget runs out, quickly and in little memory
        from noma_effrate.specfun import ConvergenceError

        ch = AlphaMuChannel(2, 1, 1.0)
        with bounded(seconds=5.0, megabytes=100), pytest.raises(ConvergenceError) as exc:
            laguerre_log_expectation(ch, lambda g: np.where(g < 0.3, 0.0, -5.0))
        assert len(exc.value.estimates) == 2
        assert all(math.isfinite(e) for e in exc.value.estimates)

    @pytest.mark.parametrize(
        "target, k, s_max, label",  # the labels only keep the case ids stable
        [
            (AlphaMuChannel(2, 1, 1.0), lambda g: np.log1p(2.4 * g), 0.01, "laguerre"),
            (AlphaMuChannel(2, 3, 1.0), lambda g: np.log1p(20.0 * g), 5.0, "fallback"),
            (AlphaMuChannel(4, 3, 1.0), lambda g: np.log1p(7.6 * g), 5.0, "legendre"),
            (make_pair(2, 2), lambda g: np.log1p(31.6 * g) - np.log1p(7.6 * g), 5.0, "fallback"),
        ],
    )
    def test_batch_equals_one_at_a_time(self, target, k, s_max, label, monkeypatch):
        # the delay bound's Mellin exponents -N s / ln 2 for s in [1e-6, s_max]
        from noma_effrate import specfun

        c = -168.0 * np.geomspace(1e-6, s_max, 40) / math.log(2.0)
        scans, blocks = spy_gain_rule(monkeypatch)
        got, err = laguerre_log_expectation(target, k, c)
        monkeypatch.undo()
        # one route for every gain law: one window scan sees every column on both
        # sides of the mode, and the rule starts at _GAIN_NODES
        assert scans == [2 * c.size]
        assert len(blocks) == 1 and blocks[0][0] == specfun._GAIN_NODES
        one = [laguerre_log_expectation(target, k, x) for x in c]
        assert all(type(v) is float for pair in one for v in pair)
        assert got.tolist() == [v for v, _ in one]
        assert err.tolist() == [e for _, e in one]

    def test_pair_is_one_rule_per_column_block(self, monkeypatch):
        # a mu = 3 pair is one density: one window scan and one sequence of
        # node counts per block of columns, not one per mixture component
        from noma_effrate import specfun

        scans, blocks = spy_gain_rule(monkeypatch)
        c = -168.0 * np.geomspace(1e-6, 5.0, specfun._COLUMNS + 36) / math.log(2.0)
        k = lambda g: np.log1p(31.6 * g) - np.log1p(7.6 * g)  # noqa: E731
        laguerre_log_expectation(make_pair(2, 3), k, c)
        assert scans == [2 * specfun._COLUMNS, 2 * 36]
        assert len(blocks) == 2
        for levels in blocks:
            assert levels == [((specfun._GAIN_NODES - 1) << j) + 1 for j in range(len(levels))]

    @pytest.mark.parametrize("alpha, mu", [(2, 1), (2, 2), (2, 3), (4, 3), (1, 2), (3, 4), (2, 6)])
    def test_pair_matches_per_component_oracle(self, alpha, mu):
        # the mixture summed from single-law evaluations of its components; where the
        # one-density rule stops with a change near its 1e-9 tolerance (err >= 1e-10,
        # about 3% of these columns), its estimate is good only to that change
        pair = make_pair(alpha, mu)
        w = np.array([wk for wk, _ in min_gain_mixture(pair)])[:, None]
        c = -np.concatenate(
            [168.0 * np.geomspace(1e-6, 5.0, 200), [1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0]]
        ) / math.log(2.0)  # the dvp search range's Mellin exponents, then rate exponents
        for db in (0, 10, 30):
            rho = 10.0 ** (db / 10.0)
            k = lambda g: np.log1p(rho * g) - np.log1p(0.24 * rho * g)  # noqa: E731
            got, err = laguerre_log_expectation(pair, k, c)
            parts = [laguerre_log_expectation(comp, k, c) for _, comp in min_gain_mixture(pair)]
            logs, errs = (np.array([p[j] for p in parts]) for j in (0, 1))
            terms = w * np.exp(logs - logs.max(axis=0))
            with np.errstate(divide="ignore"):  # log1p(-1) in the columns far from one
                want = np.where(
                    np.abs(logs).max(axis=0) <= 1.0,
                    np.log1p((w * np.expm1(logs)).sum(axis=0) / w.sum()),
                    logs.max(axis=0) + np.log(terms.sum(axis=0)),
                )
            want_err = (terms * errs).sum(axis=0) / terms.sum(axis=0)
            tight = err < 1e-10
            assert tight.mean() > 0.9
            rel = np.abs(got - want) / np.abs(want)
            assert rel[tight].max() <= 1e-13, (db, np.argmax(np.where(tight, rel, 0)))
            assert np.all(np.abs(np.expm1(got - want))[~tight] <= (err + want_err)[~tight])

    @pytest.mark.parametrize("target", [AlphaMuChannel(2, 1, 1.0), make_pair(2, 3)])
    def test_zero_exponent_gives_exactly_zero(self, target):
        assert laguerre_log_expectation(target, lambda g: np.log1p(7.6 * g), 0.0)[0] == 0.0

    def test_batch_with_one_unconverged_column_raises(self):
        # c = 0 converges at once; the step kernel defeats the rule at c = 1
        from noma_effrate.specfun import ConvergenceError

        ch = AlphaMuChannel(2, 1, 1.0)
        step = lambda g: np.where(g < 0.3, 0.0, -5.0)
        assert laguerre_log_expectation(ch, step, 0.0)[0] == pytest.approx(0.0, abs=1e-12)
        with bounded(seconds=5.0, megabytes=100), pytest.raises(ConvergenceError) as exc:
            laguerre_log_expectation(ch, step, np.array([0.0, 1.0, 0.0]))
        assert len(exc.value.estimates) == 2
        assert all(math.isfinite(e) for e in exc.value.estimates)


def spy_gain_rule(monkeypatch):
    """Record the rows of every window scan and, per rule (one per column block), the
    node count of every level."""
    from noma_effrate import specfun

    scans, blocks = [], []
    find_height, nested = specfun._find_height, specfun._nested

    def spy_height(logf):
        heights = find_height(logf)
        scans.append(heights.size)
        return heights

    def spy_nested(log_f, origin, unit=1j):
        values, levels = nested(log_f, origin, unit), []
        blocks.append(levels)

        def recorded(h, lo, hi):
            levels.append(hi - lo + 1)
            return values(h, lo, hi)

        return recorded

    monkeypatch.setattr(specfun, "_find_height", spy_height)
    monkeypatch.setattr(specfun, "_nested", spy_nested)
    return scans, blocks


@contextmanager
def bounded(seconds, megabytes):
    """Fail unless the block takes less wall time and allocates at its peak less memory
    (traced numpy and Python allocations) than given."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < seconds and peak < megabytes * 1e6, (elapsed, peak)


def full_cutoff(logf, rows):
    """The gain rule's window heights as full scans of every range, row by row: the oracle."""
    return np.array([full_height(lambda t, i=i: logf(t[None])[i]) for i in range(rows)])


def full_height(logf):
    """The contour height as a scan of all 513 points of each range: the oracle.  It is the
    first point _LOG_CUTOFF below the peak past the peak and past the last point within
    _LOG_CUTOFF of it, so a second mode further out stays inside."""
    from noma_effrate.specfun import _LOG_CUTOFF

    t = np.linspace(0.0, 64.0, 513)
    la = logf(t)
    peak = la.max()
    k = 0
    while True:
        above = np.nonzero(la >= peak - _LOG_CUTOFF)[0]
        after = max(np.argmax(la), above[-1] if above.size else 0)
        below = np.nonzero((la < peak - _LOG_CUTOFF) & (t > t[after]))[0]
        if below.size:
            return t[below[0]]
        k += 1
        if k > 12:
            raise ContourError("integrand does not decay")
        t = t[-1] + np.linspace(0.0, t[-1], 513)[1:]
        la = logf(t)
        peak = max(peak, la.max())


@st.composite
def unimodal_rows(draw, sizes=(513, 2048)):
    """A row of n values that rises strictly to its maximum and does not rise after it,
    with the threshold crossing placed on a coarse point, just after the peak, anywhere
    or nowhere, and optionally a run of -inf or nan at its head or tail."""
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(
        st.sampled_from([0, n - 1])
        | st.integers(0, (n - 1) // 8).map(lambda k: 8 * k)
        | st.integers(0, n - 1)
    )
    top, steep = draw(st.floats(-1e3, 1e3)), draw(st.sampled_from([1.0, 40.0]))
    row = np.empty(n)
    row[: p + 1] = top - np.cumsum(steep * rng.uniform(1e-3, 3.0, p + 1)[::-1])[::-1]
    row[p] = top
    fall = steep * rng.uniform(0.0, 2.0, n - p - 1) * (rng.random(n - p - 1) < 0.7)
    row[p + 1 :] = top - np.cumsum(fall)
    where = draw(st.sampled_from(["anywhere", "coarse", "after peak", "none"]))
    if where != "anywhere" and p < n - 1:
        q = {"coarse": min(n - 1, 8 * (p // 8 + draw(st.integers(1, 40)))), "after peak": p + 1,
             "none": n}[where]
        row[p + 1 :] = np.maximum(row[p + 1 :], top - 55.0 + 1e-3)  # above the threshold before q
        row[q:] = np.minimum(row[q:], top - 55.0 - draw(st.floats(1e-9, 10.0)))
        row[p + 1 :] = top - np.maximum.accumulate(top - row[p + 1 :])  # no rise after the peak
    special, run = draw(st.sampled_from([None, -np.inf, np.nan])), draw(st.sampled_from("hta"))
    if special is not None and run == "t":
        row[max(p + 1, n - draw(st.integers(1, n))) :] = special
    elif special is not None and run == "a":
        row[:] = special
    elif special is not None and p >= 9:
        row[: draw(st.integers(1, p - 8))] = -np.inf
    return row


class TestFirstDrop:
    """``_first_drop`` returns the full scan's index from a fraction of the points."""

    @staticmethod
    def full_scan(li, drop):
        # the loop body of the full envelope scan: the first drop past the peak and past
        # the last point above the threshold
        li = np.where(np.isfinite(li), li, -np.inf)
        peak = np.argmax(li, axis=1)
        top = li[np.arange(li.shape[0]), peak]
        cut, index = top[:, None] - drop, np.arange(li.shape[1])
        after = np.maximum(peak, np.where(li < cut, -1, index).max(axis=1))
        below = (li < cut) & (index > after[:, None])
        return np.where(below.any(axis=1), np.argmax(below, axis=1), li.shape[1])

    @seed(20201013)
    @settings(max_examples=400, deadline=None)
    @given(st.lists(unimodal_rows(), min_size=1, max_size=6))
    def test_synthetic_rows(self, rows):
        from noma_effrate.specfun import _first_drop

        for n in (513, 2048):
            block = [row for row in rows if row.size == n]
            if not block:
                continue
            li = np.where(np.isfinite(block), block, -np.inf)
            seen = []

            def values(idx):
                seen.append(idx.shape[1])
                return np.take_along_axis(li, np.broadcast_to(idx, (li.shape[0], idx.shape[1])), 1)

            got = _first_drop(values, n, 55.0)[0]
            assert got.tolist() == self.full_scan(li, 55.0).tolist()
            assert sum(seen) <= n // 8 + 24

    def test_second_mode_after_a_dip(self):
        # a row that falls under the threshold and climbs back to a second mode on
        # [140, 260]: the drop is past that mode, at 261, as in the full scan
        from noma_effrate.specfun import _first_drop

        x = np.arange(513.0)
        li = np.maximum(-(((x - 40.0) / 8.0) ** 2), -30.0 - ((x - 200.0) / 12.0) ** 2)[None]
        got = _first_drop(lambda idx: li[:, idx[0]], 513, 55.0)[0]
        assert got.tolist() == self.full_scan(li, 55.0).tolist() == [261]

    @seed(20201013)
    @settings(max_examples=60, deadline=None)
    @given(unimodal_rows(sizes=(513,)))
    def test_synthetic_heights(self, row):
        # a 513-point row on [0, 64], falling on past 64 for the extension branch
        from noma_effrate.specfun import _find_height

        row = np.where(np.isnan(row), -np.inf, row)

        def logf(t):
            k = np.minimum(np.rint(8.0 * t).astype(int), 512)
            return np.where(t <= 64.0, row[k], row[-1] - (t - 64.0))

        def outcome(find_height):
            try:
                return find_height(logf)
            except ContourError:  # a row of -inf never drops below its peak
                return None

        assert outcome(_find_height) == outcome(full_height)

    @seed(20201013)
    @settings(max_examples=80, deadline=None)
    @given(
        alpha=st.integers(1, 6),
        mu=st.integers(1, 8),
        omega=st.floats(0.3, 3.0),
        n=st.integers(1, 64),
        c_max=st.floats(1e-9, 168.0 * 5.0 / math.log(2.0)),
        sign=st.sampled_from([-1.0, 1.0, 0.0]),
        ratio=st.booleans(),
        state=st.integers(0, 2**32 - 1),
        weak=st.one_of(st.none(), st.floats(0.05, 0.95)),
    )
    def test_envelope_integrands(self, alpha, mu, omega, n, c_max, sign, ratio, state, weak):
        # the engine's kernels, one parameter set and one exponent per column;
        # sign 0 mixes both signs; ``weak`` draws a pair with omega_w = weak * omega
        from noma_effrate import specfun

        rng = np.random.default_rng(state)
        target = AlphaMuChannel(alpha, mu, omega)
        if weak is not None:
            target = ChannelPair(target, AlphaMuChannel(alpha, mu, weak * omega))
        c = c_max * np.geomspace(1e-6, 1.0, n) * (sign or rng.choice([-1.0, 1.0], n))
        rho = 10.0 ** rng.uniform(-3.0, 6.0, n)
        params = (rho, rng.uniform(0.05, 0.5, n)) if ratio else (rho,)

        def kernel(g, x, *a_s):
            return np.log1p(x * g) - np.log1p(a_s[0] * x * g) if a_s else np.log1p(x * g)

        class Scanned(Exception):
            pass

        find_height = specfun._find_height

        def check(logf):  # the window scan of the first block, then stop the engine
            got = find_height(logf)
            assert got.tolist() == full_cutoff(logf, got.size).tolist()
            raise Scanned

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "_find_height", check)
            with pytest.raises(Scanned):
                laguerre_log_expectation(target, kernel, c, params)

    def test_contour_heights(self, monkeypatch):
        # every height the Meijer-G and Fox-H engines ask for; G^{1,0}_{0,1}(50 | 50)
        # peaks so far up its line that its height lies past t = 64
        from noma_effrate import specfun

        heights, find_height = [], specfun._find_height

        def both(logf):
            # one pair per line: logf gives a row per line
            got = find_height(logf)
            for i, h in enumerate(got.tolist()):
                heights.append((h, full_height(lambda t: logf(t[None])[i])))
            return got

        monkeypatch.setattr(specfun, "_find_height", both)
        meijer_g(MeijerGSpec(a=(), b=(50.0,), m=1, n=0), 50.0)
        meijer_g(MeijerGSpec(a=(0.5, -0.25), b=(0.0, 0.5, -0.25), m=3, n=1), 1.7)
        power_mellin_analytic(AlphaMuChannel(4, 3, 1.0), 7.6, 2.3)
        fox_h2(FoxH2Spec(outer_c=2.0, outer_r=1.0, power=0.7213), 0.8, 0.2)
        ratio_mellin_analytic(make_pair(2, 3), 31.6, 0.24, 1.7)
        assert len(heights) >= 8
        assert max(h for h, _ in heights) > 64.0
        assert [h for h, _ in heights] == [h for _, h in heights]
