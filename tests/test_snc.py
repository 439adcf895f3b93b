"""Mellin-transform and delay-bound tests: limit values, known kernels,
strategy agreement, and structural properties of the infimum search."""

import math

import mpmath as mp
import numpy as np
import pytest

from noma_effrate.channel import AlphaMuChannel, ChannelPair, ParameterError, sample_min_gain
from noma_effrate.effrate import DelayQos, NomaSystem, ergodic_rate
from noma_effrate.snc import (
    LN2,
    DvpBound,
    MellinValue,
    SncConfig,
    bound_decay_slope,
    dvp_curve,
    mellin_strong,
    mellin_weak,
)


def make_system(alpha=2, mu=1, a_s=0.24, rho_db=10.0, theta=0.5, omega_w2=0.1):
    pair = ChannelPair(
        AlphaMuChannel(alpha, mu, 1.0),
        AlphaMuChannel(alpha, mu, math.sqrt(omega_w2)),
    )
    return NomaSystem(pair, a_s, 10.0 ** (rho_db / 10.0), DelayQos(theta))


def make_cfg(load=0.7, user_for_load="strong", **kw):
    sys = make_system(**kw)
    service = 168 * ergodic_rate(sys, user_for_load).value
    return SncConfig(sys, 168, load * service)


def log_bracket_of(cfg, user):
    """s, d -> log[M(s)^d / (1 - exp(lam*s) M(s))] on the scalar Mellin transforms, inf
    where s is unstable, and s -> lam*s + log M(s); M is cached per exponent."""
    mellin = {"strong": mellin_strong, "weak": mellin_weak}[user]
    cache = {}

    def h(s):
        if s not in cache:
            cache[s] = mellin(cfg, s).log_value
        return cfg.arrival_rate * s + cache[s]

    def log_bracket(s, d):
        log_k = h(s)
        if log_k >= 0.0:
            return math.inf
        return d * cache[s] - math.log(-math.expm1(log_k))

    return log_bracket, h


def stability_edge(h):
    """The root s0 of h, bisected in log s to 1e-12 (its unstable end), or None where h is
    not negative at s = 1e-12."""
    lo, hi = 1e-12, 1e-12
    while h(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    if hi == lo:
        return None
    while math.log(hi / lo) > 1e-12:
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if h(mid) < 0.0 else (lo, mid)
    return hi


def golden_bound(log_bracket, d, s_lo, s_hi):
    """The delay bound of one delay by a 200-point log-spaced scan of [s_lo, s_hi] and a
    golden section, narrowing log s to 1e-9, between the neighbours of its best point."""
    grid = np.geomspace(s_lo, s_hi, 200)
    vals = np.array([log_bracket(s, d) for s in grid])
    if not np.any(np.isfinite(vals)):
        return DvpBound(d, 1.0, None, False, 0.0)
    k = int(np.argmin(vals))
    a, b = math.log(grid[max(k - 1, 0)]), math.log(grid[min(k + 1, len(grid) - 1)])
    f = lambda x: log_bracket(math.exp(x), d)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if b - a <= 1e-9:
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    s_star = math.exp(0.5 * (a + b))
    best = min(log_bracket(s_star, d), float(vals[k]))
    log_bound = min(best, 0.0)
    return DvpBound(d, math.exp(log_bound), s_star, True, log_bound)


def dense_log_mellin_weak(cfg, s):
    """log M(s) of the weak user by a dense trapezoid rule in ln g against the minimum
    gain's density: an integrator independent of the gain engine."""
    from scipy.special import gammaincc, gammaln, logsumexp

    u = np.linspace(-120.0, 12.0, 20001)
    g = np.exp(u)
    log_p, log_sf = [], []
    for link in (cfg.system.pair.strong, cfg.system.pair.weak):
        x = link.mu * g ** (link.alpha / 2) / link.omega**link.alpha
        log_p.append(link.mu * np.log(x) - x - gammaln(link.mu) + math.log(link.alpha / 2))
        with np.errstate(divide="ignore"):
            log_sf.append(np.log(gammaincc(link.mu, x)))
    log_f = np.logaddexp(log_p[0] + log_sf[1], log_p[1] + log_sf[0])  # density of min(g_s, g_w)
    rho, a_s = cfg.system.rho, cfg.system.a_s
    k = np.log1p(rho * g) - np.log1p(a_s * rho * g)
    return float(logsumexp(log_f - cfg.varpi(s) * k)) + math.log(u[1] - u[0])


class TestMellinStrong:
    def test_tends_to_one_at_small_exponent(self):
        cfg = make_cfg()
        got = mellin_strong(cfg, 1e-9)
        assert abs(got.value - 1.0) < 1e-6

    def test_rayleigh_incomplete_gamma(self):
        # exponential gain: E[(1+c g)^-w] = e^(1/c) c^-w Gamma(1-w, 1/c)
        cfg = make_cfg()
        s = 0.01
        w = cfg.varpi(s)
        c = cfg.system.a_s * cfg.system.rho
        want = float(mp.exp(1 / c) * mp.mpf(c) ** -w * mp.gammainc(1 - w, 1 / c))
        got = mellin_strong(cfg, s)
        assert got.value == pytest.approx(want, rel=1e-7)
        assert got.varpi == pytest.approx(168 * s / LN2)

    def test_monotone_decreasing_in_s(self):
        cfg = make_cfg()
        vals = [mellin_strong(cfg, s).value for s in (0.001, 0.005, 0.02, 0.1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_strategies_agree(self):
        cfg = make_cfg(alpha=3, mu=2)
        q = mellin_strong(cfg, 0.01, "quadrature")
        c = mellin_strong(cfg, 0.01, "closed-form")
        assert c.value == pytest.approx(q.value, rel=1e-8)  # the contour's default rtol

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            mellin_strong(make_cfg(), 0.0)

    @pytest.mark.parametrize("s", [math.inf, math.nan, -1.0])
    def test_rejects_s_outside_the_positive_doubles(self, s):
        with pytest.raises(ParameterError, match=f"^s: must be positive and finite, got {s}$"):
            mellin_strong(make_cfg(), s)

    def test_value_above_one_raises(self, monkeypatch):
        # log M > 0 is impossible for s > 0: the check sees the engine's value unclamped
        from noma_effrate import snc

        cfg = make_cfg()
        monkeypatch.setattr(snc, "log_moment", lambda *args: (1e-6, 0.0))
        with pytest.raises(ValueError, match="cannot exceed 1"):
            mellin_strong(cfg, 0.01)

    def test_closed_form_mean_below_the_doubles_matches_quadrature(self):
        # E[(1 + a_s rho g)^-varpi] is about e^-1184 at mu = 40, 120 dB and s = 5: zero as a
        # linear double, but the closed form carries its log from the contour to the bound
        cfg = SncConfig(make_system(mu=40, rho_db=120.0), 168, 170.0)
        want = mellin_strong(cfg, 5.0, "quadrature").log_value
        assert want == pytest.approx(-1183.91, rel=1e-5)
        assert mellin_strong(cfg, 5.0, "closed-form").log_value == pytest.approx(want, rel=0, abs=1e-8)


class TestMellinWeak:
    def test_tends_to_one_at_small_exponent(self):
        cfg = make_cfg()
        assert abs(mellin_weak(cfg, 1e-9).value - 1.0) < 1e-6

    def test_high_snr_saturation(self):
        # sinr saturates at a_w/a_s, so M -> (1 + a_w/a_s)^-w
        cfg = make_cfg(rho_db=80.0)
        s = 0.01
        w = cfg.varpi(s)
        want = (1.0 + cfg.system.a_w / cfg.system.a_s) ** -w
        assert mellin_weak(cfg, s).value == pytest.approx(want, rel=1e-3)

    def test_against_monte_carlo(self):
        cfg = make_cfg(a_s=0.2)
        s = 0.01
        w = cfg.varpi(s)
        rng = np.random.default_rng(17)
        g = sample_min_gain(cfg.system.pair, rng, 10_000_000)
        rho, a_s = cfg.system.rho, cfg.system.a_s
        samples = (1.0 + (1 - a_s) * rho * g / (a_s * rho * g + 1.0)) ** -w
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(mellin_weak(cfg, s).value - samples.mean()) < 3 * se

    def test_strategies_agree(self):
        # the s-line's window narrows as varpi grows: Rayleigh and Nakagami-2 up to varpi = 121
        for cfg in (make_cfg(alpha=2, mu=2), make_cfg(alpha=2, mu=1)):
            for s in (0.01, 0.1, 0.2, 0.5):  # varpi = 2.4, 24.2, 48.5 and 121.2
                q = mellin_weak(cfg, s, "quadrature")
                c = mellin_weak(cfg, s, "closed-form")
                assert c.value == pytest.approx(q.value, rel=1e-8), s  # the contour's default rtol

    def test_high_snr_second_mode_stays_in_the_window(self):
        # at 120 dB the weak kernel lifts the minimum gain's low tail into a second mode
        # beyond the first drop below the window's cutoff; a window closed at that drop
        # gave -83.8793.  The value is mpmath's, which the dense trapezoid also gives
        cfg = SncConfig(make_system(mu=3, rho_db=120.0), 168, 170.0)
        got = mellin_weak(cfg, 0.2425).log_value
        assert got == pytest.approx(-83.2020058165, rel=1e-11)
        assert got == pytest.approx(dense_log_mellin_weak(cfg, 0.2425), rel=1e-11)

    def test_value_capped_at_one(self):
        with pytest.raises(ValueError):
            MellinValue(1.5, 0.4, 0.1, 2.0, "quadrature")


class TestDvpBound:
    def test_nonincreasing_in_delay(self):
        cfg = make_cfg()
        curve = dvp_curve(cfg, "strong", range(0, 16))
        bounds = [b.bound for b in curve]
        assert all(a >= b - 1e-15 for a, b in zip(bounds, bounds[1:]))

    def test_strong_below_weak(self):
        # same arrival rate for both users, sized for weak-user stability
        cfg = make_cfg(load=0.6, user_for_load="weak")
        for d in (2, 5, 10):
            assert dvp_curve(cfg, "strong", [d])[0].bound <= dvp_curve(cfg, "weak", [d])[0].bound

    def test_increasing_arrival_rate_increases_bound(self):
        sys = make_system()
        service = 168 * ergodic_rate(sys, "strong").value
        lo = SncConfig(sys, 168, 0.5 * service)
        hi = SncConfig(sys, 168, 0.8 * service)
        for d in (1, 5, 10):
            assert dvp_curve(hi, "strong", [d])[0].bound >= dvp_curve(lo, "strong", [d])[0].bound

    def test_infeasible_when_overloaded(self):
        sys = make_system()
        service = 168 * ergodic_rate(sys, "strong").value
        cfg = SncConfig(sys, 168, 1.5 * service)
        got = dvp_curve(cfg, "strong", [5])[0]
        assert not got.feasible
        assert got.bound == 1.0
        assert got.minimizer_s is None

    def test_zero_delay_row(self):
        got = dvp_curve(make_cfg(), "strong", [0])[0]
        assert got.bound <= 1.0
        assert got.feasible

    def test_log_bound_affine_in_delay(self):
        # at large delay the minimizer stabilizes and log(bound) becomes
        # affine with slope log M(1-s*)
        cfg = make_cfg()
        curve = dvp_curve(cfg, "strong", range(10, 31))
        slope = bound_decay_slope(curve)
        want = mellin_strong(cfg, curve[-1].minimizer_s).log_value
        assert slope == pytest.approx(want, rel=0.02)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            dvp_curve(make_cfg(), "strong", [-1])[0]

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0])
    def test_rejects_delay_outside_the_nonnegative_doubles(self, delay):
        # the queue is feasible at d = 3, so nan or inf would be no reason to report it infeasible
        cfg = make_cfg()
        assert dvp_curve(cfg, "strong", [3])[0].feasible
        with pytest.raises(ParameterError, match=f"^target_delays: must be finite and nonnegative, got {delay}$"):
            dvp_curve(cfg, "strong", [3, delay])

    @pytest.mark.parametrize("alpha, mu, rho_db, lam", [(2, 1, 10.0, 170.0), (4, 3, 15.0, 185.0)])
    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_curve_matches_sequential_search(self, alpha, mu, rho_db, lam, user):
        # the batched stationarity search against a golden section on one delay at a time
        # on scalar Mellin transforms, over [s0 * 1e-8, s0] with s0 the stability edge
        # bisected on the same transforms: every bound within 1e-9 relative of the
        # oracle's, above it by at most 1e-10, and reproduced by the bracket at its
        # minimizer_s.  The oracle narrows log s to 1e-9: at 1e-6 it sits 1.6e-9 above the
        # minimum at d = 30 on the alpha = 4, mu = 3 strong user, whose minimiser nears
        # the stability edge
        cfg = SncConfig(make_system(alpha=alpha, mu=mu, rho_db=rho_db), 168, lam)
        log_bracket, h = log_bracket_of(cfg, user)
        s0 = stability_edge(h)
        if s0 is None:
            want = [DvpBound(float(d), 1.0, None, False, 0.0) for d in range(31)]
        else:
            want = [golden_bound(log_bracket, float(d), s0 * 1e-8, s0) for d in range(31)]
        got = dvp_curve(cfg, user, range(31))
        assert [b.feasible for b in got] == [b.feasible for b in want]
        for b, w in zip(got, want):
            assert b.target_delay == w.target_delay
            if not w.feasible:
                assert b == w
                continue
            # log bounds, as relative bounds: the alpha = 4, mu = 3 bounds are subnormal
            assert abs(b.log_bound - w.log_bound) <= 1e-9, b.target_delay
            assert b.log_bound - w.log_bound <= 1e-10, b.target_delay
            at_s = min(log_bracket(b.minimizer_s, b.target_delay), 0.0)
            assert b.log_bound == pytest.approx(at_s, rel=1e-12, abs=1e-12)
            assert b.bound == math.exp(b.log_bound)

    def test_minimiser_beyond_the_old_search_range(self):
        # alpha = 3, mu = 2 at -10 dB: the strong user's stability edge lies beyond s = 5,
        # where a search of [1e-6, 5] stopped, at 6.04e-101 for d = 30 against 2.33e-132 at
        # s = 11.68.  No bound is above that search's (a golden section over the range)
        cfg = SncConfig(make_system(alpha=3, mu=2, rho_db=-10.0), 168, 0.865746)
        log_bracket, _ = log_bracket_of(cfg, "strong")
        curve = dvp_curve(cfg, "strong", range(31))
        assert all(b.feasible for b in curve)
        for b in curve:
            old = golden_bound(log_bracket, b.target_delay, 1e-6, 5.0)
            assert b.log_bound <= old.log_bound + 1e-10 * abs(old.log_bound), b.target_delay
        assert curve[30].minimizer_s > 5.0
        assert curve[30].bound == pytest.approx(2.33e-132, rel=1e-2)
        assert golden_bound(log_bracket, 30.0, 1e-6, 5.0).bound == pytest.approx(6.04e-101, rel=1e-2)

    def test_weak_bounds_at_high_snr_are_upper_bounds(self):
        # alpha = 4, mu = 3 at 80 dB: a gain window closed before the weak kernel's second
        # mode put 30 of 31 rows below the infimum (e^-3399.87 at d = 30).  An independent
        # dense trapezoid reproduces every row's bound at its minimizer_s
        cfg = SncConfig(make_system(alpha=4, mu=3, rho_db=80.0), 168, 345.548157)
        curve = dvp_curve(cfg, "weak", range(31))
        assert all(b.feasible for b in curve)
        assert curve[30].log_bound == pytest.approx(-3303.5497526820677, rel=1e-9)
        for b in curve[::5]:
            log_m = dense_log_mellin_weak(cfg, b.minimizer_s)
            h = cfg.arrival_rate * b.minimizer_s + log_m
            want = min(b.target_delay * log_m - math.log(-math.expm1(h)), 0.0)
            assert b.log_bound == pytest.approx(want, rel=1e-9, abs=1e-12), b.target_delay

    @pytest.mark.parametrize("alpha, mu", [(2.5, 2), (0.7, 3)])
    def test_real_alpha_bounds_lie_above_the_trace(self, alpha, mu):
        # a non-integer alpha: every feasible bound, both users, is at or above the lower end
        # of the simulated queue's confidence interval
        from noma_effrate.sim import SimPlan, queue_dvp

        cfg = make_cfg(alpha=alpha, mu=mu, user_for_load="weak")
        emp = queue_dvp(cfg, ("strong", "weak"), SimPlan(seed=31, draws=200_000), 20)
        assert np.count_nonzero(emp.ci_low[1]) >= 2  # the loaded weak user's trace sees delays
        for i, user in enumerate(("strong", "weak")):
            curve = dvp_curve(cfg, user, range(21))
            assert sum(b.feasible for b in curve) == 21
            for d, b in enumerate(curve):
                assert emp.ci_low[i, d] <= b.bound + 1e-12, (user, d)

    def test_long_curve_keeps_no_delay_by_grid_matrix(self):
        # the coarse scan keeps each delay's argmin and minimum, not a row of 200
        # brackets: 20,000 delays x 200 doubles alone would take 30.5 MiB.  The README
        # system's weak user is unstable at every exponent, so its curve is the scan
        # alone (a strong curve also holds the brackets of its stationarity search)
        import tracemalloc

        cfg = SncConfig(make_system(), 168, 170.0)
        tracemalloc.start()
        try:
            curve = dvp_curve(cfg, "weak", range(20000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve) == 20000 and not any(b.feasible for b in curve)
        assert peak < 30 * 2**20

    def test_long_feasible_curve_keeps_no_search_state_per_delay(self):
        # the stationarity searches of 20,000 delays are one batch of arrays per round,
        # with no generator per delay (those held 15.4 MiB at the peak)
        import tracemalloc

        cfg = SncConfig(make_system(), 168, 170.0)
        tracemalloc.start()
        try:
            curve = dvp_curve(cfg, "strong", range(20000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve) == 20000 and all(b.feasible for b in curve)
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_engine_calls_never_repeat_an_exponent(self, monkeypatch, user):
        # each batch of Mellin transforms or tilted means evaluates its distinct columns once
        from noma_effrate import effrate

        engine, batches = effrate.laguerre_log_expectation, []

        def spy(target, k, c=1.0, params=()):
            columns = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (c, *params)))
            batches.append(list(zip(*(np.ravel(a).tolist() for a in columns))))
            return engine(target, k, c, params)

        monkeypatch.setattr(effrate, "laguerre_log_expectation", spy)
        curve = dvp_curve(make_cfg(load=0.7, user_for_load="weak"), user, range(31))
        assert all(b.feasible for b in curve)
        # the stability scan, the bracket scan, the slopes at the brackets' grid points,
        # then log M with the slope per round
        assert 3 < len(batches) <= 8
        for batch in batches:
            assert len(set(batch)) == len(batch)
        # a user unstable at every exponent makes the stability scan's call alone
        batches.clear()
        curve = dvp_curve(SncConfig(make_system(), 168, 170.0), "weak", range(31))
        assert not any(b.feasible for b in curve) and len(batches) == 1

    @pytest.mark.parametrize("alpha, mu, rho_db, lam", [(2, 1, 10.0, 170.0), (4, 3, 15.0, 185.0)])
    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_slope_matches_central_difference(self, alpha, mu, rho_db, lam, user):
        # d log M/ds = -(N/ln 2) E[k e^(-varpi k)] / M from the tilted kernel c*k + ln k
        # against a central difference of log M, over the exponents where the delay
        # configs' minimisers sit
        from noma_effrate import snc

        cfg = SncConfig(make_system(alpha=alpha, mu=mu, rho_db=rho_db), 168, lam)
        s = np.geomspace(1e-4, 0.5, 9)
        step = 1e-5 * s
        up, down = (snc._log_mellin(cfg, user, s + sign * step)[0] for sign in (1.0, -1.0))
        want = (up - down) / (2.0 * step)
        log_km = snc._log_mellin(cfg, user, s, tilted=True)[0]
        got = -168 / LN2 * np.exp(log_km - snc._log_mellin(cfg, user, s)[0])
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=0)


class TestSncConfig:
    def test_rejects_nonpositive_arrival(self):
        with pytest.raises(ValueError):
            SncConfig(make_system(), 168, 0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_nonfinite_arrival(self, rate):
        with pytest.raises(ValueError, match="finite"):
            SncConfig(make_system(), 168, rate)

    def test_rejects_bad_symbol_count(self):
        with pytest.raises(ValueError):
            SncConfig(make_system(), 0, 1.0)
