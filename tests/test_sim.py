"""Monte Carlo and queue-simulation tests: estimator contracts, the
Lindley-recursion equivalence, and distributional checks of the sampler."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv
from scipy.stats import kstest

from noma_effrate import sim as sim_module
from noma_effrate.channel import AlphaMuChannel, ChannelPair, gain_cdf
from noma_effrate.effrate import DelayQos, NomaSystem, er_noma, ergodic_rate
from noma_effrate.sim import (
    DelayCcdf,
    SimPlan,
    empirical_decay_slope,
    mc_effective_rate,
    queue_backlog,
    queue_dvp,
)
from noma_effrate.snc import SncConfig, dvp_curve


def make_system(alpha=2, mu=1, a_s=0.24, rho_db=10.0, theta=0.5, omega_w2=0.1):
    pair = ChannelPair(
        AlphaMuChannel(alpha, mu, 1.0),
        AlphaMuChannel(alpha, mu, math.sqrt(omega_w2)),
    )
    return NomaSystem(pair, a_s, 10.0 ** (rho_db / 10.0), DelayQos(theta))


class TestMcEffectiveRate:
    def test_deterministic_gain_stub(self, monkeypatch):
        monkeypatch.setattr(
            sim_module, "sample_gain", lambda ch, rng, n: np.ones(n)
        )
        sys = make_system()
        got = mc_effective_rate(sys, "strong", SimPlan(1, 10_000))
        assert got.value == pytest.approx(math.log2(1 + sys.a_s * sys.rho), rel=1e-12)
        assert got.error_estimate == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_agrees_with_quadrature(self, user):
        sys = make_system()
        got = mc_effective_rate(sys, user, SimPlan(23, 2_000_000))
        want = er_noma(sys, user, "quadrature").value
        assert abs(got.value - want) < 3 * got.error_estimate

    def test_seeds_agree_within_error(self):
        sys = make_system()
        a = mc_effective_rate(sys, "weak", SimPlan(1, 500_000))
        b = mc_effective_rate(sys, "weak", SimPlan(2, 500_000))
        combined = math.hypot(a.error_estimate, b.error_estimate)
        assert abs(a.value - b.value) < 6 * combined

    def test_error_scales_as_root_n(self):
        sys = make_system()
        small = mc_effective_rate(sys, "strong", SimPlan(5, 200_000))
        large = mc_effective_rate(sys, "strong", SimPlan(5, 800_000))
        ratio = large.error_estimate / small.error_estimate
        assert 0.35 < ratio < 0.65

    def test_requires_delay_constraint(self):
        with pytest.raises(ValueError):
            mc_effective_rate(make_system(theta=0.0), "strong", SimPlan(1, 1000))

    def test_batch_minimum(self):
        with pytest.raises(ValueError):
            SimPlan(1, 1000, batches=5)


class TestQueueBacklog:
    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(3)
        service = rng.exponential(10.0, 1000)
        lam = 8.0
        fast = queue_backlog(lam, service)
        b = 0.0
        for k, s in enumerate(service):
            b = max(0.0, b + lam - s)
            assert fast[k + 1] == pytest.approx(b, abs=1e-9)
        assert fast[0] == 0.0


class TestQueueDvp:
    def make_cfg(self, load=0.7, user="strong", **kw):
        sys = make_system(**kw)
        service = 168 * ergodic_rate(sys, user).value
        return SncConfig(sys, 168, load * service)

    def test_no_arrivals_no_delay(self):
        sys = make_system()
        cfg = SncConfig(sys, 168, 1e-6)
        got = queue_dvp(cfg, "strong", SimPlan(9, 20_000), 5)
        assert got.probabilities[0] == 0.0

    def test_bit_delays_match_naive_cumulative_definition(self):
        # replay the trace with an explicit per-slot loop over the
        # cumulative arrival/departure processes
        cfg = self.make_cfg()
        plan = SimPlan(77, 1000)
        max_delay = 8
        got = queue_dvp(cfg, "strong", plan, max_delay)

        rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
        gamma = sim_module._draw_sinr(cfg.system, "strong", rng, plan.draws)
        service = cfg.symbols_per_slot * np.log2(1.0 + gamma)
        lam = cfg.arrival_rate
        backlog, dep = 0.0, []
        for s in service:
            backlog = max(0.0, backlog + lam - s)
            dep.append((len(dep) + 1) * lam - backlog)
        warm = plan.draws // 10
        delays = []
        for k in range(warm, plan.draws - max_delay):
            target = lam * (k + 1)
            d = max_delay + 1
            for u in range(max_delay + 1):
                if dep[k + u] >= target - 1e-9 * lam:
                    d = u
                    break
            delays.append(d)
        delays = np.array(delays)
        want = [(delays > t).mean() for t in range(max_delay + 1)]
        np.testing.assert_allclose(got.probabilities, want, atol=0)

    @pytest.mark.parametrize("load, user", [(0.7, "strong"), (0.95, "weak"), (1.2, "strong")])
    @pytest.mark.parametrize("max_delay", [30, 89_000])
    def test_backlog_count_matches_searchsorted_count(self, load, user, max_delay):
        # the count from the backlog threshold equals the one taken from
        # cumulative departures with searchsorted and a capped-delay histogram,
        # on a stable, a near-critical and an unstable queue; 89_000 is close
        # to the longest max_delay a 100_000-slot trace allows
        cfg = self.make_cfg(load=load, user=user)
        lam = cfg.arrival_rate
        for seed in (3, 4, 5):
            plan = SimPlan(seed, 100_000)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = queue_dvp(cfg, user, plan, max_delay)
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            gamma = sim_module._draw_sinr(cfg.system, user, rng, plan.draws)
            backlog = queue_backlog(lam, cfg.symbols_per_slot * np.log2(1.0 + gamma))
            arrivals = lam * np.arange(1, plan.draws + 1)
            departures = arrivals - backlog[1:]
            k = np.arange(plan.draws // 10, plan.draws - max_delay)
            j = np.searchsorted(departures, arrivals[k] - 1e-9 * max(lam, 1.0), side="left")
            delays = np.minimum(j - k, max_delay + 1)
            exceed = np.cumsum(np.bincount(delays, minlength=max_delay + 2)[::-1])[::-1][1:]
            # p = count / observations, so equal p means equal counts
            assert got.observations == len(k)
            np.testing.assert_array_equal(got.probabilities, exceed / len(k))

    def test_bits_leaving_at_slot_end_meet_that_delay(self, monkeypatch):
        # SINRs 0, 1, 3, 3 serve 0, N, 2N, 2N bits with lam = N: bits of the
        # first slot leave exactly at the end of the next one, where the
        # backlog equals lam, so their delay is 1 and not more
        monkeypatch.setattr(sim_module, "sample_gain", lambda ch, rng, n: np.resize([0.0, 1.0, 3.0, 3.0], n))
        pair = ChannelPair(AlphaMuChannel(2, 1, 1.0), AlphaMuChannel(2, 1, 0.5))
        cfg = SncConfig(NomaSystem(pair, 0.25, 4.0, DelayQos(0.5)), 168, 168.0)
        got = queue_dvp(cfg, "strong", SimPlan(1, 4000), 4)
        np.testing.assert_array_equal(got.probabilities, [0.5, 0, 0, 0, 0])

    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_queue_dvp_peak_memory_per_slot(self, user):
        # the count reads the backlog in place: no per-observation arrays
        cfg = self.make_cfg(user=user)
        queue_dvp(cfg, user, SimPlan(1, 1000), 30)  # first-call allocations
        tracemalloc.start()
        try:
            queue_dvp(cfg, user, SimPlan(1, 200_000), 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * 200_000

    def test_higher_arrival_rate_shifts_curve_up(self):
        sys = make_system()
        service = 168 * ergodic_rate(sys, "strong").value
        lo = SncConfig(sys, 168, 0.5 * service)
        hi = SncConfig(sys, 168, 0.75 * service)
        plan = SimPlan(5, 200_000)
        p_lo = queue_dvp(lo, "strong", plan, 10).probabilities
        p_hi = queue_dvp(hi, "strong", plan, 10).probabilities
        assert np.all(p_hi >= p_lo)

    def test_empirical_below_bound(self):
        cfg = self.make_cfg()
        plan = SimPlan(13, 300_000)
        emp = queue_dvp(cfg, "strong", plan, 15)
        curve = dvp_curve(cfg, "strong", range(16))
        for d in range(16):
            assert emp.ci_low[d] <= curve[d].bound

    def test_unstable_queue_warns(self):
        sys = make_system()
        service = 168 * ergodic_rate(sys, "strong").value
        cfg = SncConfig(sys, 168, 2.0 * service)
        with pytest.warns(RuntimeWarning, match="unstable"):
            queue_dvp(cfg, "strong", SimPlan(3, 20_000), 5)

    def test_ccdf_invariants(self):
        cfg = self.make_cfg()
        got = queue_dvp(cfg, "strong", SimPlan(21, 100_000), 12)
        p = got.probabilities
        assert np.all((p >= 0) & (p <= 1))
        assert np.all(np.diff(p) <= 1e-12)
        assert np.all(got.ci_low <= p) and np.all(p <= got.ci_high)

    def test_rejects_short_trace(self):
        cfg = self.make_cfg()
        with pytest.raises(ValueError, match="too short"):
            queue_dvp(cfg, "strong", SimPlan(1, 100), 95)

    def test_decay_slope_fit(self):
        cfg = self.make_cfg()
        got = queue_dvp(cfg, "strong", SimPlan(29, 400_000), 20)
        slope, used = empirical_decay_slope(got)
        assert slope < 0
        assert used.size >= 2


def _tail_ge(k, n, p):
    """P(Bin(n, p) >= k) for 1 <= k <= n by mpmath's regularized incomplete
    beta, with the series argument on the side of p or 1 - p where it converges."""
    if k <= n / 2:
        return mpmath.betainc(k, n - k + 1, 0, p, regularized=True)
    return 1 - mpmath.betainc(n - k + 1, k, 0, 1 - p, regularized=True)


def _root_within(k, n, low, high, rel):
    """The exact roots of both Clopper-Pearson equations lie within ``rel``
    of (low, high): at 30 digits, each equation changes sign across
    [x (1 - rel), x (1 + rel)]."""
    with mpmath.workdps(30):
        t = mpmath.mpf(0.5 * (1 - 0.99))
        down, up = 1 - mpmath.mpf(rel), 1 + mpmath.mpf(rel)
        low, high = mpmath.mpf(float(low)), mpmath.mpf(float(high))
        lower_ok = upper_ok = True
        if k > 0:  # P(X >= k; p) rises through t at low
            lower_ok = _tail_ge(k, n, low * down) < t < _tail_ge(k, n, low * up)
        if k < n:  # P(X <= k; p) falls through t at high
            upper_ok = 1 - _tail_ge(k + 1, n, high * down) > t > 1 - _tail_ge(k + 1, n, high * up)
    return lower_ok and upper_ok


def _geometric_counts(n, m=12):
    ks = np.unique(np.round(np.geomspace(1, n, m)).astype(np.int64))
    return np.unique(np.concatenate(([0], ks, n - ks)))


class TestBinomialCi:
    @pytest.mark.parametrize("trials", [1, 2, 1e6])
    def test_edge_counts_closed_forms_without_warnings(self, trials):
        n = int(trials)
        k = np.unique([0, 1, n - 1, n])
        t = 0.005
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high = sim_module._binomial_ci(k, trials, 0.99)
        assert np.all(np.isfinite(low)) and np.all(np.isfinite(high))
        assert np.all((0 <= low) & (low <= k / n) & (k / n <= high) & (high <= 1))
        assert low[0] == 0.0 and high[0] == pytest.approx(1 - t ** (1 / n), rel=1e-14)
        assert high[-1] == 1.0 and low[-1] == pytest.approx(t ** (1 / n), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 20_000, 899_970, 10**7])
    def test_defining_equations_mpmath(self, n):
        ks = _geometric_counts(n)
        if n >= 20_000:  # the incomplete-beta series is slow when both n p and n q are large
            ks = ks[(ks <= 1000) | (ks >= n - 1000)]
        low, high = sim_module._binomial_ci(ks, n, 0.99)
        for k, lo, hi in zip(ks, low, high):
            assert _root_within(int(k), n, lo, hi, 1e-12), (k, n)

    @pytest.mark.parametrize("n", [1, 10, 20_000, 900_000, 10**7])
    def test_matches_scipy_betaincinv(self, n):
        ks = _geometric_counts(n, 30)
        t = 0.005
        low, high = sim_module._binomial_ci(ks, n, 0.99)
        with np.errstate(invalid="ignore", divide="ignore"):
            ref_low = np.where(ks > 0, betaincinv(ks, n - ks + 1.0, t), 0.0)
            ref_high = np.where(ks < n, betaincinv(ks + 1.0, n - ks, 1.0 - t), 1.0)
        rel = np.maximum(
            np.abs(low - ref_low) / np.where(ref_low > 0, ref_low, 1.0),
            np.abs(high - ref_high) / ref_high,
        )
        # betaincinv solves I = 1 - t for the upper end, which costs it up to
        # ~1e-10 relative at small k and large n; there mpmath must side with us
        for i in np.nonzero(rel > 1e-12)[0]:
            k = int(ks[i])
            assert k <= 30 and n >= 900_000, (k, n, rel[i])
            assert _root_within(k, n, low[i], high[i], 1e-12)
            assert not _root_within(k, n, ref_low[i], ref_high[i], 1e-12)

    @given(
        st.integers(1, 10**7).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_brackets_the_mle_and_nondecreasing(self, args):
        n, a, b = args
        k = np.array(sorted((a, b)))
        low, high = sim_module._binomial_ci(k, n, 0.99)
        assert np.all((low <= k / n) & (k / n <= high))
        assert low[0] <= low[1] and high[0] <= high[1]


class TestSamplerDistribution:
    def test_simulated_gains_match_cdf(self):
        ch = AlphaMuChannel(3, 2, 0.9)
        rng = np.random.default_rng(41)
        from noma_effrate.channel import sample_gain

        draws = sample_gain(ch, rng, 100_000)
        stat = kstest(draws, lambda x: gain_cdf(ch, x)).statistic
        assert stat < 1.6276 / math.sqrt(draws.size)

    def test_ccdf_type_rejects_increasing(self):
        with pytest.raises(ValueError):
            DelayCcdf(
                probabilities=np.array([0.1, 0.5]),
                ci_low=np.zeros(2),
                ci_high=np.ones(2),
                slots=10,
                observations=10,
                bits_observed=10.0,
            )
