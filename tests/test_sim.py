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
from noma_effrate.channel import AlphaMuChannel, ChannelPair, ParameterError, gain_cdf, sample_gain
from noma_effrate.effrate import DelayQos, NomaSystem, er_noma, ergodic_rate
from noma_effrate.sim import (
    DelayCcdf,
    SimPlan,
    empirical_decay_slope,
    mc_effective_rate,
    min_slots,
    queue_dvp,
)
from noma_effrate.snc import SncConfig, dvp_curve

_BLOCK = sim_module._BLOCK
_SPAN = 3 * _BLOCK + 17  # a trace of four blocks, the last one short


def _queue_backlog(lam, service):
    """Backlog after each slot for constant arrivals, via the running-minimum
    form of the max(0, B + lam - s) recursion over the whole trace.

    Returns B of length len(service)+1 with B[0] = 0.
    """
    drift = np.concatenate(([0.0], np.cumsum(lam - service)))
    return drift - np.minimum.accumulate(drift)


def _whole_trace_sinr(sys, user, rng, n):
    """SINR of n slots from the whole-trace expressions the blocked pass replaced."""
    def gain(ch):
        return (ch.omega**ch.alpha * rng.gamma(shape=ch.mu, scale=1.0, size=n) / ch.mu) ** (2.0 / ch.alpha)

    g = gain(sys.pair.strong)
    if user == "strong":
        return sys.a_s * sys.rho * g
    g = np.minimum(g, gain(sys.pair.weak))
    return sys.a_w * sys.rho * g / (sys.a_s * sys.rho * g + 1.0)


def _whole_trace_dvp(cfg, user, plan, max_delay):
    """queue_dvp as one whole-trace pass: the oracle of the blocked one."""
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    gamma = _whole_trace_sinr(cfg.system, user, rng, plan.draws)
    lam = cfg.arrival_rate
    backlog = _queue_backlog(lam, cfg.symbols_per_slot * np.log2(1.0 + gamma))
    warm, last = plan.draws // 10, plan.draws - max_delay
    eps = 1e-9 * max(lam, 1.0)
    exceed = np.array([np.count_nonzero(backlog[warm + 1 + d : last + 1 + d] > d * lam + eps)
                       for d in range(max_delay + 1)])
    ci_low, ci_high = sim_module._binomial_ci(exceed, last - warm, 0.99)
    return exceed / (last - warm), ci_low, ci_high


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

    @pytest.mark.parametrize("user", ["strong", "weak"])
    def test_same_bits_as_whole_trace_draw(self, user):
        sys = make_system(alpha=3, mu=2)
        plan = SimPlan(31, 50_000)
        total, rates = 0.0, []
        for ss in np.random.SeedSequence(plan.seed).spawn(plan.batches):
            gamma = _whole_trace_sinr(sys, user, np.random.default_rng(ss), plan.draws // plan.batches)
            mean = float(np.mean((1.0 + gamma) ** -sys.nu))
            rates.append(-math.log2(mean) / sys.nu)
            total += mean
        got = mc_effective_rate(sys, user, plan)
        assert got.value == -math.log2(total / plan.batches) / sys.nu
        assert got.error_estimate == float(np.std(rates, ddof=1)) / math.sqrt(plan.batches)

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

    @pytest.mark.parametrize("draws", [0, 9])
    def test_fewer_draws_than_batches(self, draws):
        with pytest.raises(ParameterError, match="draws: must be at least batches = 10"):
            mc_effective_rate(make_system(), "strong", SimPlan(1, draws))


class TestQueueBacklog:
    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(3)
        service = rng.exponential(10.0, 1000)
        lam = 8.0
        fast = _queue_backlog(lam, service)
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
            backlog = _queue_backlog(lam, cfg.symbols_per_slot * np.log2(1.0 + gamma))
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

    @pytest.mark.parametrize("user", ["strong", "weak", ("strong", "weak")])
    def test_queue_dvp_peak_memory_per_slot(self, user):
        # the pass holds a few block-sized arrays per link at a time, and a
        # weak run draws the strong link's gains block by block, so no
        # run's peak grows with the trace; the fixed bound also covers the
        # Clopper-Pearson scratch
        cfg = self.make_cfg(user=user if isinstance(user, str) else "weak")
        queue_dvp(cfg, user, SimPlan(1, 1000), 30)  # first-call allocations
        bound = 48 * _BLOCK  # 3 MiB
        for slots in (200_000, 800_000):
            tracemalloc.start()
            try:
                queue_dvp(cfg, user, SimPlan(1, slots), 30)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, slots

    @pytest.mark.parametrize("user", ["strong", "weak"])
    @pytest.mark.parametrize("load", [0.7, 0.95, 1.2, 10.0])
    @pytest.mark.parametrize(
        "slots, max_delay",
        [(slots, d) for slots in (_BLOCK - 1, _BLOCK, _BLOCK + 1, _SPAN) for d in (1, 30)]
        + [(_SPAN, _SPAN - _SPAN // 10 - 1000)],
    )
    def test_blocks_keep_whole_trace_bits(self, user, load, slots, max_delay):
        # every backlog value keeps its bits across block edges, so the
        # probabilities and both interval ends equal the whole-trace pass's;
        # the last case's 1000-slot windows lie in every block, some cross
        # each block edge, and each block meets only some of the targets; at
        # load 10 the backlog outgrows even the longest windows' thresholds
        cfg = self.make_cfg(load=load, user=user)
        plan = SimPlan(41, slots)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = queue_dvp(cfg, user, plan, max_delay)
        p, ci_low, ci_high = _whole_trace_dvp(cfg, user, plan, max_delay)
        np.testing.assert_array_equal(got.probabilities, p)
        np.testing.assert_array_equal(got.ci_low, ci_low)
        np.testing.assert_array_equal(got.ci_high, ci_high)

    @pytest.mark.parametrize("rate_user", ["strong", "weak"])
    @pytest.mark.parametrize("load", [0.7, 0.95, 1.2, 10.0])
    @pytest.mark.parametrize(
        "slots, max_delay",
        [(slots, d) for slots in (_BLOCK - 1, _BLOCK, _BLOCK + 1, _SPAN) for d in (1, 30)]
        + [(_SPAN, _SPAN - _SPAN // 10 - 1000)],
    )
    def test_two_user_pass_keeps_whole_trace_bits(self, rate_user, load, slots, max_delay):
        # one pass for both users draws the strong link once and gives each
        # user's row exactly the whole-trace pass of that user alone; the
        # load is relative to ``rate_user``'s service, so each user meets
        # each load
        cfg = self.make_cfg(load=load, user=rate_user)
        plan = SimPlan(41, slots)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = queue_dvp(cfg, ("strong", "weak"), plan, max_delay)
        assert got.probabilities.shape == (2, max_delay + 1)
        for i, user in enumerate(("strong", "weak")):
            p, ci_low, ci_high = _whole_trace_dvp(cfg, user, plan, max_delay)
            np.testing.assert_array_equal(got.probabilities[i], p)
            np.testing.assert_array_equal(got.ci_low[i], ci_low)
            np.testing.assert_array_equal(got.ci_high[i], ci_high)

    def test_user_axis_follows_the_tuple(self):
        cfg = self.make_cfg(load=0.95, user="weak")
        plan = SimPlan(8, 30_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            both = queue_dvp(cfg, ("weak", "strong"), plan, 12)
            alone = [queue_dvp(cfg, user, plan, 12) for user in ("weak", "strong")]
            weak_only = queue_dvp(cfg, ("weak",), plan, 12)
        for i, one in enumerate(alone):
            assert one.probabilities.shape == (13,)
            np.testing.assert_array_equal(both.probabilities[i], one.probabilities)
            np.testing.assert_array_equal(both.ci_high[i], one.ci_high)
        np.testing.assert_array_equal(weak_only.probabilities, alone[0].probabilities[None])
        assert (both.slots, both.observations, both.bits_observed) == (
            alone[0].slots, alone[0].observations, alone[0].bits_observed
        )

    @pytest.mark.parametrize("users", [(), ("strong", "strong"), ("strong", "both")])
    def test_rejects_bad_user_tuple(self, users):
        with pytest.raises(ValueError):
            queue_dvp(self.make_cfg(), users, SimPlan(1, 1000), 5)

    @pytest.mark.parametrize(
        "users, links",
        [("strong", ["strong"]), ("weak", ["strong", "weak"]), (("strong", "weak"), ["strong", "weak"])],
    )
    def test_one_gain_draw_per_link_and_block(self, monkeypatch, users, links):
        # the strong link is drawn once per block for both users; the weak
        # generator steps past the strong gains without the gain transform
        cfg = self.make_cfg(user="weak")
        seen = []

        def spy(ch, rng, n):
            seen.append(("strong" if ch is cfg.system.pair.strong else "weak", n))
            return sample_gain(ch, rng, n)

        monkeypatch.setattr(sim_module, "sample_gain", spy)
        queue_dvp(cfg, users, SimPlan(5, _SPAN), 30)
        sizes = [_BLOCK] * 3 + [_SPAN - 3 * _BLOCK]
        assert seen == [(link, n) for n in sizes for link in links]

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

    @pytest.mark.parametrize("user", ["strong", "weak", ("strong", "weak")])
    def test_short_trace_rejected_before_any_draw(self, monkeypatch, user):
        from noma_effrate import sim

        def no_draw(*args):
            raise AssertionError("gains drawn for a trace too short to use")

        monkeypatch.setattr(sim, "sample_gain", no_draw)
        with pytest.raises(ValueError, match="too short"):
            queue_dvp(self.make_cfg(), user, SimPlan(1, 100), 95)

    @pytest.mark.parametrize("max_delay", [1, 8, 9, 30, 95, 1000])
    def test_min_slots_is_the_shortest_usable_trace(self, max_delay):
        least = min_slots(max_delay)
        # bits of slots [slots // 10, slots - max_delay) are observed
        assert least - max_delay > least // 10
        assert (least - 1) - max_delay <= (least - 1) // 10
        cfg = self.make_cfg()
        assert queue_dvp(cfg, "strong", SimPlan(1, least), max_delay).observations >= 1
        with pytest.raises(ValueError, match=f"at least {least} slots"):
            queue_dvp(cfg, "strong", SimPlan(1, least - 1), max_delay)

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

    @pytest.mark.parametrize("n", [10**6, 10**7])
    def test_peak_memory_bounded_in_trials(self, n):
        # the tail sums run in blocks of at most _TAIL_TERMS terms, so the
        # scratch stays small however large n and the counts get
        ks = np.unique(np.round(np.geomspace(1, 0.45 * n, 31)).astype(np.int64))
        sim_module._binomial_ci(ks, n, 0.99)  # first-call allocations
        tracemalloc.start()
        try:
            sim_module._binomial_ci(ks, n, 0.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

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
