"""Monte Carlo oracles: sampled rates and a slotted fluid-queue simulator.

The queue model matches the bound's semantics exactly: a constant fluid
arrival of lam bits enters a FIFO queue each slot; the slot's service is
N*log2(1+gamma) bits with gamma drawn independently per slot (block
fading, one fading block per slot).  Delay is accounted per bit: bits
arriving in slot k leave once cumulative departures reach cumulative
arrivals through k.

Random numbers come from numpy's PCG64 via default_rng; batch streams are
spawned from one SeedSequence so results are reproducible regardless of
execution order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import sample_gain
from .effrate import LN2, NomaSystem, RateResult, User, _check_user
from .snc import SncConfig


@dataclass(frozen=True)
class SimPlan:
    """Replication plan: seed, sample count (draws or slots), and batches."""

    seed: int
    draws: int
    batches: int = 10

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError("draws must be positive")
        if self.batches < 10:
            raise ValueError("at least 10 batches are required for error bars")


@dataclass(frozen=True)
class DelayCcdf:
    """Empirical Pr(delay > d) for d = 0..max_delay with 99% binomial CIs.

    ``observations`` is the number of per-slot bit batches the estimate is
    built from; ``bits_observed`` the corresponding bit volume.
    """

    probabilities: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    slots: int
    observations: int
    bits_observed: float

    def __post_init__(self):
        p = np.asarray(self.probabilities)
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.diff(p) > 1e-12):
            raise ValueError("delay CCDF must be nonincreasing")


def _draw_sinr(sys: NomaSystem, user: User, rng: np.random.Generator, n: int):
    if user == "strong":
        g = sample_gain(sys.pair.strong, rng, n)
        return sys.a_s * sys.rho * g
    gs = sample_gain(sys.pair.strong, rng, n)
    gw = sample_gain(sys.pair.weak, rng, n)
    gmin = np.minimum(gs, gw)
    return sys.a_w * sys.rho * gmin / (sys.a_s * sys.rho * gmin + 1.0)


def mc_effective_rate(sys: NomaSystem, user: User, plan: SimPlan) -> RateResult:
    """Sampled effective rate with a batch-based standard error."""
    _check_user(user)
    nu = sys.nu
    if nu <= 0:
        raise ValueError("Monte Carlo effective rate needs theta > 0")
    streams = np.random.SeedSequence(plan.seed).spawn(plan.batches)
    per_batch = max(plan.draws // plan.batches, 1)
    batch_rates = np.empty(plan.batches)
    total = 0.0
    for i, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        gamma = _draw_sinr(sys, user, rng, per_batch)
        mean = float(np.mean((1.0 + gamma) ** -nu))
        batch_rates[i] = -math.log2(mean) / nu
        total += mean
    overall = -math.log2(total / plan.batches) / nu
    se = float(np.std(batch_rates, ddof=1)) / math.sqrt(plan.batches)
    return RateResult(overall, "monte-carlo", se)


def queue_backlog(lam: float, service: np.ndarray) -> np.ndarray:
    """Backlog after each slot for constant arrivals, via the running-minimum
    form of the max(0, B + lam - s) recursion.

    Returns B of length len(service)+1 with B[0] = 0.
    """
    drift = np.concatenate(([0.0], np.cumsum(lam - service)))
    return drift - np.minimum.accumulate(drift)


def queue_dvp(
    cfg: SncConfig,
    user: User,
    plan: SimPlan,
    max_delay: int,
) -> DelayCcdf:
    """Empirical delay-violation probabilities from a fluid-queue trace.

    The first 10% of slots are warm-up; bits arriving within max_delay of
    the trace end are excluded so no delay measurement is censored.
    Delays beyond max_delay are counted as exceeding every target.
    """
    _check_user(user)
    if max_delay < 1:
        raise ValueError("max_delay must be positive")
    slots = plan.draws
    lam = cfg.arrival_rate
    n = cfg.symbols_per_slot
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    gamma = _draw_sinr(cfg.system, user, rng, slots)
    service = n * np.log2(1.0 + gamma)
    mean_service = float(service.mean())
    if lam >= mean_service:
        warnings.warn(
            f"unstable queue: arrival rate {lam} >= mean service {mean_service:.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    backlog = queue_backlog(lam, service)
    # cumulative departures through slot k = arrivals through k - backlog
    arrivals = lam * np.arange(1, slots + 1)
    departures = arrivals - backlog[1:]
    warm = slots // 10
    last = slots - max_delay
    if last <= warm:
        raise ValueError("trace too short for the requested max_delay and warm-up")
    k = np.arange(warm, last)
    eps = 1e-9 * max(lam, 1.0)
    j = np.searchsorted(departures, arrivals[k] - eps, side="left")
    delays = np.minimum(j - k, max_delay + 1)
    # exceed[d] = #{delays > d}: the tail sums of the delay histogram
    exceed = np.cumsum(np.bincount(delays, minlength=max_delay + 2)[::-1])[::-1][1:]
    n_obs = len(k)
    p = exceed / n_obs
    ci_low, ci_high = _binomial_ci(exceed, n_obs, 0.99)
    return DelayCcdf(p, ci_low, ci_high, slots, n_obs, float(n_obs * lam))


def _binomial_ci(successes, trials, level):
    """Exact (Clopper-Pearson) two-sided binomial interval."""
    from scipy.special import betaincinv  # only simulating runs load scipy

    tail = 0.5 * (1.0 - level)
    k = np.asarray(successes, dtype=float)
    # beta quantiles; the k = 0 and k = trials branches evaluate to nan and are discarded
    low = np.where(k > 0, betaincinv(k, trials - k + 1.0, tail), 0.0)
    high = np.where(k < trials, betaincinv(k + 1.0, trials - k, 1.0 - tail), 1.0)
    return low, high


def empirical_decay_slope(ccdf: DelayCcdf, min_count: int = 50) -> tuple[float, np.ndarray]:
    """Slope of log Pr(delay > d) vs d over well-observed targets.

    Restricts the fit to targets with at least ``min_count`` exceedances so
    Monte Carlo noise in the deep tail cannot dominate.  Returns the slope
    and the delay targets used for the fit.
    """
    counts = ccdf.probabilities * ccdf.observations
    d = np.nonzero(counts >= min_count)[0]
    if d.size < 2:
        raise ValueError("not enough well-observed delay targets to fit a slope")
    y = np.log(ccdf.probabilities[d])
    return float(np.polyfit(d, y, 1)[0]), d
