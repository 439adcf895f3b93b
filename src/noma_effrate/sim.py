"""Monte Carlo oracles: sampled rates and a slotted fluid-queue simulator.

The queue model matches the bound's semantics exactly: a constant fluid
arrival of lam bits enters a FIFO queue each slot; the slot's service is
N*log2(1+gamma) bits with gamma drawn independently per slot (block
fading, one fading block per slot).  Delay is accounted per bit: bits
arriving in slot k leave once cumulative departures reach cumulative
arrivals through k.  As departures = arrivals - backlog, they wait more
than d slots exactly when the backlog after slot k+d exceeds d*lam.

The queue is simulated in one pass over blocks of 2^16 slots that carries
the drift and its running minimum, so it holds one block for either user.
The strong link's gains come first in the stream; the weak user's run redraws
them one block at a time from a second generator on the same seed.  Random
numbers come from numpy's PCG64 via default_rng; batch streams are spawned
from one SeedSequence, so results do not depend on execution order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import sample_gain
from .effrate import LN2, NomaSystem, RateResult, User, _check_user
from .snc import SncConfig
from .specfun import ConvergenceError

_BLOCK = 1 << 16  # slots per block of the queue simulation


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

    ``ci_low`` and ``ci_high`` are exact Clopper-Pearson endpoints (Clopper &
    Pearson, Biometrika 1934) that treat every observation as an independent
    trial; ``_binomial_ci`` computes them with Loader's binomial probabilities.

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


def _draw_sinr(sys: NomaSystem, user: User, rng: np.random.Generator, n: int, strong=None):
    # built in place, over ``strong`` when the strong link's n gains are drawn already
    g = sample_gain(sys.pair.strong, rng, n) if strong is None else strong
    if user == "strong":
        g *= sys.a_s * sys.rho
        return g
    # a_w rho g / (a_s rho g + 1) over g = min(g_s, g_w)
    np.minimum(g, sample_gain(sys.pair.weak, rng, n), out=g)
    den = sys.a_s * sys.rho * g + 1.0
    g *= sys.a_w * sys.rho
    g /= den
    return g


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


def queue_dvp(
    cfg: SncConfig,
    user: User,
    plan: SimPlan,
    max_delay: int,
) -> DelayCcdf:
    """Empirical delay-violation probabilities from a fluid-queue trace.

    The first 10% of slots are warm-up; bits arriving within max_delay of
    the trace end are excluded so no delay measurement is censored.
    Delays beyond max_delay are counted as exceeding every target.  Memory
    is one block of slots for either user.
    """
    _check_user(user)
    if max_delay < 1:
        raise ValueError("max_delay must be positive")
    slots = plan.draws
    warm = slots // 10
    last = slots - max_delay
    if last <= warm:
        raise ValueError("trace too short for the requested max_delay and warm-up")
    lam = cfg.arrival_rate
    strong_ch = cfg.system.pair.strong
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    redraw = None
    if user == "weak":
        # the strong gains come first in the stream: ``rng`` steps through them
        # to draw the weak gains from where they end, and ``redraw`` replays them
        # block by block
        redraw = np.random.default_rng(np.random.SeedSequence(plan.seed))
        for start in range(0, slots, _BLOCK):
            sample_gain(strong_ch, rng, min(_BLOCK, slots - start))
    eps = 1e-9 * max(lam, 1.0)
    exceed = [0] * (max_delay + 1)
    mean_service = drift = floor = 0.0
    for start in range(0, slots, _BLOCK):
        stop = min(start + _BLOCK, slots)
        strong = None if redraw is None else sample_gain(strong_ch, redraw, stop - start)
        x = _draw_sinr(cfg.system, user, rng, stop - start, strong)
        x += 1.0
        np.log2(x, out=x)
        x *= cfg.symbols_per_slot  # the block's service
        mean_service += float(x.sum()) / slots
        np.subtract(lam, x, out=x)
        # backlog = drift - its running minimum, both carried over from earlier blocks
        x[0] += drift
        np.cumsum(x, out=x)
        low = np.minimum.accumulate(x)
        np.minimum(low, floor, out=low)
        drift, floor = x[-1], low[-1]
        x -= low  # x[i] is the backlog after slot start + i
        # bits of slot k wait more than d slots iff the backlog after slot k+d still
        # exceeds the d*lam bits that arrived after them; d reads slots [warm+d, last+d)
        for d in range(max(start - last + 1, 0), min(stop - warm, max_delay + 1)):
            exceed[d] += np.count_nonzero(x[max(warm + d - start, 0) : last + d - start] > d * lam + eps)
        del x, low, strong  # free the block before the next one is drawn
    if lam >= mean_service:
        warnings.warn(
            f"unstable queue: arrival rate {lam} >= mean service {mean_service:.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    n_obs = last - warm
    p = np.array(exceed) / n_obs
    ci_low, ci_high = _binomial_ci(exceed, n_obs, 0.99)
    return DelayCcdf(p, ci_low, ci_high, slots, n_obs, float(n_obs * lam))


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# log(j!) - log(sqrt(2 pi j) (j/e)^j) for j <= 15, below the series' range
_STIRLERR_SMALL = np.array(
    [0.0] + [math.lgamma(j + 1.0) - (j + 0.5) * math.log(j) + j - _LOG_SQRT_2PI for j in range(1, 16)]
)
# rows x terms per block of the binomial tail sums: a block's scratch is a few
# arrays of this many doubles (about 1.2 MB); a row wider than this gets a block
# of its own
_TAIL_TERMS = 1 << 15


def _binomial_ci(successes, trials, level):
    """Exact (Clopper-Pearson) two-sided binomial interval.

    The endpoints solve P(Bin(n, low) >= k) = t and P(Bin(n, high) <= k) = t
    with t = (1 - level)/2 (Clopper & Pearson, Biometrika 1934).  k = 0 and
    k = n have closed forms; otherwise ``_upper_tail_root`` solves for
    log(low) at k and for log(1 - high) at n - k, because by the symmetry
    X -> n - X the upper endpoint is the complement of a lower one.
    """
    n = int(trials)
    tail = 0.5 * (1.0 - level)
    k = np.asarray(successes).astype(np.int64)
    low = np.zeros(k.shape)
    high = np.ones(k.shape)
    low[k == n] = tail ** (1.0 / n)
    high[k == 0] = -math.expm1(math.log(tail) / n)
    inner = (k > 0) & (k < n)
    if inner.any():
        z = _normal_quantile(tail)
        low[inner] = np.exp(_upper_tail_root(k[inner], n, tail, z))
        high[inner] = -np.expm1(_upper_tail_root(n - k[inner], n, tail, z))
    return low, high


def _normal_quantile(tail):
    """z with P(N(0, 1) > z) = tail < 1/2, by Newton on the log tail."""
    z = math.sqrt(-2.0 * math.log(tail))
    for _ in range(6):
        upper = 0.5 * math.erfc(z / math.sqrt(2.0))
        z += (math.log(upper) - math.log(tail)) * upper / math.exp(-0.5 * z * z - _LOG_SQRT_2PI)
    return z


def _stirlerr(j):
    """Stirling's error log(j!) - log(sqrt(2 pi j) (j/e)^j) for integers j >= 1."""
    j = np.asarray(j)
    x = np.maximum(j, 16).astype(float)
    xx = x * x
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * xx)) / xx) / xx) / xx) / x
    return np.where(j > 15, series, _STIRLERR_SMALL[np.minimum(j, 15)])


def _bd0(x, m):
    """x log(x/m) + m - x, by its odd series in (x - m)/(x + m) where x is near m."""
    v = (x - m) / (x + m)
    v2 = v * v
    near = (x - m) * v
    term = 2.0 * x * v
    for i in range(1, 10):  # |v| < 0.1 there, so v^18 is below double precision
        term = term * v2
        near = near + term / (2 * i + 1)
    far = x * np.log(x / m) + m - x
    return np.where(np.abs(x - m) < 0.1 * (x + m), near, far)


def _upper_tail_root(k, n, tail, z):
    """log p solving P(Bin(n, p) >= k) = tail, for integers 1 <= k <= n - 1.

    Rows are solved in blocks of similar tail length, so memory stays
    bounded however many counts are asked for.
    """
    # terms past 12 standard deviations (+40 for Poisson-like small k) are
    # below double precision at every p in the search bracket
    width = np.minimum(n - k + 1, (12.0 * np.sqrt(np.minimum(k, n / 4)) + 40).astype(np.int64))
    order = np.argsort(width, kind="stable")
    u = np.empty(k.shape)
    first = 0
    while first < order.size:
        last = first + 1
        while last < order.size and (last + 1 - first) * width[order[last]] <= _TAIL_TERMS:
            last += 1
        rows = order[first:last]
        u[rows] = _newton_tail_root(k[rows], n, tail, z, int(width[order[last - 1]]))
        first = last
    return u


def _newton_tail_root(k, n, tail, z, width):
    """Safeguarded Newton on g(u) = log P(Bin(n, e^u) >= k) - log(tail).

    The tail is pmf(k) times a sum of ``width`` terms moving away from k by
    the ratio pmf(j+1)/pmf(j) = (n-j)/(j+1) * p/q.  pmf(k) comes from
    Loader's saddle-point form ("Fast and accurate computation of binomial
    probabilities", 2000), which keeps full relative accuracy at large n,
    where a difference of log-gammas cancels.  Since d/dp P(X >= k) =
    (k/p) pmf(k), g'(u) = k / sum.  The root lies between the Markov bound
    p = tail k/n and the MLE p = k/n; Newton starts at the Wilson score
    endpoint (normal quantile z), and a step that leaves the bracket is
    replaced by bisection.
    """
    kf = k.astype(float)
    j = kf[:, None] + np.arange(width, dtype=float)
    ratio = np.maximum(n - j, 0.0) / (j + 1.0)  # zero past j = n ends a full tail
    log_pmf_part = (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
        - _LOG_SQRT_2PI + 0.5 * np.log(n / (kf * (n - kf))) - math.log(tail)
    )
    hi = np.log(kf / n)
    lo = hi + math.log(tail)
    wilson = (kf + 0.5 * z * z - z * np.sqrt(kf * (n - kf) / n + 0.25 * z * z)) / (n + z * z)
    u = np.clip(np.log(wilson), lo, hi)
    for _ in range(100):
        p = np.exp(u)
        q = -np.expm1(u)
        terms = np.cumprod(ratio * (p / q)[:, None], axis=1)
        total = 1.0 + terms.sum(axis=1)
        g = log_pmf_part - _bd0(kf, n * p) - _bd0(n - kf, n * q) + np.log(total)
        lo = np.where(g < 0, u, lo)
        hi = np.where(g > 0, u, hi)
        step = u - g * total / kf
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        # Newton converges quadratically: after a step this small, u is exact to rounding
        done = np.abs(step - u) <= 1e-12 * np.abs(u)
        u = step
        if done.all():
            if np.any(terms[:, -1] > 1e-17 * total):
                raise ConvergenceError(f"binomial tail of n = {n} not resolved in {width} terms")
            return u
    raise ConvergenceError(f"Clopper-Pearson endpoint for n = {n} did not converge")


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
