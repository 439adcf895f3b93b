"""Monte Carlo oracles: sampled rates and a slotted fluid-queue simulator.

The queue model matches the bound's semantics exactly: a constant fluid
arrival of lam bits enters a FIFO queue each slot; the slot's service is
N*log2(1+gamma) bits with gamma drawn independently per slot (block
fading, one fading block per slot).  Delay is accounted per bit: bits
arriving in slot k leave once cumulative departures reach cumulative
arrivals through k.  As departures = arrivals - backlog, they wait more
than d slots exactly when the backlog after slot k+d exceeds d*lam.

The queue is simulated in one pass over blocks of 2^16 slots that carries
the drift and its running minimum, for one user or both on the same trace,
so it holds one block per link.  The strong link's gains come first in the
stream: one generator draws them block by block for both users, and a
second on the same seed steps past them with bare gamma draws, then draws
the weak link's gains.  Random numbers come from numpy's PCG64 via
default_rng; batch streams are spawned from one SeedSequence, so results do
not depend on execution order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ParameterError, sample_gain
from .effrate import LN2, NomaSystem, RateResult, User, _check_user
from .snc import SncConfig
from .specfun import ConvergenceError

_BLOCK = 1 << 16  # slots per block of the queue simulation


@dataclass(frozen=True)
class SimPlan:
    """Replication plan: seed, sample count (draws or slots; 0 plans none), and batches."""

    seed: int
    draws: int
    batches: int = 10

    def __post_init__(self):
        for name in ("seed", "draws"):
            if getattr(self, name) < 0:
                raise ParameterError(name, f"must be nonnegative, got {getattr(self, name)}")
        if self.batches < 10:
            raise ParameterError("batches", f"must be at least 10 for error bars, got {self.batches}")


@dataclass(frozen=True)
class DelayCcdf:
    """Empirical Pr(delay > d) for d = 0..max_delay with 99% binomial CIs.

    ``ci_low`` and ``ci_high`` are exact Clopper-Pearson endpoints (Clopper &
    Pearson, Biometrika 1934) that treat every observation as an independent
    trial; ``_binomial_ci`` computes them with Loader's binomial probabilities.

    ``observations`` is the number of per-slot bit batches the estimate is
    built from; ``bits_observed`` the corresponding bit volume.  The arrays
    are indexed by d; a simulation of several users on one trace gives them
    a leading user axis, and the counts are the same for every user.
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
    # the strong link's n gains first, then the weak link's; built in place
    g = sample_gain(sys.pair.strong, rng, n)
    if user == "strong":
        g *= sys.a_s * sys.rho
        return g
    return _weak_sinr(sys, g, sample_gain(sys.pair.weak, rng, n))


def _weak_sinr(sys: NomaSystem, g_s: np.ndarray, g_w: np.ndarray, den=None) -> np.ndarray:
    """a_w rho g / (a_s rho g + 1) over g = min(g_s, g_w), built over ``g_w``.

    ``g_s`` is left as it is; ``den``, when given, is the scratch array of
    the denominator.
    """
    g = np.minimum(g_s, g_w, out=g_w)
    den = np.multiply(g, sys.a_s * sys.rho, out=den)
    den += 1.0
    g *= sys.a_w * sys.rho
    g /= den
    return g


def mc_effective_rate(sys: NomaSystem, user: User, plan: SimPlan) -> RateResult:
    """Sampled effective rate with a batch-based standard error."""
    _check_user(user)
    nu = sys.nu
    if nu <= 0:
        raise ValueError("Monte Carlo effective rate needs theta > 0")
    if plan.draws < plan.batches:
        raise ParameterError("draws", f"must be at least batches = {plan.batches}, got {plan.draws}")
    streams = np.random.SeedSequence(plan.seed).spawn(plan.batches)
    per_batch = plan.draws // plan.batches
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


def min_slots(max_delay: int) -> int:
    """The shortest trace that observes a bit after the 10% warm-up.

    A trace of ``slots`` observes the bits of slots [slots // 10,
    slots - max_delay); this is the least ``slots`` leaving that range
    nonempty.
    """
    return max_delay + 1 + max_delay // 9


def queue_dvp(
    cfg: SncConfig,
    users: User | tuple[User, ...],
    plan: SimPlan,
    max_delay: int,
) -> DelayCcdf:
    """Empirical delay-violation probabilities from a fluid-queue trace.

    ``users`` is "strong", "weak" or a tuple of distinct users, simulated
    in one pass on the same trace: for a tuple, the result's arrays get a
    leading user axis in that order, and each row is bit for bit what a
    call for that user alone gives.  The first 10% of slots are warm-up;
    bits arriving within max_delay of the trace end are excluded so no
    delay measurement is censored.  Delays beyond max_delay are counted as
    exceeding every target.  Memory is a few blocks of slots at any trace
    length: one per link drawn, and one of scratch.
    """
    names = (users,) if isinstance(users, str) else tuple(users)
    for user in names:
        _check_user(user)
    if not names or len(set(names)) < len(names):
        raise ParameterError("users", f"must be one user or a tuple of distinct users, got {users!r}")
    if max_delay < 1:
        raise ParameterError("max_delay", f"must be at least 1 for a queue simulation, got {max_delay}")
    slots = plan.draws
    if slots < min_slots(max_delay):
        raise ParameterError("draws", f"trace too short for delays up to {max_delay} after the 10% warm-up; "
                             f"need at least {min_slots(max_delay)} slots, got {slots}")
    warm = slots // 10
    last = slots - max_delay
    sys = cfg.system
    lam = cfg.arrival_rate
    work = np.empty(min(_BLOCK, slots))  # the weak denominator, then each backlog's running minimum
    strong_rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    weak_rng = None
    if "weak" in names:
        # the strong gains come first in the stream: ``weak_rng`` steps past
        # them with the bare gamma draws, without the gain transform, to draw
        # the weak gains from where they end
        weak_rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
        for start in range(0, slots, _BLOCK):
            weak_rng.standard_gamma(sys.pair.strong.mu, out=work[: min(_BLOCK, slots - start)])
    eps = 1e-9 * max(lam, 1.0)
    exceed = [[0] * (max_delay + 1) for _ in names]
    mean_service = [0.0] * len(names)
    drift = [0.0] * len(names)
    floor = [0.0] * len(names)
    for start in range(0, slots, _BLOCK):
        stop = min(start + _BLOCK, slots)
        n = stop - start
        sinr = {}
        g_s = sample_gain(sys.pair.strong, strong_rng, n)
        if weak_rng is not None:
            sinr["weak"] = _weak_sinr(sys, g_s, sample_gain(sys.pair.weak, weak_rng, n), work[:n])
        if "strong" in names:
            g_s *= sys.a_s * sys.rho
            sinr["strong"] = g_s
        for i, user in enumerate(names):
            x = sinr[user]
            x += 1.0
            np.log2(x, out=x)
            x *= cfg.symbols_per_slot  # the block's service
            mean_service[i] += float(x.sum()) / slots
            np.subtract(lam, x, out=x)
            # backlog = drift - its running minimum, both carried over from earlier blocks
            x[0] += drift[i]
            np.cumsum(x, out=x)
            low = np.minimum.accumulate(x, out=work[:n])
            np.minimum(low, floor[i], out=low)
            drift[i], floor[i] = x[-1], low[-1]
            x -= low  # x[j] is the backlog after slot start + j
            bottom, top = x.min(), x.max()
            # bits of slot k wait more than d slots iff the backlog after slot k+d still
            # exceeds the d*lam bits that arrived after them; d reads slots [warm+d, last+d)
            for d in range(max(start - last + 1, 0), min(stop - warm, max_delay + 1)):
                threshold = d * lam + eps
                if threshold >= top:  # no backlog of the block exceeds it, nor a later target's
                    break
                lo, hi = max(warm + d - start, 0), min(last + d - start, n)
                # every backlog of the block exceeds a threshold below its least one
                exceed[i][d] += hi - lo if threshold < bottom else np.count_nonzero(x[lo:hi] > threshold)
        del sinr, g_s, x  # free the block before the next one is drawn
    del work, low  # and the scratch block before the interval solver's own
    for user, ms in zip(names, mean_service):
        if lam >= ms:
            warnings.warn(
                f"unstable queue: arrival rate {lam} >= mean service {ms:.3f} of the {user} user",
                RuntimeWarning,
                stacklevel=2,
            )
    n_obs = last - warm
    p = np.array(exceed) / n_obs
    # one user at a time: a block of Newton solves stops with its slowest row, so
    # solving each user's rows on their own gives the bits of a one-user call
    ci = [_binomial_ci(row, n_obs, 0.99) for row in exceed]
    ci_low, ci_high = (np.array(ends) for ends in zip(*ci))
    if isinstance(users, str):
        p, ci_low, ci_high = p[0], ci_low[0], ci_high[0]
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
