"""Effective rates for the two-user downlink system.

The effective rate of a user with instantaneous SINR gamma under a delay
exponent theta is -(1/nu) log2 E[(1+gamma)^-nu] with nu = theta*T*B/ln 2.
The strong user decodes after interference cancellation (gamma = a_s rho
g_s); the weak user treats the strong signal as noise, so its SINR is
a_w rho g_min / (a_s rho g_min + 1) with g_min the smaller of the two
gains.  The orthogonal baseline gives each user the full power in half
the resource (exponent nu/2).

Every rate is available through two independent strategies: direct gain
quadrature and the analytic closed forms; theta = 0 delegates to the
ergodic rate (their common limit).  The rate functions take one
NomaSystem, or a grid of systems sharing one channel pair, which the
quadrature route evaluates in one engine pass per user.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import closedform
from .channel import ChannelPair, gain_moment, min_gain_moment
from .specfun import (
    DEFAULT_CONTOUR,
    ContourConfig,
    ContourError,
    laguerre_expectation,
    laguerre_log_expectation,
)

LN2 = math.log(2.0)
LOG2_E = 1.0 / LN2

User = Literal["strong", "weak"]
Route = Literal["closed-form", "quadrature"]  # the routes a rate can be asked for
Strategy = Literal[Route, "monte-carlo"]  # the routes a result can come from


@dataclass(frozen=True)
class DelayQos:
    """Delay QoS exponent theta (1/bits) with the block time-bandwidth product."""

    theta: float
    block_time_bandwidth: float = 1.0

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        if not self.block_time_bandwidth > 0:
            raise ValueError("block time-bandwidth product must be positive")

    @property
    def nu(self) -> float:
        """Dimensionless rate exponent theta*T*B/ln 2; 0 means no constraint."""
        return self.theta * self.block_time_bandwidth / LN2


@dataclass(frozen=True)
class NomaSystem:
    """Two-user superposition system: channel pair, power split, SNR, QoS."""

    pair: ChannelPair
    a_s: float
    rho: float
    qos: DelayQos

    def __post_init__(self):
        if not 0.0 < self.a_s < 0.5:
            raise ValueError(
                f"strong-user power coefficient must lie in (0, 1/2), got {self.a_s}"
            )
        if not self.rho > 0:
            raise ValueError("rho (linear SNR) must be positive")

    @property
    def a_w(self) -> float:
        return 1.0 - self.a_s

    @property
    def nu(self) -> float:
        return self.qos.nu


@dataclass(frozen=True)
class RateResult:
    """A rate value in bits per channel use with evaluation provenance."""

    value: float
    strategy: Strategy
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


def _check_user(user: str):
    if user not in ("strong", "weak"):
        raise ValueError(f"user must be 'strong' or 'weak', got {user!r}")


def _log1p_gain(g, c):
    return np.log1p(c * g)


def _log1p_ratio(g, rho, c):
    return np.log1p(rho * g) - np.log1p(c * g)


def log1p_sinr(sys: NomaSystem, user: User):
    """The user's gain law, the map (g, *p) -> ln(1 + SINR(g)) over it, and the system's p.

    The strong user's law is its own gain with SINR a_s*rho*g; the weak
    user's is the minimum gain, with 1 + SINR = (1 + rho*g) / (1 + a_s*rho*g).
    """
    c = sys.a_s * sys.rho
    if user == "strong":
        return sys.pair.strong, _log1p_gain, (c,)
    return sys.pair, _log1p_ratio, (sys.rho, c)


def _kernel_columns(systems, user: User):
    """``log1p_sinr`` of a grid: the common law and map, and every system's p as columns."""
    target, k, _ = log1p_sinr(systems[0], user)
    return target, k, np.array([log1p_sinr(s, user)[2] for s in systems]).T


def _gridwise(fn):
    """Let ``fn(systems, ...) -> list`` take one NomaSystem, for one result, or a
    grid: a sequence of systems sharing one channel pair, for a list in its order."""

    @functools.wraps(fn)
    def wrapper(sys, *args, **kwargs):
        if isinstance(sys, NomaSystem):
            return fn([sys], *args, **kwargs)[0]
        systems = list(sys)
        if any(s.pair != systems[0].pair for s in systems):
            raise ValueError("the systems of a grid must share one channel pair")
        return fn(systems, *args, **kwargs) if systems else []

    return wrapper


def _by_nu(systems, rated, ergodic):
    """``rated`` over the systems with nu > 0 and ``ergodic`` over those with
    nu = 0 (no delay constraint), merged back in grid order."""
    zero = [s.nu == 0.0 for s in systems]
    runs = {
        flag: iter(fn([s for s, z in zip(systems, zero) if z is flag]) if flag in zero else [])
        for flag, fn in ((False, rated), (True, ergodic))
    }
    return [next(runs[z]) for z in zero]


def _rates(systems, log_means, strategy: Route, rtol: float) -> list[RateResult]:
    """Effective rates -log E[(1+SINR)^-nu] / (nu ln 2) from the log expectations."""
    return [
        RateResult(-lm / (s.nu * LN2), strategy, rtol / (s.nu * LN2))
        for s, lm in zip(systems, log_means)
    ]


def mellin_closed_form(sys: NomaSystem, user: User, w: float, cfg: ContourConfig) -> float:
    """E[(1 + SINR)^-w] through the user's Meijer-G or bivariate Fox-H closed form."""
    if user == "strong":
        return closedform.power_mellin_analytic(sys.pair.strong, sys.a_s * sys.rho, w, cfg)
    return closedform.ratio_mellin_analytic(sys.pair, sys.rho, sys.a_s, w, cfg)


@_gridwise
def er_noma(
    systems: list[NomaSystem],
    user: User,
    strategy: Route = "quadrature",
    cfg: ContourConfig = DEFAULT_CONTOUR,
) -> list[RateResult]:
    """Effective rate of one user under superposition transmission."""
    _check_user(user)

    def rated(systems):
        if strategy == "quadrature":
            target, f, params = _kernel_columns(systems, user)
            log_means = laguerre_log_expectation(target, f, [-s.nu for s in systems], params)[0]
            return _rates(systems, log_means.tolist(), strategy, 1e-9)
        if strategy == "closed-form":
            log_means = []
            for s in systems:
                try:
                    log_means.append(math.log(mellin_closed_form(s, user, s.nu, cfg)))
                except ContourError as exc:
                    raise ContourError(
                        f"closed form cannot evaluate theta = {s.qos.theta:.10g} "
                        f"(nu = {s.nu:.10g}): {exc}; use strategy = quadrature"
                    ) from exc
            return _rates(systems, log_means, strategy, cfg.rtol)
        raise ValueError(f"unsupported strategy {strategy!r} (monte-carlo lives in sim)")

    return _by_nu(systems, rated, lambda zero: ergodic_rate(zero, user, strategy, cfg))


@_gridwise
def er_oma(
    systems: list[NomaSystem],
    user: User,
    strategy: Route = "quadrature",
    cfg: ContourConfig = DEFAULT_CONTOUR,
) -> list[RateResult]:
    """Effective rate under time-shared orthogonal access (half exponent, full power)."""
    _check_user(user)
    ch = systems[0].pair.strong if user == "strong" else systems[0].pair.weak

    def ergodic(systems):
        if strategy == "closed-form":
            vals = [closedform.log_mean_analytic(ch, s.rho, cfg) for s in systems]
        else:
            rhos = [s.rho for s in systems]
            vals = laguerre_expectation(ch, lambda x, rho: np.log2(1.0 + rho * x), (rhos,)).tolist()
        return [RateResult(0.5 * v, strategy) for v in vals]

    def rated(systems):
        if strategy == "quadrature":
            half_nus, rhos = [-0.5 * s.nu for s in systems], [s.rho for s in systems]
            log_means = laguerre_log_expectation(ch, _log1p_gain, half_nus, (rhos,))[0].tolist()
            return _rates(systems, log_means, strategy, 1e-9)
        if strategy == "closed-form":
            log_means = [
                math.log(closedform.power_mellin_analytic(ch, s.rho, 0.5 * s.nu, cfg))
                for s in systems
            ]
            return _rates(systems, log_means, strategy, cfg.rtol)
        raise ValueError(f"unsupported strategy {strategy!r}")

    return _by_nu(systems, rated, ergodic)


def er_high_snr(sys: NomaSystem, user: User) -> RateResult:
    """Large-rho closed-form approximation.

    The weak-user limit log2(1 + a_w/a_s) carries no dependence on the
    delay exponent or the fading parameters.  The strong-user form only
    holds for alpha*mu > 2*nu.
    """
    _check_user(user)
    if user == "weak":
        return RateResult(math.log2(1.0 + sys.a_w / sys.a_s), "closed-form")
    al, mu, om = sys.pair.strong.alpha, sys.pair.strong.mu, sys.pair.strong.omega
    nu = sys.nu
    if al * mu <= 2.0 * nu:
        raise ValueError(
            f"high-SNR form invalid: alpha*mu = {al * mu} must exceed 2*nu = {2 * nu}"
        )
    corr = (2.0 * nu) * math.log2(mu ** (1.0 / al) / om) + math.log2(
        math.gamma(mu - 2.0 * nu / al) / math.gamma(mu)
    )
    return RateResult(math.log2(sys.a_s * sys.rho) - corr / nu, "closed-form")


def er_derivatives(sys: NomaSystem, user: User) -> tuple[float, float]:
    """First and second derivatives of the effective rate at vanishing SNR.

    Built from the first two gain moments; the first derivative does not
    depend on the delay exponent.
    """
    _check_user(user)
    nu = sys.nu
    if user == "strong":
        m1 = gain_moment(sys.pair.strong, 1)
        m2 = gain_moment(sys.pair.strong, 2)
        first = LOG2_E * sys.a_s * m1
        second = LOG2_E * sys.a_s**2 * (nu * m1**2 - (nu + 1.0) * m2)
    else:
        m1 = min_gain_moment(sys.pair, 1)
        m2 = min_gain_moment(sys.pair, 2)
        a_w = sys.a_w
        first = LOG2_E * a_w * m1
        second = LOG2_E * a_w * (
            nu * a_w * m1**2 - ((nu + 1.0) * a_w + 2.0 * sys.a_s) * m2
        )
    return first, second


def er_low_snr(sys: NomaSystem, user: User) -> RateResult:
    """Second-order Taylor value of the effective rate at the system's rho."""
    first, second = er_derivatives(sys, user)
    return RateResult(sys.rho * first + 0.5 * sys.rho**2 * second, "closed-form")


def min_energy_per_bit(sys: NomaSystem, user: User) -> float:
    """Minimum energy per bit over noise density: 1 / (first rate derivative)."""
    first, _ = er_derivatives(sys, user)
    if not first > 0:
        raise ValueError("degenerate system: first rate derivative is not positive")
    return 1.0 / first


def wideband_slope(sys: NomaSystem, user: User) -> float:
    """Wideband slope -2 (first)^2 / second * ln 2."""
    first, second = er_derivatives(sys, user)
    if not second < 0:
        raise ValueError("degenerate system: second rate derivative is not negative")
    return -2.0 * first**2 / second * LN2


@_gridwise
def ergodic_rate(
    systems: list[NomaSystem],
    user: User,
    strategy: Route = "quadrature",
    cfg: ContourConfig = DEFAULT_CONTOUR,
) -> list[RateResult]:
    """Mean log-rate E[log2(1+gamma)]; the theta->0 upper bound on the ER."""
    _check_user(user)
    if strategy == "closed-form":
        vals = [
            closedform.log_mean_analytic(s.pair.strong, s.a_s * s.rho, cfg)
            if user == "strong"
            else closedform.min_log_mean_difference_analytic(s.pair, s.rho, s.a_s, cfg)
            for s in systems
        ]
        return [RateResult(v, strategy, cfg.rtol * abs(v)) for v in vals]
    if strategy != "quadrature":
        raise ValueError(f"unsupported strategy {strategy!r}")
    target, f, params = _kernel_columns(systems, user)
    vals = laguerre_expectation(target, lambda g, *p: f(g, *p) / LN2, params).tolist()
    return [RateResult(v, strategy, 1e-9 * abs(v)) for v in vals]


@_gridwise
def sum_er_noma(systems: list[NomaSystem], strategy: Route = "quadrature") -> list[float]:
    strong = er_noma(systems, "strong", strategy)
    return [s.value + w.value for s, w in zip(strong, er_noma(systems, "weak", strategy))]


def sum_er_oma(sys: NomaSystem, strategy: Route = "quadrature") -> float:
    return er_oma(sys, "strong", strategy).value + er_oma(sys, "weak", strategy).value


def rate_loss(sys: NomaSystem, strategy: Route = "quadrature") -> float:
    """Ergodic sum-rate minus effective sum-rate; nonnegative, vanishing as theta->0."""
    erg = (
        ergodic_rate(sys, "strong", strategy).value
        + ergodic_rate(sys, "weak", strategy).value
    )
    return erg - sum_er_noma(sys, strategy)


def noma_oma_gap(sys: NomaSystem, strategy: Route = "quadrature") -> float:
    """Sum-rate advantage of superposition over time sharing (may be negative)."""
    return sum_er_noma(sys, strategy) - sum_er_oma(sys, strategy)


@_gridwise
def power_search(
    systems: list[NomaSystem],
    grid,
    r_target: float = 2.0,
    strategy: Route = "quadrature",
) -> list[tuple[float, float]]:
    """Pick the strong-user power coefficient maximizing the sum rate.

    ``grid`` is a discrete set of candidate a_s values; all must lie in
    the feasible range (0, 2^-r_target).  Ties break toward the smaller
    coefficient.  A grid of systems is searched in one sum-rate evaluation.
    """
    grid = [float(a) for a in grid]
    if not grid:
        raise ValueError("empty power-coefficient grid")
    limit = 2.0**-r_target
    for a in grid:
        if not 0.0 < a < limit:
            raise ValueError(
                f"a_s={a} outside the feasible range (0, {limit}) for "
                f"target rate {r_target}"
            )
    grid.sort()
    sums = iter(sum_er_noma([replace(s, a_s=a) for s in systems for a in grid], strategy))
    out = []
    for _ in systems:
        best_a, best_sum = None, -math.inf
        for a, total in zip(grid, sums):  # the next len(grid) sums: grid is zipped first
            if total > best_sum:
                best_a, best_sum = a, total
        out.append((best_a, best_sum))
    return out
