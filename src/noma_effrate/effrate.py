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
ergodic rate (their common limit).
"""

from __future__ import annotations

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


def log1p_sinr(sys: NomaSystem, user: User):
    """The user's gain law and the map g -> ln(1 + SINR(g)) over it.

    The strong user's law is its own gain with SINR a_s*rho*g; the weak
    user's is the minimum gain, with 1 + SINR = (1 + rho*g) / (1 + a_s*rho*g).
    """
    c = sys.a_s * sys.rho
    if user == "strong":
        return sys.pair.strong, lambda g: np.log1p(c * g)
    rho = sys.rho
    return sys.pair, lambda g: np.log1p(rho * g) - np.log1p(c * g)


def mellin_closed_form(sys: NomaSystem, user: User, w: float, cfg: ContourConfig) -> float:
    """E[(1 + SINR)^-w] through the user's Meijer-G or bivariate Fox-H closed form."""
    if user == "strong":
        return closedform.power_mellin_analytic(sys.pair.strong, sys.a_s * sys.rho, w, cfg)
    return closedform.ratio_mellin_analytic(sys.pair, sys.rho, sys.a_s, w, cfg)


def er_noma(
    sys: NomaSystem,
    user: User,
    strategy: Route = "quadrature",
    cfg: ContourConfig = DEFAULT_CONTOUR,
) -> RateResult:
    """Effective rate of one user under superposition transmission."""
    _check_user(user)
    nu = sys.nu
    if nu == 0.0:
        return ergodic_rate(sys, user, strategy, cfg)
    if strategy == "quadrature":
        target, f = log1p_sinr(sys, user)
        log_mean = laguerre_log_expectation(target, f, -nu)[0]
        err = 1e-9 / (nu * LN2)
    elif strategy == "closed-form":
        try:
            log_mean = math.log(mellin_closed_form(sys, user, nu, cfg))
        except ContourError as exc:
            raise ContourError(
                f"closed form cannot evaluate theta = {sys.qos.theta:.10g} (nu = {nu:.10g}): "
                f"{exc}; use strategy = quadrature"
            ) from exc
        err = cfg.rtol / (nu * LN2)
    else:
        raise ValueError(f"unsupported strategy {strategy!r} (monte-carlo lives in sim)")
    return RateResult(-log_mean / (nu * LN2), strategy, err)


def er_oma(
    sys: NomaSystem,
    user: User,
    strategy: Route = "quadrature",
    cfg: ContourConfig = DEFAULT_CONTOUR,
) -> RateResult:
    """Effective rate under time-shared orthogonal access (half exponent, full power)."""
    _check_user(user)
    nu = sys.nu
    ch = sys.pair.strong if user == "strong" else sys.pair.weak
    if nu == 0.0:
        if strategy == "closed-form":
            val = closedform.log_mean_analytic(ch, sys.rho, cfg)
        else:
            val = laguerre_expectation(ch, lambda x: np.log2(1.0 + sys.rho * x))
        return RateResult(0.5 * val, strategy)
    if strategy == "quadrature":
        log_mean = laguerre_log_expectation(ch, lambda x: np.log1p(sys.rho * x), -0.5 * nu)[0]
        err = 1e-9 / (nu * LN2)
    elif strategy == "closed-form":
        log_mean = math.log(closedform.power_mellin_analytic(ch, sys.rho, 0.5 * nu, cfg))
        err = cfg.rtol / (nu * LN2)
    else:
        raise ValueError(f"unsupported strategy {strategy!r}")
    return RateResult(-log_mean / (nu * LN2), strategy, err)


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


def ergodic_rate(
    sys: NomaSystem,
    user: User,
    strategy: Route = "quadrature",
    cfg: ContourConfig = DEFAULT_CONTOUR,
) -> RateResult:
    """Mean log-rate E[log2(1+gamma)]; the theta->0 upper bound on the ER."""
    _check_user(user)
    if strategy == "closed-form":
        if user == "strong":
            val = closedform.log_mean_analytic(sys.pair.strong, sys.a_s * sys.rho, cfg)
        else:
            val = closedform.min_log_mean_difference_analytic(
                sys.pair, sys.rho, sys.a_s, cfg
            )
        return RateResult(val, strategy, cfg.rtol * abs(val))
    if strategy != "quadrature":
        raise ValueError(f"unsupported strategy {strategy!r}")
    target, f = log1p_sinr(sys, user)
    val = laguerre_expectation(target, lambda g: f(g) / LN2)
    return RateResult(val, strategy, 1e-9 * abs(val))


def sum_er_noma(sys: NomaSystem, strategy: Route = "quadrature") -> float:
    return er_noma(sys, "strong", strategy).value + er_noma(sys, "weak", strategy).value


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


def power_search(
    sys: NomaSystem,
    grid,
    r_target: float = 2.0,
    strategy: Route = "quadrature",
) -> tuple[float, float]:
    """Pick the strong-user power coefficient maximizing the sum rate.

    ``grid`` is a discrete set of candidate a_s values; all must lie in
    the feasible range (0, 2^-r_target).  Ties break toward the smaller
    coefficient.
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
    best_a, best_sum = None, -math.inf
    for a in sorted(grid):
        cand = replace(sys, a_s=a)
        total = sum_er_noma(cand, strategy)
        if total > best_sum:
            best_a, best_sum = a, total
    return best_a, best_sum
