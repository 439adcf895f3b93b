"""Effective rates for the two-user downlink system.

A user with instantaneous SINR gamma and a share tau of the resource has,
under a delay exponent theta, the effective rate -(1/nu) log2
E[(1+gamma)^-(tau*nu)] with nu = theta*T*B/ln 2; its theta -> 0 limit is
the ergodic rate tau*E[log2(1+gamma)].  Under superposition (tau = 1) the
strong user decodes after interference cancellation (gamma = a_s rho g_s);
the weak user treats the strong signal as noise (gamma = a_w rho g_min /
(a_s rho g_min + 1), g_min the smaller gain).  The orthogonal baseline
gives each user the full power in half the resource (tau = 1/2).

Each user's service is written once, in ``log1p_sinr``; ``log_moment`` is the
one entry point to its moments, for rates and delay bounds alike: direct gain
quadrature, or the independent closed form it picks by the law's type.
``er_noma``, ``er_oma`` and ``ergodic_rate`` take one NomaSystem, or a grid of
systems sharing one channel pair, which the quadrature route takes in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import closedform
from .channel import AlphaMuChannel, ChannelPair, ParameterError, gain_moment, min_gain_moment
from .specfun import (
    CONTOUR_RTOL,
    ContourError,
    ConvergenceError,
    laguerre_expectation,  # noqa: F401  (unused: perfbench/spans.py patches this name)
    laguerre_log_expectation,
)

LN2 = math.log(2.0)
LOG2_E = 1.0 / LN2

User = Literal["strong", "weak"]
Access = Literal["noma", "oma"]
Route = Literal["closed-form", "quadrature"]  # the routes a rate can be asked for
Strategy = Literal[Route, "monte-carlo"]  # the routes a result can come from


@dataclass(frozen=True)
class DelayQos:
    """Delay QoS exponent theta (1/bits) with the block time-bandwidth product."""

    theta: float
    block_time_bandwidth: float = 1.0

    def __post_init__(self):
        if not 0 <= self.theta < math.inf:
            raise ParameterError("theta", f"must be finite and nonnegative, got {self.theta}")
        if not 0 < self.block_time_bandwidth < math.inf:
            raise ParameterError("block_time_bandwidth",
                                 f"must be finite and positive, got {self.block_time_bandwidth}")

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
            raise ParameterError("a_s", f"must lie in (0, 1/2), got {self.a_s}")
        if not 0 < self.rho < math.inf:
            raise ParameterError("rho", f"must be positive and finite in linear scale, got {self.rho}")

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
        raise ParameterError("user", f"must be 'strong' or 'weak', got {user!r}")


def _log1p_gain(g, c):
    return np.log1p(c * g)


def _log1p_ratio(g, rho, a_s):
    return np.log1p(rho * g) - np.log1p(a_s * rho * g)


def log1p_sinr(sys: NomaSystem, user: User, access: Access = "noma"):
    """The user's service: its gain law, the map (g, *p) -> ln(1 + SINR(g)) over
    it, the system's p, and the user's share tau of the resource.

    Under superposition ("noma") the strong user's law is its own gain with
    SINR a_s*rho*g; the weak user's is the minimum gain, with 1 + SINR =
    (1 + rho*g) / (1 + a_s*rho*g); each has the whole resource.  Under time
    sharing ("oma") each user has its own gain at full power, SINR rho*g, in
    half the resource.
    """
    if access == "oma":
        return getattr(sys.pair, user), _log1p_gain, (sys.rho,), 0.5
    if access != "noma":
        raise ValueError(f"access must be 'noma' or 'oma', got {access!r}")
    if user == "strong":
        return sys.pair.strong, _log1p_gain, (sys.a_s * sys.rho,), 1.0
    return sys.pair, _log1p_ratio, (sys.rho, sys.a_s), 1.0


def log_moment(law, k, w, params=(), route: Route = "quadrature", tilted=False):
    """(log E[(1 + SINR)^-w], relative error) per column over a ``log1p_sinr`` service (law,
    k, params), k = ln(1 + SINR); where ``tilted``, of E[k e^(-w k)], the ergodic mean E[k]
    at w = 0.  The quadrature route broadcasts w, tilted and params to the columns of one
    engine pass, with the kernel -w*k + ln k.  The closed-form route takes one w, the gain-line
    or Fox-H Mellin form at w > 0 and the log-mean lines (tilted) at w = 0, with the contour
    tolerance as the error; a mean that is not positive, or above 1 at w > 0, is a ContourError."""
    if route not in ("quadrature", "closed-form"):
        raise ParameterError("strategy", f"unsupported strategy {route!r}; the routes are "
                             "quadrature and closed-form (monte-carlo lives in sim)")
    if route == "quadrature":
        def kernel(g, c, t, *p):
            x = k(g, *p)
            out = c * x
            if t.any():  # out += t * ln k, where 0 * -inf would be nan
                with np.errstate(divide="ignore"):  # k may underflow to 0 at the least gains
                    out += np.log(x, out=np.zeros(out.shape), where=t > 0)
            return out

        return laguerre_log_expectation(law, kernel, 1.0, (np.negative(w), tilted, *params))
    if law.mu > closedform.MAX_MU:
        raise ParameterError("mu", f"the closed form holds up to mu = {closedform.MAX_MU}, "
                             f"got {law.mu}; use strategy = quadrature")
    if np.any(np.not_equal(tilted, w == 0)):
        raise ValueError("the closed forms are tilted at w = 0 and only there")
    with np.errstate(all="ignore"):  # a value beyond the doubles is rejected, not warned about
        single = isinstance(law, AlphaMuChannel)
        if w:
            sign, log_mean = (closedform.power_mellin_analytic if single
                              else closedform.ratio_mellin_analytic)(law, *params, w)
        else:
            mean = (closedform.log_mean_analytic if single
                    else closedform.min_log_mean_difference_analytic)(law, *params) * LN2
            sign, log_mean = np.sign(mean), np.log(np.abs(mean))
        if not np.all((sign > 0) & np.isfinite(log_mean)):
            raise ContourError("the mean is not a positive double")
        if w and np.any(log_mean > math.log1p(CONTOUR_RTOL)):
            raise ContourError(f"the mean {np.exp(np.max(log_mean)):.10g} exceeds 1")
    return log_mean, CONTOUR_RTOL


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


def _rate(systems, user, access, strategy, ergodic=False) -> list[RateResult]:
    """The one rate path: -log E[(1+SINR)^-(tau*nu)] / (nu ln 2) for the systems
    with nu > 0, and tau*E[log2(1+SINR)] (the common nu -> 0 limit, from the tilted
    moment at w = 0) for those with nu = 0, or for all of them when ``ergodic``.  Each
    distinct column (tau*nu, parameters) is evaluated once, as OMA rates repeat over
    a_s: all in one engine pass, or in one closed form per exponent."""
    _check_user(user)
    law, k, _, tau = log1p_sinr(systems[0], user, access)
    nus = [0.0 if ergodic else s.nu for s in systems]
    cols = [(tau * nu, *log1p_sinr(s, user, access)[2]) for s, nu in zip(systems, nus)]
    groups = {}  # the distinct columns of the engine pass, or of one form per exponent
    for c in dict.fromkeys(cols):
        groups.setdefault(None if strategy == "quadrature" else c[0], []).append(c)
    rtol = 1e-9 if strategy == "quadrature" else CONTOUR_RTOL
    means = {}  # per column: log E[(1+SINR)^-w] for w > 0, E[log2(1+SINR)] for w = 0
    for at in groups.values():
        w = [c[0] for c in at] if strategy == "quadrature" else at[0][0]
        try:
            logs = log_moment(law, k, w, np.array([c[1:] for c in at]).T, strategy, np.equal(w, 0.0))[0]
        except (ContourError, ConvergenceError) as exc:
            if strategy == "quadrature":
                raise
            first = systems[cols.index(at[0])]
            raise type(exc)(
                f"closed form cannot evaluate theta = {first.qos.theta:.10g} "
                f"(nu = {first.nu:.10g}): {exc}; use strategy = quadrature"
            ) from exc
        means.update((c, v if c[0] else math.exp(v) / LN2) for c, v in zip(at, logs.tolist()))
    return [
        RateResult(-means[c] / (nu * LN2), strategy, rtol / (nu * LN2)) if c[0] > 0
        else RateResult(tau * means[c], strategy, rtol * abs(tau * means[c]))
        for c, nu in zip(cols, nus)
    ]


@_gridwise
def er_noma(
    systems: list[NomaSystem], user: User, strategy: Route = "quadrature"
) -> list[RateResult]:
    """Effective rate of one user under superposition transmission."""
    return _rate(systems, user, "noma", strategy)


@_gridwise
def er_oma(
    systems: list[NomaSystem], user: User, strategy: Route = "quadrature"
) -> list[RateResult]:
    """Effective rate under time-shared orthogonal access (half exponent, full power)."""
    return _rate(systems, user, "oma", strategy)


def er_high_snr(sys: NomaSystem, user: User) -> RateResult:
    """Large-rho closed-form approximation.

    The weak-user limit log2(1 + a_w/a_s) carries no dependence on the
    delay exponent or the fading parameters.  The strong-user form only
    holds for alpha*mu > 2*nu; at nu = 0 it is the limit E[log2(a_s rho g_s)].
    """
    _check_user(user)
    if user == "weak":
        return RateResult(math.log2(1.0 + sys.a_w / sys.a_s), "closed-form")
    al, mu, om = sys.pair.strong.alpha, sys.pair.strong.mu, sys.pair.strong.omega
    nu = sys.nu
    if al * mu <= 2.0 * nu:
        raise ParameterError("theta", f"high-SNR form invalid: alpha*mu = {al * mu} must exceed "
                             f"2*nu = {2 * nu}")
    if nu == 0.0:  # E[ln g] = 2 ln omega + (2/alpha)(psi(mu) - ln mu), psi at an integer mu
        psi = -np.euler_gamma + sum(1.0 / k for k in range(1, mu))
        log_mean = 2.0 * math.log(om) + 2.0 / al * (psi - math.log(mu))
        return RateResult(math.log2(sys.a_s * sys.rho) + log_mean / LN2, "closed-form")
    # log2 Gamma(mu - 2nu/alpha) / Gamma(mu) by lgamma: each Gamma overflows from mu = 172
    log_ratio = math.lgamma(mu - 2.0 * nu / al) - math.lgamma(mu)
    corr = (2.0 * nu) * math.log2(mu ** (1.0 / al) / om) + log_ratio / LN2
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
    systems: list[NomaSystem], user: User, strategy: Route = "quadrature"
) -> list[RateResult]:
    """Mean log-rate E[log2(1+gamma)]; the theta->0 upper bound on the ER."""
    return _rate(systems, user, "noma", strategy, ergodic=True)


@_gridwise
def sum_er_noma(systems: list[NomaSystem], strategy: Route = "quadrature") -> list[float]:
    strong = er_noma(systems, "strong", strategy)
    return [s.value + w.value for s, w in zip(strong, er_noma(systems, "weak", strategy))]


def rate_loss(sys: NomaSystem, strategy: Route = "quadrature") -> float:
    """Ergodic sum-rate minus effective sum-rate; nonnegative, vanishing as theta->0."""
    erg = (
        ergodic_rate(sys, "strong", strategy).value
        + ergodic_rate(sys, "weak", strategy).value
    )
    return erg - sum_er_noma(sys, strategy)


def noma_oma_gap(sys: NomaSystem, strategy: Route = "quadrature") -> float:
    """Sum-rate advantage of superposition over time sharing (may be negative)."""
    oma = er_oma(sys, "strong", strategy).value + er_oma(sys, "weak", strategy).value
    return sum_er_noma(sys, strategy) - oma


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
        raise ParameterError("grid", "empty power-coefficient grid")
    limit = 2.0**-r_target
    for a in grid:
        if not 0.0 < a < limit:
            raise ParameterError("grid", f"a_s = {a} is outside the feasible range (0, {limit}) "
                                 f"for target rate {r_target}")
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
