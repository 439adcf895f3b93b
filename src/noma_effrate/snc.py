"""Delay-violation-probability bounds via service-process Mellin transforms.

With N symbols per slot the per-slot service of a user with SINR gamma is
N*log2(1+gamma) bits.  For a constant arrival rate of ``lam`` bits per
slot, the queue's delay tail obeys

    Pr(delay > d) <= inf_{S>0}  M(S)^d / (1 - exp(lam*S) * M(S))

where M(S) = E[(1+gamma)^(-N*S/ln 2)] is the Mellin transform of the
service process at 1-S, and the bracket is evaluated only where the
stability kernel exp(lam*S)*M(S) stays below one.  All kernels are
evaluated in log space: the exponent N*S/ln 2 reaches the thousands
across the search range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effrate import LN2, NomaSystem, Route, User, _check_user, closed_form, log1p_sinr
from .specfun import CONTOUR_RTOL, golden_section, laguerre_log_expectation

_S_TOL = 1e-6  # golden-section width on log s at the minimizer
_COARSE_POINTS = 200  # log-spaced scan of [s_min, s_max] before the golden section
_DELAY_BLOCK = 1024  # delays per block of the scan's delays x _COARSE_POINTS brackets


@dataclass(frozen=True)
class SncConfig:
    """System plus queueing parameters for the delay bound."""

    system: NomaSystem
    symbols_per_slot: int
    arrival_rate: float  # bits per slot
    s_min: float = 1e-6
    s_max: float = 5.0

    def __post_init__(self):
        if self.symbols_per_slot < 1:
            raise ValueError("symbols_per_slot must be a positive integer")
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError("arrival rate must be positive and finite")
        if not 0 < self.s_min < self.s_max < math.inf:
            raise ValueError("need 0 < s_min < s_max < inf")

    def varpi(self, s: float) -> float:
        return self.symbols_per_slot * s / LN2


@dataclass(frozen=True)
class MellinValue:
    """Service-process Mellin transform value at a given exponent point."""

    value: float
    log_value: float
    s: float
    varpi: float
    strategy: Route
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.s > 0 and self.value > 1.0 + 1e-9:
            raise ValueError("Mellin value of a (1+gamma)^-w kernel cannot exceed 1")


@dataclass(frozen=True)
class DvpBound:
    """Upper bound on Pr(delay > target_delay), with the minimizing exponent."""

    target_delay: float
    bound: float
    minimizer_s: float | None
    feasible: bool
    log_bound: float  # exact even when `bound` underflows

    def __post_init__(self):
        if self.bound < 0 or self.bound > 1:
            raise ValueError("bound must lie in [0, 1]")


def _log_mellin(cfg: SncConfig, user: User, s):
    """(log M(s), relative error) for one user via the gain-quadrature route;
    an array of exponents s is one engine call, sharing one kernel row."""
    target, f, params, _ = log1p_sinr(cfg.system, user)
    return laguerre_log_expectation(target, lambda g: f(g, *params), -cfg.varpi(s))


def _mellin(cfg: SncConfig, user: User, s: float, strategy: Route) -> MellinValue:
    if not s > 0:
        raise ValueError("s must be positive")
    w = cfg.varpi(s)
    if strategy == "quadrature":
        log_m, err = _log_mellin(cfg, user, s)
    elif strategy == "closed-form":
        law, _, params, _ = log1p_sinr(cfg.system, user)
        log_m, err = math.log(closed_form(law, params, w)), CONTOUR_RTOL
    else:
        raise ValueError(f"unsupported strategy {strategy!r}")
    return MellinValue(math.exp(log_m), log_m, s, w, strategy, err)


def mellin_strong(cfg: SncConfig, s: float, strategy: Route = "quadrature") -> MellinValue:
    """E[(1 + a_s*rho*g_s)^-varpi] with varpi = N*s/ln 2."""
    return _mellin(cfg, "strong", s, strategy)


def mellin_weak(cfg: SncConfig, s: float, strategy: Route = "quadrature") -> MellinValue:
    """E[(1 + a_w*rho*g_min/(a_s*rho*g_min + 1))^-varpi].

    The quadrature strategy is authoritative; the Fox-H closed form is the
    cross-validation route (agreement to the contour's 1e-8 relative
    tolerance in tests, for s up to 0.03 on the reference systems).
    """
    return _mellin(cfg, "weak", s, strategy)


def _log_brackets(cfg: SncConfig, user: User, s):
    """d -> log[M(s)^d / (1 - exp(lam*s)*M(s))] over a list of s, broadcast against d,
    inf where exp(lam*s)*M(s) >= 1: one engine call over the distinct exponents."""
    points, index = np.unique(s, return_inverse=True)
    log_m = _log_mellin(cfg, user, points)[0]
    tail = []
    for x, lm in zip(points.tolist(), log_m.tolist()):
        log_k = cfg.arrival_rate * x + lm
        # -expm1, not 1 - exp: exp(log_k) rounds to 1 once |log_k| is below about 1e-16
        tail.append(-math.inf if log_k >= 0.0 else math.log(-math.expm1(log_k)))
    log_m, tail = log_m[index], np.array(tail)[index]
    return lambda d: d * log_m - tail


def dvp_curve(cfg: SncConfig, user: User, target_delays) -> list[DvpBound]:
    """Infimum of the delay-bound bracket over the exponent search range, per delay.

    Coarse log-spaced scan followed by golden-section refinement; clamps
    the result to [0, 1] (a bound above one is vacuous but still valid).
    Integer target delays match the slotted queue; fractional values
    interpolate the same expression.  The scan is one batch of Mellin
    transforms, minimised in blocks of delays, and the delays' golden sections
    run in lockstep, one batch per round, with the same bits as one at a time.
    """
    _check_user(user)
    delays = np.array([float(d) for d in target_delays])
    if np.any(delays < 0):
        raise ValueError("target delay must be nonnegative")
    grid = np.geomspace(cfg.s_min, cfg.s_max, _COARSE_POINTS)
    bracket, best_k, coarse = _log_brackets(cfg, user, grid), [], []
    for i in range(0, delays.size, _DELAY_BLOCK):
        vals = bracket(delays[i : i + _DELAY_BLOCK, None])
        best_k += np.argmin(vals, axis=1).tolist()
        coarse += vals.min(axis=1).tolist()
    searches = {}
    for i, k in enumerate(best_k):
        if math.isfinite(coarse[i]):
            lo = grid[max(k - 1, 0)]
            hi = grid[min(k + 1, len(grid) - 1)]
            searches[i] = golden_section(math.log(lo), math.log(hi), atol=_S_TOL)
    points = {i: next(search) for i, search in searches.items()}
    log_s = {}
    while points:
        live = list(points)
        f = _log_brackets(cfg, user, [math.exp(points[i]) for i in live])(delays[live])
        points = {}
        for i, fi in zip(live, f.tolist()):
            try:
                points[i] = searches[i].send(fi)
            except StopIteration as done:
                log_s[i] = done.value
    out = [DvpBound(d, 1.0, None, False, 0.0) for d in delays.tolist()]
    if not log_s:  # no delay has a stable exponent
        return out
    s_star = {i: math.exp(x) for i, x in log_s.items()}
    log_b = _log_brackets(cfg, user, list(s_star.values()))(delays[list(s_star)])
    for (i, s), lb in zip(s_star.items(), log_b.tolist()):
        best = min(lb, coarse[i])
        if math.isfinite(best):
            log_bound = min(best, 0.0)
            out[i] = DvpBound(out[i].target_delay, math.exp(log_bound), s, True, log_bound)
    return out


def bound_decay_slope(curve: list[DvpBound]) -> float:
    """Least-squares slope of log(bound) against the target delay.

    Only feasible, strictly-positive entries participate.  The decay rate
    of the bound is the negative of this slope.
    """
    pts = [(b.target_delay, b.log_bound) for b in curve if b.feasible]
    if len(pts) < 2:
        raise ValueError("need at least two feasible bound points to fit a slope")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])
