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

from .effrate import LN2, NomaSystem, Route, User, _check_user, log1p_sinr, mellin_closed_form
from .specfun import DEFAULT_CONTOUR, ContourConfig, golden_section, laguerre_log_expectation

_S_TOL = 1e-6  # golden-section width on log s at the minimizer
_COARSE_POINTS = 200  # log-spaced scan of [s_min, s_max] before the golden section


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
        if not self.arrival_rate > 0:
            raise ValueError("arrival rate must be positive")
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


def _log_mellin(cfg: SncConfig, user: User, s: float) -> tuple[float, float]:
    """log M(s) for one user via the gain-quadrature route."""
    w = cfg.varpi(s)
    target, f = log1p_sinr(cfg.system, user)
    return laguerre_log_expectation(target, lambda g: -w * f(g))


def _mellin(
    cfg: SncConfig, user: User, s: float, strategy: Route, contour: ContourConfig
) -> MellinValue:
    if not s > 0:
        raise ValueError("s must be positive")
    w = cfg.varpi(s)
    if strategy == "quadrature":
        log_m, err = _log_mellin(cfg, user, s)
    elif strategy == "closed-form":
        log_m, err = math.log(mellin_closed_form(cfg.system, user, w, contour)), contour.rtol
    else:
        raise ValueError(f"unsupported strategy {strategy!r}")
    return MellinValue(math.exp(min(log_m, 0.0)), log_m, s, w, strategy, err)


def mellin_strong(
    cfg: SncConfig,
    s: float,
    strategy: Route = "quadrature",
    contour: ContourConfig = DEFAULT_CONTOUR,
) -> MellinValue:
    """E[(1 + a_s*rho*g_s)^-varpi] with varpi = N*s/ln 2."""
    return _mellin(cfg, "strong", s, strategy, contour)


def mellin_weak(
    cfg: SncConfig,
    s: float,
    strategy: Route = "quadrature",
    contour: ContourConfig = DEFAULT_CONTOUR,
) -> MellinValue:
    """E[(1 + a_w*rho*g_min/(a_s*rho*g_min + 1))^-varpi].

    The quadrature strategy is authoritative; the Fox-H closed form is the
    cross-validation route (agreement to ~1e-4 relative in tests).
    """
    return _mellin(cfg, "weak", s, strategy, contour)


class MellinTable:
    """Memoized log-Mellin evaluator for one (config, user) pair.

    The infimum search re-evaluates the same coarse grid for every target
    delay; caching makes a full delay sweep cost one grid pass.
    """

    def __init__(self, cfg: SncConfig, user: User):
        _check_user(user)
        self.cfg = cfg
        self.user = user
        self._cache: dict[float, float] = {}

    def log_m(self, s: float) -> float:
        got = self._cache.get(s)
        if got is None:
            got = _log_mellin(self.cfg, self.user, s)[0]
            self._cache[s] = got
        return got

    def log_stability(self, s: float) -> float:
        """log of the kernel exp(lam*s)*M(s); negative means stable."""
        return self.cfg.arrival_rate * s + self.log_m(s)


def _log_bracket(table: MellinTable, s: float, target_delay: float) -> float:
    log_k = table.log_stability(s)
    if log_k >= 0.0:
        return math.inf
    return target_delay * table.log_m(s) - math.log1p(-math.exp(log_k))


def dvp_bound(
    cfg: SncConfig,
    user: User,
    target_delay: float,
    table: MellinTable | None = None,
) -> DvpBound:
    """Infimum of the delay-bound bracket over the exponent search range.

    Coarse log-spaced scan followed by golden-section refinement; clamps
    the result to [0, 1] (a bound above one is vacuous but still valid).
    Integer target delays match the slotted queue; fractional values
    interpolate the same expression.
    """
    if target_delay < 0:
        raise ValueError("target delay must be nonnegative")
    if table is None:
        table = MellinTable(cfg, user)
    grid = np.geomspace(cfg.s_min, cfg.s_max, _COARSE_POINTS)
    vals = np.array([_log_bracket(table, s, target_delay) for s in grid])
    if not np.any(np.isfinite(vals)):
        return DvpBound(target_delay, 1.0, None, False, 0.0)
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    log_s = golden_section(
        lambda x: _log_bracket(table, math.exp(x), target_delay),
        math.log(lo),
        math.log(hi),
        atol=_S_TOL,
    )
    s_star = math.exp(log_s)
    log_b = _log_bracket(table, s_star, target_delay)
    best = min(log_b, float(vals[k]))
    if not math.isfinite(best):
        return DvpBound(target_delay, 1.0, None, False, 0.0)
    log_bound = min(best, 0.0)
    return DvpBound(target_delay, math.exp(log_bound), s_star, True, log_bound)


def dvp_curve(cfg: SncConfig, user: User, target_delays) -> list[DvpBound]:
    """Delay sweep sharing one Mellin cache across all target delays."""
    table = MellinTable(cfg, user)
    return [dvp_bound(cfg, user, float(d), table) for d in target_delays]


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
