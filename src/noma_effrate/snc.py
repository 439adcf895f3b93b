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


def _mellin(
    cfg: SncConfig, user: User, s: float, strategy: Route, contour: ContourConfig
) -> MellinValue:
    if not s > 0:
        raise ValueError("s must be positive")
    w = cfg.varpi(s)
    if strategy == "quadrature":
        log_m, err = _log_mellin(cfg, user, s)
    elif strategy == "closed-form":
        law, _, params, _ = log1p_sinr(cfg.system, user)
        log_m, err = math.log(closed_form(law, params, w, contour)), contour.rtol
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
    cross-validation route (agreement to the contour's 1e-8 relative
    tolerance in tests, for s up to 0.03 on the reference systems).
    """
    return _mellin(cfg, "weak", s, strategy, contour)


class MellinTable:
    """Memoized log-Mellin evaluator for one (config, user) pair.

    Every call evaluates all the exponents it has not seen in one engine
    call, so the coarse scan of a delay curve costs one call, and so does
    each lockstep round of its golden sections.
    """

    def __init__(self, cfg: SncConfig, user: User):
        _check_user(user)
        self.cfg = cfg
        self.user = user
        self._cache: dict[float, tuple[float, float]] = {}

    def terms(self, s):
        """(log M(s), log(1 - exp(lam*s)*M(s))) at every exponent of ``s``,
        the second -inf where the stability kernel exp(lam*s)*M(s) >= 1."""
        points = np.ravel(s).tolist()
        missing = list(dict.fromkeys(x for x in points if x not in self._cache))
        if missing:
            log_ms = _log_mellin(self.cfg, self.user, np.array(missing))[0].tolist()
            for x, log_m in zip(missing, log_ms):
                log_k = self.cfg.arrival_rate * x + log_m
                tail = -math.inf if log_k >= 0.0 else math.log1p(-math.exp(log_k))
                self._cache[x] = (log_m, tail)
        log_m, tail = np.array([self._cache[x] for x in points]).reshape(-1, 2).T
        return log_m.reshape(np.shape(s)), tail.reshape(np.shape(s))


def _log_brackets(table: MellinTable, s, target_delays):
    """log[M(s)^d / (1 - exp(lam*s)*M(s))], broadcast over s and d; inf where unstable."""
    log_m, tail = table.terms(s)
    return target_delays * log_m - tail


def dvp_curve(cfg: SncConfig, user: User, target_delays) -> list[DvpBound]:
    """Infimum of the delay-bound bracket over the exponent search range, per delay.

    Coarse log-spaced scan followed by golden-section refinement; clamps
    the result to [0, 1] (a bound above one is vacuous but still valid).
    Integer target delays match the slotted queue; fractional values
    interpolate the same expression.  The scan is one batch of Mellin
    transforms, and the delays' golden sections run in lockstep, one batch
    per round, with the same points and bits as one search at a time.
    """
    delays = np.array([float(d) for d in target_delays])
    if np.any(delays < 0):
        raise ValueError("target delay must be nonnegative")
    table = MellinTable(cfg, user)
    grid = np.geomspace(cfg.s_min, cfg.s_max, _COARSE_POINTS)
    vals = _log_brackets(table, grid, delays[:, None])
    best_k = np.argmin(vals, axis=1)
    searches = {}
    for i, k in enumerate(best_k):
        if np.any(np.isfinite(vals[i])):
            lo = grid[max(k - 1, 0)]
            hi = grid[min(k + 1, len(grid) - 1)]
            searches[i] = golden_section(math.log(lo), math.log(hi), atol=_S_TOL)
    points = {i: next(search) for i, search in searches.items()}
    log_s = {}
    while points:
        live = list(points)
        f = _log_brackets(table, [math.exp(points[i]) for i in live], delays[live])
        points = {}
        for i, fi in zip(live, f.tolist()):
            try:
                points[i] = searches[i].send(fi)
            except StopIteration as done:
                log_s[i] = done.value
    s_star = {i: math.exp(x) for i, x in log_s.items()}
    log_b = _log_brackets(table, list(s_star.values()), delays[list(s_star)])
    out = [DvpBound(d, 1.0, None, False, 0.0) for d in delays.tolist()]
    for (i, s), lb in zip(s_star.items(), log_b.tolist()):
        best = min(lb, float(vals[i, best_k[i]]))
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
