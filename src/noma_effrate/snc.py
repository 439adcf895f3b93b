"""Delay-violation-probability bounds via service-process Mellin transforms.

With N symbols per slot a user with SINR gamma serves N*log2(1+gamma) bits
per slot.  For a constant arrival rate of ``lam`` bits per slot, the queue's
delay tail obeys

    Pr(delay > d) <= inf_{S>0}  M(S)^d / (1 - exp(lam*S) * M(S))

where M(S) = E[(1+gamma)^(-N*S/ln 2)] is the Mellin transform of the service
process at 1-S, and S is stable where exp(lam*S)*M(S) stays below one.  The
log of the bracket is convex in S, so ``dvp_curve`` solves for the point where
its derivative vanishes, below the stability edge it finds first.  All kernels
are evaluated in log space: the exponent N*S/ln 2 reaches 2^42 in that search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ParameterError
from .effrate import LN2, NomaSystem, Route, User, _check_user, log1p_sinr, log_moment
from .specfun import laguerre_log_expectation  # noqa: F401  (unused: perfbench/spans.py patches this name)

_OCTAVES = 2.0 ** np.arange(-30, 43, 3)  # exponents varpi of the stability scan, 8 apart
_COARSE_POINTS = 200  # log-spaced scan of [s_hi * 2^-26, s_hi] that brackets each minimiser
_DELAY_BLOCK = 1024  # delays per block: of the scan's delays x _COARSE_POINTS brackets, and of a search
_MAX_ROUNDS = 64  # a safety cap on a search's rounds: 4 settle the benchmark's and tests' curves
_STEP_RTOL = 1e-9  # a delay's search stops once its next step, or its bracket, is below this share of s


@dataclass(frozen=True)
class SncConfig:
    """System plus queueing parameters for the delay bound."""

    system: NomaSystem
    symbols_per_slot: int
    arrival_rate: float  # bits per slot

    def __post_init__(self):
        if self.symbols_per_slot < 1:
            raise ParameterError("symbols_per_slot",
                                 f"must be a positive integer, got {self.symbols_per_slot}")
        if not 0 < self.arrival_rate < math.inf:
            raise ParameterError("arrival_rate", f"must be positive and finite, got {self.arrival_rate}")

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


def _log_mellin(cfg: SncConfig, user: User, s, tilted=False, route: Route = "quadrature"):
    """``log_moment`` at w = varpi(s) for an array of s: (log M(s), relative error), or where
    ``tilted``, of E[k e^(-varpi k)], k = ln(1 + SINR): d log M/ds = -(N/ln 2) E[k e^(-varpi k)] / M."""
    law, k, params, _ = log1p_sinr(cfg.system, user)
    return log_moment(law, k, cfg.varpi(s), params, route, tilted)


def _mellin(cfg: SncConfig, user: User, s: float, strategy: Route) -> MellinValue:
    if not 0 < s < math.inf:
        raise ParameterError("s", f"must be positive and finite, got {s}")
    log_m, err = _log_mellin(cfg, user, s, route=strategy)
    return MellinValue(math.exp(log_m), log_m, s, cfg.varpi(s), strategy, err)


# mellin_strong, mellin_weak and MellinValue stay public: perfbench/checks.py calls them
def mellin_strong(cfg: SncConfig, s: float, strategy: Route = "quadrature") -> MellinValue:
    """E[(1 + a_s*rho*g_s)^-varpi] with varpi = N*s/ln 2."""
    return _mellin(cfg, "strong", s, strategy)


def mellin_weak(cfg: SncConfig, s: float, strategy: Route = "quadrature") -> MellinValue:
    """E[(1 + a_w*rho*g_min/(a_s*rho*g_min + 1))^-varpi].

    The quadrature strategy is authoritative; the Fox-H closed form is the
    cross-validation route (agreement to the contour's 1e-8 relative
    tolerance in tests, for s up to 0.1 on the reference systems).
    """
    return _mellin(cfg, "weak", s, strategy)


def _log_brackets(cfg: SncConfig, s, log_m, d):
    """log[M(s)^d / (1 - exp(lam*s)*M(s))] from log M(s), against d; inf where unstable.
    -expm1, not 1 - exp: exp(h) rounds to 1 once |h| is below about 1e-16."""
    h = cfg.arrival_rate * s + log_m
    with np.errstate(divide="ignore", invalid="ignore"):
        return d * log_m - np.where(h < 0.0, np.log(-np.expm1(np.minimum(h, 0.0))), -np.inf)


def _minimise(cfg: SncConfig, user: User, grid, log_m, d, k, best):
    """(exponent, log bracket) of the minimum of f_d per delay d, at most ``best`` at the
    scan's best grid point k.  With L = log M and h = lam*s + L, f_d' = d*L' + h'e^h/(1 -
    e^h) vanishes with G_d = h + log1p(h'/(-d*L')) (h' at d = 0), which has the sign of
    f_d' where s is stable, is positive beyond the edge, where f_d' is not finite, and is
    nearly linear near its root.  The root in log s between grid points k - 1 and k + 1
    comes from inverse quadratic interpolation through the three, then secant steps
    through the last two points, bisecting where a step leaves the bracket; without a
    root the minimum is the grid point, at an end of the range."""
    def stationarity(s, lm, log_km, d):
        slope = -cfg.symbols_per_slot / LN2 * np.exp(log_km - lm)  # L' = d log M/ds
        dh = cfg.arrival_rate + slope
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(d > 0, cfg.arrival_rate * s + lm + np.log1p(dh / (-d * slope)), dh)
        return np.where(np.isnan(g), -np.inf, g)  # nan where h' <= d*L' < 0, so f_d' < 0

    ends = np.stack([np.maximum(k - 1, 0), k, np.minimum(k + 1, grid.size - 1)])
    at, log_km = sorted(set(ends.ravel().tolist())), np.zeros(grid.size)
    log_km[at] = _log_mellin(cfg, user, grid[at], tilted=True)[0]
    xa, xk, xb = np.log(grid[ends])  # the search runs in log s, as the scan does
    ga, gk, gb = (stationarity(grid[e], log_m[e], log_km[e], d) for e in ends)
    with np.errstate(divide="ignore", invalid="ignore"):  # nan where two grid points coincide
        first = (xa * gk * gb / ((ga - gk) * (ga - gb)) + xk * ga * gb / ((gk - ga) * (gk - gb))
                 + xb * ga * gk / ((gb - ga) * (gb - gk)))
    lo, hi = np.where(gk < 0, xk, xa), np.where(gk < 0, xb, xk)  # the half holding the root
    x0, g0, x1, g1 = xa.copy(), ga, xk.copy(), gk
    open_, best_s = (ga < 0) & (gb > 0), grid[k]
    for r in range(_MAX_ROUNDS):
        i = np.flatnonzero(open_)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = first[i] if r == 0 else x1[i] - g1[i] * (x1[i] - x0[i]) / (g1[i] - g0[i])
        x = np.where((x > lo[i]) & (x < hi[i]) & np.isfinite(g0[i]), x, 0.5 * (lo[i] + hi[i]))
        open_[i] = (np.abs(x - x1[i]) > _STEP_RTOL) & (hi[i] - lo[i] > _STEP_RTOL)
        i, x = i[open_[i]], x[open_[i]]
        if not i.size:
            break
        s = np.exp(x)
        points, index = np.unique(s, return_inverse=True)  # one column per distinct exponent
        lm, log_km = _log_mellin(cfg, user, points, [[False], [True]])[0].reshape(2, -1)[:, index]
        log_b, g = _log_brackets(cfg, s, lm, d[i]), stationarity(s, lm, log_km, d[i])
        better = log_b < best[i]
        best_s[i], best[i] = np.where(better, s, best_s[i]), np.where(better, log_b, best[i])
        lo[i], hi[i] = np.where(g < 0, x, lo[i]), np.where(g < 0, hi[i], x)
        x0[i], g0[i], x1[i], g1[i] = x1[i], g1[i], x, g
    return best_s, best


def dvp_curve(cfg: SncConfig, user: User, target_delays) -> list[DvpBound]:
    """Infimum of the delay-bound bracket f_d(s) over s > 0, per delay d.

    Every minimiser lies below the stability edge, the root of lam*s + log M(s).  One
    engine call at varpi = 2^-30, 2^-27, ..., 2^42 finds s_hi, the first exponent past
    the last stable one (with none, every delay is infeasible), and a log-spaced scan of
    [s_hi * 2^-26, s_hi] (one call) brackets each minimiser of the convex f_d.  Per block
    of delays, ``_minimise`` takes the tilted means at the brackets' grid points (one
    call), then rounds of log M with tilted mean (one call each).  The least bracket seen
    is the bound, clamped to [0, 1] (one above 1 is vacuous but valid).  Integer delays
    match the slotted queue; fractional ones interpolate the same expression.  rho*omega_s^2 is
    at most 1e60 (600 dB): from 610-660 dB the gain quadrature fails at the scan's largest exponents."""
    _check_user(user)
    snr = cfg.system.rho * cfg.system.pair.strong.omega**2
    if not snr <= 1e60:
        raise ParameterError("rho", f"the delay bound needs a mean SNR scale rho*omega_s^2 of at most "
                             f"1e60 (600 dB), got {snr:.3g}")
    delays = np.array([float(d) for d in target_delays])
    ok = (0 <= delays) & (delays < np.inf)
    if not ok.all():
        raise ParameterError("target_delays", f"must be finite and nonnegative, got {delays[~ok][0]}")
    s = _OCTAVES * LN2 / cfg.symbols_per_slot
    with np.errstate(over="ignore"):  # lam*s overflows only where it is unstable anyway
        stable = np.flatnonzero(cfg.arrival_rate * s + _log_mellin(cfg, user, s)[0] < 0.0)
    if not stable.size:
        return [DvpBound(t, 1.0, None, False, 0.0) for t in delays.tolist()]
    s_hi = s[min(stable[-1] + 1, s.size - 1)]  # the last exponent if all are stable
    grid = np.geomspace(s_hi * 2.0**-26, s_hi, _COARSE_POINTS)
    log_m = _log_mellin(cfg, user, grid)[0]
    out = []
    for i in range(0, delays.size, _DELAY_BLOCK):
        d = delays[i : i + _DELAY_BLOCK]
        vals = _log_brackets(cfg, grid, log_m, d[:, None])
        k, best = vals.argmin(axis=1), vals.min(axis=1)
        best_s, live = grid[k], np.isfinite(best)  # the delays with a stable exponent
        if live.any():
            best_s[live], best[live] = _minimise(cfg, user, grid, log_m, d[live], k[live], best[live])
        log_b = np.minimum(best, 0.0).tolist()
        out += [DvpBound(t, math.exp(lb), s, True, lb) if ok else DvpBound(t, 1.0, None, False, 0.0)
                for t, s, lb, ok in zip(d.tolist(), best_s.tolist(), log_b, live.tolist())]
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
