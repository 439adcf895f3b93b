"""Special-function kernels: Mellin-Barnes contour quadrature and
quadrature against the alpha-mu gain law.

Two independent evaluation routes are provided for every expectation the
library needs:

* ``laguerre_log_expectation`` integrates directly against the gain law,
  where an alpha-mu gain and the minimum gain of a pair (its finite
  alpha-mu mixture, summed into one density) both have a Gamma-type
  density, with the trapezoid rule in the log-envelope ln r, behind
  ``effrate.log_moment``; its linear view ``laguerre_expectation`` serves
  tests (the Gauss-Laguerre names stay: the benchmark's spans patch them);
* ``gain_line`` / ``fox_h2`` evaluate the analytic closed forms as
  Mellin-Barnes contour integrals (single and double contour), the gain
  law's Mellin moment inside both (``_outer``), on the module's own complex
  log-gamma (``loggamma``, a shifted Stirling series in numpy), so no route
  needs scipy; ``meijer_g``, on the same line rule, is the tests' reference.

Keeping both routes genuinely independent is the point: the closed forms
are cross-validated against quadrature rather than trusted.

Every Mellin-Barnes line sits at a saddle (``_saddle_search``): a single line (gain line,
Meijer-G or Fox-H residue) at its argument's, sharing height and nodes with arguments whose saddle
is the same (``_saddle_lines``); both lines of ``fox_h2``'s separable double contour
(``_fox_double_integral``) at those of the middle argument of a run of nearby ones.  All
three engines are doubling trapezoid rules: each refines through ``refine``, evaluates
only the nodes a level adds (``_nested``) and raises ConvergenceError instead of returning
an unconverged value.  All integrands are computed in log space and rescaled by the
maximum exponent before summation, so Gamma factors with arguments into the hundreds and
kernels such as (1 + SINR)^-w with w in the thousands neither overflow nor underflow; every
rule returns a mantissa and a log scale, and ``fox_h2`` sums its parts in logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import channel

_LOG_CUTOFF = 46.0  # integrand tail threshold, exp(-46) ~ 1e-20 of the peak
_BLOCK = 1 << 16  # entries per block of the Fox-H Hankel row sums
# Fox-H double contour's v-line node budget: 4x the 4097 that power 0.05, or theta 0.17-2
# from -10 to 120 dB on 7 laws, needs at most, so a rule that cannot converge raises in seconds
_DOUBLE_MAX_NODES = 16385
# contour rules: starting trapezoid nodes, node budget, relative tolerance
_NODES = 129
_MAX_NODES = 1 << 19
CONTOUR_RTOL = 1e-8


class ContourError(RuntimeError):
    """No admissible contour: pole families cannot be separated."""


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, msg, estimates=None):
        super().__init__(msg)
        self.estimates = estimates


@dataclass(frozen=True)
class QuadValue:
    """Contour-quadrature result in both linear and log form: floats for one argument,
    arrays over the columns of a batch, whose ``error`` is the largest of the batch."""

    value: float | np.ndarray
    log_abs: float | np.ndarray
    sign: float | np.ndarray
    error: float  # estimated relative truncation error


@dataclass(frozen=True)
class MeijerGSpec:
    """Parameter block of a Meijer G-function G^{m,n}_{p,q}.

    ``a`` are the p upper parameters (first n of numerator type), ``b``
    the q lower parameters (first m of numerator type).  The integrand is

        prod_{l<m} Gamma(b_l - s) prod_{l<n} Gamma(1 - a_l + s)
        / [prod_{l>=m} Gamma(1 - b_l + s) prod_{l>=n} Gamma(a_l - s)] * z^s

    integrated over a vertical contour separating the two pole families.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    m: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if not (0 <= self.m <= len(self.b)):
            raise ValueError("m must satisfy 0 <= m <= q")
        if not (0 <= self.n <= len(self.a)):
            raise ValueError("n must satisfy 0 <= n <= p")

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class FoxH2Spec:
    """Bivariate Fox-H kernel used for the weak-user transforms.

    Evaluates the double Mellin-Barnes integral, u = s+t,

        (1/2*pi*i)^2 * Int Int Gamma(c0 + r*u) * sum_k w_k prod_{j<k} (1 + r*u/(c0+j))
                       * Gamma(x+s)Gamma(-s) * Gamma(t-x)Gamma(-t)
                       * z1^s z2^t ds dt

    i.e. sum_k w_k Gamma(c0)/Gamma(c0+k) times the extended bivariate H-function with an
    outer merging block (1-c0-k; r, r) and no lower companion, and two variable blocks
    ((1-x,1);(0,1)) and ((1+x,1);(0,1)): upper index vector (0,1 : 1,1 : 1,1) -- no outer
    lower factor, one outer upper factor, one numerator top/bottom pair per variable -- and
    lower (1,0 : 1,1 : 1,1) for the block sizes.  The default weights (1,) are one H-function.

    The second variable block carries a positive binomial power, so its
    pole families interleave and the defining contour is the analytic
    continuation: a straight line plus explicit residue corrections for
    the poles of Gamma(t-x) lying right of it: one line integral per unit
    of the power.
    """

    outer_c: float  # c0
    outer_r: float  # r, the s/t coefficient in the outer Gamma
    power: float    # x, the binomial exponent of the variable blocks
    weights: tuple[float, ...] = (1.0,)  # w_k of the outer factor's mixture sum

    def __post_init__(self):
        if not self.outer_c > 0:
            raise ValueError("outer constant must be positive")
        if not self.outer_r > 0:
            raise ValueError("outer coefficient must be positive")
        if self.power <= 0:
            raise ValueError("binomial power must be positive")
        if abs(self.power - round(self.power)) < 1e-9:
            raise ContourError(f"integer binomial power {self.power:g} collides with the residue lattice")


# ---------------------------------------------------------------------------
# the refinement loop shared by every engine


def refine(estimate, n, limit, rtol, what, width):
    """Refine a rule of ``width`` columns until each column's two successive estimates
    agree to ``rtol`` relative.

    ``estimate(n, cols)`` evaluates the rule at size ``n`` for the columns
    ``cols`` (an index array, or a full slice while every column is open)
    that have not agreed yet; the size starts at ``n`` and grows to 2n-1,
    which halves a trapezoid step, while it stays within ``limit``.  Every
    column stops at its first agreement.  Returns lists of (last estimates,
    relative changes of the last step); raises ConvergenceError carrying the
    first open column's last two estimates when the budget runs out first.
    """
    open_ = list(range(width))
    prev, last, err = [None] * width, [None] * width, [math.inf] * width
    while True:
        cols = slice(None) if len(open_) == width else np.array(open_)
        for i, x in zip(open_, estimate(n, cols)):
            if last[i] is not None:
                # a non-finite estimate compares as nan: not converged
                err[i] = abs(x - last[i]) / max(abs(x), 1e-300)
            prev[i], last[i] = last[i], x
        open_ = [i for i in open_ if not err[i] <= rtol]
        if not open_:
            return last, err
        if 2 * n - 1 > limit:
            raise ConvergenceError(
                f"{what} did not reach relative tolerance {rtol:g} by size {n}",
                estimates=(prev[open_[0]], last[open_[0]]),
            )
        n = 2 * n - 1


# ---------------------------------------------------------------------------
# single-contour engine


# B_2k / (2k (2k-1)) for k = 8 down to 1: the Stirling series in 1/z^2, in Horner order
_STIRLING = (
    -3617.0 / 122400.0, 1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0,
    -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0,
)


def _log(z):
    """Principal complex log from real parts (numpy's complex log is ten times slower)."""
    out = np.empty(z.shape, dtype=complex)
    np.log(np.abs(z), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _loggamma_right(w):
    """ln Gamma(w) for Re w >= -1/2: the Stirling series at w + 8, shifted back by
    ln(w (w+1) ... (w+7)); with |w + 8| >= 7.5 the first omitted term is below 3e-16."""
    # w (w+1) ... (w+7) = v (v + 4u + 60) with u = w (w+7), v = u (u+12)
    u = w * (w + 7.0)
    v = u * (u + 12.0)
    x = w + 8.0
    r = 1.0 / x
    r2 = r * r
    series = _STIRLING[0] * r2 + _STIRLING[1]
    for c in _STIRLING[2:]:
        series *= r2
        series += c
    series *= r
    out = (x - 0.5) * _log(x)
    out -= x
    out += series
    out -= _log(v * (v + 4.0 * u + 60.0))
    out += 0.5 * math.log(2.0 * math.pi)
    return out


def _log_sin_pi(z):
    """ln sin(pi z) modulo 2 pi i, finite for every |Im z| (sin itself overflows past 226).

    With z = n + x + iy, n = round(Re z) and y >= 0 (conjugate symmetry
    covers y < 0), sin(pi z) = (-1)^n (i/2) e^(pi y - i pi x) (1 - e^(2 pi i (x + iy))),
    and the last factor rounds to 1 once y > 7.
    """
    n = np.round(z.real)
    x, y = z.real - n, np.abs(z.imag)
    out = np.empty(z.shape, dtype=complex)
    out.real = math.pi * y - math.log(2.0)
    out.imag = math.pi * (0.5 - x + np.fmod(n, 2.0))
    near = y < 7.0
    if near.any():
        x, e = x[near], np.exp(-2.0 * math.pi * y[near])
        q = np.empty(x.shape, dtype=complex)
        q.real = 1.0 - e * np.cos(2.0 * math.pi * x)
        q.imag = -e * np.sin(2.0 * math.pi * x)
        out[near] += _log(q)
    np.negative(out.imag, out=out.imag, where=z.imag < 0)
    return out


def loggamma(z):
    """Principal-branch complex ln Gamma(z), elementwise, its imaginary part modulo 2 pi.

    The contour engines only exponentiate it, so the phase is exact up to
    whole turns.  Re z >= -1/2 takes the shifted Stirling series, which
    covers most contour nodes (Gamma arguments near the imaginary axis);
    Re z < -1/2 the reflection Gamma(z) Gamma(1-z) = pi / sin(pi z).  At a
    pole (z a nonpositive integer) the real part is +inf.  Agrees with
    scipy's loggamma to about 1e-14 relative (see tests/test_specfun.py).
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return loggamma(z[None])[0]
    refl = z.real < -0.5
    with np.errstate(divide="ignore"):  # the log of zero at a pole
        if not refl.any():
            return _loggamma_right(z)
        out = _loggamma_right(np.where(refl, 1.0 - z, z))
        out[refl] = math.log(math.pi) - _log_sin_pi(z[refl]) - out[refl]
    return out


def _log_gammas(terms):
    """s -> sum of the signed log-gammas sg*ln Gamma(a0 + b0*s) of ``terms`` over a complex
    array s of one or two dimensions, in one loggamma call; the term arrays are built once.
    At a denominator Gamma's pole the real part is -inf (the integrand vanishes) and the
    phase nan, from the zero imaginary part of sg times an infinite ln Gamma: not a warning."""
    a0, b0, sg = (np.array(col, dtype=float)[:, None, None] for col in zip(*terms))
    return np.errstate(invalid="ignore")(
        lambda s: (sg * loggamma(a0 + b0 * s)).sum(axis=0).reshape(np.shape(s))
    )


def _first_drop(values, n, drop, peak=None):
    """Per row of ``values(idx)`` (the rows at grid indices ``idx``: one index row for
    all, or one each), the first index ``drop`` below max(peak, maximum) past the row's
    first maximum and its last coarse point (every 8th, and the last) at or above that
    threshold, or n, and that max.  It reads the coarse points, the 15 around the coarse
    maximum and the 8 up to the next coarse point under the threshold: the full scan's
    index whenever the first maximum lies within 7 points of the coarse one and every
    later run at or above the threshold holds a coarse point, as when the row has one mode."""
    coarse = np.append(np.arange(0, n - 1, 8), n - 1)
    lc = values(coarse[None])
    start = np.minimum(np.maximum(coarse[np.argmax(lc, axis=1)] - 7, 0), n - 15)
    win, rows = start[:, None] + np.arange(15), np.arange(lc.shape[0])
    lw = values(win)
    at = np.argmax(lw, axis=1)
    top, first = lw[rows, at], win[rows, at]
    top = top if peak is None else np.where(top > peak, top, peak)  # Python's max(peak, top)
    cut = (top - drop)[:, None]
    under = lc < cut
    after = np.maximum(first, np.where(under, -1, coarse).max(axis=1))[:, None]
    under &= coarse > after
    fine = np.maximum(coarse[np.argmax(under, axis=1), None] + np.arange(-7, 1), 0)
    fine_under = (values(fine) < cut) & (fine > after)
    return np.where(under.any(axis=1), fine[rows, np.argmax(fine_under, axis=1)], n), top


def _find_height(logf):
    """Per row, the truncation height: the first point _LOG_CUTOFF below the log-integrand's
    peak past the peak and any later mode (``_first_drop``), on 513 points of [0, 64] or up
    to 12 range-doubling extensions.  ``logf`` maps heights, (1, k) or one row each, to
    (rows, k); a row is a contour line or a side of a gain-rule window, where a weak-user
    kernel's low-gain tail forms a second mode at a high SNR."""
    t, peak, height = np.linspace(0.0, 64.0, 513), None, np.nan
    for _ in range(13):
        i, peak = _first_drop(lambda idx: logf(t[idx]), t.size, _LOG_CUTOFF, peak)
        # a row found at an earlier range keeps its height: fmin skips nan
        height = np.fmin(height, np.where(i < t.size, t[np.minimum(i, t.size - 1)], np.nan))
        if not np.isnan(height).any():
            return height
        t = t[-1] + np.linspace(0.0, t[-1], 513)[1:]
    raise ContourError("integrand does not decay")


def _saddle_search(log_g, left, right, log_z):
    """Per entry of the array ``log_z``, the scan point minimizing the on-axis integrand magnitude.

    The vertical-line peak sits on the real axis, so placing the line at
    the magnitude minimum (the saddle) avoids the cancellation that a
    fixed offset suffers when the result is exponentially smaller than
    the integrand; the line's position does not change the integral, so a
    scan point next to the saddle serves as well.  The scan stays a safe margin
    inside (left, right); an unbounded side (no pole family) is scanned
    geometrically.  The z-free log-integrand ``log_g`` takes one call.
    """
    margin = 0.05 * min(1.0, right - left)
    lo, hi = left + margin, right - margin
    if not math.isfinite(lo):
        cand = hi - np.geomspace(1e-3, 1 << 20, 513)
    elif not math.isfinite(hi):
        cand = lo + np.geomspace(1e-3, 1 << 20, 513)
    else:
        cand = np.linspace(lo, hi, 129)
    base = log_g(cand + 0j).real
    return cand[np.argmin(base + cand * log_z[:, None], axis=1)]


def _nested(log_f, origin, unit=1j):
    """``log_f`` at the nodes origin + unit*h*k, k = lo..hi, as a function of (h, lo, hi):
    on a vertical line for the contour rules (``unit`` i), on the real axis for the
    gain rule (``unit`` 1).  ``origin`` and ``h`` are scalars, or (lines, 1) for one
    row of nodes per line.

    Under the 2n-1 growth of ``refine`` each level halves the step, so the
    previous level's nodes are the even k of the next one (k*2h and 2k*h
    are the same float): their values are reused and only the new nodes
    are evaluated.
    """
    last = (math.nan, 0, np.empty(0))  # the previous level's steps, first k and values

    def values(h, lo, hi):
        nonlocal last
        k = np.arange(lo, hi + 1)
        even, odd = lo + lo % 2, lo + 1 - lo % 2  # the first even and odd k
        last_h, last_lo, last_values = last
        covered = last_lo <= even // 2 <= hi // 2 < last_lo + last_values.shape[-1]
        if np.array_equal(last_h, 2.0 * h) and covered:
            new = log_f(origin + unit * h * k[odd - lo :: 2])
            out = np.empty(new.shape[:-1] + k.shape, dtype=new.dtype)
            out[..., even - lo :: 2] = last_values[..., even // 2 - last_lo : hi // 2 - last_lo + 1]
            out[..., odd - lo :: 2] = new
        else:
            out = log_f(origin + unit * h * k)
        last = (h, lo, out)
        return out

    return values


def _trapezoid_lines(log_g, log_z, offsets):
    """Per column of ``log_z``, (1/2*pi*i) * integral over Re(s) = its offset by conjugate
    symmetry (gamma parameters and z real): (totals, log scales, relative errors).

    On a line Re(s*ln z) = offset*ln z is constant, so the rule refines the z-free
    log-integrand ``log_g`` once per distinct offset, and each column adds its phases t*ln z.
    """
    lines, line = np.unique(offsets, return_inverse=True)  # a column's line: lines[line]
    height = _find_height(lambda t: log_g(lines[:, None] + 1j * t).real)[:, None]
    nodes = _nested(log_g, lines[:, None])
    scale = None

    def estimate(n, cols):
        nonlocal scale
        h = height / (n - 1)
        lg = nodes(h, 0, n - 1)
        if scale is None:
            scale = lg.real.max(axis=1, keepdims=True)
        at = line[cols]
        lg, t, h = (lg - scale)[at], (h * np.arange(n))[at], h[at]
        y = np.exp(lg + 1j * t * log_z[cols, None]).real
        return (np.trapezoid(y, dx=h, axis=1) / math.pi).tolist()

    total, err = refine(estimate, _NODES, _MAX_NODES, CONTOUR_RTOL, "line quadrature", width=log_z.size)
    return np.array(total), scale[line, 0] + lines[line] * log_z, np.array(err)


def _saddle_lines(log_g, left, right, log_z):
    """``_trapezoid_lines``, each column's line at its saddle in the pole gap (left, right)
    (``_saddle_search``, one call for all), one rule per block of _COLUMNS columns."""
    offsets = _saddle_search(log_g, left, right, log_z)
    blocks = [slice(b, b + _COLUMNS) for b in range(0, log_z.size, _COLUMNS)]
    parts = [_trapezoid_lines(log_g, log_z[blk], offsets[blk]) for blk in blocks]
    return (np.concatenate(p) for p in zip(*parts))


def _arguments(*zs):
    """The arguments as equal-length 1-D float arrays, and whether they are scalars."""
    zs, shape = [np.asarray(z, dtype=float) for z in zs], np.shape(zs[0])
    if len(shape) > 1 or 0 in shape or any(z.shape != shape or not np.all(z > 0) for z in zs):
        raise ValueError("arguments must be positive scalars or equal-length 1-D arrays")
    return [z.reshape(-1) for z in zs], zs[0].ndim == 0


def _quad_value(total, log_scale, err, scalar):
    """QuadValue of total*exp(log_scale), the batch's largest error; floats for a scalar."""
    sign = np.where(total < 0, -1.0, 1.0)
    log_abs = log_scale + np.log(np.maximum(np.abs(total), 1e-300))
    with np.errstate(over="ignore"):
        value = np.where(log_abs < 700, sign * np.exp(log_abs), sign * math.inf)
    fields = [float(v[0]) if scalar else v for v in (value, log_abs, sign)]
    return QuadValue(*fields, float(np.max(err, initial=0.0)))


# ---------------------------------------------------------------------------
# Meijer G


def _meijer_integrand(spec: MeijerGSpec):
    terms = []
    for l, b in enumerate(spec.b):
        terms.append((b, -1.0, 1) if l < spec.m else (1.0 - b, 1.0, -1))
    for l, a in enumerate(spec.a):
        terms.append((1.0 - a, 1.0, 1) if l < spec.n else (a, -1.0, -1))
    return _log_gammas(terms)


def _meijer_gap(spec: MeijerGSpec) -> tuple[float, float]:
    left = max((a - 1.0 for a in spec.a[: spec.n]), default=-math.inf)
    right = min(spec.b[: spec.m], default=math.inf)
    if left >= right:
        raise ContourError(f"pole families interleave: gap ({left}, {right}) is empty")
    return left, right


def meijer_g(spec: MeijerGSpec, z) -> QuadValue:
    """Evaluate a Meijer G-function at z > 0, a scalar or a 1-D array, by contour quadrature;
    each z's line sits at its own saddle (``_saddle_lines``)."""
    (z,), scalar = _arguments(z)
    delta = spec.m + spec.n - 0.5 * (spec.p + spec.q)
    if delta <= 0:
        raise ContourError("vertical contour integral does not converge (m+n <= (p+q)/2)")
    return _quad_value(*_saddle_lines(_meijer_integrand(spec), *_meijer_gap(spec), np.log(z)), scalar)


# ---------------------------------------------------------------------------
# the gain law's Mellin moment


def _outer(c0, r, weights, shift=0.0, block=()):
    """u -> ln of the outer factor Gamma(c0 + r*v) sum_k w_k prod_{j<k} (1 + r*v/(c0+j)) at
    v = shift + u, plus the log-gammas of the terms ``block`` at u; at weights (1,) one list."""
    log_g = _log_gammas([(c0 + r * shift, r, 1), *block])

    def log_f(u):  # the mixture sum by Horner's rule, last component first
        rv, total = r * (shift + u), weights[-1]
        for k in range(len(weights) - 2, -1, -1):
            total = weights[k] + total * (1.0 + rv / (c0 + k))
        return log_g(u) + _log(total)

    return log_g if weights == (1.0,) else log_f


def gain_line(c0, r, weights, block, gap, z) -> QuadValue:
    """(1/2*pi*i) * integral of the outer factor (``_outer``) times the Gamma factors ``block``
    times z^s over a line in the pole gap ``gap``, at z > 0, a scalar or a 1-D array, each z's
    line at its saddle (``_saddle_lines``).  At c0 = mu, r = 2/alpha and z = c*gscale the outer
    factor is Gamma(mu) E[g^s] / (weight gscale^s) of an alpha-mu gain or a pair's minimum gain,
    and the line Gamma(mu) E[k(c*g)] / weight for the kernel k of Mellin-Barnes integrand ``block``."""
    (z,), scalar = _arguments(z)
    return _quad_value(*_saddle_lines(_outer(c0, r, weights, 0.0, block), *gap, np.log(z)), scalar)


# ---------------------------------------------------------------------------
# bivariate Fox H


def _fox_factors(spec: FoxH2Spec):
    """``outer(shift, block)``, the spec's ``_outer``; and the terms of the blocks
    Gamma(x+s)Gamma(-s) and Gamma(t-x)Gamma(-t)."""
    x = spec.power
    outer = partial(_outer, spec.outer_c, spec.outer_r, spec.weights)
    return outer, [(x, 1.0, 1), (0.0, -1.0, 1)], [(-x, 1.0, 1), (0.0, -1.0, 1)]


def _place_fox_contours(spec: FoxH2Spec):
    """(tau, n, reach) from a scan of tau: the gap of the residue lattice {x-k} holding the
    t-line, below n = ceil(x - tau) residues of Gamma(t-x), and the s-line's window (-reach, 0),
    reach = min(x, tau + c0/r) < x - n + 1 + c0/r, where Gamma(x+s) and every outer Gamma are
    pole-free; the first tau maximizing min(its margins, reach/2), sigma's at the centre."""
    c0, r, x = spec.outer_c, spec.outer_r, spec.power
    tau = np.linspace(-0.95, -0.05, 37)
    m_t = np.minimum(np.abs((x - tau) - np.round(x - tau)), -tau)  # to {x-k} and to {0, 1, ...}
    reach = np.minimum(x, tau + c0 / r)
    j = np.argmax(np.minimum(m_t, reach / 2))
    if not min(m_t[j], reach[j]) > 0:
        raise ContourError("no admissible straight contour pair for the Fox-H kernel")
    return float(tau[j]), math.ceil(x - tau[j]), float(reach[j])  # n >= 1: x > 0 > tau


def _fox_double_integral(spec, log_z1, log_z2, sigma, tau):
    """Straight-contour part of the double Mellin-Barnes integral, per column of the 1-D
    arrays ln z1 and ln z2: (totals, log scales, relative errors) as ``_trapezoid_lines``.

    Both lines share one trapezoid step h, each extent rounded up to whole
    steps, so with s_k = sigma + i(k-K)h and t_j = tau + ijh the integrand
    separates as exp(A_k + B_j + C_{k+j}): A and B hold the four one-variable
    Gamma factors and C the coupled outer factor, needed only on the
    lattice s + t.  Each row sum over k is then one row of a Hankel
    matrix-vector product.  z1^s z2^t is z1^sigma z2^tau times phases, so the
    heights and log-gammas (each rescaled by its maximum at the first
    estimate) serve every column, and a block of _COLUMNS columns takes its
    row sums as one matrix product per block of at most _BLOCK entries.
    """
    outer, s_block, t_block = _fox_factors(spec)
    log_a, log_b, log_c = _log_gammas(s_block), _log_gammas(t_block), outer(0.0)

    hu = 1.3 * _find_height(lambda u: (log_a(sigma + 1j * u) + log_c(sigma + tau + 1j * u)).real)[0]
    hv = 1.3 * _find_height(lambda v: (log_b(tau + 1j * v) + log_c(sigma + tau + 1j * v)).real)[0]
    # h halves from level to level and each extent grows from k to 2k-1 or 2k
    # steps, so a level's even nodes were all evaluated at the level before
    a_nodes, b_nodes = _nested(log_a, sigma), _nested(log_b, tau)
    c_nodes = _nested(log_c, sigma + tau)
    scale = None

    def estimate(n, cols):
        nonlocal scale
        h = max(hu, hv) / (n - 1)
        ku, kv = math.ceil(hu / h - 1e-9), math.ceil(hv / h - 1e-9)  # whole steps
        la = a_nodes(h, -ku, ku)
        lb = b_nodes(h, 0, kv)
        lc = c_nodes(h, -ku, ku + kv)
        if scale is None:
            scale = (la.real.max(), lb.real.max(), lc.real.max())
        a = np.exp(la - scale[0])
        a[0] *= 0.5
        a[-1] *= 0.5
        b = np.exp(lb - scale[1])
        hankel = sliding_window_view(np.exp(lc - scale[2]), a.size)  # hankel[j, k] = c[j + k]
        step = max(1, _BLOCK // a.size)
        u, v = h * np.arange(-ku, ku + 1), h * np.arange(kv + 1)
        lz1, lz2, out = log_z1[cols, None], log_z2[cols, None], []
        for c in range(0, lz1.shape[0], _COLUMNS):
            a_cols = a * np.exp(1j * u * lz1[c : c + _COLUMNS])  # one row per column
            rows = np.empty((a_cols.shape[0], kv + 1), dtype=complex)
            for j0 in range(0, kv + 1, step):
                rows[:, j0 : j0 + step] = a_cols @ hankel[j0 : j0 + step].T
            contrib = (b * np.exp(1j * v * lz2[c : c + _COLUMNS]) * rows).real
            # full plane = v=0 row + twice the v>0 rows, last one at half weight
            total = contrib[:, 0] + 2.0 * contrib[:, 1:].sum(axis=1) - contrib[:, -1]
            out += (total * h * h / (4.0 * math.pi**2)).tolist()
        return out

    # the u-line carries up to 2n-1 nodes, which the line node budget also bounds
    budget = min((_MAX_NODES + 1) // 2, _DOUBLE_MAX_NODES)
    total, err = refine(estimate, _NODES, budget, CONTOUR_RTOL, "double contour quadrature",
                        width=log_z1.size)
    return np.array(total), sum(scale) + sigma * log_z1 + tau * log_z2, np.array(err)


def fox_h2(spec: FoxH2Spec, z1, z2) -> QuadValue:
    """Evaluate the bivariate Fox-H kernel at z1, z2 > 0, scalars or equal-length 1-D arrays.

    The straight double contour (a shared-step trapezoid lattice, see ``_fox_double_integral``)
    is corrected by the residues of Gamma(t-x) at t = x-k right of its t-line, each a single
    Mellin-Barnes integral whose line sits at each column's saddle in its pole gap
    (``_saddle_lines``), each residue's coefficient joining its line's log scale; the parts
    are summed in logs.  The lattice's s-line, then its t-line, sit at a run's middle
    column's saddles in their gaps (``_place_fox_contours``).  A run, the columns within
    2 ln(1e4)/reach of the batch's smallest ln z1 (counted from there), shares one lattice:
    off its own saddle a column's on-axis peak grows by at most e^(reach |d ln z1|), so a
    run costs at most about 4 digits.
    """
    (z1, z2), scalar = _arguments(z1, z2)
    c0, r, x = spec.outer_c, spec.outer_r, spec.power
    (tau, n_res, reach), (outer, s_block, t_block) = _place_fox_contours(spec), _fox_factors(spec)

    log_z1, log_z2 = np.log(z1), np.log(z2)
    runs = np.floor((log_z1 - log_z1.min()) * reach / (2.0 * math.log(1e4)))
    parts = [np.empty((3, z1.size))]  # per part: totals, log scales, relative errors
    for run in sorted(set(runs.tolist())):  # np.unique would load numpy.ma (numpy 2.4)
        cols = np.flatnonzero(runs == run)
        mid = cols[np.argsort(log_z1[cols], kind="stable")[[cols.size // 2]]]
        (sigma,) = _saddle_search(outer(tau, s_block), -reach, 0.0, log_z1[mid])
        t_gap = max(x - n_res, -c0 / r - sigma), min(x - n_res + 1.0, 0.0)
        (t,) = _saddle_search(outer(sigma, t_block), *t_gap, log_z2[mid])
        parts[0][:, cols] = _fox_double_integral(spec, log_z1[cols], log_z2[cols], sigma, t)

    # residue k: (-1)^k/k! Gamma(k-x) z2^(x-k), of sign (-1)^(floor(x)+1) at every k, times a line
    for k in range(n_res):
        a = c0 + r * (x - k)  # the outer factor at x-k+s, Gamma(x+s) Gamma(-s): no pole on (max(-a/r, -x), 0)
        line, log_scale, line_err = _saddle_lines(outer(x - k, s_block), max(-a / r, -x), 0.0, log_z1)
        log_coeff = math.lgamma(k - x) - math.lgamma(k + 1.0) + (x - k) * log_z2
        parts.append(((-1.0) ** (math.floor(x) + 1) * line, log_scale + log_coeff, line_err))
    total, log_scale, err = np.stack(parts, axis=1)
    top = log_scale.max(axis=0)
    values = total * np.exp(log_scale - top)
    total = values.sum(axis=0)
    err_abs = (np.abs(values) * err).sum(axis=0)
    return _quad_value(total, top, err_abs / np.maximum(np.abs(total), 1e-300), scalar)


# ---------------------------------------------------------------------------
# expectations against the alpha-mu gain law
#
# The exact substitution y = mu * g^(alpha/2) / omega^alpha maps the gain law
# to the unit Gamma(mu) weight, and v = ln(y) / alpha = ln r to the log-envelope,
# where g = gscale * e^(2v).  The minimum-gain mixture's components (shapes
# mu+k) share one gscale, so a pair's law is one such density too
# (``_envelope``).  One rule serves every gain law: the trapezoid rule in v.
# The log-integrand alpha*mu*v - e^(alpha*v) + c*k(g) is analytic in a strip
# about the real axis and falls off on both sides, so the rule converges
# geometrically in its step (Trefethen & Weideman, "The exponentially
# convergent trapezoidal rule", SIAM Review 2014), and a kernel's knee, near
# g = 1/c at a high SNR or a large exponent, has a fixed width in v wherever
# it sits: the node count does not grow with either.  The error about squares
# from level to level, so a column that needs several levels stops with a last
# change anywhere from about 1e-18 to the 1e-9 tolerance.  From 161 nodes the
# first comparison settles nearly every column (all of them on the benchmark's
# sweep and delay inputs), with a change far below the tolerance.

_GAIN_NODES = 161
_GAIN_MAX_NODES = 5121  # gain-rule node budget: dvp's exponents up to 2^42 take at most 1281
_RTOL = 1e-9  # relative agreement of two successive estimates
_COLUMNS = 64  # columns per engine pass; bounds the columns x nodes arrays of a rule


@lru_cache(maxsize=64)
def _envelope(target):
    """An alpha-mu gain or a pair's minimum gain as g = gscale * e^(2v), v having the
    density alpha / Gamma(mu) exp(alpha*mu*v - e^(alpha*v)) P(e^(alpha*v)): v -> (ln
    density, nan or -inf where e^(alpha*v) overflows, and g).  P = 1 for one gain; for a
    pair, the component of weight w and shape mu+k adds the positive term w Gamma(mu) /
    Gamma(mu+k) y^k to P."""
    al, mu = target.alpha, target.mu
    if isinstance(target, channel.AlphaMuChannel):
        scale, poly = target.omega**al, ()
    else:
        mixture = channel.min_gain_mixture(target)[::-1]  # highest power first
        scale = target.omega_tilde
        poly = [w * math.exp(math.lgamma(mu) - math.lgamma(c.mu)) for w, c in mixture]
    const, gscale = math.log(al) - math.lgamma(mu), (scale / mu) ** (2.0 / al)

    def density_and_gain(v):
        y = np.exp(al * v)
        out = al * mu * v - y
        out += const
        if poly:
            out += np.log(np.polyval(poly, y))
        return out, gscale * (y if al == 2 else np.exp(2.0 * v))  # alpha = 2 shares the exp

    return density_and_gain


def _refine_log_sum(terms, width):
    """Per column, log sum(d exp(x)) for the log-weights ln d and exponents x of
    ``terms(n, cols)``, refining n from _GAIN_NODES up to _GAIN_MAX_NODES.

    Every column's estimates are taken relative to the largest term of its
    first one, so sums spanning thousands of decades neither overflow nor
    underflow; a finer estimate that overflows is inf, which does not
    converge.  A column whose exponents all lie in [-1, 1] at the first
    size is near one: the log-sum would bury its deviation from one under
    the rounding of O(1) terms, so it converges on eps = sum(d expm1(x)) /
    sum(d) instead and returns log1p(eps), the log of the rule's own
    normalised mean.  Returns lists of (log sums, relative errors of the
    sums or means).
    """
    near, scale = None, None

    def estimate(n, cols):
        nonlocal near, scale
        log_d, x = terms(n, cols)
        out = log_d + x
        if scale is None:
            near, scale = np.abs(x).max(axis=1) <= 1.0, out.max(axis=1)
        out -= scale[cols, None]
        # row sums along the contiguous axis: bit for bit the 1-D sums
        out = np.exp(out, out=out).sum(axis=1)
        rows = near[cols]
        if rows.any():
            log_d = log_d[rows]
            d = np.exp(log_d - log_d.max(axis=1)[:, None])
            out[rows] = (d * np.expm1(x[rows])).sum(axis=1) / d.sum(axis=1)
        return out.tolist()

    with np.errstate(over="ignore"):
        total, err = refine(estimate, _GAIN_NODES, _GAIN_MAX_NODES, _RTOL, "gain expectation", width)
    log_sum = [
        math.log1p(t) if m else a + math.log(t) for a, t, m in zip(scale.tolist(), total, near)
    ]
    # the relative error of eps, as one of the mean 1 + eps
    err = [e * abs(t) / (1.0 + t) if m else e for t, e, m in zip(total, err, near)]
    return log_sum, err


def laguerre_log_expectation(target, k, c=1.0, params=()):
    """log E[exp(c*k(g, *params))] for an alpha-mu gain or a minimum-gain pair.

    The trapezoid rule in v = ln r against the target's density
    (``_envelope``), summed in log space, so kernels spanning many decades
    (the delay bound's Mellin exponent reaches the thousands) neither
    overflow nor underflow.  Each column's nodes span a window holding
    every point where its log-integrand lies within _LOG_CUTOFF of its
    peak, so its negligible ends take the step as weight like every other
    node.  The step halves until two successive estimates agree to 1e-9
    relative; ConvergenceError when the node budget runs out first.  Where
    every exponent c*k is at most 1 in magnitude the expectation is built
    from its deviation from one (see ``_refine_log_sum``), so a log
    expectation of 1e-9 keeps its relative accuracy and c = 0 gives 0.0.

    ``c`` and the kernel parameters ``params`` broadcast to a grid of
    columns, evaluated in one pass per step and block of _COLUMNS: every
    column follows the window, steps and stopping rule it would follow
    alone, to the same bits, and drops out once it has converged;
    ConvergenceError if any column exhausts the budget.  Returns (log
    expectation, relative error of the expectation), floats when ``c`` and
    every parameter are scalars and arrays over the columns otherwise.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (c, *params)))
    scalar = arrays[0].ndim == 0
    cs, *ps = (a.reshape(-1) for a in arrays)
    density_and_gain = _envelope(target)
    mode = math.log(target.mu) / target.alpha  # where the density with P = 1 peaks
    log_e, err = [], []
    for block in range(0, cs.size, _COLUMNS):
        c = cs[block : block + _COLUMNS, None]
        block_ps = [p[block : block + _COLUMNS, None] for p in ps]

        def log_terms(v, c=c, ps=block_ps):
            """The log density and the exponent c*k at the nodes v, stacked."""
            out = np.empty((2, *np.broadcast_shapes(v.shape, c.shape)))
            out[0], g = density_and_gain(v)
            out[1] = c * k(g, *ps)
            return out

        # the window: per column, the heights left of the mode (first rows) and right of
        # it (last rows) where the log-integrand has fallen _LOG_CUTOFF below that side's peak
        sides = np.repeat([-1.0, 1.0], c.size)[:, None]
        c2, *ps2 = (np.concatenate([a, a]) for a in (c, *block_ps))

        def log_f(t):
            with np.errstate(over="ignore", invalid="ignore"):
                li = log_terms(mode + sides * t, c2, ps2).sum(axis=0)
            return np.where(np.isfinite(li), li, -np.inf)  # non-finite values count as -inf

        height = _find_height(log_f)[:, None]
        lo, width = mode - height[: c.size], height[: c.size] + height[c.size :]
        nodes = _nested(log_terms, lo, 1.0)

        def trapezoid(n, cols):
            h = width / (n - 1)
            log_d, x = nodes(h, 0, n - 1)[:, cols]
            return np.log(h[cols]) + log_d, x

        block_e, block_err = _refine_log_sum(trapezoid, c.size)
        log_e += block_e
        err += block_err
    return (log_e[0], err[0]) if scalar else (np.array(log_e), np.array(err))


def laguerre_expectation(target, kernel, params=()):
    """E[kernel(g, *params)] for a nonnegative kernel: ``laguerre_log_expectation`` of its log."""

    def log_kernel(g, *p):
        with np.errstate(divide="ignore"):
            return np.log(kernel(g, *p))

    log_e = laguerre_log_expectation(target, log_kernel, 1.0, params)[0]
    return math.exp(log_e) if np.ndim(log_e) == 0 else np.array([math.exp(x) for x in log_e])
