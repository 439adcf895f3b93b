"""Special-function kernels: Mellin-Barnes contour quadrature and
Gauss quadrature against the alpha-mu gain law.

Two independent evaluation routes are provided for every expectation the
library needs:

* ``laguerre_log_expectation`` integrates directly against the gain law in
  its envelope variable, where an alpha-mu gain and the minimum gain of a
  pair (its finite alpha-mu mixture, summed into one density) both have a
  Gamma-type density, with one adaptive Gauss-Legendre engine in log space;
  ``laguerre_expectation`` is its linear view (the names, from an earlier
  Gauss-Laguerre rule, stay because the benchmark's layer spans patch them);
* ``meijer_g`` / ``fox_h2`` evaluate the analytic closed forms as
  Mellin-Barnes contour integrals (single and double contour), on the
  module's own complex log-gamma (``loggamma``, a shifted Stirling series
  in numpy), so no route needs scipy.

Keeping both routes genuinely independent is the point: the closed forms
are cross-validated against quadrature rather than trusted.

The double contour of ``fox_h2`` is evaluated separably (see
``_fox_double_integral``).  Every engine refines through ``refine`` and
raises ConvergenceError instead of returning an unconverged value; the
contour rules evaluate only the nodes each level adds (``_nested``), from
``_NODES`` per line up to ``_MAX_NODES`` until two estimates agree to
``CONTOUR_RTOL``.  All integrands are computed in log space and rescaled by
the maximum exponent before summation, so Gamma factors with arguments into
the hundreds and kernels such as (1 + SINR)^-w with w in the thousands
neither overflow nor underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import channel

_LOG_CUTOFF = 46.0  # integrand tail threshold, exp(-46) ~ 1e-20 of the peak
_BLOCK = 1 << 16  # entries per block of the Fox-H Hankel row sums
# Fox-H double contour's v-line node budget: 4x the 4097 that its slowest converging
# case needs (power 0.05), so a rule that cannot converge raises within seconds
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
    """Contour-quadrature result in both linear and log form."""

    value: float
    log_abs: float
    sign: float
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

    Evaluates the double Mellin-Barnes integral

        (1/2*pi*i)^2 * Int Int Gamma(c0 + r*(s+t))
                       * Gamma(x+s)Gamma(-s) * Gamma(t-x)Gamma(-t)
                       * z1^s z2^t ds dt

    i.e. an outer merging block (1-c0; r, r) with no lower companion, and
    two variable blocks ((1-x,1);(0,1)) and ((1+x,1);(0,1)).  In the
    compressed index notation for the extended bivariate H-function this
    is upper index vector (0,1 : 1,1 : 1,1) -- no outer lower factor, one
    outer upper factor, one numerator top/bottom pair per variable -- and
    lower index vector (1,0 : 1,1 : 1,1) for the block sizes.

    The second variable block carries a positive binomial power, so its
    pole families interleave and the defining contour is the analytic
    continuation: a straight line plus explicit residue corrections for
    the poles of Gamma(t-x) lying right of it.
    """

    outer_c: float  # c0
    outer_r: float  # r, the s/t coefficient in the outer Gamma
    power: float    # x, the binomial exponent of the variable blocks

    def __post_init__(self):
        if not self.outer_c > 0:
            raise ValueError("outer constant must be positive")
        if not self.outer_r > 0:
            raise ValueError("outer coefficient must be positive")
        if self.power <= 0:
            raise ValueError("binomial power must be positive")
        if abs(self.power - round(self.power)) < 1e-9:
            raise ContourError(
                f"integer binomial power {self.power:g} collides with the residue lattice"
            )


# ---------------------------------------------------------------------------
# refinement and line-search drivers shared by every engine


def refine(estimate, n, limit, rtol, what, grow=lambda n: 2 * n - 1, width=None):
    """Refine a rule until two successive estimates agree to ``rtol`` relative.

    ``estimate(n)`` evaluates the rule at size ``n``; the size starts at
    ``n`` and grows by ``grow`` while it stays within ``limit``.  Returns
    (last estimate, relative change of the last step); raises
    ConvergenceError carrying the last two estimates when the budget runs
    out first.

    A rule with ``width`` columns refines each column on its own:
    ``estimate(n, cols)`` returns the estimates of the columns ``cols`` (an
    index array, or a full slice while every column is open) that have not
    agreed yet, every column stops at its first agreement, and the result
    is a pair of lists.  When the budget runs out the error carries the
    first open column's estimates.
    """
    if width is None:
        last, err = refine(lambda n, cols: [estimate(n)], n, limit, rtol, what, grow, 1)
        return last[0], err[0]
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
        if grow(n) > limit:
            raise ConvergenceError(
                f"{what} did not reach relative tolerance {rtol:g} by size {n}",
                estimates=(prev[open_[0]], last[open_[0]]),
            )
        n = grow(n)


def golden_section(a, b, atol, rtol=0.0):
    """Golden-section search for the minimum of a unimodal f on [a, b].

    A generator: it yields each point x, is sent f(x) back, and returns the
    midpoint of the final bracket, so a caller can run many searches in
    lockstep (``golden_minimize`` drives one).  The search stops once the
    bracket is no wider than max(atol, rtol*|a|), or after 60 steps (a
    1e-12 shrink).
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1 = yield x1
    f2 = yield x2
    for _ in range(60):
        if b - a <= max(atol, rtol * abs(a)):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = yield x1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = yield x2
    return 0.5 * (a + b)


def golden_minimize(f, a, b, atol, rtol=0.0):
    """Minimize a unimodal f on [a, b]: ``golden_section`` driven by f."""
    search = golden_section(a, b, atol, rtol)
    x = next(search)
    try:
        while True:
            x = search.send(f(x))
    except StopIteration as done:
        return done.value


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


def _log_integrand_1d(terms, log_z, s):
    """Sum of signed log-gammas plus s*log(z) over a complex array s, in one loggamma call."""
    a0, b0, sg = (np.array(col, dtype=float)[:, None] for col in zip(*terms))
    return s * log_z + (sg * loggamma(a0 + b0 * s)).sum(axis=0)


def _real_log_integrand(terms, log_z, c):
    """ln|integrand| at a real s = c, with ln|Gamma| from math.lgamma.

    A pole of a denominator Gamma (where math.lgamma raises) gives -inf: the
    integrand vanishes there.
    """
    acc = c * log_z
    for a0, b0, sg in terms:
        try:
            acc += sg * math.lgamma(a0 + b0 * c)
        except ValueError:
            acc += sg * math.inf
    return acc


def _first_drop(values, n, drop, peak=None):
    """Per row of ``values(idx)`` (the rows at grid indices ``idx``: one index row for
    all, or one each), the first index after the row's first maximum that is ``drop``
    below max(peak, maximum), or n, and that max.  It reads every 8th point and the
    last, the 15 around the coarse maximum and the 8 up to the first coarse point under
    the threshold: the full scan's index whenever the first maximum lies within 7
    points of the coarse one and the row does not climb back to the threshold once
    under it, as when it rises strictly to its maximum and does not rise after it."""
    coarse = np.append(np.arange(0, n - 1, 8), n - 1)
    lc = values(coarse[None])
    start = np.minimum(np.maximum(coarse[np.argmax(lc, axis=1)] - 7, 0), n - 15)
    win, rows = start[:, None] + np.arange(15), np.arange(lc.shape[0])
    lw = values(win)
    at = np.argmax(lw, axis=1)
    top, first = lw[rows, at], win[rows, at]
    top = top if peak is None else np.where(top > peak, top, peak)  # Python's max(peak, top)
    under = (lc < (top - drop)[:, None]) & (coarse > first[:, None])
    fine = np.maximum(coarse[np.argmax(under, axis=1), None] + np.arange(-7, 1), 0)
    fine_under = (values(fine) < (top - drop)[:, None]) & (fine > first[:, None])
    return np.where(under.any(axis=1), fine[rows, np.argmax(fine_under, axis=1)], n), top


def _find_height(logf):
    """Truncation height: the first point past the log-integrand's peak that is _LOG_CUTOFF
    below it, on 513 points of [0, 64] or up to 12 range-doubling extensions; ``_first_drop``
    finds the full scan's point when the integrand rises strictly to one peak, not after."""
    t, peak = np.linspace(0.0, 64.0, 513), None
    for _ in range(13):
        i, peak = _first_drop(lambda idx: logf(t[idx.ravel()])[None], t.size, _LOG_CUTOFF, peak)
        if i[0] < t.size:
            return t[i[0]]
        t = t[-1] + np.linspace(0.0, t[-1], 513)[1:]
    raise ContourError("contour integrand does not decay")


def _saddle_offset(terms, log_z, left, right):
    """Contour offset minimizing the on-axis integrand magnitude.

    The vertical-line peak sits on the real axis, so placing the line at
    the magnitude minimum (the saddle) avoids the cancellation that a
    fixed offset suffers when the result is exponentially smaller than
    the integrand.  The search stays a safe margin inside (left, right);
    an unbounded side (no pole family) is scanned geometrically.
    """
    g = partial(_real_log_integrand, terms, log_z)
    margin = 0.05 * min(1.0, (right - left) if math.isfinite(left) and math.isfinite(right) else 1.0)
    lo = left + margin if math.isfinite(left) else None
    hi = right - margin if math.isfinite(right) else None
    if lo is None and hi is None:
        cand = np.linspace(-64.0, 64.0, 257)
    elif lo is None:
        cand = hi - np.geomspace(1e-3, 1 << 20, 513)
    elif hi is None:
        cand = lo + np.geomspace(1e-3, 1 << 20, 513)
    else:
        cand = np.linspace(lo, hi, 129)
    vals = np.array([g(c) for c in cand.tolist()])
    c0 = float(cand[np.argmin(vals)])
    # golden-section refinement around the best grid point
    step = np.diff(cand).max()
    a, b = c0 - step, c0 + step
    if lo is not None:
        a = max(a, lo)
    if hi is not None:
        b = min(b, hi)
    return golden_minimize(g, a, b, atol=1e-10, rtol=1e-10)


def _nested(log_f, origin):
    """``log_f`` at the nodes origin + i*h*k, k = lo..hi, as a function of (h, lo, hi).

    Under the 2n-1 growth of ``refine`` each level halves the step, so the
    previous level's nodes are the even k of the next one (k*2h and 2k*h
    are the same float): their values are reused and only the new nodes
    are evaluated.
    """
    last = (math.nan, 0, np.empty(0))  # the previous level's step, first k and values

    def values(h, lo, hi):
        nonlocal last
        out = np.empty(hi - lo + 1, dtype=complex)
        even, odd = lo + lo % 2, lo + 1 - lo % 2  # the first even and odd k
        last_h, last_lo, last_values = last
        if last_h == 2.0 * h and last_lo <= even // 2 <= hi // 2 < last_lo + last_values.size:
            out[even - lo :: 2] = last_values[even // 2 - last_lo : hi // 2 - last_lo + 1]
            out[odd - lo :: 2] = log_f(origin + 1j * h * np.arange(odd, hi + 1, 2))
        else:
            out[:] = log_f(origin + 1j * h * np.arange(lo, hi + 1))
        last = (h, lo, out)
        return out

    return values


def _trapezoid_line(terms, log_z, offset):
    """(1/2*pi*i) * integral over Re(s)=offset, exploiting conjugate symmetry.

    Returns a QuadValue.  The integrand must be conjugate-symmetric, i.e.
    all gamma parameters and z real (z > 0).
    """
    log_f = partial(_log_integrand_1d, terms, log_z)
    height = _find_height(lambda t: log_f(offset + 1j * t).real)
    nodes = _nested(log_f, offset)
    scale = None

    def estimate(n):
        nonlocal scale
        h = height / (n - 1)
        la = nodes(h, 0, n - 1)
        if scale is None:
            scale = la.real.max()
        return np.trapezoid(np.exp(la - scale).real, dx=h) / math.pi

    total, err = refine(estimate, _NODES, _MAX_NODES, CONTOUR_RTOL, "line quadrature")
    sign = math.copysign(1.0, total) if total != 0 else 1.0
    log_abs = scale + math.log(max(abs(total), 1e-300))
    value = sign * math.exp(log_abs) if log_abs < 700 else math.inf * sign
    return QuadValue(value, log_abs, sign, err)


# ---------------------------------------------------------------------------
# Meijer G


def _meijer_terms(spec: MeijerGSpec):
    terms = []
    for l, b in enumerate(spec.b):
        terms.append((b, -1.0, 1) if l < spec.m else (1.0 - b, 1.0, -1))
    for l, a in enumerate(spec.a):
        terms.append((1.0 - a, 1.0, 1) if l < spec.n else (a, -1.0, -1))
    return terms


def _meijer_gap(spec: MeijerGSpec) -> tuple[float, float]:
    left = max((a - 1.0 for a in spec.a[: spec.n]), default=-math.inf)
    right = min(spec.b[: spec.m], default=math.inf)
    if left >= right:
        raise ContourError(
            f"pole families interleave: gap ({left}, {right}) is empty"
        )
    return left, right


def meijer_g(spec: MeijerGSpec, z: float) -> QuadValue:
    """Evaluate a Meijer G-function at z > 0 by contour quadrature."""
    if not z > 0:
        raise ValueError("argument must be positive")
    delta = spec.m + spec.n - 0.5 * (spec.p + spec.q)
    if delta <= 0:
        raise ContourError("vertical contour integral does not converge (m+n <= (p+q)/2)")
    terms = _meijer_terms(spec)
    log_z = math.log(z)
    left, right = _meijer_gap(spec)
    offset = _saddle_offset(terms, log_z, left, right)
    return _trapezoid_line(terms, log_z, offset)


# ---------------------------------------------------------------------------
# bivariate Fox H


@lru_cache(maxsize=1024)
def _place_fox_contours(spec: FoxH2Spec):
    """Straight-line offsets (sigma, tau) maximizing the pole-free margins.

    Scores a (sigma, tau) grid in one evaluation; ties go to the first
    maximum in sigma-major order.  Returns (sigma, tau, residue count).
    """
    c0, r, x = spec.outer_c, spec.outer_r, spec.power
    sig_grid = np.linspace(-x, 0.0, 43)[1:-1] if x > 1e-3 else np.array([-x / 2])
    sigma = sig_grid[:, None]
    tau = np.linspace(-0.95, -0.05, 37)[None, :]
    m_s = np.minimum(sigma + x, -sigma)
    # distance to the residue lattice {x-k} and to {0,1,...}
    m_t = np.minimum(np.abs((x - tau) - np.round(x - tau)), -tau)
    n_res = np.ceil(x - tau)  # at least 1: x > 0 > tau
    # outer gamma argument on both the double integral and shifted lines
    m_outer = (c0 + r * (sigma + tau)) / r
    m_shift = (c0 + r * (sigma + x - (n_res - 1))) / r
    score = np.minimum(np.minimum(m_s, m_t), np.minimum(m_outer, m_shift))
    i, j = np.unravel_index(np.argmax(score), score.shape)
    if not score[i, j] > 0:
        raise ContourError("no admissible straight contour pair for the Fox-H kernel")
    return float(sig_grid[i]), float(tau[0, j]), int(n_res[0, j])


def _fox_double_integral(spec, log_z1, log_z2, sigma, tau):
    """Straight-contour part of the double Mellin-Barnes integral.

    Both lines share one trapezoid step h, each extent rounded up to whole
    steps, so with s_k = sigma + i(k-K)h and t_j = tau + ijh the integrand
    separates as exp(A_k + B_j + C_{k+j}): A and B hold the four one-variable
    Gamma factors, and the coupled Gamma(c0 + r(s+t)) is needed only on the
    lattice s + t.  Each row sum over k is then one row of a Hankel
    matrix-vector product, evaluated in blocks of at most _BLOCK entries
    (one row when a row is longer);
    every factor is rescaled by its own maximum, fixed at the first estimate.
    """
    c0, r, x = spec.outer_c, spec.outer_r, spec.power

    log_a = partial(_log_integrand_1d, [(x, 1.0, 1), (0.0, -1.0, 1)], log_z1)
    log_b = partial(_log_integrand_1d, [(-x, 1.0, 1), (0.0, -1.0, 1)], log_z2)
    log_c = partial(_log_integrand_1d, [(c0, r, 1)], 0.0)

    hu = 1.3 * _find_height(lambda u: (log_a(sigma + 1j * u) + log_c(sigma + tau + 1j * u)).real)
    hv = 1.3 * _find_height(lambda v: (log_b(tau + 1j * v) + log_c(sigma + tau + 1j * v)).real)
    # h halves from level to level and each extent grows from k to 2k-1 or 2k
    # steps, so a level's even nodes were all evaluated at the level before
    a_nodes, b_nodes = _nested(log_a, sigma), _nested(log_b, tau)
    c_nodes = _nested(log_c, sigma + tau)
    scale = None

    def estimate(n):
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
        c = np.exp(lc - scale[2])
        hankel = sliding_window_view(c, a.size)  # hankel[j, k] = c[j + k]
        rows = np.empty(kv + 1, dtype=complex)
        step = max(1, _BLOCK // a.size)
        for j0 in range(0, kv + 1, step):
            rows[j0 : j0 + step] = hankel[j0 : j0 + step] @ a
        contrib = (np.exp(lb - scale[1]) * rows).real
        # full plane = v=0 row + twice the v>0 rows, last one at half weight
        total = contrib[0] + 2.0 * contrib[1:].sum() - contrib[-1]
        return total * h * h / (4.0 * math.pi**2)

    # the u-line carries up to 2n-1 nodes, which the line node budget also bounds
    budget = min((_MAX_NODES + 1) // 2, _DOUBLE_MAX_NODES)
    total, err = refine(estimate, _NODES, budget, CONTOUR_RTOL, "double contour quadrature")
    return total * math.exp(sum(scale)), err


def fox_h2(spec: FoxH2Spec, z1: float, z2: float) -> QuadValue:
    """Evaluate the bivariate Fox-H kernel at z1, z2 > 0.

    The straight double contour (a shared-step trapezoid lattice, see
    ``_fox_double_integral``) is corrected by the residues of the
    positive-power binomial factor Gamma(t-x) at t = x-k for the poles
    lying right of the t-line; each correction is itself a single
    Mellin-Barnes integral sharing the s-contour.  The contour placement
    is cached per spec.
    """
    if not (z1 > 0 and z2 > 0):
        raise ValueError("arguments must be positive")
    c0, r, x = spec.outer_c, spec.outer_r, spec.power
    sigma, tau, n_res = _place_fox_contours(spec)

    log_z1 = math.log(z1)
    log_z2 = math.log(z2)
    total, err = _fox_double_integral(spec, log_z1, log_z2, sigma, tau)
    err_abs = abs(total) * err

    for k in range(n_res):
        coeff = (-1.0) ** k / math.factorial(k) * math.gamma(k - x) * z2 ** (x - k)
        terms = [(c0 + r * (x - k), r, 1), (x, 1.0, 1), (0.0, -1.0, 1)]
        line = _trapezoid_line(terms, log_z1, sigma)
        total += coeff * line.value
        err_abs += abs(coeff * line.value) * line.error

    denom = max(abs(total), 1e-300)
    sign = math.copysign(1.0, total) if total != 0 else 1.0
    return QuadValue(total, math.log(denom), sign, err_abs / denom)


# ---------------------------------------------------------------------------
# Gauss quadrature expectations against the alpha-mu gain law
#
# The exact substitution y = mu * g^(alpha/2) / omega^alpha maps the gain
# law to the unit Gamma(mu) weight, and r = y^(1/alpha) to the envelope
# variable, where the integrand r^(alpha*mu-1) exp(-r^alpha) kernel(gscale * r^2)
# is analytic for every alpha (in y it has a y^(2/alpha) branch point at the
# origin for alpha >= 3).  The minimum-gain mixture's components (shapes mu+k)
# share one gscale, so a pair's law is one such density too (``_Envelope``).
# One rule serves every gain law: Gauss-Legendre in r on the support truncated
# where an envelope scan (``_first_drop``, about 280 of 2048 points) finds the
# integrand negligible, its order doubling from _START_ORDER up to _MAX_ORDER.

_START_ORDER = 32
_MAX_ORDER = 8192  # Gauss-Legendre order budget
_RTOL = 1e-9  # relative agreement of two successive Gauss estimates
_COLUMNS = 64  # columns per engine pass; bounds the columns x order arrays of a rule


@lru_cache(maxsize=None)
def _legendre_table(order: int):
    """Gauss-Legendre nodes and log-weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), np.log(0.5 * w)


@dataclass(frozen=True)
class _Envelope:
    """A gain law as g = gscale * r^2, r having the density alpha / Gamma(mu) r^(alpha*mu-1)
    exp(-r^alpha) P(r^alpha): P = 1, or ``poly``, whose coefficients are positive."""

    alpha: int
    mu: int
    gscale: float
    poly: tuple[float, ...] = ()  # highest power first

    def log_density(self, r):
        """ln of the density at r."""
        y = r**self.alpha
        out = (self.alpha * self.mu - 1.0) * np.log(r) - y
        out += math.log(self.alpha) - math.lgamma(self.mu)
        if self.poly:
            out += np.log(np.polyval(self.poly, y))
        return out

    @cached_property
    def grid(self):
        """The envelope scan's radii r, log densities and gains gscale*r^2."""
        r = np.geomspace(1e-4, 80.0 ** (1.0 / self.alpha), 2048)
        return r, self.log_density(r), self.gscale * r**2


@lru_cache(maxsize=64)
def _envelope(target) -> _Envelope:
    """The envelope of an alpha-mu gain or of a pair's minimum gain, where the
    component of weight w and shape mu+k adds w Gamma(mu) / Gamma(mu+k) y^k to P."""
    al, mu = target.alpha, target.mu
    if isinstance(target, channel.AlphaMuChannel):
        return _Envelope(al, mu, (target.omega**al / mu) ** (2.0 / al))
    mixture = channel.min_gain_mixture(target)[::-1]
    poly = tuple(w * math.exp(math.lgamma(mu) - math.lgamma(c.mu)) for w, c in mixture)
    return _Envelope(al, mu, (target.omega_tilde / mu) ** (2.0 / al), poly)


def _envelope_cutoff(target, k, c):
    """Per column, the first scan radius after the envelope-space integrand's peak
    where it is 55 below it (non-finite values count as -inf), or the last one.

    ``k(g, cols)`` is the kernel over the gains ``g``, one row or one per column.
    ``_first_drop`` reads 280 of the 2048 points, in _COLUMNS x 257 arrays at most:
    the full scan's radius for an integrand rising strictly to one peak and not after."""
    r, log_density, g = _envelope(target).grid

    def values(idx):
        li = log_density[idx] + c[:, None] * k(g[idx], slice(None))
        return np.where(np.isfinite(li), li, -np.inf)

    return r[np.minimum(_first_drop(values, r.size, 55.0)[0], r.size - 1)]


def _refine_log_sum(terms, width):
    """Per column, log sum(d exp(x)) for the log-weights ln d and exponents x of
    ``terms(n, cols)``, doubling n from _START_ORDER up to _MAX_ORDER.

    Every column's estimates are taken relative to the largest term of its
    first one, so sums spanning thousands of decades neither overflow nor
    underflow; a finer estimate that overflows is inf, which does not
    converge.  A column whose exponents all lie in [-1, 1] at the first
    order is near one: the log-sum would bury its deviation from one under
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
        total, err = refine(
            estimate, _START_ORDER, _MAX_ORDER, _RTOL, "gain expectation", lambda n: 2 * n, width
        )
    log_sum = [
        math.log1p(t) if m else a + math.log(t) for a, t, m in zip(scale.tolist(), total, near)
    ]
    # the relative error of eps, as one of the mean 1 + eps
    err = [e * abs(t) / (1.0 + t) if m else e for t, e, m in zip(total, err, near)]
    return log_sum, err


def laguerre_log_expectation(target, k, c=1.0, params=()):
    """log E[exp(c*k(g, *params))] for an alpha-mu gain or a minimum-gain pair.

    Adaptive Gauss quadrature in log space against the target's envelope
    density (``_envelope``), stable for kernels spanning many decades (the
    delay bound's Mellin exponent reaches the thousands).  The order doubles
    until two successive estimates agree to 1e-9 relative; ConvergenceError
    when the order budget runs out first.  Where every exponent c*k is at
    most 1 in magnitude the expectation is built from its deviation from one
    (see ``_refine_log_sum``), so a log expectation of 1e-9 keeps its
    relative accuracy and c = 0 gives 0.0.

    ``c`` and the kernel parameters ``params`` broadcast to a grid of
    columns, evaluated in one pass per rule order and block of _COLUMNS:
    every column follows the orders and stopping rule it would follow
    alone, to the same bits, and drops out once it has converged;
    ConvergenceError if any column exhausts the budget.  Returns (log
    expectation, relative error of the expectation), floats when ``c`` and
    every parameter are scalars and arrays over the columns otherwise.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (c, *params)))
    scalar = arrays[0].ndim == 0
    cs, *ps = (a.reshape(-1) for a in arrays)
    env = _envelope(target)
    log_e, err = [], []
    for block in range(0, cs.size, _COLUMNS):
        c = cs[block : block + _COLUMNS]
        block_ps = [p[block : block + _COLUMNS] for p in ps]

        def kernel(g, cols):
            return k(g, *(p[cols, None] for p in block_ps))

        rmax = _envelope_cutoff(target, kernel, c)

        def legendre(n, cols):
            u, log_w = _legendre_table(n)
            r = rmax[cols, None] * u  # the rule on [0, rmax] weighs by rmax
            log_d = log_w + np.log(rmax[cols, None]) + env.log_density(r)
            return log_d, c[cols, None] * kernel(env.gscale * r**2, cols)

        block_e, block_err = _refine_log_sum(legendre, c.size)
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
