"""Analytic closed forms for the rate/transform expectations.

Each function here evaluates a Mellin-Barnes representation of an expectation that the
quadrature route (specfun.laguerre_log_expectation) computes independently; the two routes
cross-validate each other in the test suite.  Every form is the gain law's Mellin moment
E[g^s] = gscale^s Gamma(mu + r*s) / Gamma(mu), r = 2/alpha, or a minimum gain's mixture of
such laws, against a kernel's Mellin transform: one line (``specfun.gain_line``) for a
single-variable kernel, one bivariate Fox-H value (``specfun.fox_h2``) per exponent for the
weak user's, the mixture inside the outer Gamma of both.  The scale parameters (c, rho, a_s)
are scalars, or equal-length 1-D arrays for a grid, evaluated as one batch per form; their
domain is a NomaSystem's (c = a_s*rho or rho), which that class checks, and the exponent w
is positive (effrate.log_moment passes tau*nu > 0 or N s/ln 2, s > 0).  The Mellin forms
return (sign, log|mean|): a mean far below the doubles keeps its log.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel
from .channel import AlphaMuChannel, ChannelPair
from .specfun import ContourError, FoxH2Spec, fox_h2, gain_line
from .specfun import meijer_g  # noqa: F401  (unused: perfbench/spans.py patches this name)

LN2 = math.log(2.0)
# The largest mu the closed forms are checked at: at mu 81-100 every er row (NOMA, OMA, both
# users; alpha in {1,2,3,4,6}, theta in {0.5,1,2}, -10 to 30 dB by 1 dB, a_s in {0.05,0.24,0.45})
# is within 1.6e-9 of quadrature.  Above it the weak rate drifts: at alpha = 1, -10 dB, theta 0.5,
# a_s 0.24 within 2.9e-10 at mu = 100, 110, ..., 200, but 2.9e-6 off at mu = 250, 8.3e-4 at 300.
MAX_MU = 100
# ln(1 + x) = (1/2*pi*i) integral of Gamma(u)^2 Gamma(1-u) / Gamma(1+u) x^u on a line in (0, 1)
_LOG_BLOCK = ((0.0, 1.0, 1), (0.0, 1.0, 1), (1.0, -1.0, 1), (1.0, 1.0, -1))


def _gain_law(law):
    """(mu, r, weights, weight, gscale) of an alpha-mu gain or of a pair's minimum gain: E[g^s]
    is weight gscale^s Gamma(mu + r*s) / Gamma(mu) sum_k weights_k prod_{j<k} (1 + r*s/(mu+j))."""
    (weight, c), *rest = channel.min_gain_mixture(law) if isinstance(law, ChannelPair) else [(1.0, law)]
    r = 2.0 / c.alpha  # component k: shape mu+k, the same gscale
    return c.mu, r, (1.0, *(v / weight for v, _ in rest)), weight, (c.omega**c.alpha / c.mu) ** r


def _argument(z):
    """z, a contour integral's argument, if it is a positive double; else a ContourError."""
    if not np.all((0 < z) & (z < np.inf)):
        raise ContourError("the contour argument is not a positive double")
    return z


def power_mellin_analytic(ch: AlphaMuChannel, c, w: float):
    """E[(1 + c*g)^-w] for an alpha-mu gain, as (sign, log|mean|): one line of the kernel
    Gamma(w+s) Gamma(-s) / Gamma(w) in (max(-w, -mu/r), 0).  Where w*c*E[g] < 1/2, which
    bounds 1 - mean as (1+x)^-w >= 1 - w*x, the line sits in (0, 1) instead, right of the
    pole at s = 0, and its value is mean - 1: the log is log1p of it, and keeps its digits."""
    mu, r, weights, _, gscale = _gain_law(ch)
    cs = np.atleast_1d(np.float64(c))
    z, out = _argument(cs * gscale), np.empty((2, cs.size))
    near = w * cs * channel.gain_moment(ch, 1) < 0.5
    log_norm, block = math.lgamma(w) + math.lgamma(mu), [(w, 1.0, 1), (0.0, -1.0, 1)]
    if near.any():
        h = gain_line(mu, r, weights, block, (0.0, 1.0), z[near])
        eps = h.sign * np.exp(h.log_abs - log_norm)
        out[:, near] = np.sign(1.0 + eps), np.log1p(eps)
    if not near.all():
        h = gain_line(mu, r, weights, block, (max(-w, -mu / r), 0.0), z[~near])
        out[:, ~near] = h.sign, h.log_abs - log_norm
    return tuple(out if np.ndim(c) else out[:, 0])


def ratio_mellin_analytic(pair: ChannelPair, rho, a_s, w: float):
    """E[((1 + rho*g_min) / (1 + a_s*rho*g_min))^-w], bivariate Fox-H form.

    This is the weak-user SINR kernel: the ratio equals 1 + sinr where
    sinr = (1-a_s)*rho*g_min / (a_s*rho*g_min + 1).  One Fox-H value, whose outer factor
    carries the whole minimum-gain mixture (``FoxH2Spec.weights``): (sign, log|mean|).
    """
    mu, r, weights, weight, gscale = _gain_law(pair)
    z1 = rho * gscale
    h = fox_h2(FoxH2Spec(mu, r, w, weights), _argument(z1), _argument(a_s * z1))
    # 1 / (Gamma(w) Gamma(-w)) by reflection, finite at every non-integer w
    total = h.sign * -w * math.sin(math.pi * w) / math.pi
    return np.sign(total), np.log(weight) - math.lgamma(mu) + h.log_abs + np.log(np.abs(total))


def log_mean_analytic(law, c):
    """E[log2(1 + c*g)] for an alpha-mu gain or a pair's minimum gain: one line of the kernel
    Gamma(u)^2 Gamma(1-u) / Gamma(1+u) = pi / (u sin(pi u)) in (0, 1)."""
    mu, r, weights, weight, gscale = _gain_law(law)
    h = gain_line(mu, r, weights, _LOG_BLOCK, (0.0, 1.0), _argument(np.float64(c) * gscale))
    return h.sign * np.exp(h.log_abs + math.log(weight / LN2) - math.lgamma(mu))


def min_log_mean_difference_analytic(pair: ChannelPair, rho, a_s):
    """E[log2(1 + rho*g_min)] - E[log2(1 + a_s*rho*g_min)]: two lines, at rho and a_s*rho.

    Equals the weak user's ergodic rate under superposition with
    interference cancellation at the strong receiver only.
    """
    return log_mean_analytic(pair, rho) - log_mean_analytic(pair, a_s * rho)
