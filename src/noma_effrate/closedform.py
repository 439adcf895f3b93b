"""Analytic closed forms for the rate/transform expectations.

Each function here evaluates a Meijer-G or bivariate Fox-H representation
of an expectation that the quadrature route (specfun.laguerre_log_expectation)
computes independently; the two routes cross-validate each other in the
test suite.  The scale parameters (c, rho, a_s) are scalars, or equal-length
1-D arrays for a grid, evaluated as one batch per contour spec; their domain is
a NomaSystem's (c = a_s*rho or rho), which that class checks, and the exponent w
is positive (effrate.log_moment passes tau*nu > 0 or N s/ln 2, s > 0).  The Mellin
forms return (sign, log|mean|): a mean far below the doubles keeps its log.  The weak
user's is one Fox-H per exponent, the minimum-gain mixture inside its outer Gamma.

The Meijer-G parameter blocks follow the Gauss-multiplication pattern:
``_delta(x, y)`` expands a Gamma of argument scaled by x into x Gamma
factors at offsets (y+k)/x.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel
from .channel import AlphaMuChannel, ChannelPair
from .specfun import ContourError, FoxH2Spec, MeijerGSpec, fox_h2, meijer_g

LN2 = math.log(2.0)
# The largest mu the closed forms are checked at: at mu 81-100 every er row (NOMA, OMA, both
# users; alpha in {1,2,3,4,6}, theta in {0.5,1,2}, -10 to 30 dB by 1 dB, a_s in {0.05,0.24,0.45})
# is within 1.6e-9 of quadrature.  Above it the weak rate drifts: at alpha = 1, -10 dB, theta 0.5,
# a_s 0.24 within 2.9e-10 at mu = 100, 110, ..., 200, but 2.9e-6 off at mu = 250, 8.3e-4 at 300.
MAX_MU = 100


def _delta(x: int, y: float) -> tuple[float, ...]:
    return tuple((y + k) / x for k in range(x))


def _argument(z):
    """z, a contour integral's argument, if it is a positive double; else a ContourError."""
    if not np.all((0 < z) & (z < np.inf)):
        raise ContourError("the contour argument is not a positive double")
    return z


def power_mellin_analytic(ch: AlphaMuChannel, c, w: float):
    """E[(1 + c*g)^-w] for an alpha-mu gain, Meijer-G closed form, as (sign, log|mean|)."""
    al, mu, om = ch.alpha, ch.mu, ch.omega
    spec = MeijerGSpec(
        a=_delta(al, 1.0 - 0.5 * al * mu),
        b=_delta(2, 0.0) + _delta(al, w - 0.5 * al * mu),
        m=2 + al,
        n=al,
    )
    z = mu**2 / (4.0 * np.float64(c) ** al * np.float64(om) ** (2 * al))
    g = meijer_g(spec, _argument(z))
    log_pref = (
        w * math.log(al)
        + mu * math.log(mu)
        - 0.5 * math.log(2.0)
        - (al - 0.5) * math.log(2.0 * math.pi)
        - al * mu * math.log(om)
        - math.lgamma(mu)
        - math.lgamma(w)
        - 0.5 * al * mu * np.log(c)
    )
    return g.sign, log_pref + g.log_abs


def ratio_mellin_analytic(pair: ChannelPair, rho, a_s, w: float):
    """E[((1 + rho*g_min) / (1 + a_s*rho*g_min))^-w], bivariate Fox-H form.

    This is the weak-user SINR kernel: the ratio equals 1 + sinr where
    sinr = (1-a_s)*rho*g_min / (a_s*rho*g_min + 1).  One Fox-H value, whose outer factor
    carries the whole minimum-gain mixture (``FoxH2Spec.weights``): (sign, log|mean|).
    """
    (weight, c), *rest = channel.min_gain_mixture(pair)  # component k: shape mu+k, the same z1
    r, weights = 2.0 / c.alpha, (1.0, *(v / weight for v, _ in rest))
    z1 = rho * (c.omega**c.alpha / c.mu) ** r
    h = fox_h2(FoxH2Spec(c.mu, r, w, weights), _argument(z1), _argument(a_s * z1))
    # 1 / (Gamma(w) Gamma(-w)) by reflection, finite at every non-integer w
    total = h.sign * -w * math.sin(math.pi * w) / math.pi
    return np.sign(total), np.log(weight) - math.lgamma(c.mu) + h.log_abs + np.log(np.abs(total))


def log_mean_analytic(ch: AlphaMuChannel, c):
    """E[log2(1 + c*g)] for an alpha-mu gain, Meijer-G closed form."""
    al, mu, om = ch.alpha, ch.mu, ch.omega
    zeta = _delta(al, -0.5 * al * mu)
    chi = _delta(al, 1.0 - 0.5 * al * mu)
    spec = MeijerGSpec(
        a=zeta + chi,
        b=_delta(2, 0.0) + zeta + zeta,
        m=2 + 2 * al,
        n=al,
    )
    z = (mu / (2.0 * np.float64(om) ** al)) ** 2 / np.float64(c) ** al
    g = meijer_g(spec, _argument(z))
    log_pref = (
        mu * math.log(mu)
        - 0.5 * math.log(2.0)
        - math.log(LN2)
        - (al - 0.5) * math.log(2.0 * math.pi)
        - math.lgamma(mu)
        - al * mu * math.log(om)
        - 0.5 * al * mu * np.log(c)
    )
    return g.sign * np.exp(log_pref + g.log_abs)


def min_log_mean_difference_analytic(pair: ChannelPair, rho, a_s):
    """E[log2(1 + rho*g_min)] - E[log2(1 + a_s*rho*g_min)], Meijer-G form.

    Equals the weak user's ergodic rate under superposition with
    interference cancellation at the strong receiver only.
    """
    return sum(
        weight * (log_mean_analytic(c, rho) - log_mean_analytic(c, a_s * rho))
        for weight, c in channel.min_gain_mixture(pair)
    )
