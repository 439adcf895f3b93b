"""Analytic closed forms for the rate/transform expectations.

Each function here evaluates a Meijer-G or bivariate Fox-H representation
of an expectation that the quadrature route (specfun.laguerre_expectation)
computes independently; the two routes cross-validate each other in the
test suite.  The scale parameters (c, rho, a_s) are scalars, or equal-length
1-D arrays for a grid, evaluated as one batch per contour spec.

The Meijer-G parameter blocks follow the Gauss-multiplication pattern:
``_delta(x, y)`` expands a Gamma of argument scaled by x into x Gamma
factors at offsets (y+k)/x.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel
from .channel import AlphaMuChannel, ChannelPair
from .specfun import FoxH2Spec, MeijerGSpec, fox_h2, meijer_g

LN2 = math.log(2.0)


def _delta(x: int, y: float) -> tuple[float, ...]:
    return tuple((y + k) / x for k in range(x))


def power_mellin_analytic(ch: AlphaMuChannel, c, w: float):
    """E[(1 + c*g)^-w] for an alpha-mu gain, Meijer-G closed form."""
    if not np.all(c > 0):
        raise ValueError("scale c must be positive")
    if not w > 0:
        raise ValueError("exponent w must be positive")
    al, mu, om = ch.alpha, ch.mu, ch.omega
    spec = MeijerGSpec(
        a=_delta(al, 1.0 - 0.5 * al * mu),
        b=_delta(2, 0.0) + _delta(al, w - 0.5 * al * mu),
        m=2 + al,
        n=al,
    )
    z = mu**2 / (4.0 * c**al * om ** (2 * al))
    g = meijer_g(spec, z)
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
    return g.sign * np.exp(log_pref + g.log_abs)


def ratio_mellin_analytic(pair: ChannelPair, rho, a_s, w: float):
    """E[((1 + rho*g_min) / (1 + a_s*rho*g_min))^-w], bivariate Fox-H form.

    This is the weak-user SINR kernel: the ratio equals 1 + sinr where
    sinr = (1-a_s)*rho*g_min / (a_s*rho*g_min + 1).  One Fox-H value per
    component of the minimum-gain mixture.
    """
    if not (np.all(rho > 0) and np.all((0 < a_s) & (a_s < 1))):
        raise ValueError("need rho > 0 and a_s in (0, 1)")
    r = 2.0 / pair.alpha
    total = 0.0
    for weight, c in channel.min_gain_mixture(pair):
        z1 = rho * (c.omega**c.alpha / c.mu) ** r
        h = fox_h2(FoxH2Spec(outer_c=c.mu, outer_r=r, power=w), z1, a_s * z1)
        total += weight * h.value / math.gamma(c.mu)
    # 1 / (Gamma(w) Gamma(-w)) by reflection, finite at every non-integer w
    return total * -w * math.sin(math.pi * w) / math.pi


def log_mean_analytic(ch: AlphaMuChannel, c):
    """E[log2(1 + c*g)] for an alpha-mu gain, Meijer-G closed form."""
    if not np.all(c > 0):
        raise ValueError("scale c must be positive")
    al, mu, om = ch.alpha, ch.mu, ch.omega
    zeta = _delta(al, -0.5 * al * mu)
    chi = _delta(al, 1.0 - 0.5 * al * mu)
    spec = MeijerGSpec(
        a=zeta + chi,
        b=_delta(2, 0.0) + zeta + zeta,
        m=2 + 2 * al,
        n=al,
    )
    z = (mu / (2.0 * om**al)) ** 2 / c**al
    g = meijer_g(spec, z)
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
    if not (np.all(rho > 0) and np.all((0 < a_s) & (a_s < 1))):
        raise ValueError("need rho > 0 and a_s in (0, 1)")
    return sum(
        weight * (log_mean_analytic(c, rho) - log_mean_analytic(c, a_s * rho))
        for weight, c in channel.min_gain_mixture(pair)
    )
