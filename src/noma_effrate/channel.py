"""Alpha-mu fading channel gains: densities, moments, and sampling.

The power gain g = |h|^2 of an alpha-mu fading link with non-linearity
``alpha``, clustering ``mu`` and alpha-root-mean ``omega`` has

    pdf(x) = alpha * mu^mu * x^(alpha*mu/2 - 1)
             / (2 * omega^(alpha*mu) * Gamma(mu)) * exp(-mu x^(alpha/2) / omega^alpha)

which covers Rayleigh (alpha=2, mu=1), Nakagami-m (alpha=2, mu=m) and
Weibull (mu=1) as special cases.  alpha is any positive real; mu must be a
positive integer, which keeps the CDF a finite sum and makes the
minimum-gain density of a two-link pair a finite mixture of alpha-mu
densities (used heavily by the expectation routines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class ParameterError(ValueError):
    """An argument outside its domain: ``name`` is the parameter's name and
    ``reason`` says what it must be; the message is "name: reason"."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"{name}: {reason}")
        self.name, self.reason = name, reason


class UnboundedDensityError(ValueError):
    """Density diverges at the requested point (x=0 with alpha*mu < 2)."""


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("gain values must be nonnegative")
    return arr


@dataclass(frozen=True)
class AlphaMuChannel:
    """One alpha-mu fading link.

    alpha is any finite positive real; mu must be a positive integer, as the
    minimum gain's mixture has mu components; omega is the alpha-root-mean
    of the gain, and omega^(+-alpha) and omega^(+-4), the scale of the gain's
    second moment, must be finite and positive.
    """

    alpha: float
    mu: int
    omega: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ParameterError("alpha", f"must be finite and positive, got {self.alpha}")
        if int(self.mu) != self.mu or self.mu < 1:
            raise ParameterError("mu", f"must be a positive integer, got {self.mu}")
        if not 0 < self.omega < math.inf:
            raise ParameterError("omega", f"must be finite and positive, got {self.omega}")
        object.__setattr__(self, "mu", int(self.mu))
        object.__setattr__(self, "omega", float(self.omega))
        # below ln of the largest double, 709.78271, omega^(+-alpha) and omega^(+-4) are finite
        if not max(self.alpha, 4) * abs(math.log(self.omega)) < 709.78:
            raise ParameterError("omega", f"omega^(+-alpha) or omega^(+-4) overflows at alpha = "
                                 f"{self.alpha}, got {self.omega!r}")
        gain_moment(self, 2)  # its Gamma(mu + 4/alpha) passes the doubles as alpha falls toward 0


@dataclass(frozen=True)
class ChannelPair:
    """Strong/weak link pair with shared alpha, mu and ordered gains.

    The constructor requires weak.omega^alpha < strong.omega^alpha and components of
    ``min_gain_mixture`` (omega = ((mu+k)/mu * omega_tilde)^(1/alpha)) that AlphaMuChannel accepts.
    """

    strong: AlphaMuChannel
    weak: AlphaMuChannel

    def __post_init__(self):
        if self.strong.alpha != self.weak.alpha or self.strong.mu != self.weak.mu:
            raise ParameterError("weak", "must share alpha and mu with the strong link")
        ws, ww = self.strong.omega**self.alpha, self.weak.omega**self.alpha
        if not ww < ws:
            raise ParameterError("weak", f"must be strictly weaker: omega_w^alpha={ww} >= omega_s^alpha={ws}")
        try:  # the minimum gain's components obey a link's omega rule, so omega_tilde is in range
            min_gain_mixture(self)
        except ParameterError as exc:  # e.g. omega_s^-alpha + omega_w^-alpha overflows: omega_tilde = 0
            raise ParameterError("weak", f"omega_tilde = 1/(omega_s^-alpha + omega_w^-alpha) = "
                                 f"{self.omega_tilde!r} gives a minimum-gain mixture component out of range "
                                 f"({exc})") from None

    @property
    def alpha(self) -> float:
        return self.strong.alpha

    @property
    def mu(self) -> int:
        return self.strong.mu

    @cached_property
    def omega_tilde(self) -> float:
        """Harmonic combination 1 / (omega_s^-alpha + omega_w^-alpha).

        Carries the dimension of omega^alpha; it replaces omega^alpha in
        the exponential factor of the minimum-gain density.
        """
        a = self.alpha
        return 1.0 / (self.strong.omega**-a + self.weak.omega**-a)


def gain_pdf(ch: AlphaMuChannel, x) -> np.ndarray | float:
    """Density of the channel gain at x (x >= 0, scalar or array)."""
    arr = _as_array(x)
    a, m, w = ch.alpha, ch.mu, ch.omega
    if a * m < 2 and np.any(arr == 0):
        raise UnboundedDensityError(
            f"gain density is unbounded at x=0 for alpha*mu < 2, got alpha*mu = {a * m}"
        )
    out = np.zeros_like(arr)
    pos = arr > 0
    xp = arr[pos]
    log_scale = math.log(a) + m * math.log(m) - math.log(2.0) - a * m * math.log(w) - math.lgamma(m)
    out[pos] = np.exp(log_scale + (0.5 * a * m - 1.0) * np.log(xp) - m * xp ** (0.5 * a) / w**a)
    if a * m == 2:
        # finite limit at the origin: the power of x vanishes
        out[arr == 0] = math.exp(log_scale)
    return out if out.ndim else float(out)


def gain_cdf(ch: AlphaMuChannel, x) -> np.ndarray | float:
    """Distribution function of the gain, via the finite mu-term sum."""
    arr = _as_array(x)
    m, a, w = ch.mu, ch.alpha, ch.omega
    u = m * arr ** (0.5 * a) / w**a
    # survival = exp(-u) * sum_{j<mu} u^j/j!, each term a Poisson pmf (<= 1)
    out = np.zeros_like(arr)
    pos = u > 0
    up = u[pos]
    terms = np.stack(
        [np.exp(-up + j * np.log(up) - math.lgamma(j + 1)) for j in range(m)]
    )
    out[pos] = 1.0 - terms.sum(axis=0)
    return np.clip(out, 0.0, 1.0) if out.ndim else float(min(max(out, 0.0), 1.0))


def min_gain_mixture(pair: ChannelPair) -> list[tuple[float, AlphaMuChannel]]:
    """Decompose the minimum-gain law as a finite alpha-mu mixture.

    The k-th term of either branch sum (one per link being the smaller) is
    the alpha-mu density with clustering mu+k and alpha-root-mean set by
    omega_tilde, so each of the mu components carries both branch weights.
    Returns (weight, component) pairs; the weights sum to 1.
    """
    a, m = pair.alpha, pair.mu
    wt = pair.omega_tilde
    comps: list[tuple[float, AlphaMuChannel]] = []
    for k in range(m):  # the component first: it rejects an omega_tilde of 0 or inf
        component = AlphaMuChannel(a, m + k, ((m + k) * wt / m) ** (1.0 / a))
        weight = 0.0
        for first, second in ((pair.strong, pair.weak), (pair.weak, pair.strong)):
            weight += math.exp(
                math.lgamma(m + k)
                - math.lgamma(m)
                - math.lgamma(k + 1)
                + (m + k) * math.log(wt)
                - k * a * math.log(second.omega)
                - m * a * math.log(first.omega)
            )
        comps.append((weight, component))
    return comps


def min_gain_pdf(pair: ChannelPair, x) -> np.ndarray | float:
    """Density of min(g_strong, g_weak), the mixture sum of gain densities."""
    return sum(w * gain_pdf(c, x) for w, c in min_gain_mixture(pair))


def gain_moment(ch: AlphaMuChannel, k: int) -> float:
    """k-th moment of the gain: omega^2k Gamma(mu+2k/alpha) / (mu^(2k/alpha) Gamma(mu)); a
    ParameterError naming alpha where it passes the doubles."""
    if k < 1 or int(k) != k:
        raise ValueError(f"moment order must be a positive integer, got {k}")
    a, m, w = ch.alpha, ch.mu, ch.omega
    r = 2.0 * k / a
    log_moment = 2 * k * math.log(w) + math.lgamma(m + r) - r * math.log(m) - math.lgamma(m)
    if not log_moment < 709.78:
        raise ParameterError("alpha", f"moment {k} of the gain, omega^{2 * k} Gamma(mu + {2 * k}/alpha) / "
                             f"(mu^({2 * k}/alpha) Gamma(mu)), overflows at mu = {m} and omega = {w!r}, got {a}")
    return math.exp(log_moment)


@lru_cache(maxsize=256)
def min_gain_moment(pair: ChannelPair, k: int) -> float:
    """First or second moment of min(g_strong, g_weak), the mixture sum of gain moments.

    Cached per (frozen) pair: every row of a low-SNR sweep asks for the same two."""
    if k not in (1, 2):
        raise ValueError(f"unsupported order: min-gain moments exist for k in {{1, 2}}, got {k}")
    return sum(w * gain_moment(c, k) for w, c in min_gain_mixture(pair))


def sample_gain(ch: AlphaMuChannel, rng: np.random.Generator, size=None):
    """Draw gains as (omega^alpha * Y / mu)^(2/alpha) with Y ~ Gamma(mu, 1).

    The caller owns the generator; parallel sampling requires independent
    streams (e.g. via numpy SeedSequence.spawn).
    """
    y = rng.gamma(shape=ch.mu, scale=1.0, size=size)
    y *= ch.omega**ch.alpha  # in place: no whole-draw temporaries, same bits
    y /= ch.mu
    y **= 2.0 / ch.alpha
    return y


def sample_min_gain(pair: ChannelPair, rng: np.random.Generator, size=None):
    """Draw min(g_strong, g_weak) from independent links."""
    gs = sample_gain(pair.strong, rng, size)
    gw = sample_gain(pair.weak, rng, size)
    return np.minimum(gs, gw)
