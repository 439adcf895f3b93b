"""Delay-violation bounds and effective rates for two-user downlink NOMA
over alpha-mu fading, with independently cross-validated evaluation routes
(analytic closed forms, gain quadrature, Monte Carlo)."""

import os

# One BLAS thread per process.  The library's LAPACK work is small (the
# eigen-solves behind its Gauss rules) and its parallelism is the process
# pool of ``cli --jobs``; OpenBLAS threads on top of that pool oversubscribe
# the CPUs: two workers each building an order-256 Gauss-Legendre table at
# the same time took 0.5-0.8 s instead of 6 ms on 2 vCPUs.  Takes effect only
# while numpy is not loaded yet; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import (
    AlphaMuChannel,
    ChannelPair,
    UnboundedDensityError,
    gain_cdf,
    gain_moment,
    gain_pdf,
    min_gain_cdf,
    min_gain_mixture,
    min_gain_moment,
    min_gain_pdf,
    sample_gain,
    sample_min_gain,
)
from .effrate import (
    DelayQos,
    NomaSystem,
    RateResult,
    er_derivatives,
    er_high_snr,
    er_low_snr,
    er_noma,
    er_oma,
    ergodic_rate,
    min_energy_per_bit,
    noma_oma_gap,
    power_search,
    rate_loss,
    sum_er_noma,
    sum_er_oma,
    wideband_slope,
)
from .sim import DelayCcdf, SimPlan, empirical_decay_slope, mc_effective_rate, queue_dvp
from .snc import (
    DvpBound,
    MellinValue,
    SncConfig,
    bound_decay_slope,
    dvp_bound,
    dvp_curve,
    mellin_strong,
    mellin_weak,
)
from .specfun import (
    ContourConfig,
    ContourError,
    ConvergenceError,
    FoxH2Spec,
    MeijerGSpec,
    PoleError,
    QuadValue,
    fox_h2,
    laguerre_expectation,
    laguerre_log_expectation,
    ln_gamma,
    meijer_g,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaMuChannel",
    "ChannelPair",
    "ContourConfig",
    "ContourError",
    "ConvergenceError",
    "DelayCcdf",
    "DelayQos",
    "DvpBound",
    "FoxH2Spec",
    "MeijerGSpec",
    "MellinValue",
    "NomaSystem",
    "PoleError",
    "QuadValue",
    "RateResult",
    "SimPlan",
    "SncConfig",
    "UnboundedDensityError",
    "bound_decay_slope",
    "dvp_bound",
    "dvp_curve",
    "empirical_decay_slope",
    "er_derivatives",
    "er_high_snr",
    "er_low_snr",
    "er_noma",
    "er_oma",
    "ergodic_rate",
    "fox_h2",
    "gain_cdf",
    "gain_moment",
    "gain_pdf",
    "laguerre_expectation",
    "laguerre_log_expectation",
    "ln_gamma",
    "mc_effective_rate",
    "meijer_g",
    "mellin_strong",
    "mellin_weak",
    "min_energy_per_bit",
    "min_gain_cdf",
    "min_gain_mixture",
    "min_gain_moment",
    "min_gain_pdf",
    "noma_oma_gap",
    "power_search",
    "queue_dvp",
    "rate_loss",
    "sample_gain",
    "sample_min_gain",
    "sum_er_noma",
    "sum_er_oma",
    "wideband_slope",
]
