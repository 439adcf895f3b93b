"""Delay-violation bounds and effective rates for two-user downlink NOMA
over alpha-mu fading, with independently cross-validated evaluation routes
(analytic closed forms, gain quadrature, Monte Carlo)."""

import gc
import os

# One BLAS thread per process.  OpenBLAS starts its thread pool when numpy
# loads, which every CLI invocation pays: on a 2-vCPU Xeon, `import
# noma_effrate.cli` took 0.16 s with one thread and 0.22 s with the default
# two (medians of 40 alternating runs), and the library's only sizeable BLAS
# work, the Fox-H lattice's matrix products, lost from the second thread (the
# benchmark's `closed-form` invocations 0.89 s against 1.21 s, medians of 6).
# Takes effect only while numpy is not loaded yet; a value already in the
# environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import (
    AlphaMuChannel,
    ChannelPair,
    ParameterError,
    UnboundedDensityError,
    gain_cdf,
    gain_moment,
    gain_pdf,
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
    wideband_slope,
)
from .sim import DelayCcdf, SimPlan, empirical_decay_slope, mc_effective_rate, queue_dvp
from .snc import (
    DvpBound,
    MellinValue,
    SncConfig,
    bound_decay_slope,
    dvp_curve,
    mellin_strong,
    mellin_weak,
)
from .specfun import (
    ContourError,
    ConvergenceError,
    FoxH2Spec,
    MeijerGSpec,
    QuadValue,
    fox_h2,
    laguerre_expectation,
    laguerre_log_expectation,
    meijer_g,
)

__version__ = "0.1.0"

# Freeze every object alive at this point, nearly all of them created by the imports
# above (numpy's and the package's modules, classes and functions: about 21,700 tracked
# objects), into the cyclic collector's permanent generation.  They live until the
# process exits, so none of them is ever garbage, yet every full collection, those at
# interpreter exit included, rescanned them: on a 2-vCPU Xeon, `import noma_effrate` took
# 0.135 s without the freeze and 0.120 s with it, and ending the process with
# `os._exit(0)` instead saved 18 ms and 2 ms (medians of 40 alternating runs).  Objects
# allocated later are collected as before; frozen ones are never collected, and
# `gc.get_objects()` no longer lists them.  A host that needs them back in the collector
# calls `gc.unfreeze()`.
gc.freeze()
