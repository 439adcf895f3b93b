"""Spans around the library's public functions, recorded from outside.

``Tracer.patch`` replaces each function in the namespace its caller looks
it up in (``cli.er_noma``, ``effrate.laguerre_expectation``,
``closedform.fox_h2``, ...) with a wrapper, and ``restore`` puts the
originals back, so untraced runs execute unmodified code.  Wrappers record
only under an open root span, which keeps the benchmark's own checks out
of the layer numbers.  Spans are kept in memory; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# (module, attribute the caller looks up, span name = defining module.function)
PATCHES = [
    ("cli", "er_noma", "effrate.er_noma"),
    ("cli", "er_oma", "effrate.er_oma"),
    ("cli", "ergodic_rate", "effrate.ergodic_rate"),
    ("cli", "er_high_snr", "effrate.er_high_snr"),
    ("cli", "er_low_snr", "effrate.er_low_snr"),
    ("cli", "min_energy_per_bit", "effrate.min_energy_per_bit"),
    ("cli", "wideband_slope", "effrate.wideband_slope"),
    ("cli", "power_search", "effrate.power_search"),
    ("cli", "dvp_curve", "snc.dvp_curve"),
    ("cli", "queue_dvp", "sim.queue_dvp"),
    ("effrate", "er_noma", "effrate.er_noma"),
    ("effrate", "er_oma", "effrate.er_oma"),
    ("effrate", "ergodic_rate", "effrate.ergodic_rate"),
    ("effrate", "er_derivatives", "effrate.er_derivatives"),
    ("effrate", "laguerre_expectation", "specfun.laguerre_expectation"),
    ("effrate", "gain_moment", "channel.gain_moment"),
    ("effrate", "min_gain_moment", "channel.min_gain_moment"),
    ("closedform", "power_mellin_analytic", "closedform.power_mellin_analytic"),
    ("closedform", "ratio_mellin_analytic", "closedform.ratio_mellin_analytic"),
    ("closedform", "log_mean_analytic", "closedform.log_mean_analytic"),
    (
        "closedform",
        "min_log_mean_difference_analytic",
        "closedform.min_log_mean_difference_analytic",
    ),
    ("closedform", "fox_h2", "specfun.fox_h2"),
    ("closedform", "meijer_g", "specfun.meijer_g"),
    ("snc", "laguerre_log_expectation", "specfun.laguerre_log_expectation"),
    ("channel", "min_gain_mixture", "channel.min_gain_mixture"),
    ("sim", "sample_gain", "channel.sample_gain"),
    ("sim", "mc_effective_rate", "sim.mc_effective_rate"),
]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# what a span keeps besides its times, from (args, kwargs, result)
NOTES = {
    "specfun.fox_h2": lambda a, k, r: r.error,
    "specfun.meijer_g": lambda a, k, r: r.error,
    "sim.queue_dvp": lambda a, k, r: (
        _arg(a, k, 2, "plan").draws,
        _arg(a, k, 1, "user"),
        _arg(a, k, 3, "max_delay"),
        r.observations,
    ),
    "sim.mc_effective_rate": lambda a, k, r: _arg(a, k, 2, "plan").draws,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, note]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, note=None):
        self._stack.pop()
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = note

    @contextlib.contextmanager
    def root(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, note(args, kwargs, result) if note and result is not None else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, package):
        wrappers = {}
        for mod_name, attr, name in PATCHES:
            mod = getattr(package, mod_name)
            orig = getattr(mod, attr)
            if id(orig) not in wrappers:
                wrappers[id(orig)] = self._wrap(name, orig)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, wrappers[id(orig)])

    def restore(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the notes."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []}
        )
        for i, (name, _, start, end, note) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
            if note is not None:
                agg["notes"].append(note)
        return out
