"""Benchmark workloads: the CLI invocations each one runs, drawn from a seed.

Fading families and delay exponents stay fixed per workload, because they
set the cost; the seed only draws simulation seeds and jitters rho and a_s
inside fixed ranges.  ``sweep`` and ``delay`` draw their jitter and
simulation seeds from a small set of variants, because their outputs are
checked against stored references (``refs/``), one set per variant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "closed-form", "delay")

# A run makes round(seconds / PASS_SECONDS) passes over a workload's
# invocations, at least one: at 30 s that is 3, 1 and 4 passes, about 34,
# 28 and 23 s of invocations on a 2-vCPU Xeon.  The pass count depends only
# on --seconds, so the number of samples behind every order statistic does
# not depend on how fast the code under test happens to be.
PASS_SECONDS = {"sweep": 10.5, "closed-form": 27.0, "delay": 7.0}

VARIANTS = 4
# (rho offset in dB, a_s offset) per sweep variant
_SWEEP_OFFSETS = [(0.25 * k, 0.004 * k) for k in range(VARIANTS)]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: ``noma-effrate <command> --config <file> --jobs <jobs>``.

    ``check`` names the output check: ``ref`` (stored reference),
    ``closed-form`` (quadrature and Monte Carlo referees), ``delay``
    (bound shape, ``ci_low <= bound`` and stored reference) or
    ``same:<name>`` (byte identity with another invocation of the same
    pass).  A ``probe`` is a known-bad input: its outcome is reported on
    its own and kept out of the timed metrics and the failure count.
    """

    name: str
    command: str
    config: str
    check: str
    jobs: int = 1
    probe: bool = False


def _ini(sections: dict[str, dict[str, object]]) -> str:
    out = []
    for sec, items in sections.items():
        out.append(f"[{sec}]")
        out.extend(f"{k} = {v}" for k, v in items.items())
        out.append("")
    return "\n".join(out)


def _channel(alpha: int, mu: int) -> dict[str, object]:
    return {"alpha": alpha, "mu": mu, "omega_s": 1.0, "omega_w": math.sqrt(0.1)}


def _range(start: float, stop: float, step: float) -> str:
    return f"{start!r}:{stop!r}:{step!r}"


def _list(values) -> str:
    return ", ".join(repr(v) for v in values)


def variant_of(seed: int) -> int:
    """The reference variant a seed selects on ``sweep`` and ``delay``."""
    return random.Random(seed).randrange(VARIANTS)


def sweep(variant: int, tiny: bool = False) -> list[Invocation]:
    """Figure-scale quadrature sweeps: er on three families, power, approx."""
    d_rho, d_as = _SWEEP_OFFSETS[variant]
    d_rho, d_as = round(d_rho, 3), round(d_as, 4)
    if tiny:
        a_s = _list([round(0.1 + d_as, 4), round(0.3 + d_as, 4)])
        rho = _list([round(5 + d_rho, 3)])
        a4_a_s, a4_rho = a_s, rho
        thetas = "0.5"
        grid = _range(round(0.05 + d_as / 2, 4), round(0.2 + d_as / 2, 4), 0.05)
        p_rho = rho
        x_rho = rho
    else:
        a_s = _range(round(0.05 + d_as, 4), round(0.45 + d_as, 4), 0.05)
        rho = _range(d_rho, round(30 + d_rho, 3), 1.0)
        a4_a_s = _range(round(0.05 + d_as, 4), round(0.45 + d_as, 4), 0.1)
        a4_rho = _range(d_rho, round(30 + d_rho, 3), 2.0)
        thetas = "0.5, 1, 2"
        grid = _range(round(0.01 + d_as / 2, 4), round(0.24 + d_as / 2, 4), 0.01)
        p_rho = _range(d_rho, round(30 + d_rho, 3), 5.0)
        x_rho = _range(d_rho, round(30 + d_rho, 3), 0.5)

    def er(alpha, mu, a, r):
        return _ini(
            {"channel": _channel(alpha, mu), "system": {"a_s": a, "rho_db": r, "theta": thetas}}
        )

    nak3 = er(2, 3, a_s, rho)
    return [
        Invocation("er-rayleigh", "er", er(2, 1, a_s, rho), "ref"),
        Invocation("er-nakagami3", "er", nak3, "ref"),
        Invocation("er-nakagami3-jobs2", "er", nak3, "same:er-nakagami3", jobs=2),
        Invocation("er-alpha4mu3", "er", er(4, 3, a4_a_s, a4_rho), "ref"),
        Invocation(
            "power-rayleigh",
            "power",
            _ini(
                {
                    "channel": _channel(2, 1),
                    "system": {"a_s_grid": grid, "rho_db": p_rho, "theta": 0.5},
                }
            ),
            "ref",
        ),
        Invocation(
            "approx-nakagami2",
            "approx",
            _ini(
                {
                    "channel": _channel(2, 2),
                    "system": {"a_s": round(0.2 + d_as, 4), "rho_db": x_rho, "theta": 0.5},
                }
            ),
            "ref",
        ),
    ]


def closed_form(seed: int, tiny: bool = False) -> list[Invocation]:
    """er through the Meijer-G / bivariate Fox-H route on a small grid per family.

    Includes one small-exponent point set (theta = 0.17, nu ~ 0.25) where the
    Fox-H node count grows, and a probe at theta = ln 2 (nu = 1), where the
    binomial power collides with the residue lattice.
    """
    rng = random.Random(seed)

    def a_s_list(bases):
        return _list([round(b + rng.uniform(-0.01, 0.01), 4) for b in bases])

    def rho_list(bases):
        return _list([round(b + rng.uniform(-0.5, 0.5), 3) for b in bases])

    def cf(alpha, mu, a, r, theta):
        return _ini(
            {
                "channel": _channel(alpha, mu),
                "system": {"a_s": a, "rho_db": r, "theta": theta, "strategy": "closed-form"},
            }
        )

    if tiny:
        invs = [Invocation("cf-rayleigh", "er", cf(2, 1, a_s_list([0.2]), rho_list([10]), 1), "closed-form")]
    else:
        invs = [
            Invocation(
                "cf-rayleigh", "er",
                cf(2, 1, a_s_list([0.15, 0.3]), rho_list([5, 15, 25]), "0.5, 1"),
                "closed-form",
            ),
            Invocation(
                "cf-nakagami3", "er",
                cf(2, 3, a_s_list([0.15, 0.3]), rho_list([5, 15, 25]), "0.5, 1"),
                "closed-form",
            ),
            Invocation(
                "cf-alpha4mu3", "er",
                cf(4, 3, a_s_list([0.15, 0.3]), rho_list([5, 20]), "0.5, 1"),
                "closed-form",
            ),
            Invocation(
                "cf-small-theta", "er",
                cf(2, 1, a_s_list([0.2]), rho_list([10, 20]), 0.17),
                "closed-form",
            ),
        ]
    invs.append(
        Invocation(
            "cf-theta-ln2", "er",
            cf(2, 1, a_s_list([0.2]), rho_list([10]), repr(LN2)),
            "closed-form",
            probe=True,
        )
    )
    return invs


def delay(variant: int, tiny: bool = False) -> list[Invocation]:
    """dvp with a simulated queue on the README config and a near-critical one.

    The README config (rho = 10 dB, a_s = 0.24, N = 168, lambda = 170)
    leaves the weak user unstable (mean service ~91 bits/slot); its column
    of 1.0 bounds is valid output.  At alpha = 4, mu = 3, rho = 15 dB the
    weak user's mean service is ~201 bits/slot, against lambda = 185.
    """
    rng = random.Random(variant)
    slots = 20_000 if tiny else 1_000_000
    vmax = 5 if tiny else 30

    def dvp(alpha, mu, a_s, rho, lam):
        return _ini(
            {
                "channel": _channel(alpha, mu),
                "system": {"a_s": a_s, "rho_db": rho, "theta": 0.5},
                "snc": {"symbols_per_slot": 168, "lambda": lam, "vartheta_max": vmax},
                "sim": {"seed": rng.randrange(2**31), "slots": slots, "batches": 10},
            }
        )

    return [
        Invocation(
            "dvp-readme", "dvp",
            dvp(2, 1, round(0.24 + rng.uniform(-0.01, 0.01), 4),
                round(10 + rng.uniform(-0.5, 0.5), 3), 170),
            "delay",
        ),
        Invocation(
            "dvp-alpha4mu3", "dvp",
            dvp(4, 3, round(0.24 + rng.uniform(-0.005, 0.005), 4),
                round(15 + rng.uniform(-0.25, 0.25), 3), 185),
            "delay",
        ),
    ]


def build(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    if workload == "closed-form":
        return closed_form(seed, tiny)
    return {"sweep": sweep, "delay": delay}[workload](variant_of(seed), tiny)
