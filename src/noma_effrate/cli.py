"""Command-line front end: sweep configs in, CSV (or SVG) out.

Subcommands
-----------
er      effective-rate sweep over (a_s, theta, rho) grids
dvp     delay-violation bound (and optional queue simulation) per user
approx  high/low-SNR approximations, ergodic bound, rate loss, low-SNR metrics
power   discrete search for the sum-rate-maximizing power coefficient

Config files are INI-style with [channel], [system], [snc], [sim] and
[output] sections; dB and coefficient ranges use start:stop:step
(inclusive) and lists are comma-separated.  Command-line flags win over
file values.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import math
import sys as _sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import AlphaMuChannel, ChannelPair, ParameterError
from .effrate import (
    DelayQos,
    NomaSystem,
    er_high_snr,
    er_low_snr,
    er_noma,
    er_oma,
    ergodic_rate,
    min_energy_per_bit,
    power_search,
    sum_er_noma,
    wideband_slope,
)
from .sim import SimPlan, queue_dvp
from .snc import SncConfig, dvp_curve
from .specfun import ContourError, ConvergenceError


class ConfigError(ValueError):
    """Config-file problem, annotated with section and key."""


# library parameter -> the [section] key setting it (a link's omega, a_s and grid: the callers)
KEY_OF = {
    "alpha": "[channel] alpha", "mu": "[channel] mu", "weak": "[channel] omega_w",
    "rho": "[system] rho_db", "theta": "[system] theta",
    "block_time_bandwidth": "[system] tb", "strategy": "[system] strategy",
    "symbols_per_slot": "[snc] symbols_per_slot", "arrival_rate": "[snc] lambda",
    "max_delay": "[snc] vartheta_max", "seed": "[sim] seed", "draws": "[sim] slots",
    "batches": "[sim] batches",
}


@contextlib.contextmanager
def keyed(**where):
    """A library ParameterError as a ConfigError naming ``where[name]`` (a flag), else KEY_OF[name],
    else the name itself: the library's own message."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(f"{where.get(exc.name) or KEY_OF.get(exc.name, exc.name)}: {exc.reason}") from exc


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def parse_values(text: str) -> list[float]:
    """Parse '1, 2, 3' lists or 'start:stop:step' inclusive ranges."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad range {text!r}")
        n = int(round((stop - start) / step))
        vals = [start + i * step for i in range(n + 1)]
        if vals[-1] > stop + 1e-12:
            vals.pop()
        return vals
    return [float(p) for p in text.split(",") if p.strip()]


@dataclass
class SweepConfig:
    """Typed view of one sweep configuration file, with the library objects load_config builds."""

    alpha: int = 2
    mu: int = 1
    omega_s: float = 1.0
    omega_w: float = math.sqrt(0.1)
    a_s_values: list[float] = field(default_factory=lambda: [0.24])
    rho_db: list[float] = field(default_factory=lambda: [10.0])
    theta: list[float] = field(default_factory=lambda: [0.5])
    tb: float = 1.0
    strategy: str = "quadrature"
    symbols_per_slot: int = 168
    lambdas: list[float] = field(default_factory=list)
    vartheta_max: int = 30
    seed: int = 12345
    slots: int = 0
    batches: int = 10
    out_path: str | None = None
    out_format: str = "csv"
    a_s_key: str = "a_s"  # the [system] key that set a_s_values
    # the (a_s, theta, rho_db) grid in row order; one SncConfig per lambda; the simulation plan
    systems: list[NomaSystem] = field(default_factory=list, repr=False)
    snc: list[SncConfig] = field(default_factory=list, repr=False)
    plan: SimPlan | None = field(default=None, repr=False)


# [section] key -> parser; no other key is accepted.  A key sets the
# SweepConfig field of its own name unless FIELD_OF renames it.
CONFIG_KEYS = {
    "channel": {"alpha": int, "mu": int, "omega_s": float, "omega_w": float},
    "system": {"a_s": parse_values, "a_s_grid": parse_values, "rho_db": parse_values,
               "theta": parse_values, "tb": float, "strategy": str.strip},
    "snc": {"symbols_per_slot": int, "lambda": parse_values, "vartheta_max": int},
    "sim": {"seed": int, "slots": int, "batches": int},
    "output": {"path": str, "format": str.strip},
}
FIELD_OF = {"a_s": "a_s_values", "a_s_grid": "a_s_values", "lambda": "lambdas",
            "path": "out_path", "format": "out_format"}


def load_config(path: str | None, **flags) -> SweepConfig:
    """The config of the file at ``path`` (None: the defaults) under ``flags``, fields set by a
    flag (None: not given); checked, flags in, by building every section's library objects,
    which the subcommands then use."""
    cfg = SweepConfig()
    if path is not None:
        _read(path, cfg)
    flags = {name: value for name, value in flags.items() if value is not None}
    for name, value in flags.items():
        setattr(cfg, name, value)
    for key, vals in ((cfg.a_s_key, cfg.a_s_values), ("rho_db", cfg.rho_db), ("theta", cfg.theta)):
        if not vals:
            raise ConfigError(f"[system] {key}: empty grid")
    if cfg.vartheta_max < 0:
        raise ConfigError(f"[snc] vartheta_max: must be nonnegative, got {cfg.vartheta_max}")
    if cfg.out_format not in ("csv", "svg"):
        raise ConfigError(f"[output] format: must be csv or svg, got {cfg.out_format!r}")
    try:
        rhos = [10.0 ** (rho_db / 10.0) for rho_db in cfg.rho_db]
    except OverflowError:
        raise ConfigError(f"[system] rho_db: {max(cfg.rho_db):g} dB overflows a double") from None
    links = []
    for key in ("omega_s", "omega_w"):
        with keyed(omega=f"[channel] {key}"):
            links.append(AlphaMuChannel(cfg.alpha, cfg.mu, getattr(cfg, key)))
    with keyed(seed="--seed" if "seed" in flags else None, a_s=f"[system] {cfg.a_s_key}"):
        pair = ChannelPair(*links)
        cfg.systems = [NomaSystem(pair, a_s, rho, DelayQos(theta, cfg.tb))
                       for a_s, theta, rho in itertools.product(cfg.a_s_values, cfg.theta, rhos)]
        cfg.snc = [SncConfig(cfg.systems[0], cfg.symbols_per_slot, lam) for lam in cfg.lambdas]
        cfg.plan = SimPlan(cfg.seed, cfg.slots, cfg.batches)
    return cfg


def _read(path: str, cfg: SweepConfig):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:  # a repeated key or section, or no section header
        raise ConfigError(" ".join(str(exc).split())) from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    unknown = set(cp.sections()) - CONFIG_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if cp.has_option("system", "a_s_grid"):
        if cp.has_option("system", "a_s"):
            raise ConfigError("[system] a_s_grid: give either a_s or a_s_grid, not both")
        cfg.a_s_key = "a_s_grid"
    for section in cp.sections():
        for key, raw in cp.items(section):
            cast = CONFIG_KEYS[section].get(key)
            if cast is None:
                raise ConfigError(f"[{section}] unknown key: {key}")
            try:
                setattr(cfg, FIELD_OF.get(key, key), cast(raw))
            except Exception as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc


def _single(cfg: SweepConfig, command: str, *keys: str):
    """A subcommand's rule that each of these keys holds exactly one value."""
    for key in keys:
        n = len(getattr(cfg, FIELD_OF.get(key, key)))
        if n != 1:
            section = next(s for s, known in CONFIG_KEYS.items() if key in known)
            raise ConfigError(f"[{section}] {key}: {command} needs a single value, got {n}")


# ---------------------------------------------------------------------------
# er sweep


ER_HEADER = (
    "alpha,mu,omega_w,a_s,theta,rho_db,R_s,R_w,R_sum,R_sum_oma,gap,strategy,err"
)


def cmd_er(cfg: SweepConfig) -> tuple[str, list[tuple]]:
    rates = [rate(cfg.systems, user, cfg.strategy) for rate in (er_noma, er_oma)
             for user in ("strong", "weak")]
    rows = []
    for point, (rs, rw, os_, ow) in zip(
        itertools.product(cfg.a_s_values, cfg.theta, cfg.rho_db), zip(*rates)
    ):
        r_sum = rs.value + rw.value
        oma_sum = os_.value + ow.value
        err = max(rs.error_estimate, rw.error_estimate, os_.error_estimate, ow.error_estimate)
        rows.append((cfg.alpha, cfg.mu, cfg.omega_w, *point, rs.value, rw.value, r_sum,
                     oma_sum, r_sum - oma_sum, cfg.strategy, err))
    return ER_HEADER, rows


# ---------------------------------------------------------------------------
# dvp


DVP_HEADER = "user,vartheta,bound,minimizer_s,feasible,empirical_p,ci_low,ci_high"


def cmd_dvp(cfg: SweepConfig, lambda_scale: float) -> tuple[str, list[tuple]]:
    if cfg.strategy != "quadrature":
        raise ConfigError(f"[system] strategy: dvp has no {cfg.strategy} route; use strategy = quadrature")
    _single(cfg, "dvp", cfg.a_s_key, "theta", "rho_db", "lambda")
    with keyed(arrival_rate=f"--lambda-scale {lambda_scale!r} times [snc] lambda {cfg.lambdas[0]!r}"):
        snc_cfg = replace(cfg.snc[0], arrival_rate=cfg.lambdas[0] * lambda_scale)
    users = ("strong", "weak")
    # the simulation first, so a trace too short for vartheta_max fails before any bound
    emp = queue_dvp(snc_cfg, users, cfg.plan, cfg.vartheta_max) if cfg.plan.draws else None
    rows = []
    for i, user in enumerate(users):
        curve = dvp_curve(snc_cfg, user, range(cfg.vartheta_max + 1))
        for d, b in enumerate(curve):
            empirical = (None,) * 3 if emp is None else (
                emp.probabilities[i, d], emp.ci_low[i, d], emp.ci_high[i, d]
            )
            rows.append((user, d, b.bound, b.minimizer_s, b.feasible) + empirical)
    return DVP_HEADER, rows


# ---------------------------------------------------------------------------
# approx


APPROX_HEADER = (
    "rho_db,exact_sum,high_snr_sum,low_snr_sum,ergodic_sum,rate_loss,"
    "ebn0_min_s,ebn0_min_w,slope_s,slope_w"
)


def cmd_approx(cfg: SweepConfig) -> tuple[str, list[tuple]]:
    _single(cfg, "approx", cfg.a_s_key, "theta")
    exact = sum_er_noma(cfg.systems, cfg.strategy)
    erg_s, erg_w = (ergodic_rate(cfg.systems, user, cfg.strategy) for user in ("strong", "weak"))
    rows = []
    for sysm, rho_db, total, es, ew in zip(cfg.systems, cfg.rho_db, exact, erg_s, erg_w):
        ergodic = es.value + ew.value
        try:
            high = er_high_snr(sysm, "strong").value + er_high_snr(sysm, "weak").value
        except ParameterError:  # the high-SNR form holds for alpha*mu > 2*nu only
            high = None
        low = er_low_snr(sysm, "strong").value + er_low_snr(sysm, "weak").value
        rows.append((rho_db, total, high, low, ergodic, ergodic - total,
                     min_energy_per_bit(sysm, "strong"), min_energy_per_bit(sysm, "weak"),
                     wideband_slope(sysm, "strong"), wideband_slope(sysm, "weak")))
    return APPROX_HEADER, rows


# ---------------------------------------------------------------------------
# power


POWER_HEADER = "rho_db,best_a_s,best_sum_er"


def cmd_power(cfg: SweepConfig) -> tuple[str, list[tuple]]:
    _single(cfg, "power", "theta")
    # the first a_s value's systems, one per rho_db; the search sets a_s itself
    best = power_search(cfg.systems[:len(cfg.rho_db)], cfg.a_s_values, strategy=cfg.strategy)
    return POWER_HEADER, [(rho_db, a, total) for rho_db, (a, total) in zip(cfg.rho_db, best)]


# ---------------------------------------------------------------------------
# output


def write_csv(header: str, rows: list[tuple], stream) -> None:
    stream.write(header + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def write_svg(header: str, rows: list[tuple], stream) -> None:
    """Minimal polyline chart: first column as x, numeric columns as series."""
    cols = header.split(",")
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        try:
            x = float(row[0] if not isinstance(row[0], str) else row[1])
        except (TypeError, ValueError):
            continue
        for name, v in zip(cols[1:], row[1:]):
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                series.setdefault(name, []).append((x, float(v)))
    width, height, pad = 640, 420, 48
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts if math.isfinite(p[1])]
    if not xs or not ys:
        stream.write("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / xspan * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / yspan * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
               "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    out = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<line x1='{pad}' y1='{height-pad}' x2='{width-pad}' y2='{height-pad}' stroke='black'/>",
        f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height-pad}' stroke='black'/>",
        f"<text x='{width//2}' y='{height-10}' font-size='12'>{cols[0]}</text>",
    ]
    for i, (name, pts) in enumerate(series.items()):
        pts = sorted(pts)
        color = palette[i % len(palette)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts if math.isfinite(y))
        out.append(
            f"<polyline points='{path}' fill='none' stroke='{color}' stroke-width='1.5'/>"
        )
        out.append(
            f"<text x='{width-pad+4}' y='{pad + 14*i}' font-size='10' fill='{color}'>{name}</text>"
        )
    out.append("</svg>")
    stream.write("\n".join(out) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-effrate",
        description="Delay-violation bounds and effective rates for two-user "
        "downlink NOMA over alpha-mu fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("er", "effective-rate sweep"),
        ("dvp", "delay-violation bound and queue simulation"),
        ("approx", "high/low-SNR approximations and rate loss"),
        ("power", "power-coefficient search"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="INI sweep configuration file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "svg"), help="output format")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: every subcommand runs serially")
        p.add_argument("--seed", type=int, help="simulation seed override")
        if name == "dvp":
            p.add_argument(
                "--lambda-scale",
                type=float,
                default=1.0,
                help="multiplier applied to configured arrival rates",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out_path=args.out, out_format=args.format)
        with warnings.catch_warnings(), keyed(grid=f"[system] {cfg.a_s_key}"):
            # a warning (such as an unstable queue) is one line, like an error, under any -W filter
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=_sys.stderr)
            command = {"er": cmd_er, "approx": cmd_approx, "power": cmd_power,
                       "dvp": lambda cfg: cmd_dvp(cfg, args.lambda_scale)}[args.command]
            header, rows = command(cfg)
        writer = write_csv if cfg.out_format == "csv" else write_svg
        if cfg.out_path:
            with open(cfg.out_path, "w") as fh:
                writer(header, rows, fh)
        else:
            writer(header, rows, _sys.stdout)
        return 0
    except (ValueError, ContourError, ConvergenceError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
