"""Output checks for every CLI invocation.  None of this is timed.

Each check returns (error message or None, verified data rows).  The
schemas are written out here rather than read from the CLI, so a change to
the CLI's header shows as a failure.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import gzip
import math
from pathlib import Path

HEADERS = {
    "er": "alpha,mu,omega_w,a_s,theta,rho_db,R_s,R_w,R_sum,R_sum_oma,gap,strategy,err",
    "dvp": "user,vartheta,bound,minimizer_s,feasible,empirical_p,ci_low,ci_high",
    "approx": "rho_db,exact_sum,high_snr_sum,low_snr_sum,ergodic_sum,rate_loss,"
    "ebn0_min_s,ebn0_min_w,slope_s,slope_w",
    "power": "rho_db,best_a_s,best_sum_er",
}

REF_RTOL = 1e-7  # stored references hold 9 significant digits
REF_ATOL = 1e-8  # bits per channel use, for differences such as `gap`
CF_RTOL = 1e-6  # closed form against quadrature
MC_DRAWS = 300_000
MC_BATCHES = 30
MC_SIGMAS = 6.0  # t with 29 dof beyond 6 has probability ~1e-6


def ref_path(refs_dir: Path, size: str, variant: int, name: str) -> Path:
    return refs_dir / f"{size}-v{variant}-{name}.csv.gz"


def read_ref(path: Path) -> str:
    with gzip.open(path, "rt", newline="") as fh:
        return fh.read()


def parse_csv(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    return lines[0], list(csv.reader(lines[1:]))


def _close(x: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref) + atol


def compare_rows(header, rows, ref_text, atol=REF_ATOL, skip=("err",)) -> str | None:
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header:
        return f"header differs from reference: {header!r}"
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    cols = header.split(",")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref):
            return f"row {i}: {len(row)} fields, reference has {len(ref)}"
        for col, got, want in zip(cols, row, ref):
            if col in skip:
                continue
            try:
                g, w = float(got), float(want)
            except ValueError:
                if got != want:
                    return f"row {i} {col}: {got!r} != reference {want!r}"
                continue
            if not _close(g, w, REF_RTOL, atol):
                return f"row {i} {col}: {got} differs from reference {want}"
    return None


def parse_config(config_text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_string(config_text)
    return cp


def system(lib, config_text: str, alpha, mu, a_s, theta, rho_db):
    """The NomaSystem of one output row, with the gains' scales from its config."""
    cp = parse_config(config_text)
    omega_s, omega_w = cp.getfloat("channel", "omega_s"), cp.getfloat("channel", "omega_w")
    pair = lib.ChannelPair(
        lib.AlphaMuChannel(alpha, mu, omega_s), lib.AlphaMuChannel(alpha, mu, omega_w)
    )
    return lib.NomaSystem(pair, a_s, 10.0 ** (rho_db / 10.0), lib.DelayQos(theta))


def snc_config(lib, config_text: str):
    """The SncConfig of a dvp invocation's config."""
    cp = parse_config(config_text)
    sysm = system(
        lib, config_text, cp.getint("channel", "alpha"), cp.getint("channel", "mu"),
        *(cp.getfloat("system", k) for k in ("a_s", "theta", "rho_db")),
    )
    return lib.SncConfig(sysm, cp.getint("snc", "symbols_per_slot"), cp.getfloat("snc", "lambda"))


def bound_at(lib, cfg, user: str, d: int, s: float, strategy: str) -> float:
    """The delay bound's bracket at exponent ``s``, clamped to 1, with the
    Mellin transform taken through ``strategy``; inf where ``s`` is unstable."""
    mellin = lib.mellin_strong if user == "strong" else lib.mellin_weak
    log_m = mellin(cfg, s, strategy).log_value
    log_k = cfg.arrival_rate * s + log_m
    if log_k >= 0.0:
        return math.inf
    return math.exp(min(d * log_m - math.log1p(-math.exp(log_k)), 0.0))


def delay_shape(inv, rows) -> str | None:
    """Bounds in [0, 1], nonincreasing in d, and ci_low <= bound where feasible."""
    vmax = parse_config(inv.config).getint("snc", "vartheta_max")
    if len(rows) != 2 * (vmax + 1):
        return f"{len(rows)} rows, expected {2 * (vmax + 1)}"
    for user in ("strong", "weak"):
        mine = [r for r in rows if r[0] == user]
        if [int(r[1]) for r in mine] != list(range(vmax + 1)):
            return f"{user}: delay targets out of order"
        prev = math.inf
        for r in mine:
            bound, lo = float(r[2]), float(r[6])
            if not 0.0 <= bound <= 1.0:
                return f"{user} d={r[1]}: bound {bound} outside [0, 1]"
            if bound > prev:
                return f"{user} d={r[1]}: bound {bound} increases in d"
            prev = bound
            if r[4] not in ("true", "false"):
                return f"{user} d={r[1]}: feasible flag {r[4]!r}"
            if r[4] == "true" and lo > bound:
                return f"{user} d={r[1]}: ci_low {lo} above bound {bound}"
    return None


class Checker:
    """Runs the checks of one workload; holds the library handle and referee seed."""

    def __init__(self, lib, refs_dir: Path, size: str, variant: int, seed: int, referee_span=None):
        self.lib = lib
        self.refs_dir = refs_dir
        self.size = size
        self.variant = variant
        self.seed = seed
        # context manager factory wrapped around the Monte Carlo referee,
        # so a traced run attributes its time to the referee alone
        self.referee_span = referee_span or (lambda: contextlib.nullcontext())

    def check(self, inv, path: Path, outputs: dict[str, Path]) -> tuple[str | None, int]:
        try:
            text = path.read_text()
        except OSError as exc:
            return f"no output: {exc}", 0
        header, rows = parse_csv(text)
        if header != HEADERS[inv.command]:
            return f"header {header!r} does not match the {inv.command} schema", 0
        if not rows:
            return "no data rows", 0
        if inv.check.startswith("same:"):
            other = outputs.get(inv.check[5:])
            if other is None or other.read_bytes() != path.read_bytes():
                return f"output differs from {inv.check[5:]}", 0
            err = None
        elif inv.check == "ref":
            err = compare_rows(header, rows, self._ref(inv))
        elif inv.check == "closed-form":
            err = self._closed_form(inv, rows)
        elif inv.check == "delay":
            # bounds reach 1e-150 and the simulated columns are exact given
            # the seed, so dvp rows are held to the relative tolerance alone.
            # minimizer_s sits in a flat minimum, where a change that leaves
            # every bound equal to 9 digits can still move it, so it is
            # checked for consistency with the bound, not against the reference.
            err = (
                delay_shape(inv, rows)
                or compare_rows(header, rows, self._ref(inv), atol=0.0, skip=("minimizer_s",))
                or self._minimizer(inv, rows)
            )
        else:
            raise ValueError(f"unknown check {inv.check!r}")
        return err, (0 if err else len(rows))

    def _ref(self, inv) -> str:
        return read_ref(ref_path(self.refs_dir, self.size, self.variant, inv.name))

    def _minimizer(self, inv, rows) -> str | None:
        cfg = snc_config(self.lib, inv.config)
        for r in rows:
            if r[4] != "true":
                continue
            got = bound_at(self.lib, cfg, r[0], int(r[1]), float(r[3]), "quadrature")
            if not _close(float(r[2]), got, REF_RTOL, 0.0):
                return f"{r[0]} d={r[1]}: bound {r[2]} but {got} at minimizer_s {r[3]}"
        return None

    def _closed_form(self, inv, rows) -> str | None:
        lib = self.lib
        for i, row in enumerate(rows):
            if row[11] != "closed-form":
                return f"row {i}: strategy {row[11]!r}"
            r_s, r_w, r_sum, r_oma, gap = (float(v) for v in row[6:11])
            sysm = system(lib, inv.config, int(row[0]), int(row[1]), *map(float, row[3:6]))
            q_s = lib.er_noma(sysm, "strong").value
            q_w = lib.er_noma(sysm, "weak").value
            q_oma = lib.er_oma(sysm, "strong").value + lib.er_oma(sysm, "weak").value
            for col, got, want in (("R_s", r_s, q_s), ("R_w", r_w, q_w), ("R_sum_oma", r_oma, q_oma)):
                if not _close(got, want, CF_RTOL, 0.0):
                    return f"row {i} {col}: closed form {got} vs quadrature {want}"
            if not _close(r_sum, q_s + q_w, CF_RTOL, 0.0):
                return f"row {i} R_sum: {r_sum} vs quadrature {q_s + q_w}"
            if not _close(gap, q_s + q_w - q_oma, 0.0, CF_RTOL * max(1.0, r_sum)):
                return f"row {i} gap: {gap} vs quadrature {q_s + q_w - q_oma}"
            for j, (user, got) in enumerate((("strong", r_s), ("weak", r_w))):
                plan = lib.SimPlan(self.seed + 2 * i + j, MC_DRAWS, MC_BATCHES)
                with self.referee_span():
                    mc = lib.sim.mc_effective_rate(sysm, user, plan)
                if abs(got - mc.value) > MC_SIGMAS * mc.error_estimate:
                    return (
                        f"row {i} {user}: closed form {got} outside Monte Carlo "
                        f"{mc.value} +- {MC_SIGMAS} x {mc.error_estimate}"
                    )
        return None
