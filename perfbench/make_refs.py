#!/usr/bin/env python3
"""Regenerate the stored references of the ``sweep`` and ``delay`` workloads.

    python3 perfbench/make_refs.py

For every variant and size, runs each reference-checked invocation through
the CLI (quadrature route) and writes its CSV to
``refs/<size>-v<variant>-<name>.csv.gz``.  Before a file is written, its
rows are held against the closed-form route (Meijer-G, bivariate Fox-H) to
``checks.CF_RTOL``.  On ``sweep``: every strong-user, OMA and ergodic
value, and the weak-user effective rate on an evenly spaced subset of rows,
because one Fox-H point costs up to a second.  On ``delay``: the bound of
every feasible row, recomputed from closed-form Mellin transforms at the
reported ``minimizer_s``; the rows also pass the benchmark's own delay
check.  ``refs/manifest.json`` records what was checked, the largest
relative difference found and the environment.
"""

from __future__ import annotations

import gzip
import json
import tempfile
import warnings
from pathlib import Path

import checks
import run
import workloads

WEAK_POINTS = 6  # weak-user Fox-H cross-checks per file


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class CrossCheck:
    def __init__(self, lib):
        self.lib = lib
        self.worst: dict[str, list] = {}

    def hold(self, label: str, got: float, closed: float):
        rel = _rel(got, closed)
        n, worst = self.worst.get(label, (0, 0.0))
        self.worst[label] = [n + 1, max(worst, rel)]
        if rel > checks.CF_RTOL:
            raise SystemExit(f"{label}: quadrature {got} vs closed form {closed} ({rel:.2e})")

    def er(self, inv, rows):
        lib, step = self.lib, max(1, len(rows) // WEAK_POINTS)
        for i, row in enumerate(rows):
            alpha, mu = int(row[0]), int(row[1])
            sysm = checks.system(lib, inv.config, alpha, mu, *(float(v) for v in row[3:6]))
            self.hold("R_s", float(row[6]), lib.er_noma(sysm, "strong", "closed-form").value)
            oma = sum(lib.er_oma(sysm, u, "closed-form").value for u in ("strong", "weak"))
            self.hold("R_sum_oma", float(row[9]), oma)
            if i % step == 0:
                self.hold("R_w", float(row[7]), lib.er_noma(sysm, "weak", "closed-form").value)

    def power(self, inv, rows):
        cp = checks.parse_config(inv.config)
        alpha, mu = cp.getint("channel", "alpha"), cp.getint("channel", "mu")
        theta = float(cp.get("system", "theta"))
        for row in rows:
            rho_db, a_s, best = (float(v) for v in row)
            sysm = checks.system(self.lib, inv.config, alpha, mu, a_s, theta, rho_db)
            self.hold("best_sum_er", best, self.lib.sum_er_noma(sysm, "closed-form"))

    def approx(self, inv, rows):
        lib, step = self.lib, max(1, len(rows) // WEAK_POINTS)
        cp = checks.parse_config(inv.config)
        alpha, mu = cp.getint("channel", "alpha"), cp.getint("channel", "mu")
        a_s, theta = float(cp.get("system", "a_s")), float(cp.get("system", "theta"))
        for i, row in enumerate(rows):
            sysm = checks.system(lib, inv.config, alpha, mu, a_s, theta, float(row[0]))
            erg = sum(lib.ergodic_rate(sysm, u, "closed-form").value for u in ("strong", "weak"))
            self.hold("ergodic_sum", float(row[4]), erg)
            if i % step == 0:
                self.hold("exact_sum", float(row[1]), lib.sum_er_noma(sysm, "closed-form"))

    def dvp(self, inv, rows):
        cfg = checks.snc_config(self.lib, inv.config)
        for row in rows:
            if row[4] == "true":
                closed = checks.bound_at(
                    self.lib, cfg, row[0], int(row[1]), float(row[3]), "closed-form"
                )
                self.hold(f"bound_{row[0]}", float(row[2]), closed)


def main() -> int:
    lib = run.import_library()
    run.REFS.mkdir(exist_ok=True)
    manifest = {"env": run.environment("sweep, delay", -1), "rtol": checks.CF_RTOL, "files": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for size in ("tiny", "full"):
            for variant in range(workloads.VARIANTS):
                invs = workloads.sweep(variant, size == "tiny") + workloads.delay(
                    variant, size == "tiny"
                )
                for inv in invs:
                    if inv.check not in ("ref", "delay"):
                        continue
                    args, out = run.argv_for(inv, Path(tmp))
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # the unstable-queue warning
                        if lib.cli.main(args) != 0:
                            raise SystemExit(f"{inv.name}: CLI failed")
                    text = out.read_text()
                    header, rows = checks.parse_csv(text)
                    if inv.check == "delay":
                        err = checks.delay_shape(inv, rows)
                        if err:
                            raise SystemExit(f"{inv.name}: {err}")
                    xc = CrossCheck(lib)
                    getattr(xc, inv.command)(inv, rows)
                    path = checks.ref_path(run.REFS, size, variant, inv.name)
                    with gzip.GzipFile(path, "wb", mtime=0) as fh:
                        fh.write(text.encode())
                    manifest["files"][path.name] = {
                        "rows": len(rows),
                        "closed_form_checks": {
                            k: {"values": n, "max_rel_diff": w} for k, (n, w) in xc.worst.items()
                        },
                    }
                    print(path.name, len(rows), xc.worst, flush=True)
    (run.REFS / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
