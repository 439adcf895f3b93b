#!/usr/bin/env python3
"""Benchmark of the noma-effrate CLI: time to CSV, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,closed-form,delay} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every CLI invocation runs as a subprocess (``python -m
noma_effrate.cli``), one at a time, so interpreter start-up and import
count; outputs are checked after each invocation, outside the timed
region.  With ``--trace 1`` the same inputs run in-process through
``cli.main`` with spans around the library's public functions and the
per-layer metrics are printed instead.  The last line of stdout is the
result as JSON; the line before it holds the environment, sample counts
and any failure messages.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from importlib import metadata
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
SETUP_SAMPLES = 8  # fresh-interpreter imports per run, spread over its invocations
INVOCATION_TIMEOUT = 150.0  # seconds; a hung CLI run is killed and counts as failed
TRACE_REPEATS = 2  # import profiles, and --jobs 1 / --jobs 2 pairs

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "cli.pool_overhead_s": "s",
    "cli.self_s": "s",
    "cli.known_bad_failed": "count",
    "effrate.er_noma.calls": "count",
    "effrate.er_noma.self_s": "s",
    "effrate.power_search.calls": "count",
    "specfun.laguerre_expectation.calls": "count",
    "specfun.laguerre_expectation.self_s": "s",
    "channel.min_gain_mixture.calls": "count",
    "specfun.laguerre_log_expectation.calls": "count",
    "specfun.laguerre_log_expectation.self_s": "s",
    "snc.dvp_curve.self_s": "s",
    "snc.mellin_evals_per_delay": "1/delay",
    "specfun.fox_h2.calls": "count",
    "specfun.fox_h2.self_s": "s",
    "specfun.fox_h2.max_err": "rel",
    "specfun.meijer_g.calls": "count",
    "specfun.meijer_g.self_s": "s",
    "specfun.meijer_g.max_err": "rel",
    "closedform.self_s": "s",
    "sim.queue_dvp.self_s": "s",
    "sim.queue_dvp.slots_per_s": "1/s",
    "sim.queue_dvp.bytes_computed": "B",
    "sim.mc_effective_rate.self_s": "s",
    "sim.mc_effective_rate.draws_per_s": "1/s",
    "channel.sample_gain.self_s": "s",
    "trace.overhead_frac": "frac",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no source, wrong package, ...)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("NOMA_EFFRATE_LOG", None)
    return env


def import_library():
    """Import the package under test from this checkout's ``src/``."""
    if not (SRC / "noma_effrate" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import noma_effrate
    import noma_effrate.cli  # noqa: F401  (cli is not imported by the package)

    if SRC not in Path(noma_effrate.__file__).resolve().parents:
        raise SetupError(f"noma_effrate imported from {noma_effrate.__file__}, not {SRC}")
    return noma_effrate


def time_imports(env, repeats: int) -> list[float]:
    """Wall seconds for a fresh interpreter to import the package, per run."""
    cmd = [sys.executable, "-c", "import noma_effrate"]
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def import_profile(env) -> tuple[float, float]:
    """Cumulative import seconds of noma_effrate and scipy.stats (-X importtime)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import noma_effrate"],
        env=env, check=True, capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    cum = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
        if m:
            cum[m.group(2)] = int(m.group(1)) / 1e6
    return cum.get("noma_effrate", 0.0), cum.get("scipy.stats", 0.0)


def argv_for(inv, workdir: Path, suffix: str = "") -> tuple[list[str], Path]:
    cfg = workdir / f"{inv.name}.ini"
    cfg.write_text(inv.config)
    out = workdir / f"{inv.name}{suffix}.csv"
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    args = [inv.command, "--config", str(cfg), "--out", str(out), "--jobs", str(inv.jobs)]
    return args, out


def run_cli(inv, workdir: Path, env, suffix: str = "") -> dict:
    """One CLI subprocess: wall seconds, peak RSS (os.wait4), exit status."""
    args, out = argv_for(inv, workdir, suffix)
    errfile = workdir / f"{inv.name}{suffix}.stderr"
    with open(errfile, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "noma_effrate.cli", *args],
            env=env, cwd=workdir, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        guard = threading.Timer(INVOCATION_TIMEOUT, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            guard.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = errfile.read_text(errors="replace")
    error = None
    if proc.returncode != 0:
        error = f"exit {proc.returncode}: {(stderr.strip().splitlines() or [''])[-1]}"
    elif "Traceback" in stderr:
        error = "traceback on stderr"
    return {
        "name": inv.name, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
        "error": error, "out": out,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would fall under the median; the upper
    quartile is reported instead, because the maximum of a few samples
    jumps with single outliers.  Returns (value, percentile).
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], 100.0 * (n - 10) / n
    if n == 1:
        return xs[0], 100.0
    return statistics.quantiles(xs, n=4)[2], 75.0


def measure(invs, passes: int, workdir: Path, env, checker, setup_samples: int = 1) -> dict:
    """Untraced run: every invocation as a subprocess, ``passes`` times.

    The ``setup_samples`` import timings are spread evenly between the
    invocations, so ``setup_s`` sees the same stretch of machine time as
    ``wall_s``.
    """
    records, pass_walls, pass_rates, probes, failures, setup = [], [], [], [], [], []
    total = passes * len(invs)
    for p in range(passes):
        outputs: dict[str, Path] = {}
        wall = rows = 0
        for k, inv in enumerate(invs):
            due = round(setup_samples * (p * len(invs) + k + 1) / total)
            setup += time_imports(env, due - len(setup))
            r = run_cli(inv, workdir, env)
            outputs[inv.name] = r["out"]
            err, n = (r["error"], 0) if r["error"] else checker.check(inv, r["out"], outputs)
            if inv.probe:
                probes.append({"name": inv.name, "pass": p, "wall_s": r["wall"], "error": err})
                continue
            records.append(r)
            wall += r["wall"]
            rows += n
            if err:
                failures.append(f"pass {p} {inv.name}: {err}")
        pass_walls.append(wall)
        pass_rates.append(rows / wall)
    walls = [r["wall"] for r in records]
    tail_s, tail_pct = tail(walls)
    by_name = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r["wall"])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_walls),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail_s,
        "rows_per_s": statistics.median(pass_rates),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "ok_frac": 1.0 - len(failures) / len(records),
    }
    samples = {
        "setup_s": len(setup), "wall_s": passes, "rows_per_s": passes,
        "cmd_p50_s": len(walls), "cmd_tail_s": len(walls), "peak_rss_mb": len(walls),
        "ok_frac": len(walls),
    }
    return {
        "metrics": metrics, "samples": samples, "attempted": len(records),
        "failures": failures, "known_bad": probes,
        "cmd_tail_percentile": tail_pct, "passes": passes,
        "invocation_wall_s": {k: statistics.median(v) for k, v in by_name.items()},
    }


def no_span(name: str):
    return contextlib.nullcontext()


def call_main(lib, inv, workdir: Path, root, checker) -> tuple[str | None, float, int]:
    """One invocation through ``cli.main`` in this process, inside ``root``:
    (error or None, wall seconds, verified rows).  The check is not timed."""
    args, out = argv_for(inv, workdir, "-inproc")
    t0 = time.perf_counter()
    with root("cli.main"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e.g. the unstable-queue warning
        try:
            code = lib.cli.main(args)
            err = None if code == 0 else f"exit {code}"
        except Exception as exc:  # the CLI let an exception escape
            err = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if err is not None:
        return err, elapsed, 0
    err, n = checker.check(inv, out, {})
    return err, elapsed, n


def run_inprocess(lib, invs, workdir: Path, make_checker, tracer) -> dict:
    """Each invocation twice through ``cli.main`` in this process, untraced
    and traced back to back, alternating which goes first, so both see the
    same machine speed and warm caches on average.  Probes run once,
    untraced, so they stay out of the layer metrics."""
    tally = {
        mode: {"wall": 0.0, "attempted": 0, "failures": [], "delay_targets": 0}
        for mode in ("untraced", "traced")
    }
    known_bad = 0
    for i, inv in enumerate(invs):
        if inv.probe:
            err, _, _ = call_main(lib, inv, workdir, no_span, make_checker(None))
            known_bad += err is not None
            continue
        for mode in ("untraced", "traced")[:: 1 if i % 2 == 0 else -1]:
            t = tally[mode]
            if mode == "traced":
                tracer.patch(lib)
                try:
                    err, elapsed, n = call_main(
                        lib, inv, workdir, tracer.root, make_checker(tracer)
                    )
                finally:
                    tracer.restore()
            else:
                err, elapsed, n = call_main(lib, inv, workdir, no_span, make_checker(None))
            t["attempted"] += 1
            t["wall"] += elapsed
            if err:
                t["failures"].append(f"in-process {mode} {inv.name}: {err}")
            elif inv.command == "dvp":
                t["delay_targets"] += n
    return {**tally, "known_bad": known_bad}


def pool_overhead(invs, workdir: Path, env, repeats: int) -> tuple[float, int, list[str]]:
    """Wall with --jobs 2 minus wall with --jobs 1 on the same config."""
    pairs = [
        (base, inv)
        for inv in invs if inv.check.startswith("same:")
        for base in invs if base.name == inv.check[5:]
    ]
    if not pairs:
        return 0.0, 0, []
    base, pooled = pairs[0]
    one, two, failures = [], [], []
    for _ in range(repeats):
        a = run_cli(base, workdir, env, "-pool")
        b = run_cli(pooled, workdir, env, "-pool")
        for r, inv in ((a, base), (b, pooled)):
            if r["error"]:
                failures.append(f"pool {inv.name}: {r['error']}")
        if not (a["error"] or b["error"]) and a["out"].read_bytes() != b["out"].read_bytes():
            failures.append(f"pool {pooled.name}: output differs from {base.name}")
        one.append(a["wall"])
        two.append(b["wall"])
    return statistics.median(two) - statistics.median(one), 2 * repeats, failures


def layer_metrics(summary: dict, delay_targets: int) -> dict[str, float]:
    def get(name, key="self_s"):
        return float(summary[name][key]) if name in summary else 0.0

    def max_note(name):
        notes = summary[name]["notes"] if name in summary else []
        return max(notes, default=0.0)

    def rate(name, units):
        total = get(name, "total_s")
        return units / total if total > 0 else 0.0

    queue_notes = summary["sim.queue_dvp"]["notes"] if "sim.queue_dvp" in summary else []
    slots = sum(n[0] for n in queue_notes)
    # bytes written by the arrays queue_dvp allocates, from their shapes:
    # per slot the gain draws (1 strong, 3 weak) and nine float64 arrays;
    # per observation five 8-byte arrays and one bool per delay target
    queue_bytes = sum(
        8 * s * ((1 if user == "strong" else 3) + 9) + obs * (40 + vmax + 1)
        for s, user, vmax, obs in queue_notes
    )
    draws = sum(summary["sim.mc_effective_rate"]["notes"]) if "sim.mc_effective_rate" in summary else 0
    lle_calls = get("specfun.laguerre_log_expectation", "calls")
    return {
        "cli.self_s": get("cli.main"),
        "effrate.er_noma.calls": get("effrate.er_noma", "calls"),
        "effrate.er_noma.self_s": get("effrate.er_noma"),
        "effrate.power_search.calls": get("effrate.power_search", "calls"),
        "specfun.laguerre_expectation.calls": get("specfun.laguerre_expectation", "calls"),
        "specfun.laguerre_expectation.self_s": get("specfun.laguerre_expectation"),
        "channel.min_gain_mixture.calls": get("channel.min_gain_mixture", "calls"),
        "specfun.laguerre_log_expectation.calls": lle_calls,
        "specfun.laguerre_log_expectation.self_s": get("specfun.laguerre_log_expectation"),
        "snc.dvp_curve.self_s": get("snc.dvp_curve"),
        "snc.mellin_evals_per_delay": lle_calls / delay_targets if delay_targets else 0.0,
        "specfun.fox_h2.calls": get("specfun.fox_h2", "calls"),
        "specfun.fox_h2.self_s": get("specfun.fox_h2"),
        "specfun.fox_h2.max_err": max_note("specfun.fox_h2"),
        "specfun.meijer_g.calls": get("specfun.meijer_g", "calls"),
        "specfun.meijer_g.self_s": get("specfun.meijer_g"),
        "specfun.meijer_g.max_err": max_note("specfun.meijer_g"),
        "closedform.self_s": sum(
            (v["self_s"] for k, v in summary.items() if k.startswith("closedform.")), 0.0
        ),
        "sim.queue_dvp.self_s": get("sim.queue_dvp"),
        "sim.queue_dvp.slots_per_s": rate("sim.queue_dvp", slots),
        "sim.queue_dvp.bytes_computed": float(queue_bytes),
        "sim.mc_effective_rate.self_s": get("sim.mc_effective_rate"),
        "sim.mc_effective_rate.draws_per_s": rate("sim.mc_effective_rate", draws),
        "channel.sample_gain.self_s": get("channel.sample_gain"),
    }


def measure_traced(lib, invs, workdir: Path, env, make_checker, repeats: int) -> dict:
    """Per-layer run: import profile, pool overhead, then the workload's
    inputs in-process, untraced and traced."""
    profiles = [import_profile(env) for _ in range(repeats)]
    pool_s, pool_n, failures = pool_overhead(invs, workdir, env, repeats)
    tracer = spans.Tracer()
    tally = run_inprocess(lib, [inv for inv in invs if inv.jobs == 1], workdir, make_checker, tracer)
    plain, traced = tally["untraced"], tally["traced"]
    metrics = {
        "cli.import_s": statistics.median(p[0] for p in profiles),
        "cli.import_scipy_stats_s": statistics.median(p[1] for p in profiles),
        "cli.pool_overhead_s": pool_s,
        "cli.known_bad_failed": float(tally["known_bad"]),
        **layer_metrics(tracer.summary(), traced["delay_targets"]),
        "trace.overhead_frac": traced["wall"] / plain["wall"] - 1.0,
    }
    return {
        "metrics": metrics,
        "samples": {
            "cli.import_s": repeats, "cli.import_scipy_stats_s": repeats,
            "cli.pool_overhead_s": pool_n,
        },
        "attempted": plain["attempted"] + traced["attempted"] + pool_n,
        "failures": failures + plain["failures"] + traced["failures"],
        "known_bad": tally["known_bad"],
        "inprocess_wall_s": {"untraced": plain["wall"], "traced": traced["wall"]},
    }


def environment(workload: str, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if Path(top[0]).resolve() == ROOT:
            commit = top[1]
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every grid to a few rows (for the smoke test)",
    )
    args = parser.parse_args(argv)
    tiny = args.size == "tiny"
    try:
        lib = import_library()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = child_env()
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        invs = workloads.build(args.workload, args.seed, tiny)
        variant = workloads.variant_of(args.seed)

        def make_checker(tracer):
            span = (lambda: tracer.root("check.referee")) if tracer else None
            return checks.Checker(lib, REFS, args.size, variant, args.seed, span)

        time_imports(env, 1)  # untimed: writes bytecode caches, warms the file cache
        if args.trace:
            res = measure_traced(lib, invs, workdir, env, make_checker, 1 if tiny else TRACE_REPEATS)
            units = LAYER_UNITS
        else:
            passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
            res = measure(
                invs, passes, workdir, env, make_checker(None), 1 if tiny else SETUP_SAMPLES
            )
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for msg in res["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    detail = {
        "env": environment(args.workload, args.seed),
        **{k: v for k, v in res.items() if k not in ("metrics", "attempted")},
    }
    result = {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
