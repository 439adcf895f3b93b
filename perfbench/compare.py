#!/usr/bin/env python3
"""Compare two result sets of the benchmark: a parent and a change.

Run pairs in alternating order, then report:

    python3 perfbench/compare.py run --parent DIR --change DIR \
        --workload sweep --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

``DIR`` is the root of a source checkout holding ``perfbench/``; both
sides run with this checkout's benchmark settings (``BENCHMARK.json``),
including its ``run_seconds``.  There are ``PAIRS`` pairs; pair ``i`` uses
seed ``SEED0 + i`` on both sides, and the side that runs first alternates.
Without ``--change`` only the parent runs, and the report gives each
metric's run-to-run spread against its bound.

Per workload and end-to-end metric the report gives each side's median and
quartiles, the change's win fraction over all pairs (ties count for
neither), and a verdict: ``gain`` when the change wins at least 0.9 of the
pairs and the medians differ by more than the parent's quartile distance;
``unresolved`` when the parent's spread (quartile distance over median) is
wider than the bound, unless every change run beats every parent run;
``regression`` when the change's median is worse than the parent's by more
than the bound; otherwise ``no regression``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PAIRS = 10
SEED0 = 1000


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{root}: benchmark exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def cmd_run(args, spec) -> int:
    sides = [("parent", Path(args.parent).resolve())]
    if args.change:
        sides.append(("change", Path(args.change).resolve()))
    with open(args.out, "a") as fh:
        for i in range(PAIRS):
            order = sides if i % 2 == 0 else sides[::-1]
            for pos, (side, root) in enumerate(order):
                seed = SEED0 + i
                rec = {"workload": args.workload, "pair": i, "side": side, "seed": seed,
                       "first": pos == 0,
                       **run_once(root, args.workload, seed, spec["run_seconds"])}
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                print(f"pair {i} {side}: {json.dumps(rec['result']['metrics'])}", file=sys.stderr)
    return report(load(args.out), spec)


def load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, bound, lower_better) -> tuple[str, float | None]:
    def better(c, p):
        return c < p if lower_better else c > p

    p1, pm, p3 = _quartiles(parent)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if not change:
        return ("steady" if spread <= bound else "unsteady"), None
    wins = sum(better(c, p) for p, c in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    cm = statistics.median(change)
    all_better = all(better(c, p) for c in change for p in parent)
    worse = (cm - pm) / abs(pm) if lower_better else (pm - cm) / abs(pm)
    if spread > bound and not all_better:
        return "unresolved", win_frac
    if win_frac >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "gain", win_frac
    if worse > bound:
        return "regression", win_frac
    return "no regression", win_frac


def report(records: list[dict], spec) -> int:
    by_wl: dict[str, list[dict]] = {}
    for rec in records:
        by_wl.setdefault(rec["workload"], []).append(rec)
    for wl, recs in by_wl.items():
        print(f"## {wl}")
        for side in ("parent", "change"):
            mine = [r["result"] for r in recs if r["side"] == side]
            if mine:
                bad = sum(r["failed"] for r in mine)
                incorrect = sum(not r["correct"] for r in mine)
                print(f"{side}: {len(mine)} runs, {bad} failed invocations, {incorrect} incorrect runs")
        print(f"{'metric':<14} {'unit':<5} {'parent q1/med/q3':<30} {'change q1/med/q3':<30} "
              f"{'spread':>7} {'bound':>6} {'wins':>5}  verdict")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            vals = {}
            for r in recs:
                vals.setdefault(r["side"], {})[r["pair"]] = r["result"]["metrics"][name]["value"]
            parent = list(vals.get("parent", {}).values())
            change = list(vals.get("change", {}).values())
            if not parent:
                continue
            pairs = [(vals["parent"][i], vals["change"][i])
                     for i in vals.get("parent", {}) if i in vals.get("change", {})]
            v, win = verdict(parent, change, pairs, m["bound"], lower)
            p1, pm, p3 = _quartiles(parent)
            ptxt = f"{p1:.4g}/{pm:.4g}/{p3:.4g}"
            ctxt = "-"
            if change:
                c1, cm, c3 = _quartiles(change)
                ctxt = f"{c1:.4g}/{cm:.4g}/{c3:.4g}"
            spread = (p3 - p1) / abs(pm) if pm else float("inf")
            wtxt = "-" if win is None else f"{win:.2f}"
            print(f"{name:<14} {m['unit']:<5} {ptxt:<30} {ctxt:<30} {spread:7.3f} "
                  f"{m['bound']:6.2f} {wtxt:>5}  {v}")
    return 0


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run pairs in alternating order, then report")
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", help="root of the change checkout")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out", required=True, help="JSON-lines file the runs are appended to")
    r = sub.add_parser("report", help="report on recorded runs")
    r.add_argument("results", nargs="+")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args, spec)
    return report([rec for path in args.results for rec in load(path)], spec)


if __name__ == "__main__":
    raise SystemExit(main())
