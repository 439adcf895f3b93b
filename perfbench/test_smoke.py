"""Fast smoke test of the benchmark itself, at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every metric named in BENCHMARK.json must be printed with its unit, and a
corrupted output row must be counted as a failed invocation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# column corrupted in the first data row of each command's CSV
CORRUPT_COLUMN = {"er": 6, "dvp": 5, "approx": 1, "power": 2}


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _write(path: Path, header: str, rows):
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")


def _corrupt(path: Path, command: str):
    header, rows = checks.parse_csv(path.read_text())
    col = CORRUPT_COLUMN[command]
    rows[0][col] = repr(float(rows[0][col]) * 1.01 + 0.01)
    _write(path, header, rows)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_row_counts_as_failure(workload, tmp_path, monkeypatch):
    lib = run.import_library()
    invs = workloads.build(workload, 3, tiny=True)
    victim = next(inv for inv in invs if not inv.probe)
    real_run_cli = run.run_cli

    def corrupting_run_cli(inv, workdir, env, suffix=""):
        r = real_run_cli(inv, workdir, env, suffix)
        if inv is victim:
            _corrupt(r["out"], inv.command)
        return r

    monkeypatch.setattr(run, "run_cli", corrupting_run_cli)
    checker = checks.Checker(lib, run.REFS, "tiny", workloads.variant_of(3), 3)
    res = run.measure(invs, 1, tmp_path, run.child_env(), checker)
    assert len(res["failures"]) == 1, res["failures"]
    assert res["failures"][0].startswith(f"pass 0 {victim.name}:")
    assert res["metrics"]["ok_frac"] < 1.0


def test_minimizer_must_reproduce_the_bound(tmp_path):
    lib = run.import_library()
    inv = workloads.build("delay", 3, tiny=True)[0]
    args, out = run.argv_for(inv, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the unstable-queue warning
        assert lib.cli.main(args) == 0
    checker = checks.Checker(lib, run.REFS, "tiny", workloads.variant_of(3), 3)
    header, rows = checks.parse_csv(out.read_text())
    assert checker.check(inv, out, {}) == (None, len(rows))
    row = next(r for r in rows if r[4] == "true" and float(r[2]) < 1.0)
    row[3] = repr(float(row[3]) * 1.001)
    _write(out, header, rows)
    err, _ = checker.check(inv, out, {})
    assert err is not None and "minimizer_s" in err


def test_refuses_a_directory_without_the_package(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in HERE.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
