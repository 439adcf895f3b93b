"""The library names the benchmark in ``perfbench/`` reaches for must exist,
and the benchmark's ``delay`` gate must pass.

``perfbench/spans.py`` swaps wrappers into the namespaces its PATCHES list,
and ``perfbench/checks.py`` calls the library through the package object;
a rename in the library would otherwise only show as a broken benchmark.
The ``delay`` outputs are held to their stored references bit for bit, so
a change to the queue simulator's random stream fails here first.
"""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import noma_effrate
import noma_effrate.cli  # noqa: F401  (the package does not import cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_span_patches_resolve():
    for mod_name, attr, span in _load("spans").PATCHES:
        patched = getattr(getattr(noma_effrate, mod_name), attr)
        def_mod, func = span.split(".")
        # the span is named after the function the patched name is bound to
        assert patched is getattr(getattr(noma_effrate, def_mod), func), (mod_name, attr)


def test_checks_call_existing_names():
    source = (PERFBENCH / "checks.py").read_text()
    used = set(re.findall(r"\blib\.([A-Za-z_][\w.]*)", source))
    assert {
        "mellin_strong",
        "mellin_weak",
        "sim.mc_effective_rate",
        "SimPlan",
        "SncConfig",
        "er_noma",
        "er_oma",
    } <= used
    for dotted in used:
        obj = noma_effrate
        for part in dotted.split("."):
            obj = getattr(obj, part)
        assert callable(obj), dotted


def test_contour_notes_take_batches():
    # a traced run notes each contour call's error and takes the largest over
    # the notes; a call over an array of arguments must note one float
    from noma_effrate.specfun import FoxH2Spec, MeijerGSpec, fox_h2, meijer_g

    notes = _load("spans").NOTES
    z = np.array([0.5, 2.0, 7.0])
    calls = [
        ("specfun.meijer_g", (MeijerGSpec(a=(0.3,), b=(0.0, 0.5), m=2, n=1), z)),
        ("specfun.meijer_g", (MeijerGSpec(a=(), b=(0.0,), m=1, n=0), 1.3)),
        ("specfun.fox_h2", (FoxH2Spec(outer_c=2.0, outer_r=1.0, power=0.7213), z, 0.2 * z)),
    ]
    funcs = {"specfun.meijer_g": meijer_g, "specfun.fox_h2": fox_h2}
    results = [(name, args, funcs[name](*args)) for name, args in calls]
    noted = [notes[name](args, {}, r) for name, args, r in results]
    assert all(isinstance(n, float) for n in noted)
    assert max(noted, default=0.0) == max(r.error for _, _, r in results)
    assert [np.size(r.value) for _, _, r in results] == [z.size, 1, z.size]


def test_queue_note_takes_the_cli_call(tmp_path, monkeypatch):
    # a traced dvp notes (slots, users, max_delay, observations) of its one
    # queue simulation, which serves both users
    calls = []
    queue_dvp = noma_effrate.cli.queue_dvp

    def record(*args, **kwargs):
        calls.append((args, kwargs, queue_dvp(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(noma_effrate.cli, "queue_dvp", record)
    config = tmp_path / "dvp.ini"
    config.write_text("[snc]\nlambda = 100\nvartheta_max = 6\n[sim]\nslots = 4000\n")
    assert noma_effrate.cli.main(["dvp", "--config", str(config), "--out", str(tmp_path / "dvp.csv")]) == 0
    assert len(calls) == 1
    note = _load("spans").NOTES["sim.queue_dvp"](*calls[0])
    assert note == (4000, ("strong", "weak"), 6, 4000 - 400 - 6)


@pytest.mark.parametrize("variant", range(4))
def test_tiny_delay_matches_stored_references(tmp_path, variant):
    # the benchmark's delay check: shape, then every column but minimizer_s
    # equal to the stored reference at zero absolute tolerance, and the bracket
    # at each reported minimizer_s reproducing the bound (the check's _minimizer)
    workloads, checks = _load("workloads"), _load("checks")
    checker = checks.Checker(noma_effrate, PERFBENCH / "refs", "tiny", variant, seed=0)
    for inv in workloads.delay(variant, tiny=True):
        config, out = tmp_path / f"{inv.name}.ini", tmp_path / f"{inv.name}.csv"
        config.write_text(inv.config)
        assert noma_effrate.cli.main([inv.command, "--config", str(config), "--out", str(out)]) == 0
        header, rows = checks.parse_csv(out.read_text())
        ref = checks.read_ref(checks.ref_path(PERFBENCH / "refs", "tiny", variant, inv.name))
        assert checks.delay_shape(inv, rows) is None, inv.name
        assert checks.compare_rows(header, rows, ref, atol=0.0, skip=("minimizer_s",)) is None, inv.name
        assert checker._minimizer(inv, rows) is None, inv.name
