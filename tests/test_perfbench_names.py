"""The library names the benchmark in ``perfbench/`` reaches for must exist.

``perfbench/spans.py`` swaps wrappers into the namespaces its PATCHES list,
and ``perfbench/checks.py`` calls the library through the package object;
a rename in the library would otherwise only show as a broken benchmark.
"""

import importlib.util
import re
from pathlib import Path

import numpy as np

import noma_effrate
import noma_effrate.cli  # noqa: F401  (the package does not import cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
