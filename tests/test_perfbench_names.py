"""The library names the benchmark in ``perfbench/`` reaches for must exist.

``perfbench/spans.py`` swaps wrappers into the namespaces its PATCHES list,
and ``perfbench/checks.py`` calls the library through the package object;
a rename in the library would otherwise only show as a broken benchmark.
"""

import importlib.util
import re
from pathlib import Path

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
