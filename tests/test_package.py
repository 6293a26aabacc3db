"""The package imports each submodule on first use: a route compiles only
the modules it runs, and every exported name still resolves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import galcov

SRC = Path(galcov.__file__).resolve().parents[1]

# After each step, in a fresh interpreter: which of the on-demand modules
# are loaded.
LOADED_AFTER = """
import json, sys
loaded = lambda: [m for m in ("galcov.coxeter", "galcov.tietze") if m in sys.modules]
steps = {}
import galcov
steps["import galcov"] = sorted(m for m in sys.modules if m.startswith("galcov."))
import galcov.cli
steps["import galcov.cli"] = loaded()
report = galcov.cli.analyze("dt4", route=sys.argv[1])
steps["analyze"] = loaded()
steps["timings"] = sorted(report.timings)
print(json.dumps(steps))
"""


def loaded_after(route):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, route],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "route, modules",
    [
        ("enumerate", []),
        ("coxeter", ["galcov.coxeter"]),
        ("both", ["galcov.coxeter", "galcov.tietze"]),
    ],
)
def test_a_route_loads_only_the_modules_it_runs(route, modules):
    steps = loaded_after(route)
    assert steps["import galcov"] == []
    assert steps["import galcov.cli"] == []
    assert steps["analyze"] == modules
    # the modules compile in a stage of their own, outside the route's timers
    assert ("import" in steps["timings"]) == bool(modules)


# Every dataclass that a galcov module defines, after ``import galcov.cli``.
DATACLASSES = """
import dataclasses, sys
import galcov.cli
print(sorted(
    f"{name}.{attr}"
    for name, module in list(sys.modules.items()) if name.startswith("galcov")
    for attr, value in vars(module).items()
    if isinstance(value, type) and dataclasses.is_dataclass(value)
    and value.__module__ == name
))
"""


def test_the_only_dataclass_is_the_analysis_report():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", DATACLASSES],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "['galcov.cli.AnalysisReport']"


def test_every_export_is_its_modules_object():
    for name, module in galcov._EXPORTS.items():
        assert getattr(galcov, name) is getattr(importlib.import_module(f"galcov.{module}"), name)


def test_every_submodule_resolves():
    for name in galcov._SUBMODULES:
        assert getattr(galcov, name) is importlib.import_module(f"galcov.{name}")


def test_star_import_and_dir_list_the_api():
    namespace = {}
    exec("from galcov import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(galcov._EXPORTS) == set(galcov.__all__)
    assert set(galcov._EXPORTS) | galcov._SUBMODULES <= set(dir(galcov))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        galcov.no_such_name
    with pytest.raises(ImportError):
        from galcov import no_such_name  # noqa: F401
