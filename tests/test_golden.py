"""Whole-report regression net: reports against committed golden copies.

``tests/golden/`` holds, for ``name`` in t4, dt4 and dt4-power2 and
``route`` in enumerate, coxeter and both, where dt4-power2 is the file
``dt4-power2.json`` that ``conftest.write_dt4_power`` writes for k = 2 (dt4
with its projective relator twice), read from the working directory:

* ``{name}-{route}.json``: ``emit_report(analyze(name, route=route), "json")``
  with the ``timings`` key removed and the rest re-serialized by
  ``json.dumps(data, indent=2)``.  Timings vary from run to run; every
  other field must match exactly.  The files are schema 2: the enumerate
  route reads |K| and its verdict from K's regular action on the table of
  G~ over an S_n complement, and only ``both`` builds a presentation of K
  to cross-check it (``kernel_cross_check`` is null elsewhere).
* ``{name}-{route}.txt``: ``emit_report(analyze(name, route=route), "text")``
  byte for byte.  The text report carries no timings.

A change that alters a report on purpose rewrites the affected files
with the calls above and says which fields changed and why.
"""

import json
from pathlib import Path

import pytest

from galcov.cli import analyze, emit_report

from .conftest import write_dt4_power

GOLDEN = Path(__file__).parent / "golden"
NAMES = ["t4", "dt4", "dt4-power2"]


def source(name, tmp_path, monkeypatch):
    """The source that ``analyze`` reads for ``name``: a builtin, or the
    dt4^2 file under a relative path, so that the report names it alike."""
    if name != "dt4-power2":
        return name
    monkeypatch.chdir(tmp_path)
    return write_dt4_power(Path(f"{name}.json"), 2).name


@pytest.mark.parametrize("route", ["enumerate", "coxeter", "both"])
@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name, route, tmp_path, monkeypatch):
    src = source(name, tmp_path, monkeypatch)
    report = json.loads(emit_report(analyze(src, route=route), "json"))
    report.pop("timings")
    golden = json.loads((GOLDEN / f"{name}-{route}.json").read_text(encoding="utf-8"))
    assert report == golden


@pytest.mark.parametrize("route", ["enumerate", "coxeter", "both"])
@pytest.mark.parametrize("name", NAMES)
def test_text_report_matches_golden(name, route, tmp_path, monkeypatch):
    report = emit_report(analyze(source(name, tmp_path, monkeypatch), route=route), "text")
    assert report == (GOLDEN / f"{name}-{route}.txt").read_bytes()
