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

``tests/golden/matrix.json`` is the report matrix's digest: for each case
of :func:`matrix_groups`, run through ``cli.main`` in a working directory
that holds the matrix's files, a short hash of the exit code, stdout (a
JSON report less its ``timings``) and stderr.  It maps ``"{source}
{route}"`` to the hashes of that group's cases, in the order of its
bounds and then of ``FORMATS``.  Regenerate it, after a change that
alters a report on purpose, with::

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from galcov.cli import analyze, emit_report, main
from galcov.datasets import DT4_JSON, T4_JSON

from .conftest import load_relabel_json, write_dt4_power

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


# ---------------------------------------------------------------------------
# the report matrix

ROUTES = ["enumerate", "coxeter", "both"]
# None is the default bound; the others straddle each bound of t4, dt4 and
# their relabelings: the complement search, the enumeration over the
# complement, the regular action's lookups and the n!-row kernel table
BOUNDS = [None, 3, 4, 5, 6, 20, 30, 50, 73, 74, 79, 80, 101, 255, 256, 720]
FORMATS = ["json", "text"]
MATRIX = GOLDEN / "matrix.json"


def matrix_cases():
    """(group, argv) of each case, group by group: t4, dt4 and seeds 0-5 of
    their relabelings on every route and bound, dt4^2 on every route,
    dt4^3 at the default bound and at 40000, a directory and a missing
    file, each in every format."""
    sources = ["t4", "dt4"] + [f"{n}-relabel{s}.json" for n in ("t4", "dt4") for s in range(6)]
    groups = [(src, route, BOUNDS) for src in sources for route in ROUTES]
    groups += [("dt4-power2.json", route, [None]) for route in ROUTES]
    groups += [("dt4-power3.json", route, [None, 40000]) for route in ROUTES[:2]]
    groups += [(".", "enumerate", [None]), ("missing.json", "enumerate", [None])]
    for src, route, bounds in groups:
        for bound in bounds:
            bound_args = [] if bound is None else ["--max-cosets", str(bound)]
            for fmt in FORMATS:
                argv = ["analyze", src, "--route", route, *bound_args, "--format", fmt]
                yield f"{src} {route}", argv


def write_matrix_sources():
    """Write the matrix's files into the working directory."""
    relabel_json = load_relabel_json()
    for name, text in (("t4", T4_JSON), ("dt4", DT4_JSON)):
        for seed in range(6):
            Path(f"{name}-relabel{seed}.json").write_text(
                relabel_json(text, random.Random(seed)), encoding="utf-8"
            )
    for k in (2, 3):
        write_dt4_power(Path(f"dt4-power{k}.json"), k)


def case_hash(argv):
    """Short hash of ``main(argv)``'s exit code, stdout and stderr."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    stdout = out.buffer.getvalue().decode("utf-8")
    if stdout and argv[-1] == "json":
        data = json.loads(stdout)
        data.pop("timings")
        stdout = json.dumps(data, indent=2)
    blob = json.dumps([code, stdout, err.getvalue()]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:8]


def matrix_digest():
    """The digest of every case, run in the working directory."""
    write_matrix_sources()
    digest = {}
    for group, argv in matrix_cases():
        digest.setdefault(group, []).append(case_hash(argv))
    return digest


def test_report_matrix_matches_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = matrix_digest()
    want = json.loads(MATRIX.read_text(encoding="utf-8"))
    pairs = zip(matrix_cases(), *(itertools.chain(*d.values()) for d in (got, want)))
    changed = [" ".join(argv) for (_, argv), g, w in pairs if g != w]
    assert got == want, "reports changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        digest = matrix_digest()
        os.chdir(here)
    lines = [f"  {json.dumps(key)}: {json.dumps(hashes)}" for key, hashes in digest.items()]
    MATRIX.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {MATRIX}: {sum(map(len, digest.values()))} cases", file=sys.stderr)
