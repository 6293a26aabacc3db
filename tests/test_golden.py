"""Whole-report regression net: JSON reports against committed golden copies.

The files in ``tests/golden/`` were written, before the incremental Tietze
rewrite of ``simplify_presentation``, by

    emit_report(analyze(name, route=route), "json")

for ``name`` in t4, dt4 and ``route`` in enumerate, coxeter, both, with the
``timings`` key removed and the rest re-serialized by
``json.dumps(data, indent=2)``.  Timings vary from run to run; every other
field must match exactly.  Since Reidemeister-Schreier gives one Schreier
generator per orbit of an involution, ``routes.enumeration.subgroup_generators``
reads 49 (t4) and 2521 (dt4) where the files first held 121 and 5761.
Since the enumerate route takes |G~| = n!|K| from the kernel presentation
and enumerates no coset table of G~, ``kernel_cross_check.from_index`` and
``agree`` read null in the ``*-enumerate.json`` files (they held 1 and 16,
and true): there is no table to read the index from.  Under ``both``, G~
is enumerated over an S_n complement H instead of the trivial subgroup;
[G~:H]|H| must equal n!|K|, and ``from_index`` keeps its value, |K|.
Since the Coxeter route checks for a projective relator before it
reduces anything, ``routes.coxeter.reason`` in ``t4-coxeter.json`` and
``t4-both.json`` reads "no projective relator to quotient by" (it held
the braid-cycle failure that recognition used to report first).

Schema 2 (the enumerate route decides K from its regular action on the
table of G~ over H; the kernel presentation is built only under ``both``):

* ``schema`` reads 2 in all six files;
* ``routes.enumeration`` drops ``tilde_order`` and ``kernel_order``
  (they repeated the top-level fields), ``kernel_order_from_presentation``,
  ``subgroup_generators``, ``simplified_generators``, ``mod2_corank`` and
  ``invariant_factors``, and gains what the verdict is read from:
  ``complement_generators`` (the names of the path generators spanning
  H, empty when H is trivial), ``index`` ([G~:H], the table's rows) and
  ``invariants`` (of K/K', here K itself: [] on t4, [2, 2, 2, 2] on dt4);
* in the ``*-enumerate.json`` files ``kernel_cross_check`` is null: only
  ``both`` has a kernel presentation to check the index against.

The ``*-coxeter.json`` files change in ``schema`` only.
"""

import json
from pathlib import Path

import pytest

from galcov.cli import analyze, emit_report

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("route", ["enumerate", "coxeter", "both"])
@pytest.mark.parametrize("name", ["t4", "dt4"])
def test_report_matches_golden(name, route):
    report = json.loads(emit_report(analyze(name, route=route), "json"))
    report.pop("timings")
    golden = json.loads((GOLDEN / f"{name}-{route}.json").read_text(encoding="utf-8"))
    assert report == golden
