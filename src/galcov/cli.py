"""End-to-end analysis pipeline and command-line interface.

``analyze`` drives the full computation for one degeneration: validate,
classify, count singularities, Chern numbers and signature, generate the
group presentation, map it onto the symmetric group S_n, and identify the
kernel K (= the fundamental group of the Galois cover) from one
Todd-Coxeter table of G~ over an S_n complement H, with [G~:H] = |K| cosets
(undecided when ``complement_path`` finds no H within the bound): |G~| =
[G~:H]|H| = n!|K|, and the verdict comes from K's regular action on the
table, read from at most log2 |K| generators, one Schreier graph and
SNF.  ``both`` adds an independent presentation of K (the n!-row kernel
table, Reidemeister-Schreier, Tietze simplification, an enumeration of K,
SNF); its |K| and invariants must match, and it decides alone when the
table does not.  The Coxeter-quotient route (``coxeter`` or ``both``)
reads no table of G~: it needs a projective relator, derives its
elimination plan from a Hamiltonian cycle of the plane graph, checks it
in the affine symmetric group and proves it by one enumeration of index 1
over the cycle; without a projective relator it reports itself
unsupported.  So ``coxeter`` alone builds no table of G~, and ``both``
compares two independent exact computations.  The first decided verdict
stands: one left undetermined, such as the kernel presentation's |K|
without invariants, yields to the Coxeter route's, and the routes then
agree when both give |K| and it is the same.

``max_cosets`` bounds every table and search: the complement search, the
enumeration over H, the |K|(floor(log2 |K|) + 1) table lookups of the
regular action (checked before the first), the n!-row kernel table
(checked before a row is built), the kernel enumeration, and the Coxeter
route's cycle walk, chord window combinations and enumeration over its
cycle.  Each bound hit adds one warning
``undecided at bound: ...``, in the order the stages hit them; when no
route decides, pi1's note is ``undecided at bound N`` after a bound hit,
else ``no route produced a verdict``.

Exit codes: 0 definite verdict, 1 undecided (a table hit ``max_cosets``,
or no requested route could decide), 2 input errors.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .complexes import (
    ComplexError,
    DegenerationComplex,
    Inner3,
    Inner4,
    classify_vertex,
    parse_complex,
    validate,
)
from .datasets import BUILTIN_SOURCES, builtin_names, load_builtin
from .enumeration import EnumerationOverflow, coset_enumeration
from .invariants import InvariantError, chern_signature, singularity_counts
from .kernel import (
    KernelError,
    StructureVerdict,
    abelianization,
    identify_structure,
    kernel_coset_table,
    regular_kernel,
    reidemeister_schreier,
)
from .permutations import (
    permutation_group_order,
    plane_transposition_map,
    verify_homomorphism,
)
from .presentation import (
    PresentationError,
    SearchBound,
    build_tilde_presentation,
    complement_path,
    format_relation,
    projective_relator,
)


# The Coxeter route and Tietze simplification run on only some routes, so
# their modules are imported on the first call, not with this one.  Both
# names stay module-level: a profiler may rebind them here.
def coxeter_route(pres, proj, symmetric, bound):
    """:func:`galcov.coxeter.coxeter_route`, importing its module on call."""
    from .coxeter import coxeter_route as route

    return route(pres, proj, symmetric, bound)


def simplify_presentation(pres):
    """:func:`galcov.tietze.simplify_presentation`, importing its module on
    call."""
    from .tietze import simplify_presentation as simplify

    return simplify(pres)


SCHEMA_VERSION = 2
DEFAULT_MAX_COSETS = 1_000_000
_SNF_GENERATOR_LIMIT = 64


class AnalysisError(Exception):
    """Pipeline failure with the stage where it happened: an input error."""

    exit_code = 2

    def __init__(self, stage, message):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass
class AnalysisReport:
    source: str
    name: str
    complex_summary: dict
    counts: dict
    chern: dict
    routes_requested: str
    tilde_order: int | None = None
    symmetric_degree: int | None = None
    symmetric_image_order: int | None = None
    kernel_order: int | None = None
    kernel_cross_check: dict | None = None
    pi1: dict | None = None
    enumeration_route: dict | None = None
    coxeter_route: dict | None = None
    route_agreement: bool | None = None
    undecided: bool = False
    presentation_dump: list[str] | None = None
    warnings: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self):
        data = {
            "schema": SCHEMA_VERSION,
            "source": self.source,
            "name": self.name,
            "complex": self.complex_summary,
            "counts": self.counts,
            "chern": self.chern,
            "routes_requested": self.routes_requested,
            "tilde_order": self.tilde_order,
            "symmetric_degree": self.symmetric_degree,
            "symmetric_image_order": self.symmetric_image_order,
            "kernel_order": self.kernel_order,
            "kernel_cross_check": self.kernel_cross_check,
            "pi1": self.pi1,
            "routes": {
                "enumeration": self.enumeration_route,
                "coxeter": self.coxeter_route,
            },
            "route_agreement": self.route_agreement,
            "undecided": self.undecided,
            "warnings": self.warnings,
            "timings": self.timings,
        }
        if self.presentation_dump is not None:
            data["presentation"] = self.presentation_dump
        return data


def _json_value(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _verdict_dict(v: StructureVerdict) -> dict:
    out = {"kind": v.kind}
    if v.kind == "ElementaryAbelian2":
        out["rank"] = v.rank
    if v.kind == "AbelianInvariantFactors":
        out["factors"] = list(v.factors)
    if v.kind == "NonAbelian":
        out.update(order=v.order, centre_order=v.centre_order, derived_order=v.derived_order)
    if v.kind == "Undetermined":
        if v.order is not None:
            out["order"] = v.order
        if v.factors is not None:
            out["factors"] = list(v.factors)
        if v.note:
            out["note"] = v.note
    return out


def _verdicts_equal(a: StructureVerdict, b: StructureVerdict) -> bool:
    return _verdict_dict(a) == _verdict_dict(b)


def _routes_agree(a: StructureVerdict, b: StructureVerdict) -> bool | None:
    """Two decided verdicts agree when they are equal.  With one
    undetermined, the routes agree when both give |K| and it is the same,
    and say nothing when either gives none."""
    if "Undetermined" in (a.kind, b.kind):
        return None if None in (a.order, b.order) else a.order == b.order
    return _verdicts_equal(a, b)


def load_source(source: str) -> tuple[str, DegenerationComplex]:
    """Resolve a builtin name or a file path into a complex."""
    if source in BUILTIN_SOURCES:
        return f"builtin:{source}", load_builtin(source)
    path = Path(source)
    if not path.exists():
        raise AnalysisError(
            "parse",
            f"{source!r} is neither a builtin dataset ({', '.join(builtin_names())}) "
            "nor an existing file",
        )
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's text names the path again: give its reason alone
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise AnalysisError("parse", f"cannot read {source}: {reason}") from exc
    return str(path), parse_complex(text)


def analyze(
    source: str,
    route: str = "enumerate",
    max_cosets: int = DEFAULT_MAX_COSETS,
    emit_presentation: bool = False,
) -> AnalysisReport:
    """Run the full pipeline on a builtin name or degeneration file."""
    if route not in ("enumerate", "coxeter", "both"):
        raise AnalysisError("options", f"unknown route {route!r}")
    if max_cosets < 1:
        raise AnalysisError("options", f"max_cosets must be at least 1, got {max_cosets}")
    timings = {}
    bound_hits: list[str] = []

    # times a stage, also one that raises; names it in the AnalysisError of
    # its input errors ``errors``; and, when its enumeration stops at
    # ``max_cosets``, records its ``overflow`` text as a bound hit
    def timed(stage, fn, *args, errors=(), overflow=None, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except errors as exc:
            raise AnalysisError(stage, str(exc)) from exc
        except EnumerationOverflow:
            bound_hits.append(overflow)
            return None
        finally:
            timings[stage] = round(time.perf_counter() - t0, 6)

    origin, complex_ = timed("parse", load_source, source, errors=ComplexError)

    report_check = timed("validate", validate, complex_)
    if not report_check.valid:
        raise AnalysisError(
            "validate", "; ".join(report_check.violations)
        )

    warnings: list[str] = list(report_check.notes)

    # the one classification of the analysis: the counts and every
    # presentation build read these classes
    classes = timed(
        "classify",
        lambda: [classify_vertex(complex_, v) for v in complex_.vertices],
        errors=ComplexError,
    )
    inner3 = sum(isinstance(c, Inner3) for c in classes)
    inner4 = sum(isinstance(c, Inner4) for c in classes)

    counts = timed("counts", singularity_counts, complex_, classes)
    chern = timed("chern", chern_signature, counts, errors=InvariantError)
    warnings.extend(chern.warnings)

    def presentations():
        # only the Coxeter route reads the presentation without the projective
        # relator; the first build parses that relator, so bad input fails here
        pres = build_tilde_presentation(complex_, classes=classes)
        if route == "enumerate":
            return pres, None, None
        return (
            pres,
            build_tilde_presentation(complex_, include_projective=False, classes=classes),
            projective_relator(complex_),
        )

    pres, pres_noproj, proj = timed(
        "presentation", presentations, errors=(PresentationError, ComplexError)
    )

    report = AnalysisReport(
        source=origin,
        name=complex_.name,
        complex_summary={
            "planes": complex_.plane_count,
            "edges": complex_.edge_count,
            "vertices": len(complex_.vertices),
            "inner3": inner3,
            "inner4": inner4,
            "valid": True,
        },
        counts=counts._asdict(),
        chern={
            "c1sq": _json_value(chern.c1sq),
            "c2": _json_value(chern.c2),
            "chi": _json_value(chern.chi),
        },
        routes_requested=route,
        warnings=warnings,
        timings=timings,
    )
    if emit_presentation:
        report.presentation_dump = [
            format_relation(w, pres.names) for w in pres.relators
        ]

    assignment = timed("assignment", plane_transposition_map, complex_)
    report.symmetric_degree = assignment.degree
    report.symmetric_image_order = timed(
        "image_order", permutation_group_order, assignment.moved
    )
    # compile the on-demand modules this route calls in a stage of their
    # own, before the timers of the stages that call them start
    if route != "enumerate":
        modules = ["coxeter", "tietze"] if route == "both" else ["coxeter"]
        timed("import", lambda: [importlib.import_module(f".{m}", __package__) for m in modules])

    # both routes read G~ as an extension of S_n by K: the plane
    # transpositions must satisfy every relator
    if failures := timed("homomorphism", verify_homomorphism, pres, assignment):
        raise AnalysisError("kernel", f"plane transpositions do not satisfy relators {failures}")

    # one table of G~, over an S_n complement, for the regular action; the
    # Coxeter route reads none
    path, planes, table = (), (), None
    if route != "coxeter":
        path, planes = timed("complement", complement_path, pres, assignment, max_cosets)
        if not planes:
            bound_hits.append(f"no S_n complement within {max_cosets} partial paths")
        else:
            table = timed(
                "enumerate", coset_enumeration, pres, [(g,) for g in path], max_cosets,
                overflow=f"enumeration overflow at {max_cosets} cosets",
            )

    enum_verdict = None
    if table is not None:
        enum_verdict = _enumeration_route(
            report, pres, table, path, planes, assignment, max_cosets, timed, bound_hits
        )
    if route == "both":
        enum_verdict = _presentation_route(
            report, pres, assignment, table, enum_verdict, max_cosets, timed, bound_hits
        )

    cox_verdict = None
    if route in ("coxeter", "both"):
        cox_verdict = _coxeter_route(
            report, pres_noproj, proj, assignment, max_cosets, timed, bound_hits
        )

    # cox_verdict is None exactly when the Coxeter route is unsupported or
    # bounded, and equal decided verdicts name groups of one order
    verdicts = [v for v in (enum_verdict, cox_verdict) if v is not None]
    if route == "both" and len(verdicts) == 2:
        report.route_agreement = _routes_agree(*verdicts)

    # one warning for each bound hit, in the order the stages hit them; |K|
    # and |G~| = n!|K| come from the first decided verdict, else the first
    # undetermined one, or, when the bound refused the regular action and
    # no route decides, from the table
    report.warnings.extend(f"undecided at bound: {hit}" for hit in bound_hits)
    verdicts.sort(key=lambda v: v.kind == "Undetermined")
    if verdicts:
        final = verdicts[0]
    else:
        index = table.coset_count if table is not None else None
        note = f"undecided at bound {max_cosets}" if bound_hits else "no route produced a verdict"
        final = StructureVerdict("Undetermined", order=index, note=note)
    report.kernel_order = final.order
    if final.order is not None:
        report.tilde_order = final.order * report.symmetric_image_order
    report.pi1 = _verdict_dict(final)
    report.undecided = final.kind == "Undetermined"
    return report


def _enumeration_route(
    report, pres, table, path, planes, assignment, max_cosets, timed, bound_hits
):
    """Regular-action route: |K| = [G~:H] from the table over the S_n
    complement H, and the verdict from K's regular action on it.  Returns
    the verdict, or None, with a bound hit in ``bound_hits``, when the
    bound on its |K|(floor(log2 |K|) + 1) table lookups stops it."""
    kernel_order = table.coset_count
    lookups = kernel_order * kernel_order.bit_length()
    if lookups > max_cosets:
        bound_hits.append(
            f"the regular action of K, of order {kernel_order}, needs {lookups} table lookups"
        )
        return None
    try:
        verdict = timed("regular_kernel", regular_kernel, table, assignment, path, planes)
    except KernelError as exc:
        raise AnalysisError("kernel", str(exc)) from exc
    report.enumeration_route = {
        "complement_generators": [pres.names[g - 1] for g in path],
        "index": table.coset_count,
        "invariants": list(verdict.factors or ()),
        "verdict": _verdict_dict(verdict),
        "pi1": verdict.describe(),
    }
    return verdict


def _presentation_route(report, pres, assignment, table, verdict, max_cosets, timed, bound_hits):
    """Under ``--route both``: |K| and the abelian invariants again, from a
    presentation of K = ker(G~ -> S_n), independent of the ``table`` of G~
    over H (None when there is none).
    They must equal the table's and the regular action's ``verdict``
    (its invariants are those of K/K'); without that verdict, this
    route's decides.  Returns the verdict that stands, if any; a bound
    that stops this route is a bound hit in ``bound_hits``."""
    # validate rejects a plane graph that is not connected, so the plane
    # transpositions generate all of S_n
    nfact = report.symmetric_image_order
    kernel = factors = None
    # the kernel table has one row per permutation: bound it before building
    if nfact > max_cosets:
        bound_hits.append(f"kernel table needs {nfact} rows")
    else:
        ktable = timed("kernel_table", kernel_coset_table, pres, assignment)
        sub = timed("reidemeister_schreier", reidemeister_schreier, pres, ktable)
        simplified = timed("simplify", simplify_presentation, sub)
        rs_table = timed(
            "kernel_enumerate", coset_enumeration, simplified, (), max_cosets,
            overflow=f"kernel enumeration overflow at {max_cosets} cosets",
        )
        if rs_table is not None:
            kernel = rs_table.coset_count
            if simplified.generator_count <= _SNF_GENERATOR_LIMIT:
                factors = timed("snf", abelianization, simplified)
    _index_cross_check(report, None if table is None else table.coset_count, kernel)
    if kernel is None:
        return verdict
    if verdict is None:
        return identify_structure(kernel, invariant_factors=factors)
    expected = verdict.factors or ()
    if factors not in (None, expected):
        raise AnalysisError(
            "kernel",
            f"the regular action gives invariants {expected}, but the kernel "
            f"presentation gives invariant factors {factors}",
        )
    return verdict


def _index_cross_check(report, index, kernel):
    """Under ``--route both``: |K| = [G~:H] from the table over H (None
    without one) must equal the kernel presentation's |K| (None when a
    bound stopped it)."""
    nfact = report.symmetric_image_order
    if None not in (index, kernel) and index != kernel:
        raise AnalysisError(
            "kernel",
            f"the coset table gives |G~| = [G~:H]|H| = {index * nfact}, but the kernel "
            f"presentation gives n!|K| = {nfact}*{kernel} = {nfact * kernel}",
        )
    report.kernel_cross_check = {
        "from_index": index,
        "from_subgroup_presentation": kernel,
        "agree": True if None not in (index, kernel) else None,
    }


def _coxeter_route(report, pres_noproj, proj, assignment, max_cosets, timed, bound_hits):
    """Coxeter-quotient route, independent of any table of G~: its plan
    derived from a Hamiltonian cycle of the plane graph and checked in the
    affine symmetric group, then one enumeration over the cycle, each
    within ``max_cosets``.  Returns its verdict, or None when it is
    unsupported or, with a bound hit in ``bound_hits``, bounded."""
    try:
        route = timed(
            "coxeter", coxeter_route, pres_noproj, proj, assignment, max_cosets,
            overflow=f"coxeter route: enumeration over the cycle overflow at {max_cosets} cosets",
        )
    except SearchBound as exc:
        bound_hits.append(f"coxeter route: {exc}")
        return None
    if route is None:
        return None
    if not route.supported:
        report.coxeter_route = {"supported": False, "reason": route.reason}
        return None
    verdict = route.verdict()
    report.coxeter_route = {
        "supported": True,
        # the cycle's generators, in id order
        "generators": [name for name in route.presentation.names if name in route.assignment],
        "graph": [
            {"generator": name, "vertices": list(pair)} for name, pair in route.graph.edges
        ],
        "non_tree_edge": route.graph.edges[-1][0],
        "projective_vector_u": list(route.proj_u_coords),
        "invariants": list(route.quotient.invariants),
        "order": route.quotient.order,
        "verdict": _verdict_dict(verdict),
        "pi1": verdict.describe(),
    }
    return verdict


# ---------------------------------------------------------------------------
# serialization


def emit_report(report: AnalysisReport, fmt: str = "text") -> bytes:
    """Deterministic serialization of a report."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), indent=2) + "\n").encode("utf-8")
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    c = report.complex_summary
    lines.append(
        f"Complex {report.name} ({report.source}): {c['planes']} planes, "
        f"{c['edges']} edges, {c['vertices']} vertices "
        f"({c['inner3']} inner 3-points, {c['inner4']} inner 4-points)"
    )
    k = report.counts
    lines.append(
        f"Counts: n={k['n']} m={k['m']} mu={k['mu']} d={k['d']} rho={k['rho']}"
    )
    ch = report.chern
    lines.append(f"Chern: c1^2={ch['c1sq']} c2={ch['c2']} signature chi={ch['chi']}")
    if report.tilde_order is not None:
        lines.append(f"Group order |G~| = {report.tilde_order}")
    if report.symmetric_image_order is not None:
        lines.append(
            f"Symmetric image: S{report.symmetric_degree} "
            f"(order {report.symmetric_image_order})"
        )
    if report.kernel_order is not None:
        lines.append(f"Kernel order = {report.kernel_order}")
    pi1 = report.pi1 or {"kind": "Undetermined"}
    desc = pi1.get("kind")
    if desc == "ElementaryAbelian2":
        desc = f"Z2^{pi1['rank']}"
    elif desc == "AbelianInvariantFactors":
        desc = " x ".join(f"Z{d}" if d else "Z" for d in pi1["factors"])
    lines.append(f"pi1(X_Gal) verdict: {desc}")
    if report.enumeration_route:
        er = report.enumeration_route
        lines.append(
            f"  enumeration route: index {er['index']} over"
            f" <{', '.join(er['complement_generators'])}> -> {er['pi1']}"
        )
    if report.kernel_cross_check:
        kc = report.kernel_cross_check
        kernel = kc["from_subgroup_presentation"]
        lines.append(
            "  kernel presentation: "
            + ("undecided at bound" if kernel is None else f"kernel {kernel}")
        )
    if report.coxeter_route:
        cr = report.coxeter_route
        if cr.get("supported"):
            lines.append(
                f"  coxeter route: invariants {tuple(cr['invariants'])}"
                f" -> {cr['pi1']} (order {cr['order']})"
            )
        else:
            lines.append(f"  coxeter route: unsupported ({cr['reason']})")
    if report.route_agreement is not None:
        lines.append(f"Routes agree: {'yes' if report.route_agreement else 'NO'}")
    if report.undecided:
        lines.append("RESULT UNDECIDED (see warnings)")
    if report.presentation_dump is not None:
        lines.append("Presentation relators:")
        lines.extend(f"  {line}" for line in report.presentation_dump)
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# command line


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="galcov",
        description=(
            "Compute the fundamental group and signature of the Galois cover "
            "of a surface degenerating to a union of planes."
        ),
    )
    parser.add_argument("--version", action="version", version=f"galcov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    a = sub.add_parser("analyze", help="run the full pipeline on one degeneration")
    a.add_argument(
        "source", help=f"degeneration file, or builtin name ({', '.join(builtin_names())})"
    )
    a.add_argument(
        "--route",
        choices=("enumerate", "coxeter", "both"),
        default="enumerate",
        help="which computation route(s) to run (default: enumerate)",
    )
    a.add_argument(
        "--max-cosets",
        type=int,
        default=DEFAULT_MAX_COSETS,
        help=(
            "bound on the cosets of each enumeration, the partial paths of the "
            "complement search and the cycle walk, the chord window combinations "
            "of the Coxeter route, the |K|(floor(log2 |K|) + 1) lookups of the "
            f"regular action and the n! rows of the kernel table (default {DEFAULT_MAX_COSETS})"
        ),
    )
    a.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    a.add_argument(
        "--emit-presentation",
        action="store_true",
        help="include the generated relators, in the relation grammar",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "analyze":  # pragma: no cover - argparse enforces this
        parser.error("unknown command")
    try:
        report = analyze(
            args.source,
            route=args.route,
            max_cosets=args.max_cosets,
            emit_presentation=args.emit_presentation,
        )
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ComplexError as exc:
        print(f"error: [parse] {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(emit_report(report, args.format))
    sys.stdout.flush()
    return 1 if report.undecided else 0


if __name__ == "__main__":
    sys.exit(main())
