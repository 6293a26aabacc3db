"""Combinatorial degenerations: a surface degenerated to a union of planes.

A degeneration is recorded purely combinatorially: numbered planes, edges
(each the intersection line of two planes), and vertices (points where
three or four edges meet).  This module parses and validates such data,
and classifies vertices into inner 3-points and inner 4-points.

All types are immutable values; every operation is a pure function.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import NamedTuple


class ComplexError(Exception):
    """Base class for errors raised by this module."""


class ComplexParseError(ComplexError):
    """Malformed degeneration file; carries a human-readable location."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class UnsupportedMultiplicity(ComplexError):
    """Vertex with a number of edges other than 3 or 4."""


class ClassificationError(ComplexError):
    """Vertex whose incidence structure is not an inner 3- or 4-point."""


class Edge(NamedTuple):
    """Intersection line of two planes."""

    id: int
    planes: tuple[int, int]


class Vertex(NamedTuple):
    """Point of the degeneration where several edges meet."""

    id: int
    edges: frozenset[int]


class PresentationOverrides(NamedTuple):
    """Extra relation-grammar lines attached to a dataset.

    Inner 4-points contribute relations that cannot be derived from the
    incidence data alone, so datasets with 4-points must supply them here.
    ``projective_relator``, when present, is appended last.
    """

    extra_relators: tuple[str, ...] = ()
    projective_relator: str | None = None


class DegenerationComplex(NamedTuple):
    """A degenerated surface: planes, intersection edges, and vertices."""

    name: str
    plane_count: int
    edges: tuple[Edge, ...]
    vertices: tuple[Vertex, ...]
    overrides: PresentationOverrides | None = None

    @property
    def edge_count(self):
        return len(self.edges)


class Inner3(NamedTuple):
    """Inner 3-point: three planes meeting pairwise in the three edges."""

    edges: tuple[int, int, int]


class Inner4(NamedTuple):
    """Inner 4-point: four edges in cyclic order around the point.

    Consecutive edges of ``cycle`` share a plane; diagonally opposite
    edges share none.
    """

    cycle: tuple[int, int, int, int]


VertexClass = Inner3 | Inner4


class ValidationReport(NamedTuple):
    """Result of :func:`validate`: violations are data, not exceptions."""

    violations: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def valid(self):
        return not self.violations


_MAX_VIOLATIONS = 20

_SPHERE_NOTE = "surface (sphere) condition: local incidence checks only, not verified"


def _require(cond, message, location=None):
    if not cond:
        raise ComplexParseError(message, location)


def _is_int(x):
    """A JSON integer; ``true`` and ``false`` are not, though bool is int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _records(data, field, kind):
    """Yield the position, object and id of each record of the list
    ``data[field]``, once it is an object with a new id >= 1.  A failed
    check names the record as ``field[position]``."""
    records = data.get(field)
    _require(isinstance(records, list), f"'{field}' must be a list", f"field {field}")
    seen = set()
    for pos, item in enumerate(records):
        if not isinstance(item, dict):
            raise ComplexParseError(f"{kind} must be an object", f"{field}[{pos}]")
        rid = item.get("id")
        if not (_is_int(rid) and rid >= 1):
            raise ComplexParseError(f"{kind} id must be an integer >= 1", f"{field}[{pos}]")
        if rid in seen:
            raise ComplexParseError(f"duplicate {kind} id {rid}", f"{field}[{pos}]")
        seen.add(rid)
        yield pos, item, rid


def parse_complex(text: str) -> DegenerationComplex:
    """Parse a degeneration file (JSON) into a :class:`DegenerationComplex`.

    Raises :class:`ComplexParseError` on malformed syntax, duplicate ids,
    or plane indices out of range, with the record it fails on as its
    location (``edges[2]``, ``field planes``).  Checks run in file order,
    and each builds its message and location only when it fails.  Softer
    structural defects (degenerate edges, wrong vertex multiplicities,
    ...) are left to :func:`validate`.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexParseError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ComplexParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(data, dict), "top-level value must be an object")

    name = data.get("name", "")
    _require(isinstance(name, str), "'name' must be a string", "field name")
    planes = data.get("planes")
    _require(
        _is_int(planes) and planes >= 1,
        "'planes' must be a positive integer",
        "field planes",
    )

    edges = []
    for pos, item, eid in _records(data, "edges", "edge"):
        pl = item.get("planes")
        if not (isinstance(pl, list) and len(pl) == 2 and _is_int(pl[0]) and _is_int(pl[1])):
            raise ComplexParseError("edge planes must be a pair of integers", f"edges[{pos}]")
        a, b = pl
        if not (1 <= a <= planes and 1 <= b <= planes):
            p = next(p for p in pl if not 1 <= p <= planes)
            raise ComplexParseError(f"plane index {p} out of range 1..{planes}", f"edges[{pos}]")
        edges.append(Edge(eid, (a, b)))

    vertices = []
    for pos, item, vid in _records(data, "vertices", "vertex"):
        ve = item.get("edges")
        if not (isinstance(ve, list) and all(map(_is_int, ve))):
            raise ComplexParseError("vertex edges must be a list of integers", f"vertices[{pos}]")
        ids = frozenset(ve)
        if len(ids) != len(ve):
            repeated = sorted(x for x, k in Counter(ve).items() if k > 1)
            raise ComplexParseError(
                f"repeated edge id {', '.join(map(str, repeated))}", f"vertices[{pos}]"
            )
        vertices.append(Vertex(vid, ids))

    overrides = None
    if "overrides" in data and data["overrides"] is not None:
        raw = data["overrides"]
        _require(isinstance(raw, dict), "'overrides' must be an object", "field overrides")
        extra = raw.get("extra_relators", [])
        _require(
            isinstance(extra, list) and all(isinstance(s, str) for s in extra),
            "'extra_relators' must be a list of strings",
            "field overrides",
        )
        proj = raw.get("projective_relator")
        _require(
            proj is None or isinstance(proj, str),
            "'projective_relator' must be a string",
            "field overrides",
        )
        overrides = PresentationOverrides(tuple(extra), proj)

    return DegenerationComplex(
        name=name,
        plane_count=planes,
        edges=tuple(edges),
        vertices=tuple(vertices),
        overrides=overrides,
    )


def plane_components(pairs) -> list[list[int]]:
    """Connected components of the graph whose edges are ``pairs``: each a
    sorted list of the points it joins, in order of their least points.
    A self-pair (a, a) makes a a point of the graph."""
    root = {}

    def find(p):
        # path halving: each step points p at its grandparent, so a long
        # chain of unions stays near linear instead of quadratic
        while root.setdefault(p, p) != p:
            root[p] = p = root[root[p]]
        return p

    for a, b in pairs:
        root[find(a)] = find(b)
    components = {}
    for p in sorted(root):
        components.setdefault(find(p), []).append(p)
    return list(components.values())


def _first(items, count):
    """The first five of the ``count`` strings ``items``, joined by
    commas, and how many more there are."""
    shown = list(itertools.islice(items, min(count, 5)))
    more = f" and {count - len(shown)} more" if count > len(shown) else ""
    return ", ".join(shown) + more


def validate(c: DegenerationComplex) -> ValidationReport:
    """Check the structural invariants of a complex.

    Returns a report listing the violated invariants; a valid complex
    yields an empty list.  Also reports whether every edge lies in exactly
    two vertices (each intersection line has two endpoints).  Each plane
    states its edge pairs that share no vertex once, by the first pair and
    a count.  Only vertices of at most four edges meet pairs, so the work
    and the message stay linear in the edges, also when one vertex names
    all of them; past the first ``_MAX_VIOLATIONS`` violations the list
    ends in "and N more".
    """
    violations = []
    edge_ids = [e.id for e in c.edges]
    by_id = {e.id: e for e in c.edges}

    if sorted(edge_ids) != list(range(1, len(edge_ids) + 1)):
        violations.append(f"edge ids are not consecutive 1..{len(edge_ids)}")

    n = c.plane_count
    spans = []  # plane pairs of the edges inside 1..n
    for e in c.edges:
        a, b = e.planes
        if a == b:
            violations.append(f"edge {e.id}: degenerate edge (planes {a},{b})")
        if 1 <= a <= n and 1 <= b <= n:
            spans.append(e.planes)
            continue
        for p in e.planes:
            if not 1 <= p <= n:
                violations.append(f"edge {e.id}: plane {p} out of range 1..{n}")

    together = set()  # edge pairs met at a vertex of at most four edges
    for v in c.vertices:
        missing = sorted(x for x in v.edges if x not in by_id)
        for x in missing:
            violations.append(f"vertex {v.id} references missing edge {x}")
        k = len(v.edges)
        if k > 4:
            # rejected here: its C(k, 2) pairs stay out of the plane rule
            violations.append(
                f"vertex {v.id} has multiplicity {k}: unsupported (only 3- and 4-points)"
            )
        else:
            together.update(itertools.combinations(sorted(v.edges), 2))
            if k < 3:
                violations.append(f"vertex {v.id} has {k} edges (at least 3 required)")
        # two edges with the same plane pair through one vertex would mean
        # two intersection lines of the same pair of planes meeting there
        pairs = {}
        for x in sorted(v.edges):
            if x not in by_id:
                continue
            a, b = by_id[x].planes
            key = (a, b) if a <= b else (b, a)
            if key in pairs and key[0] != key[1]:
                i = pairs[key]
                violations.append(
                    f"edges {i} and {x} repeat plane pair {key} at vertex {v.id}"
                )
            else:
                pairs[key] = x
        # an inner 3-point is three planes meeting pairwise: its three
        # edges pairwise share a plane, and span three planes
        if k == 3 and not missing:
            for a, b in itertools.combinations(sorted(v.edges), 2):
                if set(by_id[a].planes).isdisjoint(by_id[b].planes):
                    violations.append(f"vertex {v.id}: edges {a} and {b} share no plane")
            span = set().union(*(by_id[x].planes for x in v.edges))
            if len(span) != 3:
                violations.append(f"vertex {v.id}: its three edges span {len(span)} planes")

    # two lines in one plane meet in a point of it: two edges that share a
    # plane must share a vertex.  Of the C(k, 2) pairs of a plane's k edges,
    # those that share none are the ones not met at a vertex; each plane
    # names its first such pair and counts the rest
    in_plane, planes_of = {}, {}
    for e in c.edges:
        for p in e.planes:
            ids = in_plane.setdefault(p, set())
            if e.id not in ids:
                ids.add(e.id)
                planes_of.setdefault(e.id, []).append(p)
    met = dict.fromkeys(in_plane, 0)
    for a, b in together:
        for p in planes_of.get(a, ()):
            if b in in_plane[p]:
                met[p] += 1
    for p in sorted(in_plane):
        ids = sorted(in_plane[p])
        pairs = len(ids) * (len(ids) - 1) // 2
        apart = pairs - met[p]
        if apart:
            a, b = next(ab for ab in itertools.combinations(ids, 2) if ab not in together)
            message = f"plane {p}: edges {a} and {b} share no vertex"
            if apart > 1:
                message += f"; {apart} of the {pairs} pairs of its {len(ids)} edges share none"
            violations.append(message)

    # the edge transpositions generate S_n only when the edges join all n
    # planes; a plane on no edge is a component of its own
    components = plane_components(spans)
    touched = {p for ps in components for p in ps}
    untouched = n - len(touched)
    if len(components) + untouched > 1:
        parts = []
        if components:
            parts.append("edges join " + _first(
                ("{" + _first(map(str, ps), len(ps)) + "}" for ps in components),
                len(components),
            ))
        if untouched:
            # at most 2 * edges planes are touched, so this stops early
            bare = (str(p) for p in itertools.count(1) if p not in touched)
            parts.append("planes on no edge: " + _first(bare, untouched))
        violations.append("plane graph is not connected: " + "; ".join(parts))

    counts = {e.id: 0 for e in c.edges}
    for v in c.vertices:
        for x in v.edges:
            if x in counts:
                counts[x] += 1
    for eid in sorted(counts):
        if counts[eid] != 2:
            violations.append(f"edge {eid} has {counts[eid]} endpoints")

    if len(violations) > _MAX_VIOLATIONS:
        violations[_MAX_VIOLATIONS:] = [f"and {len(violations) - _MAX_VIOLATIONS} more"]
    return ValidationReport(
        violations=tuple(violations),
        notes=(_SPHERE_NOTE,),
    )


def classify_vertex(c: DegenerationComplex, v: Vertex) -> VertexClass:
    """Classify a vertex as an inner 3-point or inner 4-point.

    Inner 3-points are returned with ascending edge ids.  A 4-point is
    inner when each of its edges shares a plane with exactly two of the
    others: the only such graph on four edges is a 4-cycle, whose
    consecutive edges share a plane and whose diagonals share none.  It
    is returned in that cyclic order, from the smallest edge id toward
    its smaller-id neighbor.
    """
    k = len(v.edges)
    if k not in (3, 4):
        raise UnsupportedMultiplicity(
            f"vertex {v.id} has multiplicity {k}; only 3- and 4-points are supported"
        )
    ids = sorted(v.edges)
    if k == 3:
        return Inner3(edges=(ids[0], ids[1], ids[2]))

    planes = {e.id: set(e.planes) for e in c.edges if e.id in v.edges}
    shares = {x: [y for y in ids if y != x and planes[x] & planes[y]] for x in ids}
    if any(len(nbrs) != 2 for nbrs in shares.values()):
        raise ClassificationError(
            f"vertex {v.id}: plane-sharing relation of its edges is not a 4-cycle"
        )
    start = ids[0]
    low, high = shares[start]  # ascending, as ids are
    opposite = next(y for y in ids if y not in (start, low, high))
    return Inner4(cycle=(start, low, opposite, high))
