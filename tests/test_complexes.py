import itertools
import json
import random
import time

import pytest

from galcov.complexes import (
    ClassificationError,
    ComplexParseError,
    DegenerationComplex,
    Edge,
    Inner3,
    Inner4,
    UnsupportedMultiplicity,
    Vertex,
    classify_vertex,
    parse_complex,
    plane_components,
    validate,
)
from galcov.datasets import DT4_JSON, T4_JSON
from galcov.invariants import singularity_counts

from .conftest import parasitic_pairs, prism_complex, random_valid_complex, serialize_complex
from .test_fuzz import mutate


def test_parse_t4(t4):
    assert t4.plane_count == 4
    assert t4.edge_count == 6
    assert len(t4.vertices) == 4
    assert t4.edges[0].id == 1 and t4.edges[0].planes == (1, 3)
    assert t4.overrides is None


def test_parse_dt4(dt4):
    assert dt4.plane_count == 6
    assert dt4.edge_count == 9
    assert len(dt4.vertices) == 5
    assert dt4.overrides is not None
    assert len(dt4.overrides.extra_relators) == 7
    assert dt4.overrides.projective_relator.startswith("word:")


def test_parse_empty_input_fails():
    with pytest.raises(ComplexParseError):
        parse_complex("")


def test_parse_duplicate_edge_id():
    text = T4_JSON.replace('{"id": 2, "planes": [1, 2]}', '{"id": 1, "planes": [1, 2]}')
    with pytest.raises(ComplexParseError, match="duplicate edge id"):
        parse_complex(text)


@pytest.mark.parametrize(
    "field, kind, item",
    [("edges", "edge", {"planes": [1, 2]}), ("vertices", "vertex", {"edges": [1, 2, 3]})],
)
@pytest.mark.parametrize(
    "records, message",
    [
        ("x", "field {field}: '{field}' must be a list"),
        (["x"], "{field}[0]: {kind} must be an object"),
        ([{"id": 0}], "{field}[0]: {kind} id must be an integer >= 1"),
        ([{"id": [1]}], "{field}[0]: {kind} id must be an integer >= 1"),
        ([{"id": {}}], "{field}[0]: {kind} id must be an integer >= 1"),
        ([{"id": True}], "{field}[0]: {kind} id must be an integer >= 1"),
        ([{"id": 1}, {"id": [1]}], "{field}[1]: {kind} id must be an integer >= 1"),
        ([{"id": 2}, {"id": 2}], "{field}[1]: duplicate {kind} id 2"),
    ],
    ids=["list", "object", "id", "list-id", "object-id", "boolean-id", "list-id-after-an-id",
         "duplicate"],
)
def test_parse_record_messages(field, kind, item, records, message):
    # edges and vertices share each record check, message and location; an
    # id that is not an integer fails as one, before the duplicate check
    # could hash it
    data = {"planes": 2, "edges": [{"id": 1, "planes": [1, 2]}], "vertices": []}
    if isinstance(records, list):
        records = [r if isinstance(r, str) else {**item, **r} for r in records]
    data[field] = records
    with pytest.raises(ComplexParseError) as info:
        parse_complex(json.dumps(data))
    assert str(info.value) == message.format(field=field, kind=kind)


def test_parse_plane_out_of_range():
    text = T4_JSON.replace('{"id": 1, "planes": [1, 3]}', '{"id": 1, "planes": [1, 9]}')
    with pytest.raises(ComplexParseError, match="out of range"):
        parse_complex(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('{"id": 1, "planes": [1, 3]}', '{"id": 1, "planes": [1, true]}', "edge planes"),
        ('{"id": 1, "planes": [1, 3]}', '{"id": true, "planes": [1, 3]}', "edge id"),
        ('{"id": 1, "edges": [1, 2, 4]}', '{"id": true, "edges": [1, 2, 4]}', "vertex id"),
        ('{"id": 1, "edges": [1, 2, 4]}', '{"id": 1, "edges": [true, 2, 4]}', "vertex edges"),
    ],
    ids=["edge-planes", "edge-id", "vertex-id", "vertex-edges"],
)
def test_parse_rejects_booleans_as_integers(old, new, message):
    # bool is a subclass of int, but JSON true is not an integer
    assert old in T4_JSON
    with pytest.raises(ComplexParseError, match=message):
        parse_complex(T4_JSON.replace(old, new))


def one_edge(planes):
    return {"edges": [{"id": 1, "planes": planes}]}


def one_vertex(edges):
    return {"vertices": [{"id": 1, "edges": edges}]}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"planes": True}, "field planes: 'planes' must be a positive integer"),
        (one_edge([1, 2, 1]), "edges[0]: edge planes must be a pair of integers"),
        (one_edge([1, False]), "edges[0]: edge planes must be a pair of integers"),
        (one_edge([1, 9]), "edges[0]: plane index 9 out of range 1..2"),
        (one_edge([0, 9]), "edges[0]: plane index 0 out of range 1..2"),
        (one_edge([9, 1]), "edges[0]: plane index 9 out of range 1..2"),
        (one_vertex([1, "2"]), "vertices[0]: vertex edges must be a list of integers"),
        (one_vertex([3, 1, 3, 1, 2]), "vertices[0]: repeated edge id 1, 3"),
    ],
    ids=[
        "boolean-planes", "three-planes", "boolean-plane", "second-plane-out",
        "first-plane-out", "first-plane-out-second-in", "vertex-edges", "repeated-edges",
    ],
)
def test_parse_failure_message_and_location(fields, message):
    # the first failed check names its record; repeated edge ids are
    # listed in ascending order
    data = {"planes": 2, "edges": [], "vertices": [], **fields}
    with pytest.raises(ComplexParseError) as info:
        parse_complex(json.dumps(data))
    assert str(info.value) == message
    assert info.value.location == message.split(": ")[0]


@pytest.mark.parametrize("source", [T4_JSON, DT4_JSON])
def test_roundtrip_identity(source):
    c = parse_complex(source)
    again = parse_complex(serialize_complex(c))
    assert again == c


def test_records_are_immutable_tuples(t4):
    edge = t4.edges[0]
    assert repr(edge) == "Edge(id=1, planes=(1, 3))"
    assert edge == Edge(id=1, planes=(1, 3)) == (1, (1, 3))
    assert hash(edge) == hash((1, (1, 3)))
    with pytest.raises(AttributeError):
        edge.id = 2
    with pytest.raises(AttributeError):
        t4.extra = None


def test_validate_builtin(t4, dt4):
    for c in (t4, dt4):
        report = validate(c)
        assert report.valid
        assert any("not verified" in note for note in report.notes)


def test_validate_edge_with_one_endpoint(t4):
    # drop edge 5 from one of its two vertices
    vertices = []
    removed = False
    for v in t4.vertices:
        if not removed and 5 in v.edges:
            vertices.append(Vertex(id=v.id, edges=v.edges - {5}))
            removed = True
        else:
            vertices.append(v)
    report = validate(DegenerationComplex("broken", 4, t4.edges, tuple(vertices)))
    assert not report.valid
    assert "edge 5 has 1 endpoints" in report.violations


def test_validate_degenerate_edge(t4):
    edges = tuple(
        e if e.id != 3 else Edge(id=3, planes=(2, 2)) for e in t4.edges
    )
    report = validate(DegenerationComplex("bad", 4, edges, t4.vertices))
    assert any("degenerate edge" in v for v in report.violations)


def test_validate_unsupported_multiplicity(t4):
    vertices = t4.vertices + (Vertex(id=5, edges=frozenset({1, 2, 3, 4, 5})),)
    report = validate(DegenerationComplex("big", 4, t4.edges, vertices))
    assert any("multiplicity 5" in v for v in report.violations)


def test_validate_disconnected_plane_graph(t4):
    # two disjoint tetrahedra, on planes 1-4 and 5-8
    shifted_edges = tuple(
        Edge(id=e.id + 6, planes=(e.planes[0] + 4, e.planes[1] + 4)) for e in t4.edges
    )
    shifted_vertices = tuple(
        Vertex(id=v.id + 4, edges=frozenset(x + 6 for x in v.edges)) for v in t4.vertices
    )
    two = DegenerationComplex(
        "two", 8, t4.edges + shifted_edges, t4.vertices + shifted_vertices
    )
    assert validate(two).violations == (
        "plane graph is not connected: edges join {1, 2, 3, 4}, {5, 6, 7, 8}",
    )
    # a plane that no edge touches is a component of its own
    loose = DegenerationComplex("loose", 6, t4.edges, t4.vertices)
    assert validate(loose).violations == (
        "plane graph is not connected: edges join {1, 2, 3, 4}; planes on no edge: 5, 6",
    )
    # past five, components and the planes of one are counted, not listed
    edges = tuple(Edge(id=i, planes=(2 * i - 1, 2 * i)) for i in range(1, 8))
    rule = validate(DegenerationComplex("pairs", 14, edges, ())).violations[0]
    assert rule == (
        "plane graph is not connected: edges join "
        "{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10} and 2 more"
    )
    edges = tuple(Edge(id=i, planes=(i, i + 1)) for i in range(1, 7))
    violations = validate(DegenerationComplex("chain", 8, edges, ())).violations
    rule = next(v for v in violations if v.startswith("plane graph"))
    assert rule == (
        "plane graph is not connected: edges join {1, 2, 3, 4, 5 and 2 more}; planes on no edge: 8"
    )


def plane_pair_oracle(c):
    """The plane rule's violations, from every pair of edges in each plane
    that no vertex holds together: the first such pair and their count."""
    out = []
    for p in sorted({p for e in c.edges for p in e.planes}):
        ids = sorted({e.id for e in c.edges if p in e.planes})
        pairs = list(itertools.combinations(ids, 2))
        apart = [ab for ab in pairs if not any(set(ab) <= v.edges for v in c.vertices)]
        if apart:
            (a, b), k = apart[0], len(apart)
            message = f"plane {p}: edges {a} and {b} share no vertex"
            if k > 1:
                message += f"; {k} of the {len(pairs)} pairs of its {len(ids)} edges share none"
            out.append(message)
    return out


def test_plane_rule_matches_a_pairwise_oracle():
    # mutated t4 and dt4 documents, and the prisms, whose side faces'
    # edges do not all meet; a report past the cap keeps a prefix
    rng = random.Random(28)
    complexes = [prism_complex(n) for n in range(3, 8)]
    t4 = parse_complex(T4_JSON)  # and a library complex that repeats edge id 1
    complexes.append(t4._replace(edges=t4.edges + (Edge(id=1, planes=(2, 4)),)))
    for _ in range(300):
        try:
            complexes.append(parse_complex(mutate(rng.choice((T4_JSON, DT4_JSON)), rng)))
        except ComplexParseError:
            pass
    seen = 0
    for c in complexes:
        violations = validate(c).violations
        rule = [v for v in violations if v.startswith("plane ") and "share no vertex" in v]
        expected = plane_pair_oracle(c)
        if violations and violations[-1].startswith("and "):
            expected = expected[: len(rule)]
        assert rule == expected, c
        seen += bool(rule)
    assert seen > 50


def test_validate_caps_its_violations(t4):
    # 30 missing edges and a multiplicity of 30: 31 violations, 20 listed
    vertices = t4.vertices + (Vertex(id=5, edges=frozenset(range(100, 130))),)
    violations = validate(DegenerationComplex("many", 4, t4.edges, vertices)).violations
    assert len(violations) == 21
    missing = tuple(f"vertex 5 references missing edge {x}" for x in range(100, 120))
    assert violations[:20] == missing
    assert violations[20] == "and 11 more"


def brute_force_components(pairs):
    """Grow each point's component by sweeps over all pairs until a sweep
    adds nothing; the oracle for plane_components."""
    components = set()
    for p in {x for pair in pairs for x in pair}:
        grown = {p}
        while True:
            more = {b for a, b in pairs if a in grown} | {a for a, b in pairs if b in grown}
            if more <= grown:
                break
            grown |= more
        components.add(tuple(sorted(grown)))
    return sorted(map(list, components))


def test_plane_components_match_a_brute_force_search():
    rng = random.Random(21)
    self_paired = repeated = 0
    for _ in range(400):
        points = rng.randint(1, 12)
        pairs = [
            (rng.randint(1, points), rng.randint(1, points)) for _ in range(rng.randint(0, 14))
        ]
        # isolated points, on a self-pair only, and repeated pairs
        pairs += [(p, p) for p in rng.sample(range(20, 25), rng.randint(0, 2))]
        pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
        rng.shuffle(pairs)
        assert plane_components(pairs) == brute_force_components(pairs), pairs
        self_paired += any(a == b for a, b in pairs)
        repeated += len(set(pairs)) < len(pairs)
    assert self_paired > 100 and repeated > 100
    assert plane_components([]) == []
    assert plane_components(iter([(3, 1), (5, 5), (2, 1)])) == [[1, 2, 3], [5]]


def test_plane_components_of_shuffled_chains():
    # deep union trees: each component is a chain of points in random
    # order, its links oriented at random and given in order, reversed or
    # shuffled
    rng = random.Random(22)
    for _ in range(300):
        points = list(range(1, rng.randint(2, 80)))
        rng.shuffle(points)
        cuts = sorted(rng.sample(range(1, len(points)), min(rng.randint(0, 4), len(points) - 1)))
        chains = [points[a:b] for a, b in zip([0, *cuts], [*cuts, len(points)])]
        pairs = [
            (x, y) if rng.random() < 0.5 else (y, x)
            for chain in chains
            for x, y in zip(chain, chain[1:] or chain)
        ]
        order = rng.randrange(3)
        if order == 1:
            pairs.reverse()
        elif order == 2:
            rng.shuffle(pairs)
        assert plane_components(pairs) == sorted(sorted(chain) for chain in chains), pairs


def test_plane_components_of_a_long_chain_is_near_linear():
    # without path compression a chain of 20,000 planes given in order
    # takes about 10 s (quadratic); with it, tens of milliseconds
    n = 20_000
    pairs = [(i, i + 1) for i in range(1, n)]
    for given in (pairs, pairs[::-1]):
        t0 = time.perf_counter()
        assert plane_components(given) == [list(range(1, n + 1))]
        assert time.perf_counter() - t0 < 2.0


def test_classify_t4_vertices(t4):
    classes = {v.id: classify_vertex(t4, v) for v in t4.vertices}
    assert classes[1] == Inner3(edges=(1, 2, 4))
    assert classes[2] == Inner3(edges=(1, 5, 6))
    assert classes[3] == Inner3(edges=(2, 3, 6))
    assert classes[4] == Inner3(edges=(3, 4, 5))


def test_classify_dt4_four_points(dt4):
    classes = {v.id: classify_vertex(dt4, v) for v in dt4.vertices}
    assert classes[1] == Inner3(edges=(3, 5, 9))
    assert classes[2] == Inner3(edges=(1, 4, 7))
    v3 = classes[3]
    assert isinstance(v3, Inner4)
    assert v3.cycle == (1, 6, 9, 8)
    assert (v3.cycle[0], v3.cycle[2]) == (1, 9) and (v3.cycle[1], v3.cycle[3]) == (6, 8)
    assert classes[4].cycle == (2, 3, 8, 7)
    assert classes[5].cycle == (2, 4, 6, 5)


def test_classify_inner4_diagonals_share_no_plane(dt4):
    by_id = {e.id: e for e in dt4.edges}
    for v in dt4.vertices:
        cls = classify_vertex(dt4, v)
        if not isinstance(cls, Inner4):
            continue
        ring = cls.cycle
        for i in range(4):
            a, b = by_id[ring[i]], by_id[ring[(i + 1) % 4]]
            assert len(set(a.planes) & set(b.planes)) == 1
        for a, b in ((ring[0], ring[2]), (ring[1], ring[3])):
            assert set(by_id[a].planes).isdisjoint(by_id[b].planes)


def test_classify_five_edges_rejected(t4):
    v = Vertex(id=9, edges=frozenset({1, 2, 3, 4, 5}))
    with pytest.raises(UnsupportedMultiplicity):
        classify_vertex(t4, v)


def test_classify_bad_four_point(t4):
    # edges 1,2,3,4 of the tetrahedron do not form a plane-sharing 4-cycle
    v = Vertex(id=9, edges=frozenset({1, 2, 3, 4}))
    with pytest.raises(ClassificationError):
        classify_vertex(t4, v)


def test_classify_sweeps_every_four_point_on_four_planes():
    # all 16^4 assignments of plane pairs on planes 1..4 to the edges of a
    # 4-point, degenerate and repeated pairs included.  The three cyclic
    # orders of four edges are the oracle: a vertex is inner exactly when
    # one of them has consecutive edges that share a plane and diagonals
    # that share none, and then that is the cycle returned
    pairs = list(itertools.product(range(1, 5), repeat=2))
    v = Vertex(id=1, edges=frozenset({1, 2, 3, 4}))
    orders = ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4))
    accepted = 0
    for planes in itertools.product(pairs, repeat=4):
        c = DegenerationComplex(
            "sweep", 4, tuple(Edge(i, p) for i, p in enumerate(planes, 1)), (v,)
        )

        def shares(a, b):
            return not set(planes[a - 1]).isdisjoint(planes[b - 1])

        cycles = [
            o for o in orders
            if all(shares(o[i], o[i - 1]) for i in range(4))
            and not shares(o[0], o[2]) and not shares(o[1], o[3])
        ]
        try:
            cls = classify_vertex(c, v)
        except ClassificationError as exc:
            assert not cycles, planes
            assert str(exc) == "vertex 1: plane-sharing relation of its edges is not a 4-cycle"
            continue
        accepted += 1
        assert [cls] == [Inner4(cycle=o) for o in cycles], planes
    # a 4-cycle of the six plane pairs (3 of them), dealt to the four edges
    # (4!) with each pair in either order (2^4)
    assert accepted == 3 * 24 * 16


def test_parasitic_pairs_t4(t4):
    assert parasitic_pairs(t4) == [(1, 3), (2, 5), (4, 6)]


def test_parasitic_pairs_dt4(dt4):
    assert parasitic_pairs(dt4) == [
        (1, 2), (1, 3), (1, 5), (2, 9), (3, 4), (3, 6),
        (4, 8), (4, 9), (5, 7), (5, 8), (6, 7), (7, 9),
    ]


def test_parasitic_pairs_single_vertex_cone():
    cone = DegenerationComplex(
        name="cone",
        plane_count=3,
        edges=(Edge(1, (1, 2)), Edge(2, (2, 3)), Edge(3, (1, 3))),
        vertices=(Vertex(1, frozenset({1, 2, 3})),),
    )
    assert parasitic_pairs(cone) == []


def _met_pairs(c):
    """How many edge pairs lie together in some vertex."""
    ids = sorted(e.id for e in c.edges)
    return sum(
        any({a, b} <= v.edges for v in c.vertices) for a, b in itertools.combinations(ids, 2)
    )


def _counted_parasitic_pairs(c):
    """The parasitic pairs that ``singularity_counts`` counts into its
    nodes, d = 4 (parasitic pairs + inner 4-points)."""
    inner4 = sum(isinstance(classify_vertex(c, v), Inner4) for v in c.vertices)
    return singularity_counts(c).d // 4 - inner4


def test_pair_complement_identity_builtin(t4, dt4):
    for c, total in ((t4, 15), (dt4, 36)):
        e = c.edge_count
        assert e * (e - 1) // 2 == total
        assert len(parasitic_pairs(c)) + _met_pairs(c) == total
        assert _counted_parasitic_pairs(c) == len(parasitic_pairs(c))


def test_pair_complement_identity_random():
    rng = random.Random(20260810)
    for _ in range(100):
        c = random_valid_complex(rng)
        assert validate(c).valid
        e = c.edge_count
        assert len(parasitic_pairs(c)) + _met_pairs(c) == e * (e - 1) // 2
        assert _counted_parasitic_pairs(c) == len(parasitic_pairs(c))


def test_classification_invariant_under_relabeling(dt4):
    rng = random.Random(7)
    from .conftest import relabel_complex

    for _ in range(10):
        r = relabel_complex(dt4, rng)
        assert validate(r).valid
        kinds = sorted(
            type(classify_vertex(r, v)).__name__ for v in r.vertices
        )
        assert kinds == ["Inner3", "Inner3", "Inner4", "Inner4", "Inner4"]
