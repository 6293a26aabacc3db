import importlib.util
import itertools
import json
import math
import random
from pathlib import Path

import pytest

from galcov.complexes import (
    DegenerationComplex,
    Edge,
    PresentationOverrides,
    Vertex,
)
from galcov.coxeter import coxeter_route
from galcov.datasets import DT4_JSON, load_builtin
from galcov.enumeration import coset_enumeration
from galcov.permutations import SymmetricAssignment, plane_transposition_map
from galcov.presentation import (
    GroupPresentation,
    build_tilde_presentation,
    commutator_word,
    complement_path,
    parse_relation,
    projective_relator,
    triple_word,
)

# The eliminations that bring dt4's presentation down to the six generators
# of its Coxeter cycle, as the paper states them: each generator equals its
# word over the generators that stay.
DT4_PAPER_PLAN = (("g7", "g1 g4 g1"), ("g3", "g5 g9 g5"), ("g6", "g9 g8 g1 g8 g9"))


def word_of(text, names):
    """A whitespace-separated word of gK / gK^-1 tokens over ``names``."""
    return parse_relation("word: " + text, names)


@pytest.fixture(scope="session")
def t4():
    return load_builtin("t4")


@pytest.fixture(scope="session")
def dt4():
    return load_builtin("dt4")


@pytest.fixture(scope="session")
def t4_presentation(t4):
    return build_tilde_presentation(t4)


@pytest.fixture(scope="session")
def dt4_presentation(dt4):
    return build_tilde_presentation(dt4)


@pytest.fixture(scope="session")
def dt4_table(dt4_presentation):
    """Closed coset table of the dt4 group; shared, it is the slow step."""
    return coset_enumeration(dt4_presentation, (), 1_000_000)


@pytest.fixture(scope="session")
def dt4_assignment(dt4):
    return plane_transposition_map(dt4)


@pytest.fixture(scope="session")
def dt4_complement_table(dt4_presentation, dt4_assignment):
    """Coset table of the dt4 group over its S_6 complement: 16 rows."""
    path, _ = complement_path(dt4_presentation, dt4_assignment, 1_000_000)
    return coset_enumeration(dt4_presentation, [(g,) for g in path], 1_000_000)


# ---------------------------------------------------------------------------
# independent oracles


def mulclose(gens):
    """Brute-force closure of permutation generators; the Cayley oracle."""
    gens = list(gens)
    elements = {identity(len(gens[0]))}
    frontier = list(elements)
    while frontier:
        new = []
        for el in frontier:
            for g in gens:
                prod = tuple(g[x - 1] for x in el)
                if prod not in elements:
                    elements.add(prod)
                    new.append(prod)
        frontier = new
    return elements


def verify_table(pres, table):
    """Exhaustive closure check, independent of the enumeration strategy.

    Every generator column must be a permutation of the cosets, its
    inverse's column must undo it, and every relator must trace back to its
    starting coset from every coset.  Column 2k-2 is generator k's, 2k-1
    its inverse's.
    """
    n = table.coset_count
    assert len(table.columns) == 2 * table.generator_count
    for k in range(1, table.generator_count + 1):
        images, back = table.columns[2 * k - 2], table.columns[2 * k - 1]
        if sorted(images) != list(range(n)):
            raise AssertionError(f"generator {k} does not act as a permutation")
        for c, img in enumerate(images):
            if back[img] != c:
                raise AssertionError(f"inverse column of generator {k} inconsistent")
    for w in pres.relators:
        cols = [table.columns[2 * x - 2 if x > 0 else -2 * x - 1] for x in w]
        for c in range(n):
            d = c
            for col in cols:
                d = col[d]
            if d != c:
                raise AssertionError(
                    f"relator {w} does not trace to identity from coset {c}"
                )


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


def snf_oracle(matrix):
    """Invariant factors via determinantal divisors: d_k = D_k / D_{k-1}
    where D_k is the gcd of all k x k minors.  Entirely independent of any
    row/column reduction strategy."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    size = min(m, n)
    out = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = math.gcd(g, abs(_det(sub)))
        if g == 0:
            out.extend([0] * (size - len(out)))
            return tuple(out)
        out.append(g // prev)
        prev = g
    return tuple(out)


def parasitic_pairs(c):
    """Unordered pairs of edges sharing no vertex, sorted lexicographically:
    the line pairs that intersect only after projection, listed pair by
    pair as the oracle for the count in ``singularity_counts``."""
    together = set()
    for v in c.vertices:
        together.update(itertools.combinations(sorted(v.edges), 2))
    ids = sorted(e.id for e in c.edges)
    return [ab for ab in itertools.combinations(ids, 2) if ab not in together]


def vertex_pair_relators(c):
    """The pair relators of :func:`build_tilde_presentation` as the
    half-twist dictionary states them, vertex by vertex: a triple for each
    pair of a vertex's edges that share a plane, a commutator for each
    pair that shares none, and a commutator for each parasitic pair;
    the triples first, each part in sorted order."""
    planes = {e.id: set(e.planes) for e in c.edges}
    braid, commuting = set(), set(parasitic_pairs(c))
    for v in c.vertices:
        for a, b in itertools.combinations(sorted(v.edges), 2):
            (commuting if planes[a].isdisjoint(planes[b]) else braid).add((a, b))
    return [triple_word(a, b) for a, b in sorted(braid)] + [
        commutator_word(a, b) for a, b in sorted(commuting)
    ]


# ---------------------------------------------------------------------------
# generators of valid complexes for property tests


def prism_complex(n, name=None):
    """Prism over an n-gon: two caps and n side faces, all corners 3-points."""
    top, bottom = 1, 2
    side = [3 + i for i in range(n)]
    edges = []
    # ids: t_i = i+1, b_i = n+i+1, v_i = 2n+i+1  (i = 0..n-1)
    for i in range(n):
        edges.append(Edge(id=i + 1, planes=(top, side[i])))
    for i in range(n):
        edges.append(Edge(id=n + i + 1, planes=(bottom, side[i])))
    for i in range(n):
        edges.append(Edge(id=2 * n + i + 1, planes=(side[i], side[(i + 1) % n])))
    vertices = []
    for i in range(n):
        j = (i + 1) % n
        vertices.append(Vertex(id=i + 1, edges=frozenset({i + 1, j + 1, 2 * n + i + 1})))
    for i in range(n):
        j = (i + 1) % n
        vertices.append(
            Vertex(id=n + i + 1, edges=frozenset({n + i + 1, n + j + 1, 2 * n + i + 1}))
        )
    return DegenerationComplex(
        name=name or f"prism{n}",
        plane_count=n + 2,
        edges=tuple(edges),
        vertices=tuple(vertices),
    )


def plane_cycle_complex():
    """Twelve planes in a cycle, edge i joining planes i and i+1 (mod 12),
    on eight 3-points: each odd edge meets its two neighbours at one
    vertex each, and the even edges also meet in two triples.  Every two
    edges that share a plane share a vertex, but validate rejects it: the
    three edges of each vertex do not pairwise share a plane."""
    n = 12
    edges = tuple(Edge(id=i, planes=(i, i % n + 1)) for i in range(1, n + 1))
    triples = [(i, i + 1, (i + 1) % n + 1) for i in range(1, n, 2)] + [(2, 4, 6), (8, 10, 12)]
    vertices = tuple(Vertex(id=k, edges=frozenset(t)) for k, t in enumerate(triples, 1))
    return DegenerationComplex(
        name="plane-cycle", plane_count=n, edges=edges, vertices=vertices
    )


def octahedron_complex():
    """Octahedron: eight faces, all six corners are inner 4-points."""
    # faces: top T_i = 1..4, bottom B_i = 5..8 (i = 0..3 cyclic)
    def T(i):
        return 1 + i % 4

    def B(i):
        return 5 + i % 4

    edges = []
    # slant top s_i = 1..4 between T_{i-1}, T_i; slant bottom u_i = 5..8;
    # equator q_i = 9..12 between T_i, B_i
    for i in range(4):
        edges.append(Edge(id=1 + i, planes=(T(i - 1), T(i))))
    for i in range(4):
        edges.append(Edge(id=5 + i, planes=(B(i - 1), B(i))))
    for i in range(4):
        edges.append(Edge(id=9 + i, planes=(T(i), B(i))))
    vertices = [
        Vertex(id=1, edges=frozenset({1, 2, 3, 4})),
        Vertex(id=2, edges=frozenset({5, 6, 7, 8})),
    ]
    for i in range(4):
        s_i = 1 + i
        u_i = 5 + i
        q_i = 9 + i
        q_prev = 9 + (i - 1) % 4
        vertices.append(Vertex(id=3 + i, edges=frozenset({s_i, u_i, q_i, q_prev})))
    return DegenerationComplex(
        name="octahedron", plane_count=8, edges=tuple(edges), vertices=tuple(vertices)
    )


def coxeter_cover(m, k):
    """The Coxeter cover of the m-cycle with projective relator
    (g_m g_1 ... g_{m-1} ... g_1)^k: returns the presentation without
    that relator, the relator, and the map onto S_m.

    g_i transposes planes i and i+1 for i < m, and g_m planes 1 and m.
    Each generator is an involution, cycle neighbours braid and every
    other pair commutes.  g_1 ... g_{m-1} ... g_1 maps to (1 m), so the
    relator's image is a k-fold lattice translation, and K = Z_k^{m-1}."""
    names = tuple(f"g{i}" for i in range(1, m + 1))
    relators = [(g, g) for g in range(1, m + 1)]
    for i, j in itertools.combinations(range(1, m + 1), 2):
        adjacent = j == i + 1 or (i, j) == (1, m)
        relators.append((triple_word if adjacent else commutator_word)(i, j))
    arc = tuple(range(1, m)) + tuple(range(m - 2, 0, -1))
    proj = ((m,) + arc) * k
    planes = [(i, i + 1) for i in range(1, m)] + [(1, m)]
    symmetric = SymmetricAssignment(
        m, tuple(transposition(m, a, b) for a, b in planes)
    )
    return GroupPresentation.make(names, relators), proj, symmetric


def route_of_complex(c):
    """The Coxeter route on the complex ``c`` as ``analyze`` runs it at the
    default bound, with no table of G~."""
    pres = build_tilde_presentation(c, include_projective=False)
    return coxeter_route(pres, projective_relator(c), plane_transposition_map(c))


def write_dt4_power(path, k):
    """Write dt4^k to ``path``: dt4 with its projective relator repeated k
    times, the same complex.  Its kernel is Z_k x Z_2k^4, of order 16 k^5.
    Returns ``path``."""
    data = json.loads(DT4_JSON)
    word = data["overrides"]["projective_relator"].removeprefix("word:").split()
    data["overrides"]["projective_relator"] = "word: " + " ".join(word * k)
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# plane graphs: the planes 1..n as nodes, an edge's two planes as an edge


def local_condition(n, pairs):
    """Whether the plane graph on 1..n whose edges are the plane ``pairs``
    puts each plane on 2 or 3 edges, and every two edges on a plane in a
    triangle or a 4-cycle of the graph."""
    ends = {p: [] for p in range(1, n + 1)}
    for a, b in pairs:
        ends[a].append(b)
        ends[b].append(a)
    for p, others in ends.items():
        if len(others) not in (2, 3):
            return False
        for a, b in itertools.combinations(others, 2):
            if a == b or not (b in ends[a] or any(b in ends[x] for x in ends[a] if x != p)):
                return False
    return True


def plane_graphs(n):
    """Every connected plane graph on 1..n that meets
    :func:`local_condition`, as sorted edge tuples, in its least-neighbour
    labelings: each node v > 1 has a least neighbour p(v) < v, its parent
    in the breadth-first tree, with p(2) <= ... <= p(n), and its other
    neighbours u < v lie between p(v) and v.  Labeling the nodes in
    breadth-first order gives every connected graph such a labeling, and
    isomorphic graphs may have several."""
    def trees(parents, children):
        v = len(parents) + 2
        if v > n:
            yield parents
            return
        for p in range(parents[-1] if parents else 1, v):
            if children[p] < (3 if p == 1 else 2):
                children[p] += 1
                yield from trees(parents + [p], children)
                children[p] -= 1

    for parents in trees([], [0] * (n + 1)):
        tree = list(zip(parents, range(2, n + 1)))
        degree = [0] * (n + 1)
        for p, v in tree:
            degree[p] += 1
            degree[v] += 1
        chords = [(u, v) for p, v in tree for u in range(p + 1, v)]

        def extend(i, chosen):
            if i == len(chords):
                if local_condition(n, tree + chosen):
                    yield tuple(sorted(tree + chosen))
                return
            yield from extend(i + 1, chosen)
            u, v = chords[i]
            if degree[u] < 3 and degree[v] < 3:
                degree[u] += 1
                degree[v] += 1
                yield from extend(i + 1, chosen + [(u, v)])
                degree[u] -= 1
                degree[v] -= 1

        yield from extend(0, [])


def isomorphism_class(n, pairs):
    """The least relabeling of the edge tuple ``pairs`` over all n! node
    permutations: equal for isomorphic graphs, and only for those."""
    return min(
        tuple(sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in pairs))
        for perm in itertools.permutations(range(1, n + 1))
    )


def pair_rule_presentation(n, pairs):
    """The presentation the pair rule gives the plane graph: a generator per
    edge with its square, a braid for two edges that share a plane and a
    commutator for two that do not; and the map onto S_n that sends each
    edge to the transposition of its planes."""
    m = len(pairs)
    relators = [(g, g) for g in range(1, m + 1)]
    for i, j in itertools.combinations(range(1, m + 1), 2):
        shared = set(pairs[i - 1]) & set(pairs[j - 1])
        relators.append((triple_word if shared else commutator_word)(i, j))
    names = tuple(f"g{g}" for g in range(1, m + 1))
    images = tuple(transposition(n, a, b) for a, b in pairs)
    return GroupPresentation.make(names, relators), SymmetricAssignment(n, images)


def serialize_complex(c):
    """Inverse of :func:`galcov.complexes.parse_complex` on the data model."""
    data = {
        "name": c.name,
        "planes": c.plane_count,
        "edges": [{"id": e.id, "planes": list(e.planes)} for e in c.edges],
        "vertices": [{"id": v.id, "edges": sorted(v.edges)} for v in c.vertices],
    }
    if c.overrides is not None:
        ov = {"extra_relators": list(c.overrides.extra_relators)}
        if c.overrides.projective_relator is not None:
            ov["projective_relator"] = c.overrides.projective_relator
        data["overrides"] = ov
    return json.dumps(data, indent=2)


def load_relabel_json():
    """``relabel_json`` of the benchmark's ``perfbench/relabel.py``, loaded
    from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "relabel.py"
    spec = importlib.util.spec_from_file_location("relabel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.relabel_json


def relabel_complex(c, rng):
    """Random relabeling of planes, edge ids, and vertex ids."""
    planes = list(range(1, c.plane_count + 1))
    rng.shuffle(planes)
    plane_map = {i + 1: planes[i] for i in range(c.plane_count)}
    eids = list(range(1, c.edge_count + 1))
    rng.shuffle(eids)
    edge_map = {e.id: eids[i] for i, e in enumerate(c.edges)}
    vids = list(range(1, len(c.vertices) + 1))
    rng.shuffle(vids)
    edges = tuple(
        sorted(
            (
                Edge(id=edge_map[e.id], planes=(plane_map[e.planes[0]], plane_map[e.planes[1]]))
                for e in c.edges
            ),
            key=lambda e: e.id,
        )
    )
    vertices = tuple(
        sorted(
            (
                Vertex(id=vids[i], edges=frozenset(edge_map[x] for x in v.edges))
                for i, v in enumerate(c.vertices)
            ),
            key=lambda v: v.id,
        )
    )
    overrides = c.overrides
    if overrides is not None:
        proj = overrides.projective_relator
        overrides = PresentationOverrides(
            tuple(_relabel_relation(line, edge_map) for line in overrides.extra_relators),
            None if proj is None else _relabel_relation(proj, edge_map),
        )
    return DegenerationComplex(
        name=c.name + "-relabeled",
        plane_count=c.plane_count,
        edges=edges,
        vertices=vertices,
        overrides=overrides,
    )


# leading generator indices of each relation form (``ccomm K : W``, ...)
_INDEX_ARGS = {"sq": 1, "triple": 2, "comm": 2, "ccomm": 1}


def _relabel_relation(line, edge_map):
    """A relation-grammar line with every generator index and ``gK`` token
    mapped through the edge relabeling, so it states the same relation."""
    tokens = line.split()
    indices = _INDEX_ARGS.get(tokens[0], 0)
    out = tokens[:1]
    for tok in tokens[1:]:
        if len(out) <= indices:
            out.append(str(edge_map[int(tok)]))
        elif tok.startswith("g"):
            k, _, power = tok[1:].partition("^")
            out.append(f"g{edge_map[int(k)]}" + (f"^{power}" if power else ""))
        else:
            out.append(tok)
    return " ".join(out)


def random_valid_complex(rng):
    base = rng.choice([octahedron_complex(), load_builtin("t4"), load_builtin("dt4")])
    return relabel_complex(base, rng)


# permutations of 1..n are image tuples: p[x-1] is the image of x


def identity(n):
    return tuple(range(1, n + 1))


def transposition(n, i, j):
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def compose(p, q):
    """The product pq, its left factor acting first: x -> q(p(x))."""
    if len(p) != len(q):
        raise ValueError("degree mismatch")
    return tuple(q[x - 1] for x in p)


def invert(p):
    images = [0] * len(p)
    for i, x in enumerate(p, 1):
        images[x - 1] = i
    return tuple(images)


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def cycles(n, *cs):
    images = list(range(1, n + 1))
    for c in cs:
        for i, x in enumerate(c):
            images[x - 1] = c[(i + 1) % len(c)]
    return tuple(images)


def word_permutation(model, word):
    """The word's image, letter k sent to model[k-1], as a left-to-right
    product of image tuples: the oracle for word evaluation."""
    acc = identity(len(model[0]))
    for x in word:
        g = model[abs(x) - 1]
        acc = compose(acc, g if x > 0 else invert(g))
    return acc


# ---------------------------------------------------------------------------
# the semidirect product of S_m with the sum-zero lattice, written out as
# pairs (sigma, vec) to check the windows that galcov.coxeter computes with


def window(perm, vec):
    """Window of sigma * u(vec): w_i = sigma(i) + m*vec[sigma(i)]."""
    m = len(perm)
    return tuple(s + m * vec[s - 1] for s in perm)


def decode_window(w):
    """The pair (sigma, vec) whose window is ``w``."""
    m = len(w)
    sigma = tuple((x - 1) % m + 1 for x in w)
    vec = [0] * m
    for x, s in zip(w, sigma):
        vec[s - 1] = (x - s) // m
    return sigma, tuple(vec)


def _moved(perm, vec):
    """vec with coordinate i carried to perm(i), so u_{i,j} goes to
    u_{perm(i),perm(j)}."""
    out = [0] * len(vec)
    for s, c in zip(perm, vec):
        out[s - 1] = c
    return tuple(out)


def sd_product(a, b):
    """(sigma_a, v_a)(sigma_b, v_b) = (sigma_a sigma_b, v_a.sigma_b + v_b)."""
    (sa, va), (sb, vb) = a, b
    return compose(sa, sb), tuple(x + y for x, y in zip(_moved(sb, va), vb))


def sd_inverse(a):
    sigma, vec = a
    inverse = invert(sigma)
    return inverse, tuple(-x for x in _moved(inverse, vec))


def u_vector(n, i, j):
    """e-coordinates of the lattice generator u_{i,j} = e_i - e_j."""
    vec = [0] * n
    vec[i - 1] += 1
    vec[j - 1] -= 1
    return tuple(vec)
