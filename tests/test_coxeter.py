import itertools
import math
import random

import pytest

import galcov.cli
import galcov.coxeter
import galcov.presentation
from galcov.cli import DEFAULT_MAX_COSETS, _verdict_dict, analyze
from galcov.complexes import parse_complex
from galcov.coxeter import (
    CoxeterError,
    CoxeterGraph,
    coxeter_route,
    derive_plan,
    eval_words,
    label_cycle,
    lattice_quotient,
    standard_assignment,
    u_basis_coords,
)
from galcov.datasets import DT4_JSON, load_builtin
from galcov.enumeration import CosetTable, coset_enumeration
from galcov.kernel import regular_kernel, smith_normal_form
from galcov.permutations import SymmetricAssignment, plane_transposition_map
from galcov.presentation import (
    GroupPresentation,
    SearchBound,
    build_tilde_presentation,
    commutator_word,
    complement_path,
    eliminate_and_rewrite,
    eliminate_in_turn,
    format_word,
    hamiltonian_paths,
    invert_word,
    projective_relator,
    relation_holds,
    triple_word,
)

from .conftest import (
    DT4_PAPER_PLAN,
    compose,
    coxeter_cover,
    decode_window,
    identity,
    load_relabel_json,
    mulclose,
    random_permutation,
    relabel_complex,
    route_of_complex,
    sd_inverse,
    sd_product,
    transposition,
    u_vector,
    window,
    word_of,
    write_dt4_power,
)


def random_sd(rng, n):
    vec = [rng.randint(-3, 3) for _ in range(n - 1)]
    vec.append(-sum(vec))
    return window(random_permutation(rng, n), vec)


def u(n, i, j):
    return window(identity(n), u_vector(n, i, j))


def t(n, i, j, vec=None):
    """Window of the transposition (i j), times u(vec) when given."""
    return window(transposition(n, i, j), vec or (0,) * n)


def mul(*factors):
    return eval_words(factors, [range(1, len(factors) + 1)])[0]


def inverse(w):
    return window(*sd_inverse(decode_window(w)))


# ---------------------------------------------------------------------------
# arithmetic laws


def test_sd_arithmetic_laws_1000_triples():
    rng = random.Random(424242)
    for _ in range(1000):
        n = rng.randint(2, 7)
        x, y, z = (random_sd(rng, n) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z)) == mul(x, y, z)
        e = identity(n)
        assert mul(e, x) == x and mul(x, e) == x
        assert mul(x, inverse(x)) == e
        assert mul(inverse(x), x) == e
        assert inverse(mul(x, y)) == mul(inverse(y), inverse(x))
        assert decode_window(mul(x, y)) == sd_product(decode_window(x), decode_window(y))


def test_conjugation_action_on_lattice():
    # conjugating u_{i,j} by a group element whose permutation part is
    # sigma sends it to u over the transported indices
    rng = random.Random(31337)
    for _ in range(300):
        n = rng.randint(2, 7)
        i, j = rng.sample(range(1, n + 1), 2)
        sigma = random_permutation(rng, n)
        s = window(sigma, (0,) * n)
        assert mul(inverse(s), u(n, i, j), s) == u(n, sigma[i - 1], sigma[j - 1])
        # an involution is its own inverse letter: tr u tr^-1 shares tr's window
        a, b = rng.sample(range(1, n + 1), 2)
        tr = transposition(n, a, b)
        lhs = eval_words([t(n, a, b), u(n, i, j)], [(1, 2, -1)])[0]
        assert lhs == u(n, tr[i - 1], tr[j - 1])


def test_u_relations_in_vector_model():
    n = 6
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            assert mul(u(n, i, j), u(n, j, i)) == identity(n)
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                assert mul(u(n, i, k), u(n, k, j)) == u(n, i, j)


def test_worked_product_from_assignment():
    # (1 2) * (1 6)u_{1,6} * (1 2) = (2 6)u_{2,6}
    n = 6
    g9 = t(n, 1, 2)
    g5 = t(n, 1, 6, u_vector(n, 1, 6))
    assert decode_window(mul(g9, g5, g9)) == (transposition(n, 2, 6), u_vector(n, 2, 6))


def cycle_graph(m):
    return CoxeterGraph(
        vertex_count=m,
        edges=tuple((f"a{k}", (k, k + 1)) for k in range(1, m)) + ((f"a{m}", (1, m)),),
    )


def test_eval_word_matches_the_semidirect_product():
    # oracle: the product written out on pairs (sigma, vec), with inverse
    # letters inverted there rather than taken as the letter itself
    rng = random.Random(8128)
    for m in range(3, 8):
        graph = cycle_graph(m)
        windows = standard_assignment(graph)
        images = [windows[label] for label, _ in graph.edges]
        pairs = [(transposition(m, i, j), (0,) * m) for _, (i, j) in graph.edges[:-1]]
        pairs.append((transposition(m, 1, m), u_vector(m, 1, m)))
        for _ in range(200):
            word = [rng.choice((1, -1)) * rng.randint(1, m) for _ in range(rng.randint(0, 12))]
            expected = (identity(m), (0,) * m)
            for x in word:
                pair = pairs[abs(x) - 1]
                expected = sd_product(expected, pair if x > 0 else sd_inverse(pair))
            assert decode_window(eval_words(images, [word])[0]) == expected, (m, word)


def per_entry(images, word):
    """The product's window entry by entry: y = j + m*t goes to w_j + m*t
    under each letter's window, a letter and its inverse sharing one."""
    m = len(images[0])
    acc = identity(m)
    for x in word:
        w = images[abs(x) - 1]
        acc = tuple(w[(y - 1) % m] + (y - 1) // m * m for y in acc)
    return acc


def test_eval_words_matches_the_per_entry_formula():
    # random windows move entries by several multiples of m, so products
    # reach well past one window either side of 1..m
    rng = random.Random(2718)
    wide = 0
    for _ in range(300):
        m = rng.randint(2, 7)
        images = [random_sd(rng, m) for _ in range(rng.randint(1, 4))]
        wide += max(abs(x - i) for w in images for i, x in enumerate(w, 1)) > 1
        words = [()] + [
            tuple(
                rng.choice((1, -1)) * rng.randint(1, len(images))
                for _ in range(rng.randint(1, 15))
            )
            for _ in range(rng.randint(0, 6))
        ]
        rng.shuffle(words)
        assert eval_words(images, words) == [per_entry(images, w) for w in words]
        assert eval_words(images, []) == []
    assert wide > 250


def test_eval_words_matches_the_per_entry_formula_on_long_words():
    # windows with translations, and words of thousands of letters with
    # inverse letters, whose products move entries far past 1..m
    rng = random.Random(1618)
    far = 0
    for _ in range(12):
        m = rng.randint(2, 7)
        images = []
        for _ in range(rng.randint(1, 4)):
            vec = [rng.randint(-1, 1) for _ in range(m - 1)]
            images.append(window(random_permutation(rng, m), vec + [-sum(vec)]))
        words = [
            tuple(
                rng.choice((1, -1)) * rng.randint(1, len(images))
                for _ in range(rng.randint(1000, 3000))
            )
            for _ in range(2)
        ]
        got = eval_words(images, words)
        assert got == [per_entry(images, w) for w in words]
        far += any(not -m < x <= 2 * m for w in got for x in w)
    assert far > 6


def test_eval_word_refuses_a_word_off_the_assignment():
    with pytest.raises(CoxeterError, match="empty assignment"):
        eval_words([], [(1,)])
    with pytest.raises(CoxeterError, match="unassigned generator 3"):
        eval_words([(2, 1, 3), (1, 3, 2)], [(1, -3)])
    # in a batch, whichever word holds the letter
    rng = random.Random(99)
    images = [random_sd(rng, 4) for _ in range(2)]
    for bad in (3, -3, 0):
        for at in range(4):
            words = [(1, 2), (), (2, -1, 1), (1,)]
            words[at] += (bad,)
            with pytest.raises(CoxeterError, match=f"unassigned generator {abs(bad)}"):
                eval_words(images, words)


# ---------------------------------------------------------------------------
# graphs and assignments


def hexagon_graph():
    return CoxeterGraph(
        vertex_count=6,
        edges=(
            ("g9", (1, 2)),
            ("g8", (2, 3)),
            ("g1", (3, 4)),
            ("g4", (4, 5)),
            ("g2", (5, 6)),
            ("g5", (1, 6)),
        ),
    )


def test_standard_assignment_hexagon():
    a = standard_assignment(hexagon_graph())
    n = 6
    assert a["g1"] == t(n, 3, 4)
    assert a["g2"] == t(n, 5, 6)
    assert a["g4"] == t(n, 4, 5)
    assert a["g8"] == t(n, 2, 3)
    assert a["g9"] == t(n, 1, 2)
    # the affine reflection (1 6)u_{1,6}
    assert a["g5"] == (0, 2, 3, 4, 5, 7)
    assert decode_window(a["g5"]) == (transposition(n, 1, 6), u_vector(n, 1, 6))


def test_standard_assignment_triangle():
    g = CoxeterGraph(
        vertex_count=3,
        edges=(("a", (1, 2)), ("b", (2, 3)), ("c", (1, 3))),
    )
    a = standard_assignment(g)
    assert a["a"] == t(3, 1, 2)
    assert a["b"] == t(3, 2, 3)
    assert decode_window(a["c"]) == (transposition(3, 1, 3), u_vector(3, 1, 3))
    # the cycle-quotient relations hold under the images: adjacent edges
    # braid, and every image squares to the identity
    for img in a.values():
        assert mul(img, img) == identity(3)
    for x, y in (("a", "b"), ("b", "c"), ("a", "c")):
        assert mul(a[x], a[y], a[x]) == mul(a[y], a[x], a[y])


# ---------------------------------------------------------------------------
# word evaluation against the expected images


@pytest.fixture(scope="module")
def dt4_route(dt4, dt4_assignment):
    pres_noproj = build_tilde_presentation(dt4, include_projective=False)
    return coxeter_route(pres_noproj, projective_relator(dt4), symmetric=dt4_assignment)


def test_route_reproduces_expected_images(dt4_route):
    assert dt4_route.supported
    a = dt4_route.assignment
    names = dt4_route.reduced.names
    images = [a[name] for name in names]

    def ev(text):
        return eval_words(images, [word_of(text, names)])[0]

    n = 6
    assert ev("g9 g5 g9") == t(n, 2, 6, u_vector(n, 2, 6))
    assert ev("g1 g4 g1") == t(n, 3, 5)
    assert ev("g9 g8 g1 g8 g9") == t(n, 1, 4)
    # primed generators, with the eliminated letters expanded
    g3 = "g9 g5 g9"
    g7 = "g1 g4 g1"
    g6 = "g9 g8 g1 g8 g9"
    prime2 = ev(f"{g3} g8 {g7} g8 {g3}")
    assert prime2 == t(n, 5, 6, u_vector(n, 5, 6))
    prime6 = ev(f"{g6} g5 g2 g4 g2 g5 {g6}")
    assert prime6 == t(n, 1, 4, u_vector(n, 4, 1))
    prime8 = ev(f"g8 {g7} g2 {g3} g2 {g7} g8")
    assert prime8 == t(n, 2, 3, u_vector(n, 3, 2))


def test_route_projective_vector(dt4_route):
    assert dt4_route.proj_u_coords == (1, 2, 1, 0, -1)
    # e-coordinates: e1 + e2 - e3 - e4 - e5 + e6
    assert dt4_route.proj_vector == (1, 1, -1, -1, -1, 1)


def test_route_graph_matches_expected_labeling(dt4_route):
    assert dt4_route.graph.edges == hexagon_graph().edges


def test_route_assignment_satisfies_reduced_relators(dt4_route):
    reduced = dt4_route.reduced
    assert reduced.names == ("g1", "g2", "g4", "g5", "g8", "g9")
    images = [dt4_route.assignment[name] for name in reduced.names]
    assert reduced.relators
    for r in reduced.relators:
        assert eval_words(images, [r])[0] == identity(6), r


def check_against_the_rewrite(route, proj):
    """The route's results against the words it evaluated while it
    rewrote the presentation: every relator of ``route.reduced`` is 1
    under the assignment, and the projective relator, rewritten in the
    same pass, is the translation by ``route.proj_vector``."""
    image = {**route.plan, **{-g: invert_word(w) for g, w in route.plan.items()}}
    reduced, (proj_reduced,) = eliminate_and_rewrite(route.presentation, image, (proj,))
    assert reduced == route.reduced
    m = route.graph.vertex_count
    images = [route.assignment[name] for name in reduced.names]
    *values, element = eval_words(images, reduced.relators + (proj_reduced,))
    assert values and all(v == identity(m) for v in values)
    assert element == window(identity(m), route.proj_vector)


def test_route_matches_its_rewritten_presentation(tmp_path, dt4):
    # dt4, its relabelings and its powers, each with three chords; the
    # Coxeter covers, which have none, are checked where their routes run
    relabel_json = load_relabel_json()
    complexes = [dt4]
    complexes += [parse_complex(relabel_json(DT4_JSON, random.Random(s))) for s in range(6)]
    for k in (2, 3):
        path = write_dt4_power(tmp_path / f"dt4-power{k}.json", k)
        complexes.append(parse_complex(path.read_text(encoding="utf-8")))
    for c in complexes:
        route = route_of_complex(c)
        assert route.supported and len(route.plan) == 3
        check_against_the_rewrite(route, projective_relator(c))


def chord_words(cycle, ends):
    """The words of a chord whose planes sit at the cycle positions
    ``ends``, in the order the plan tries them."""
    i, j = ends
    arcs = sorted((cycle[i:j], cycle[j:] + cycle[:i]), key=len)
    return [w for arc in arcs for w in (arc + arc[-2::-1], arc[::-1] + arc[1:])]


def test_chord_windows_are_those_of_the_table_checked_words(tmp_path, dt4):
    # once the group without its projective relator is the affine group,
    # its map there is unique: each chord's window is that of the first of
    # its words that relation_holds accepts on the table of G~ over an S_n
    # complement, which is how the plan was checked before
    relabel_json = load_relabel_json()
    complexes = [dt4]
    complexes += [parse_complex(relabel_json(DT4_JSON, random.Random(s))) for s in range(6)]
    for k in (2, 3):
        path = write_dt4_power(tmp_path / f"dt4-power{k}.json", k)
        complexes.append(parse_complex(path.read_text(encoding="utf-8")))
    for c in complexes:
        full = build_tilde_presentation(c)
        symmetric = plane_transposition_map(c)
        path, _ = complement_path(full, symmetric, 1_000_000)
        table = coset_enumeration(full, [(g,) for g in path], 1_000_000)
        pres = build_tilde_presentation(c, include_projective=False)
        cycle, plan, windows = derive_plan(pres, symmetric, 1_000_000)
        planes = [1]
        for g in cycle[:-1]:
            a, b = symmetric.moved[g - 1]
            planes.append(b if planes[-1] == a else a)
        at = {p: k for k, p in enumerate(planes)}
        assert len(plan) == 3
        for g in plan:
            words = chord_words(cycle, sorted(map(at.get, symmetric.moved[g - 1])))
            checked = next(w for w in words if relation_holds(g, w, table, symmetric))
            assert eval_words(windows, [checked]) == [windows[g - 1]]


@pytest.mark.parametrize("k", [1, 2, 3, 10, 100, 1000])
def test_dt4_power_on_the_coxeter_route(tmp_path, k):
    # dt4^k: |K| = 16 k^5 and K = Z_k x Z_2k^4, with no table of G~; the
    # enumeration over the cycle is the same for every k
    path = write_dt4_power(tmp_path / f"dt4-power{k}.json", k)
    report = analyze(str(path), route="coxeter")
    assert not report.undecided
    assert report.kernel_order == 16 * k**5 and report.tilde_order == 720 * 16 * k**5
    assert report.coxeter_route["invariants"] == [k, 2 * k, 2 * k, 2 * k, 2 * k]
    assert report.coxeter_route["order"] == 16 * k**5
    assert not {"complement", "enumerate"} & set(report.timings)


def test_dt4_route_evaluates_as_written(monkeypatch):
    # every product is one _product call, and no word is evaluated twice
    # under the same letter moves: the plan evaluates the 54 relators and
    # the 12 candidate words, the relators on g6 alone once per window of
    # g6, those on several chords once per windows of their own chords, in
    # the two combinations tried (g6's two windows), 94 calls in all; the
    # projective relator is the 95th, in the one eval_words batch, and the
    # presentation is never rewritten
    eliminations = count_calls(monkeypatch, galcov.coxeter, "eliminate_and_rewrite")
    batches = count_calls(monkeypatch, galcov.coxeter, "eval_words")
    evaluated = []
    real = galcov.coxeter._product

    def recording(moves, word, m):
        evaluated.append((word, tuple(moves[x] for x in word)))
        return real(moves, word, m)

    monkeypatch.setattr(galcov.coxeter, "_product", recording)
    pres = build_tilde_presentation(load_builtin("dt4"), include_projective=False)
    assert len(pres.relators) == 54
    assert analyze("dt4", route="coxeter").coxeter_route["supported"]
    assert eliminations == []
    assert [len(words) for _, words in batches] == [1]
    assert len(evaluated) == len(set(evaluated)) == 95
    assert evaluated[-1][0] == projective_relator(load_builtin("dt4"))


NO_CYCLE = (
    "no Hamiltonian cycle of the plane graph writes every other generator as a word over the cycle"
)


def test_route_with_a_relator_a_chord_breaks_is_unsupported(monkeypatch, dt4, dt4_assignment):
    # dt4's projective relator, stated among the relators too, names the
    # chords g3, g6 and g7 and maps to a nonzero translation under the
    # windows every other relator allows: no cycle has a plan, and the
    # enumeration over a cycle, which could run away on a cycle that fails
    # in the affine group, never starts
    enumerations = count_calls(monkeypatch, galcov.coxeter, "coset_enumeration")
    pres = build_tilde_presentation(dt4, include_projective=False)
    proj = projective_relator(dt4)
    assert {3, 6, 7} <= set(map(abs, proj))
    broken = GroupPresentation.make(pres.names, pres.relators + (proj,))
    route = coxeter_route(broken, proj, dt4_assignment)
    assert not route.supported
    assert route.reason == NO_CYCLE
    assert enumerations == []
    with pytest.raises(CoxeterError, match=f"^{NO_CYCLE}$"):
        derive_plan(broken, dt4_assignment, 1_000_000)


def test_route_quotient(dt4_route):
    assert dt4_route.quotient.invariants == (1, 2, 2, 2, 2)
    assert dt4_route.quotient.order == 16
    v = dt4_route.verdict()
    assert v.describe() == "Z2^4"
    assert v.kind == "ElementaryAbelian2" and v.rank == 4


def test_conjugation_checks_mod_two(dt4_route):
    # the residual vector u12 + u34 + u56 is fixed, mod 2, by every
    # adjacent transposition
    n = 6
    residual = [sum(c) for c in zip(u_vector(n, 1, 2), u_vector(n, 3, 4), u_vector(n, 5, 6))]
    for k in range(1, n):
        sigma = transposition(n, k, k + 1)
        moved = [0] * n
        for i, c in enumerate(residual):
            moved[sigma[i] - 1] = c
        assert [(x - y) % 2 for x, y in zip(moved, residual)] == [0] * n


# ---------------------------------------------------------------------------
# the lattice quotient


def test_lattice_quotient_projective_vector():
    # u-coordinates (1, 2, 1, 0, -1)
    q = lattice_quotient((1, 1, -1, -1, -1, 1))
    assert q.invariants == (1, 2, 2, 2, 2)
    assert q.order == 16
    assert q.verdict().kind == "ElementaryAbelian2"


def test_lattice_quotient_zero_vector():
    q = lattice_quotient((0,) * 6)
    assert q.invariants == (0, 0, 0, 0, 0)
    assert q.order is None
    # the verdict spells out each free factor
    assert q.verdict().describe() == "Z x Z x Z x Z x Z"


def test_lattice_quotient_single_root():
    # the orbit of u_{1,2} spans the whole sum-zero lattice
    q = lattice_quotient((1, -1, 0, 0, 0, 0))
    assert q.invariants == (1, 1, 1, 1, 1)
    assert q.order == 1
    assert q.verdict().kind == "Trivial"


def orbit_invariants(vec):
    """Invariant factors of the sum-zero lattice modulo the span of the
    whole S_n-orbit of ``vec``: the oracle for ``lattice_quotient``."""
    n = len(vec)
    rows = [u_basis_coords(w) for w in set(itertools.permutations(vec))]
    diag = smith_normal_form(rows)
    return tuple(diag[: n - 1]) + (0,) * (n - 1 - len(diag))


def test_lattice_quotient_matches_orbit_oracle():
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(2, 7)
        scale = rng.choice((1, 2, 3))
        vec = [scale * rng.randint(-1, 1) for _ in range(n - 1)]
        vec.append(-sum(vec))
        q = lattice_quotient(vec)
        assert q.invariants == orbit_invariants(vec)
    # arbitrary entries, where gcd(g, v_1) and g differ; n <= 6 keeps the
    # orbit at most 720 vectors
    for _ in range(300):
        n = rng.randint(2, 6)
        vec = [rng.randint(-20, 20) for _ in range(n - 1)]
        vec.append(-sum(vec))
        q = lattice_quotient(vec)
        assert q.invariants == orbit_invariants(vec)
        assert q.order == (math.prod(q.invariants) if any(vec) else None)


def test_lattice_quotient_does_not_list_the_orbit():
    # g = 12; listing the orbit by permutations would walk all
    # 12! = 479,001,600 orderings
    q = lattice_quotient((1,) * 11 + (-11,))
    assert q.invariants == (1,) + (12,) * 10
    assert q.order == 12**10


# ---------------------------------------------------------------------------
# reduction and recognition on the tetrahedron (unsupported case)


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` that pass through that module."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_t4_route_unsupported(monkeypatch, t4):
    # t4 has no projective relator: the route stops before it reduces
    eliminations = count_calls(monkeypatch, galcov.coxeter, "eliminate_and_rewrite")
    evaluations = count_calls(monkeypatch, galcov.coxeter, "eval_words")
    rng = random.Random(12)
    for c in [t4] + [relabel_complex(t4, rng) for _ in range(4)]:
        pres = build_tilde_presentation(c, include_projective=False)
        route = coxeter_route(pres, projective_relator(c), plane_transposition_map(c))
        assert not route.supported
        assert route.reason == "no projective relator to quotient by"
    assert eliminations == [] and evaluations == []
    # the counter sees a route that runs: one batch for all its words
    assert triangle_route((1, 3, 2, 3)).supported
    assert len(evaluations) == 1


def triangle_presentation(*extra):
    """Squares and three braids: the cycle quotient of a triangle."""
    relators = [(g, g) for g in (1, 2, 3)]
    relators += [triple_word(1, 2), triple_word(2, 3), triple_word(1, 3)]
    return GroupPresentation.make(("g1", "g2", "g3"), relators + list(extra))


def triangle_route(proj, *extra):
    """The route on the triangle, whose generators transpose the planes
    (1 2), (2 3) and (1 3)."""
    pres = triangle_presentation(*extra)
    symmetric = SymmetricAssignment(
        3, tuple(transposition(3, *ab) for ab in ((1, 2), (2, 3), (1, 3)))
    )
    return coxeter_route(pres, proj, symmetric)


def test_triangle_route_without_projective_relator_is_unsupported():
    route = triangle_route(None)
    assert not route.supported
    assert route.reason == "no projective relator to quotient by"
    assert route.reduced is None and route.quotient is None


def test_triangle_route_quotients_by_a_root():
    # the walk starts at g3, so g1 is the non-tree edge (1, 3): g1 maps to
    # (1 3)u_{1,3} and g3 g2 g3 to (1 3), leaving the root -u_{1,3}
    route = triangle_route((1, 3, 2, 3))
    assert route.supported
    assert route.graph.edges == (("g3", (1, 2)), ("g2", (2, 3)), ("g1", (1, 3)))
    assert route.proj_vector == (-1, 0, 1)
    assert route.quotient.order == 1
    assert route.verdict().kind == "Trivial"


def test_route_with_a_relator_the_cycle_breaks_is_unsupported(monkeypatch):
    # g1 g2 maps onto the 3-cycle (1 3)(2 3), so (g1 g2)^2 does not; the
    # plane graph is the cycle itself, whose relators fail in the affine
    # group on every walk, so the enumeration over it never starts
    enumerations = count_calls(monkeypatch, galcov.coxeter, "coset_enumeration")
    route = triangle_route((1, 3, 2, 3), (1, 2, 1, 2))
    assert not route.supported
    assert route.reason == NO_CYCLE
    assert enumerations == []


def test_projective_relator_off_the_lattice_is_unsupported():
    route = triangle_route((1,))
    assert not route.supported
    assert route.reason.startswith("projective relator has a non-identity permutation part")
    assert route.proj_vector is None


def square_presentation(missing=None):
    """Squares, the braids of the 4-cycle g1 g2 g3 g4 and the commutators
    of its two opposite pairs, less the relator ``missing``."""
    relators = [(g, g) for g in (1, 2, 3, 4)]
    relators += [triple_word(g, g % 4 + 1) for g in (1, 2, 3, 4)]
    relators += [commutator_word(1, 3), commutator_word(2, 4)]
    if missing is not None:
        relators.remove(missing)
    return GroupPresentation.make(("g1", "g2", "g3", "g4"), relators)


def square_plan(pres):
    """The cycle and plan of derive_plan on ``pres``, whose generators g1
    g2 g3 g4 transpose the planes (1 2), (2 3), (3 4) and (1 4)."""
    _, _, symmetric = coxeter_cover(4, 2)
    return derive_plan(pres, symmetric, 1_000)[:2]


def test_derive_plan_walks_the_square():
    assert square_plan(square_presentation()) == ((1, 2, 3, 4), {})


@pytest.mark.parametrize(
    "missing",
    [triple_word(1, 2), triple_word(4, 1), commutator_word(2, 4), commutator_word(1, 3)],
    ids=["path-braid", "closing-braid", "closing-commutator", "path-commutator"],
)
def test_derive_plan_needs_every_braid_and_commutator_of_the_cycle(missing):
    # the square's only cycle, walked from plane 1 either way, lacks a pair
    with pytest.raises(CoxeterError, match=f"^{NO_CYCLE}$"):
        square_plan(square_presentation(missing))


def test_derive_plan_walks_no_generator_without_its_square():
    # g3 is no involution, so no walk takes it, and the rest of the square
    # is a path through plane 1 from neither end
    pres = square_presentation((3, 3))
    _, _, symmetric = coxeter_cover(4, 2)
    paths = list(hamiltonian_paths(pres, symmetric, (1, 2, 3, 4), 1_000))
    assert paths == [((2, 1, 4), (3, 2, 1, 4)), ((4, 1, 2), (4, 1, 2, 3))]
    with pytest.raises(CoxeterError, match=f"^{NO_CYCLE}$"):
        square_plan(pres)


def test_route_on_two_generators_is_unsupported():
    # g1 and g2 both transpose the two planes and braid: the walk's path
    # g1 is one generator, too short to close into a cycle with g2
    pres = GroupPresentation.make(("g1", "g2"), [(1, 1), (2, 2), triple_word(1, 2)])
    symmetric = SymmetricAssignment(2, (transposition(2, 1, 2),) * 2)
    route = coxeter_route(pres, (1, 2), symmetric, 100)
    assert not route.supported
    assert route.reason == NO_CYCLE


def test_label_cycle_starts_from_the_highest_generator():
    # the cycle g4 g1 g2 g3, walked either way, starts at g4 and goes to
    # g3, its higher-numbered neighbour
    names = square_presentation().names
    expected = (("g4", (1, 2)), ("g3", (2, 3)), ("g2", (3, 4)), ("g1", (1, 4)))
    for cycle in ((1, 2, 3, 4), (4, 1, 2, 3), (3, 2, 1, 4)):
        assert label_cycle(names, cycle) == CoxeterGraph(4, expected)


def test_reduce_presentation_plan_requires_evidence(monkeypatch, tmp_path):
    # on seed 0 of dt4's relabelings the walk's first cycle, g5 g4 g2 g3 g8
    # g6, fails in the affine group, and the second has a plan; only then
    # does the one enumeration run, over that cycle, and close on one coset
    path = tmp_path / "dt4.json"
    path.write_text(load_relabel_json()(DT4_JSON, random.Random(0)), encoding="utf-8")
    c = parse_complex(path.read_text(encoding="utf-8"))
    pres = build_tilde_presentation(c, include_projective=False)
    symmetric = plane_transposition_map(c)
    enumerations = count_calls(monkeypatch, galcov.coxeter, "coset_enumeration")
    cycle, _, _ = derive_plan(pres, symmetric, 1_000_000)
    assert format_word(cycle, pres.names) == "g5 g9 g2 g1 g8 g7"
    assert enumerations == []
    assert route_of_complex(c).supported
    assert enumerations == [(pres, [(g,) for g in cycle], 1_000_000)]
    # an index other than 1 leaves the group bigger than the affine group
    monkeypatch.setattr(
        galcov.coxeter, "coset_enumeration", lambda *args: CosetTable(1, ((1, 0),))
    )
    route = route_of_complex(c)
    assert not route.supported
    assert route.reason == "the cycle's generators have index 2 in the group, not 1"


def test_reduce_presentation_plan_rejects_false_relation(dt4, dt4_assignment, dt4_complement_table):
    # g6 transposes planes 2 and 5 of the first cycle, g1 g4 g2 g5 g9 g8
    # through planes 1 2 3 6 5 4; both arcs have three edges, and each
    # gives one window.  g4 g2 g5 g2 g4 has g6's image but is not g6, as
    # the table over the S_6 complement shows, and no relator on g6 alone
    # tells its window from that of g9 g8 g1 g8 g9: the relators on two
    # chords reject it
    pres = build_tilde_presentation(dt4, include_projective=False)
    cycle, plan, windows = derive_plan(pres, dt4_assignment, 1_000_000)
    assert format_word(cycle, pres.names) == "g1 g4 g2 g5 g9 g8"
    assignment = standard_assignment(label_cycle(pres.names, cycle))
    images = [assignment.get(name, identity(6)) for name in pres.names]
    texts = ("g4 g2 g5 g2 g4", "g5 g2 g4 g2 g5", "g9 g8 g1 g8 g9", "g1 g8 g9 g8 g1")
    words = [word_of(text, pres.names) for text in texts]
    false, _, true, _ = found = eval_words(images, words)
    assert found == [false, false, true, true] and false != true
    holds = [relation_holds(6, w, dt4_complement_table, dt4_assignment) for w in words]
    assert holds == [False, False, True, True]
    on_g6 = [r for r in pres.relators if {3, 6, 7}.intersection(map(abs, r)) == {6}]
    for window in (false, true):
        images[5] = window
        assert on_g6 and all(v == identity(6) for v in eval_words(images, on_g6))
    assert format_word(plan[6], pres.names) == "g9 g8 g1 g8 g9" and windows[5] == true


def test_derived_plan_of_dt4_is_the_papers(dt4, dt4_assignment, dt4_route):
    # the first cycle of the walk gives the paper's eliminations, so the
    # reduced presentation is the paper's too
    pres = build_tilde_presentation(dt4, include_projective=False)
    cycle, plan, _ = derive_plan(pres, dt4_assignment, 1_000_000)
    assert format_word(cycle, pres.names) == "g1 g4 g2 g5 g9 g8"
    named = {pres.names[g - 1]: format_word(w, pres.names) for g, w in plan.items()}
    assert named == dict(DT4_PAPER_PLAN)
    words = [word_of(text, pres.names) for _, text in DT4_PAPER_PLAN]
    gens = [name for name, _ in DT4_PAPER_PLAN]
    reduced, _ = eliminate_in_turn(pres, gens, words)
    assert dt4_route.reduced == reduced


def test_derived_plan_without_a_verified_cycle_is_unsupported(monkeypatch, dt4, dt4_assignment):
    # no cycle the walk closes has a plan, so the walk runs out of cycles
    monkeypatch.setattr(galcov.coxeter, "_plan_on_cycle", lambda *args: None)
    enumerations = count_calls(monkeypatch, galcov.coxeter, "coset_enumeration")
    pres = build_tilde_presentation(dt4, include_projective=False)
    route = coxeter_route(pres, projective_relator(dt4), dt4_assignment)
    assert not route.supported
    assert route.reason == NO_CYCLE
    assert enumerations == []


def pentagon_presentation():
    """The cycle quotient of the pentagon g1 .. g5 on the planes 1 .. 5,
    with chords g6 = (1 3), g7 = (1 4) and g8 = (2 4) and one relator on
    all three.  Each chord has two windows, one per arc, and every relator
    on one chord holds under both.  The relator is (g6 w6)(g7 w7)(g8 w8),
    w the chord's word along its longer arc: under any other window
    a factor is a translation along that chord's root, and the three roots
    are independent, so it holds only when each chord takes the window of
    its longer arc, the last of the 8 combinations."""
    relators = [(g, g) for g in range(1, 9)]
    relators += [triple_word(g, g % 5 + 1) for g in range(1, 6)]
    relators += [commutator_word(g, h) for g, h in ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))]
    names = tuple(f"g{g}" for g in range(1, 9))
    longer = {6: "g3 g4 g5 g4 g3", 7: "g1 g2 g3 g2 g1", 8: "g4 g5 g1 g5 g4"}
    relators.append(sum(((g,) + word_of(longer[g], names) for g in (6, 7, 8)), ()))
    planes = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3), (1, 4), (2, 4)]
    symmetric = SymmetricAssignment(5, tuple(transposition(5, a, b) for a, b in planes))
    return GroupPresentation.make(names, relators), symmetric, longer


def test_derive_plan_tries_chord_combinations_within_the_bound():
    # the walk pops 5 partial paths to its cycle, and the chords' windows
    # hold together only in the 8th combination: each search stops at its
    # own bound
    pres, symmetric, longer = pentagon_presentation()
    with pytest.raises(SearchBound, match="^walk of the plane graph stopped at 4 partial paths$"):
        derive_plan(pres, symmetric, 4)
    for bound in (5, 7):
        with pytest.raises(SearchBound, match=f"^chord windows stopped at {bound} combinations$"):
            derive_plan(pres, symmetric, bound)
    cycle, plan, windows = derive_plan(pres, symmetric, 8)
    assert cycle == (1, 2, 3, 4, 5)
    assert {g: format_word(w, pres.names) for g, w in plan.items()} == longer
    assert windows[5:] == eval_words(windows[:5], [plan[g] for g in (6, 7, 8)])


def pair_action(table, symmetric, g):
    """Generator g acting on the cosets of the table and, beside them, on
    the planes: a permutation of the pair."""
    k = table.coset_count
    cosets = tuple(table.trace(c, (g,)) + 1 for c in range(k))
    return cosets + tuple(k + p for p in symmetric.images[g - 1])


# written from the reports of the braid-pair search that the plan walk's
# cycle replaced: the graph's generators from vertex 1 on, the last one
# the non-tree edge
@pytest.mark.parametrize(
    "seed, generators",
    [
        (0, "g9 g5 g7 g8 g1 g2"),
        (1, "g8 g6 g3 g4 g5 g1"),
        (2, "g8 g6 g2 g5 g3 g4"),
        (3, "g9 g6 g3 g2 g1 g5"),
        (4, "g8 g6 g2 g4 g5 g3"),
        (5, "g9 g6 g3 g5 g8 g1"),
    ],
)
def test_relabeled_dt4_coxeter_graph(tmp_path, seed, generators):
    path = tmp_path / "dt4.json"
    path.write_text(load_relabel_json()(DT4_JSON, random.Random(seed)), encoding="utf-8")
    route = analyze(str(path), route="coxeter").coxeter_route
    assert route["supported"] and route["pi1"] == "Z2^4"
    assert [e["generator"] for e in route["graph"]] == generators.split()
    assert [e["vertices"] for e in route["graph"]] == [
        [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]
    ]
    assert route["non_tree_edge"] == generators.split()[-1]


@pytest.mark.parametrize("seed", [None, 3, 7])
def test_derived_relations_hold_on_the_faithful_pair(seed):
    # G~ acts faithfully on the pair (cosets over an S_n complement H, the
    # planes): the kernel of the first action lies in H, which meets that
    # of the second, K, trivially.  Each derived relation g = w holds as
    # permutations of the pair, checked without relation_holds
    dt4 = load_builtin("dt4")
    if seed is not None:
        dt4 = relabel_complex(dt4, random.Random(seed))
    pres = build_tilde_presentation(dt4)
    symmetric = plane_transposition_map(dt4)
    path, _ = complement_path(pres, symmetric, 1_000_000)
    table = coset_enumeration(pres, [(g,) for g in path], 1_000_000)
    pair = {g: pair_action(table, symmetric, g) for g in range(1, pres.generator_count + 1)}
    assert len(mulclose(pair.values())) == 11_520
    cycle, plan, _ = derive_plan(
        build_tilde_presentation(dt4, include_projective=False), symmetric, 1_000_000
    )
    assert len(cycle) == 6 and len(plan) == 3
    assert sorted(cycle + tuple(plan)) == list(range(1, 10))
    for g, w in plan.items():
        product = pair[w[0]]
        for x in w[1:]:
            product = compose(product, pair[x])
        assert product == pair[g]


@pytest.mark.parametrize(
    "m, k, cosets_defined",
    [(3, 2, 3), (4, 3, 31), (5, 3, 86), (6, 3, 298), (7, 3, 835), (6, 4, 1215), (7, 4, 4913)],
)
def test_coxeter_cover_routes_agree(m, k, cosets_defined):
    # K = Z_k^(m-1): the regular action on the table over the S_m
    # complement and the lattice quotient must both find it
    pres, proj, symmetric = coxeter_cover(m, k)
    full = GroupPresentation.make(pres.names, pres.relators + (proj,))
    path, planes = complement_path(full, symmetric, 1_000_000)
    assert path == tuple(range(1, m))
    stats = {}
    table = coset_enumeration(full, [(g,) for g in path], 1_000_000, stats)
    assert table.coset_count == k ** (m - 1)
    assert stats["cosets_defined"] == cosets_defined
    regular = regular_kernel(table, symmetric, path, planes)
    route = coxeter_route(pres, proj, symmetric, 1_000_000)
    assert route.supported and route.plan == {}
    check_against_the_rewrite(route, proj)
    lattice = route.verdict()
    assert regular.order == lattice.order == route.quotient.order == k ** (m - 1)
    assert regular.factors == lattice.factors == (k,) * (m - 1)
    assert regular.describe() == lattice.describe()


def test_coxeter_cover_6_4_regular_action_decides_from_11264_lookups(monkeypatch):
    # K = Z4^5: the table over the S_6 complement has 1,024 rows, so the
    # regular action needs 1,024 * 11 = 11,264 lookups; one fewer leaves
    # it undecided, and from there on it agrees with the lattice quotient.
    # analyze runs on the cover's presentation and map in place of dt4's
    pres, proj, symmetric = coxeter_cover(6, 4)
    full = GroupPresentation.make(pres.names, pres.relators + (proj,))
    route = coxeter_route(pres, proj, symmetric, DEFAULT_MAX_COSETS)
    assert route.supported
    lattice = route.verdict()
    assert lattice.order == route.quotient.order == 1024
    assert lattice.factors == (4,) * 5
    defined = []

    def enumeration(*args):
        stats = {}
        table = coset_enumeration(*args, stats)
        defined.append(stats["cosets_defined"])
        return table

    monkeypatch.setattr(galcov.cli, "build_tilde_presentation", lambda c, **kwargs: full)
    monkeypatch.setattr(galcov.cli, "plane_transposition_map", lambda c: symmetric)
    monkeypatch.setattr(galcov.cli, "coset_enumeration", enumeration)
    for bound in (11_263, 11_264, DEFAULT_MAX_COSETS):
        report = analyze("dt4", max_cosets=bound)
        # the table closes well within either bound
        assert defined.pop() == 1215
        assert report.symmetric_image_order == math.factorial(6)
        assert report.kernel_order == 1024
        hit = (
            "undecided at bound: the regular action of K, of order 1024, needs 11264 table lookups"
        )
        if bound < 11_264:
            assert report.undecided and report.enumeration_route is None
            assert report.pi1 == {
                "kind": "Undetermined", "order": 1024, "note": "undecided at bound 11263"
            }
            assert hit in report.warnings
        else:
            assert not report.undecided and hit not in report.warnings
            assert report.pi1 == report.enumeration_route["verdict"] == _verdict_dict(lattice)
            assert report.enumeration_route["pi1"] == "Z4 x Z4 x Z4 x Z4 x Z4"