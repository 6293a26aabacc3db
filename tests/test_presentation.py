import itertools
import json
import math
import random

import pytest

import galcov.coxeter
from galcov.cli import analyze
from galcov.complexes import (
    ComplexError,
    DegenerationComplex,
    PresentationOverrides,
    Vertex,
    classify_vertex,
    parse_complex,
    validate,
)
from galcov.datasets import DT4_JSON, T4_JSON
from galcov.enumeration import coset_enumeration, group_order
from galcov.permutations import SymmetricAssignment, plane_transposition_map
from galcov.presentation import (
    GroupPresentation,
    MissingFourPointData,
    PresentationError,
    RelationSyntaxError,
    _dedupe,
    _reduced_key,
    build_tilde_presentation,
    commutator_word,
    complement_path,
    eliminate_and_rewrite,
    eliminate_in_turn,
    format_relation,
    format_word,
    free_reduce,
    invert_word,
    is_stated,
    parse_relation,
    projective_relator,
    relation_holds,
    triple_word,
)
from galcov.tietze import simplify_presentation

from .conftest import (
    DT4_PAPER_PLAN,
    coxeter_cover,
    identity,
    load_relabel_json,
    mulclose,
    random_valid_complex,
    relabel_complex,
    transposition,
    vertex_pair_relators,
    word_of,
    word_permutation,
)
from .test_fuzz import CASES as FUZZ_CASES
from .test_fuzz import mutate

T4_TRIPLE_PAIRS = {
    (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
    (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6),
}
T4_COMM_PAIRS = {(1, 3), (2, 5), (4, 6)}
DT4_TRIPLE_PAIRS = {
    (1, 4), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4), (2, 5), (2, 7), (3, 5),
    (3, 8), (3, 9), (4, 6), (4, 7), (5, 6), (5, 9), (6, 9), (7, 8), (8, 9),
}
DT4_COMM_PAIRS = {
    (1, 2), (1, 3), (1, 5), (1, 9), (2, 6), (2, 8), (2, 9), (3, 4), (3, 6),
    (3, 7), (4, 5), (4, 8), (4, 9), (5, 7), (5, 8), (6, 7), (6, 8), (7, 9),
}


# ---------------------------------------------------------------------------
# words


def test_free_reduce_cancels_inverse_pair():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((2, 1, -1, -2, 3)) == (3,)


def test_free_reduce_idempotent():
    w = (1, 2, -1, 2, 2)
    assert free_reduce(w) == w
    assert free_reduce(free_reduce((1, 1, -1, 2))) == free_reduce((1, 1, -1, 2))


def test_free_reduce_keeps_equal_adjacent_letters(dt4):
    # the projective word of the double tetrahedron contains g8 g8, which
    # only cancels modulo the square relations, not freely
    proj = projective_relator(dt4)
    assert len(proj) == 22
    assert free_reduce(proj) == proj


def test_invert_word():
    assert invert_word((1, -2, 3)) == (-3, 2, -1)


def relator_key(word):
    """The relator-class key of ``word``: the least rotation of its free
    reduction or of that reduction's inverse."""
    return _reduced_key(free_reduce(word))


def test_canonical_key_rotation_and_inversion():
    assert relator_key((1, 2, 3)) == relator_key((2, 3, 1))
    assert relator_key((1, 2, 3)) == relator_key(invert_word((1, 2, 3)))
    assert relator_key(triple_word(1, 2)) == relator_key(triple_word(2, 1))
    assert relator_key(commutator_word(1, 3)) == relator_key(commutator_word(3, 1))


def _brute_force_key(word):
    """Least rotation of the free reduction of ``word`` or of its inverse."""
    w = free_reduce(word)
    rotations = [
        cand[i:] + cand[:i] for cand in (w, invert_word(w)) for i in range(len(w))
    ]
    return min(rotations, default=())


def test_is_stated_agrees_with_the_canonical_keys_of_the_relators():
    # seeded presentations of random words and of squares, commutators and
    # braids stated rotated, inverted, with the pair in either order, or
    # conjugated, which leaves them not cyclically reduced, like (1, 2, -1):
    # every template is stated exactly when its key is a relator's
    rng = random.Random(606)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(2, 4)
        relators = [
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 10)))
            for _ in range(rng.randint(0, 6))
        ]
        relators.append((1, 2, -1))
        for _ in range(rng.randint(0, 6)):
            i, j = rng.sample(range(1, n + 1), 2)
            t = rng.choice(((i, i), commutator_word(i, j), triple_word(i, j)))
            k = rng.randrange(len(t))
            t = t[k:] + t[:k]
            if rng.random() < 0.5:
                t = invert_word(t)
            if rng.random() < 0.25:
                x = rng.choice((1, -1)) * rng.randint(1, n)
                t = (x,) + t + (-x,)
            relators.append(t)
        rng.shuffle(relators)
        pres = GroupPresentation.make([f"g{k}" for k in range(1, n + 1)], relators)
        keys = {relator_key(r) for r in pres.relators}
        stated = set(pres.relators)
        templates = [(i, i) for i in range(1, n + 1)] + [
            f(i, j)
            for i, j in itertools.permutations(range(1, n + 1), 2)
            for f in (commutator_word, triple_word)
        ]
        for t in templates:
            expected = relator_key(t) in keys
            assert is_stated(stated, t) == expected, (pres.relators, t)
            outcomes[expected] += 1
    assert min(outcomes.values()) > 500


def test_canonical_key_matches_brute_force_oracle():
    import random

    rng = random.Random(20240617)
    fixed = [(), (1,), (-1,), (1, 2, -1), (2, -1, 3, 1, -2), (1, 1, -1, 2), (3, 3, 3)]
    words = fixed + [
        tuple(rng.choice((-1, 1)) * rng.randint(1, gens) for _ in range(length))
        for gens in (1, 2, 3, 5)
        for length in range(1, 13)
        for _ in range(25)
    ]
    for w in words:
        assert relator_key(w) == _brute_force_key(w), w
    # freely reduced but not cyclically reduced words keep their own key
    assert relator_key((1, 2, -1)) == (-2, -1, 1)
    assert relator_key((1, 2, -1)) != relator_key((2,))


def _random_words(rng, count):
    """Freely reduced words over few generators, so least letters repeat and
    rotations of one word meet each other."""
    words = []
    for _ in range(count):
        gens = rng.choice((1, 2, 3, 5))
        w = free_reduce(
            rng.choice((-1, 1)) * rng.randint(1, gens) for _ in range(rng.randint(0, 12))
        )
        words.append(w)
        if w and rng.random() < 0.5:
            # a rotation of it, or of its inverse
            v = invert_word(w) if rng.random() < 0.5 else w
            i = rng.randrange(len(v))
            words.append(free_reduce(v[i:] + v[:i]))
    return words


def test_dedupe_matches_first_of_each_canonical_key():
    import random

    from galcov.presentation import _dedupe

    rng = random.Random(9)
    for _ in range(200):
        words = _random_words(rng, rng.randint(0, 30))
        kept, seen = [], set()
        for w in words:
            if w and relator_key(w) not in seen:
                seen.add(relator_key(w))
                kept.append(w)
        assert _dedupe(words) == kept


# ---------------------------------------------------------------------------
# braid templates


def test_vk_relation_node_and_cusp():
    # van Kampen relators: a node gives a commutator, a cusp a triple relation
    assert commutator_word(1, 3) == (1, 3, -1, -3)
    assert triple_word(1, 2) == (1, 2, 1, -2, -1, -2)


# ---------------------------------------------------------------------------
# relation grammar


NAMES9 = tuple(f"g{i}" for i in range(1, 10))


def test_parse_relation_forms():
    assert parse_relation("sq 4", NAMES9) == (4, 4)
    assert parse_relation("triple 1 2", NAMES9) == (1, 2, 1, -2, -1, -2)
    assert parse_relation("comm 1 3", NAMES9) == (1, 3, -1, -3)
    assert parse_relation("ccomm 1 : g8 g7 g8", NAMES9) == (1, 8, 7, 8, -1, -8, -7, -8)
    assert parse_relation("eq: g3 = g5 g9 g5", NAMES9) == (3, -5, -9, -5)
    assert parse_relation("word: g2 g4^-1", NAMES9) == (2, -4)


def test_parse_relation_errors_carry_position():
    with pytest.raises(RelationSyntaxError, match="unknown generator"):
        parse_relation("word: g99", NAMES9)
    with pytest.raises(RelationSyntaxError):
        parse_relation("triple 1", NAMES9)
    with pytest.raises(RelationSyntaxError):
        parse_relation("", NAMES9)
    with pytest.raises(RelationSyntaxError):
        parse_relation("eq: g1 g2", NAMES9)
    err = None
    try:
        parse_relation("ccomm 1 : g8 gX g8", NAMES9)
    except RelationSyntaxError as exc:
        err = exc
    assert err is not None and err.position == 4


def test_format_relation_roundtrip():
    for line in ("sq 3", "triple 1 2", "comm 4 6", "word: g1 g2^-1 g3"):
        w = parse_relation(line, NAMES9)
        assert format_relation(w, NAMES9) == line
        assert parse_relation(format_relation(w, NAMES9), NAMES9) == w


# ---------------------------------------------------------------------------
# presentation generation


def test_presentation_normalization_dedupes():
    p = GroupPresentation.make(
        ("a", "b"), [(1, 2, 1, -2, -1, -2), (2, 1, 2, -1, -2, -1), (1, -1)]
    )
    assert len(p.relators) == 1


def test_build_t4_relators(t4, t4_presentation):
    p = t4_presentation
    assert p.names == tuple(f"g{i}" for i in range(1, 7))
    assert len(p.relators) == 25
    squares = {w for w in p.relators if len(w) == 2}
    assert squares == {(i, i) for i in range(1, 7)}
    triples = {
        (w[0], w[1]) for w in p.relators if len(w) == 6 and w == triple_word(w[0], w[1])
    }
    assert triples == T4_TRIPLE_PAIRS
    comms = {
        (w[0], w[1])
        for w in p.relators
        if len(w) == 4 and w == commutator_word(w[0], w[1])
    }
    assert comms == T4_COMM_PAIRS
    branch = {w for w in p.relators if len(w) == 4 and all(x > 0 for x in w)}
    assert branch == {(4, 1, 2, 1), (6, 1, 5, 1), (6, 2, 3, 2), (5, 3, 4, 3)}


def test_build_dt4_relators(dt4, dt4_presentation):
    p = dt4_presentation
    assert p.generator_count == 9
    triples = {
        tuple(sorted((w[0], w[1])))
        for w in p.relators
        if len(w) == 6 and w == triple_word(w[0], w[1])
    }
    assert triples == DT4_TRIPLE_PAIRS
    comms = {
        tuple(sorted((w[0], w[1])))
        for w in p.relators
        if len(w) == 4 and w == commutator_word(w[0], w[1])
    }
    assert comms == DT4_COMM_PAIRS
    branch = {w for w in p.relators if len(w) == 4 and all(x > 0 for x in w)}
    assert branch == {(7, 1, 4, 1), (9, 3, 5, 3)}
    # overrides: six conjugated commutators, one eq relation, the projective word
    assert len(p.relators) == 55
    assert projective_relator(dt4) in p.relators


def test_build_without_projective(dt4):
    with_proj = build_tilde_presentation(dt4)
    without = build_tilde_presentation(dt4, include_projective=False)
    assert len(with_proj.relators) == len(without.relators) + 1


def test_build_four_point_without_overrides_fails(dt4):
    stripped = DegenerationComplex(
        name=dt4.name,
        plane_count=dt4.plane_count,
        edges=dt4.edges,
        vertices=dt4.vertices,
        overrides=None,
    )
    with pytest.raises(MissingFourPointData):
        build_tilde_presentation(stripped)
    empty = DegenerationComplex(
        name=dt4.name,
        plane_count=dt4.plane_count,
        edges=dt4.edges,
        vertices=dt4.vertices,
        overrides=PresentationOverrides(extra_relators=()),
    )
    with pytest.raises(MissingFourPointData):
        build_tilde_presentation(empty)


# Override lines whose words need reducing or restate a template: empty
# after reduction (comm 1 1, word: g1 g1^-1, eq: g3 = g3, ccomm 3 : g1 g1^-1),
# a braid of a generator with itself (triple 2 2), restated templates
# (triple 2 1 and comm 3 1 are the inverses of t4's triple 1 2 and
# comm 1 3, and g4 g5 g5^-1 g4 is sq 4) and one new relator.
T4_OVERRIDE_LINES = [
    "comm 1 1", "triple 2 2", "word: g1 g1^-1", "eq: g3 = g3", "triple 2 1",
    "comm 3 1", "word: g4 g5 g5^-1 g4", "ccomm 3 : g1 g1^-1",
    "word: g2 g6 g6^-1 g3^-1 g3 g1",
]


def test_build_reduces_and_dedupes_override_lines(t4_presentation):
    data = json.loads(T4_JSON)
    data["overrides"] = {
        "extra_relators": T4_OVERRIDE_LINES,
        "projective_relator": "word: g6 g1 g1^-1 g2 g3",
    }
    c = parse_complex(json.dumps(data))
    # written from the builds of the version that normalized through make:
    # the override lines add g2 g1, the projective relator g6 g2 g3
    for include_projective, tail in ((True, ((2, 1), (6, 2, 3))), (False, ((2, 1),))):
        p = build_tilde_presentation(c, include_projective)
        assert p.relators == t4_presentation.relators + tail
        assert GroupPresentation.make(p.names, p.relators) == p


def build_corpus():
    """t4, dt4, ``relabel_json`` seeds 0-5 of each, and the documents of
    the fuzz corpus that parse."""
    relabel_json = load_relabel_json()
    texts = [T4_JSON, DT4_JSON]
    texts += [relabel_json(t, random.Random(k)) for t in (T4_JSON, DT4_JSON) for k in range(6)]
    rng = random.Random(0)  # the stream of test_mutated_documents_end_in_an_exit_code
    for _ in range(FUZZ_CASES):
        texts.append(mutate(rng.choice((T4_JSON, DT4_JSON)), rng))
        rng.choice(("enumerate", "coxeter", "both"))
    for text in texts:
        try:
            yield parse_complex(text)
        except ComplexError:
            pass


def test_built_presentations_are_normalized():
    # the builder skips make: its words must already be what make keeps
    built = 0
    for c in build_corpus():
        for include_projective in (True, False):
            try:
                p = build_tilde_presentation(c, include_projective)
            except (ComplexError, PresentationError):
                continue
            assert GroupPresentation.make(p.names, p.relators) == p, c
            built += 1
    assert built > 100


def test_build_states_the_vertex_pair_relators():
    # one rule, a triple when two edges share a plane and a commutator
    # otherwise, states what the vertices and the parasitic pairs state,
    # on every complex that validate and classify_vertex accept
    accepted = 0
    for c in build_corpus():
        if not validate(c).valid:
            continue
        try:
            [classify_vertex(c, v) for v in c.vertices]
        except ComplexError:
            continue
        accepted += 1
        squares = tuple((i, i) for i in range(1, c.edge_count + 1))
        pairs = squares + tuple(vertex_pair_relators(c))
        for include_projective in (True, False):
            try:
                p = build_tilde_presentation(c, include_projective)
            except PresentationError:
                continue  # a bad override line
            assert p.relators[: len(pairs)] == pairs, c
    assert accepted > 50


def test_build_rejects_a_vertex_naming_a_missing_edge(t4, dt4):
    # t4 has 6 edges and dt4 9: a 3-point and a 4-point naming an edge past
    # them fail before either is classified
    for c, edges, missing in ((t4, {1, 2, 7}, 7), (dt4, {1, 6, 8, 12}, 12)):
        broken = c._replace(vertices=c.vertices + (Vertex(id=9, edges=frozenset(edges)),))
        with pytest.raises(PresentationError, match=f"vertex 9 references missing edge {missing}$"):
            build_tilde_presentation(broken)


def test_eliminated_presentations_are_normalized(monkeypatch, tmp_path):
    # the Coxeter route's reduced presentation on dt4 and its relabelings
    reduced = []
    real = galcov.coxeter.eliminate_and_rewrite

    def recording(*args):
        out = real(*args)
        reduced.append(out[0])
        return out

    monkeypatch.setattr(galcov.coxeter, "eliminate_and_rewrite", recording)
    relabel_json = load_relabel_json()
    path = tmp_path / "dt4.json"
    assert analyze("dt4", route="coxeter").coxeter_route["supported"]
    for seed in range(6):
        path.write_text(relabel_json(DT4_JSON, random.Random(seed)), encoding="utf-8")
        assert analyze(str(path), route="coxeter").coxeter_route["supported"]
    assert len(reduced) == 7
    for p in reduced:
        assert p.generator_count == 6
        assert GroupPresentation.make(p.names, p.relators) == p


# ---------------------------------------------------------------------------
# Tietze elimination


def trivial_map(pres):
    """The homomorphism of any group onto S_1."""
    return SymmetricAssignment(1, (identity(1),) * pres.generator_count)


def test_eliminate_with_stated_relator():
    # <a, b | a, b^3>: eliminating a via the length-1 relator a = e
    p = GroupPresentation.make(("a", "b"), [(1,), (2, 2, 2)])
    assert relation_holds(1, (), coset_enumeration(p, (), 100), trivial_map(p)) is True
    q, _ = eliminate_and_rewrite(p, {1: (), -1: ()}, ())
    assert q.names == ("b",)
    assert q.relators == ((1, 1, 1),)


def test_eliminate_branch_generator(t4_presentation):
    q, _ = eliminate_and_rewrite(t4_presentation, {4: (-1, -2, -1), -4: (1, 2, 1)}, ())
    assert q.names == ("g1", "g2", "g3", "g5", "g6")
    assert all(all(abs(x) <= 5 for x in w) for w in q.relators)


def test_eliminate_preserves_group_order(t4_presentation):
    before = group_order(coset_enumeration(t4_presentation, (), 10_000))
    q, _ = eliminate_and_rewrite(t4_presentation, {4: (-1, -2, -1), -4: (1, 2, 1)}, ())
    after = group_order(coset_enumeration(q, (), 10_000))
    assert before == after == 24


def test_eliminate_rejects_false_relation(t4, t4_presentation):
    # g1 = g2 does not hold in the tetrahedron group
    table = coset_enumeration(t4_presentation, (), 10_000)
    assignment = plane_transposition_map(t4)
    assert relation_holds(1, (2,), table, assignment) is False


def test_eliminate_semantic_relation_via_table(
    dt4_presentation, dt4_assignment, dt4_complement_table
):
    # g3 = g5 g9 g5 is a consequence, not a stated relator
    w = word_of("g5 g9 g5", dt4_presentation.names)
    assert relation_holds(3, w, dt4_complement_table, dt4_assignment)
    q, (proj,) = eliminate_and_rewrite(dt4_presentation, {3: w, -3: invert_word(w)}, ((3, 8),))
    assert "g3" not in q.names
    assert q.generator_count == 8
    assert format_word(proj, q.names) == "g5 g9 g5 g8"


def test_eliminate_in_turn_renumbers_the_words_still_to_use(dt4_presentation):
    plan = DT4_PAPER_PLAN
    words = [word_of(text, dt4_presentation.names) for _, text in plan]
    q, (proj,) = eliminate_in_turn(
        dt4_presentation, [name for name, _ in plan], words, ((7, 3, 6),)
    )
    assert q.names == ("g1", "g2", "g4", "g5", "g8", "g9")
    assert format_word(proj, q.names) == "g1 g4 g1 g5 g9 g5 g9 g8 g1 g8 g9"


def test_eliminate_rejects_a_word_naming_an_eliminated_generator():
    # a = b, then b = a: composed, a's word names b, which goes too
    pres = GroupPresentation.make(("a", "b", "c"), [(1, 2, 3)])
    with pytest.raises(PresentationError, match="the word for a names b, which is eliminated too"):
        eliminate_in_turn(pres, ["a", "b"], [(2,), (1,)])
    with pytest.raises(PresentationError, match="the word for b names a"):
        eliminate_and_rewrite(pres, {2: (1, 3), -2: (-3, -1), 1: (3,), -1: (-3,)}, ())


def eliminate_one_at_a_time(pres, gens, words, companions):
    """Reference for :func:`eliminate_in_turn`: substitute each generator
    of ``gens`` in turn into the relators, the companions and the words
    still to use, freely reducing after every step, then renumber."""
    relators, words, companions = list(pres.relators), list(words), list(companions)
    for i, name in enumerate(gens):
        g = pres.id_of(name)
        word = words[i]

        def step(w):
            out = []
            for x in w:
                out.extend(word if x == g else invert_word(word) if x == -g else (x,))
            return free_reduce(out)

        relators, words, companions = (list(map(step, ws)) for ws in (relators, words, companions))
    gone = {pres.id_of(name) for name in gens}
    stay = [g for g in range(1, pres.generator_count + 1) if g not in gone]
    number = {g: i for i, g in enumerate(stay, 1)}

    def renumber(w):
        return tuple(number[x] if x > 0 else -number[-x] for x in w)

    names = tuple(pres.names[g - 1] for g in stay)
    return names, _dedupe(map(renumber, relators)), tuple(map(renumber, companions))


def test_eliminate_in_turn_matches_one_generator_at_a_time():
    # each plan word may name generators eliminated before or after it,
    # without a cycle: a generator's word names only generators that stay
    # or come earlier in a random definition order
    rng = random.Random(16)
    named_earlier = named_later = 0
    for _ in range(300):
        m = rng.randint(2, 7)
        names = [f"x{i}" for i in range(1, m + 1)]

        def word(letters, length):
            return free_reduce(rng.choice((-1, 1)) * rng.choice(letters) for _ in range(length))

        pres = GroupPresentation.make(
            names, [word(range(1, m + 1), rng.randint(1, 8)) for _ in range(rng.randint(1, 8))]
        )
        defined = rng.sample(range(1, m + 1), rng.randint(1, m - 1))
        stay = [g for g in range(1, m + 1) if g not in defined]
        plan = {
            g: word(stay + defined[:i], rng.randint(0, 5)) for i, g in enumerate(defined)
        }
        order = rng.sample(defined, len(defined))
        for i, g in enumerate(order):
            named = {abs(x) for x in plan[g]}
            named_earlier += bool(named & set(order[:i]))
            named_later += bool(named & set(order[i + 1 :]))
        gens = [names[g - 1] for g in order]
        words = [plan[g] for g in order]
        companions = [word(range(1, m + 1), rng.randint(0, 6)) for _ in range(2)]
        q, rewritten = eliminate_in_turn(pres, gens, words, companions)
        names_out, relators, expected = eliminate_one_at_a_time(pres, gens, words, companions)
        assert q.names == names_out
        assert q.relators == tuple(relators)
        assert rewritten == expected
    assert named_earlier > 50 and named_later > 50


def test_relation_holds_on_the_regular_and_the_complement_table(t4, t4_presentation):
    pres = t4_presentation
    assignment = plane_transposition_map(t4)
    table = coset_enumeration(pres, (), 10_000)
    # over t4's complement, H = G~: one coset, the image decides
    path, _ = complement_path(pres, assignment, 100)
    assert path == (1, 4, 3)
    over_h = coset_enumeration(pres, [(g,) for g in path], 10_000)
    assert over_h.coset_count == 1
    for t in (table, over_h):
        # g4 = g1^-1 g2^-1 g1^-1 restates the branch relator g4 g1 g2 g1
        assert relation_holds(4, (-1, -2, -1), t, assignment) is True
        # g4 = g2 g1 g2 is not stated; it follows through the braid relation
        assert relation_holds(4, (2, 1, 2), t, assignment) is True
        assert relation_holds(1, (2,), t, assignment) is False
    # no involutions: in <a, b | a^3, a b a>, b = a^-2 = a, and b != a^-1
    cyc = GroupPresentation.make(("a", "b"), [(1, 1, 1), (1, 2, 1)])
    cyc_table = coset_enumeration(cyc, (), 100)
    assert relation_holds(2, (1,), cyc_table, trivial_map(cyc)) is True
    assert relation_holds(2, (-1,), cyc_table, trivial_map(cyc)) is False


# g7 = g2 g3 g8 g3 g2 has the image of g7 but is not g7: g7^-1 g2 g3 g8 g3 g2
# is a kernel element other than 1, found against the regular table
DT4_RELATIONS = DT4_PAPER_PLAN + (
    ("g7", "g1 g4"),
    ("g7", "g1 g9 g1"),
    ("g3", "g5 g9"),
    ("g6", "g9 g8 g1 g8"),
    ("g7", "g2 g3 g8 g3 g2"),
)


@pytest.mark.parametrize("name,text", DT4_RELATIONS)
def test_relation_holds_over_the_complement_agrees_with_the_regular_table(
    dt4_presentation, dt4_assignment, dt4_table, dt4_complement_table, name, text
):
    pres = dt4_presentation
    gen, word = pres.id_of(name), word_of(text, pres.names)
    regular = relation_holds(gen, word, dt4_table, dt4_assignment)
    assert relation_holds(gen, word, dt4_complement_table, dt4_assignment) is regular
    assert regular is ((name, text) in DT4_PAPER_PLAN)


def test_the_kernel_word_passes_the_image_check_only(
    dt4_presentation, dt4_assignment, dt4_complement_table
):
    word = (-7,) + word_of("g2 g3 g8 g3 g2", dt4_presentation.names)
    assert word_permutation(dt4_assignment.images, word) == identity(6)
    assert relation_holds(7, word[1:], dt4_complement_table, dt4_assignment) is False


def test_complement_path_of_dt4_is_a_coxeter_path(
    dt4_presentation, dt4_assignment, dt4_table, dt4_complement_table
):
    path, planes = complement_path(dt4_presentation, dt4_assignment, 1_000_000)
    assert path == (1, 4, 2, 3, 9)
    assert planes == (1, 2, 3, 6, 4, 5)
    assert dt4_complement_table.coset_count == 16
    assert dt4_complement_table.coset_count * 720 == group_order(dt4_table)
    # the 16-point action is faithful: G~ is 11,520 permutations of the cosets
    gens = [
        tuple(row[2 * k - 2] + 1 for row in dt4_complement_table.rows)
        for k in range(1, dt4_presentation.generator_count + 1)
    ]
    assert len(mulclose(gens)) == 11_520


@pytest.mark.parametrize("dropped", [triple_word(1, 4), commutator_word(1, 2)])
def test_complement_path_skips_a_pair_without_its_relator(
    dt4_presentation, dt4_assignment, dropped
):
    # without the braid g1 g4 (or the commutator g1 g2), no path may hold
    # both; another path is found and the index still gives the regular order
    key = relator_key(dropped)
    mutant = GroupPresentation.make(
        dt4_presentation.names, [r for r in dt4_presentation.relators if relator_key(r) != key]
    )
    assert len(mutant.relators) == len(dt4_presentation.relators) - 1
    path, _ = complement_path(mutant, dt4_assignment, 1_000_000)
    assert path and not {abs(x) for x in dropped} <= set(path)
    over_h = coset_enumeration(mutant, [(g,) for g in path], 1_000_000)
    regular = coset_enumeration(mutant, (), 1_000_000)
    assert over_h.coset_count * 720 == group_order(regular) == 11_520


def test_complement_path_falls_back_at_its_bound(dt4_presentation, dt4_assignment):
    # the search pops 6 partial paths on dt4: the start plane and 5 edges
    walk = (1, 4, 2, 3, 9), (1, 2, 3, 6, 4, 5)
    assert complement_path(dt4_presentation, dt4_assignment, 6) == walk
    assert complement_path(dt4_presentation, dt4_assignment, 5) == ((), ())
    assert complement_path(dt4_presentation, dt4_assignment, 1) == ((), ())


def _walk_inputs(t4, dt4):
    """(presentation, assignment) of t4, dt4, their relabelings by seeds
    0-5, and three Coxeter covers."""
    for c in (t4, dt4):
        for seed in (None, *range(6)):
            d = c if seed is None else relabel_complex(c, random.Random(seed))
            yield build_tilde_presentation(d), plane_transposition_map(d)
    for m, k in ((3, 2), (4, 3), (5, 3)):
        pres, _, symmetric = coxeter_cover(m, k)
        yield pres, symmetric


def test_complement_path_returns_the_planes_it_walked(t4, dt4):
    # the i-th path generator transposes the i-th and (i+1)-th planes, and
    # the planes visit each of 1..n once
    walks = 0
    for pres, a in _walk_inputs(t4, dt4):
        path, planes = complement_path(pres, a, 1_000_000)
        assert sorted(planes) == list(range(1, a.degree + 1))
        assert len(path) == a.degree - 1
        for i, g in enumerate(path):
            assert a.moved[g - 1] == tuple(sorted(planes[i : i + 2]))
        walks += 1
    assert walks == 17


def test_complement_path_is_found_within_fewer_than_n_factorial_partial_paths(t4, dt4):
    # the enumeration over the trivial subgroup would need n!|K| >= n!
    # cosets, so a bound the complement search misses at would stop that
    # table too: t4, dt4, their relabelings and random draws, the
    # octahedron among them
    rng = random.Random(30)
    complexes = [c if seed is None else relabel_complex(c, random.Random(seed))
                 for c in (t4, dt4) for seed in (None, *range(6))]
    complexes += [random_valid_complex(rng) for _ in range(30)]
    assert {c.plane_count for c in complexes} == {4, 6, 8}
    # the octahedron's 4-point relations are not recorded here, but the
    # search reads only the squares, braids and commutators that its
    # incidence states: a stated square stands in for them
    stated = PresentationOverrides(extra_relators=("word: g1 g1",))
    for c in complexes:
        c = c if c.overrides else c._replace(overrides=stated)
        pres, a = build_tilde_presentation(c), plane_transposition_map(c)
        _, planes = complement_path(pres, a, math.factorial(a.degree) - 1)
        assert len(planes) == a.degree


def test_complement_path_needs_stated_squares(t4, t4_presentation):
    # a generator without its square relator is no involution of H
    no_square = GroupPresentation.make(
        t4_presentation.names, [r for r in t4_presentation.relators if r != (4, 4)]
    )
    path, _ = complement_path(no_square, plane_transposition_map(t4), 1_000)
    assert 4 not in path


def test_simplify_presentation_trivializes():
    # <a, b | a b^-1, b^4, a^4> collapses to a single generator of order 4
    p = GroupPresentation.make(("a", "b"), [(1, -2), (2, 2, 2, 2)])
    q = simplify_presentation(p)
    assert q.generator_count == 1
    assert group_order(coset_enumeration(q, (), 100)) == 4


def test_simplify_preserves_abelianization():
    from galcov.kernel import abelian_invariants

    p = GroupPresentation.make(
        ("a", "b", "c"), [(1, -2), (2, 2, 2, 2), (3, 3), (1, 3, -1, -3)]
    )
    q = simplify_presentation(p)
    assert abelian_invariants(p) == abelian_invariants(q)


def test_vk_node_template_vanishes_under_commuting_images():
    # disjoint transpositions commute; the node relator must die on them
    images = (transposition(4, 1, 2), transposition(4, 3, 4))
    assert word_permutation(images, commutator_word(1, 2)) == identity(4)


def test_vk_cusp_template_vanishes_under_braiding_images():
    # transpositions sharing one point braid; the cusp relator dies on them
    cusp = triple_word(1, 2)
    assert word_permutation((transposition(3, 1, 2), transposition(3, 2, 3)), cusp) == identity(3)
    # and on any pair of braiding semidirect images: (1 2), and the
    # affine reflection (1 3)u_{1,3}, in window notation
    from galcov.coxeter import eval_words

    assert eval_words([(2, 1, 3), (0, 2, 4)], [cusp])[0] == (1, 2, 3)
