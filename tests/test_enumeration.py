import json
import math
import random

import pytest

from galcov.complexes import parse_complex
from galcov.datasets import DT4_JSON, load_builtin
from galcov.enumeration import EnumerationOverflow, coset_enumeration
from galcov.kernel import kernel_coset_table, reidemeister_schreier
from galcov.permutations import plane_transposition_map
from galcov.presentation import (
    GroupPresentation,
    build_tilde_presentation,
    complement_path,
    format_word,
)
from galcov.tietze import simplify_presentation

from .conftest import (
    coxeter_cover,
    cycles,
    identity,
    load_relabel_json,
    mulclose,
    prism_complex,
    relabel_complex,
    transposition,
    verify_table,
    word_permutation,
)


def cyclic(n):
    return GroupPresentation.make(("a",), [(1,) * n])


def dihedral(n):
    # <r, s | r^n, s^2, (rs)^2>
    return GroupPresentation.make(
        ("r", "s"), [(1,) * n, (2, 2), (1, 2, 1, 2)]
    )


def symmetric(n):
    # Coxeter presentation on adjacent transpositions
    names = tuple(f"s{i}" for i in range(1, n))
    relators = [(i, i) for i in range(1, n)]
    for i in range(1, n - 1):
        relators.append((i, i + 1) * 3)
    for i in range(1, n):
        for j in range(i + 2, n):
            relators.append((i, j) * 2)
    return GroupPresentation.make(names, relators)


def dihedral_inverse_letters(n):
    # the dihedral group again, written with s^-1 wherever s occurs
    return GroupPresentation.make(
        ("r", "s"), [(1,) * n, (-2, -2), (1, -2, 1, -2)]
    )


def s4_mixed():
    # <a, b | a^4, b^2, (ab)^3> = S4: a 4-cycle and a transposition
    return GroupPresentation.make(("a", "b"), [(1,) * 4, (2, 2), (1, 2) * 3])


def rotation(n):
    return tuple(range(2, n + 1)) + (1,)


def reflection(n):
    return tuple(range(n, 0, -1))


ORACLE_CORPUS = [
    (cyclic(1), [identity(1)]),
    (cyclic(2), [rotation(2)]),
    (cyclic(3), [rotation(3)]),
    (cyclic(6), [rotation(6)]),
    (dihedral(3), [rotation(3), reflection(3)]),
    (dihedral(4), [rotation(4), reflection(4)]),
    (dihedral(5), [rotation(5), reflection(5)]),
    (dihedral(6), [rotation(6), reflection(6)]),
    (symmetric(3), [transposition(3, 1, 2), transposition(3, 2, 3)]),
    (symmetric(4), [transposition(4, 1, 2), transposition(4, 2, 3), transposition(4, 3, 4)]),
]


def test_cyclic_three():
    table = coset_enumeration(cyclic(3), (), 1000)
    assert table.coset_count == 3
    # a single 3-cycle on the cosets
    images = [table.trace(c, (1,)) for c in range(3)]
    assert sorted(images) == [0, 1, 2]
    assert all(img != c for c, img in enumerate(images))
    assert all(table.trace(c, (1, 1, 1)) == c for c in range(3))
    assert all(table.trace(images[c], (-1,)) == c for c in range(3))


def test_s3_presentation():
    p = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3])
    table = coset_enumeration(p, (), 1000)
    # oracle: closure of the two transpositions generating S3
    oracle = mulclose([transposition(3, 1, 2), transposition(3, 2, 3)])
    assert table.coset_count == len(oracle) == 6


def _oracle_id(x):
    """A presentation as < a, b | a a, ... >, a model as the list of its
    permutations, each labelled Permutation(images=...): the ids these
    tests have always had, so their names stay stable."""
    if isinstance(x, GroupPresentation):
        relators = ", ".join(format_word(w, x.names) for w in x.relators)
        x = f"< {', '.join(x.names)} | {relators} >"
    else:
        x = "[" + ", ".join(f"Permutation(images={p})" for p in x) + "]"
    return x[:24]


@pytest.mark.parametrize("pres,model", ORACLE_CORPUS, ids=_oracle_id)
def test_todd_coxeter_matches_cayley_oracle(pres, model):
    if isinstance(pres, GroupPresentation):
        table = coset_enumeration(pres, (), 100_000)
        assert table.coset_count == len(mulclose(model))
        verify_table(pres, table)


def test_t4_group_order(t4_presentation):
    table = coset_enumeration(t4_presentation, (), 100_000)
    assert table.coset_count == 24
    verify_table(t4_presentation, table)


def test_generator_squares_act_trivially(t4_presentation):
    table = coset_enumeration(t4_presentation, (), 100_000)
    for k in range(1, table.generator_count + 1):
        for c in range(table.coset_count):
            assert table.trace(c, (k, k)) == c
            assert table.trace(c, (k,)) == table.trace(c, (-k,))


def test_dt4_projective_relator_traces_identity(dt4, dt4_presentation, dt4_table):
    from galcov.presentation import projective_relator

    proj = projective_relator(dt4)
    assert all(dt4_table.trace(c, proj) == c for c in range(dt4_table.coset_count))


def test_one_coset_table():
    p = GroupPresentation.make(("a",), [(1,)])
    assert coset_enumeration(p, (), 10).coset_count == 1


def test_table_without_generators_has_one_coset():
    # the trivial group on no generators, as a simplified kernel may be
    table = coset_enumeration(GroupPresentation.make((), []), (), 10)
    assert table.columns == ()
    assert table.coset_count == 1
    assert table.trace(0, ()) == 0


def test_overflow_raises():
    p = symmetric(4)
    with pytest.raises(EnumerationOverflow) as info:
        coset_enumeration(p, (), 5)
    assert info.value.max_cosets == 5


def test_overflow_monotone():
    p = dihedral(6)
    # find the smallest bound that closes, then every larger bound must
    # close to the identical table
    bound = 1
    table = None
    while table is None:
        try:
            table = coset_enumeration(p, (), bound)
        except EnumerationOverflow:
            bound += 1
    for extra in (1, 7, 1000):
        again = coset_enumeration(p, (), bound + extra)
        assert again.columns == table.columns


def test_determinism():
    p = symmetric(4)
    t1 = coset_enumeration(p, (), 100_000)
    t2 = coset_enumeration(p, (), 100_000)
    assert t1.columns == t2.columns


def test_subgroup_enumeration_consistency():
    # |G| over trivial subgroup = index of H * |H| for dihedral examples
    p = dihedral(4)
    full = coset_enumeration(p, (), 1000).coset_count
    over_r = coset_enumeration(p, [(1,)], 1000)  # subgroup <r>
    r_alone = coset_enumeration(cyclic(4), (), 1000).coset_count
    assert full == over_r.coset_count * r_alone == 8

    p6 = dihedral(6)
    full6 = coset_enumeration(p6, (), 1000).coset_count
    over_s = coset_enumeration(p6, [(2,)], 1000)  # subgroup <s>
    s_alone = coset_enumeration(cyclic(2), (), 1000).coset_count
    assert full6 == over_s.coset_count * s_alone == 12


def test_relators_trace_identity_from_every_coset(dt4_presentation, dt4_table):
    verify_table(dt4_presentation, dt4_table)


def test_larger_coxeter_style_groups():
    # two harder validation targets with known orders
    f4 = GroupPresentation.make(
        ("a", "b", "c", "d"),
        [
            (1, 1), (2, 2), (3, 3), (4, 4),
            (1, 2) * 3, (2, 3) * 4, (3, 4) * 3,
            (1, 3) * 2, (1, 4) * 2, (2, 4) * 2,
        ],
    )
    assert coset_enumeration(f4, (), 200_000).coset_count == 1152

    klein = GroupPresentation.make(
        ("a", "b"),
        [(1,) * 3, (2,) * 7, (1, 2) * 2, (1, -2, -2) * 4],
    )
    assert coset_enumeration(klein, (), 200_000).coset_count == 168


INVOLUTION_CORPUS = [
    (dihedral(5), [rotation(5), reflection(5)], ()),
    (dihedral_inverse_letters(6), [rotation(6), reflection(6)], ()),
    (dihedral_inverse_letters(4), [rotation(4), reflection(4)], [(-2, 1, -2)]),
    (dihedral(6), [rotation(6), reflection(6)], [(-2,)]),
    (dihedral(6), [rotation(6), reflection(6)], [(1, -2), (1, 1, 1)]),
    (s4_mixed(), [rotation(4), transposition(4, 1, 2)], ()),
    (s4_mixed(), [rotation(4), transposition(4, 1, 2)], [(-2, 1, -2, -1)]),
    (symmetric(4), ORACLE_CORPUS[-1][1], [(-1, -3)]),
]


def quaternion():
    # Q8 = <a, b | a^4, a^2 b^-2, b^-1 a b a>: short relators that are not
    # commutators, on columns that are not involutions
    return GroupPresentation.make(
        ("a", "b"), [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)]
    )


Q8_MODEL = [cycles(8, (1, 2, 3, 4), (5, 6, 7, 8)), cycles(8, (1, 5, 3, 7), (2, 8, 4, 6))]

# every relator here has at most four letters, and most are not
# involution squares, so HLT scans them
SHORT_CORPUS = [
    (quaternion(), Q8_MODEL, ()),
    (quaternion(), Q8_MODEL, [(1,)]),
    (quaternion(), Q8_MODEL, [(-1, -1)]),
    (quaternion(), Q8_MODEL, [(1, -2)]),
    # A4 = <a, b | a^3, b^3, (ab)^2>: length-3 relators
    (
        GroupPresentation.make(("a", "b"), [(1,) * 3, (2,) * 3, (1, 2) * 2]),
        [cycles(4, (1, 2, 3)), cycles(4, (2, 3, 4))],
        [(2, -1)],
    ),
    # Z6 = <a, b | a^2 b^-1, b^3>: a length-3 relator with an inverse letter
    (
        GroupPresentation.make(("a", "b"), [(1, 1, -2), (2,) * 3]),
        [rotation(6), cycles(6, (1, 3, 5), (2, 4, 6))],
        (),
    ),
    # Z5 = <a, b | a^5, a b^-1>: a length-2 relator that is not a square
    (
        GroupPresentation.make(("a", "b"), [(1,) * 5, (1, -2)]),
        [rotation(5), rotation(5)],
        [(2,)],
    ),
    # Z3 = <a, b | a, b^3>: a length-1 relator
    (
        GroupPresentation.make(("a", "b"), [(1,), (2,) * 3]),
        [identity(3), rotation(3)],
        (),
    ),
    # Z6 = <a, b | a^2, b^3, [a, b]>: a commutator of an involution and a
    # generator with two columns
    (
        GroupPresentation.make(("a", "b"), [(1, 1), (2,) * 3, (1, 2, -1, -2)]),
        [cycles(5, (1, 2)), cycles(5, (3, 4, 5))],
        [(2,)],
    ),
]


@pytest.mark.parametrize(
    "pres,model,subgroup", INVOLUTION_CORPUS + SHORT_CORPUS
)
def test_involution_columns_match_cayley_oracle(pres, model, subgroup):
    table = coset_enumeration(pres, subgroup, 10_000)
    verify_table(pres, table)
    h = mulclose([identity(len(model[0]))] + [word_permutation(model, w) for w in subgroup])
    assert table.coset_count * len(h) == len(mulclose(model))
    # an involution's self-inverse column serves both of its letters
    for k in pres.involutions():
        assert table.column(k) is table.column(-k)


@pytest.mark.parametrize("word", [(3,), (-3,), (1, 0), (2, -5)])
def test_subgroup_word_out_of_range_raises(word):
    with pytest.raises(ValueError):
        coset_enumeration(dihedral(4), [word], 1000)


def test_enumeration_counters(t4_presentation, dt4_presentation):
    # HLT scans every relator but the involution squares, which the
    # self-inverse columns enforce, shortest first.  <a, b, c | b^2, c^2, b a^-1 c^-1,
    # a b a a> has order 2 and needs one coincidence.  Neither it nor t4 has
    # a long relator, so their counters are plain HLT's; dt4's projective
    # relator is long, and plain HLT defined 43,933 cosets on it
    small = GroupPresentation.make(
        ("a", "b", "c"), [(2, 2), (3, 3), (2, -1, -3), (1, 2, 1, 1)]
    )
    for pres, order, expected in (
        (t4_presentation, 24, (60, 12, 44)),
        (dt4_presentation, 11520, (32014, 6960, 19011)),
        (small, 2, (7, 1, 8)),
    ):
        stats = {}
        table = coset_enumeration(pres, (), 1_000_000, stats=stats)
        assert table.coset_count == order
        assert stats == dict(
            zip(("cosets_defined", "coincidences", "peak_live"), expected)
        )


def test_overflow_carries_counters():
    stats = {}
    with pytest.raises(EnumerationOverflow) as info:
        coset_enumeration(symmetric(4), (), 5, stats=stats)
    assert info.value.stats == stats
    # coset 0 plus four definitions fill the bound of 5
    assert stats["cosets_defined"] == 4
    assert 1 <= stats["peak_live"] <= 5
    with pytest.raises(EnumerationOverflow) as info:
        coset_enumeration(symmetric(4), (), 20)
    assert info.value.stats == dict(cosets_defined=19, coincidences=0, peak_live=20)


def _dt4_over_complement(text):
    c = parse_complex(text)
    pres = build_tilde_presentation(c)
    path = complement_path(pres, plane_transposition_map(c), 1000)[0]
    return pres, [(g,) for g in path]


def _dt4_power(k):
    data = json.loads(DT4_JSON)
    word = data["overrides"]["projective_relator"].removeprefix("word:")
    data["overrides"]["projective_relator"] = "word:" + word * k
    return _dt4_over_complement(json.dumps(data))


def _dt4_relabeled(seed):
    return _dt4_over_complement(load_relabel_json()(DT4_JSON, random.Random(seed)))


# each input's index |K|, and the cosets defined with the long relator
# deferred and by plain HLT, which scanned it like any other relator
@pytest.mark.parametrize(
    "case,index,deferred,hlt",
    [
        (lambda: _dt4_power(2), 512, 1124, 4299),
        (lambda: cover_over_complement(6, 4), 1024, 1215, 5586),
        (lambda: cover_over_complement(7, 3), 729, 835, 3757),
        (lambda: _dt4_relabeled(1), 16, 72, 112),
        (lambda: _dt4_relabeled(2), 16, 150, 104),
        (lambda: _dt4_relabeled(3), 16, 97, 133),
    ],
    ids=["dt4^2", "cover-6-4", "cover-7-3", "dt4-relabel1", "dt4-relabel2", "dt4-relabel3"],
)
def test_deferred_long_relator_closes_the_table(case, index, deferred, hlt):
    pres, subgroup = case()
    stats = {}
    table = coset_enumeration(pres, subgroup, 1_000_000, stats=stats)
    verify_table(pres, table)
    assert all(table.trace(0, w) == 0 for w in subgroup)
    assert table.coset_count == index
    assert stats["cosets_defined"] == deferred
    # fewer than plain HLT, but on relabeling 2 of dt4
    assert deferred < hlt or (deferred, hlt) == (150, 104)


def _order_through_subgroup(pres, table):
    """[G:H] |H|, with |H| enumerated from the simplified
    Reidemeister-Schreier presentation of the subgroup H that ``table``
    lists the cosets of."""
    sub = simplify_presentation(reidemeister_schreier(pres, table))
    return table.coset_count * coset_enumeration(sub, (), 100_000).coset_count


@pytest.mark.parametrize("seed", [1, 2, None], ids=["dt4-seed1", "dt4-seed2", "prism3"])
def test_full_enumeration_agrees_with_subgroup_order(seed):
    if seed is None:
        # not a valid complex (edges of a side plane share no vertex), but
        # its presentation is a group: its plane transpositions break the
        # commutators of those edges, so there is no kernel route, and the
        # cosets of <g1 g2> are counted instead
        c = prism_complex(3)
        pres = build_tilde_presentation(c)
        sub_table = coset_enumeration(pres, [(1, 2)], 1000)
    else:
        c = relabel_complex(load_builtin("dt4"), random.Random(seed))
        pres = build_tilde_presentation(c)
        # n!|K| from the kernel route
        sub_table = kernel_coset_table(pres, plane_transposition_map(c))
    stats = {}
    table = coset_enumeration(pres, (), 1_000_000, stats=stats)
    verify_table(pres, table)
    assert table.coset_count == _order_through_subgroup(pres, sub_table)
    assert coset_enumeration(pres, (), 1_000_000).columns == table.columns
    if seed is not None:
        assert table.coset_count == math.factorial(6) * 16
        assert stats["cosets_defined"] == {1: 31739, 2: 31188}[seed]


def random_word(rng, ngens, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(length))


def test_random_short_relators_close():
    # seeded presentations whose relators are mostly short: the
    # enumeration must leave every relator closed at every coset and every
    # subgroup word fixing coset 0
    rng = random.Random(9)
    closed = 0
    for _ in range(1000):
        ngens = rng.randint(1, 3)
        relators = [(k, k) for k in range(1, ngens + 1) if rng.random() < 0.5]
        for _ in range(rng.randint(1, 4)):
            relators.append(random_word(rng, ngens, rng.choice((1, 2, 3, 4, 4, 4, 5, 6))))
        subgroup = [random_word(rng, ngens, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        pres = GroupPresentation.make(tuple(f"g{k}" for k in range(1, ngens + 1)), relators)
        try:
            table = coset_enumeration(pres, subgroup, 2000)
        except EnumerationOverflow:
            continue
        verify_table(pres, table)
        assert all(table.trace(0, w) == 0 for w in subgroup)
        closed += 1
    assert closed >= 800


def builtin_over(name, complement):
    c = load_builtin(name)
    pres = build_tilde_presentation(c)
    path = complement_path(pres, plane_transposition_map(c), 1000)[0] if complement else ()
    return pres, [(g,) for g in path]


def cover_over_complement(m, k):
    pres, proj, symmetric = coxeter_cover(m, k)
    full = GroupPresentation.make(pres.names, pres.relators + (proj,))
    return full, [(g,) for g in complement_path(full, symmetric, 1000)[0]]


# dt4 over the trivial subgroup is left out: sympy's HLT did not close its
# 11520 cosets within 100 s
@pytest.mark.parametrize(
    "case",
    [
        lambda: builtin_over("t4", False),
        lambda: builtin_over("t4", True),
        lambda: builtin_over("dt4", True),
        lambda: (s4_mixed(), ()),
        lambda: (s4_mixed(), [(1,)]),
        lambda: (quaternion(), ()),
        lambda: (quaternion(), [(1, -2)]),
        lambda: cover_over_complement(4, 3),
        lambda: cover_over_complement(5, 3),
        lambda: cover_over_complement(6, 3),
    ],
    ids=["t4", "t4-complement", "dt4-complement", "S4", "S4-over-a", "Q8", "Q8-over-ab^-1",
         "cover-4-3-complement", "cover-5-3-complement", "cover-6-3-complement"],
)
def test_index_matches_sympy_coset_enumeration(case, monkeypatch):
    pytest.importorskip("sympy")
    from sympy.combinatorics import fp_groups
    from sympy.combinatorics.free_groups import free_group

    # FpGroup builds a Knuth-Bendix rewriting system when it is made, about
    # 20 s for t4's relators, which coset enumeration never reads
    monkeypatch.setattr(fp_groups, "RewritingSystem", lambda group: None)
    pres, subgroup = case()
    free, *gens = free_group(", ".join(pres.names))

    def element(word):
        out = free.identity
        for x in word:
            out *= gens[abs(x) - 1] ** (1 if x > 0 else -1)
        return out

    group = fp_groups.FpGroup(free, [element(w) for w in pres.relators])
    table = fp_groups.coset_enumeration_r(group, [element(w) for w in subgroup])
    table.compress()
    assert coset_enumeration(pres, subgroup, 100_000).coset_count == len(table.table)
