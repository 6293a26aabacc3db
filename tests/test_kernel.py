import itertools
import math
import random

import pytest

import galcov.kernel
from galcov.complexes import parse_complex
from galcov.enumeration import CosetTable, coset_enumeration
from galcov.kernel import (
    KernelError,
    abelianization,
    identify_structure,
    kernel_coset_table,
    regular_kernel,
    reidemeister_schreier,
    smith_normal_form,
)
from galcov.permutations import SymmetricAssignment, plane_transposition_map
from galcov.presentation import (
    GroupPresentation,
    build_tilde_presentation,
    complement_path,
    eliminate_and_rewrite,
    relation_holds,
)
from galcov.tietze import simplify_presentation

from .conftest import (
    compose,
    coxeter_cover,
    identity,
    invert,
    mulclose,
    relabel_complex,
    snf_oracle,
    transposition,
    word_permutation,
    write_dt4_power,
)


# ---------------------------------------------------------------------------
# kernel coset tables


def test_kernel_table_index_two():
    p = GroupPresentation.make(("a",), [(1, 1)])
    a = SymmetricAssignment(degree=2, images=(transposition(2, 1, 2),))
    t = kernel_coset_table(p, a)
    assert t.coset_count == 2
    sub = reidemeister_schreier(p, t)
    assert coset_enumeration(simplify_presentation(sub), (), 100).coset_count == 1


def product_table_columns(pres, a):
    """Kernel table columns from permutation products: the oracle for the
    columns ``kernel_coset_table`` looks up by image tuple."""
    elements = list(itertools.permutations(range(1, a.degree + 1)))
    index = {sigma: i for i, sigma in enumerate(elements)}
    gens = a.images[: pres.generator_count]
    return tuple(
        tuple(index[compose(sigma, h)] for sigma in elements)
        for g in gens
        for h in (g, invert(g))
    )


def test_kernel_table_t4(t4, t4_presentation):
    a = plane_transposition_map(t4)
    t = kernel_coset_table(t4_presentation, a)
    assert t.coset_count == 24
    assert t.columns == product_table_columns(t4_presentation, a)
    assert all(t.column(k) is t.column(-k) for k in t4_presentation.involutions())


def test_kernel_table_dt4(dt4, dt4_presentation):
    a = plane_transposition_map(dt4)
    t = kernel_coset_table(dt4_presentation, a)
    assert t.coset_count == 720
    assert t.columns == product_table_columns(dt4_presentation, a)


def test_kernel_table_rejects_non_homomorphism():
    p = GroupPresentation.make(("a",), [(1, 1, 1)])
    a = SymmetricAssignment(degree=2, images=(transposition(2, 1, 2),))
    with pytest.raises(KernelError, match="homomorphism"):
        kernel_coset_table(p, a)


def test_kernel_table_rejects_non_surjective():
    p = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2)])
    t = transposition(3, 1, 2)
    a = SymmetricAssignment(degree=3, images=(t, t))
    with pytest.raises(KernelError, match="surjective"):
        kernel_coset_table(p, a)


def test_kernel_table_of_one_point():
    # S_1 has one permutation: the padded image tuple (0, 1) keys it, where
    # itemgetter of the one index 1 would return a bare 1
    p = GroupPresentation.make(("a",), [(1, 1)])
    a = SymmetricAssignment(degree=1, images=(identity(1),))
    t = kernel_coset_table(p, a)
    assert t.columns == ((0,), (0,))
    assert reidemeister_schreier(p, t) == GroupPresentation(("x1",), ((1, 1),))


# two cosets that no generator joins: a table no subgroup of index 2 has
_TWO_COMPONENTS = CosetTable(generator_count=1, columns=((0, 1), (0, 1)))


@pytest.mark.parametrize("relator", [(1, 1), (1, 1, 1)], ids=["involution", "order-3"])
def test_rewrite_rejects_a_table_that_is_not_connected(relator):
    p = GroupPresentation.make(("a",), [relator])
    with pytest.raises(KernelError, match="coset table is not connected"):
        reidemeister_schreier(p, _TWO_COMPONENTS)


def test_regular_kernel_rejects_a_table_that_is_not_connected():
    trivial = SymmetricAssignment(1, (identity(1),))
    with pytest.raises(KernelError, match="coset table is not connected"):
        regular_kernel(_TWO_COMPONENTS, trivial, (), (1,))


def test_regular_kernel_rejects_an_unreachable_last_coset():
    # Z3 = <a> on cosets 0..2, plus a coset 3 that a fixes: the kernel
    # element of coset 1 takes the orbit of coset 0 to 0..2, and the walk
    # of the table ends before it reaches coset 3
    table = CosetTable(generator_count=1, columns=((1, 2, 0, 3), (2, 0, 1, 3)))
    trivial = SymmetricAssignment(1, (identity(1),))
    with pytest.raises(KernelError, match="coset table is not connected"):
        regular_kernel(table, trivial, (), (1,))


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


def test_free_group_index_two_has_rank_three():
    # free group on a, b; both mapped to the transposition
    p = GroupPresentation.make(("a", "b"), [])
    t = transposition(2, 1, 2)
    a = SymmetricAssignment(degree=2, images=(t, t))
    table = kernel_coset_table(p, a)
    sub = reidemeister_schreier(p, table)
    # Nielsen-Schreier: rank = 1 + index*(rank-1) = 3; no relators survive
    assert sub.generator_count == 2 * 2 - (2 - 1) == 3
    assert sub.relators == ()


def orbit_count(pres, table):
    """Schreier generators of the involution-aware rewrite: one per orbit
    of each involution, one per coset of any other generator, less the
    index - 1 tree edges."""
    index = table.coset_count
    total = 0
    for k in range(1, pres.generator_count + 1):
        if k in pres.involutions():
            fixed = sum(1 for c in range(index) if table.trace(c, (k,)) == c)
            total += (index + fixed) // 2
        else:
            total += index
    return total - (index - 1)


def test_schreier_generator_count_formula(t4, t4_presentation, dt4, dt4_presentation):
    # every generator is an involution acting on the cosets (permutations)
    # as a transposition does by right multiplication, without fixed
    # points: 6 * 12 - 23 = 49 and 9 * 360 - 719 = 2521
    for c, pres, expected in ((t4, t4_presentation, 49), (dt4, dt4_presentation, 2521)):
        a = plane_transposition_map(c)
        table = kernel_coset_table(pres, a)
        sub = reidemeister_schreier(pres, table)
        assert sub.generator_count == orbit_count(pres, table) == expected


@pytest.mark.parametrize(
    "name, expected",
    [
        ("t4", (49, 114, 342, 114, 383)),
        ("dt4", (2521, 8280, 24840, 8280, 42111)),
    ],
)
def test_rewrite_counters(name, expected, request):
    pres = request.getfixturevalue(f"{name}_presentation")
    table = kernel_coset_table(pres, plane_transposition_map(request.getfixturevalue(name)))
    stats = {}
    sub = reidemeister_schreier(pres, table, stats=stats)
    keys = (
        "schreier_generators",
        "relators_traced",
        "cycles_skipped",
        "relators_out",
        "letters_out",
    )
    assert tuple(stats[k] for k in keys) == expected
    assert stats["relators_out"] == len(sub.relators)
    assert stats["letters_out"] == sub.total_relator_length()
    # squares trace nowhere (no fixed points); every other relator is
    # traced or skipped once from each coset
    assert stats["relators_traced"] + stats["cycles_skipped"] == table.coset_count * (
        len(pres.relators) - len(pres.involutions())
    )


def plain_reidemeister_schreier(pres, table):
    """Reference rewrite: one Schreier generator per (coset, generator)
    off the same breadth-first tree, every relator traced from every
    coset."""
    m, n = pres.generator_count, table.coset_count
    letters = list(range(1, m + 1)) + [-k for k in range(1, m + 1)]
    tree, seen, frontier = set(), {0}, [0]
    while frontier:
        grown = []
        for c in frontier:
            for x in letters:
                d = table.trace(c, (x,))
                if d not in seen:
                    seen.add(d)
                    grown.append(d)
                    tree.add((c, x) if x > 0 else (d, -x))
        frontier = grown
    gen_id, names = {}, []
    for c in range(n):
        for k in range(1, m + 1):
            if (c, k) not in tree:
                names.append(f"x{c}_{k}" if n > 1 else f"x{k}")
                gen_id[(c, k)] = len(names)
    relators = []
    for w in pres.relators:
        for c in range(n):
            d, word = c, []
            for x in w:
                if x > 0:
                    word.append(gen_id.get((d, x), 0))
                    d = table.trace(d, (x,))
                else:
                    d = table.trace(d, (x,))
                    word.append(-gen_id.get((d, -x), 0))
            assert d == c
            relators.append([s for s in word if s])
    return GroupPresentation.make(names, relators)


def s4_coxeter():
    # <a, b, c | a^2, b^2, c^2, (ab)^3, (bc)^3, (ac)^2> = S4
    return GroupPresentation.make(
        ("a", "b", "c"), [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2]
    )


def dihedral_involutions(n):
    # <a, b | a^2, b^2, (ab)^n>: for n = 2 and 3 the commutator and the
    # braid triple of two involutions
    return GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * n])


def dihedral_rotation(n):
    # <r, s | r^n, s^2, s r s^-1 r>: r is not an involution
    return GroupPresentation.make(("r", "s"), [(1,) * n, (2, 2), (2, 1, -2, 1)])


def s4_mixed():
    # <a, b | a^4, b^2, (a b^-1)^3>: a 4-cycle and a transposition
    return GroupPresentation.make(("a", "b"), [(1,) * 4, (2, 2), (1, -2) * 3])


def quaternion():
    # <i, j | i^4, i^2 j^-2, j^-1 i j i>: no involution generator
    return GroupPresentation.make(("i", "j"), [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)])


def klein_repeated():
    # (a b^-1)^2 is (ab)^2 again once b^-1 = b: the rewrite repeats words
    return GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 2, (1, -2) * 2])


ORACLE_CASES = [
    (dihedral_involutions(2), [(), (1,), (1, 2)]),
    (klein_repeated(), [(), (1,), (1, 2)]),
    (dihedral_involutions(3), [(), (1,), (2,), (1, 2)]),
    (dihedral_involutions(4), [(1,), (1, 2), (1, 2, 1, 2), (2, 1, 2)]),
    (dihedral_involutions(6), [(1,), (1, 2, 1, 2), (2, 1, 2, 1, 2)]),
    (s4_coxeter(), [(), (1,), (2,), (1, 2), (1, 3), (2, 3, 2)]),
    (dihedral_rotation(5), [(), (2,), (1,), (1, 2)]),
    (dihedral_rotation(6), [(1, 1), (2,), (1, 2)]),
    (s4_mixed(), [(), (2,), (1,), (1, 1), (1, 2)]),
    (quaternion(), [(), (1,), (1, 1), (2,)]),
]


def random_rewrite(pres, rng):
    """The same group with each relator rotated, maybe inverted, and some
    involution letters written as inverses; squares flip both letters."""
    inv = pres.involutions()
    relators = []
    for w in pres.relators:
        if len(w) == 2 and abs(w[0]) in inv and w[0] == w[1]:
            relators.append(rng.choice((w, (-w[0], -w[0]))))
            continue
        t = rng.randrange(len(w))
        w = w[t:] + w[:t]
        if rng.random() < 0.5:
            w = tuple(-x for x in reversed(w))
        relators.append(
            tuple(-x if abs(x) in inv and rng.random() < 0.5 else x for x in w)
        )
    rng.shuffle(relators)
    return GroupPresentation.make(pres.names, relators)


def seeded_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        pres, _ = rng.choice(ORACLE_CASES)
        m = pres.generator_count
        subgroup = [
            tuple(rng.choice((-1, 1)) * rng.randint(1, m) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2))
        ]
        yield random_rewrite(pres, rng), subgroup


def oracle_inputs():
    for pres, subgroups in ORACLE_CASES:
        for words in subgroups:
            yield pres, [words] if words else []
    yield from seeded_cases(2026, 40)


def trivial_in(table, word):
    # a table over the trivial subgroup is regular: fixing coset 0 suffices
    return table.trace(0, word) == 0


def test_rewrite_matches_plain_oracle():
    for pres, subgroup in oracle_inputs():
        order = coset_enumeration(pres, (), 10_000).coset_count
        table = coset_enumeration(pres, subgroup, 10_000)
        index = table.coset_count
        sub = reidemeister_schreier(pres, table)
        ref = plain_reidemeister_schreier(pres, table)
        assert sub == GroupPresentation.make(sub.names, sub.relators)  # normalized
        assert sub.generator_count == orbit_count(pres, table)
        h = coset_enumeration(simplify_presentation(sub), (), 10_000).coset_count
        h_ref = coset_enumeration(simplify_presentation(ref), (), 10_000).coset_count
        assert h == h_ref and h * index == order
        assert abelianization(sub) == abelianization(ref)

        # the rewrite holds in the subgroup as the oracle presents it: every
        # relator is trivial, a dropped generator of an involution is the
        # inverse of its partner's, or trivial when the pair is a tree edge
        ref_table = coset_enumeration(ref, (), 10_000)
        ids = [ref.id_of(name) for name in sub.names]
        for w in sub.relators:
            word = [ids[x - 1] if x > 0 else -ids[-x - 1] for x in w]
            assert trivial_in(ref_table, word)
        if index == 1:
            assert sub.names == ref.names
            continue
        kept = set(sub.names)
        for name in set(ref.names) - kept:
            c, k = map(int, name[1:].split("_"))
            assert k in pres.involutions()
            partner = f"x{table.trace(c, (k,))}_{k}"
            word = [ref.id_of(name)] + ([ref.id_of(partner)] if partner in kept else [])
            assert trivial_in(ref_table, word)


def test_t4_kernel_is_trivial(t4, t4_presentation):
    a = plane_transposition_map(t4)
    table = kernel_coset_table(t4_presentation, a)
    sub = reidemeister_schreier(t4_presentation, table)
    simplified = simplify_presentation(sub)
    assert coset_enumeration(simplified, (), 10_000).coset_count == 1


def test_dt4_kernel_is_z2_to_the_4(dt4, dt4_presentation):
    a = plane_transposition_map(dt4)
    table = kernel_coset_table(dt4_presentation, a)
    sub = reidemeister_schreier(dt4_presentation, table)
    simplified = simplify_presentation(sub)
    assert coset_enumeration(simplified, (), 100_000).coset_count == 16
    assert abelianization(simplified) == (2, 2, 2, 2)


def test_rewritten_relators_hold_in_subgroup(t4, t4_presentation):
    # tracing each rewritten relator through the subgroup's own table
    a = plane_transposition_map(t4)
    table = kernel_coset_table(t4_presentation, a)
    sub = reidemeister_schreier(t4_presentation, table)
    sub_table = coset_enumeration(simplify_presentation(sub), (), 10_000)
    assert sub_table.coset_count == 1  # trivial group: relators hold vacuously


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)


def test_snf_zero_and_empty():
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[0, 0, 0]]) == (0,)
    assert smith_normal_form([]) == ()
    assert smith_normal_form([[], []]) == ()


def test_snf_ragged_matrix_is_rejected():
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form([[1, 2], [3]])


@pytest.mark.parametrize(
    "matrix, diagonal",
    [
        # the pivot 2 leaves the remainder 1 in its row: a smaller pivot
        ([[2, 3]], (1,)),
        # split-off pivots that do not divide each other: gcd and lcm
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 0], [0, 6]], (2, 12)),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
        # a negative pivot
        ([[-4, 6], [6, -4]], (2, 10)),
    ],
)
def test_snf_remainders_and_divisibility_order(matrix, diagonal):
    assert smith_normal_form(matrix) == snf_oracle(matrix) == diagonal


def test_snf_diag_2_4_under_unimodular_moves():
    rng = random.Random(101)
    base = [[2, 0], [0, 4]]
    for _ in range(25):
        a = [row[:] for row in base]
        for _ in range(6):
            op = rng.randrange(4)
            i, j = rng.sample(range(2), 2)
            k = rng.randint(-2, 2)
            if op == 0:
                a[i] = [x + k * y for x, y in zip(a[i], a[j])]
            elif op == 1:
                for row in a:
                    row[i] += k * row[j]
            elif op == 2:
                a[i], a[j] = a[j], a[i]
            else:
                for row in a:
                    row[i], row[j] = row[j], row[i]
        assert smith_normal_form(a) == snf_oracle(a) == (2, 4)


def test_snf_matches_oracle_on_200_seeded_matrices():
    rng = random.Random(20260810)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(a) == snf_oracle(a)


def test_snf_divisibility_chain():
    rng = random.Random(55)
    for _ in range(50):
        a = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        diag = smith_normal_form(a)
        for x, y in zip(diag, diag[1:]):
            if y == 0:
                continue
            assert x != 0 and y % x == 0


def test_snf_orbit_of_projective_vector():
    from galcov.coxeter import lattice_quotient

    q = lattice_quotient((1, 1, -1, -1, -1, 1))
    assert q.invariants == (1, 2, 2, 2, 2)


# ---------------------------------------------------------------------------
# abelianization


def test_abelianization_examples():
    assert abelianization(GroupPresentation.make(("a",), [(1, 1)])) == (2,)
    assert abelianization(GroupPresentation.make(("a", "b"), [(1, 2, -1, -2)])) == (0, 0)
    # no relators: the exponent matrix is empty, and its normal form () is
    # padded to one free rank per generator
    assert abelianization(GroupPresentation.make(("a", "b"), [])) == (0, 0)


def test_abelianization_invariant_under_elimination(t4, t4_presentation):
    # g4 = g1^-1 g2^-1 g1^-1 restates the branch relator g4 g1 g2 g1
    table = coset_enumeration(t4_presentation, (), 10_000)
    assert relation_holds(4, (-1, -2, -1), table, plane_transposition_map(t4))
    q, _ = eliminate_and_rewrite(t4_presentation, {4: (-1, -2, -1), -4: (1, 2, 1)}, ())
    assert abelianization(t4_presentation) == abelianization(q)


# ---------------------------------------------------------------------------
# structure verdicts


def test_identify_trivial():
    assert identify_structure(1).kind == "Trivial"


def test_identify_elementary_abelian():
    v = identify_structure(16, invariant_factors=(2, 2, 2, 2))
    assert v.kind == "ElementaryAbelian2" and v.rank == 4
    assert v.describe() == "Z2^4"


def test_identify_abelian_from_factors():
    v = identify_structure(8, invariant_factors=(2, 4))
    assert v.kind == "AbelianInvariantFactors"
    assert v.factors == (2, 4)
    assert v.describe() == "Z2 x Z4"


def test_identify_undetermined_cases():
    # an order alone decides nothing, nor do factors short of it: D4 and
    # Q8 are both of order 8 with K/K' = Z2 x Z2
    v = identify_structure(16)
    assert v.kind == "Undetermined" and v.factors is None
    assert v.describe() == "undetermined (order 16)"
    v = identify_structure(8, invariant_factors=(2, 2))
    assert v.kind == "Undetermined" and v.factors == (2, 2)
    # inconsistent evidence: product of factors exceeds the order
    w = identify_structure(4, invariant_factors=(2, 2, 2))
    assert w.kind == "Undetermined"
    assert "inconsistent" in w.note
    # free abelian evidence against a finite order
    x = identify_structure(4, invariant_factors=(2, 0))
    assert x.kind == "Undetermined"


def test_identify_rejects_bad_order():
    with pytest.raises(ValueError):
        identify_structure(0)


def test_rewritten_relators_trace_identity_in_subgroup_table():
    # dihedral group of order 8 over its index-2 rotation-free quotient:
    # the kernel has order 4, and every rewritten relator must trace to
    # identity from every coset of the kernel presentation's own table
    p = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 4])
    t = transposition(2, 1, 2)
    a = SymmetricAssignment(degree=2, images=(t, t))
    table = kernel_coset_table(p, a)
    sub = reidemeister_schreier(p, table)
    sub_table = coset_enumeration(sub, (), 10_000)
    assert sub_table.coset_count == 4
    for w in sub.relators:
        for c in range(sub_table.coset_count):
            assert sub_table.trace(c, w) == c


# ---------------------------------------------------------------------------
# the kernel from its regular action, against brute-force closure

# K as a presentation (generators, relators) and as permutations
_S3 = (("x", "y"), [(1, 1, 1), (2, 2), (1, 2, 1, 2)],
       [(2, 3, 1), (2, 1, 3)])
_Q8 = (("i", "j"), [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)],
       [(2, 5, 8, 3, 6, 1, 4, 7), (3, 4, 5, 6, 7, 8, 1, 2)])
_Z4Z2 = (("a", "b"), [(1,) * 4, (2, 2), (1, 2, -1, -2)],
         [(2, 3, 4, 1, 5, 6), (1, 2, 3, 4, 6, 5)])
_S4 = (("a", "b"), [(1, 1), (2,) * 4, (1, 2) * 3],
       [(2, 1, 3, 4), (2, 3, 4, 1)])
# Z3 = <x>, S3 = <y, z> and Z4 = <w>, on 3 + 3 + 4 points
_Z3S3Z4 = (("x", "y", "z", "w"),
           [(1,) * 3, (2,) * 3, (3, 3), (2, 3) * 2, (4,) * 4]
           + [(i, j, -i, -j) for i, j in ((1, 2), (1, 3), (1, 4), (4, 2), (4, 3))],
           [(2, 3, 1, 4, 5, 6, 7, 8, 9, 10), (1, 2, 3, 5, 6, 4, 7, 8, 9, 10),
            (1, 2, 3, 5, 4, 6, 7, 8, 9, 10), (1, 2, 3, 4, 5, 6, 8, 9, 10, 7)])
# the dihedral group of order 100: a rotation and a reflection of 50 points
_D50 = (("r", "s"), [(1,) * 50, (2, 2), (2, 1) * 2],
        [tuple(range(2, 51)) + (1,), (1,) + tuple(range(50, 1, -1))])


def _with_s2_complement(names, relators):
    """K x <t>, with t an involution commuting with K, mapped onto S_2 by
    t -> (1 2) and K -> 1: its complement path is (t,), through planes 1
    and 2, returned as the pair that complement_path returns."""
    t = len(names) + 1
    pres = GroupPresentation.make(
        names + ("t",),
        relators + [(t, t)] + [(t, k, -t, -k) for k in range(1, t)],
    )
    a = SymmetricAssignment(2, (identity(2),) * len(names) + (transposition(2, 1, 2),))
    return pres, a, ((t,), (1, 2))


def _brute_force(model):
    """Order, centre order, derived subgroup order and element orders of
    the group the permutations generate."""
    elements = mulclose(model)

    def order(p):
        k, q = 1, p
        while q != identity(len(p)):
            q, k = compose(q, p), k + 1
        return k

    centre = [z for z in elements if all(compose(z, y) == compose(y, z) for y in elements)]
    commutators = {
        compose(compose(invert(x), invert(y)), compose(x, y)) for x in elements for y in elements
    }
    derived = mulclose(commutators)
    return len(elements), len(centre), len(derived), sorted(map(order, elements))


def _cyclic_product_orders(factors):
    return sorted(
        math.lcm(*(d // math.gcd(d, x) for d, x in zip(factors, xs)))
        for xs in itertools.product(*(range(d) for d in factors))
    )


@pytest.mark.parametrize(
    "k,expected",
    [
        (_S3, {"kind": "NonAbelian", "order": 6, "centre": 1, "derived": 3, "factors": (2,)}),
        (_Q8, {"kind": "NonAbelian", "order": 8, "centre": 2, "derived": 2, "factors": (2, 2)}),
        (_Z4Z2, {"kind": "AbelianInvariantFactors", "order": 8, "centre": 8, "derived": 1,
                 "factors": (2, 4)}),
        (_S4, {"kind": "NonAbelian", "order": 24, "centre": 1, "derived": 12, "factors": (2,)}),
        (_Z3S3Z4, {"kind": "NonAbelian", "order": 72, "centre": 12, "derived": 3,
                   "factors": (2, 12)}),
        (_D50, {"kind": "NonAbelian", "order": 100, "centre": 2, "derived": 25,
                "factors": (2, 2)}),
    ],
    ids=["S3", "Q8", "Z4xZ2", "S4", "Z3xS3xZ4", "D50"],
)
def test_regular_kernel_matches_brute_force_closure(monkeypatch, k, expected):
    names, relators, model = k
    pres, a, walk = _with_s2_complement(names, relators)
    order, centre, derived, orders = _brute_force(model)
    assert (order, centre, derived) == (expected["order"], expected["centre"], expected["derived"])
    table = coset_enumeration(pres, [walk[0]], 1000)
    assert table.coset_count == order
    verdicts = _spy(monkeypatch, "_regular_verdict")
    v = regular_kernel(table, a, *walk)
    assert v.kind == expected["kind"] and v.order == order
    # only a non-abelian K goes through the centre and derived order
    assert len(verdicts) == (v.kind == "NonAbelian")
    # the invariants of K/K' are those of the presentation's SNF
    assert v.factors == expected["factors"]
    assert v.factors == abelianization(GroupPresentation.make(names, relators))
    if v.kind == "NonAbelian":
        assert (v.centre_order, v.derived_order) == (centre, derived)
    else:
        assert orders == _cyclic_product_orders(v.factors)


def test_abelian_verdict_matches_the_regular_verdict_on_seeded_generators():
    # Z_d1 x ... x Z_dk acting on itself, generated by seeded elements taken
    # as the regular action takes them, each outside the orbit of the
    # earlier ones: the polycyclic relations and the relators of every edge
    # off the Schreier tree give the group's invariant factors
    rng = random.Random(7)
    for _ in range(60):
        orders = [rng.choice((2, 3, 4, 6, 8)) for _ in range(rng.randint(1, 3))]
        elements = list(itertools.product(*map(range, orders)))
        index = {x: i for i, x in enumerate(elements)}
        gens, tree, sizes = [], {0: None}, [1]
        while len(tree) < len(elements):
            g = rng.choice([x for x in elements if index[x] not in tree])
            gens.append(tuple(
                index[tuple((a + b) % d for a, b, d in zip(x, g, orders))] for x in elements
            ))
            galcov.kernel._schreier_tree(gens, tree)
            sizes.append(len(tree))
        diagonal = [[d if i == j else 0 for j in range(len(orders))] for i, d in enumerate(orders)]
        factors = tuple(f for f in snf_oracle(diagonal) if f > 1)
        v = galcov.kernel._abelian_verdict(gens, tree, sizes)
        assert v == galcov.kernel._regular_verdict(gens, tree)
        assert v.order == len(elements) and v.factors == factors


def test_regular_kernel_over_a_longer_path():
    # S_3 x Z3, with K = Z3 = <z> and the complement S_3 = <s1, s2> along
    # the path s1 s2; z commutes with both and maps to the identity
    pres = GroupPresentation.make(
        ("z", "s1", "s2"),
        [(1, 1, 1), (2, 2), (3, 3), (2, 3) * 3, (1, 2, -1, -2), (1, 3, -1, -3)],
    )
    a = SymmetricAssignment(3, (identity(3), transposition(3, 1, 2), transposition(3, 2, 3)))
    table = coset_enumeration(pres, [(2,), (3,)], 1000)
    assert table.coset_count == 3
    v = regular_kernel(table, a, (2, 3), (1, 2, 3))
    assert (v.kind, v.factors, v.order) == ("AbelianInvariantFactors", (3,), 3)
    # the path read from its other end gives the same kernel
    assert regular_kernel(table, a, (3, 2), (3, 2, 1)) == v
    # a path with fewer planes than it walks is refused
    with pytest.raises(ValueError, match="a path of 2 generators walks 3 planes"):
        regular_kernel(table, a, (2, 3), (1, 2))


def test_regular_kernel_rejects_a_set_that_is_not_closed(monkeypatch):
    # S_3 = <a, b> on the 3 cosets of <aba>, read as if that subgroup were
    # the complement S_1 along the empty path: the kernel words 1, a, b act
    # as the identity and two transpositions, whose product is a 3-cycle;
    # b takes the orbit from 2 points to 3, not 4, before any verdict
    pres = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3])
    table = coset_enumeration(pres, [(1, 2, 1)], 100)
    trivial = SymmetricAssignment(1, (identity(1),) * 2)
    verdicts = _spy(monkeypatch, "_regular_verdict") + _spy(monkeypatch, "_abelian_verdict")
    with pytest.raises(KernelError, match="not closed under product"):
        regular_kernel(table, trivial, (), (1,))
    assert not verdicts


def test_regular_kernel_rejects_a_transitive_group_that_is_not_regular(monkeypatch):
    # the dihedral group of order 8 = <a, b> on the 4 cosets of <a>, read
    # as if that subgroup were the complement S_1: the kernel words b and
    # b a double the orbit of coset 0 twice, but generate a group of order
    # 8 on 4 points, and left multiplication along the tree does not commute
    pres = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 4])
    table = coset_enumeration(pres, [(1,)], 100)
    trivial = SymmetricAssignment(1, (identity(1),) * 2)
    verdicts = _spy(monkeypatch, "_regular_verdict")
    with pytest.raises(KernelError, match="not closed under product"):
        regular_kernel(table, trivial, (), (1,))
    # b and b a do not commute, so the regular check refuses them
    assert len(verdicts) == 1


def _breadth_first(start, letters, step):
    """A shortest word to each state reachable from ``start``."""
    words, frontier = {start: ()}, [start]
    while frontier:
        reached = []
        for s in frontier:
            for x in letters:
                t = step(s, x)
                if t not in words:
                    words[t] = words[s] + (x,)
                    reached.append(t)
        frontier = reached
    return words


def _kernel_words(table, a, path):
    """For each coset c that a kernel element sends coset 0 to, a word for
    that element: h w, with w a shortest word from coset 0 to c and h a
    shortest word over ``path``, whose involutions fix coset 0, with the
    inverse image."""
    over_h = _breadth_first(identity(a.degree), path, lambda p, g: compose(p, a.images[g - 1]))
    letters = [x for g in range(1, table.generator_count + 1) for x in (g, -g)]
    to = _breadth_first(0, letters, lambda c, x: table.trace(c, (x,)))
    words = {}
    for c, w in to.items():
        h = over_h.get(invert(word_permutation(a.images, w)))
        if h is not None:
            words[c] = h + w
    return words


def _spy(monkeypatch, name):
    """A list with one entry per call of ``galcov.kernel.<name>``, added as
    the call starts: [arguments], then what it returned, if it returns."""
    real, calls = getattr(galcov.kernel, name), []

    def spy(*args):
        calls.append([args])
        calls[-1].append(real(*args))
        return calls[-1][1]

    monkeypatch.setattr(galcov.kernel, name, spy)
    return calls


_GROUPS = {"S3": _S3, "Q8": _Q8, "Z4xZ2": _Z4Z2}


def _tables(dt4, case, tmp_path=None):
    """(table, assignment, path, planes) of the table a case reads: dt4,
    its relabeling or dt4^k ("dt4^k", written to ``tmp_path``) over the
    S_n complement, the Coxeter cover of the m-cycle with K = Z_k^(m-1)
    ("cover-m-k") over the S_m complement, or K x <t> over <t>."""
    if case.startswith("cover"):
        m, k = map(int, case.split("-")[1:])
        pres, proj, a = coxeter_cover(m, k)
        pres = GroupPresentation.make(pres.names, pres.relators + (proj,))
    elif case.startswith("dt4"):
        if case.startswith("dt4^"):
            path = write_dt4_power(tmp_path / "dt4-power.json", int(case[4:]))
            c = parse_complex(path.read_text())
        else:
            c = dt4 if case == "dt4" else relabel_complex(dt4, random.Random(int(case[4:])))
        pres, a = build_tilde_presentation(c), plane_transposition_map(c)
    else:
        pres, a, (path, planes) = _with_s2_complement(*_GROUPS[case][:2])
        return coset_enumeration(pres, [path], 1000), a, path, planes
    path, planes = complement_path(pres, a, 10**6)
    return coset_enumeration(pres, [(g,) for g in path], 10**6), a, path, planes


@pytest.mark.parametrize("case", ["dt4", "dt4-0", "dt4-1", "dt4-2", "dt4-3", "S3", "Q8"])
def test_regular_kernel_permutations_match_row_by_row_traces(monkeypatch, dt4, case):
    # each kernel element acts on the kernel cosets as any word for it does,
    # traced one letter at a time from every kernel coset; the elements are
    # the ones regular_kernel reads, abelian K or not
    table, a, path, planes = _tables(dt4, case)
    seen = _spy(monkeypatch, "_kernel_elements")
    regular_kernel(table, a, path, planes)
    ((_, (gens, _, _)),) = seen
    words = _kernel_words(table, a, path)
    # every coset over the complement is a kernel coset
    assert sorted(words) == list(range(table.coset_count))
    # at most log2 |K| generators, each taken at a coset outside the orbit
    # of coset 0 under the earlier ones, in the order the walk reaches them
    assert 0 < len(gens) <= math.log2(table.coset_count)
    for s, perm in enumerate(gens):
        assert perm[0] not in galcov.kernel._schreier_tree(gens[:s])
    if case == "dt4-0":
        # this relabeling's walk reaches coset 3 before coset 1
        assert [g[0] for g in gens] != sorted(g[0] for g in gens)
    for perm in gens:
        c = perm[0]
        assert perm == tuple(table.trace(d, words[c]) for d in range(table.coset_count))


# abelian kernels and their invariant factors: dt4, its relabelings, dt4^k
# (Z_k x Z_2k^4), Z4 x Z2 over an S_2 complement and the Coxeter covers
_ABELIAN = (
    [("dt4", (2,) * 4)]
    + [(f"dt4-{seed}", (2,) * 4) for seed in range(1, 6)]
    + [("dt4^2", (2, 4, 4, 4, 4)), ("dt4^3", (3, 6, 6, 6, 6)), ("Z4xZ2", (2, 4))]
    + [(f"cover-{m}-{k}", (k,) * (m - 1))
       for m, k in ((3, 2), (4, 3), (5, 3), (6, 3), (7, 3), (6, 4), (7, 4))]
)


@pytest.mark.parametrize("case,factors", _ABELIAN, ids=[case for case, _ in _ABELIAN])
def test_abelian_kernel_verdict_matches_the_regular_verdict(
    monkeypatch, tmp_path, dt4, case, factors
):
    # the t polycyclic relations of commuting kernel elements give the
    # verdict that the relators of every edge off their Schreier tree give,
    # from a t x t Smith normal form with t <= log2 |K|
    table, a, path, planes = _tables(dt4, case, tmp_path)
    elements = _spy(monkeypatch, "_kernel_elements")
    verdicts = _spy(monkeypatch, "_regular_verdict")
    snf = _spy(monkeypatch, "smith_normal_form")
    v = regular_kernel(table, a, path, planes)
    monkeypatch.undo()
    assert not verdicts
    ((_, (gens, tree, _)),) = elements
    (((matrix,), _),) = snf
    t = len(gens)
    assert len(matrix) == t and all(len(row) == t for row in matrix)
    assert 2**t <= table.coset_count
    if case == "dt4^3":
        assert t == 5
    assert v == galcov.kernel._regular_verdict(gens, tree)
    assert v.order == table.coset_count == math.prod(factors) and v.factors == factors


def test_regular_kernel_rejects_a_word_that_leaves_the_kernel_orbit():
    # S_3 = <a, b> over the trivial subgroup, mapped onto S_2 by the sign,
    # read as if that subgroup were the complement <a> along the path (a,):
    # a moves coset 0, so the kernel word a a of coset 1 = 0.a sends coset
    # 0 to itself, not to coset 1
    pres = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3])
    table = coset_enumeration(pres, (), 100)
    sign = transposition(2, 1, 2)
    a = SymmetricAssignment(2, (sign, sign))
    with pytest.raises(KernelError, match="the kernel element of coset 1 does not act on the kernel"):
        regular_kernel(table, a, (1,), (1, 2))
