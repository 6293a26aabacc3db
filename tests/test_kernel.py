import random

import pytest

from galcov.enumeration import coset_enumeration, group_order
from galcov.kernel import (
    KernelError,
    abelian_invariants,
    abelianization,
    identify_structure,
    kernel_coset_table,
    mod2_corank,
    reidemeister_schreier,
    smith_normal_form,
)
from galcov.permutations import Permutation, SymmetricAssignment, plane_transposition_map
from galcov.presentation import (
    GroupPresentation,
    eliminate_generator,
)
from galcov.tietze import simplify_presentation

from .conftest import snf_oracle


# ---------------------------------------------------------------------------
# kernel coset tables


def test_kernel_table_index_two():
    p = GroupPresentation.make(("a",), [(1, 1)])
    a = SymmetricAssignment(degree=2, images=(Permutation.transposition(2, 1, 2),))
    t = kernel_coset_table(p, a)
    assert t.coset_count == 2
    sub = reidemeister_schreier(p, t)
    assert group_order(coset_enumeration(simplify_presentation(sub), (), 100)) == 1


def test_kernel_table_t4(t4, t4_presentation):
    t = kernel_coset_table(t4_presentation, plane_transposition_map(t4))
    assert t.coset_count == 24


def test_kernel_table_dt4(dt4, dt4_presentation):
    t = kernel_coset_table(dt4_presentation, plane_transposition_map(dt4))
    assert t.coset_count == 720


def test_kernel_table_rejects_non_homomorphism():
    p = GroupPresentation.make(("a",), [(1, 1, 1)])
    a = SymmetricAssignment(degree=2, images=(Permutation.transposition(2, 1, 2),))
    with pytest.raises(KernelError, match="homomorphism"):
        kernel_coset_table(p, a)


def test_kernel_table_rejects_non_surjective():
    p = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2)])
    t = Permutation.transposition(3, 1, 2)
    a = SymmetricAssignment(degree=3, images=(t, t))
    with pytest.raises(KernelError, match="surjective"):
        kernel_coset_table(p, a)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


def test_free_group_index_two_has_rank_three():
    # free group on a, b; both mapped to the transposition
    p = GroupPresentation.make(("a", "b"), [])
    t = Permutation.transposition(2, 1, 2)
    a = SymmetricAssignment(degree=2, images=(t, t))
    table = kernel_coset_table(p, a)
    sub = reidemeister_schreier(p, table)
    # Nielsen-Schreier: rank = 1 + index*(rank-1) = 3; no relators survive
    assert sub.generator_count == 2 * 2 - (2 - 1) == 3
    assert sub.relators == ()


def test_schreier_generator_count_formula(t4, t4_presentation, dt4, dt4_presentation):
    for c, pres in ((t4, t4_presentation), (dt4, dt4_presentation)):
        a = plane_transposition_map(c)
        table = kernel_coset_table(pres, a)
        sub = reidemeister_schreier(pres, table)
        index = table.coset_count
        assert sub.generator_count == index * pres.generator_count - (index - 1)


def test_t4_kernel_is_trivial(t4, t4_presentation):
    a = plane_transposition_map(t4)
    table = kernel_coset_table(t4_presentation, a)
    sub = reidemeister_schreier(t4_presentation, table)
    simplified = simplify_presentation(sub)
    assert group_order(coset_enumeration(simplified, (), 10_000)) == 1


def test_dt4_kernel_is_z2_to_the_4(dt4, dt4_presentation):
    a = plane_transposition_map(dt4)
    table = kernel_coset_table(dt4_presentation, a)
    sub = reidemeister_schreier(dt4_presentation, table)
    simplified = simplify_presentation(sub)
    assert group_order(coset_enumeration(simplified, (), 100_000)) == 16
    assert abelianization(simplified, "mod2") == 4
    assert abelian_invariants(simplified) == (2, 2, 2, 2)


def test_rewritten_relators_hold_in_subgroup(t4, t4_presentation):
    # tracing each rewritten relator through the subgroup's own table
    a = plane_transposition_map(t4)
    table = kernel_coset_table(t4_presentation, a)
    sub = reidemeister_schreier(t4_presentation, table)
    sub_table = coset_enumeration(simplify_presentation(sub), (), 10_000)
    assert group_order(sub_table) == 1  # trivial group: relators hold vacuously


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)


def test_snf_zero_and_empty():
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[0, 0, 0]]) == (0,)


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

    q = lattice_quotient((1, 2, 1, 0, -1), 6)
    assert q.invariants == (1, 2, 2, 2, 2)


# ---------------------------------------------------------------------------
# abelianization


def test_abelianization_examples():
    assert abelian_invariants(GroupPresentation.make(("a",), [(1, 1)])) == (2,)
    assert abelian_invariants(
        GroupPresentation.make(("a", "b"), [(1, 2, -1, -2)])
    ) == (0, 0)
    assert abelianization(GroupPresentation.make(("a",), [(1, 1)]), "mod2") == 1


def test_abelianization_invariant_under_elimination(t4_presentation):
    q = eliminate_generator(t4_presentation, "g4", (-1, -2, -1))
    assert abelian_invariants(t4_presentation) == abelian_invariants(q)
    assert mod2_corank(t4_presentation) == mod2_corank(q)


def test_abelianization_bad_mode():
    with pytest.raises(ValueError):
        abelianization(GroupPresentation.make(("a",), []), "mod3")


# ---------------------------------------------------------------------------
# structure verdicts


def test_identify_trivial():
    assert identify_structure(1).kind == "Trivial"


def test_identify_elementary_abelian():
    v = identify_structure(16, mod2_corank=4)
    assert v.kind == "ElementaryAbelian2" and v.rank == 4
    assert v.describe() == "Z2^4"
    w = identify_structure(16, mod2_corank=4, invariant_factors=(2, 2, 2, 2))
    assert w.kind == "ElementaryAbelian2" and w.rank == 4


def test_identify_abelian_from_factors():
    v = identify_structure(8, invariant_factors=(2, 4))
    assert v.kind == "AbelianInvariantFactors"
    assert v.factors == (2, 4)
    assert v.describe() == "Z2 x Z4"


def test_identify_undetermined_cases():
    # order 8 with mod-2 co-rank 2: Z4xZ2, D4 and Q8 all qualify
    v = identify_structure(8, mod2_corank=2)
    assert v.kind == "Undetermined"
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
    t = Permutation.transposition(2, 1, 2)
    a = SymmetricAssignment(degree=2, images=(t, t))
    table = kernel_coset_table(p, a)
    sub = reidemeister_schreier(p, table)
    sub_table = coset_enumeration(sub, (), 10_000)
    assert group_order(sub_table) == 4
    for w in sub.relators:
        for c in range(sub_table.coset_count):
            assert sub_table.trace(c, w) == c
