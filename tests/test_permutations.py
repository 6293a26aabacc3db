import math
import random

import pytest

from galcov.permutations import (
    Permutation,
    SymmetricAssignment,
    permutation_group_order,
    plane_transposition_map,
    verify_homomorphism,
    word_image,
)
from galcov.presentation import GroupPresentation

from .conftest import (
    compose,
    cycles,
    invert,
    mulclose,
    random_permutation,
    word_permutation,
)


def test_not_a_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_equal_permutations_hash_equal():
    rng = random.Random(17)
    for _ in range(50):
        p = random_permutation(rng, 5)
        q = Permutation(tuple(p.images))
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert repr(p) == f"Permutation(images={p.images!r})"
    assert Permutation.identity(3) != Permutation.transposition(3, 1, 2)
    assert Permutation.identity(3) != (1, 2, 3)


def test_assignment_letters_are_built_once(t4):
    a = plane_transposition_map(t4)
    assert a.letters is a.letters
    assert a.letters[1] == (0,) + a.images[0].images


def test_composition_convention_left_factor_first():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 8)
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        x = rng.randint(1, n)
        assert compose(p, q).images[x - 1] == q.images[p.images[x - 1] - 1]


def test_inverse_and_identity():
    rng = random.Random(13)
    for _ in range(50):
        p = random_permutation(rng, 6)
        assert compose(p, invert(p)).is_identity()
        assert compose(invert(p), p).is_identity()


def test_plane_transposition_map_t4(t4):
    a = plane_transposition_map(t4)
    assert a.degree == 4
    assert a.images[0] == Permutation.transposition(4, 1, 3)
    assert a.images[1] == Permutation.transposition(4, 1, 2)
    for g in a.images:
        assert compose(g, g).is_identity()


def test_plane_transposition_map_dt4(dt4):
    a = plane_transposition_map(dt4)
    assert a.images[8] == Permutation.transposition(6, 4, 5)


def test_branch_relator_maps_to_identity(t4, t4_presentation):
    a = plane_transposition_map(t4)
    # g4 g1 g2 g1 -> (2 3)(1 3)(1 2)(1 3) = identity
    assert word_image(a, (4, 1, 2, 1)).is_identity()


def test_branch_relator_maps_to_identity_dt4(dt4):
    a = plane_transposition_map(dt4)
    # g7 g1 g4 g1 -> (1 3)(1 2)(2 3)(1 2) = identity
    assert word_image(a, (7, 1, 4, 1)).is_identity()


def test_verify_homomorphism_builtin(t4, t4_presentation, dt4, dt4_presentation):
    assert verify_homomorphism(t4_presentation, plane_transposition_map(t4)).holds
    assert verify_homomorphism(dt4_presentation, plane_transposition_map(dt4)).holds


def test_verify_homomorphism_reports_failures(t4_presentation):
    # sending everything to a 3-cycle breaks the squares
    bad = SymmetricAssignment(
        degree=3, images=(Permutation((2, 3, 1)),) * 6
    )
    report = verify_homomorphism(t4_presentation, bad)
    assert not report.holds
    assert report.failures


def test_identity_assignment_satisfies_all_relators(t4_presentation):
    # design control: every relator has zero exponent sum mod images,
    # so the all-identity assignment trivially passes
    trivial = SymmetricAssignment(
        degree=4, images=(Permutation.identity(4),) * 6
    )
    assert verify_homomorphism(t4_presentation, trivial).holds


def test_word_evaluation_matches_the_permutation_product():
    # every builtin image is a transposition, its own inverse, so only
    # images of higher order tell a wrong inverse or a reversed product
    rng = random.Random(29)
    letters = [x for k in range(1, 5) for x in (k, -k)]
    holding = failing = 0
    for n in range(3, 7):
        for _ in range(15):
            images = [cycles(n, rng.sample(range(1, n + 1), k)) for k in (3, min(4, n))]
            images += [random_permutation(rng, n) for _ in range(2)]
            a = SymmetricAssignment(degree=n, images=tuple(images))
            words = [tuple(rng.choices(letters, k=rng.randint(1, 9))) for _ in range(12)]
            # a word to the power of its image's order holds; one power short
            # of it fails, unless the image is the identity
            for w in words[:6]:
                order = len(mulclose([word_permutation(a.images, w)]))
                words.append(w * rng.choice((order, order, max(1, order - 1))))
            for w in words:
                assert word_image(a, w) == word_permutation(a.images, w)
            pres = GroupPresentation(tuple(f"g{k}" for k in range(1, 5)), tuple(words))
            expected = tuple(
                i for i, w in enumerate(words) if not word_permutation(a.images, w).is_identity()
            )
            assert verify_homomorphism(pres, a).failures == expected
            holding += len(words) - len(expected)
            failing += len(expected)
    assert holding > 100 and failing > 100


def test_permutation_group_orders(t4, dt4):
    assert permutation_group_order(plane_transposition_map(t4).moved) == 24
    assert permutation_group_order(plane_transposition_map(dt4).moved) == 720
    assert permutation_group_order([()]) == 1
    assert permutation_group_order([]) == 1


def test_transposition_group_order_matches_closure_oracle():
    # random edge sets on few points repeat transpositions and leave
    # several components, some of them single points
    rng = random.Random(17)
    seen = set()
    for _ in range(200):
        n = rng.randint(2, 7)
        gens = [Permutation.identity(n)] * rng.randint(0, 1)
        for _ in range(rng.randint(1, n + 1)):
            i, j = rng.sample(range(1, n + 1), 2)
            gens.append(Permutation.transposition(n, i, j))
        rng.shuffle(gens)
        order = len(mulclose(gens))
        assert permutation_group_order(SymmetricAssignment(n, tuple(gens)).moved) == order
        if Permutation.identity(n) in gens:
            seen.add("identity")
        if len(set(gens)) < len(gens):
            seen.add("repeated")
        if order < math.factorial(n):
            seen.add("disconnected")
    assert seen == {"identity", "repeated", "disconnected"}


def test_permutation_group_order_rejects_a_three_cycle():
    a = SymmetricAssignment(3, (Permutation.transposition(3, 1, 2), Permutation((2, 3, 1))))
    with pytest.raises(ValueError, match="not a transposition"):
        permutation_group_order(a.moved)
    with pytest.raises(ValueError, match=r"not a transposition: it moves \(1, 2, 3\)"):
        permutation_group_order([(1, 2), (1, 2, 3)])


def test_assignment_moved_points():
    # moved[k-1] lists the points generator k's image moves, ascending
    a = SymmetricAssignment(4, (
        Permutation.identity(4),
        Permutation.transposition(4, 3, 1),
        Permutation((1, 4, 2, 3)),  # the 3-cycle 2 -> 4 -> 3 -> 2
    ))
    assert a.moved == ((), (1, 3), (2, 3, 4))
    assert a.moved is a.moved


def test_transpositions_generate_full_symmetric_group_on_random_complexes():
    # connected dual graph => the edge transpositions generate S_n
    import math
    import random as _random

    from galcov.complexes import validate

    from .conftest import random_valid_complex

    rng = _random.Random(271828)
    for _ in range(10):
        c = random_valid_complex(rng)
        assert validate(c).valid
        a = plane_transposition_map(c)
        assert permutation_group_order(a.moved) == math.factorial(c.plane_count)
