import math
import random

import pytest

from galcov.permutations import (
    SymmetricAssignment,
    _evaluate,
    permutation_group_order,
    plane_transposition_map,
    verify_homomorphism,
)
from galcov.presentation import GroupPresentation

from .conftest import (
    compose,
    cycles,
    identity,
    invert,
    mulclose,
    random_permutation,
    transposition,
    word_permutation,
)


def pipeline_image(a, word):
    """The word's image under the assignment, as the pipeline evaluates it."""
    return _evaluate(a.letters, word, a.degree)[1:]


def test_assignment_rejects_images_that_are_not_permutations_of_its_degree():
    # a permutation of 1..4 in a degree-3 assignment, a degree-4
    # assignment with an image of length 2, and a repeated point
    for degree, images in (
        (3, ((1, 2, 4, 3),)),
        (4, ((1, 2, 3, 4), (2, 1))),
        (3, ((1, 1, 3),)),
    ):
        with pytest.raises(ValueError, match=f"not a permutation of 1..{degree}"):
            SymmetricAssignment(degree, images)


def test_assignment_letters_are_built_once(t4):
    a = plane_transposition_map(t4)
    assert a.letters is a.letters
    assert a.letters[1] == (0,) + a.images[0]


def test_composition_convention_left_factor_first():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 8)
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        x = rng.randint(1, n)
        assert compose(p, q)[x - 1] == q[p[x - 1] - 1]


def test_inverse_and_identity():
    rng = random.Random(13)
    for _ in range(50):
        p = random_permutation(rng, 6)
        assert compose(p, invert(p)) == identity(6)
        assert compose(invert(p), p) == identity(6)


def test_plane_transposition_map_t4(t4):
    a = plane_transposition_map(t4)
    assert a.degree == 4
    assert a.images[0] == transposition(4, 1, 3)
    assert a.images[1] == transposition(4, 1, 2)
    for g in a.images:
        assert compose(g, g) == identity(4)


def test_plane_transposition_map_dt4(dt4):
    a = plane_transposition_map(dt4)
    assert a.images[8] == transposition(6, 4, 5)


def test_branch_relator_maps_to_identity(t4, t4_presentation):
    a = plane_transposition_map(t4)
    # g4 g1 g2 g1 -> (2 3)(1 3)(1 2)(1 3) = identity
    assert pipeline_image(a, (4, 1, 2, 1)) == identity(4)


def test_branch_relator_maps_to_identity_dt4(dt4):
    a = plane_transposition_map(dt4)
    # g7 g1 g4 g1 -> (1 3)(1 2)(2 3)(1 2) = identity
    assert pipeline_image(a, (7, 1, 4, 1)) == identity(6)


def test_verify_homomorphism_builtin(t4, t4_presentation, dt4, dt4_presentation):
    assert verify_homomorphism(t4_presentation, plane_transposition_map(t4)) == ()
    assert verify_homomorphism(dt4_presentation, plane_transposition_map(dt4)) == ()


def test_verify_homomorphism_reports_failures(t4_presentation):
    # sending everything to a 3-cycle breaks the squares
    bad = SymmetricAssignment(degree=3, images=((2, 3, 1),) * 6)
    assert verify_homomorphism(t4_presentation, bad)


def test_identity_assignment_satisfies_all_relators(t4_presentation):
    # design control: every relator has zero exponent sum mod images,
    # so the all-identity assignment trivially passes
    trivial = SymmetricAssignment(degree=4, images=(identity(4),) * 6)
    assert verify_homomorphism(t4_presentation, trivial) == ()


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
                assert pipeline_image(a, w) == word_permutation(a.images, w)
            pres = GroupPresentation(tuple(f"g{k}" for k in range(1, 5)), tuple(words))
            expected = tuple(
                i for i, w in enumerate(words) if word_permutation(a.images, w) != identity(n)
            )
            assert verify_homomorphism(pres, a) == expected
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
        gens = [identity(n)] * rng.randint(0, 1)
        for _ in range(rng.randint(1, n + 1)):
            i, j = rng.sample(range(1, n + 1), 2)
            gens.append(transposition(n, i, j))
        rng.shuffle(gens)
        order = len(mulclose(gens))
        assert permutation_group_order(SymmetricAssignment(n, tuple(gens)).moved) == order
        if identity(n) in gens:
            seen.add("identity")
        if len(set(gens)) < len(gens):
            seen.add("repeated")
        if order < math.factorial(n):
            seen.add("disconnected")
    assert seen == {"identity", "repeated", "disconnected"}


def test_permutation_group_order_rejects_a_three_cycle():
    a = SymmetricAssignment(3, (transposition(3, 1, 2), (2, 3, 1)))
    with pytest.raises(ValueError, match="not a transposition"):
        permutation_group_order(a.moved)
    with pytest.raises(ValueError, match=r"not a transposition: it moves \(1, 2, 3\)"):
        permutation_group_order([(1, 2), (1, 2, 3)])


def test_assignment_moved_points():
    # moved[k-1] lists the points generator k's image moves, ascending
    a = SymmetricAssignment(4, (
        identity(4),
        transposition(4, 3, 1),
        (1, 4, 2, 3),  # the 3-cycle 2 -> 4 -> 3 -> 2
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
