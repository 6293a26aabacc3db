"""Permutations of {1..n} as image tuples, the plane-transposition map, and
group orders.

Each edge generator maps to the transposition of its two planes, so the
image in S_n is generated by transpositions; its order comes from the
connected components of the plane graph those transpositions span, as
:func:`galcov.complexes.plane_components` finds them.  An assignment
builds the image tuple of each signed generator once
(:attr:`SymmetricAssignment.letters`), and every word evaluation in S_n
reads them through :func:`_evaluate`: one ``itemgetter`` lookup per letter.
The kernel composes a coset table's columns with it, and builds the n!-row
kernel table on padded tuples too.  An assignment also builds the
plane pair of each generator once (:attr:`SymmetricAssignment.moved`),
and the image order and the plane-graph walks read that.

Composition convention, fixed once and used everywhere: the image of a
word pq sends x to q(p(x)), i.e. the left factor acts first.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .complexes import plane_components


class SymmetricAssignment:
    """Images of the presentation generators in a symmetric group.

    ``images[k-1]`` is generator k's image as a tuple whose (x-1)-th entry
    is the image of x; each must be a permutation of 1..degree.
    ``letters`` holds the image tuple s of each signed generator +-k: s[x]
    is the image of x, and the pad s[0] = 0 lets :func:`_evaluate` run on
    tuples.  ``moved[k-1]`` holds the points that generator k's image
    moves, ascending: a transposition's two planes, () for the identity.
    """

    __slots__ = ("degree", "images", "letters", "moved")

    def __init__(self, degree: int, images: tuple[tuple[int, ...], ...]):
        points = list(range(1, degree + 1))
        if bad := [g for g in images if sorted(g) != points]:
            raise ValueError(f"not a permutation of 1..{degree}: {bad[0]}")
        self.degree = degree
        self.images = images
        self.moved = tuple(tuple(x for x, y in enumerate(g, 1) if x != y) for g in images)
        self.letters: dict[int, tuple[int, ...]] = {}
        for k, g in enumerate(images, 1):
            s = (0,) + g
            inverse = [0] * len(s)
            for x, y in enumerate(s):
                inverse[y] = x
            self.letters[k], self.letters[-k] = s, tuple(inverse)


def plane_transposition_map(c) -> SymmetricAssignment:
    """Send the generator of each edge to the transposition of its planes."""
    n = c.plane_count
    images = []
    for e in sorted(c.edges, key=lambda e: e.id):
        i, j = e.planes
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"bad transposition ({i} {j}) on 1..{n}")
        image = list(range(1, n + 1))
        image[i - 1], image[j - 1] = j, i
        images.append(tuple(image))
    return SymmetricAssignment(degree=n, images=tuple(images))


def _evaluate(letters, word, degree) -> tuple[int, ...]:
    """(0, w(1), ..., w(n)) for the word w, its left letter acting first.
    itemgetter(*acc)(s) is tuple(s[y] for y in acc), a tuple as acc is padded,
    or whenever degree >= 1: any permutations of 0..degree compose alike."""
    acc = tuple(range(degree + 1))
    for x in word:
        acc = itemgetter(*acc)(letters[x])
    return acc


def verify_homomorphism(pres, a: SymmetricAssignment) -> tuple[int, ...]:
    """Indices of the relators that do not map to the identity permutation;
    the assignment is a homomorphism when there are none."""
    if len(a.images) < pres.generator_count:
        raise ValueError("assignment does not cover all generators")
    identity = tuple(range(a.degree + 1))
    return tuple(
        i for i, w in enumerate(pres.relators) if _evaluate(a.letters, w, a.degree) != identity
    )


def permutation_group_order(moved) -> int:
    """Order of the group generated by transpositions (identities allowed),
    given as the points each one moves (:attr:`SymmetricAssignment.moved`).

    Transpositions generate the full symmetric group on each connected
    component of the graph whose edges they are, so the order is the
    product of the factorials of the component sizes.  A permutation
    moving more than two points raises ``ValueError``.
    """
    pairs = [ps for ps in moved if ps]
    if bad := [ps for ps in pairs if len(ps) > 2]:
        raise ValueError(f"not a transposition: it moves {bad[0]}")
    return math.prod(math.factorial(len(ps)) for ps in plane_components(pairs))
