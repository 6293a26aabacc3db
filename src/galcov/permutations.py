"""Permutations of {1..n}, the plane-transposition map, and group orders.

Each edge generator maps to the transposition of its two planes, so the
image in S_n is generated by transpositions; its order comes from the
connected components of the plane graph those transpositions span, as
:func:`galcov.complexes.plane_components` finds them.  An assignment
builds the image tuple of each signed generator once
(:attr:`SymmetricAssignment.letters`), and every word evaluation in S_n
reads them: one ``itemgetter`` lookup per letter.  It also builds the
plane pair of each generator once (:attr:`SymmetricAssignment.moved`),
and the image order and the plane-graph walks read that.

Composition convention, fixed once and used everywhere: the image of a
word pq sends x to q(p(x)), i.e. the left factor acts first.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .complexes import plane_components


class Permutation:
    """Bijection of {1..n}; images[i-1] is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self.images = images

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation(images={self.images!r})"

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"bad transposition ({i} {j}) on 1..{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @property
    def degree(self):
        return len(self.images)

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self.images))


class SymmetricAssignment:
    """Images of the presentation generators in a symmetric group.

    ``letters`` holds the image tuple s of each signed generator +-k: s[x]
    is the image of x, and the pad s[0] = 0 lets :func:`_evaluate` run on
    tuples.  ``moved[k-1]`` holds the points that generator k's image
    moves, ascending: a transposition's two planes, () for the identity.
    """

    __slots__ = ("degree", "images", "letters", "moved")

    def __init__(self, degree: int, images: tuple[Permutation, ...]):
        self.degree = degree
        self.images = images  # images[k-1] for generator k
        self.moved = tuple(tuple(x for x, y in enumerate(g.images, 1) if x != y) for g in images)
        self.letters: dict[int, tuple[int, ...]] = {}
        for k, g in enumerate(images, 1):
            s = (0,) + g.images
            inverse = [0] * len(s)
            for x, y in enumerate(s):
                inverse[y] = x
            self.letters[k], self.letters[-k] = s, tuple(inverse)


def plane_transposition_map(c) -> SymmetricAssignment:
    """Send the generator of each edge to the transposition of its planes."""
    n = c.plane_count
    images = []
    for e in sorted(c.edges, key=lambda e: e.id):
        a, b = e.planes
        images.append(Permutation.transposition(n, a, b))
    return SymmetricAssignment(degree=n, images=tuple(images))


def _evaluate(letters, word, degree) -> tuple[int, ...]:
    """(0, w(1), ..., w(n)) for the word w, its left letter acting first.
    itemgetter(*acc)(s) is tuple(s[y] for y in acc), a tuple as acc is padded."""
    acc = tuple(range(degree + 1))
    for x in word:
        acc = itemgetter(*acc)(letters[x])
    return acc


def word_image(a: SymmetricAssignment, word) -> Permutation:
    """Evaluate a word left-to-right under the assignment."""
    return Permutation(_evaluate(a.letters, word, a.degree)[1:])


class HomomorphismReport(NamedTuple):
    holds: bool
    failures: tuple[int, ...]  # indices into the relator list


def verify_homomorphism(pres, a: SymmetricAssignment) -> HomomorphismReport:
    """Check that every relator maps to the identity permutation."""
    if len(a.images) < pres.generator_count:
        raise ValueError("assignment does not cover all generators")
    identity = tuple(range(a.degree + 1))
    failures = tuple(
        i for i, w in enumerate(pres.relators) if _evaluate(a.letters, w, a.degree) != identity
    )
    return HomomorphismReport(holds=not failures, failures=failures)


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
