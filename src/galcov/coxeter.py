"""Second route to the Galois-cover group: the Coxeter-type quotient.

After Tietze reduction, the group of the double tetrahedron (minus its
projective relator) is the quotient group of a cycle graph: generators
are the graph edges, adjacent edges braid, disjoint edges commute.  For a
graph with one independent cycle that quotient is S_n acting on the
rank-(n-1) lattice spanned by the differences u_{i,j} = e_i - e_j, with
sigma carrying u_{i,j} to u_{sigma(i),sigma(j)} (Rowen, Teicher and
Vishne, "Coxeter covers of the symmetric groups", J. Group Theory, 2005).

That semidirect product is the affine symmetric group, so its elements
are computed as affine permutations of Z in window notation (Bjorner
and Brenti, *Combinatorics of Coxeter Groups*, 2005, section 8.3): the
window (w_1, ..., w_n) of sigma * u(vec) has w_i = sigma(i) +
n*vec[sigma(i)], a product is one composition of windows, and a pure
translation reads vec_i = (w_i - i)/n.  ``eval_words`` evaluates every
word of the route in one batch.

The projective relator then lands inside the lattice, and the kernel of
the map onto S_n becomes the quotient of the lattice by the sublattice
generated by the S_n-orbit of that one vector -- conjugation by lattice
elements is trivial on an abelian normal subgroup, so the orbit generates
the whole normal closure.  Two gcds of that vector's coordinates give
the quotient (see ``lattice_quotient``), and it is described by its
:class:`~galcov.kernel.StructureVerdict`, as the regular action's kernel
is.

So the route needs a projective relator, and refuses a presentation
without one before it derives a plan.  The generators it keeps are the
lines of a Hamiltonian cycle of the plane graph whose relators state that
cycle's quotient: every other line (a chord) is eliminated by a
conjugate word along one arc of the cycle, each relation checked on a
coset table of the group first (see ``derive_plan``), and ``label_cycle``
labels the cycle by its generator ids.  The route checks the relators as
written: each chord's window is its plan word's, so a relator's value is
that of its rewrite over the cycle, and the rewritten presentation
(``CoxeterRoute.reduced``) is built only when it is read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .kernel import StructureVerdict, identify_structure
from .permutations import _evaluate
from .presentation import (
    GroupPresentation,
    Word,
    eliminate_and_rewrite,
    hamiltonian_paths,
    invert_word,
    is_stated_along,
    relation_holds,
)


class CoxeterError(Exception):
    pass


# ---------------------------------------------------------------------------
# windows of affine permutations


def eval_words(images, words) -> list[tuple[int, ...]]:
    """Windows of the left-to-right products of the words' letter images.

    Each image is a window, the affine permutation f of Z sending i + m*t
    to w_i + m*t, which moves no integer by more than d = max|w_i - i|.
    Letter -k reads letter k, so a word names -k only for an involution
    f.  A word whose letters move by at most d_1, ..., d_L keeps the
    entries 0, 1, ..., m inside [-D, m + D] with D = d_1 + ... + d_L.  So
    with D the largest such sum over the words, each image becomes the
    tuple s of f on that interval (s[y] = f(y), a negative y read from the
    end), and a letter is one lookup of :func:`permutations._evaluate`,
    where entry 0 is the pad.
    """
    images = list(images)
    if not images:
        raise CoxeterError("empty assignment")
    m = len(images[0])
    shifts = {}
    for k, w in enumerate(images, 1):
        shifts[k] = shifts[-k] = max(abs(x - i) for i, x in enumerate(w, 1))
    try:
        t = max((sum(map(shifts.__getitem__, w)) for w in words), default=0) // m + 1
    except KeyError as exc:
        raise CoxeterError(f"word references unassigned generator {abs(exc.args[0])}") from None
    letters = {}
    for k, w in enumerate(images, 1):
        # f(1 - t*m), ..., f(m + t*m), rotated to start at f(0)
        line = [x + m * s for s in range(-t, t + 1) for x in w]
        letters[k] = letters[-k] = tuple(line[t * m - 1 :] + line[: t * m - 1])
    return [_evaluate(letters, w, m)[1:] for w in words]


# ---------------------------------------------------------------------------
# graphs and the standard assignment


class CoxeterGraph(NamedTuple):
    """The m-cycle of generators that ``derive_plan`` walks, as
    ``label_cycle`` labels it: edge k is (k, k+1) for k < m and edge m is
    (1, m); the first m-1 edges form the tree, and the last one is the
    non-tree edge."""

    vertex_count: int
    edges: tuple[tuple[str, tuple[int, int]], ...]  # (label, (i, j)), i < j


def standard_assignment(graph: CoxeterGraph) -> dict[str, tuple[int, ...]]:
    """Windows of the edge generators' images in the semidirect product.

    Tree edge (i, j) maps to the transposition (i j); the last edge, the
    non-tree edge (i, j), maps to (i j) times u_{i,j}, whose window
    sends i to j - m and j to i + m.  ``graph`` is a cycle as
    ``label_cycle`` builds it.
    """
    m = graph.vertex_count
    out = {}
    for label, (i, j) in graph.edges:
        shift = m if label == graph.edges[-1][0] else 0
        w = list(range(1, m + 1))
        w[i - 1], w[j - 1] = j - shift, i + shift
        out[label] = tuple(w)
    return out


# ---------------------------------------------------------------------------
# the lattice quotient


def u_basis_coords(vec) -> tuple[int, ...]:
    """Coordinates of a sum-zero vector in the basis u_{k,k+1} = e_k - e_{k+1}."""
    if sum(vec) != 0:
        raise CoxeterError("vector has nonzero coordinate sum")
    coords = []
    acc = 0
    for v in vec[:-1]:
        acc += v
        coords.append(acc)
    return tuple(coords)


class LatticeQuotient(NamedTuple):
    """Invariant factors of Z^{n-1} modulo the orbit lattice."""

    invariants: tuple[int, ...]
    order: int | None  # None when the quotient is infinite

    def verdict(self) -> StructureVerdict:
        nontrivial = tuple(d for d in self.invariants if d > 1)
        if self.order is None:
            free = sum(1 for d in self.invariants if d == 0)
            return StructureVerdict(
                kind="AbelianInvariantFactors",
                factors=nontrivial + (0,) * free,
                order=None,
            )
        return identify_structure(self.order, invariant_factors=nontrivial)


def lattice_quotient(vec) -> LatticeQuotient:
    """Quotient of the sum-zero lattice by the S_n-orbit of one vector.

    ``vec`` is v in e-coordinates, n of them summing to zero.  The orbit
    of v under coordinate permutations generates Z.v + g.L, where L is
    the sum-zero lattice and g the gcd of the differences v_a - v_b: each
    sigma.v - v lies in g.L, and for w in the orbit w - (a b).w =
    (w_a - w_b) u_{a,b}, where w_a - w_b runs over every difference.  So
    the quotient is (Z/g)^(n-1), in the u-basis (u_{1,2}, ...,
    u_{n-1,n}), modulo v, without listing the n! orbit.  Every v_k is v_1
    mod g, so v is v_1.(1, 2, ..., n-1) there, a multiple of a basis
    vector, and the quotient is Z/d x (Z/g)^(n-2) with d = gcd(g, v_1).
    """
    n = len(vec)
    if not any(vec):
        return LatticeQuotient(invariants=(0,) * (n - 1), order=None)
    g = math.gcd(*(x - vec[0] for x in vec))
    d = math.gcd(g, vec[0])
    return LatticeQuotient(invariants=(d,) + (g,) * (n - 2), order=d * g ** (n - 2))


# ---------------------------------------------------------------------------
# the full route: walk the cycle, reduce, evaluate, quotient


class CoxeterRoute(NamedTuple):
    """Everything the Coxeter-quotient route produced, or why it could not run.

    ``presentation`` is the route's input (projective relator separate)
    and ``plan`` maps each chord's generator id to its word over the
    cycle, as :func:`derive_plan` finds them.
    """

    supported: bool
    reason: str | None = None
    presentation: GroupPresentation | None = None
    plan: dict[int, Word] | None = None
    graph: CoxeterGraph | None = None
    assignment: dict[str, tuple[int, ...]] | None = None
    proj_vector: tuple[int, ...] | None = None
    proj_u_coords: tuple[int, ...] | None = None
    quotient: LatticeQuotient | None = None

    @property
    def reduced(self) -> GroupPresentation | None:
        """The presentation over the cycle's generators: each chord
        eliminated by its plan word in one :func:`eliminate_and_rewrite`
        pass, built on each read.  Its relators state the cycle's
        quotient, as that pass rewrites only chord letters."""
        if self.presentation is None:
            return None
        image = {**self.plan, **{-g: invert_word(w) for g, w in self.plan.items()}}
        return eliminate_and_rewrite(self.presentation, image, ())[0]

    def verdict(self) -> StructureVerdict | None:
        return self.quotient.verdict() if self.quotient is not None else None


def _chord_word(g, cycle, ends, table, symmetric) -> Word | None:
    """The first word over ``cycle`` that equals the chord g in the group,
    or None.  ``ends`` are the cycle positions i < j of the planes that
    g's image moves; None also when it moves other than two."""
    if len(ends) != 2:
        return None
    i, j = ends
    arcs = sorted((cycle[i:j], cycle[j:] + cycle[:i]), key=len)
    words = (w for arc in arcs for w in (arc + arc[-2::-1], arc[::-1] + arc[1:]))
    return next((w for w in words if relation_holds(g, w, table, symmetric)), None)


def derive_plan(pres, table, symmetric, bound) -> tuple[tuple[int, ...], dict[int, Word]]:
    """A Hamiltonian cycle of the plane graph whose generators state the
    quotient of that cycle, as its generators in walk order, and each
    generator off it (a chord) mapped to a word over the cycle that equals
    it in the group.

    The cycles close the paths of :func:`hamiltonian_paths` from plane 1,
    within ``bound`` partial paths, with an involution that joins the
    path's two end planes, has a stated braid with the path's first and
    last generators, and a stated commutator with the others.  A chord's
    image transposes two planes a and b of the cycle, which splits into
    two arcs e1..ek from a to b; the shorter arc comes first, on a tie the
    one the walk reaches first, and each gives the positive words
    e1..ek..e1, then ek..e1..ek.  A word is accepted when
    :func:`relation_holds` proves it on ``table`` (a closed coset table of
    the group with its projective relator, over a subgroup that meets the
    kernel of ``symmetric``, the map onto S_n, trivially).  The cycle is
    the first whose every chord has a word.
    """
    if table is None:
        raise CoxeterError("no coset table is available to verify the plan relations")
    gens = range(1, pres.generator_count + 1)
    relators = set(pres.relators)
    involutions = sorted(pres.involutions())
    moved = symmetric.moved
    for path, planes in hamiltonian_paths(pres, symmetric, (1,), bound):
        at = {p: k for k, p in enumerate(planes)}
        ends = path[:1] + path[-1:]
        for last in involutions:
            if (
                len(path) > 1
                and moved[last - 1] == (1, planes[-1])
                and is_stated_along(relators, path, last, ends)
            ):
                cycle = path + (last,)
                plan = {
                    g: _chord_word(g, cycle, sorted(map(at.get, moved[g - 1])), table, symmetric)
                    for g in gens
                    if g not in cycle
                }
                if None not in plan.values():
                    return cycle, plan
    raise CoxeterError(
        f"no Hamiltonian cycle of the plane graph within {bound} partial paths "
        "writes every other generator as a word over the cycle"
    )


def label_cycle(names, cycle) -> CoxeterGraph:
    """Label ``cycle``, generator ids in walk order, as a
    :class:`CoxeterGraph`: vertex 1 starts it at the highest id, toward
    that generator's higher-numbered neighbour, and ``names`` name the
    generators."""
    m = len(cycle)
    k = cycle.index(max(cycle))
    ring = cycle[k:] + cycle[:k]
    if ring[-1] > ring[1]:
        ring = ring[:1] + ring[:0:-1]
    edges = tuple(
        (names[g - 1], (pos + 1, pos + 2) if pos < m - 1 else (1, m))
        for pos, g in enumerate(ring)
    )
    return CoxeterGraph(vertex_count=m, edges=edges)


def coxeter_route(
    pres, proj: Word | None, table=None, symmetric=None, bound=1_000_000
) -> CoxeterRoute:
    """Run the whole route on a presentation (projective relator separate).

    Without a projective relator there is nothing to quotient by, and the
    route stops before it derives a plan.  ``table``, ``symmetric`` (the
    map onto S_n) and ``bound`` derive and check the plan, as
    :func:`derive_plan` describes.  Returns an unsupported result, with a
    reason, whenever the input falls outside the one-cycle construction.

    The cycle's generators take the windows of
    :func:`standard_assignment`, each chord the window of its plan word
    (one :func:`eval_words` batch, none without a chord), and the
    relators and the projective relator are evaluated as written in a
    second batch.  Evaluation is a homomorphism of the free group, so
    substituting the plan words, free reduction and dedupe change no
    relator's value: the relators hold exactly when the reduced ones do,
    and the projective relator has its rewrite's value.  Each plan word
    is a palindrome of involutions, so each chord's window is an
    involution too, and :func:`eval_words` may read letter -k as letter k.
    """
    try:
        if proj is None:
            raise CoxeterError("no projective relator to quotient by")
        cycle, plan = derive_plan(pres, table, symmetric, bound)
        graph = label_cycle(pres.names, cycle)
        assignment = standard_assignment(graph)
        m = graph.vertex_count
        identity = tuple(range(1, m + 1))
        # each chord reads the identity until its plan word, over the cycle only, is evaluated
        windows = [assignment.get(name, identity) for name in pres.names]
        if plan:
            for g, w in zip(plan, eval_words(windows, tuple(plan.values()))):
                windows[g - 1] = w
        *values, element = eval_words(windows, pres.relators + (proj,))
        if any(v != identity for v in values):
            raise CoxeterError("assignment fails to satisfy the reduced relators")
        if any((x - i) % m for i, x in enumerate(element, 1)):
            raise CoxeterError(
                "projective relator has a non-identity permutation part; "
                "its normal closure is not a lattice"
            )
    except CoxeterError as exc:
        return CoxeterRoute(supported=False, reason=str(exc))
    # a pure translation: its window reads vec_i = (w_i - i)/m
    vec = tuple((x - i) // m for i, x in enumerate(element, 1))
    return CoxeterRoute(
        supported=True,
        presentation=pres,
        plan=plan,
        graph=graph,
        assignment=assignment,
        proj_vector=vec,
        proj_u_coords=u_basis_coords(vec),
        quotient=lattice_quotient(vec),
    )
