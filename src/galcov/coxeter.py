"""Second route to the Galois-cover group: the Coxeter-type quotient.

Let G0 be the group of the presentation without its projective relator.
On the double tetrahedron G0 is the quotient group of a cycle graph:
generators are the graph edges, adjacent edges braid, disjoint edges
commute (Rowen, Teicher and Vishne, "Coxeter covers of the symmetric
groups", J. Group Theory, 2005).  That is the Coxeter group of the
m-cycle diagram, the affine symmetric group A: S_m acting on the
rank-(m-1) lattice spanned by the differences u_{i,j} = e_i - e_j, with
sigma carrying u_{i,j} to u_{sigma(i),sigma(j)}.  Its elements are
computed as affine permutations of Z in window notation (Bjorner and
Brenti, *Combinatorics of Coxeter Groups*, 2005, section 8.3): the window
(w_1, ..., w_m) of sigma * u(vec) has w_i = sigma(i) + m*vec[sigma(i)], a
product is one composition of windows, and a pure translation reads
vec_i = (w_i - i)/m.  Every product, the plan's short words and the
projective relator alike, traces each window entry through the word
(:func:`_product`), in O(m) time per letter and in memory that does not
grow with the word.

The route proves G0 isomorphic to A from the presentation alone, with no
coset table of G~:

* :func:`derive_plan` walks the plane graph to a Hamiltonian cycle whose
  generators have their squares, their neighbours' braids and the other
  pairs' commutators stated (``is_stated_along``).  Those are the Coxeter
  relations of the m-cycle diagram, so psi: A -> G0, taking generator to
  generator, is a homomorphism.
* It then gives the cycle the windows of :func:`standard_assignment` and
  each other generator (a chord) a window under which every relator
  holds in A.  So phi: G0 -> A is a homomorphism too.
* :func:`coxeter_route` enumerates the cosets of the cycle's subgroup of
  G0.  One coset means psi is onto.  phi(psi(s)) = s on A's generators,
  so psi is injective, and G0 is isomorphic to A.  Then phi is unique: the
  chord windows are the only ones possible, and each chord equals its
  plan word, whose window is the chord's.

G~ is then A modulo the normal closure of phi(proj), the projective
relator's image, which must lie inside the lattice.  Conjugation by
lattice elements is trivial on an abelian normal subgroup, so the
S_m-orbit of that one vector generates the whole normal closure, and the
kernel of the map onto S_m is the quotient of the lattice by that orbit's
span.  Two gcds of the vector's coordinates give the quotient (see
``lattice_quotient``), and it is described by its
:class:`~galcov.kernel.StructureVerdict`, as the regular action's kernel
is.

So the route needs a projective relator, and refuses a presentation
without one before it derives a plan.  ``label_cycle`` labels the cycle
by its generator ids, and the presentation rewritten over the cycle
(``CoxeterRoute.reduced``) is built only when it is read.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .enumeration import coset_enumeration
from .kernel import StructureVerdict, identify_structure
from .presentation import (
    GroupPresentation,
    SearchBound,
    Word,
    eliminate_and_rewrite,
    hamiltonian_paths,
    invert_word,
    is_stated_along,
)


class CoxeterError(Exception):
    pass


# ---------------------------------------------------------------------------
# windows of affine permutations


def _moves(window) -> tuple[int, ...]:
    """The move w_i - i of each residue class mod m under the window's
    affine permutation, indexed by residue: residue 0 is the class of m."""
    step = tuple(x - i for i, x in enumerate(window, 1))
    return step[-1:] + step[:-1]


def _product(moves, word, m) -> tuple[int, ...]:
    """Window of the left-to-right product of the word's letters, where
    ``moves`` maps each letter to the :func:`_moves` of its window.  Each
    entry 1..m is traced through the word, moving by its residue's move
    once per letter: O(m) time per letter, and memory that does not grow
    with the word, however far the product moves an integer."""
    out = []
    for y in range(1, m + 1):
        for x in word:
            y += moves[x][y % m]
        out.append(y)
    return tuple(out)


def eval_words(images, words) -> list[tuple[int, ...]]:
    """Windows of the left-to-right products of the words' letter images.

    Each image is a window, the affine permutation f of Z sending
    i + m*t to w_i + m*t.  Letter -k reads letter k, so a word names -k
    only for an involution f.  Each product is one :func:`_product`.
    """
    images = list(images)
    if not images:
        raise CoxeterError("empty assignment")
    moves = {}
    for k, w in enumerate(images, 1):
        moves[k] = moves[-k] = _moves(w)
    m = len(images[0])
    try:
        return [_product(moves, word, m) for word in words]
    except KeyError as exc:
        raise CoxeterError(f"word references unassigned generator {abs(exc.args[0])}") from None


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
    cycle, as :func:`derive_plan` finds them: the word has the chord's
    window, and equals the chord in the group.
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


def derive_plan(pres, symmetric, bound) -> tuple[tuple[int, ...], dict[int, Word], list]:
    """A Hamiltonian cycle of the plane graph, as its generators in walk
    order; each generator off it (a chord) mapped to a word over the
    cycle; and every generator's window, in id order, such that each
    relator of ``pres`` holds in the affine symmetric group A.

    The cycles close the paths of :func:`hamiltonian_paths` from plane 1
    with an involution that joins the path's two end planes, has a stated
    braid with the path's first and last generators, and a stated
    commutator with the others.  The cycle's generators take the windows
    of :func:`standard_assignment`.  A chord's image under ``symmetric``
    (the map onto S_n) transposes two planes a and b of the cycle, which
    splits into two arcs e1..ek from a to b; the shorter arc comes first,
    on a tie the one the walk reaches first, and each gives the words
    e1..ek..e1, then ek..e1..ek.  On a proper arc both words are one
    reflection of a finite parabolic subgroup of A, so a chord has at most
    two windows, each kept with its first word.

    The relators are checked in turn: those on the cycle alone once;
    those on one chord under each of its windows, which drops the windows
    they break; then those on several chords under the combinations of
    the windows left, tried lazily, the first under which they all hold
    giving the plan.  The cycle is the first that has a plan, and each
    word is evaluated once per window it meets.

    Raises :class:`~galcov.presentation.SearchBound` when the walk, or one
    cycle's combinations, pass ``bound``, and :class:`CoxeterError` when
    the walk runs out of cycles.  That the cycle's generators have index
    1, so that the group is A (see the module docstring), is for
    :func:`coxeter_route` to prove.
    """
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
                chords = {g: sorted(map(at.get, moved[g - 1])) for g in gens if g not in cycle}
                if found := _plan_on_cycle(pres, cycle, chords, bound):
                    return (cycle, *found)
    raise CoxeterError(
        "no Hamiltonian cycle of the plane graph writes every other generator "
        "as a word over the cycle"
    )


def _plan_on_cycle(pres, cycle, chords, bound) -> tuple[dict[int, Word], list] | None:
    """The plan and windows of :func:`derive_plan` on one cycle, or None.
    ``chords`` maps each chord to the cycle positions i < j of the planes
    its image moves; a chord that moves other than two has no word."""
    if any(len(ends) != 2 for ends in chords.values()):
        return None
    m = len(cycle)
    identity = tuple(range(1, m + 1))
    assignment = standard_assignment(label_cycle(pres.names, cycle))
    windows = [assignment.get(name) for name in pres.names]
    words = {}
    for g, (i, j) in chords.items():
        arcs = sorted((cycle[i:j], cycle[j:] + cycle[:i]), key=len)
        # an arc of one edge gives that edge twice
        words[g] = list(
            dict.fromkeys(w for arc in arcs for w in (arc + arc[-2::-1], arc[::-1] + arc[1:]))
        )
    moves = {}
    for g in cycle:
        moves[g] = moves[-g] = _moves(windows[g - 1])

    def hold(rels):
        return all(_product(moves, r, m) == identity for r in rels)

    alone, several, single = [], [], {g: [] for g in chords}
    for r in pres.relators:
        named = single.keys() & map(abs, r)
        if len(named) > 1:
            several.append((r, tuple(named)))
        else:
            (single[named.pop()] if named else alone).append(r)
    if not hold(alone):
        return None
    options = []
    for g, ws in words.items():
        first = {}
        for w in ws:
            first.setdefault(_product(moves, w, m), w)
        kept = []
        for window, w in first.items():
            moves[g] = moves[-g] = chord_moves = _moves(window)
            if hold(single[g]):
                kept.append((w, window, chord_moves))
        if not kept:
            return None
        options.append(kept)
    # a relator on several chords is evaluated once per windows of its own chords
    known = {}
    for tried, combination in enumerate(itertools.product(*options)):
        if tried == bound:
            raise SearchBound(f"chord windows stopped at {bound} combinations")
        chosen = dict(zip(chords, combination))
        for g, (_, _, chord_moves) in chosen.items():
            moves[g] = moves[-g] = chord_moves
        for r, named in several:
            key = (r, *(chosen[g][1] for g in named))
            if key not in known:
                known[key] = _product(moves, r, m) == identity
            if not known[key]:
                break
        else:
            for g, (_, window, _) in chosen.items():
                windows[g - 1] = window
            return {g: w for g, (w, _, _) in chosen.items()}, windows
    return None


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


def coxeter_route(pres, proj: Word | None, symmetric, bound=1_000_000) -> CoxeterRoute:
    """Run the whole route on a presentation (projective relator separate).

    Without a projective relator there is nothing to quotient by, and the
    route stops before it derives a plan.  ``symmetric`` (the map onto
    S_n) and ``bound`` derive the plan, as :func:`derive_plan` describes.
    Then one enumeration of the cosets of the cycle's generators in the
    group of ``pres``, within ``bound`` cosets, must close on one coset:
    the group is then the affine symmetric group A.  It runs only after
    every relator holds in A, as on a cycle that fails there the cycle's
    subgroup may have infinite index.  The projective relator is
    evaluated last, alone, under the plan's windows, and must be a
    translation of the lattice.

    Returns an unsupported result, with a reason, whenever the input falls
    outside the one-cycle construction.  Raises
    :class:`~galcov.presentation.SearchBound` or
    :class:`~galcov.enumeration.EnumerationOverflow` when a search or the
    enumeration passes ``bound``.
    """
    try:
        if proj is None:
            raise CoxeterError("no projective relator to quotient by")
        cycle, plan, windows = derive_plan(pres, symmetric, bound)
        index = coset_enumeration(pres, [(g,) for g in cycle], bound).coset_count
        if index != 1:
            raise CoxeterError(f"the cycle's generators have index {index} in the group, not 1")
        (element,) = eval_words(windows, [proj])
        m = len(cycle)
        if any((x - i) % m for i, x in enumerate(element, 1)):
            raise CoxeterError(
                "projective relator has a non-identity permutation part; "
                "its normal closure is not a lattice"
            )
    except CoxeterError as exc:
        return CoxeterRoute(supported=False, reason=str(exc))
    # a pure translation: its window reads vec_i = (w_i - i)/m
    vec = tuple((x - i) // m for i, x in enumerate(element, 1))
    graph = label_cycle(pres.names, cycle)
    return CoxeterRoute(
        supported=True,
        presentation=pres,
        plan=plan,
        graph=graph,
        assignment=standard_assignment(graph),
        proj_vector=vec,
        proj_u_coords=u_basis_coords(vec),
        quotient=lattice_quotient(vec),
    )
