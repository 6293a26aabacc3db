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
translation reads vec_i = (w_i - i)/n.

The projective relator then lands inside the lattice, and the kernel of
the map onto S_n becomes the quotient of the lattice by the sublattice
generated by the S_n-orbit of that one vector -- conjugation by lattice
elements is trivial on an abelian normal subgroup, so the orbit generates
the whole normal closure.  Smith normal form of n rows spanning the
orbit's lattice (see ``lattice_quotient``) finishes the computation.

So the route needs a projective relator, and refuses a presentation
without one before it reduces anything.  The Tietze reduction follows a
stated plan, each of whose relations is checked against a coset table of
the group first, or else makes the eliminations the relators state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import StructureVerdict, identify_structure, smith_normal_form
from .presentation import (
    GroupPresentation,
    Word,
    canonical_key,
    commutator_word,
    eliminate_and_rewrite,
    eliminate_in_turn,
    parse_word,
    relation_holds,
    solve_relator,
    triple_word,
)


class CoxeterError(Exception):
    pass


# ---------------------------------------------------------------------------
# windows of affine permutations


def eval_word(images, word) -> tuple[int, ...]:
    """Window of the left-to-right product of a word's letter images.

    Each image is a window, the affine permutation of Z sending i + m*t
    to w_i + m*t.  Every image of the standard assignment is an
    involution, so a letter and its inverse share one window.
    """
    images = list(images)
    if not images:
        raise CoxeterError("empty assignment")
    m = len(images[0])
    acc = tuple(range(1, m + 1))
    for x in word:
        k = abs(x)
        if not 1 <= k <= len(images):
            raise CoxeterError(f"word references unassigned generator {k}")
        w = images[k - 1]
        # the entry y = j + m*t goes to w_j + m*t
        acc = tuple(w[(y - 1) % m] + (y - 1) // m * m for y in acc)
    return acc


# ---------------------------------------------------------------------------
# graphs and the standard assignment


@dataclass(frozen=True)
class CoxeterGraph:
    """The m-cycle that ``recognize_cycle`` reads off a presentation: edge
    k is (k, k+1) for k < m and edge m is (1, m); the first m-1 edges
    form the tree, and the last one is the non-tree edge."""

    vertex_count: int
    edges: tuple[tuple[str, tuple[int, int]], ...]  # (label, (i, j)), i < j


def standard_assignment(graph: CoxeterGraph) -> dict[str, tuple[int, ...]]:
    """Windows of the edge generators' images in the semidirect product.

    Tree edge (i, j) maps to the transposition (i j); the last edge, the
    non-tree edge (i, j), maps to (i j) times u_{i,j}, whose window
    sends i to j - m and j to i + m.  ``graph`` is a cycle as
    ``recognize_cycle`` builds it.
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


@dataclass(frozen=True)
class LatticeQuotient:
    """Invariant factors of Z^{n-1} modulo the orbit lattice."""

    invariants: tuple[int, ...]
    order: int | None  # None when the quotient is infinite

    def describe(self) -> str:
        nontrivial = [d for d in self.invariants if d > 1]
        free = sum(1 for d in self.invariants if d == 0)
        parts = []
        if nontrivial:
            if all(d == 2 for d in nontrivial):
                parts.append(f"Z2^{len(nontrivial)}" if len(nontrivial) > 1 else "Z2")
            else:
                parts.append(" x ".join(f"Z{d}" for d in nontrivial))
        if free:
            parts.append(f"Z^{free}" if free > 1 else "Z")
        return " x ".join(parts) if parts else "trivial"

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
    v with g times the u-basis (u_{1,2}, ..., u_{n-1,n}) spans the
    sublattice cut out by the normal closure, without listing the n!
    orbit; its Smith normal form gives the quotient.
    """
    n = len(vec)
    if not any(vec):
        return LatticeQuotient(invariants=(0,) * (n - 1), order=None)
    g = math.gcd(*(x - vec[0] for x in vec))
    rows = [u_basis_coords(vec)] + [
        tuple(g if j == i else 0 for j in range(n - 1)) for i in range(n - 1)
    ]
    diag = smith_normal_form(rows)
    invariants = tuple(diag[: n - 1]) + (0,) * max(0, n - 1 - len(diag))
    order = None
    if all(d > 0 for d in invariants):
        order = 1
        for d in invariants:
            order *= d
    return LatticeQuotient(invariants=invariants, order=order)


# ---------------------------------------------------------------------------
# the full route: reduce, recognize the cycle, evaluate, quotient


@dataclass(frozen=True)
class CoxeterRoute:
    """Everything the Coxeter-quotient route produced, or why it could not run."""

    supported: bool
    reason: str | None = None
    reduced: GroupPresentation | None = None
    graph: CoxeterGraph | None = None
    assignment: dict[str, tuple[int, ...]] | None = None
    proj_vector: tuple[int, ...] | None = None
    proj_u_coords: tuple[int, ...] | None = None
    quotient: LatticeQuotient | None = None

    def verdict(self) -> StructureVerdict | None:
        return self.quotient.verdict() if self.quotient is not None else None


def _generator_number(name: str):
    return int(name[1:]) if name.startswith("g") and name[1:].isdigit() else None


def _auto_plan_step(pres):
    """The elimination of the largest generator having a relator in which
    it occurs exactly once, as :func:`solve_relator` maps it; None when no
    such generator exists."""
    for gen in range(pres.generator_count, 0, -1):
        for r in pres.relators:
            positions = [t for t, x in enumerate(r) if abs(x) == gen]
            if len(positions) == 1:
                return solve_relator(r, positions[0])
    return None


def reduce_presentation(pres, proj: Word | None, plan=None, table=None, symmetric=None):
    """Apply the elimination plan (or auto-derived syntactic eliminations)
    to the presentation, rewriting the projective relator along.

    Every planned relation is checked by :func:`relation_holds` against
    ``table`` (a closed coset table of the presentation together with the
    projective relator, over a subgroup that meets the kernel of
    ``symmetric`` trivially) and ``symmetric`` (the map onto S_n), before
    the first elimination; a plan without a table is refused.
    """
    companions = (proj,) if proj is not None else ()

    if plan:
        if table is None:
            raise CoxeterError("no coset table is available to verify the plan relations")
        # plan words refer to the original generator names; verify all
        # relations against the original table before any renumbering
        words = []
        for name, word_text in plan:
            gen = pres.id_of(name)
            w = parse_word(word_text, pres.names)
            if any(abs(x) == gen for x in w):
                raise CoxeterError(f"plan word for {name} mentions {name}")
            if not relation_holds(gen, w, table, symmetric):
                raise CoxeterError(
                    f"plan relation {name} = {word_text} does not hold in the group"
                )
            words.append(w)
        pres, companions = eliminate_in_turn(
            pres, [name for name, _ in plan], words, companions
        )
    else:
        while (image := _auto_plan_step(pres)) is not None:
            pres, companions = eliminate_and_rewrite(pres, image, companions)

    proj_out = companions[0] if companions else None
    return pres, proj_out


def recognize_cycle(pres) -> CoxeterGraph:
    """Read the braid/commutator structure off the relators and build the
    cycle graph with its canonical labeling.

    Every generator must braid with exactly two others, the braid pairs
    must close into a single cycle through all generators, and every
    remaining pair must commute.  Vertex labels start the walk at the
    highest-numbered generator, toward its higher-numbered braid partner.
    """
    m = pres.generator_count
    if m < 3:
        raise CoxeterError("fewer than three generators; no cycle structure")
    keys = {canonical_key(r) for r in pres.relators}
    braid = {g: set() for g in range(1, m + 1)}
    for i in range(1, m + 1):
        if canonical_key((i, i)) not in keys:
            raise CoxeterError(f"generator {pres.names[i - 1]} has no square relator")
        for j in range(i + 1, m + 1):
            has_triple = canonical_key(triple_word(i, j)) in keys
            has_comm = canonical_key(commutator_word(i, j)) in keys
            if has_triple:
                braid[i].add(j)
                braid[j].add(i)
            elif not has_comm:
                raise CoxeterError(
                    f"pair ({pres.names[i - 1]}, {pres.names[j - 1]}) neither "
                    "braids nor commutes; not a cycle quotient presentation"
                )
    for g, partners in braid.items():
        if len(partners) != 2:
            raise CoxeterError(
                f"generator {pres.names[g - 1]} braids with {len(partners)} others; "
                "the braid structure is not a single cycle (t=1 required)"
            )

    numbers = {}
    for g in range(1, m + 1):
        num = _generator_number(pres.names[g - 1])
        numbers[g] = num if num is not None else g

    start = max(range(1, m + 1), key=lambda g: numbers[g])
    nxt = max(braid[start], key=lambda g: numbers[g])
    sequence = [start, nxt]
    while True:
        prev, cur = sequence[-2], sequence[-1]
        following = next(x for x in braid[cur] if x != prev)
        if following == start:
            break
        sequence.append(following)
    if len(sequence) != m:
        raise CoxeterError("braid cycle does not pass through every generator")

    edges = []
    for pos, g in enumerate(sequence):
        if pos < m - 1:
            pair = (pos + 1, pos + 2)
        else:
            pair = (1, m)
        edges.append((pres.names[g - 1], pair))
    return CoxeterGraph(vertex_count=m, edges=tuple(edges))


def coxeter_route(
    pres, proj: Word | None, plan=None, table=None, symmetric=None
) -> CoxeterRoute:
    """Run the whole route on a presentation (projective relator separate).

    Without a projective relator there is nothing to quotient by, and the
    route stops before it reduces anything.  ``table`` and ``symmetric``
    (the map onto S_n) check the plan, as :func:`reduce_presentation`
    describes.  Returns an unsupported result, with a reason, whenever the
    input falls outside the implemented one-cycle construction.
    """
    try:
        if proj is None:
            raise CoxeterError("no projective relator to quotient by")
        reduced, proj_reduced = reduce_presentation(pres, proj, plan, table, symmetric)
        graph = recognize_cycle(reduced)
        assignment = standard_assignment(graph)
        images = [assignment[name] for name in reduced.names]
        m = graph.vertex_count
        if any(eval_word(images, r) != tuple(range(1, m + 1)) for r in reduced.relators):
            raise CoxeterError("assignment fails to satisfy the reduced relators")
        element = eval_word(images, proj_reduced)
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
        reduced=reduced,
        graph=graph,
        assignment=assignment,
        proj_vector=vec,
        proj_u_coords=u_basis_coords(vec),
        quotient=lattice_quotient(vec),
    )
