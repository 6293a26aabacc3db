"""The kernel of the quotient group's map onto the symmetric group.

The exact sequence 0 -> pi1 -> G -> S_n -> 0 identifies the fundamental
group of the Galois cover with the kernel of the symmetric-group map, so
everything here is about that kernel: its coset table (indexed by the n!
permutations), a presentation via Reidemeister-Schreier rewriting, its
abelian invariants via Smith normal form or GF(2) rank, and the final
structure verdict.

The rewrite knows the involution generators: an involution k gives one
Schreier generator per orbit {c, c.k} rather than one per coset, and each
closed path a relator traces is traced from one of its cosets only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .enumeration import CosetTable, _internal_columns
from .permutations import (
    SymmetricAssignment,
    permutation_group_order,
    verify_homomorphism,
)
from .presentation import GroupPresentation, _dedupe


class KernelError(Exception):
    pass


def kernel_coset_table(pres: GroupPresentation, a: SymmetricAssignment) -> CosetTable:
    """Coset table of ker(assignment) in the presented group.

    Cosets are indexed by the n! permutations in lexicographic image
    order, so coset 0 is the kernel itself; generator g acts by
    sigma -> sigma * a(g), looked up by image tuple.  Requires the
    assignment to be a relator-preserving map onto the full symmetric
    group by transpositions.
    """
    report = verify_homomorphism(pres, a)
    if not report.holds:
        raise KernelError(
            f"assignment is not a homomorphism; failing relators {report.failures}"
        )
    n = a.degree
    gens = a.images[: pres.generator_count]
    image_order = permutation_group_order(gens)
    full = math.factorial(n)
    if image_order != full:
        raise KernelError(
            f"assignment is not surjective: image order {image_order} != {n}! = {full}"
        )

    elements = list(itertools.permutations(range(1, n + 1)))
    index = {sigma: i for i, sigma in enumerate(elements)}
    columns = []
    for g in gens:
        columns += [g.images, g.inverse().images]
    rows = [
        tuple(index[tuple(h[x - 1] for x in sigma)] for h in columns)
        for sigma in elements
    ]
    return CosetTable(generator_count=pres.generator_count, rows=tuple(rows))


def _cycle_starts(word, involutions):
    """Offsets t in 1..len(word)-1 such that the relator, traced from the
    t-th coset of a closed path it traces, goes round the same path again,
    forwards (a rotation of the word equals it) or backwards (a rotation of
    its inverse does).  Involution letters count as self-inverse."""
    u = tuple(abs(x) if abs(x) in involutions else x for x in word)
    back = tuple(x if x in involutions else -x for x in reversed(u))
    n = len(u)
    return tuple(
        t
        for t in range(1, n)
        if u[t:] + u[:t] == u or back[n - t :] + back[: n - t] == u
    )


def reidemeister_schreier(
    pres: GroupPresentation, table: CosetTable, stats=None
) -> GroupPresentation:
    """Presentation of the subgroup whose coset table is given.

    Schreier generators sit on the table edges off a breadth-first
    spanning tree (columns tried g1..gm, then inverses).  An involution k
    (a generator with relator k^2) gets one per pair {c, c.k} off the
    tree, since x_{c.k,k} = x_{c,k}^-1, and one x with relator x^2 per
    fixed point c = c.k; k^2 is traced nowhere else.  Any other generator
    gets one per coset off the tree.

    Every other relator is traced once per closed path: a coset from which
    it would go round a path already traced, forwards or backwards, is
    skipped, as it would give a cyclic conjugate of a kept word or of its
    inverse.

    A ``stats`` dict receives ``schreier_generators``, ``relators_traced``,
    ``cycles_skipped``, ``relators_out`` and ``letters_out`` (the last two
    after deduplication).
    """
    m = pres.generator_count
    n = table.coset_count
    involutions = pres.involutions()
    icol, inv, public = _internal_columns(m, involutions)
    ncols = len(inv)
    size = n * ncols

    # flat tables over (coset, column), indexed by coset * ncols + column:
    # the target coset, premultiplied by ncols, and the Schreier letter
    # (0 on tree edges); ``step`` pairs them for the trace loop
    target = [0] * size
    for c, row in enumerate(table.rows):
        base = c * ncols
        for pc, col in enumerate(public):
            target[base + col] = row[pc] * ncols

    letter = [None] * size
    order = [icol[k] for k in range(1, m + 1)] + [icol[-k] for k in range(1, m + 1)]
    seen = bytearray(n)
    seen[0] = 1
    frontier = [0]
    while frontier:
        grown = []
        for base in frontier:
            for col in order:
                d = target[base + col]
                if not seen[d // ncols]:
                    seen[d // ncols] = 1
                    grown.append(d)
                    letter[base + col] = letter[d + inv[col]] = 0
        frontier = grown
    if not all(seen):
        raise KernelError("coset table is not connected")

    names = []
    for c in range(n):
        base = c * ncols
        for k in range(1, m + 1):
            col = base + icol[k]
            if letter[col] is None:
                names.append(f"x{c}_{k}" if n > 1 else f"x{k}")
                letter[col] = len(names)
                back = target[col] + inv[icol[k]]
                if letter[back] is None:
                    letter[back] = -len(names)

    step = list(zip(letter, target))
    relators = []
    traced = skipped = 0
    for w in pres.relators:
        cols = [icol[x] for x in w]
        if len(w) == 2 and w[0] == w[1] and abs(w[0]) in involutions:
            col = cols[0]
            for base in range(0, size, ncols):
                s, d = step[base + col]
                if target[d + col] != base:
                    raise KernelError("relator does not close; table is inconsistent")
                if d == base:
                    relators.append((s, s))
                    traced += 1
            continue
        starts = _cycle_starts(w, involutions)
        done = bytearray(size)  # indexed like ``step``, at column 0
        for base in range(0, size, ncols):
            if done[base]:
                skipped += 1
                continue
            d = base
            word, path = [], []
            for col in cols:
                path.append(d)
                s, d = step[d + col]
                if s:
                    if word and word[-1] == -s:
                        word.pop()
                    else:
                        word.append(s)
            if d != base:
                raise KernelError("relator does not close; table is inconsistent")
            for t in starts:
                done[path[t]] = 1
            relators.append(tuple(word))
            traced += 1
    # the words are freely reduced and their letters are in range, so of
    # what make does only the deduplication is left to do
    sub = GroupPresentation(tuple(names), tuple(_dedupe(relators)))
    if stats is not None:
        stats.update(
            schreier_generators=len(names),
            relators_traced=traced,
            cycles_skipped=skipped,
            relators_out=len(sub.relators),
            letters_out=sub.total_relator_length(),
        )
    return sub


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(rows, cols) nonnegative invariants d1 | d2 | ... with
    zeros padding any rank deficiency.
    """
    a = [list(row) for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    size = min(nrows, ncols)
    invariants = []
    t = 0
    while t < size:
        # smallest nonzero entry in the remaining block becomes the pivot
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = a[i][j]
                if v and (pivot is None or abs(v) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]

        dirty = False
        for i in range(t + 1, nrows):
            q = a[i][t] // a[t][t]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, ncols):
            q = a[t][j] // a[t][t]
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the whole remaining block
        d = a[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        invariants.append(d)
        t += 1
    invariants.extend([0] * (size - len(invariants)))
    return tuple(invariants)


def _exponent_matrix(pres: GroupPresentation):
    rows = []
    for w in pres.relators:
        row = [0] * pres.generator_count
        for x in w:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


def abelian_invariants(pres: GroupPresentation) -> tuple[int, ...]:
    """Invariant factors of the abelianization: torsion factors > 1 in
    divisibility order, then one 0 per free rank."""
    n = pres.generator_count
    matrix = _exponent_matrix(pres)
    if not matrix:
        return (0,) * n
    diag = smith_normal_form(matrix)
    rank = sum(1 for d in diag if d)
    return tuple(d for d in diag if d > 1) + (0,) * (n - rank)


def mod2_corank(pres: GroupPresentation) -> int:
    """Dimension of the elementary-abelian-2 quotient: generator count
    minus the GF(2) rank of the relator exponent matrix."""
    pivots = {}
    for w in pres.relators:
        v = 0
        for x in w:
            v ^= 1 << (abs(x) - 1)
        while v:
            low = v & -v
            if low in pivots:
                v ^= pivots[low]
            else:
                pivots[low] = v
                break
    return pres.generator_count - len(pivots)


def abelianization(pres: GroupPresentation, mode: str = "integers"):
    """Abelian invariants ('integers') or mod-2 co-rank ('mod2')."""
    if mode == "integers":
        return abelian_invariants(pres)
    if mode == "mod2":
        return mod2_corank(pres)
    raise ValueError(f"unknown abelianization mode {mode!r}")


# ---------------------------------------------------------------------------
# structure verdicts


@dataclass(frozen=True)
class StructureVerdict:
    """What the kernel is, as far as the collected evidence decides it.

    kind is one of 'Trivial', 'ElementaryAbelian2',
    'AbelianInvariantFactors', 'Undetermined'.
    """

    kind: str
    rank: int | None = None
    factors: tuple[int, ...] | None = None
    order: int | None = None
    mod2_corank: int | None = None
    note: str | None = None

    def describe(self) -> str:
        if self.kind == "Trivial":
            return "trivial"
        if self.kind == "ElementaryAbelian2":
            return f"Z2^{self.rank}"
        if self.kind == "AbelianInvariantFactors":
            return " x ".join(f"Z{d}" if d else "Z" for d in self.factors)
        detail = f"order {self.order}"
        if self.mod2_corank is not None:
            detail += f", mod-2 co-rank {self.mod2_corank}"
        if self.note:
            detail += f"; {self.note}"
        return f"undetermined ({detail})"


def _is_power_of_two(x):
    return x > 0 and x & (x - 1) == 0


def identify_structure(order, mod2_corank=None, invariant_factors=None) -> StructureVerdict:
    """Decide the kernel structure from its order and abelian evidence.

    Order 1 is trivial.  Order 2^k with mod-2 co-rank k forces the
    elementary abelian group of that rank (the abelianized quotient
    already exhausts the order).  Invariant factors whose product equals
    the order pin down an abelian group.  Anything else, including
    inconsistent evidence, stays undetermined with the evidence attached.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        return StructureVerdict(kind="Trivial", order=1, mod2_corank=mod2_corank)

    if invariant_factors is not None:
        factors = tuple(invariant_factors)
        if 0 in factors:
            return StructureVerdict(
                kind="Undetermined",
                order=order,
                mod2_corank=mod2_corank,
                factors=factors,
                note="abelianization has free rank but the order is finite",
            )
        prod = 1
        for d in factors:
            prod *= d
        if prod > order:
            return StructureVerdict(
                kind="Undetermined",
                order=order,
                mod2_corank=mod2_corank,
                factors=factors,
                note=f"inconsistent evidence: product of factors {prod} exceeds order",
            )
        if prod == order:
            if factors and all(d == 2 for d in factors):
                return StructureVerdict(
                    kind="ElementaryAbelian2",
                    rank=len(factors),
                    order=order,
                    factors=factors,
                    mod2_corank=mod2_corank,
                )
            return StructureVerdict(
                kind="AbelianInvariantFactors",
                factors=factors,
                order=order,
                mod2_corank=mod2_corank,
            )

    if mod2_corank is not None and _is_power_of_two(order):
        k = order.bit_length() - 1
        if mod2_corank == k:
            return StructureVerdict(
                kind="ElementaryAbelian2",
                rank=k,
                order=order,
                mod2_corank=mod2_corank,
                factors=(2,) * k,
            )

    return StructureVerdict(
        kind="Undetermined",
        order=order,
        mod2_corank=mod2_corank,
        factors=tuple(invariant_factors) if invariant_factors is not None else None,
    )
