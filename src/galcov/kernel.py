"""The kernel of the quotient group's map onto the symmetric group.

The exact sequence 0 -> pi1 -> G -> S_n -> 0 identifies the fundamental
group of the Galois cover with the kernel of the symmetric-group map, so
everything here is about that kernel.  :func:`regular_kernel` decides it
from its regular action on a coset table of G over an S_n complement
of K, which has |K| rows: at most log2 |K| generators, their Schreier
graph, and the Smith normal form of the relators that the graph's edges
off a spanning tree close.
The second, independent route builds a presentation of K: its coset
table (indexed by the n! permutations), Reidemeister-Schreier rewriting,
and abelian invariants via Smith normal form or GF(2) rank.

The rewrite knows the involution generators: an involution k gives one
Schreier generator per orbit {c, c.k} rather than one per coset, and each
closed path a relator traces is traced from one of its cosets only.
"""

from __future__ import annotations

import itertools
import math
from operator import eq, itemgetter, sub
from typing import NamedTuple

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
    if failures := verify_homomorphism(pres, a):
        raise KernelError(f"assignment is not a homomorphism; failing relators {failures}")
    n = a.degree
    image_order = permutation_group_order(a.moved[: pres.generator_count])
    full = math.factorial(n)
    if image_order != full:
        raise KernelError(
            f"assignment is not surjective: image order {image_order} != {n}! = {full}"
        )

    elements = list(itertools.permutations(range(1, n + 1)))
    index = {sigma: i for i, sigma in enumerate(elements)}
    columns = [a.letters[x] for k in range(1, pres.generator_count + 1) for x in (k, -k)]
    rows = [
        tuple(index[tuple(h[x] for x in sigma)] for h in columns)
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


class StructureVerdict(NamedTuple):
    """What the kernel is, as far as the collected evidence decides it.

    kind is one of 'Trivial', 'ElementaryAbelian2',
    'AbelianInvariantFactors', 'NonAbelian' (with the orders of the
    group, its centre and its derived subgroup), 'Undetermined'.
    """

    kind: str
    rank: int | None = None
    factors: tuple[int, ...] | None = None
    order: int | None = None
    mod2_corank: int | None = None
    note: str | None = None
    centre_order: int | None = None
    derived_order: int | None = None

    def describe(self) -> str:
        if self.kind == "Trivial":
            return "trivial"
        if self.kind == "ElementaryAbelian2":
            return f"Z2^{self.rank}"
        if self.kind == "AbelianInvariantFactors":
            return " x ".join(f"Z{d}" if d else "Z" for d in self.factors)
        if self.kind == "NonAbelian":
            return (
                f"non-abelian of order {self.order} (centre {self.centre_order},"
                f" derived subgroup {self.derived_order})"
            )
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


# ---------------------------------------------------------------------------
# the kernel from its regular action


def regular_kernel(table: CosetTable, a: SymmetricAssignment, path, planes) -> StructureVerdict:
    """The kernel K of ``a`` from its regular action on a coset table.

    ``table`` is a closed coset table of G over H: the S_n complement
    that :func:`~galcov.presentation.complement_path` found along
    ``path`` through ``planes``.  H meets K trivially, so K acts
    regularly on the orbit of coset 0, which is every coset.

    The kernel element of coset c is u_c w_c: w_c is the representative
    word of c along the table's breadth-first spanning tree, and u_c the
    bubble-sort word along the path whose image is the inverse of w_c's.
    It sends coset 0 to c.  Walking the cosets in order, c's element is
    traced over them, as a permutation, whenever c lies outside the orbit
    of coset 0 under the elements taken so far; each one must at least
    double that orbit, so at most log2 |K| are taken.  Along the orbit's
    Schreier tree, left multiplication by each taken element must commute
    with every taken element, or :class:`KernelError` is raised; then
    their group has a transitive centralizer, so it is regular and is K.
    The centre is where left and right multiplication by every taken
    element agree.  Each edge off the tree closes a relator of K over the
    taken elements (Reidemeister-Schreier over the trivial subgroup), and
    the Smith normal form of the abelianized relators gives the
    invariants of K/K'.
    """
    if len(planes) != len(path) + 1:
        raise ValueError(f"a path of {len(path)} generators walks {len(path) + 1} planes")
    n = a.degree
    rows = table.rows
    # letters in column order, and each letter's column: the permutation
    # of the cosets that it acts as
    letters = [x for g in range(1, table.generator_count + 1) for x in (g, -g)]
    columns = dict(zip(letters, zip(*rows)))
    # breadth-first spanning tree: the parent coset and letter index of
    # each coset, and the image of its representative word
    spanning = _schreier_tree([columns[x] for x in letters])
    if len(spanning) != len(rows):
        raise KernelError("coset table is not connected")
    image = [tuple(range(1, n + 1))] * len(rows)
    for d, (c, s) in itertools.islice(spanning.items(), 1, None):
        image[d] = tuple(a.letters[letters[s]][y] for y in image[c])

    def word(c):
        w = []
        while c:
            c, s = spanning[c]
            w.append(letters[s])
        return w[::-1]

    pos = {p: i for i, p in enumerate(planes)}
    cosets = tuple(range(len(rows)))
    # the taken elements, as permutations of the cosets, and the Schreier
    # tree of the orbit of coset 0 under them
    gens, tree = [], {0: None}
    for c in cosets:
        if c in tree:
            continue
        # bubble-sort the path positions that the image moves back
        b = [pos[image[c][p - 1]] for p in planes]
        swaps = []
        for end in range(n - 1, 0, -1):
            for j in range(end):
                if b[j + 1] < b[j]:
                    b[j], b[j + 1] = b[j + 1], b[j]
                    swaps.append(path[j])
        # u_c w_c from every coset at once, one column per letter, as
        # permutations._evaluate does; itemgetter of one index returns no
        # tuple, but a table of one coset has no element to take
        perm = cosets
        for x in swaps[::-1] + word(c):
            perm = itemgetter(*perm)(columns[x])
        if perm[0] != c:
            raise KernelError(f"the kernel element of coset {c} does not act on the kernel")
        gens.append(perm)
        before, tree = len(tree), _schreier_tree(gens)
        # in a regular group the orbit is as large as the subgroup that the
        # taken elements generate, and the new one lies outside it
        if len(tree) < 2 * before:
            raise KernelError("the kernel permutations are not closed under product")
    return _regular_verdict(gens, tree)


def _schreier_tree(gens):
    """The breadth-first Schreier tree of the orbit of 0 under the
    permutations ``gens``: each point's parent point and generator index
    (None at 0), in the order reached."""
    tree, orbit = {0: None}, [0]
    for x in orbit:
        for s, g in enumerate(gens):
            if g[x] not in tree:
                tree[g[x]] = (x, s)
                orbit.append(g[x])
    return tree


def _regular_verdict(gens, tree):
    """Verdict on the group of the permutations ``gens``, whose orbit of
    0 has the Schreier ``tree`` and holds all their points.  Raises
    :class:`KernelError` unless the group is regular."""
    size = len(tree)
    edges = list(tree.items())[1:]
    # left multiplication by t, read along the tree: lam(0) = t(0) and
    # lam(x s) = lam(x) s
    lams = []
    for t in gens:
        lam = [t[0]] * size
        for y, (x, s) in edges:
            lam[y] = gens[s][lam[x]]
        for s in gens:
            if itemgetter(*s)(lam) != itemgetter(*lam)(s):
                raise KernelError("the kernel permutations are not closed under product")
        lams.append(lam)
    # z is central when left and right multiplication by each t agree on it
    centre = sum(map(eq, zip(*lams), zip(*gens))) if gens else 1

    # each point's word along the tree, abelianized, and the relator that
    # each edge x --s--> y closes: vec(x) + e_s - vec(y), zero on the tree
    vec = [(0,) * len(gens)] * size
    for y, (x, s) in edges:
        vec[y] = vec[x][:s] + (vec[x][s] + 1,) + vec[x][s + 1 :]
    relators = set()
    for s, g in enumerate(gens):
        for v, y in zip(vec, g):
            relators.add(tuple(map(sub, v[:s] + (v[s] + 1,) + v[s + 1 :], vec[y])))
    relators.discard((0,) * len(gens))
    factors = tuple(f for f in smith_normal_form(relators) if f > 1)
    if centre < size:
        return StructureVerdict(
            kind="NonAbelian",
            order=size,
            factors=factors,
            centre_order=centre,
            derived_order=size // math.prod(factors),
        )
    return identify_structure(size, invariant_factors=factors)
