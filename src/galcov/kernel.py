"""The kernel of the quotient group's map onto the symmetric group.

The exact sequence 0 -> pi1 -> G -> S_n -> 0 identifies the fundamental
group of the Galois cover with the kernel of the symmetric-group map, so
everything here is about that kernel.  :func:`regular_kernel` decides it
from its regular action on a coset table of G over an S_n complement
of K, which has |K| cosets.  It takes t <= log2 |K| generators, each
the kernel element of a coset that one breadth-first walk of the table
reaches outside the orbit of the earlier ones, and reads its word from
the walk's spanning tree; the walk stops once that orbit holds every
coset.  When the t generators commute pairwise, K is abelian and t
polycyclic relations, a t x t Smith normal form, give its invariants.
Otherwise their Schreier graph decides
whether they generate a regular group, its centre, and, from the Smith
normal form of the relators that the graph's edges off a spanning tree
close, the invariants of K/K'.  The normal form splits off one pivot at
a time, then takes gcds and lcms of the diagonal.
The second, independent route builds a presentation of K: its coset
table (indexed by the n! permutations), Reidemeister-Schreier rewriting,
and the invariants of K/K' from one Smith normal form.  Every other
spanning tree is a :func:`_schreier_tree`, and every permutation is
composed on padded image tuples, as :func:`~galcov.permutations._evaluate`
composes them.

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
    _evaluate,
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
    sigma -> sigma * a(g), looked up by image tuple, padded as the
    assignment's letters are: ``itemgetter`` of one index returns no tuple.
    Requires the assignment to be a relator-preserving map onto the full
    symmetric group by transpositions.
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

    elements = [(0, *sigma) for sigma in itertools.permutations(range(1, n + 1))]
    index = {sigma: i for i, sigma in enumerate(elements)}
    letters = [a.letters[x] for k in range(1, pres.generator_count + 1) for x in (k, -k)]
    # one column per image: an involution's transposition serves both letters
    column = {h: tuple([index[itemgetter(*sigma)(h)] for sigma in elements]) for h in letters}
    return CosetTable(pres.generator_count, tuple(map(column.__getitem__, letters)))


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

    The table's columns fill one flat table, a slice per internal column.
    Schreier generators sit on the table edges off the
    :func:`_schreier_tree` of the columns g1..gm, then their inverses.  An
    involution k (a generator with relator k^2) gets one per pair {c, c.k}
    off the tree, since x_{c.k,k} = x_{c,k}^-1, and one x with relator x^2
    per fixed point c = c.k; k^2 is traced nowhere else.  Any other
    generator gets one per coset off the tree.

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
    icol, inv = _internal_columns(m, involutions)
    ncols = len(inv)
    size = n * ncols

    # flat tables over (coset, column), indexed by coset * ncols + column:
    # the target coset, premultiplied by ncols, and the Schreier letter
    # (0 on tree edges); ``step`` pairs them for the trace loop
    target = [0] * size
    for k in range(1, m + 1):
        for x in (k,) if k in involutions else (k, -k):
            target[icol[x] :: ncols] = [d * ncols for d in table.column(x)]

    letter = [None] * size
    order = [icol[k] for k in range(1, m + 1)] + [icol[-k] for k in range(1, m + 1)]
    tree = _schreier_tree(table.columns[0::2] + table.columns[1::2])
    if len(tree) != n:
        raise KernelError("coset table is not connected")
    for d, (c, s) in itertools.islice(tree.items(), 1, None):
        letter[c * ncols + order[s]] = letter[d * ncols + inv[order[s]]] = 0

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
    zeros padding any rank deficiency.  First the least nonzero entry is
    the pivot: floor-quotient multiples of its row and column clear the
    rest of its column and row, and a nonzero remainder left there is a
    strictly smaller pivot, so the loop ends.  A cleared pivot's |value|
    joins the diagonal and its row and column go.  Then each pair
    (d_s, d_t), s < t, becomes (gcd, lcm), which keeps Z/d_s x Z/d_t and
    leaves the diagonal in divisibility order.
    """
    a = [list(row) for row in matrix]
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    size = min(len(a), ncols)
    diag = []
    while p := min((v for row in a for v in row if v), key=abs, default=0):
        pivot = next(row for row in a if p in row)
        j = pivot.index(p)
        for r, row in enumerate(a):
            if row is not pivot and (q := row[j] // p):
                a[r] = [x - q * y for x, y in zip(row, pivot)]
        for k, v in enumerate(pivot):
            if k != j and (q := v // p):
                for row in a:
                    row[k] -= q * row[j]
        if any(row[j] for row in a if row is not pivot) or any(pivot[:j] + pivot[j + 1 :]):
            continue
        diag.append(abs(p))
        # zero rows add nothing but the padding
        a = [row[:j] + row[j + 1 :] for row in a if row is not pivot and any(row)]
    for s, t in itertools.combinations(range(len(diag)), 2):
        g = math.gcd(diag[s], diag[t])
        diag[s], diag[t] = g, diag[s] * diag[t] // g
    return tuple(diag) + (0,) * (size - len(diag))


def _exponent_matrix(pres: GroupPresentation):
    rows = []
    for w in pres.relators:
        row = [0] * pres.generator_count
        for x in w:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


def abelianization(pres: GroupPresentation) -> tuple[int, ...]:
    """Invariant factors of the abelianization: torsion factors > 1 in
    divisibility order, then one 0 per free rank."""
    diag = smith_normal_form(_exponent_matrix(pres))
    rank = sum(1 for d in diag if d)
    return tuple(d for d in diag if d > 1) + (0,) * (pres.generator_count - rank)


# ---------------------------------------------------------------------------
# structure verdicts


class StructureVerdict(NamedTuple):
    """What the kernel is, as far as its order and the invariants of its
    abelianization decide it.

    kind is one of 'Trivial', 'ElementaryAbelian2',
    'AbelianInvariantFactors', 'NonAbelian' (with the orders of the
    group, its centre and its derived subgroup), 'Undetermined'.
    """

    kind: str
    rank: int | None = None
    factors: tuple[int, ...] | None = None
    order: int | None = None
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
        if self.note:
            detail += f"; {self.note}"
        return f"undetermined ({detail})"


def identify_structure(order, invariant_factors=None) -> StructureVerdict:
    """Decide the kernel structure from its order and the invariant
    factors of its abelianization.

    Order 1 is trivial.  Invariant factors whose product equals the order
    pin down an abelian group, elementary abelian when every factor is 2.
    Anything else, including inconsistent evidence (a free rank, or a
    product above the order), stays undetermined with the factors attached.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        return StructureVerdict(kind="Trivial", order=1)

    if invariant_factors is None:
        return StructureVerdict(kind="Undetermined", order=order)
    factors = tuple(invariant_factors)
    prod = math.prod(factors)
    if 0 in factors:
        note = "abelianization has free rank but the order is finite"
    elif prod > order:
        note = f"inconsistent evidence: product of factors {prod} exceeds order"
    elif prod < order:
        note = None
    elif all(d == 2 for d in factors):
        return StructureVerdict(
            kind="ElementaryAbelian2", rank=len(factors), order=order, factors=factors
        )
    else:
        return StructureVerdict(kind="AbelianInvariantFactors", factors=factors, order=order)
    return StructureVerdict(kind="Undetermined", order=order, factors=factors, note=note)


# ---------------------------------------------------------------------------
# the kernel from its regular action


def regular_kernel(table: CosetTable, a: SymmetricAssignment, path, planes) -> StructureVerdict:
    """The kernel K of ``a`` from its regular action on a coset table.

    ``table`` is a closed coset table of G over H: the S_n complement
    that :func:`~galcov.presentation.complement_path` found along
    ``path`` through ``planes``.  A ``planes`` that is not a permutation
    of 1..n, or a path whose j-th generator does not transpose planes j
    and j + 1, raises :class:`KernelError`.  H meets K trivially, so K acts
    regularly on the orbit of coset 0, which is every coset.
    :func:`_kernel_elements` takes at most log2 |K| elements of K that
    generate it.  When they commute pairwise (two compositions for each
    of the t(t-1)/2 pairs), their group is abelian and transitive, so it
    is regular and is K, and :func:`_abelian_verdict` reads its
    invariants from t polycyclic relations, a t x t Smith normal form.
    Otherwise :func:`_regular_verdict` checks that their group is regular
    and reads the orders of its centre and derived subgroup.
    """
    gens, tree, sizes = _kernel_elements(table, a, path, planes)
    if all(itemgetter(*g)(h) == itemgetter(*h)(g) for g, h in itertools.combinations(gens, 2)):
        return _abelian_verdict(gens, tree, sizes)
    return _regular_verdict(gens, tree)


def _kernel_elements(table: CosetTable, a: SymmetricAssignment, path, planes):
    """Elements of K that generate it, as permutations of the cosets; the
    Schreier tree of the orbit of coset 0 under them; and that orbit's
    size under the first s of them, for s = 0..t.

    The kernel element of coset c is u_c w_c: w_c is the representative
    word of c along a breadth-first spanning tree of the table, and u_c
    the bubble-sort word along the path whose image is the inverse of
    w_c's.  It sends coset 0 to c.  One breadth-first walk of the table
    reads each distinct column once (an involution's two letters share
    one) and composes c's element over the columns whenever the coset c
    it reaches lies outside the orbit of coset 0 under the elements taken
    so far; each one must at least double that orbit, so at most log2 |K|
    are taken.  The walk stops once that orbit holds every coset; a walk
    that ends first means the table is not connected.
    """
    if len(planes) != len(path) + 1:
        raise ValueError(f"a path of {len(path)} generators walks {len(path) + 1} planes")
    n, size = a.degree, table.coset_count
    # the bubble sort reads each plane's position on the path, and swaps
    # neighbours by the path's generators
    if sorted(planes) != list(range(1, n + 1)):
        raise KernelError(f"the path's planes {tuple(planes)} are not a permutation of 1..{n}")
    for g, pair in zip(path, zip(planes, planes[1:])):
        if not 0 < g <= len(a.moved) or a.moved[g - 1] != tuple(sorted(pair)):
            raise KernelError(f"generator {g} does not transpose planes {pair[0]} and {pair[1]}")
    columns = {x: table.column(x) for g in range(1, table.generator_count + 1) for x in (g, -g)}
    # the walk's spanning tree: each coset's parent and letter index; an
    # involution's inverse letter repeats a column and reaches no coset
    letters = [x for x in columns if x > 0 or columns[x] is not columns[-x]]
    walked = [columns[x] for x in letters]
    pos = {p: i for i, p in enumerate(planes)}
    # the taken elements, as permutations of the cosets, the Schreier tree
    # of the orbit of coset 0 under them, and its size under each prefix
    gens, tree, sizes = [], {0: None}, [1]
    spanning, reached = {0: None}, [0]
    for c in reached:
        if len(tree) == size:
            break
        for s, col in enumerate(walked):
            if col[c] not in spanning:
                spanning[col[c]] = (c, s)
                reached.append(col[c])
        if c in tree:
            continue
        w, x = [], c
        while x:
            x, s = spanning[x]
            w.append(letters[s])
        w.reverse()
        # bubble-sort the path positions that the image of w_c moves back
        image = _evaluate(a.letters, w, n)
        b = [pos[image[p]] for p in planes]
        swaps = []
        for end in range(n - 1, 0, -1):
            for j in range(end):
                if b[j + 1] < b[j]:
                    b[j], b[j + 1] = b[j + 1], b[j]
                    swaps.append(path[j])
        # u_c w_c from every coset at once, one column per letter; a table
        # of one coset, whose columns itemgetter could not compose, has no
        # element to take
        perm = _evaluate(columns, swaps[::-1] + w, size - 1)
        if perm[0] != c:
            raise KernelError(f"the kernel element of coset {c} does not act on the kernel")
        gens.append(perm)
        _schreier_tree(gens, tree)
        # in a regular group the orbit is as large as the subgroup that the
        # taken elements generate, and the new one lies outside it
        if len(tree) < 2 * sizes[-1]:
            raise KernelError("the kernel permutations are not closed under product")
        sizes.append(len(tree))
    if len(tree) < size:
        raise KernelError("coset table is not connected")
    return gens, tree, sizes


def _schreier_tree(gens, tree=None):
    """The breadth-first Schreier tree of the orbit of 0 under the
    permutations ``gens``: each point's parent point and generator index
    (None at 0), in the order reached.  Given the ``tree`` of the orbit
    under all but the last of ``gens``, it extends that tree in place: the
    last one on the old points, then every one on the new points."""
    if tree is None:
        tree, new = {0: None}, 0
    else:
        new, s, g = len(tree), len(gens) - 1, gens[-1]
        for x in list(tree):
            if g[x] not in tree:
                tree[g[x]] = (x, s)
    orbit = list(tree)
    for x in itertools.islice(orbit, new, None):
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


def _abelian_verdict(gens, tree, sizes):
    """Verdict on the group of the pairwise commuting permutations
    ``gens``, regular on the points of their Schreier ``tree``, whose
    orbit of 0 under the first s of them has ``sizes[s]`` points.

    The group is abelian, so its relation lattice is spanned by one
    polycyclic relation per generator (Holt, Eick and O'Brien 2005,
    ch. 8): g_s^j_s, with j_s = sizes[s+1] / sizes[s], is the least power
    of g_s in the group of the earlier ones, so it is the element that
    sends 0 to y = g_s^j_s(0), whose tree word is over the earlier ones.
    The relation j_s e_s - vec(y), vec(y) that word's exponent vector,
    is zero above the diagonal, so the t x t matrix of them has
    determinant prod j_s = |K|, and its Smith normal form gives the
    invariants of K.
    """
    relations = []
    for s, (g, before, after) in enumerate(zip(gens, sizes, sizes[1:])):
        row = [0] * len(gens)
        row[s] = j = after // before
        y = 0
        for _ in range(j):
            y = g[y]
        while y:
            y, r = tree[y]
            row[r] -= 1
        relations.append(row)
    return identify_structure(len(tree), tuple(f for f in smith_normal_form(relations) if f > 1))
