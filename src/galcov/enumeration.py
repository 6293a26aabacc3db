"""Coset enumeration for finitely presented groups.

Relator-scanning (HLT) enumeration for the long relators, a Felsch-style
deduction stack for the short ones, and immediate coincidence processing
through a union-find table:

* a generator with a square relator ``g^2`` is an involution: it gets one
  self-inverse column and its square relator is not scanned, because the
  column enforces it; other generators keep columns for ``g`` and ``g^-1``;
* relators of at most ``SHORT_RELATOR`` letters go to the deduction
  stack.  Every entry the enumerator sets (a definition, a one-gap
  deduction, or an entry moved to the surviving coset of a coincidence)
  pushes ``(coset, column)``.  Popping it scans, from that coset, every
  distinct cyclic conjugate of a short relator or of its inverse that
  starts with that column: a single gap becomes a deduction, pushed in
  turn, and a mismatched closure a coincidence.  The stack is drained
  after every HLT scan and every row-fill definition;
* HLT scans only the longer relators.  Cosets are created in scan order,
  at the first undefined entry of the relator being traced, so two runs on
  the same input build identical tables.  Every live coset scans every
  long relator: gaps of width one become deductions, wider gaps trigger
  definitions, mismatched closures merge cosets.  A relator that a plain
  forward trace already closes is not scanned, since the scan would change
  nothing;
* after the queue of coincidences drains, all entries of live rows point
  at live cosets again, so neither the scans nor the final compression
  need find() calls;
* once all scans close, remaining undefined entries are filled with fresh
  definitions, and the final table is compressed to consecutive numbering
  in the public layout of :class:`CosetTable`, two columns per generator.

The returned table is closed.  Every entry is defined after the row fill.
A long relator closes at every coset, because each surviving coset
scanned it to closure and a coincidence only identifies cosets, which
keeps a closed trace closed.  A short relator closes at every coset,
because the entry of its trace that was set last was scanned once the
others were in place, and the stack is empty before compression.

Enumerations that would allocate more than ``max_cosets`` cosets raise
:class:`EnumerationOverflow`: the answer is undecided at that bound, not
proven infinite.
"""

from __future__ import annotations

from dataclasses import dataclass


class EnumerationOverflow(RuntimeError):
    """Coset allocation hit the bound before the table closed."""

    def __init__(self, max_cosets, stats=None):
        self.max_cosets = max_cosets
        self.stats = dict(stats or {})  # counters when the bound was hit
        super().__init__(
            f"coset enumeration exceeded {max_cosets} cosets (undecided at this bound)"
        )


# relators of at most this many letters are enforced by deductions, not
# by HLT scans.  On dt4 the short relators are the commutators (ab)^2;
# a cut-off of 6 or 8 letters, which sends the braids (ab)^3 to the
# deductions too, made its enumeration slower
SHORT_RELATOR = 4


def _column(letter: int) -> int:
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


@dataclass(frozen=True)
class CosetTable:
    """Closed coset table: rows[c][col] is the target coset, 0-based.

    Column ``2k-2`` is the action of generator k, column ``2k-1`` of its
    inverse.  Each generator column is a permutation of the cosets and
    every relator traces back to its starting coset.
    """

    generator_count: int
    rows: tuple[tuple[int, ...], ...]
    subgroup_words: tuple[tuple[int, ...], ...] = ()

    @property
    def coset_count(self):
        return len(self.rows)

    def target(self, coset: int, letter: int) -> int:
        return self.rows[coset][_column(letter)]

    def trace(self, coset: int, word) -> int:
        rows = self.rows
        for x in word:
            coset = rows[coset][_column(x)]
        return coset


def _internal_columns(ngens, involutions):
    """Column layout with one self-inverse column per involution and two
    for any other generator.  Returns ``icol`` (signed letter -> column),
    ``inv`` (column -> inverse column) and ``public`` (public column of
    :class:`CosetTable` -> column)."""
    icol, inv, public = {}, [], []
    for k in range(1, ngens + 1):
        c = len(inv)
        d = c if k in involutions else c + 1
        icol[k], icol[-k] = c, d
        inv += (c,) if c == d else (d, c)
        public += (c, d)
    return icol, inv, public


def _short_conjugates(relators, columns, ncols):
    """Cyclic conjugates of ``relators`` and of their inverses, as
    ``columns`` pairs (forward columns, inverse columns), without repeats
    and grouped by first column: entry ``col`` lists the conjugates that a
    deduction in column ``col`` scans."""
    by_column = [[] for _ in range(ncols)]
    seen = set()
    for w in relators:
        for v in (w, tuple(-x for x in reversed(w))):
            for k in range(len(v)):
                cols, bcols = columns(v[k:] + v[:k])
                if cols not in seen:
                    seen.add(cols)
                    by_column[cols[0]].append((cols, bcols))
    return by_column


def coset_enumeration(
    pres, subgroup_words=(), max_cosets=1_000_000, stats=None
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by ``subgroup_words``
    in the group of ``pres``.  Deterministic for fixed input.

    A ``stats`` dict receives the counters ``cosets_defined``,
    ``coincidences`` (scans that closed on two different cosets),
    ``peak_live`` (most cosets alive at once) and ``deductions`` (entries
    taken from the deduction stack and scanned), also when the bound is
    hit.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    ngens = pres.generator_count
    for w in subgroup_words:
        for x in w:
            if not 1 <= abs(x) <= ngens:
                raise ValueError(f"subgroup word references generator {abs(x)}")
    involutions = pres.involutions()
    icol, inv, public = _internal_columns(ngens, involutions)
    ncols = len(inv)

    def columns(w):
        fwd = tuple(icol[x] for x in w)
        return fwd, tuple(inv[c] for c in fwd)

    squares = {(k, k) for k in involutions} | {(-k, -k) for k in involutions}
    relators = [w for w in pres.relators if w and w not in squares]
    relator_cols = [columns(w) for w in relators if len(w) > SHORT_RELATOR]
    # per column, the 4-letter conjugates unpacked for the written-out scan
    # (columns and inverse columns after the first) and the others
    quads, others = [], []
    for conjugates in _short_conjugates(
        [w for w in relators if len(w) <= SHORT_RELATOR], columns, ncols
    ):
        quads.append([c[1:] + b[1:] for c, b in conjugates if len(c) == 4])
        others.append([(c, b) for c, b in conjugates if len(c) != 4])

    # cosets are numbered from 1; row 0 is all zeros and stands for an
    # undefined entry, so a trace that meets one stays at 0
    table = [[0] * ncols, [0] * ncols]
    p = [0, 1]
    counts = {} if stats is None else stats
    counts.update(cosets_defined=0, coincidences=0, peak_live=1, deductions=0)
    live = 1
    # (coset, column) of every entry set and not yet scanned by drain()
    stack = []
    push = stack.append

    def rep(k):
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def define(alpha, col):
        nonlocal live
        if len(table) > max_cosets:
            raise EnumerationOverflow(max_cosets, counts)
        beta = len(table)
        table.append([0] * ncols)
        p.append(beta)
        table[alpha][col] = beta
        table[beta][inv[col]] = alpha
        push((alpha, col))
        counts["cosets_defined"] += 1
        live += 1
        if live > counts["peak_live"]:
            counts["peak_live"] = live

    def coincidence(a, b):
        nonlocal live
        queue = []
        counts["coincidences"] += 1

        def merge(x, y):
            x, y = rep(x), rep(y)
            if x != y:
                if x > y:
                    x, y = y, x
                p[y] = x
                queue.append(y)

        merge(a, b)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            row = table[gamma]
            table[gamma] = None
            for col in range(ncols):
                delta = row[col]
                if not delta:
                    continue
                back = inv[col]
                drow = table[delta]
                if drow is not None and drow[back] == gamma:
                    drow[back] = 0
                mu, nu = rep(gamma), rep(delta)
                mrow, nrow = table[mu], table[nu]
                if mrow[col]:
                    merge(nu, mrow[col])
                elif nrow[back]:
                    merge(mu, nrow[back])
                else:
                    mrow[col] = nu
                    nrow[back] = mu
                    push((mu, col))
        live -= len(queue)

    def scan(alpha, cols, bcols, fill):
        """Trace ``cols`` from ``alpha`` forwards and backwards.  A single
        gap becomes a deduction and a mismatched closure a coincidence;
        with ``fill``, wider gaps get definitions until the trace closes."""
        f, b = alpha, alpha
        i, j = 0, len(cols) - 1
        while True:
            frow = table[f]
            while i <= j and frow[cols[i]]:
                f = frow[cols[i]]
                frow = table[f]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            brow = table[b]
            while j >= i and brow[bcols[j]]:
                b = brow[bcols[j]]
                brow = table[b]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                frow[cols[i]] = b
                brow[bcols[i]] = f
                push((f, cols[i]))
                return
            if not fill:
                return
            define(f, cols[i])

    def drain():
        """Scan the short conjugates through every stacked entry, and
        through the entries those scans set, until the stack is empty."""
        done = 0
        while stack:
            alpha, col = stack.pop()
            row = table[alpha]
            if row is None:
                continue  # its entries moved to a surviving coset, which pushed them
            done += 1
            # alpha -col-> x1 -c1-> x2 -c2-> x3 -c3-> alpha, written out:
            # forwards as far as the entries go, then backwards from alpha
            # through y3 = alpha.c3^-1, y2 = y3.c2^-1 and y1 = y2.c1^-1
            for c1, c2, c3, b1, b2, b3 in quads[col]:
                x1 = row[col]
                r1 = table[x1]
                x2 = r1[c1]
                if x2:
                    r2 = table[x2]
                    x3 = r2[c2]
                    if x3:
                        r3 = table[x3]
                        x4 = r3[c3]
                        if x4 == alpha:
                            continue
                        if x4:
                            coincidence(x4, alpha)
                        else:
                            y3 = row[b3]
                            if not y3:
                                r3[c3] = alpha
                                row[b3] = x3
                                push((x3, c3))
                                continue
                            coincidence(x3, y3)
                    else:
                        y3 = row[b3]
                        if not y3:
                            continue
                        s3 = table[y3]
                        y2 = s3[b2]
                        if not y2:
                            r2[c2] = y3
                            s3[b2] = x2
                            push((x2, c2))
                            continue
                        coincidence(x2, y2)
                else:
                    y3 = row[b3]
                    if not y3:
                        continue
                    y2 = table[y3][b2]
                    if not y2:
                        continue
                    s2 = table[y2]
                    y1 = s2[b1]
                    if not y1:
                        r1[c1] = y2
                        s2[b1] = x1
                        push((x1, c1))
                        continue
                    coincidence(x1, y1)
                if p[alpha] != alpha:
                    break
            else:
                for cols, bcols in others[col]:
                    scan(alpha, cols, bcols, False)
                    if p[alpha] != alpha:
                        break
        counts["deductions"] += done

    for w in subgroup_words:
        if w:
            scan(1, *columns(w), True)
            drain()

    alpha = 1
    while alpha < len(table):
        if p[alpha] == alpha:
            for cols, bcols in relator_cols:
                # a relator that already closes from alpha needs no scan
                f = alpha
                for c in cols:
                    f = table[f][c]
                if f != alpha:
                    scan(alpha, cols, bcols, True)
                    drain()
                    if p[alpha] != alpha:
                        break
            for col in range(ncols):
                if p[alpha] != alpha:
                    break
                if not table[alpha][col]:
                    define(alpha, col)
                    drain()
        alpha += 1

    # compress to consecutive numbering, preserving definition order; live
    # rows point only at live cosets, and each involution column is copied
    # into both public columns of its generator
    renumber, live_rows = [0] * len(table), []
    for old, row in enumerate(table[1:], 1):
        if row is not None:
            renumber[old] = len(live_rows)
            live_rows.append(row)
    rows = tuple(tuple([renumber[row[c]] for c in public]) for row in live_rows)
    return CosetTable(
        generator_count=ngens,
        rows=rows,
        subgroup_words=tuple(tuple(w) for w in subgroup_words),
    )


def group_order(table: CosetTable) -> int:
    """Order of the group: coset count over the trivial subgroup."""
    if table.subgroup_words:
        raise ValueError("table was built over a non-trivial subgroup")
    return table.coset_count


def verify_table(pres, table: CosetTable) -> None:
    """Exhaustive closure check, independent of the enumeration strategy.

    Every generator column must be a permutation of the cosets and every
    relator must trace back to its starting coset from every coset.
    """
    n = table.coset_count
    for k in range(1, table.generator_count + 1):
        col = _column(k)
        images = [row[col] for row in table.rows]
        if sorted(images) != list(range(n)):
            raise AssertionError(f"generator {k} does not act as a permutation")
        for c, img in enumerate(images):
            if table.rows[img][col ^ 1] != c:
                raise AssertionError(f"inverse column of generator {k} inconsistent")
    for w in pres.relators:
        cols = [_column(x) for x in w]
        for c in range(n):
            d = c
            for col in cols:
                d = table.rows[d][col]
            if d != c:
                raise AssertionError(
                    f"relator {w} does not trace to identity from coset {c}"
                )
