"""Tietze simplification of machine-generated presentations.

Reidemeister-Schreier rewriting yields subgroup presentations with
thousands of generators and tens of thousands of relators, most of them
short.  :func:`simplify_presentation` shrinks them with the cheap Tietze
moves (kill, merge, eliminate), applied in place over an occurrence index.
Single eliminations that must first be checked against the group, as the
Coxeter route makes them, are :func:`galcov.presentation.eliminate_generator`.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .presentation import (
    GroupPresentation,
    _dedupe,
    _reduced_key,
    free_reduce,
    invert_word,
    renumber_word,
    substitute,
)


def simplify_presentation(pres, eliminate_up_to=4):
    """Cheap Tietze reduction for machine-generated presentations.

    Repeatedly (a) kills generators with a length-1 relator, (b) merges
    generator pairs identified by length-2 relators (one signed union-find
    round handles them all at once), and (c) eliminates generators that
    occur exactly once in some relator of length <= ``eliminate_up_to``.
    Every step is a Tietze move, so the group (and its abelianization)
    is unchanged.  Rewritten subgroup presentations shrink from thousands
    of generators to a handful this way.

    Moves are applied in place (Havas, Kenne, Richardson and Robertson,
    *A Tietze transformation program*, 1984): an occurrence index finds the
    relators that contain a generator, so the work of a move is
    proportional to the relators it touches (a move that touches a quarter
    of all letters or more is one pass over every relator), and the
    presentation is renumbered and built once, at the end.  The output
    equals that of rebuilding the whole presentation through
    :meth:`GroupPresentation.make` after every move: same generator names,
    same relators, same order.
    ``pres`` is returned itself when no move applies.
    """
    state = _TietzeState(pres, max(eliminate_up_to, 2))
    moved = False
    while True:
        if state.merge_round():
            moved = True
            continue
        step = state.cheapest_elimination(eliminate_up_to)
        if step is None:
            break
        state.eliminate(*step)
        moved = True
    return state.presentation() if moved else pres


class _TietzeState:
    """The relators of a presentation under Tietze moves applied in place.

    Generators keep their ids from the input presentation and relators keep
    their order, so the relators stand in the order a full rebuild would
    keep.  Duplicate status (up to rotation and inversion) does not depend
    on how generators are numbered, and a move's choice depends only on
    relator order and occurrence counts, so numbering once at the end gives
    the presentation that renumbering after every move gives.

    A move that touches a large share of the letters (the first merge
    rounds on a Reidemeister-Schreier presentation touch most of them) is
    one pass over every relator, deduplicated as
    :meth:`GroupPresentation.make` does.  Any other move rewrites only the
    relators that contain its generators, found through an index built
    when first needed: generator -> slots (possibly stale) and canonical
    key -> slot.
    """

    # a move whose generators hold at least this share of all relator
    # letters is applied as a pass over every relator
    FULL_PASS_SHARE = 0.25

    def __init__(self, pres, short_len):
        self.names = pres.names
        # 1 once a generator is eliminated, merged into another or killed
        self.gone = bytearray(pres.generator_count + 1)
        # a merged class takes the place of its first member in the
        # generator order; every other generator keeps its own
        self.place = {}
        self.short_len = short_len
        self._reset(list(pres.relators))

    def _reset(self, words):
        """Take freely reduced, deduplicated ``words`` as the relators, one
        slot each; the index is built again when a move next needs it."""
        self.words = words  # slot -> relator, None once deleted
        self.keys = None  # slot -> canonical key
        self.slot_of = None  # canonical key -> slot holding it
        self.slots_with = None  # generator -> slots; may list stale slots
        self.short = None  # slots of relators of length <= short_len
        self.occurrences = Counter(map(abs, itertools.chain.from_iterable(words)))
        self.letters = sum(map(len, words))

    def _build_index(self):
        self.keys = [_reduced_key(w) for w in self.words]
        self.slot_of = {k: s for s, k in enumerate(self.keys)}
        self.slots_with = {}
        for s, w in enumerate(self.words):
            for g in set(map(abs, w)):
                self.slots_with.setdefault(g, []).append(s)
        self.short = {
            s for s, w in enumerate(self.words) if len(w) <= self.short_len
        }

    def _short_relators(self):
        """The relators of length <= short_len, in order.  Without an index
        the scan is over every relator, as is the full pass that follows."""
        if self.short is None:
            return [w for w in self.words if len(w) <= self.short_len]
        return [self.words[s] for s in sorted(self.short)]

    def _drop(self, slot):
        """Delete the relator in ``slot``; its key is the caller's to unmap."""
        occurrences = self.occurrences
        w = self.words[slot]
        for x in w:
            occurrences[x if x > 0 else -x] -= 1
        self.letters -= len(w)
        self.words[slot] = None
        self.short.discard(slot)

    def _put(self, slot, w, key):
        occurrences = self.occurrences
        for x in w:
            occurrences[x if x > 0 else -x] += 1
        self.letters += len(w)
        for g in set(map(abs, w)):
            self.slots_with.setdefault(g, []).append(slot)
        self.words[slot] = w
        self.keys[slot] = key
        self.slot_of[key] = slot
        if len(w) <= self.short_len:
            self.short.add(slot)

    def _rewrite(self, gens, rewrite):
        """Apply ``rewrite`` (freely reducing) to the relators that contain
        one of ``gens``, then drop empty relators and keep the first
        relator of each canonical key, as make does."""
        touched = sum(self.occurrences[g] for g in gens)
        if touched >= self.FULL_PASS_SHARE * self.letters:
            self._reset(_dedupe(rewrite(w) for w in self.words if w is not None))
            return
        if self.slots_with is None:
            self._build_index()
        slots = set()
        for g in gens:
            slots.update(self.slots_with.pop(g, ()))
        changes = {}
        for slot in slots:
            w = self.words[slot]
            if w is not None:
                new = rewrite(w)
                if new != w:
                    changes[slot] = new
        for slot in changes:
            del self.slot_of[self.keys[slot]]
            self._drop(slot)
        # a key's first holder in slot order keeps it; every changed slot
        # below ``slot`` has been placed already, so a later holder is an
        # unchanged relator
        for slot in sorted(changes):
            w = changes[slot]
            if not w:
                continue
            key = _reduced_key(w)
            other = self.slot_of.get(key)
            if other is not None:
                if other < slot:
                    continue
                self._drop(other)
            self._put(slot, w, key)

    def merge_round(self):
        """One batched round over all length-1 and length-2 relators;
        True when it changed the presentation."""
        parent, sign, dead = {}, {}, set()

        def find(g):
            s = 1
            while g in parent:
                s *= sign[g]
                g = parent[g]
            return g, s

        changed = False
        for w in self._short_relators():
            if len(w) == 1:
                r, _ = find(abs(w[0]))
                if r not in dead:
                    dead.add(r)
                    changed = True
            elif len(w) == 2:
                (ra, sa), (rb, sb) = find(abs(w[0])), find(abs(w[1]))
                pa = sa * (1 if w[0] > 0 else -1)
                pb = sb * (1 if w[1] > 0 else -1)
                if ra == rb:
                    continue  # either trivial or a square; squares stay
                # ra^pa * rb^pb = e  =>  ra = rb^(-pa*pb)
                parent[ra] = rb
                sign[ra] = -pa * pb
                if ra in dead:
                    dead.discard(ra)
                    dead.add(rb)
                changed = True
        if not changed:
            return False

        gens = set(parent) | dead
        image = {}  # signed letter -> signed survivor, 0 when killed
        for g in gens:
            r, s = find(g)
            if r in dead:
                image[g] = image[-g] = 0
            else:
                image[g], image[-g] = s * r, -s * r
                self.place[r] = min(self.place.get(r, r), self.place.get(g, g))
            self.gone[g] = 1
        get = image.get
        self._rewrite(gens, lambda w: free_reduce(filter(None, map(get, w, w))))
        return True

    def cheapest_elimination(self, max_len):
        """A generator occurring exactly once in some relator of length <=
        ``max_len``, with its replacement word: the cheapest such
        elimination, first in relator order among equals, or None."""
        occurrences = self.occurrences
        best = None
        for w in self._short_relators():
            if len(w) > max_len:
                continue
            for t, x in enumerate(w):
                g = abs(x)
                cost = (len(w) - 1) * max(occurrences[g] - 1, 0)
                # the cost test comes first because it is the cheaper one
                if (best is None or cost < best[0]) and w.count(g) + w.count(-g) == 1:
                    rot = w[t:] + w[:t]
                    repl = invert_word(rot[1:]) if rot[0] > 0 else rot[1:]
                    best = (cost, g, repl)
            if best is not None and best[0] == 0:
                break
        if best is None:
            return None
        return best[1], free_reduce(best[2])

    def eliminate(self, gen, replacement):
        self.gone[gen] = 1
        self._rewrite((gen,), lambda w: substitute(w, gen, replacement))

    def presentation(self):
        live = (g for g in range(1, len(self.gone)) if not self.gone[g])
        order = sorted(live, key=lambda g: self.place.get(g, g))
        number = {g: i for i, g in enumerate(order, 1)}
        return GroupPresentation.make(
            (self.names[g - 1] for g in order),
            (renumber_word(w, number) for w in self.words if w is not None),
        )
