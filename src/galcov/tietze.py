"""Tietze simplification of machine-generated presentations.

Reidemeister-Schreier rewriting yields subgroup presentations with
thousands of generators and tens of thousands of relators, most of them
short.  :func:`simplify_presentation` shrinks them with the cheap Tietze
moves (kill, merge, eliminate), applied in place in the manner of Havas,
Kenne, Richardson and Robertson, *A Tietze transformation program* (1984).

The merge rounds that open a simplification rewrite nearly every relator,
so each of them is one pass over the relator list.  The first search for
an elimination builds an occurrence index; from then on a move rewrites
only the relators that contain its generators, and the index keeps the
occurrence counts and the elimination candidates up to date, so no move
rescans the presentation.  Relators are deduplicated up to rotation and
inversion after every move, as :meth:`GroupPresentation.make` does: a
duplicate dropped later can differ from the relator it duplicated once
later moves rewrite both, so deduplication cannot wait for the end of the
merge rounds.  Every move rewrites through
:func:`galcov.presentation._apply`, the one rewrite routine, which
:func:`galcov.presentation.eliminate_and_rewrite` shares.  The Coxeter
route checks its relators as written, in the affine symmetric group; it
runs ``eliminate_and_rewrite`` only when a caller reads
``CoxeterRoute.reduced``."""

from __future__ import annotations

import itertools
from collections import Counter
from heapq import heappop, heappush

from .presentation import (
    GroupPresentation,
    _apply,
    _dedupe,
    _reduced_key,
    solve_relator,
)


def simplify_presentation(pres, eliminate_up_to=4, stats=None):
    """Cheap Tietze reduction for machine-generated presentations.

    Repeatedly (a) kills generators with a length-1 relator, (b) merges
    generator pairs identified by length-2 relators (one signed union-find
    round handles them all at once), and (c) eliminates generators that
    occur exactly once in some relator of length <= ``eliminate_up_to``.
    Every step is a Tietze move, so the group (and its abelianization)
    is unchanged.  Rewritten subgroup presentations shrink from thousands
    of generators to a handful this way.

    An elimination is the cheapest one, (length - 1) * (occurrences - 1)
    new letters, first in relator order and then in letter order among
    equals.  The output equals that of rebuilding the whole presentation
    through :meth:`GroupPresentation.make` after every move: same generator
    names, same relators, same order.  ``pres`` is returned itself when no
    move applies.

    A ``stats`` dict receives ``generators_in``, ``relators_in``,
    ``letters_in``, their ``_out`` counterparts, ``merge_rounds`` (rounds
    that changed the presentation), ``full_passes`` (those of them that
    rewrote every relator) and ``eliminations``.
    """
    state = _TietzeState(pres, eliminate_up_to)
    while True:
        if state.merge_round():
            continue
        step = state.cheapest_elimination()
        if step is None:
            break
        state.eliminate(step)
    out = state.presentation() if state.merge_rounds or state.eliminations else pres
    if stats is not None:
        stats.update(
            generators_in=pres.generator_count,
            relators_in=len(pres.relators),
            letters_in=pres.total_relator_length(),
            generators_out=out.generator_count,
            relators_out=len(out.relators),
            letters_out=out.total_relator_length(),
            merge_rounds=state.merge_rounds,
            full_passes=state.full_passes,
            eliminations=state.eliminations,
        )
    return out


class _TietzeState:
    """The relators of a presentation under Tietze moves applied in place.

    Generators keep their ids from the input presentation and relators keep
    their order, so the relators stand in the order a full rebuild would
    keep.  Duplicate status (up to rotation and inversion) does not depend
    on how generators are numbered, and a move's choice depends only on
    relator order and occurrence counts, so numbering once at the end gives
    the presentation that renumbering after every move gives.

    Until the first elimination is looked for, a move is a pass over every
    relator (see :func:`_dedupe`).  From then on moves go through an index,
    in which each relator keeps its slot:

    * ``keys``: slot -> class key (see :func:`_reduced_key`), and
      ``slot_of``: key -> slot;
    * ``slots_with``: generator -> slots, a superset of those whose relator
      contains it: a move hands the slots of each generator it removes to
      the generators of its image;
    * ``occurrences``: generator -> letters of it in all relators;
    * ``pairs``: slots of relators of length <= 2, which merge rounds read;
    * ``candidates``: generator -> heap of (length - 1, slot, position,
      word) over the relators of length <= max_len in which it occurs once;
      ``best``: heap of (cost, slot, position, word), which holds the top
      candidate of each generator at its current cost.  Entries whose word
      has left its slot, or whose cost has changed, are dropped when met.
    """

    def __init__(self, pres, max_len):
        self.names = pres.names
        self.max_len = max_len
        # 1 once a generator is eliminated, merged into another or killed
        self.gone = bytearray(pres.generator_count + 1)
        # a merged class takes the place of its first member in the
        # generator order; every other generator keeps its own
        self.place = {}
        self.words = list(pres.relators)  # slot -> relator, None once deleted
        self.slots_with = None  # None until the index is built
        self.merge_rounds = self.full_passes = self.eliminations = 0

    def _build_index(self):
        words = self.words
        self.keys = [_reduced_key(w) for w in words]
        self.slot_of = {k: s for s, k in enumerate(self.keys)}
        self.slots_with = {}
        for s, w in enumerate(words):
            for g in set(map(abs, w)):
                self.slots_with.setdefault(g, set()).add(s)
        self.occurrences = Counter(map(abs, itertools.chain.from_iterable(words)))
        self.pairs = {s for s, w in enumerate(words) if len(w) <= 2}
        self.candidates = {}
        self.best = []
        for s, w in enumerate(words):
            if len(w) <= self.max_len:
                self._add_candidates(s, w)
        self._push_best(self.candidates)

    def _add_candidates(self, slot, w):
        gens = list(map(abs, w))
        for t, g in enumerate(gens):
            if gens.count(g) == 1:
                heappush(self.candidates.setdefault(g, []), (len(w) - 1, slot, t, w))

    def _push_best(self, gens):
        """Push the top candidate of each of ``gens`` at its current cost."""
        words, occurrences = self.words, self.occurrences
        for g in gens:
            heap = self.candidates.get(g)
            while heap and words[heap[0][1]] is not heap[0][3]:
                heappop(heap)
            if heap:
                n, slot, t, w = heap[0]
                heappush(self.best, (n * (occurrences[g] - 1), slot, t, w))

    def _rewrite(self, image):
        """Replace each letter of ``image`` by its image word in every
        relator, freely reducing, then drop empty relators and keep the
        first relator of each class, as make does."""
        moved, cancelled = [], []
        if self.slots_with is None:
            self.words = _dedupe(_apply(self.words, image, moved, cancelled))
            self.full_passes += 1
            return
        words, keys, slot_of, pairs = self.words, self.keys, self.slot_of, self.pairs
        old_slots = {g: self.slots_with.pop(g, set()) for g in image if g > 0}
        for g, slots in old_slots.items():
            for heir in set(map(abs, image[g])):
                self.slots_with.setdefault(heir, set()).update(slots)
        untouched = image.keys().isdisjoint
        slots = [
            s
            for s in set().union(*old_slots.values())
            if words[s] is not None and not untouched(words[s])
        ]
        changes = dict(zip(slots, _apply([words[s] for s in slots], image, moved, cancelled)))
        # relators that left whole, and short ones that left or came
        left, short = [], []
        for slot in changes:
            w = words[slot]
            words[slot] = None
            del slot_of[keys[slot]]
            if len(w) <= self.max_len:
                short.append(w)
        pairs.difference_update(changes)
        # a class's first holder in slot order keeps it; every changed slot
        # below ``slot`` has been placed already, so a later holder is an
        # unchanged relator
        for slot in sorted(changes):
            w = changes[slot]
            if not w:
                continue
            key = _reduced_key(w)
            other = slot_of.get(key)
            if other is not None:
                if other < slot:
                    left.append(w)
                    continue
                left.append(words[other])
                if len(words[other]) <= self.max_len:
                    short.append(words[other])
                words[other] = None
                pairs.discard(other)
            words[slot] = w
            keys[slot] = key
            slot_of[key] = slot
            if len(w) <= 2:
                pairs.add(slot)
            if len(w) <= self.max_len:
                short.append(w)
                self._add_candidates(slot, w)
        self._recount(image, moved, cancelled, left, short)

    def _recount(self, image, moved, cancelled, left, short):
        """Update the occurrence counts after a move that replaced the
        letters ``moved`` by their images, cancelled the letters
        ``cancelled`` against their predecessors and dropped the words
        ``left``, and push the top candidate of every generator whose count
        changed or which occurs in a ``short`` relator that came or left."""
        delta = Counter()
        for x, k in Counter(moved).items():
            delta[abs(x)] -= k
            for y in image[x]:
                delta[abs(y)] += k
        for x, k in Counter(cancelled).items():
            delta[abs(x)] -= 2 * k
        for x, k in Counter(itertools.chain.from_iterable(left)).items():
            delta[abs(x)] -= k
        changed = set()
        for g, d in delta.items():
            if d:
                self.occurrences[g] += d
                changed.add(g)
        for w in short:
            changed.update(map(abs, w))
        self._push_best(changed)

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

        if self.slots_with is None:
            short = [w for w in self.words if len(w) <= 2]
        else:
            short = [self.words[s] for s in sorted(self.pairs)]
        changed = False
        for w in short:
            if len(w) == 1:
                r, _ = find(abs(w[0]))
                if r not in dead:
                    dead.add(r)
                    changed = True
            else:
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

        self.merge_rounds += 1
        image = {}  # signed letter -> its survivor as a word, () when killed
        for g in set(parent) | dead:
            r, s = find(g)
            if r in dead:
                image[g] = image[-g] = ()
            else:
                image[g], image[-g] = (s * r,), (-s * r,)
                self.place[r] = min(self.place.get(r, r), self.place.get(g, g))
            self.gone[g] = 1
        self._rewrite(image)
        return True

    def cheapest_elimination(self):
        """The cheapest elimination of a generator occurring exactly once
        in some relator of length <= ``max_len``, first in relator order
        among equals, as :func:`solve_relator` maps it; or None."""
        if self.slots_with is None:
            self._build_index()
        words, occurrences, best = self.words, self.occurrences, self.best
        while best:
            cost, slot, t, w = best[0]
            g = abs(w[t])
            if words[slot] is w and cost == (len(w) - 1) * (occurrences[g] - 1):
                return solve_relator(w, t)
            heappop(best)
        return None

    def eliminate(self, image):
        """Replace the generator that ``image`` maps, its one positive
        key, by its word."""
        self.eliminations += 1
        self.gone[max(image)] = 1
        self._rewrite(image)

    def presentation(self):
        """The relators, renumbered, as a presentation.  They are freely
        reduced and deduplicated already, which is all make would do."""
        live = (g for g in range(1, len(self.gone)) if not self.gone[g])
        order = sorted(live, key=lambda g: self.place.get(g, g))
        number = {}
        for i, g in enumerate(order, 1):
            number[g], number[-g] = i, -i
        return GroupPresentation(
            tuple(self.names[g - 1] for g in order),
            tuple(tuple(map(number.__getitem__, w)) for w in self.words if w is not None),
        )
