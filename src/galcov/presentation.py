"""Words, finitely presented groups, and relation templates.

Words are tuples of nonzero signed integers: ``k`` is generator number
``k`` (1-based), ``-k`` its inverse.  A presentation stores generator
names together with free-reduced relator words, deduplicated up to cyclic
rotation and inversion so the enumerator never scans the same relation
twice.  Each word is reduced once, by the code that writes it: the
builders here, Reidemeister-Schreier and the Tietze moves pass reduced
words over their own generators straight to :func:`_dedupe`, and
:meth:`GroupPresentation.make` normalizes words from anywhere else.

The quotient group of interest is the branch-curve complement group
modulo the squares of all standard generators.  With those squares in
place the generator attached to each intersection line coincides with its
primed partner, so the presentation is generated by one involution per
edge of the complex.  :func:`build_tilde_presentation` emits, per the
relation templates of the half-twist dictionary:

* a square for every generator,
* a triple (braid) relation for every edge pair with a common plane,
* a commutator for every other edge pair: the parasitic pairs and the
  4-point diagonals,
* a branch relation ``g_k g_i g_j g_i`` for every 3-point ``i < j < k``,
* any dataset-supplied override relations, the projective relator last.

For complexes whose vertices are all 3-points the projective relator is a
product of squares once primed generators are identified, hence trivial
and omitted.
"""

from __future__ import annotations

import itertools
from operator import mul, neg
from typing import NamedTuple

from .complexes import DegenerationComplex, Inner3, Inner4, VertexClass, classify_vertex
from .permutations import _evaluate

Word = tuple[int, ...]


class PresentationError(Exception):
    """Base class for presentation-level errors."""


class RelationSyntaxError(PresentationError):
    """Relation-grammar line that fails to parse; carries a position."""

    def __init__(self, message, line=None, position=None):
        self.line = line
        self.position = position
        where = ""
        if position is not None:
            where = f" (at token {position})"
        super().__init__(f"{message}{where}" + (f" in {line!r}" if line else ""))


class MissingFourPointData(PresentationError):
    """Complex has inner 4-points but no override relations were supplied."""


class SearchBound(Exception):
    """A bounded search stopped at its bound before it ran out of
    candidates; the message says which search and where."""


# ---------------------------------------------------------------------------
# words


def free_reduce(word) -> Word:
    """Cancel adjacent inverse pairs; idempotent; empty word is identity."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word) -> Word:
    return tuple(map(neg, reversed(word)))


def _apply(words, image, moved, cancelled):
    """``words`` with each letter of ``image`` replaced by its image word,
    freely reduced as they are written.  Appends each replaced letter to
    ``moved`` and each letter that cancels the one before it to
    ``cancelled``.  Every Tietze move and elimination rewrites through
    this one routine."""
    rewritten = []
    for word in words:
        out = []
        for x in word:
            piece = image.get(x)
            if piece is None:
                if out and out[-1] == -x:
                    out.pop()
                    cancelled.append(x)
                else:
                    out.append(x)
                continue
            moved.append(x)
            for y in piece:
                if out and out[-1] == -y:
                    out.pop()
                    cancelled.append(y)
                else:
                    out.append(y)
        rewritten.append(tuple(out))
    return rewritten


def solve_relator(word, t) -> dict[int, Word]:
    """Solve the relator ``word`` = 1 for its ``t``-th letter x, whose
    generator occurs nowhere else in it: x times the rest of the rotation
    starting at x is 1, so x is the inverse of that rest.  Returns the map
    of x and its inverse to their words, as the eliminations read it."""
    x = word[t]
    rest = free_reduce(word[t + 1 :] + word[:t])
    return {x: invert_word(rest), -x: rest}


def is_stated(relators, word) -> bool:
    """Is a rotation of ``word`` or of its inverse in the set ``relators``?
    For a cyclically reduced word, such as a square, commutator or braid
    template, that is its :func:`_reduced_key` among the relators' keys."""
    return any(
        w[i:] + w[:i] in relators for w in (word, invert_word(word)) for i in range(len(w))
    )


def is_stated_along(relators, path, g, neighbours) -> bool:
    """Are g's braids with ``neighbours`` and its commutators with the
    other generators of ``path`` stated?  A path grows by g, or a cycle
    closes with g, only when they are."""
    return all(
        is_stated(relators, (triple_word if h in neighbours else commutator_word)(h, g))
        for h in path
    )


def _reduced_key(w) -> Word:
    """Smallest rotation of the freely reduced word ``w`` or of its
    inverse; the dedup key for relators.

    ``w`` is not cyclically reduced first: ``(1, 2, -1)`` keeps its own
    key.  A least rotation starts at an occurrence of the least letter,
    so only those rotations are compared; on relators, where the least
    letter is rare, that is about linear in the word length.
    """
    if not w:
        return w
    # the key starts with the least letter of the word or of its inverse
    least, inverse_least = min(w), -max(w)
    if least < inverse_least:
        return _least_rotation(w, least)
    if inverse_least < least:
        return _least_rotation(invert_word(w), inverse_least)
    return min(_least_rotation(w, least), _least_rotation(invert_word(w), least))


def _least_rotation(w, least) -> Word:
    """The least rotation of ``w``, whose least letter is ``least``."""
    if w.count(least) == 1:
        i = w.index(least)
        return w[i:] + w[:i]
    best = None
    i = -1
    for _ in range(w.count(least)):
        i = w.index(least, i + 1)
        rot = w[i:] + w[:i]
        if best is None or rot < best:
            best = rot
    return best


def _dedupe(words):
    """Drop empty words and keep the first word of each class under
    rotation and inversion.

    The words must be freely reduced.  Length, letter sum up to sign and
    the sum of the squared letters do not change under rotation or
    inversion, so two words of one class share them; a word's
    :func:`_reduced_key` is computed only when another kept word shares
    them too.  Distinct commutators and braids, such as [g1, g4] and
    [g2, g3], differ in the squared sum.
    """
    kept = []
    first = {}  # (length, |sum|, sum of squares) -> position of its first word
    keys = {}  # the same -> class keys of its words, once a second word has it
    for w in words:
        if not w:
            continue
        f = len(w), abs(sum(w)), sum(map(mul, w, w))
        n = len(kept)
        i = first.setdefault(f, n)
        if i != n:
            seen = keys.get(f)
            if seen is None:
                seen = keys[f] = {_reduced_key(kept[i])}
            key = _reduced_key(w)
            if key in seen:
                continue
            seen.add(key)
        kept.append(w)
    return kept


# ---------------------------------------------------------------------------
# presentations


class GroupPresentation(NamedTuple):
    """Generator names plus free-reduced relator words.

    Construct words from outside the package through :meth:`make`, which
    normalizes: free reduction, removal of empty relators, deduplication
    up to cyclic rotation and inversion (first occurrence kept, order
    preserved) and a check that every letter names a generator.  Code
    that writes its words reduced and in range calls the constructor
    with the words :func:`_dedupe` keeps.
    """

    names: tuple[str, ...]
    relators: tuple[Word, ...]

    @classmethod
    def make(cls, names, relators) -> "GroupPresentation":
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PresentationError("duplicate generator names")
        n = len(names)
        kept = _dedupe(map(free_reduce, relators))
        # a dropped duplicate has the letters of an earlier kept relator,
        # so the first bad kept relator is the first bad one of the input
        for w in kept:
            if min(w) < -n or max(w) > n or 0 in w:
                x = next(x for x in w if not 1 <= abs(x) <= n)
                raise PresentationError(
                    f"relator references generator {abs(x)} outside 1..{n}"
                )
        return cls(names=names, relators=tuple(kept))

    @property
    def generator_count(self):
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise PresentationError(f"unknown generator {name!r}") from None

    def involutions(self) -> frozenset[int]:
        """Generators g with an explicit relator g^2."""
        out = set()
        for w in self.relators:
            if len(w) == 2 and w[0] == w[1]:
                out.add(abs(w[0]))
        return frozenset(out)

    def total_relator_length(self):
        return sum(len(w) for w in self.relators)


# ---------------------------------------------------------------------------
# braid relation templates


def triple_word(i: int, j: int) -> Word:
    """Cusp relation <g_i, g_j>: g_i g_j g_i = g_j g_i g_j as a relator."""
    return (i, j, i, -j, -i, -j)


def commutator_word(i: int, j: int) -> Word:
    return (i, j, -i, -j)


# ---------------------------------------------------------------------------
# relation grammar
#
#   sq K | triple I J | comm I J | ccomm I : W | eq: W1 = W2 | word: W
#   where W is whitespace-separated tokens gK or gK^-1.


def _token_table(names) -> dict[str, int]:
    """Each token that reads as one letter: a name as its generator's id K,
    the name followed by ``^-1`` as -K.  A caret elsewhere is a bad
    exponent, so a name with a caret reads only inverted; of duplicate
    names the first stands."""
    table = {}
    for k, name in enumerate(names, 1):
        if "^" not in name:
            table.setdefault(name, k)
        table.setdefault(name + "^-1", -k)
    return table


def _parse_tokens(tokens, table, line, offset):
    """The word of ``tokens``, one lookup each in the token table; the
    first token it lacks is diagnosed, at its position."""
    try:
        return tuple(map(table.__getitem__, tokens))
    except KeyError as exc:
        tok = exc.args[0]
    pos = offset + tokens.index(tok)
    if "^" in tok and not tok.endswith("^-1"):
        raise RelationSyntaxError(f"bad exponent in token {tok!r}", line, pos)
    raise RelationSyntaxError(f"unknown generator {tok.removesuffix('^-1')!r}", line, pos)


def _parse_index(tok, table, line, pos):
    if not tok.isdigit():
        raise RelationSyntaxError(f"expected generator number, got {tok!r}", line, pos)
    name = f"g{tok}"
    if name not in table:
        raise RelationSyntaxError(f"unknown generator {name!r}", line, pos)
    return table[name]


def parse_relation(line: str, names) -> Word:
    """Parse one relation-grammar line into a relator word over ``names``.

    Each token of a word is one lookup in the table of the names' tokens,
    built once per call, so a word parses in time linear in its length.
    The first token the table lacks raises :class:`RelationSyntaxError`,
    a bad exponent or an unknown generator, at its token position.  The
    word is returned as the line writes it, not free-reduced: whoever
    stores it reduces it once, as :func:`build_tilde_presentation` and
    :meth:`GroupPresentation.make` do.
    """
    return _parse_relation(line, _token_table(names))


def _parse_relation(line, table) -> Word:
    """:func:`parse_relation` on a token table of the names, so that a
    caller parsing several lines over one set of names builds it once."""
    tokens = line.split()
    if not tokens:
        raise RelationSyntaxError("empty relation line", line, 0)
    head = tokens[0]
    if head == "sq":
        if len(tokens) != 2:
            raise RelationSyntaxError("usage: sq K", line, len(tokens))
        k = _parse_index(tokens[1], table, line, 1)
        return (k, k)
    if head in ("triple", "comm"):
        if len(tokens) != 3:
            raise RelationSyntaxError(f"usage: {head} I J", line, len(tokens))
        i = _parse_index(tokens[1], table, line, 1)
        j = _parse_index(tokens[2], table, line, 2)
        return triple_word(i, j) if head == "triple" else commutator_word(i, j)
    if head == "ccomm":
        if len(tokens) < 4 or tokens[2] != ":":
            raise RelationSyntaxError("usage: ccomm I : W", line, 2)
        i = _parse_index(tokens[1], table, line, 1)
        w = _parse_tokens(tokens[3:], table, line, 3)
        return (i,) + w + (-i,) + invert_word(w)
    if head == "eq:":
        if "=" not in tokens:
            raise RelationSyntaxError("eq: needs '=' between two words", line, 1)
        sep = tokens.index("=")
        w1 = _parse_tokens(tokens[1:sep], table, line, 1)
        w2 = _parse_tokens(tokens[sep + 1 :], table, line, sep + 1)
        if not w1 or not w2:
            raise RelationSyntaxError("eq: needs two non-empty words", line, sep)
        return w1 + invert_word(w2)
    if head == "word:":
        w = _parse_tokens(tokens[1:], table, line, 1)
        if not w:
            raise RelationSyntaxError("word: needs a non-empty word", line, 1)
        return w
    raise RelationSyntaxError(f"unknown relation form {head!r}", line, 0)


def format_word(word, names) -> str:
    return " ".join(
        names[abs(x) - 1] + ("" if x > 0 else "^-1") for x in word
    ) or "1"


def format_relation(w, names) -> str:
    """Render a relator in the relation grammar (recognizing sq/triple/comm)
    as it is stored: a relator of a presentation is already reduced."""

    def num(x):
        name = names[abs(x) - 1]
        return name[1:] if name.startswith("g") and name[1:].isdigit() else None

    if len(w) == 2 and w[0] == w[1] and w[0] > 0 and num(w[0]):
        return f"sq {num(w[0])}"
    if len(w) == 4 and w[0] > 0 and w[1] > 0 and (w[2], w[3]) == (-w[0], -w[1]):
        if num(w[0]) and num(w[1]):
            return f"comm {num(w[0])} {num(w[1])}"
    if (
        len(w) == 6
        and w[0] > 0
        and w[1] > 0
        and w[:3] == (w[0], w[1], w[0])
        and w[3:] == (-w[1], -w[0], -w[1])
        and num(w[0])
        and num(w[1])
    ):
        return f"triple {num(w[0])} {num(w[1])}"
    return "word: " + format_word(w, names)


# ---------------------------------------------------------------------------
# presentation generation from a complex


def build_tilde_presentation(
    c: DegenerationComplex,
    include_projective: bool = True,
    classes: list[VertexClass] | None = None,
) -> GroupPresentation:
    """Generate the quotient-group presentation of a degeneration complex.

    Expects a complex that :func:`~galcov.complexes.validate` accepts.
    One generator per edge; relators in the order squares, triples,
    commutators, branch relations, overrides, projective relator, with
    duplicates up to rotation and inversion dropped.  Each edge pair gets
    a triple when the two edges share a plane and a commutator otherwise:
    by the plane rule, edges that share a plane share a vertex, so these
    are the braids at the vertices, and the commutators are the parasitic
    pairs and the 4-point diagonals.  The templates are reduced as
    written, so only the override lines are free-reduced; they and the
    projective relator are parsed through one token table.  Raises
    :class:`PresentationError` when a vertex names an edge the complex
    lacks, and :class:`MissingFourPointData` when the complex has an
    inner 4-point but no override relations.  ``classes`` holds the
    :func:`~galcov.complexes.classify_vertex` class of each vertex, in the
    order of ``c.vertices``; without it each vertex is classified here.
    """
    edge_ids = sorted(e.id for e in c.edges)
    if edge_ids != list(range(1, len(edge_ids) + 1)):
        raise PresentationError("complex edge ids must be consecutive 1..E")
    names = tuple(f"g{i}" for i in edge_ids)
    for v in c.vertices:
        if missing := [x for x in sorted(v.edges) if not 1 <= x <= len(edge_ids)]:
            raise PresentationError(f"vertex {v.id} references missing edge {missing[0]}")

    if classes is None:
        classes = [classify_vertex(c, v) for v in c.vertices]
    has_four_point = any(isinstance(cl, Inner4) for cl in classes)
    if has_four_point and (c.overrides is None or not c.overrides.extra_relators):
        raise MissingFourPointData(
            f"complex {c.name!r} has inner 4-points; supply override relations"
        )

    relators = [(i, i) for i in edge_ids]
    planes = {e.id: set(e.planes) for e in c.edges}
    commuting = []
    for a, b in itertools.combinations(edge_ids, 2):
        if planes[a].isdisjoint(planes[b]):
            commuting.append(commutator_word(a, b))
        else:
            relators.append(triple_word(a, b))
    relators += commuting

    for cl in classes:
        if isinstance(cl, Inner3):
            i, j, k = cl.edges
            relators.append((k, i, j, i))

    if c.overrides is not None:
        table = _token_table(names)
        lines = list(c.overrides.extra_relators)
        if include_projective and c.overrides.projective_relator is not None:
            lines.append(c.overrides.projective_relator)
        relators += (free_reduce(_parse_relation(line, table)) for line in lines)

    return GroupPresentation(names, tuple(_dedupe(relators)))


def projective_relator(c: DegenerationComplex) -> Word | None:
    """The dataset's projective relator as a word, or None."""
    if c.overrides is None or c.overrides.projective_relator is None:
        return None
    names = tuple(f"g{e.id}" for e in sorted(c.edges, key=lambda e: e.id))
    return parse_relation(c.overrides.projective_relator, names)


# ---------------------------------------------------------------------------
# a relation's check on a coset table, and the plane graph's Hamiltonian paths


def relation_holds(gen, replacement, table, assignment) -> bool:
    """Does gen = replacement hold in the group G?

    ``table`` is a closed coset table of G over a subgroup H that meets
    the kernel K of ``assignment``, a homomorphism G -> S_n, trivially,
    such as the S_n complement of :func:`complement_path`.
    A word is 1 in G exactly when its image is the identity and it fixes
    coset 0, which is H itself: then it lies in H and in K, and H meets K
    only in 1.  So a stated relation passes, as every consequence does.
    """
    word = free_reduce((-gen,) + tuple(replacement))
    n = assignment.degree
    return table.trace(0, word) == 0 and (
        _evaluate(assignment.letters, word, n) == tuple(range(n + 1))
    )


def hamiltonian_paths(pres, assignment, starts, bound):
    """Yield the generators and the planes of each Hamiltonian path of the
    plane graph, from a plane of ``starts``, whose generators state the
    Coxeter presentation of S_n (Coxeter and Moser, 1957).

    The plane graph joins the two planes that an involution's image
    transposes, an involution being a generator with a stated square.
    The walk is depth first, from the starts in order, along edges in
    generator order.  It extends a path by g only when g's braid with the
    path's last generator is stated, and its commutator with every earlier
    one.  It raises :class:`SearchBound` when ``bound`` partial paths
    leave it unfinished.
    """
    n = assignment.degree
    relators = set(pres.relators)
    edges = {plane: [] for plane in range(1, n + 1)}
    for g in sorted(pres.involutions()):
        moved = assignment.moved[g - 1]
        if len(moved) == 2:
            a, b = moved
            edges[a].append((g, b))
            edges[b].append((g, a))
    stack = [((), (plane,)) for plane in reversed(starts)]
    for _ in range(bound):
        if not stack:
            return
        path, planes = stack.pop()
        if len(planes) == n:
            yield path, planes
        stack.extend(
            (path + (g,), planes + (b,))
            for g, b in reversed(edges[planes[-1]])
            if b not in planes and is_stated_along(relators, path, g, path[-1:])
        )
    if stack:
        raise SearchBound(f"walk of the plane graph stopped at {bound} partial paths")


def complement_path(pres, assignment, bound):
    """Generators and planes along the first path of
    :func:`hamiltonian_paths` from any plane, lowest first, or ((), ()),
    with no planes, when the walk finds none within ``bound`` partial
    paths.

    ``assignment`` must be a homomorphism onto S_n.  The path generators
    state the Coxeter presentation of S_n and have transposition images,
    so their subgroup H is a quotient of S_n, and maps onto S_n because
    its transpositions join all n planes: H is S_n, meets the kernel K
    trivially, and [G:H] = |K|.
    """
    paths = hamiltonian_paths(pres, assignment, range(1, assignment.degree + 1), bound)
    try:
        return next(paths, ((), ()))
    except SearchBound:
        return (), ()


# ---------------------------------------------------------------------------
# Tietze eliminations


def eliminate_in_turn(pres, gens, words, companions=()):
    """Eliminate the generators named ``gens`` in turn, each by its word
    of ``words``, and rewrite ``companions`` along; returns the
    presentation and the rewritten companions.

    A word may name a generator eliminated before it, and an earlier word
    may name a generator eliminated after it; so the eliminations compose
    into one map, which one :func:`eliminate_and_rewrite` pass applies.
    """
    image = {}
    for name, word in zip(gens, words):
        g = pres.id_of(name)
        (w,) = _apply([word], image, [], [])
        step = {g: w, -g: invert_word(w)}
        image = dict(zip(image, _apply(image.values(), step, [], [])))
        image.update(step)
    return eliminate_and_rewrite(pres, image, companions)


def eliminate_and_rewrite(pres, image, companions):
    """Drop every generator that ``image`` maps to a word over the
    generators that stay, and rewrite the relators and the companion
    words through that map and the renumbering in one pass.

    Callers are responsible for having established that each generator
    equals its word (no validity check).  A word that names a generator
    the map also drops raises :class:`PresentationError`.
    """
    names, number = [], {}
    for g, name in enumerate(pres.names, 1):
        if g not in image:
            names.append(name)
            number[g], number[-g] = len(names), -len(names)
    for x, w in image.items():
        if dropped := [abs(y) for y in w if y not in number]:
            raise PresentationError(
                f"the word for {pres.names[abs(x) - 1]} names "
                f"{pres.names[dropped[0] - 1]}, which is eliminated too"
            )
    renumbered = {x: tuple(map(number.__getitem__, w)) for x, w in image.items()}
    renumbered.update((x, (y,)) for x, y in number.items())
    words = _apply(pres.relators + tuple(companions), renumbered, [], [])
    k = len(pres.relators)
    return GroupPresentation(tuple(names), tuple(_dedupe(words[:k]))), tuple(words[k:])
