"""Identity tests for Tietze simplification.

``simplify_presentation`` applies its moves in place, to the relators a
move touches.  Its output must equal, relator for relator, what rebuilding
the whole presentation through ``GroupPresentation.make`` after every move
returns.  ``reference_simplify`` below is that rebuild, and the oracle tests
compare the two on seeded random presentations and relabeled t4 kernels.
The fingerprints are sha256 digests of ``repr((names, relators))`` of the
rebuild's output, taken before the incremental version replaced it.  The
dt4 kernel fingerprint was taken again, by that same rebuild, when
Reidemeister-Schreier began to give one Schreier generator per involution
orbit: its input changed, its size (4 generators, 817 relators, 10,918
letters) did not."""

import hashlib
import random

import pytest

from galcov import tietze
from galcov.datasets import load_builtin
from galcov.enumeration import coset_enumeration
from galcov.kernel import abelianization, kernel_coset_table, reidemeister_schreier
from galcov.permutations import plane_transposition_map
from galcov.presentation import GroupPresentation, build_tilde_presentation
from galcov.tietze import simplify_presentation

from .conftest import relabel_complex


def fingerprint(pres):
    return hashlib.sha256(repr((pres.names, pres.relators)).encode()).hexdigest()


def kernel_presentation(c):
    """Reidemeister-Schreier presentation of the kernel onto S_n."""
    pres = build_tilde_presentation(c)
    table = kernel_coset_table(pres, plane_transposition_map(c))
    return reidemeister_schreier(pres, table)


TRIVIAL = "56546d2909af60407f1b144ea7574bf0cb4c48af72e18baac6c9da2036df2a88"

# dataset -> (fingerprint, generators, relators, letters) of its kernel
KERNEL_FINGERPRINTS = {
    "t4": (TRIVIAL, 0, 0, 0),
    "dt4": (
        "586b21c7c90c9ecec72ae4ed709c301fa9a95f043f97942ec7316b79d702b760",
        4,
        817,
        10918,
    ),
}

# (dataset, include_projective, eliminate_up_to) -> fingerprint; t4 has no
# projective relator, so both of its variants are the same presentation
BUILD_FINGERPRINTS = {
    ("t4", proj, 2): "4f409031dbae9db38483daac84fce8d214480e3f385c13ea95b61ae22bc8fc8a"
    for proj in (True, False)
} | {
    ("t4", proj, 4): "9c3c6e0d95d27dc41eb2fb214d4f5f96345f472dc3e5ff7a84563775f25e0c74"
    for proj in (True, False)
} | {
    ("t4", proj, 6): "7076a572af914c3b9a8cd8cadcdb97e0fdcf5576bab6517db6e26c492f7014d6"
    for proj in (True, False)
} | {
    ("dt4", True, 2): "b9a5215fe1834eef3ef99a7423c02c29bd9eedd93af38bc036cb1ec46c7ebc40",
    ("dt4", True, 4): "b385eabf23ee5cbc056121f4769c816b9e88dfa51552468c7ef13bfc95def853",
    ("dt4", True, 6): "b385eabf23ee5cbc056121f4769c816b9e88dfa51552468c7ef13bfc95def853",
    ("dt4", False, 2): "acac671900113d8cba9acfdb10b9803292af68147e41d8a8014f7c8ac27948ad",
    ("dt4", False, 4): "16e7f02c175193b02cdf467f9d5f71b212775637c0fa30b346c37fd112e1afec",
    ("dt4", False, 6): "16e7f02c175193b02cdf467f9d5f71b212775637c0fa30b346c37fd112e1afec",
}

# seed of relabel_complex(t4, random.Random(seed)) -> fingerprint of the
# simplified tilde presentation; every relabeled t4 kernel is trivial
RELABELED_T4_FINGERPRINTS = {
    1: "f23ea0b3bcb6aa81e08e1d23b0e4ef589145f522997ba8484e2710ad60947d72",
    2: "37f864f2ac734cd4d929b0f07ed803e84e1d2685f3a12f28787c5ef0485c0d4b",
    3: "52106e8652fc947f6d61edd123888cc8e1325896af772b032b2c00a6f7233f09",
}


@pytest.mark.parametrize("name", sorted(KERNEL_FINGERPRINTS))
def test_simplified_kernel_presentation_is_unchanged(name):
    simplified = simplify_presentation(kernel_presentation(load_builtin(name)))
    assert (
        fingerprint(simplified),
        simplified.generator_count,
        len(simplified.relators),
        simplified.total_relator_length(),
    ) == KERNEL_FINGERPRINTS[name]


@pytest.mark.parametrize("key", sorted(BUILD_FINGERPRINTS))
def test_simplified_tilde_presentation_is_unchanged(key):
    name, include_projective, eliminate_up_to = key
    pres = build_tilde_presentation(load_builtin(name), include_projective)
    simplified = simplify_presentation(pres, eliminate_up_to=eliminate_up_to)
    assert fingerprint(simplified) == BUILD_FINGERPRINTS[key]


@pytest.mark.parametrize("seed", sorted(RELABELED_T4_FINGERPRINTS))
def test_simplified_relabeled_t4_is_unchanged(seed):
    c = relabel_complex(load_builtin("t4"), random.Random(seed))
    assert fingerprint(simplify_presentation(build_tilde_presentation(c))) == (
        RELABELED_T4_FINGERPRINTS[seed]
    )
    assert fingerprint(simplify_presentation(kernel_presentation(c))) == TRIVIAL


def test_merge_round_after_elimination():
    # eliminating a = c^-1 b^-1 (from a b c) turns a b d into the length-2
    # relator c^-1 d, so c and d merge after the elimination; c^3 then
    # duplicates d^3 and only the first copy stays
    p = GroupPresentation.make(
        ("a", "b", "c", "d"),
        [(1, 2, 3), (1, 2, 4), (3, 3, 3), (4, 4, 4), (2, 2), (2, 3, 2, 3)],
    )
    q = simplify_presentation(p)
    assert q.names == ("b", "d")
    assert q.relators == ((2, 2, 2), (1, 1), (1, 2, 1, 2))
    assert fingerprint(q) == (
        "35188e8850b3a8a30042df291669297eeb79fc3b30649fc30435478e77b83f6e"
    )
    assert coset_enumeration(p, (), 1000).coset_count == 6
    assert coset_enumeration(q, (), 1000).coset_count == 6
    assert abelianization(p) == abelianization(q) == (2,)


def test_simplify_without_moves_returns_input():
    p = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3])
    assert simplify_presentation(p) is p


def random_presentations(
    seed, count, generators=(1, 6), relators=(0, 10), lengths=(1, 2, 2, 3, 4, 4, 5, 6)
):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(*generators)
        words = [
            tuple(rng.choice((-1, 1)) * rng.randint(1, m) for _ in range(rng.choice(lengths)))
            for _ in range(rng.randint(*relators))
        ]
        yield GroupPresentation.make([f"x{i}" for i in range(1, m + 1)], words)


def test_apply_matches_expand_then_reduce():
    # the in-place rewrite substitutes and reduces in one sweep, and reports
    # the letters it replaced and those that cancelled, from which the
    # occurrence counts are updated
    from collections import Counter

    from galcov.presentation import free_reduce, invert_word

    rng = random.Random(11)
    seams = 0
    for _ in range(3000):
        gens = rng.randint(1, 4)
        word = free_reduce(
            rng.choice((-1, 1)) * rng.randint(1, gens) for _ in range(rng.randint(0, 10))
        )
        gen = rng.randint(1, gens)
        if rng.random() < 0.5:
            # an elimination: gen becomes a word that often starts or ends
            # with the inverse of a neighbour of gen
            repl = free_reduce(
                rng.choice((-1, 1)) * rng.randint(1, gens) for _ in range(rng.randint(0, 4))
            )
            image = {gen: repl, -gen: invert_word(repl)}
        else:
            # a merge or a kill: gen becomes another letter or nothing
            y = rng.choice((-1, 1)) * rng.randint(1, gens)
            image = {gen: (y,), -gen: (-y,)} if abs(y) != gen else {gen: (), -gen: ()}
        expanded = [y for x in word for y in image.get(x, (x,))]
        moved, cancelled = [], []
        (new,) = tietze._apply([word], image, moved, cancelled)
        assert new == free_reduce(expanded), (word, image)
        assert moved == [x for x in word if x in image]
        counts = Counter(map(abs, word))
        for x in moved:
            counts[abs(x)] -= 1
            counts.update(map(abs, image[x]))
        for x in cancelled:
            counts[abs(x)] -= 2
        assert {g: c for g, c in counts.items() if c} == Counter(map(abs, new))
        seams += bool(cancelled)
    assert seams > 300


# ---------------------------------------------------------------------------
# reference: every move rebuilds the whole presentation through make


def naive_reduce(word):
    word = list(word)
    i = 0
    while i + 1 < len(word):
        if word[i] == -word[i + 1]:
            del word[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(word)


def reference_merge_round(pres):
    """One union-find round over the length-1 and length-2 relators, in
    relator order, then the rebuilt presentation; None when nothing merges."""
    parent, sign, dead = {}, {}, set()

    def find(g):
        s = 1
        while g in parent:
            s *= sign[g]
            g = parent[g]
        return g, s

    changed = False
    for w in pres.relators:
        if len(w) == 1:
            r, _ = find(abs(w[0]))
            if r not in dead:
                dead.add(r)
                changed = True
        elif len(w) == 2:
            (ra, sa), (rb, sb) = find(abs(w[0])), find(abs(w[1]))
            if ra == rb:
                continue
            parent[ra] = rb
            sign[ra] = -sa * sb * (1 if w[0] > 0 else -1) * (1 if w[1] > 0 else -1)
            if ra in dead:
                dead.discard(ra)
                dead.add(rb)
            changed = True
    if not changed:
        return None
    # a surviving root takes the place of the first member of its class
    first = {}
    image = {}
    for g in range(1, pres.generator_count + 1):
        r, s = find(g)
        image[g] = 0 if r in dead else s * r
        if r not in dead:
            first.setdefault(r, g)
    order = sorted(first, key=first.get)
    number = {r: i for i, r in enumerate(order, 1)}

    def letter(x):
        y = image[x] if x > 0 else -image[-x]
        return 0 if y == 0 else (number[y] if y > 0 else -number[-y])

    return GroupPresentation.make(
        [pres.names[r - 1] for r in order],
        [tuple(y for y in map(letter, w) if y) for w in pres.relators],
    )


def reference_elimination(pres, max_len):
    """The cheapest elimination by a scan of every relator, or None."""
    occurrences = {}
    for w in pres.relators:
        for x in w:
            occurrences[abs(x)] = occurrences.get(abs(x), 0) + 1
    best = None
    for i, w in enumerate(pres.relators):
        if len(w) > max_len:
            continue
        for t, x in enumerate(w):
            g = abs(x)
            if w.count(g) + w.count(-g) != 1:
                continue
            cost = (len(w) - 1) * (occurrences[g] - 1)
            if best is None or (cost, i, t) < best[0]:
                rot = w[t:] + w[:t]
                rest = rot[1:] if rot[0] < 0 else tuple(-y for y in reversed(rot[1:]))
                best = ((cost, i, t), g, naive_reduce(rest))
    return None if best is None else best[1:]


def reference_simplify(pres, eliminate_up_to=4):
    start = pres
    while True:
        merged = reference_merge_round(pres)
        if merged is not None:
            pres = merged
            continue
        step = reference_elimination(pres, eliminate_up_to)
        if step is None:
            return pres
        gen, repl = step
        inverse = tuple(-y for y in reversed(repl))
        keep = [g for g in range(1, pres.generator_count + 1) if g != gen]
        number = {g: i for i, g in enumerate(keep, 1)}

        def expand(w):
            out = []
            for x in w:
                out.extend(repl if x == gen else inverse if x == -gen else (x,))
            return [number[y] if y > 0 else -number[-y] for y in naive_reduce(out)]

        pres = GroupPresentation.make(
            [pres.names[g - 1] for g in keep], map(expand, pres.relators)
        )
        assert pres is not start


def test_simplify_matches_per_move_rebuild():
    for i, p in enumerate(random_presentations(2024, 400)):
        q = simplify_presentation(p, eliminate_up_to=i % 5 + 1)
        assert q == reference_simplify(p, eliminate_up_to=i % 5 + 1), p
        assert abelianization(p) == abelianization(q)


def test_simplify_matches_per_move_rebuild_on_larger_presentations():
    # enough relators per generator that occurrence counts, and so the
    # costs of waiting candidates, change between eliminations
    cases = random_presentations(
        7, 1000, generators=(4, 10), relators=(10, 40), lengths=range(1, 9)
    )
    for i, p in enumerate(cases):
        q = simplify_presentation(p, eliminate_up_to=i % 5 + 2)
        assert q == reference_simplify(p, eliminate_up_to=i % 5 + 2), p


@pytest.mark.parametrize("seed", sorted(RELABELED_T4_FINGERPRINTS))
def test_relabeled_t4_kernel_matches_per_move_rebuild(seed):
    pres = kernel_presentation(relabel_complex(load_builtin("t4"), random.Random(seed)))
    for eliminate_up_to in (2, 4, 6):
        assert simplify_presentation(pres, eliminate_up_to) == reference_simplify(
            pres, eliminate_up_to
        )


def test_rotated_duplicate_is_dropped_where_it_arises():
    # the first merge round makes c d a e a rotation of a b c d, which make
    # drops; the second (c = b^-1) would give them different keys, a d and
    # b^-1 d a b, so deduplicating only once the merges are done keeps both
    p = GroupPresentation.make(
        "a b c d e y z f".split(),
        [(1, 2, 3, 4, 8), (3, 4, 8, 1, 5), (2, -5), (3, 2, 6, -7), (6, -7)],
    )
    stats = {}
    q = simplify_presentation(p, eliminate_up_to=2, stats=stats)
    assert q == reference_simplify(p, eliminate_up_to=2)
    assert (q.names, q.relators) == (("a", "e", "d", "z", "f"), ((1, 3, 5),))
    assert stats["merge_rounds"] == stats["full_passes"] == 2


def test_simplify_stats_dt4_kernel():
    stats = {}
    simplify_presentation(kernel_presentation(load_builtin("dt4")), stats=stats)
    assert stats == {
        "generators_in": 2521,
        "relators_in": 8280,
        "letters_in": 42111,
        "generators_out": 4,
        "relators_out": 817,
        "letters_out": 10918,
        "merge_rounds": 5,
        "full_passes": 5,
        "eliminations": 51,
    }
