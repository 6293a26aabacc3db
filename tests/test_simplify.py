"""Identity tests for Tietze simplification.

``simplify_presentation`` applies its moves in place, to the relators a
move touches.  Its output must equal, relator for relator, what the
per-move rebuild of the whole presentation returned.  The fingerprints
below are sha256 digests of ``repr((names, relators))`` of that rebuild's
output, taken before the incremental version replaced it.  The dt4 kernel
fingerprint was taken again, by that same rebuild, when Reidemeister-Schreier
began to give one Schreier generator per involution orbit: its input changed,
its size (4 generators, 817 relators, 10,918 letters) did not.
"""

import hashlib
import random

import pytest

from galcov import tietze
from galcov.datasets import load_builtin
from galcov.enumeration import coset_enumeration, group_order
from galcov.kernel import abelian_invariants, kernel_coset_table, reidemeister_schreier
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
    assert group_order(coset_enumeration(p, (), 1000)) == 6
    assert group_order(coset_enumeration(q, (), 1000)) == 6
    assert abelian_invariants(p) == abelian_invariants(q) == (2,)


def test_simplify_without_moves_returns_input():
    p = GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3])
    assert simplify_presentation(p) is p


def random_presentations(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 6)
        relators = [
            tuple(
                rng.choice((-1, 1)) * rng.randint(1, m)
                for _ in range(rng.choice((1, 2, 2, 3, 4, 4, 5, 6)))
            )
            for _ in range(rng.randint(0, 10))
        ]
        yield GroupPresentation.make([f"x{i}" for i in range(1, m + 1)], relators)


def test_in_place_moves_agree_with_full_passes(monkeypatch):
    # a move touching at least FULL_PASS_SHARE of the letters is one pass
    # over every relator, which is the per-move rebuild itself; forcing
    # either strategy for every move must give the same presentation
    cases = list(random_presentations(2024, 400))
    outputs = {}
    for share in (0.0, float("inf")):
        monkeypatch.setattr(tietze._TietzeState, "FULL_PASS_SHARE", share)
        outputs[share] = [
            simplify_presentation(p, eliminate_up_to=i % 5 + 1)
            for i, p in enumerate(cases)
        ]
    assert outputs[0.0] == outputs[float("inf")]
    for p, q in zip(cases, outputs[0.0]):
        assert abelian_invariants(p) == abelian_invariants(q)
