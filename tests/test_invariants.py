import random
from fractions import Fraction

import pytest

from galcov.complexes import DegenerationComplex, Edge, Vertex
from galcov.invariants import (
    COUNTING_RULE_WARNING,
    InvariantCounts,
    InvariantError,
    chern_numbers,
    chern_signature,
    signature,
    singularity_counts,
)

from .conftest import random_valid_complex, relabel_complex


def test_counts_t4(t4):
    assert singularity_counts(t4) == (4, 12, 16, 12, 24)


def test_counts_dt4(dt4):
    assert singularity_counts(dt4) == (6, 18, 20, 60, 48)


def test_counts_triangle_cone():
    cone = DegenerationComplex(
        name="cone",
        plane_count=3,
        edges=(Edge(1, (1, 2)), Edge(2, (2, 3)), Edge(3, (1, 3))),
        vertices=(Vertex(1, frozenset({1, 2, 3})),),
    )
    # one inner 3-point, no parasitic pairs:
    # m = 2*3, mu = 6 + 1, d = 0, rho = 6*1
    assert singularity_counts(cone) == (3, 6, 7, 0, 6)


def test_chern_t4(t4):
    counts = singularity_counts(t4)
    c1sq, c2 = chern_numbers(counts)
    assert (c1sq, c2) == (216, 144)
    assert signature(c1sq, c2) == -24


def test_chern_dt4(dt4):
    counts = singularity_counts(dt4)
    c1sq, c2 = chern_numbers(counts)
    assert (c1sq, c2) == (25920, 12960)
    assert signature(c1sq, c2) == 0


def test_signature_signs(t4, dt4):
    assert signature(*chern_numbers(singularity_counts(t4))) < 0
    assert signature(*chern_numbers(singularity_counts(dt4))) == 0


def test_chern_degree_six_curve_kills_c1sq():
    counts = InvariantCounts(n=3, m=6, mu=7, d=0, rho=6)
    c1sq, c2 = chern_numbers(counts)
    assert c1sq == 0


def test_signature_zero_input():
    assert signature(0, 0) == 0


def test_signature_exact_rational():
    chi = signature(1, 0)
    assert chi == Fraction(1, 3)


def test_chern_rational_fallback_warns():
    # mu odd makes c2 fractional; the computation stays exact
    counts = InvariantCounts(n=3, m=6, mu=7, d=1, rho=1)
    report = chern_signature(counts)
    assert isinstance(report.c2, Fraction)
    assert any("exact rational" in w for w in report.warnings)


def test_counting_rule_warning_always_present(t4):
    report = chern_signature(singularity_counts(t4))
    assert COUNTING_RULE_WARNING in report.warnings


def test_factorial_guard():
    counts = InvariantCounts(n=11, m=2, mu=0, d=0, rho=0)
    with pytest.raises(InvariantError):
        chern_numbers(counts)


def test_counts_even_degree_and_integrality():
    rng = random.Random(9000)
    for _ in range(50):
        c = random_valid_complex(rng)
        k = singularity_counts(c)
        assert k.m % 2 == 0
        assert k.mu >= 0 and k.d >= 0 and k.rho >= 0


def test_counts_invariant_under_relabeling(dt4, t4):
    rng = random.Random(77)
    for base in (t4, dt4):
        expected = singularity_counts(base)
        for _ in range(20):
            assert singularity_counts(relabel_complex(base, rng)) == expected


def noether_warnings(report):
    return [w for w in report.warnings if "Noether" in w]


@pytest.mark.parametrize(
    "counts, total",
    [
        (InvariantCounts(n=3, m=6, mu=7, d=0, rho=0), 3),  # c1^2 = 0, c2 = 3
        (InvariantCounts(n=3, m=8, mu=8, d=4, rho=0), 6),  # c1^2 = 6, c2 = 0
    ],
)
def test_noether_failure_warns_and_keeps_the_numbers(counts, total):
    report = chern_signature(counts)
    assert report.c1sq + report.c2 == total
    assert noether_warnings(report) == [
        f"c1^2 + c2 = {total} is not divisible by 12 (Noether's formula)"
    ]
    assert chern_numbers(counts) == (report.c1sq, report.c2)


def test_noether_holds_on_the_builtins_and_random_valid_complexes(t4, dt4):
    # (c1^2 + c2) / 12 is 30 on t4 and 3,240 on dt4
    assert [sum(chern_numbers(singularity_counts(c))) // 12 for c in (t4, dt4)] == [30, 3240]
    rng = random.Random(12)
    for c in [t4, dt4] + [random_valid_complex(rng) for _ in range(50)]:
        assert noether_warnings(chern_signature(singularity_counts(c))) == []


def test_noether_is_not_checked_on_rational_numbers():
    # c2 is fractional here, so the integrality warning stands alone
    report = chern_signature(InvariantCounts(n=3, m=6, mu=7, d=1, rho=1))
    assert isinstance(report.c2, Fraction) and noether_warnings(report) == []
