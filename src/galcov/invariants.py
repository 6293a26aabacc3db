"""Singularity counts and Chern/signature invariants of the Galois cover.

The branch curve of the degenerated surface is a line arrangement, one
line per edge; after regeneration each line doubles, tangencies become
cusps, and the parasitic intersections become nodes.  Only the counts
matter here:

    n   = number of planes (degree of the projection)
    m   = 2 * edges (degree of the regenerated branch curve)
    mu  = 2 * edges + (#inner 3-points)         branch points
    d   = 4 * (#parasitic pairs) + 4 * (#inner 4-points)    nodes
    rho = 6 * (#inner 3-points) + 12 * (#inner 4-points)    cusps

The per-singularity rules are calibrated on the two shipped datasets and
carry a provenance warning: they are validated for inner 3- and 4-points
only.  From the counts,

    c1^2 = n!/4 * (m - 6)^2
    c2   = n!   * (3 - m + d/4 + mu/2 + rho/6)
    chi  = (c1^2 - 2*c2) / 3

computed in exact integer/rational arithmetic (no floating point).
Noether's formula makes c1^2 + c2 divisible by 12 on a smooth surface; a
count that breaks it gets a warning, not a rejection.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .complexes import DegenerationComplex, Inner3, Inner4, VertexClass, classify_vertex

COUNTING_RULE_WARNING = (
    "singularity counting rules are validated for inner 3- and 4-points only"
)

_MAX_DEGREE = 10


class InvariantError(Exception):
    pass


class InvariantCounts(NamedTuple):
    n: int    # degree of the projection
    m: int    # degree of the branch curve
    mu: int   # branch points
    d: int    # nodes
    rho: int  # cusps


class ChernSignature(NamedTuple):
    c1sq: int | Fraction
    c2: int | Fraction
    chi: int | Fraction
    warnings: tuple[str, ...] = ()


def singularity_counts(
    c: DegenerationComplex, classes: list[VertexClass] | None = None
) -> InvariantCounts:
    """Count singularities of the regenerated branch curve.

    Expects a complex that :func:`~galcov.complexes.validate` accepts.
    ``classes`` holds the :func:`~galcov.complexes.classify_vertex` class
    of each vertex, in the order of ``c.vertices``; without it each
    vertex is classified here.  The parasitic pairs are the edge pairs
    that meet at no vertex.
    """
    if classes is None:
        classes = [classify_vertex(c, v) for v in c.vertices]
    inner3 = sum(isinstance(cls, Inner3) for cls in classes)
    inner4 = sum(isinstance(cls, Inner4) for cls in classes)
    met = set()
    for v in c.vertices:
        met.update(itertools.combinations(sorted(v.edges), 2))
    e = c.edge_count
    parasitic = math.comb(e, 2) - len(met)
    return InvariantCounts(
        n=c.plane_count,
        m=2 * e,
        mu=2 * e + inner3,
        d=4 * parasitic + 4 * inner4,
        rho=6 * inner3 + 12 * inner4,
    )


def _exact(num: int, den: int):
    """num/den as an int when den divides num, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def chern_numbers(k: InvariantCounts):
    """(c1^2, c2) of the Galois cover, exact: c1^2 = n!(m - 6)^2/4 and
    c2 = n!(36 - 12m + 3d + 6mu + 2rho)/12, each an int, or a Fraction
    when it is not an integer."""
    if k.n > _MAX_DEGREE:
        raise InvariantError(
            f"degree {k.n} exceeds the supported bound {_MAX_DEGREE} (factorial guard)"
        )
    if min(k) < 0:
        raise InvariantError("counts must be nonnegative")
    nfact = math.factorial(k.n)
    c1sq = _exact(nfact * (k.m - 6) ** 2, 4)
    c2 = _exact(nfact * (36 - 12 * k.m + 3 * k.d + 6 * k.mu + 2 * k.rho), 12)
    return c1sq, c2


def signature(c1sq, c2):
    """chi = (c1^2 - 2*c2)/3, exact: an int, or a Fraction when it is not
    an integer."""
    num, den = (c1sq - 2 * c2).as_integer_ratio()
    return _exact(num, 3 * den)


def chern_signature(k: InvariantCounts) -> ChernSignature:
    """Chern numbers plus signature, with integrality and Noether warnings."""
    c1sq, c2 = chern_numbers(k)
    warnings = [COUNTING_RULE_WARNING]
    for label, value in (("c1^2", c1sq), ("c2", c2)):
        if isinstance(value, Fraction):
            warnings.append(f"{label} is not an integer; kept as an exact rational")
    if isinstance(c1sq, int) and isinstance(c2, int) and (c1sq + c2) % 12:
        warnings.append(
            f"c1^2 + c2 = {c1sq + c2} is not divisible by 12 (Noether's formula)"
        )
    chi = signature(c1sq, c2)
    if isinstance(chi, Fraction):
        warnings.append("chi is not an integer; kept as an exact rational")
    return ChernSignature(c1sq=c1sq, c2=c2, chi=chi, warnings=tuple(warnings))
