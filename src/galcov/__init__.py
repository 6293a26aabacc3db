"""Galois covers of degenerated surfaces: groups, kernels, and signatures.

Given a combinatorial description of a surface degenerating to a union of
planes, this package generates the quotient group of the branch-curve
complement (one involution per intersection line), enumerates its order,
identifies the kernel of the map onto the symmetric group -- which is the
fundamental group of the Galois cover -- and computes the Chern numbers
and signature of the cover.  The kernel is read from its regular action
on a coset table over an S_n complement; two independent routes are
provided for cross-checking: Reidemeister-Schreier rewriting, and a
Coxeter-type quotient acting on a root lattice.
"""

from .complexes import (
    ComplexError,
    ComplexParseError,
    DegenerationComplex,
    Edge,
    Inner3,
    Inner4,
    PresentationOverrides,
    UnsupportedMultiplicity,
    ValidationReport,
    Vertex,
    classify_vertex,
    parasitic_pairs,
    parse_complex,
    serialize_complex,
    validate,
)
from .coxeter import (
    CoxeterGraph,
    CoxeterRoute,
    coxeter_route,
    lattice_quotient,
    standard_assignment,
)
from .datasets import builtin_names, load_builtin
from .enumeration import (
    CosetTable,
    EnumerationOverflow,
    coset_enumeration,
    group_order,
)
from .invariants import (
    ChernSignature,
    InvariantCounts,
    chern_numbers,
    chern_signature,
    signature,
    singularity_counts,
)
from .kernel import (
    StructureVerdict,
    abelianization,
    identify_structure,
    kernel_coset_table,
    regular_kernel,
    reidemeister_schreier,
    smith_normal_form,
)
from .permutations import (
    Permutation,
    SymmetricAssignment,
    permutation_group_order,
    plane_transposition_map,
    verify_homomorphism,
)
from .presentation import (
    GroupPresentation,
    MissingFourPointData,
    PresentationError,
    Word,
    build_tilde_presentation,
    free_reduce,
    parse_relation,
)
from .tietze import simplify_presentation

__version__ = "1.0.0"
