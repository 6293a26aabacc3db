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

Each submodule is imported on first use of a name it exports (PEP 562),
so a run compiles only the modules its route calls.
"""

import importlib

__version__ = "1.0.0"

# the public names of each submodule
_MODULE_EXPORTS = {
    "complexes": (
        "ComplexError", "ComplexParseError", "DegenerationComplex", "Edge", "Inner3", "Inner4",
        "PresentationOverrides", "UnsupportedMultiplicity", "ValidationReport", "Vertex",
        "classify_vertex", "parse_complex", "validate",
    ),
    "coxeter": (
        "CoxeterGraph", "CoxeterRoute", "coxeter_route", "lattice_quotient",
        "standard_assignment",
    ),
    "datasets": ("builtin_names", "load_builtin"),
    "enumeration": ("CosetTable", "EnumerationOverflow", "coset_enumeration"),
    "invariants": (
        "ChernSignature", "InvariantCounts", "chern_numbers", "chern_signature", "signature",
        "singularity_counts",
    ),
    "kernel": (
        "StructureVerdict", "abelianization", "identify_structure", "kernel_coset_table",
        "regular_kernel", "reidemeister_schreier", "smith_normal_form",
    ),
    "permutations": (
        "SymmetricAssignment", "permutation_group_order", "plane_transposition_map",
        "verify_homomorphism",
    ),
    "presentation": (
        "GroupPresentation", "MissingFourPointData", "PresentationError", "Word",
        "build_tilde_presentation", "free_reduce", "parse_relation",
    ),
    "tietze": ("simplify_presentation",),
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_MODULE_EXPORTS) | {"cli"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import the submodule that ``name`` is, or that exports it, and keep
    the result in this module's namespace."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
