"""Fundamental groups of quotients of products of curves by finite groups.

The package builds explicit finite presentations for the fundamental group
of X = (C_1 x ... x C_n)/G, where a finite group G acts on each curve
through a possibly non-faithful quotient, and reports on the structure of
that group: the finite extension it defines over a product of orbifold
quotient images, freeness of the action, abelianization, and a bounded
search for a finite-index subgroup resembling a product of surface groups.
"""

from .abelian import AbelianInvariants, invariants_from_matrix, smith_diagonal
from .coset import CosetOverflow, CosetTable, fiber_product_table, todd_coxeter
from .orbifold import (
    GeneratingVector,
    NegativeGenus,
    NonIntegralGenus,
    Signature,
    enumerate_generating_vectors,
    orbifold_presentation,
    quotient_signature,
    riemann_hurwitz_genus,
    validate_generating_vector,
)
from .perm import (
    FiniteGroup,
    GroupHom,
    Permutation,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    identity_hom,
    perm_from_cycles,
    quotient,
    symmetric_group,
    trivial_group,
)
from .presentation import (
    Presentation,
    abelian_invariants,
    direct_product_presentation,
    quotient_presentation,
    tietze_simplify,
)
from .product_quotient import (
    CurveAction,
    FreenessResult,
    InvalidVector,
    Pi1Result,
    StructureReport,
    TorsionElement,
    VerificationReport,
    build_curve_action,
    build_pi1,
    curve_group_image_words,
    freeness_check,
    kill_maps,
    lifted_orbifold_generators,
    quotient_signatures,
    structure_from_pi1,
    torsion_generators,
    verify_from_pi1,
)
from .rewrite import (
    WordNotInSubgroup,
    evaluate_word,
    kernel_subgroup_words,
    reidemeister_schreier,
    subgroup_abelian_invariants,
)
from .words import Word, free_reduce, parse_word

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "CosetOverflow",
    "CosetTable",
    "CurveAction",
    "FiniteGroup",
    "FreenessResult",
    "GeneratingVector",
    "GroupHom",
    "InvalidVector",
    "NegativeGenus",
    "NonIntegralGenus",
    "Permutation",
    "Pi1Result",
    "Presentation",
    "Signature",
    "StructureReport",
    "TorsionElement",
    "VerificationReport",
    "Word",
    "WordNotInSubgroup",
    "abelian_invariants",
    "build_curve_action",
    "build_pi1",
    "curve_group_image_words",
    "cyclic_group",
    "dihedral_group",
    "direct_product_group",
    "direct_product_presentation",
    "enumerate_generating_vectors",
    "evaluate_word",
    "fiber_product_table",
    "free_reduce",
    "freeness_check",
    "identity_hom",
    "kernel_subgroup_words",
    "kill_maps",
    "lifted_orbifold_generators",
    "orbifold_presentation",
    "parse_word",
    "perm_from_cycles",
    "quotient",
    "quotient_presentation",
    "quotient_signature",
    "quotient_signatures",
    "reidemeister_schreier",
    "riemann_hurwitz_genus",
    "smith_diagonal",
    "invariants_from_matrix",
    "structure_from_pi1",
    "subgroup_abelian_invariants",
    "symmetric_group",
    "tietze_simplify",
    "todd_coxeter",
    "torsion_generators",
    "trivial_group",
    "validate_generating_vector",
    "verify_from_pi1",
    "__version__",
]
