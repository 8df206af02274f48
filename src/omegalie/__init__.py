"""Exact-arithmetic toolkit for omega-Lie algebras.

The bracket of an omega-Lie algebra is skew-symmetric and satisfies a twisted
Jacobi identity whose defect is controlled by a bilinear form.  This package
provides the exact scalar arithmetic, dense linear algebra, and Groebner
machinery needed to validate such algebras, reduce their forms to the block
canonical shape, generate and verify the defining ideal of the 3-dimensional
structure variety, and classify 3-dimensional non-Lie structures into the
four canonical families with explicit verified witnesses.
"""

from .fields import (
    QQ,
    ExtensionRequired,
    FieldElement,
    PrimeField,
    parse_descriptor,
    quadratic_roots,
    sqrt_or_extend,
)
from .linalg import Matrix, SkewForm, skew_congruence_reduce, standard_j
from .omega import (
    GroupElement,
    OmegaAlgebra,
    StructureConstants,
    algebra_from_json,
    algebra_to_json,
    derived_dimension,
    recover_omega,
    transform,
    validate,
)
from .classify3 import (
    CanonicalLabel,
    ClassificationResult,
    NonIsomorphic,
    c_pair_representative,
    canonical_algebra,
    classify,
    iso_witness,
)
from .variety import defining_ideal, verify_example51, verify_section3

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "ExtensionRequired",
    "FieldElement",
    "PrimeField",
    "parse_descriptor",
    "quadratic_roots",
    "sqrt_or_extend",
    "Matrix",
    "SkewForm",
    "skew_congruence_reduce",
    "standard_j",
    "GroupElement",
    "OmegaAlgebra",
    "StructureConstants",
    "algebra_from_json",
    "algebra_to_json",
    "derived_dimension",
    "recover_omega",
    "transform",
    "validate",
    "CanonicalLabel",
    "ClassificationResult",
    "NonIsomorphic",
    "c_pair_representative",
    "canonical_algebra",
    "classify",
    "iso_witness",
    "defining_ideal",
    "verify_example51",
    "verify_section3",
]
