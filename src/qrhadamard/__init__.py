"""Regular/biregular maximum-excess Hadamard matrices from quadratic residues.

Exact finite-field arithmetic drives every construction and verification,
the Gauss-sum sign pair included; complex character sums are used only as
cross-checks and to pick the regular family's scheme index tau, so floating
point never touches a constructed set or matrix.
"""

from .association_schemes import SchemePartition, SchemeReport, verify_scheme
from .finite_field import ZERO, FieldContext, FieldSpec, build_field, field_for, quadratic_tower
from .hadamard import (
    FAMILIES,
    ExcessReport,
    SignMatrix,
    construct_q1,
    construct_q3,
    excess_and_bound,
    is_hadamard,
    transform,
)
from .intersection_sets import BlockDesign, IntersectionSet, ParamChoice, build_dlh, find_params

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "ZERO",
    "BlockDesign",
    "ExcessReport",
    "FieldContext",
    "FieldSpec",
    "IntersectionSet",
    "ParamChoice",
    "SchemePartition",
    "SchemeReport",
    "SignMatrix",
    "build_dlh",
    "build_field",
    "construct_q1",
    "construct_q3",
    "excess_and_bound",
    "field_for",
    "find_params",
    "is_hadamard",
    "quadratic_tower",
    "transform",
    "verify_scheme",
    "__version__",
]
