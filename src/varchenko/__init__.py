"""Exact face posets, apartments and Varchenko determinant factorizations
of affine hyperplane arrangements."""

from .geometry import (
    MINUS,
    PLUS,
    ZERO,
    Arrangement,
    Hyperplane,
    affine_rank,
    feasible_interior,
    is_bounded,
    side_of,
)
from .faces import (
    Face,
    FaceComplex,
    brute_force_sign_vectors,
    centralization,
    closure_faces,
    enumerate_faces,
    face_leq,
    panels,
)
from .tits import (
    nested_interval,
    opposite_through,
    rank,
    tits_product,
)
from .apartments import (
    Apartment,
    chambers_in,
    enumerate_apartments,
    faces_in,
    find_apartment,
)
from .polyring import (
    Polynomial,
    VarId,
    format_polynomial,
    parse_polynomial,
    weight,
)
from .varmatrix import (
    FactoredDet,
    VMatrix,
    det_modular,
    det_symbolic,
    multiplicity,
    product_formula,
    v,
    varchenko_matrix,
    verify_factorization,
)
from .euler import classify, euler_closure
from .witt import witt_lhs, witt_rhs, witt_sweep, witt2_check
from .report import CheckResult

__version__ = "0.1.0"
