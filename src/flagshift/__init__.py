"""Numerical laboratory for commuting polynomial families on product Lie algebras."""

from .algebra import LieAlgebra, build_algebra
from .errors import ConfigurationError, GenericityError
from .product import ProductSpace
from .ranks import DEFAULT_POLICY, RankPolicy, numerical_rank, nullspace
from .families import (
    FamilyMember,
    PolynomialFamily,
    flag_momentum_family,
    flag_shift_family,
    gaudin_family,
    mf_shift_family,
    momentum_coordinates,
    restrict_family,
)
from .poisson import bivector_on_span, invariant_tangent_span
from .certify import (
    CLAIM_IDS,
    CertificateReport,
    ClaimContext,
    check_ad_invariance,
    check_involutive,
    generic_point,
    run_claims,
    verify_completeness,
    verify_lemma1,
    verify_span_inclusion,
)
from .dynamics import (
    FlowSpec,
    Trajectory,
    einstein_hamiltonian,
    einstein_parameters,
    enr_closed_form,
    euler_field,
    gaudin_field,
    gaudin_hamiltonian,
    integrate,
    normal_hamiltonian,
    novi_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [
    "LieAlgebra",
    "build_algebra",
    "ConfigurationError",
    "GenericityError",
    "ProductSpace",
    "DEFAULT_POLICY",
    "RankPolicy",
    "numerical_rank",
    "nullspace",
    "FamilyMember",
    "PolynomialFamily",
    "flag_momentum_family",
    "flag_shift_family",
    "gaudin_family",
    "mf_shift_family",
    "momentum_coordinates",
    "restrict_family",
    "bivector_on_span",
    "invariant_tangent_span",
    "CLAIM_IDS",
    "CertificateReport",
    "ClaimContext",
    "check_ad_invariance",
    "check_involutive",
    "generic_point",
    "run_claims",
    "verify_completeness",
    "verify_lemma1",
    "verify_span_inclusion",
    "FlowSpec",
    "Trajectory",
    "einstein_hamiltonian",
    "einstein_parameters",
    "enr_closed_form",
    "euler_field",
    "gaudin_field",
    "gaudin_hamiltonian",
    "integrate",
    "normal_hamiltonian",
    "novi_hamiltonian",
    "__version__",
]
