"""Certified cup-length bounds for configuration spaces of surfaces.

Exact symbolic computation in the cohomology of cartesian powers of
orientable surfaces and the quotients that carry zero-divisor
certificates, machine-verifying the lower bounds behind the higher
topological complexity table of their configuration spaces.
"""

from .algebra import Element, TensorElement, TruncatedPolynomialAlgebra
from .certificates import (
    Certificate,
    evaluate_certificate,
    rp3_zcl_check,
    tc_upper_bound,
    tc_value,
    verify_lemma_identities,
    zcl_search,
)
from .errors import ConfigurationError, ConftcError, SizeGuardError, VerificationError
from .fields import GF2, RATIONALS
from .linalg import GradedSubspace
from .quotients import (
    QuotientAlgebra,
    build_quotient,
    cached_quotient,
    cached_surface,
    ideal_span,
)
from .surfaces import (
    SurfacePowerAlgebra,
    xy_pair_relations,
    totaro_relations,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConfigurationError",
    "ConftcError",
    "Element",
    "GF2",
    "GradedSubspace",
    "QuotientAlgebra",
    "RATIONALS",
    "SizeGuardError",
    "SurfacePowerAlgebra",
    "TensorElement",
    "TruncatedPolynomialAlgebra",
    "VerificationError",
    "build_quotient",
    "cached_quotient",
    "cached_surface",
    "evaluate_certificate",
    "ideal_span",
    "xy_pair_relations",
    "rp3_zcl_check",
    "tc_upper_bound",
    "tc_value",
    "totaro_relations",
    "verify_lemma_identities",
    "zcl_search",
]
