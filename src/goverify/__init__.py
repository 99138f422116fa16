"""Verifier for geodesic-orbit and naturally reductive invariant metrics.

The package decides, for compact Lie algebras given by structure constants,
whether left-invariant metrics (encoded as metric endomorphisms) are
geodesic-orbit and/or naturally reductive, and whether subalgebras are
regular or weakly regular.  Negative verdicts carry exact rational
certificates; positive geodesic-orbit verdicts are sampling-based and say so.
"""

__version__ = "0.1.0"

from .arith import (  # noqa: F401
    EXACT,
    ContractViolation,
    ExactComputationError,
    q,
    qarray,
)
