"""Tridiagonal continuant identities and quantum-wire transmittance.

The package evaluates the transmittance of an N-site tight-binding wire
between two wide-band leads along two independent analytic routes (retarded
Green's function and evolution operator), verifies their equivalence through
a nonlinear identity on tridiagonal determinants, and cross-checks the
closed-form steady state against direct time integration.
"""

from .errors import (
    BlowUpError,
    ConfigError,
    DomainError,
    ModeError,
    NumericalError,
    PreconditionError,
    QwireError,
    SingularMatrixError,
)
from .tridiag_core import (
    EXACT,
    FLOAT,
    DetSequence,
    SymToeplitzTridiag,
    corner_cofactor,
    det,
    det_chebyshev,
    det_sequence,
    identity_residual,
)
from .wire_matrix import (
    HatDets,
    WireMatrix,
    WireParams,
    corner_cofactor_wire,
    det_wire,
    first_inverse_column,
    hat_dets,
)
from .transport import (
    BiasWindow,
    CurrentResult,
    EOTerms,
    EquivalenceReport,
    QuadratureConfig,
    TransmissionSpectrum,
    chain_resonances,
    eo_terms,
    equivalence_report,
    landauer_current,
    spectrum,
    transmittance_eo,
    transmittance_gf,
)
from .time_domain import (
    EvolutionTrajectory,
    IntegratorConfig,
    SteadyStateReport,
    integrate,
    steady_state_amplitudes,
    steady_state_compare,
)

__version__ = "0.1.0"

__all__ = [
    "BiasWindow",
    "BlowUpError",
    "ConfigError",
    "CurrentResult",
    "DetSequence",
    "DomainError",
    "EOTerms",
    "EXACT",
    "EquivalenceReport",
    "EvolutionTrajectory",
    "FLOAT",
    "HatDets",
    "IntegratorConfig",
    "ModeError",
    "NumericalError",
    "PreconditionError",
    "QuadratureConfig",
    "QwireError",
    "SingularMatrixError",
    "SteadyStateReport",
    "SymToeplitzTridiag",
    "TransmissionSpectrum",
    "WireMatrix",
    "WireParams",
    "chain_resonances",
    "corner_cofactor",
    "corner_cofactor_wire",
    "det",
    "det_chebyshev",
    "det_sequence",
    "det_wire",
    "eo_terms",
    "equivalence_report",
    "first_inverse_column",
    "hat_dets",
    "identity_residual",
    "integrate",
    "landauer_current",
    "spectrum",
    "steady_state_amplitudes",
    "steady_state_compare",
    "transmittance_eo",
    "transmittance_gf",
    "__version__",
]
