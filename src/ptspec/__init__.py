"""High-precision spectra of the PT-symmetric family

    -psi''(z) - (iz)**N psi(z) = E psi(z),   integer N >= 2,

computed from exact-rational truncated double power series.  The
eigenvalues of a PT pair of Stokes wedges are the real zeros of the
truncated spectral determinant, the Wronskian of the solutions that
decay in its two wedges; nodes and PT expectation values of the
eigenfunctions come from the same series.
"""

from .errors import (
    DegenerateNormError,
    DivergenceError,
    GeometryError,
    ParameterError,
    PoleError,
    PtspecError,
    RadiusError,
    TruncationError,
    WindingError,
)
from .nodes import NodeSet, find_nodes, newton_zero, turning_points
from .observables import (
    Contour,
    ExpectationResult,
    IdentityRow,
    build_contour,
    expectation,
    identity_checks,
    wavefunction_samples,
)
from .precision import ComplexHP, PrecisionContext, RealHP, as_fraction
from .quantize import (
    EnergyLevel,
    HealthReport,
    ScanPoint,
    health_check,
    level_weights,
    scan_im_c,
    spectrum,
)
from .series import (
    CoefficientTable,
    TruncationParams,
    build_tables,
    energy_polynomials,
    eval_psi,
    residual,
    space_polynomial,
    wronskian,
)
from .wedges import WedgePair, ground_angle, pt_pairs, pt_reflect, reduce_angle

__version__ = "1.0.0"

__all__ = [
    "PtspecError",
    "ParameterError",
    "PoleError",
    "RadiusError",
    "DivergenceError",
    "GeometryError",
    "DegenerateNormError",
    "TruncationError",
    "WindingError",
    "PrecisionContext",
    "ComplexHP",
    "RealHP",
    "as_fraction",
    "CoefficientTable",
    "TruncationParams",
    "build_tables",
    "eval_psi",
    "residual",
    "wronskian",
    "energy_polynomials",
    "space_polynomial",
    "WedgePair",
    "ground_angle",
    "reduce_angle",
    "pt_reflect",
    "pt_pairs",
    "ScanPoint",
    "EnergyLevel",
    "HealthReport",
    "level_weights",
    "scan_im_c",
    "spectrum",
    "health_check",
    "NodeSet",
    "turning_points",
    "newton_zero",
    "find_nodes",
    "Contour",
    "ExpectationResult",
    "IdentityRow",
    "build_contour",
    "expectation",
    "identity_checks",
    "wavefunction_samples",
    "__version__",
]
