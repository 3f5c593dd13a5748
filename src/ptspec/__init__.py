"""High-precision spectra of the PT-symmetric family

    -psi''(z) - (iz)**N psi(z) = E psi(z),   integer N >= 2,

computed from exact-rational truncated double power series.  The
eigenvalues of a PT pair of Stokes wedges are the real zeros of the
truncated spectral determinant, the Wronskian of the solutions that
decay in its two wedges; nodes and PT expectation values of the
eigenfunctions come from the same series.

Importing the package loads none of its modules: each public name
loads its home module on first use (PEP 562), so a command pays only
for the modules it runs.
"""

import importlib

__version__ = "1.0.0"

# each module with the public names it defines, in the order of __all__
_EXPORTS = {
    "errors": (
        "PtspecError", "ParameterError", "PoleError", "RadiusError", "DivergenceError",
        "GeometryError", "DegenerateNormError", "TruncationError", "WindingError",
    ),
    "precision": ("PrecisionContext", "ComplexHP", "RealHP", "as_fraction"),
    "series": (
        "CoefficientTable", "TruncationParams", "build_tables", "eval_psi", "residual",
        "wronskian", "energy_polynomials", "space_polynomial",
    ),
    "wedges": ("WedgePair", "ground_angle", "reduce_angle", "pt_reflect", "pt_pairs"),
    "quantize": (
        "ScanPoint", "EnergyLevel", "HealthReport", "level_weights", "scan_im_c", "spectrum",
        "health_check",
    ),
    "nodes": ("NodeSet", "turning_points", "newton_zero", "find_nodes"),
    "observables": (
        "Contour", "ExpectationResult", "IdentityRow", "build_contour", "expectation",
        "identity_checks", "wavefunction_samples",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
