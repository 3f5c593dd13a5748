"""Typed exceptions for the ptspec library.

The CLI maps ParameterError to exit code 2 (usage) and every other
PtspecError to exit code 1 (numeric failure).
"""


class PtspecError(Exception):
    """Base class for all library errors."""


class ParameterError(PtspecError, ValueError):
    """Invalid argument values (wrong N, empty windows, bad flags)."""


class PoleError(PtspecError):
    """psi2 vanished (relative to psi1) at the evaluation point."""


class RadiusError(PtspecError):
    """Evaluation point left the validated truncation disk."""


class DivergenceError(PtspecError):
    """Iteration failed to converge within the iteration cap."""


class WindingError(PtspecError):
    """A zero on a box edge, sub-box windings that disagree, or a counted zero not placed."""


class GeometryError(PtspecError):
    """Contour style incompatible with the wedge geometry of the pair."""


class DegenerateNormError(PtspecError):
    """Normalization integral vanished within tolerance."""


class TruncationError(PtspecError):
    """Requested computation exceeds the validated truncation range."""
