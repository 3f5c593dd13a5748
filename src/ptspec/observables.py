"""Expectation values along complex contours.

PT inner products carry no complex conjugation: the moments are

    <z^m>_n = (int psi_n(z) z^m psi_n(z) dz) / (int psi_n(z)^2 dz)

over any contour that starts deep in the left wedge of the level's
pair and ends deep in the right one; analyticity makes the value
contour independent.  Two styles are offered: the real segment
[-lambda, lambda] (valid when the wedges straddle the real axis) and
the two anti-Stokes rays through the origin.

psi at fixed E is a polynomial C in w = iz, so with S = C*C and
z = -iw each integral is exact from the antiderivative,
(-i)^(m+1) [sum_j S_j w^(j+m+1) / (j+m+1)] between the contour's two
ends, and a Contour holds only those.  series forms S and that
antiderivative in integers on the scaled coefficients of C
(series.poly_square, series.moment_integral), so no mpc coefficient
list is built; rounding happens only in the floor
divisions by j+m+1 and in the two endpoint evaluations.  Those sums
cancel (kappa = sum |term| / |sum| is ~1e18 for the ground state on
[-5, 5]), so a pass at the working dps measures kappa of the norm and
the values come from a second pass at dps + log10(kappa); est_error is
that pass's rounding bound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

import mpmath as mp

from . import series
from .errors import (
    DegenerateNormError,
    GeometryError,
    ParameterError,
    RadiusError,
)
from .precision import (
    ComplexHP,
    Fractionable,
    PrecisionContext,
    RealHP,
    as_fraction,
)
from .quantize import EnergyLevel, _level_poly
from .wedges import WedgePair, polar_point

__all__ = [
    "EHRENFEST_TOL",
    "VIRIAL_TOL",
    "Contour",
    "ExpectationResult",
    "IdentityRow",
    "build_contour",
    "expectation",
    "identity_checks",
    "wavefunction_samples",
]

EHRENFEST_TOL = "1e-9"
VIRIAL_TOL = "1e-8"


class Contour(NamedTuple):
    """A path from the left wedge to the right one, held as its two ends:
    the polar points (rho, theta/pi) left and right, exact Fractions at
    rho = lam.  A moment reads only the ends, so the path between them
    is not stored."""

    style: str
    lam: Fraction
    left: tuple
    right: tuple


def build_contour(pair: WedgePair, lam: Fractionable, style: str) -> Contour:
    """Contour between the wedges of a pair.

    real_line: the segment -lambda -> +lambda; requires one wedge of the
    pair to contain the 0 direction and the other the pi direction.
    wedge_rays: lambda*e^(i*theta_left) -> 0 -> lambda*e^(i*theta_right),
    the two anti-Stokes rays through the origin.
    """
    lam = as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"lambda must be positive, got {lam}")
    if style == "real_line":
        if not (pair.contains_angle(Fraction(0)) and pair.contains_angle(Fraction(1))):
            raise GeometryError(
                f"pair {pair.index} (centers {pair.theta_right}pi, {pair.theta_left}pi)"
                " does not straddle the real axis; use wedge_rays"
            )
        return Contour(style, lam, (lam, Fraction(1)), (lam, Fraction(0)))
    if style == "wedge_rays":
        return Contour(style, lam, (lam, pair.theta_left), (lam, pair.theta_right))
    raise ParameterError(f"style must be 'real_line' or 'wedge_rays', got {style!r}")


# ---------------------------------------------------------------------------
# exact integration


@series.memo
def _level_square(level: EnergyLevel, ctx: PrecisionContext):
    """The square of the level's space polynomial at ctx.dps, memoized."""
    return series.poly_square(_level_poly(level, ctx))


@series.memo
def _path_integral(level: EnergyLevel, m: int, contour: Contour, ctx: PrecisionContext):
    """series.moment_integral of the level's psi^2 z^m over the contour at
    ctx.dps, memoized per (level, m, contour, ctx)."""
    square = _level_square(level, ctx)
    with ctx.workdps():
        z0, z1 = (polar_point(*end, ctx) for end in (contour.left, contour.right))
        return series.moment_integral(square, m, z0, z1)


class ExpectationResult(NamedTuple):
    """One PT moment <z^m>_n.

    est_error bounds the rounding error of the exact endpoint sums at
    the working precision; it does not cover the series truncation or
    the finite contour (psi^2 z^m is not zero at the endpoints).
    """

    n: int
    m: int
    value: ComplexHP
    norm: ComplexHP
    est_error: RealHP


def expectation(level: EnergyLevel, m: int, contour: Contour) -> ExpectationResult:
    """<z^m> of a level over the given contour, at the level's working
    precision.

    Raises RadiusError when the contour leaves the level's validated
    disk, and DegenerateNormError when the norm integral lies inside its
    rounding bound at the working precision.
    """
    if not isinstance(m, int) or m < 0:
        raise ParameterError(f"moment order must be a non-negative integer, got {m!r}")
    ctx, radius = level.ctx, level.trunc.radius
    if contour.lam > radius:
        raise RadiusError(f"contour extends to {contour.lam} beyond the validated radius {radius}")
    norm, norm_size = _path_integral(level, 0, contour, ctx)
    with ctx.workdps():
        if abs(norm) <= norm_size * mp.mpf(10) ** -ctx.dps:
            raise DegenerateNormError(
                f"normalization integral of level n={level.n} is inside its rounding"
                f" bound at {ctx.dps} digits (it vanishes or needs more digits)"
            )
        raised = PrecisionContext(ctx.digits + int(mp.ceil(mp.log10(norm_size / abs(norm)))))
    norm, norm_size = _path_integral(level, 0, contour, raised)
    total, size = _path_integral(level, m, contour, raised)
    with raised.workdps():
        value = total / norm
        est = (size + abs(value) * norm_size) / abs(norm) * mp.mpf(10) ** -raised.dps
    with ctx.workdps():
        return ExpectationResult(level.n, m, +value, +norm, +est)


class IdentityRow(NamedTuple):
    """Ehrenfest and (for N=3) virial residuals of one level."""

    n: int
    ehrenfest_abs: RealHP
    ehrenfest_ok: bool
    virial_abs: Optional[RealHP]
    virial_ok: Optional[bool]


def identity_checks(level: EnergyLevel, contour: Contour) -> IdentityRow:
    """Model identities of one level over the contour: <z^(N-1)> = 0 (the
    PT form of Ehrenfest's theorem), and for N=3 the virial form
    <z^3> = -(2/5)iE."""
    n_exp = level.pair.n_exponent
    with level.ctx.workdps():
        eh_abs = abs(expectation(level, n_exp - 1, contour).value)
        vir_abs = vir_ok = None
        if n_exp == 3:
            v3 = expectation(level, 3, contour)
            vir_abs = abs(v3.value + mp.mpc(0, 2) / 5 * mp.mpf(level.E))
            vir_ok = bool(vir_abs < mp.mpf(VIRIAL_TOL))
        return IdentityRow(level.n, eh_abs, bool(eh_abs < mp.mpf(EHRENFEST_TOL)), vir_abs, vir_ok)


def wavefunction_samples(
    level: EnergyLevel, x_min: Fractionable, x_max: Fractionable, step: Fractionable
):
    """psi of a level sampled on an exact real grid at the level's
    working precision, for plotting; the window must lie in the level's
    validated disk."""
    x_min, x_max, step = as_fraction(x_min), as_fraction(x_max), as_fraction(step)
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    if x_max <= x_min:
        raise ParameterError(f"empty sample window [{x_min}, {x_max}]")
    ctx, radius = level.ctx, level.trunc.radius
    if max(abs(x_min), abs(x_max)) > radius:
        raise RadiusError(f"sample window leaves the validated disk |z| <= {radius}")
    poly = _level_poly(level, ctx)
    out = []
    with ctx.workdps():
        n_steps = int((x_max - x_min) / step)
        for j in range(n_steps + 1):
            x = ctx.mpf(x_min + j * step)
            out.append((x, series.poly_psi(poly, x)))
    return tuple(out)
