"""Expectation values along complex contours.

PT inner products carry no complex conjugation: the moments are

    <z^m>_n = (int psi_n(z) z^m psi_n(z) dz) / (int psi_n(z)^2 dz)

over any contour that starts deep in the left wedge of the level's
pair and ends deep in the right one; analyticity makes the value
contour independent.  Two piecewise-linear styles are offered: the
real segment [-lambda, lambda] (valid when the wedges straddle the
real axis) and the two anti-Stokes rays through the origin.

Quadrature is composite Gauss-Legendre, 64 panels per segment.  The
same point set is evaluated at order 20 and order 40; the order-40
result is reported with est_error = |order40 - order20|.  All psi
values along a contour are computed once per level and reused across
moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
    complex_str,
)
from .quantize import EnergyLevel, level_weights
from .series import CoefficientTable, TruncationParams
from .wedges import WedgePair, polar_point

__all__ = [
    "PANELS",
    "QUAD_ORDERS",
    "EHRENFEST_TOL",
    "VIRIAL_TOL",
    "Contour",
    "ExpectationResult",
    "IdentityRow",
    "IdentityReport",
    "build_contour",
    "expectation",
    "identity_checks",
    "wavefunction_samples",
]

PANELS = 64
QUAD_ORDERS = (20, 40)

EHRENFEST_TOL = "1e-9"
VIRIAL_TOL = "1e-8"


@dataclass(frozen=True)
class Contour:
    """Piecewise-linear path given by polar vertices (rho, theta/pi),
    both exact Fractions, traversed left wedge -> right wedge."""

    style: str
    lam: Fraction
    vertices: tuple

    def segments(self):
        return tuple(zip(self.vertices[:-1], self.vertices[1:]))

    def max_radius(self) -> Fraction:
        return max(rho for rho, _ in self.vertices)

    def cache_key(self):
        return (self.style, str(self.lam)) + tuple(
            (str(rho), str(theta)) for rho, theta in self.vertices
        )


def build_contour(pair: WedgePair, lam: Fractionable, style: str) -> Contour:
    """Contour between the wedges of a pair.

    real_line: single segment -lambda -> +lambda; requires one wedge of
    the pair to contain the 0 direction and the other the pi direction.
    wedge_rays: lambda*e^(i*theta_left) -> 0 -> lambda*e^(i*theta_right).
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
        return Contour(style, lam, ((lam, Fraction(1)), (lam, Fraction(0))))
    if style == "wedge_rays":
        return Contour(
            style,
            lam,
            ((lam, pair.theta_left), (Fraction(0), Fraction(0)), (lam, pair.theta_right)),
        )
    raise ParameterError(f"style must be 'real_line' or 'wedge_rays', got {style!r}")


# ---------------------------------------------------------------------------
# Gauss-Legendre machinery

_GL_CACHE: dict = {}


def _gl_rule(order: int, dps: int):
    """Nodes and weights on [-1, 1], computed by Newton on the Legendre
    recurrence at working precision.  Cached per (order, dps)."""
    key = (order, dps)
    hit = _GL_CACHE.get(key)
    if hit is not None:
        return hit
    with mp.workdps(dps + 10):
        nodes = []
        for k in range(1, order + 1):
            x = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (order + mp.mpf(1) / 2))
            for _ in range(60):
                p_prev, p_cur = mp.mpf(1), x
                for j in range(2, order + 1):
                    p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
                dp = order * (x * p_cur - p_prev) / (x * x - 1)
                dx = p_cur / dp
                x = x - dx
                if abs(dx) < mp.mpf(10) ** (-(dps + 5)):
                    break
            p_prev, p_cur = mp.mpf(1), x
            for j in range(2, order + 1):
                p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
            dp = order * (x * p_cur - p_prev) / (x * x - 1)
            nodes.append((x, 2 / ((1 - x * x) * dp * dp)))
    result = tuple(nodes)
    _GL_CACHE[key] = result
    return result


_SAMPLE_CACHE = series.BoundedCache(32)


def _contour_samples(
    table: CoefficientTable,
    level: EnergyLevel,
    contour: Contour,
    order: int,
    ctx: PrecisionContext,
):
    """(z_i, w_i * psi(z_i)**2) along the contour, weights including the
    complex segment direction.  Cached so that every moment of a level
    reuses one pass of psi evaluations."""
    alpha, beta = level_weights(level)
    with ctx.workdps():
        key = (
            table.n_exponent,
            table.pmax,
            ctx.dps,
            mp.nstr(mp.mpf(level.E), ctx.dps),
            complex_str(mp.mpc(alpha), ctx.dps),
            complex_str(mp.mpc(beta), ctx.dps),
            contour.cache_key(),
            order,
        )
        hit = _SAMPLE_CACHE.get(key)
        if hit is not None:
            return hit
        poly = series.space_polynomial(table, level.E, alpha, beta, ctx)
        rule = _gl_rule(order, ctx.dps)
        samples = []
        for v0, v1 in contour.segments():
            z0 = polar_point(v0[0], v0[1], ctx)
            z1 = polar_point(v1[0], v1[1], ctx)
            dz = (z1 - z0) / PANELS
            half = dz / 2
            for panel in range(PANELS):
                center = z0 + panel * dz + half
                for x, wt in rule:
                    z = center + half * x
                    psi = series.poly_psi(poly, z)
                    samples.append((z, wt * half * psi * psi))
    return _SAMPLE_CACHE.put(key, tuple(samples))


@dataclass(frozen=True)
class ExpectationResult:
    """One PT moment <z^m>_n with its quadrature error estimate."""

    n: int
    m: int
    value: ComplexHP
    norm: ComplexHP
    est_error: RealHP


def _moment(samples, m: int) -> ComplexHP:
    acc = mp.mpc(0)
    for z, wpsi2 in samples:
        acc += wpsi2 if m == 0 else wpsi2 * z ** m
    return acc


def expectation(
    table: CoefficientTable,
    level: EnergyLevel,
    m: int,
    contour: Contour,
    trunc: TruncationParams,
    ctx: PrecisionContext,
) -> ExpectationResult:
    """<z^m> of a level over the given contour."""
    if not isinstance(m, int) or m < 0:
        raise ParameterError(f"moment order must be a non-negative integer, got {m!r}")
    if contour.max_radius() > trunc.radius:
        raise RadiusError(
            f"contour extends to {contour.max_radius()} beyond the validated radius {trunc.radius}"
        )
    low = _contour_samples(table, level, contour, QUAD_ORDERS[0], ctx)
    high = _contour_samples(table, level, contour, QUAD_ORDERS[1], ctx)
    with ctx.workdps():
        norm_high = _moment(high, 0)
        scale = mp.mpf(0)
        for _, wpsi2 in high:
            scale += abs(wpsi2)
        if abs(norm_high) < ctx.tolerance() * scale:
            raise DegenerateNormError(
                f"normalization integral vanished for level n={level.n}"
            )
        value = _moment(high, m) / norm_high
        value_low = _moment(low, m) / _moment(low, 0)
        return ExpectationResult(level.n, m, value, norm_high, abs(value - value_low))


@dataclass(frozen=True)
class IdentityRow:
    """Ehrenfest and (for N=3) virial residuals of one level."""

    n: int
    ehrenfest_abs: RealHP
    ehrenfest_ok: bool
    virial_abs: Optional[RealHP]
    virial_ok: Optional[bool]


@dataclass(frozen=True)
class IdentityReport:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(
            row.ehrenfest_ok and (row.virial_ok is None or row.virial_ok)
            for row in self.rows
        )


def default_contour(pair: WedgePair, trunc: TruncationParams) -> Contour:
    """real_line with lambda = min(5, r) when the geometry allows it,
    otherwise the wedge rays at the full validated radius."""
    try:
        return build_contour(pair, min(Fraction(5), trunc.radius), "real_line")
    except GeometryError:
        return build_contour(pair, trunc.radius, "wedge_rays")


def identity_checks(
    table: CoefficientTable,
    levels,
    trunc: TruncationParams,
    ctx: PrecisionContext,
    contour: Optional[Contour] = None,
) -> IdentityReport:
    """Model identities: <z^(N-1)> = 0 for every level (the PT form of
    Ehrenfest's theorem), and for N=3 the virial form <z^3> = -(2/5)iE."""
    n_exp = table.n_exponent
    rows = []
    with ctx.workdps():
        eh_tol = mp.mpf(EHRENFEST_TOL)
        vir_tol = mp.mpf(VIRIAL_TOL)
        for level in levels:
            path = contour or default_contour(level.pair, trunc)
            eh = expectation(table, level, n_exp - 1, path, trunc, ctx)
            eh_abs = abs(eh.value)
            if n_exp == 3:
                v3 = expectation(table, level, 3, path, trunc, ctx)
                vir_abs = abs(v3.value + mp.mpc(0, 2) / 5 * mp.mpf(level.E))
                vir_ok = bool(vir_abs < vir_tol)
            else:
                vir_abs = None
                vir_ok = None
            rows.append(
                IdentityRow(level.n, eh_abs, bool(eh_abs < eh_tol), vir_abs, vir_ok)
            )
    return IdentityReport(tuple(rows))


def wavefunction_samples(
    table: CoefficientTable,
    level: EnergyLevel,
    x_min: Fractionable,
    x_max: Fractionable,
    step: Fractionable,
    trunc: TruncationParams,
    ctx: PrecisionContext,
):
    """psi of a level sampled on an exact real grid, for plotting."""
    x_min, x_max, step = as_fraction(x_min), as_fraction(x_max), as_fraction(step)
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    if x_max <= x_min:
        raise ParameterError(f"empty sample window [{x_min}, {x_max}]")
    if max(abs(x_min), abs(x_max)) > trunc.radius:
        raise RadiusError(
            f"sample window leaves the validated disk |z| <= {trunc.radius}"
        )
    alpha, beta = level_weights(level)
    poly = series.space_polynomial(table, level.E, alpha, beta, ctx)
    out = []
    with ctx.workdps():
        n_steps = int((x_max - x_min) / step)
        for j in range(n_steps + 1):
            x = ctx.mpf(x_min + j * step)
            out.append((x, series.poly_psi(poly, x)))
    return tuple(out)
