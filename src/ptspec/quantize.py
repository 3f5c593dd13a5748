"""Eigenvalue quantization.

Every level of a wedge pair is a real zero of the truncated spectral
determinant

    D(E) = psi1(zR) psi2(zL) - psi1(zL) psi2(zR),

the Wronskian of the solutions that decay in the right and in the left
wedge, with zR = r*exp(i*theta_right) and zL = r*exp(i*theta_left) the
probe points on the two wedges' center rays.  It vanishes exactly when
some combination of psi1 and psi2 vanishes at both probes, and it has
no poles.  Every read takes the right probe alone, and both probes of
D come from it.  On a PT pair the left values are the complex
conjugates at real E (the left energy polynomials are the right ones
conjugated, to the last fixed-point bits), so D = 2i Im(psi1
conj psi2) and its zeros are those of Im c, where c(E) =
-psi1(zR)/psi2(zR) makes psi = psi1 + c*psi2 decay in both wedges at
once.  On the parity pair of even N they are (psi1, -psi2), so D = -2
psi1 psi2 and its zeros are the even (psi1) and the odd (psi2) levels
in one scan.  spectrum serves every pair: it scans D outward from E = 0
on an exact Fraction grid, reading its sign exactly from
series.grid_evaluator on the per-angle energy polynomials, and refines
each sign change at full precision through series.eval_energy_poly,
attaching c on a PT pair and the even/odd tag on the parity pair.
Each level's est_error is one Newton step at its root on the same
reader at 0.9r.  A probe's polynomials come from the radial sums of one
pass of the coefficient recursion at its radius, shared by every pair
of N there.  Each request rounds them once, down to its own energy
scale (series._scale), and reads every value from that copy:
spectrum's grid and every level's root, est_error and c at its e_max,
scan_im_c at its window and the health check at 97/96 of its e_max.

c itself, with the "pole" rows where psi2 (nearly) vanishes, is left to
scan_im_c (on the exact grid as well) and the health check.  The health
check judges the pair that spectrum quantizes: it reads its tail from
the last antidiagonal of the same recursion at (radius, e_max), and
never raises on bad health: a pair whose probe the truncation cannot
evaluate at its e_max fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath as mp
from mpmath.libmp import from_rational

from . import series
from .errors import (
    BracketError,
    DivergenceError,
    ParameterError,
    PoleError,
    RadiusError,
    TruncationError,
)
from .precision import ComplexHP, Fractionable, PrecisionContext, RealHP, as_fraction
from .series import TruncationParams
from .wedges import WedgePair, pt_pairs

__all__ = [
    "ScanPoint",
    "EnergyLevel",
    "HealthReport",
    "TAIL_THRESHOLD_EXPONENT",
    "level_weights",
    "scan_im_c",
    "spectrum",
    "health_check",
]

# tail-dominance threshold 10**TAIL_THRESHOLD_EXPONENT, calibrated so the
# known-good configurations (N=3 r=8, N=7 r=3) pass and the known-bad
# ones (N=7 r=8, N=3 P=10) fail with a wide margin on both sides
TAIL_THRESHOLD_EXPONENT = -10

# the probe at r against the probe at 0.9r: est_error, one Newton step of
# the 0.9r reader from the level's root, and the health check's c discrepancy
_INNER_RADIUS = Fraction(9, 10)

DEFAULT_SCAN_STEP = Fraction(1, 20)
# evaluations a root refinement may take: far above the 10 to 20 a level
# takes; bisection alone closes a grid cell of 1/20 to 10**-61 in as many
_ROOT_STEPS = 200
DEFAULT_ENERGY_CAP = Fraction(100)


@dataclass(frozen=True)
class ScanPoint:
    """One grid sample of the connection coefficient."""

    E: RealHP
    c_re: RealHP
    c_im: RealHP
    flag: str  # "ok" or "pole"


@dataclass(frozen=True)
class EnergyLevel:
    """A refined eigenvalue with the truncation and precision it was
    refined at, which the eigenfunction stages reuse.

    c is the (real) connection coefficient for Im-c levels and None for
    parity levels, where parity is "even" or "odd" instead.  est_error
    is the shift of the root from r to 0.9r by one Newton step (see
    _level), and the level is stable when it is at most 10**(-digits/2).
    """

    n: int
    E: RealHP
    c: Optional[RealHP]
    pair: WedgePair
    trunc: TruncationParams
    ctx: PrecisionContext
    est_error: RealHP
    stable: bool
    parity: Optional[str] = None


def level_weights(level: EnergyLevel):
    """(alpha, beta) with psi = alpha*psi1 + beta*psi2 for the level."""
    if level.parity == "even":
        return mp.mpf(1), mp.mpf(0)
    if level.parity == "odd":
        return mp.mpf(0), mp.mpf(1)
    if level.c is None:
        raise ParameterError("level carries neither c nor a parity tag")
    return mp.mpf(1), level.c


def _level_poly(level: EnergyLevel, ctx: PrecisionContext):
    """The level's psi at ctx.dps as a space polynomial in w = iz, from
    the truncation of its N and pmax and scaled for its validated disk."""
    table = series.build_tables(level.pair.n_exponent, level.trunc.pmax)
    alpha, beta = level_weights(level)
    return series.space_polynomial(table, level.E, alpha, beta, ctx, level.trunc.radius)


def _probe_polys(pair: WedgePair, trunc: TruncationParams, ctx: PrecisionContext, scale):
    """(psi1, psi2) as energy polynomials at the right probe of radius
    trunc.radius, from the truncation (N, trunc.pmax), rescaled down to the
    energy scale 2**scale of the request (see series._scale) when that is
    below the probe's own.  The rescaled copies are not memoized: they
    live as long as the caller holds them."""
    table = series.build_tables(pair.n_exponent, trunc.pmax)
    polys = series.energy_polynomials(table, trunc.radius, pair.theta_right, ctx)
    if scale is None or scale >= polys[0].rho:
        return polys
    return tuple(p.rescaled(scale) for p in polys)


def _rounded(num: int, den: int) -> RealHP:
    """num/den rounded once to the working precision."""
    return mp.make_mpf(from_rational(num, den, mp.mp.prec, "n"))


def _c_from_polys(poly_a, poly_b, E, ctx: PrecisionContext) -> ComplexHP:
    """c = -psi1/psi2 from collapsed polynomials, with a pole guard
    10**-(digits/2)."""
    with ctx.workdps():
        p1 = series.eval_energy_poly(poly_a, E)
        p2 = series.eval_energy_poly(poly_b, E)
        if abs(p2) < mp.mpf(10) ** (-(ctx.digits // 2)) * abs(p1):
            raise PoleError(
                f"psi2 vanishes at E={mp.nstr(mp.mpf(E), 17)} (|psi2/psi1|="
                f"{mp.nstr(abs(p2) / max(abs(p1), mp.mpf('1e-999')), 5)})"
            )
        return -p1 / p2


def scan_im_c(
    pair: WedgePair,
    e_min: Fractionable,
    e_max: Fractionable,
    step: Fractionable,
    trunc: TruncationParams,
    ctx: PrecisionContext,
):
    """Sample c(E) at the right probe on the exact grid e_min + j*step, j = 0..

    Points where psi2 (nearly) vanishes, |psi2| < 10**-(digits/2) |psi1|,
    are flagged "pole"; the level scans read D instead, which has none.
    psi1 and psi2 come exactly from the grid evaluator, so the pole test
    is exact and each part of c = -psi1/psi2 is rounded once.
    """
    e_min, e_max, step = as_fraction(e_min), as_fraction(e_max), as_fraction(step)
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    if e_max <= e_min:
        raise ParameterError(f"empty energy window [{e_min}, {e_max}]")
    den = math.lcm(e_min.denominator, step.denominator)
    at, _ = series.grid_evaluator(_probe_polys(pair, trunc, ctx, series._scale(e_min, e_max)), den)
    t0, dt = int(e_min * den), int(step * den)
    guard = 100 ** (ctx.digits // 2)
    points = []
    with ctx.workdps():
        for j in range(int((e_max - e_min) / step) + 1):
            ev = ctx.mpf(e_min + j * step)
            v1r, v1i, v2r, v2i = at(t0 + j * dt)
            norm1, norm2 = v1r * v1r + v1i * v1i, v2r * v2r + v2i * v2i
            if norm2 * guard < norm1:
                points.append(ScanPoint(ev, mp.inf, mp.inf, "pole"))
            else:
                c_re = _rounded(-(v1r * v2r + v1i * v2i), norm2)
                points.append(ScanPoint(ev, c_re, _rounded(v1r * v2i - v1i * v2r, norm2), "ok"))
    return tuple(points)


def _hybrid_root(f: Callable, bracket, tol, ends=None) -> RealHP:
    """Root of a smooth real function f that changes sign on bracket, by
    Dekker's secant with Brent's safeguard from the bracket ends down to
    a bracket no wider than tol (on E), reusing f at the ends when the
    caller passes them.

    The iterate is the end of the bracket where |f| is smallest.  A
    secant step from it is taken when it is shorter than half the step
    before last and than 3/4 of the way to the bracket's midpoint;
    otherwise the step bisects, so the steps shrink at least by half
    every two steps.  A step shorter than tol/2 is lengthened to tol/2,
    so once the secant has settled on the root the next point lands
    across it and the far end of the bracket moves in.  Returns the
    secant point of the final bracket.  Raises BracketError when f has no
    sign change, and DivergenceError when the bracket is still wider than
    tol after _ROOT_STEPS evaluations (tol below what the working
    precision resolves).
    """
    lo, hi = mp.mpf(bracket[0]), mp.mpf(bracket[1])
    if not lo < hi:
        raise ParameterError(f"bracket must satisfy lo < hi, got {bracket}")
    f_lo, f_hi = ends if ends is not None else (f(lo), f(hi))
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if mp.sign(f_lo) == mp.sign(f_hi):
        raise BracketError(
            f"no sign change on [{mp.nstr(lo, 12)}, {mp.nstr(hi, 12)}]"
        )
    half_tol = tol / 2
    x_pre, f_pre, x_cur, f_cur = lo, f_lo, hi, f_hi
    x_far, f_far = x_pre, f_pre  # the other end of the bracket
    step = step_pre = x_cur - x_pre
    for _ in range(_ROOT_STEPS):
        if mp.sign(f_pre) != mp.sign(f_cur):
            x_far, f_far = x_pre, f_pre
            step = step_pre = x_cur - x_pre
        if abs(f_far) < abs(f_cur):
            x_pre, x_cur, x_far = x_cur, x_far, x_cur
            f_pre, f_cur, f_far = f_cur, f_far, f_cur
        to_mid = (x_far - x_cur) / 2
        if abs(to_mid) <= half_tol:
            return x_cur - f_cur * (x_far - x_cur) / (f_far - f_cur)
        if abs(step_pre) > half_tol and abs(f_cur) < abs(f_pre):
            trial = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            if 2 * abs(trial) < min(abs(step_pre), 3 * abs(to_mid) - half_tol):
                step_pre, step = step, trial
            else:
                step_pre = step = to_mid
        else:
            step_pre = step = to_mid
        x_pre, f_pre = x_cur, f_cur
        if abs(step) > half_tol:
            x_cur += step
        else:
            x_cur += half_tol if to_mid > 0 else -half_tol
        f_cur = f(x_cur)
        if f_cur == 0:
            return x_cur
    raise DivergenceError(
        f"bracket [{mp.nstr(min(x_cur, x_far), 12)}, {mp.nstr(max(x_cur, x_far), 12)}]"
        f" did not close to tol={mp.nstr(tol, 3)} in {_ROOT_STEPS} steps"
    )


# ---------------------------------------------------------------------------
# the pipeline shared by PT pairs and the parity pair: each request rounds the
# right probe's energy polynomials at r and 0.9r once, to its energy scale, and
# _level reads a level from them through the reader of the determinant D(E)


def _probes(pair: WedgePair, trunc: TruncationParams, ctx: PrecisionContext, scale):
    """The right probe's energy polynomials (psi1, psi2) at radius r and at
    0.9r, both at the energy scale 2**scale: a level is read from the
    first and compared with the second."""
    inner = TruncationParams(trunc.pmax, trunc.radius * _INNER_RADIUS)
    return _probe_polys(pair, trunc, ctx, scale), _probe_polys(pair, inner, ctx, scale)


def _reader(parity: bool, polys, ev, order: int = 0):
    """A real multiple f of the truncated spectral determinant D(E) =
    psi1(zR) psi2(zL) - psi1(zL) psi2(zR) at E = ev, from the energy
    polynomials polys = (psi1, psi2) of the right probe; (f, f') at order
    1, with P and P' of both polynomials from the kernel, as D is
    bilinear in psi1 and psi2.

    On a PT pair zL = -conj zR, so (psi1, psi2)(zL) = conj (psi1,
    psi2)(zR) at real E and f = D/(2i) = Im(psi1 conj psi2), of the
    opposite sign to Im c.  On a parity pair zL = -zR, where psi1 is even
    and psi2 odd, so D = -2 psi1 psi2 and f = psi1 times the nonzero part
    of psi2: on the pair's axis psi1 is real and psi2 real (imaginary
    axis) or imaginary (real axis), its other part an exact zero of the
    integer kernel.  Two Horners.
    """
    def det(a, b):
        return _determinant(parity, a.real, a.imag, b.real, b.imag)

    if not order:
        return det(*(series.eval_energy_poly(poly, ev) for poly in polys))
    (p1, d1), (p2, d2) = (series._horner(poly, ev, 1) for poly in polys)
    return det(p1, p2), det(d1, p2) + det(p1, d2)


def _determinant(parity: bool, p1r, p1i, p2r, p2i):
    """The reader's value from Re and Im of psi1 and psi2 at the right
    probe, for mpf parts or the exact integers of the grid evaluator."""
    return p1r * (p2r + p2i) if parity else p1i * p2r - p1r * p2i


def _level(
    pair: WedgePair, n: int, probes, bracket, tol, trunc: TruncationParams,
    ctx: PrecisionContext, ends=None, tag=None,
) -> EnergyLevel:
    """Level n of the pair from probes = _probes(...), at the working
    precision: the root E_r of the reader at r in bracket to tol, reusing
    its values at the bracket ends when the scan passes them as ends.

    est_error is the shift of the root under the reader f at 0.9r, from
    one Newton step at E_r: |f(E_r)/f'(E_r)|, with (f, f') from the
    reader at order 1.  It is inf when f' = 0 or when the step leaves the
    bracket.  The level is stable when est_error <= 10**(-digits/2).  It
    carries the scan's parity tag when given, and c at the root otherwise.
    """
    swapped = pair.parity_swapped()
    outer, inner = probes
    lo, hi = mp.mpf(bracket[0]), mp.mpf(bracket[1])
    e_root = _hybrid_root(lambda ev: _reader(swapped, outer, ev), (lo, hi), tol, ends)
    value, slope = _reader(swapped, inner, e_root, 1)
    shift = value / slope if slope else mp.inf
    est = abs(shift) if lo <= e_root - shift <= hi else mp.inf
    stable = bool(est <= mp.mpf(10) ** (-(ctx.digits // 2)))
    c = None if tag else _c_from_polys(*outer, e_root, ctx).real
    return EnergyLevel(n, e_root, c, pair, trunc, ctx, est, stable, tag)


def spectrum(
    pair: WedgePair,
    n_levels: int,
    trunc: TruncationParams,
    ctx: PrecisionContext,
    e_max: Fractionable = DEFAULT_ENERGY_CAP,
    step: Fractionable = DEFAULT_SCAN_STEP,
    parity: str = "both",
):
    """First n_levels eigenvalues of the pair, ordered by distance from zero.

    Brackets the sign changes of D outward from E = 0 on the exact grid
    of |E| = k*step up to e_max, and raises TruncationError when fewer
    than n_levels fit below it.  The grid runs toward negative E on the
    imaginary-axis parity pair, whose bound spectrum is negative.  D at
    a grid point is taken exactly, from the four lanes (Re, Im of psi1
    and psi2) of series.grid_evaluator, and rounded once to working
    precision only at bracket ends.  A sample where it is exactly zero
    is stepped over, so the bracket runs from the last nonzero sample
    across it.

    Every level is refined from the probes of the grid, at r and 0.9r
    and rounded once to the energy scale of e_max.  The pair picks the
    route.  A level of a PT pair carries c.  On the p-symmetric pair of
    an even N the even states are pure psi1 and the odd ones pure psi2,
    so a level is "even" when Re psi1 changes sign across its bracket
    and "odd" otherwise; parity "even" or "odd" passes the other
    brackets over before they are refined, "both" keeps every level,
    and c is None.  Any other parity-swapped pair has no quantization
    route (ParameterError).
    """
    swapped = pair.parity_swapped()
    if swapped and not pair.p_symmetric:
        flagged = [p.index for p in pt_pairs(pair.n_exponent) if p.p_symmetric]
        hint = f"; use --pair {flagged[0]}" if flagged else ""
        raise ParameterError(
            f"pair {pair.index} is parity-degenerate but not the p-symmetric "
            f"pair; no quantization method applies to it{hint}"
        )
    if parity not in ("even", "odd", "both"):
        raise ParameterError(f"parity must be 'even', 'odd' or 'both', got {parity!r}")
    if not isinstance(n_levels, int) or n_levels < 1:
        raise ParameterError(f"n_levels must be a positive integer, got {n_levels!r}")
    step, cap = as_fraction(step), as_fraction(e_max)
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    direction = -1 if pair.theta_right == Fraction(1, 2) else 1
    tol = ctx.tolerance(5)
    probes = _probes(pair, trunc, ctx, series._scale(cap))
    at, unit = series.grid_evaluator(probes[0], step.denominator)
    levels: list = []
    prev = None  # (k, D, Re psi1) at the last grid point where D is not zero
    with ctx.workdps():
        for k in itertools.count():
            if k * step > cap:
                raise TruncationError(
                    f"only {len(levels)} of {n_levels} levels found with |E| below e_max={cap}"
                )
            lanes = at(direction * k * step.numerator)
            fv = _determinant(swapped, *lanes)
            if not fv:
                continue
            if prev is not None and (prev[1] < 0) != (fv < 0):
                lo, hi = sorted((prev, (k, fv, lanes[0])), key=lambda point: direction * point[0])
                tag = ("even" if (lo[2] < 0) != (hi[2] < 0) else "odd") if swapped else None
                if not swapped or parity in ("both", tag):
                    bracket = tuple(ctx.mpf(direction * point[0] * step) for point in (lo, hi))
                    ends = (_rounded(lo[1], unit * unit), _rounded(hi[1], unit * unit))
                    level = _level(pair, len(levels), probes, bracket, tol, trunc, ctx, ends, tag)
                    levels.append(level)
                    if len(levels) == n_levels:
                        return tuple(levels)
            prev = (k, fv, lanes[0])


@dataclass(frozen=True)
class HealthReport:
    """The truncation's health on one wedge pair up to E = e_max."""

    pair: WedgePair
    e_max: Fraction
    tail: RealHP
    c_discrepancy: RealHP
    passed: bool


def health_check(
    pair: WedgePair,
    trunc: TruncationParams,
    e_max: Fractionable,
    ctx: PrecisionContext,
) -> HealthReport:
    """Diagnose whether (pmax, radius) is trustworthy for the pair up to
    E = e_max.

    The largest boundary term (p + q = pmax) must be negligible against
    psi1 at the right probe, and c(r) must agree with c(0.9r); psi1 and
    c come from the probes' energy polynomials.  Purely diagnostic:
    never raises on bad health.  A pair whose probe the truncation
    cannot evaluate at e_max (RadiusError) gets an infinite tail and c
    discrepancy, and fails.
    """
    cap = as_fraction(e_max)
    table = series.build_tables(pair.n_exponent, trunc.pmax)
    tail_threshold = mp.mpf(10) ** TAIL_THRESHOLD_EXPONENT
    c_threshold = mp.mpf(10) ** (-(ctx.digits // 4))
    with ctx.workdps():
        ev = ctx.mpf(cap)
        peak = series.rim_peak(table, ctx.mpf(trunc.radius), ev, ctx)
        outer_polys, inner_polys = _probes(pair, trunc, ctx, series._scale(cap * Fraction(97, 96)))
        try:
            # the left probe, -conj z (PT pair) or -z (parity pair), gives the
            # same tail: psi1(-conj z) = conj psi1(z) at real E, and psi1 is even
            psi1 = abs(series.eval_energy_poly(outer_polys[0], ev))
            tail = peak / psi1 if psi1 else mp.inf
            c_disc = mp.inf
            for probe in (ev, ev * mp.mpf(97) / 96):
                try:
                    c_out = _c_from_polys(*outer_polys, probe, ctx)
                    c_disc = abs(c_out - _c_from_polys(*inner_polys, probe, ctx))
                    break
                except PoleError:
                    continue
        except RadiusError:  # e_max beyond what the truncation evaluates
            tail = c_disc = mp.inf
        passed = bool(tail < tail_threshold and c_disc < c_threshold)
    return HealthReport(pair, cap, tail, c_disc, passed)
