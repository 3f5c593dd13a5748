"""Complex zeros of eigenfunctions.

At a fixed level the eigenfunction is one polynomial in w = iz.  Its
number of zeros in a box is the winding of psi along the boundary (the
argument principle; Delves and Lyness, Math. Comp. 21 (1967) 543), and
boxes are split until each holds one zero, which Newton polishes.  Each
line, a root box edge or a split's cross line, is sampled once, and a
box's edges are slices of lines (Kravanja and Van Barel, Computing the
Zeros of Analytic Functions, LNM 1727, 2000), counted from float phases.
PT zeros come in two families: finitely many on an arch below the real
axis, and an infinite ladder up the positive imaginary axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp
from mpmath.libmp import to_float

from . import series
from .errors import DivergenceError, ParameterError, RadiusError, WindingError
from .precision import ComplexHP, PrecisionContext, as_fraction
from .quantize import EnergyLevel, _level_poly
from .wedges import polar_point, reduce_angle

__all__ = ["NodeSet", "turning_points", "newton_zero", "find_nodes"]

_NEWTON_CAP = 100
_AXIS_TOL = mp.mpf("1e-10")  # coarser than the Newton tol on purpose
_EDGE_DEPTH = 5  # 32 equal steps per line, sampled once; box edges are slices of lines
_MAX_PHASE_STEP = 0.5  # radians
_BISECT_CAP = 45  # a step halved to 2**-45 of its line still turning: a zero on the line
_TURN_TOL = 1e-6  # a closed loop's phase sum is 2*pi*k up to rounding
_SPLIT = Fraction(1, 2) + Fraction(1, 37)  # off centre: odd-level PT nodes sit on re = 0
_SPLIT_CAP = 60


@dataclass(frozen=True)
class NodeSet:
    """Classified zeros of one eigenfunction.

    axis_nodes lie on the positive imaginary axis; everything else is
    an arch node (including the purely imaginary node below the axis
    that odd levels have).  turning_points are the classical turning
    points adjacent to the pair's wedges.
    """

    level: EnergyLevel
    axis_nodes: tuple
    arch_nodes: tuple
    turning_points: tuple

    def count(self) -> int:
        return len(self.axis_nodes) + len(self.arch_nodes)


def turning_points(level: EnergyLevel):
    """Turning points (iz)**N = -E whose direction lies in the pair's
    wedges, sorted by angle, at the level's working precision.

    iz = |E|**(1/N) exp(i*pi*(phi + 2k)/N) with phi = 1 for E > 0 and 0
    for E < 0, so the directions are the exact Fractions (phi + 2k)/N -
    1/2.  Those inside the pair's wedges (WedgePair.contains_angle) are
    kept, sorted by their angle reduced to (-1, 1], and placed by
    wedges.polar_point: a point on an axis has an exactly zero re or im.
    """
    n = level.pair.n_exponent
    ctx = level.ctx
    with ctx.workdps():
        e_val = mp.mpf(level.E)
        if e_val == 0:
            return ()
        rho = abs(e_val) ** (mp.mpf(1) / n)
        phi = 1 if e_val > 0 else 0
        angles = sorted(reduce_angle(Fraction(phi + 2 * k, n) - Fraction(1, 2)) for k in range(n))
        return tuple(rho * polar_point(1, t, ctx) for t in angles if level.pair.contains_angle(t))


def newton_zero(level: EnergyLevel, z0, tol, region: Optional[tuple] = None) -> ComplexHP:
    """Polish one seed to a zero of the eigenfunction polynomial, at the
    level's working precision.

    Stops when the Newton step drops below tol*max(1, |z|).  Raises
    RadiusError when an iterate leaves the level's validated disk or the
    given region (re_min, re_max, im_min, im_max), and DivergenceError
    after 100 steps.
    """
    ctx, bound = level.ctx, level.trunc.radius
    poly = _level_poly(level, ctx)
    with ctx.workdps():
        tol = mp.mpf(tol)
        if tol <= 0:
            raise ParameterError("tol must be positive")
        radius = ctx.mpf(bound)
        x0, x1, y0, y1 = (ctx.mpf(v) for v in region or (0, 0, 0, 0))
        z = mp.mpc(z0)
        for _ in range(_NEWTON_CAP):
            if abs(z) > radius:
                raise RadiusError(f"Newton iterate left the validated disk |z| <= {bound}")
            if region and not (x0 <= z.real <= x1 and y0 <= z.imag <= y1):
                raise RadiusError("Newton iterate left the region " + ",".join(map(str, region)))
            psi, dpsi = series.poly_psi_d(poly, z)
            if dpsi == 0:
                raise DivergenceError("psi' vanished during Newton iteration")
            step = psi / dpsi
            z = z - step
            if abs(step) <= tol * max(mp.mpf(1), abs(z)):
                return z
        raise DivergenceError(f"no convergence within {_NEWTON_CAP} Newton steps")


def _winding_counter(poly, ctx: PrecisionContext):
    """(boundary, split, winding) on sample paths of psi, under ctx.workdps().

    A line (a root box edge or a cross line of a split) is sampled once at
    2**_EDGE_DEPTH equal steps, each bisected while it turns by more than
    _MAX_PHASE_STEP.  A box's edges (bottom, right, top, left) are paths in
    increasing coordinate; split cuts them and the box's two cross lines at
    _SPLIT of each side, re-checking the steps beside each cut point.  Each
    sample keeps one float phase, from the mantissas of Re and Im psi
    shifted by one common exponent, so no |psi| overflows; a step turns by
    the difference of two phases wrapped to [-pi, pi].  53 bits suffice:
    each phase is off by about 2**-52 rad, so a box's turns sum to 2*pi
    times its winding number far inside _TURN_TOL, and only a turn that
    close to _MAX_PHASE_STEP could be bisected otherwise."""

    @functools.cache
    def phase(pt):
        value = series.poly_psi(poly, mp.mpc(ctx.mpf(pt[0]), ctx.mpf(pt[1])))
        if value == 0:
            raise WindingError(f"psi vanishes on a box edge at {complex(*map(float, pt))}")
        parts = value._mpc_  # (sign, mantissa, exponent, bits) of Re and Im
        top = max(e + bits for _, m, e, bits in parts if m)
        re, im = (to_float((s, m, e - top, bits)) if m else 0.0 for s, m, e, bits in parts)
        return math.atan2(im, re)

    def turn(a, b):
        return math.remainder(phase(b) - phase(a), math.tau)

    def fill(a, b, depth=_EDGE_DEPTH):  # the points bisection adds strictly between a and b
        if depth >= _EDGE_DEPTH and abs(turn(a, b)) <= _MAX_PHASE_STEP:
            return []
        if depth == _BISECT_CAP:
            raise WindingError(f"a zero lies on a box edge near {complex(*map(float, a))}")
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        return fill(a, mid, depth + 1) + [mid] + fill(mid, b, depth + 1)

    def line(a, b):  # halved _EDGE_DEPTH times before the rule applies
        return [a] + fill(a, b, 0) + [b]

    def cut(path, pt):  # (path up to pt, path from pt), re-checking the two steps beside pt
        i = next(k for k, p in enumerate(path) if p >= pt)  # the one coordinate that varies decides
        return path[:i] + fill(path[i - 1], pt) + [pt], [pt] + fill(pt, path[i]) + path[i:]

    def boundary(box):
        x0, x1, y0, y1 = box
        a, b, c, d = (x0, y0), (x1, y0), (x1, y1), (x0, y1)
        return line(a, b), line(b, c), line(d, c), line(a, d)

    def split(edges):  # [(quarter, its edges)] in the order of find_nodes
        (x0, y0), (x1, y1) = edges[0][0], edges[2][-1]
        xs, ys = x0 + (x1 - x0) * _SPLIT, y0 + (y1 - y0) * _SPLIT
        cuts = map(cut, edges, ((xs, y0), (x1, ys), (xs, y1), (x0, ys)))
        (b0, b1), (r0, r1), (t0, t1), (l0, l1) = cuts
        v0, v1 = cut(line((xs, y0), (xs, y1)), (xs, ys))
        h0, h1 = cut(line((x0, ys), (x1, ys)), (xs, ys))
        return [((x0, xs, y0, ys), (b0, v0, h0, l0)), ((x0, xs, ys, y1), (h0, v1, t0, l1)),
                ((xs, x1, y0, ys), (b1, r0, h1, v0)), ((xs, x1, ys, y1), (h1, r1, t1, v1))]

    def winding(edges):
        signs = (1, 1, -1, -1)  # counter-clockwise: the top and left paths run backwards
        turns = sum(s * turn(a, b) for s, e in zip(signs, edges) for a, b in zip(e, e[1:])) / math.tau
        if abs(turns - round(turns)) > _TURN_TOL:
            raise WindingError(f"winding number {mp.nstr(turns, 8)} is not an integer")
        return round(turns)

    return boundary, split, winding


def _polish(level, box, region, tol, ctx) -> Optional[ComplexHP]:
    """Newton from the centre of box, given up outside region; None unless it ends in box."""
    centre = mp.mpc(ctx.mpf((box[0] + box[1]) / 2), ctx.mpf((box[2] + box[3]) / 2))
    try:
        z = newton_zero(level, centre, tol, region)
        if abs(z.real) < tol:  # on the PT symmetry line: iterates started on it stay on it
            z = newton_zero(level, mp.mpc(0, z.imag), tol, region)
    except (RadiusError, DivergenceError):
        return None
    x0, x1, y0, y1 = (ctx.mpf(v) for v in box)
    return z if x0 <= z.real <= x1 and y0 <= z.imag <= y1 else None


def find_nodes(level: EnergyLevel, region: Optional[tuple] = None) -> NodeSet:
    """All eigenfunction zeros inside region = (re_min, re_max, im_min, im_max).

    The region must lie in the level's validated disk (RadiusError), and
    the search runs at the level's working precision.  It defaults
    to the arch box |re| <= ext, -ext <= im <= 0, ext = 1.2*|E|**(1/N) to
    3 digits but at most radius/sqrt(2); for N=3 it holds as many zeros
    as the level index.  On the p-symmetric pair of an even N, whose
    eigenfunctions are even or odd (odd ones vanish at z = 0), it
    defaults to the square |re|, |im| <= ext, which z = 0 and the real
    axis cross inside.  Boxes are split into four until each holds one
    zero, which Newton from the box centre polishes.  WindingError: a zero
    on an edge, quarter windings not summing to their box's, or a counted
    zero not placed within _SPLIT_CAP splits.  Zeros on re = 0 above the
    axis (to 1e-10) are axis nodes, the rest arch nodes, sorted by im (to the
    Newton tolerance), then re.
    """
    ctx, radius = level.ctx, level.trunc.radius
    if region is None:
        with ctx.workdps():
            scale = mp.mpf(12) / 10 * abs(mp.mpf(level.E)) ** (mp.mpf(1) / level.pair.n_exponent)
            ext = as_fraction(mp.nstr(scale, 3))
        ext = min(ext, Fraction(math.isqrt(int(radius**2 * 10**6 / 2)), 1000))
        region = (-ext, ext, -ext, ext if level.pair.p_symmetric else Fraction(0))
    root = tuple(as_fraction(v) for v in region)
    re_min, re_max, im_min, im_max = root
    shown = ",".join(map(str, root))
    if re_min >= re_max or im_min >= im_max:
        raise ParameterError(f"degenerate region {shown}")
    if max(re_min**2, re_max**2) + max(im_min**2, im_max**2) > radius**2:
        raise RadiusError(f"region {shown} leaves the validated disk |z| <= {radius}")

    poly = _level_poly(level, ctx)
    with ctx.workdps():
        tol = ctx.tolerance()
        boundary, split, winding = _winding_counter(poly, ctx)
        count = winding(edges := boundary(root))
        todo = [(root, edges, count, 0)] if count else []
        found = []
        while todo:
            box, edges, count, depth = todo.pop()
            if count == 1 and (z := _polish(level, box, root, tol, ctx)) is not None:
                found.append(z)
                continue
            if depth == _SPLIT_CAP:
                raise WindingError(f"{count} zeros not placed after {depth} box splits")
            quarters = split(edges)
            counts = [winding(e) for _, e in quarters]
            if sum(counts) != count:
                raise WindingError(f"windings {counts} of four quarters do not sum to {count}")
            todo += [(q, e, k, depth + 1) for (q, e), k in zip(quarters, counts) if k]

        # the two members of a PT mirror pair share im up to rounding noise:
        # order by im snapped to the Newton tolerance, then by re
        found.sort(key=lambda z: (mp.nint(z.imag / tol), z.real))
        axis = tuple(z for z in found if abs(z.real) < _AXIS_TOL and z.imag > 0)
        arch = tuple(z for z in found if not (abs(z.real) < _AXIS_TOL and z.imag > 0))
    turning = turning_points(level)
    return NodeSet(level=level, axis_nodes=axis, arch_nodes=arch, turning_points=turning)
