"""Stokes-wedge geometry: center angles and PT-symmetric pairs.

Angles are kept as exact Fractions measured in units of pi, reduced to
(-1, 1].  The wedge centers for exponent N form the lattice

    theta_k = theta_0 + 2k/(N+2),   theta_0 = -(N-2)/(2(N+2)),

and PT reflection acts as theta -> -1 - theta.  Eigenvalue problems
live on pairs of non-adjacent wedges that map to each other under PT.
The two self-reflected centers +1/2 and -1/2 (present for even N) carry
no PT quantization on their own but combine into the parity pair, where
eigenstates are pure psi1 (even) or psi2 (odd).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

from .errors import ParameterError
from .precision import PrecisionContext, RealHP

__all__ = [
    "WedgePair",
    "ground_angle",
    "reduce_angle",
    "pt_reflect",
    "angle_radians",
    "polar_point",
    "pt_pairs",
]


def reduce_angle(f: Fraction) -> Fraction:
    """Reduce an angle (in units of pi) to the interval (-1, 1]."""
    f = Fraction(f)
    while f > 1:
        f -= 2
    while f <= -1:
        f += 2
    return f


def pt_reflect(f: Fraction) -> Fraction:
    """PT reflection of a direction: theta -> -pi - theta, reduced."""
    return reduce_angle(Fraction(-1) - Fraction(f))


def ground_angle(n_exponent: int) -> Fraction:
    """Center angle (units of pi) of the wedge continuing the harmonic
    oscillator's positive real axis: -(N-2)/(2(N+2))."""
    if not isinstance(n_exponent, int) or n_exponent < 2:
        raise ParameterError(f"N must be an integer >= 2, got {n_exponent!r}")
    return Fraction(-(n_exponent - 2), 2 * (n_exponent + 2))


def angle_radians(f: Fraction, ctx: PrecisionContext) -> RealHP:
    """Exact fraction-of-pi angle as an mpf in radians."""
    with ctx.workdps():
        return mp.pi * mp.mpf(f.numerator) / f.denominator


def polar_point(rho: Fraction, theta_pi: Fraction, ctx: PrecisionContext):
    """rho * exp(i*pi*theta_pi) as an mpc: rho * (cospi + i*sinpi) of the
    exact angle, the one rule for every point at a rational multiple of
    pi, which gives exact zeros on the four half-axes."""
    with ctx.workdps():
        r = ctx.mpf(rho)
        arg = mp.mpf(theta_pi.numerator) / theta_pi.denominator
        return r * mp.mpc(mp.cospi(arg), mp.sinpi(arg))


class WedgePair(NamedTuple):
    """A PT pair of wedge centers.

    theta_right/theta_left are exact multiples of pi (Fractions in
    (-1, 1]); theta_right is the member within (-1/2, 1/2], theta_left
    its partner.  index is the position in the pt_pairs listing.
    p_symmetric marks the parity pair of even N.
    """

    index: int
    n_exponent: int
    theta_right: Fraction
    theta_left: Fraction
    half_width: Fraction
    p_symmetric: bool

    def parity_swapped(self) -> bool:
        """True when the two members are parity images (theta +- pi)."""
        return reduce_angle(self.theta_right + 1) == self.theta_left

    def contains_angle(self, f: Fraction) -> bool:
        """True if the direction f (units of pi) lies strictly inside
        either wedge of the pair."""
        for center in (self.theta_right, self.theta_left):
            d = reduce_angle(Fraction(f) - center)
            if abs(d) < self.half_width:
                return True
        return False


def pt_pairs(n_exponent: int) -> tuple:
    """All PT wedge pairs for exponent N, ordered by decreasing
    theta_right.

    Odd N gives (N-1)/2 pairs, even N gives (N+2)/2 including the
    parity pair {+pi/2, -pi/2} built from the two self-reflected
    centers.  Exactly one pair of an even N has p_symmetric set:
    the pair whose members are parity images of each other, preferring
    the one that is also member-swapped by PT when both exist, which is
    theta_right = 0 when N = 2 (mod 4) and 1/2 when N = 0 (mod 4).
    """
    if not isinstance(n_exponent, int) or n_exponent < 2:
        raise ParameterError(f"N must be an integer >= 2, got {n_exponent!r}")
    theta0 = ground_angle(n_exponent)
    spacing = Fraction(2, n_exponent + 2)
    even = n_exponent % 2 == 0
    count = (n_exponent + 2) // 2 if even else (n_exponent - 1) // 2

    raw = []
    for k in range(count):
        tr = reduce_angle(theta0 + k * spacing)
        if even and tr == Fraction(1, 2):
            tl = Fraction(-1, 2)  # self-reflected centers joined by parity
        else:
            tl = pt_reflect(tr)
        raw.append((tr, tl))

    # the parity image of theta is theta + 1, so the pairs of parity images
    # are {0, 1} (present when N = 2 mod 4, and PT-swapped) and {1/2, -1/2}
    flagged = {0: Fraction(1, 2), 2: Fraction(0)}.get(n_exponent % 4)

    order = sorted(range(count), key=lambda i: raw[i][0], reverse=True)
    return tuple(
        WedgePair(
            index=pos,
            n_exponent=n_exponent,
            theta_right=raw[i][0],
            theta_left=raw[i][1],
            half_width=Fraction(1, n_exponent + 2),
            p_symmetric=raw[i][0] == flagged,
        )
        for pos, i in enumerate(order)
    )
