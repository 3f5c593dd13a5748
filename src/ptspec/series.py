"""Series coefficients by their recursion, and truncated-series evaluation.

The equation -psi''(z) - (iz)**N psi(z) = E psi(z) has two fundamental
solutions, analytic at z = 0, expandable in the variable w = iz:

    psi1 = sum_{p,q} a[p,q] * w**((N+2)*p + 2*q)     * E**q
    psi2 = sum_{p,q} b[p,q] * w**(1 + (N+2)*p + 2*q) * E**q

with a[0,0] = b[0,0] = 1 and the two-term recursions

    (m-1)*m     * a[p,q] = a[p-1,q] + a[p,q-1],   m = (N+2)*p + 2*q
    m2*(m2+1)   * b[p,q] = b[p-1,q] + b[p,q-1],   m2 = (N+2)*p + 2*q

(absent neighbors count as zero).  Every coefficient is positive, and
none is stored: build_tables gives only the truncation p + q <= pmax.
The module is built in layers:

* the recursion pass: _pass runs both recursions once, scaled to the
  point of use as X[p,q] = a[p,q] x**p y**q for x, y >= 0, in integers
  with every division rounded down.  All terms are positive, so no
  rounding is amplified by cancellation: its fractional bits need only
  cover max X, and the equation bounds that in closed form (_peak_bound).
  Three readers run it: _radial_sums at (x, y) = (r**(N+2), R**(N+2)),
  R = 2**rho >= r, sums it over p into the real radial sums alpha_q and
  beta_q of one radius; _space_sums at (R**(N+2), R**2 |E|) sums it for
  each m into the coefficients of psi1 and psi2 in u = w/R at real E;
  _rim at (|w|**(N+2), |w|**2 |E|) takes the last antidiagonal p + q =
  pmax, often far below max X, at the working precision, for the
  closed-form residual and the maximum rim_peak behind the health check's
  tails: it runs the pass at a point scaled up by a power of two until
  no antidiagonal sum falls, so the rim holds the largest values;
* integer collapses: at a wedge centre z = r*exp(i*pi*theta),
  energy_polynomials turns the radial sums into polynomials in E (degree
  pmax, for eigenvalue scans); at fixed E, space_polynomial combines the
  space sums into alpha*psi1 + beta*psi2 as a polynomial in w = iz (for
  nodes, wavefunctions, exact moments and eval_psi).  Both return
  ScaledPoly: integer coefficients of the scaled variable u = x/2**rho,
  read only in the disk |u| <= 1 it is scaled for.
  At a wedge centre arg w = 2*pi*(k+1)/(N+2), so w**(N+2) = r**(N+2) and

    psi1 = sum_q alpha_q(r) (w**2 E)**q,   psi2 = w sum_q beta_q(r) (w**2 E)**q

  with alpha_q(r) = sum_p a[p,q] r**((N+2)*p) and beta_q(r) real; each
  probe multiplies them by the powers of w, placed from cospi and sinpi
  of its exact phase theta + 1/2 like every point at a rational angle
  (wedges.polar_point).  They are read only at |E| <= R**N, the energy
  scale.  A request whose energies stay below a power of two 2**sigma <
  R**N rescales them once, down to it, and reads every value from that
  copy: ScaledPoly.rescaled shifts coefficient q right by (N*rho -
  sigma)*q bits, dropping bits that only larger energies would use;
* integer kernel: _horner evaluates a polynomial P and, when asked, its
  slope P' on (re, im) integer pairs at |u| <= 1, with its bits set by
  the cancellation measured at the call point, and drops the tail that a
  suffix bound (ScaledPoly.kept) certifies below half a unit of them;
  eval_energy_poly, poly_psi, poly_psi_d and the moment integrals all
  run through it.  A point past |u| <= 1 (and _point's slack of 2**-60)
  raises RadiusError: no polynomial is read outside its scale disk;
* exact grid: grid_evaluator gives energy polynomials on a grid of
  rationals t/den exactly, as Horner's rule in the short integer t on
  integer coefficients, for the scans that need only signs and ratios;
  it refuses the points the kernel refuses;
* exact moments in integers: poly_square squares a space polynomial as
  one packed integer product, and moment_integral evaluates the
  integer antiderivative of S(w) w**m at the two contour ends, so no
  coefficient list goes back to mpc;
* mpc at the boundary: every value handed back to quantize, nodes and
  observables is an mpmath number at the working precision.

One memo policy covers every result reused across calls: the table
handle, the radial and space sums and the two collapses here, and the
level square and moment integrals in observables, are pure stages
wrapped by memo, which keeps the MEMO_CAP most recently used results of
each under their argument tuple.  Everything in those tuples, tables
included, compares by value (two radii, contexts or tables of the same
value share an entry).
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from operator import mul
from typing import Sequence

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp

from .errors import ParameterError, RadiusError
from .precision import (
    ComplexHP,
    PrecisionContext,
    RealHP,
    as_fraction,
)

__all__ = [
    "MEMO_CAP",
    "TruncationParams",
    "CoefficientTable",
    "ScaledPoly",
    "memo",
    "clear_memos",
    "build_tables",
    "eval_psi",
    "residual",
    "rim_peak",
    "wronskian",
    "energy_polynomials",
    "eval_energy_poly",
    "grid_evaluator",
    "space_polynomial",
    "poly_square",
    "moment_integral",
    "poly_psi",
    "poly_psi_d",
]


@dataclass(frozen=True)
class TruncationParams:
    """Antidiagonal truncation order and evaluation radius.

    The radius is stored exactly (as a Fraction) so reports and memo
    keys never depend on binary float noise.
    """

    pmax: int = 100
    radius: Fraction = Fraction(8)

    def __post_init__(self) -> None:
        if not isinstance(self.pmax, int) or self.pmax < 1:
            raise ParameterError(f"pmax must be a positive integer, got {self.pmax!r}")
        object.__setattr__(self, "radius", as_fraction(self.radius))
        if self.radius <= 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class CoefficientTable:
    """The truncation p + q <= pmax of the series of one N: a value with
    no coefficients.  The evaluators read N and pmax from it and run the
    recursions scaled to their point (see _pass); equal tables share memo
    entries."""

    n_exponent: int
    pmax: int


# ---------------------------------------------------------------------------
# the memo policy

MEMO_CAP = 32
_MEMOS: list = []


def memo(stage):
    """The pure function stage with its results kept under its argument
    tuple: equal arguments of the same types share an entry (so 3.0 never
    skips the validation of 3, and equal tables share one), and the least
    recently used entry goes first once MEMO_CAP are held.  The result is a plain function
    carrying stage's name and module, as per-function tracing needs."""
    cached = functools.lru_cache(maxsize=MEMO_CAP, typed=True)(stage)
    _MEMOS.append(cached)

    @functools.wraps(stage)
    def memoized(*args, **kwargs):
        return cached(*args, **kwargs)

    return memoized


def clear_memos() -> None:
    """Empty every memo, so the next call of each stage computes afresh."""
    for cached in _MEMOS:
        cached.cache_clear()


@memo
def build_tables(n_exponent: int, pmax: int) -> CoefficientTable:
    """The validated truncation (N, pmax) of the series (memoized)."""
    if not isinstance(n_exponent, int) or n_exponent < 2:
        raise ParameterError(f"N must be an integer >= 2, got {n_exponent!r}")
    if not isinstance(pmax, int) or pmax < 1:
        raise ParameterError(f"pmax must be a positive integer, got {pmax!r}")
    return CoefficientTable(n_exponent, pmax)


# ---------------------------------------------------------------------------
# fixed-point integers: every quantity below is an integer I standing for
# I * 2**-frac in units scaled by a power of two, so sums and products are
# exact integer operations and rounding happens only in explicit shifts


def _count(table: CoefficientTable) -> int:
    """The number of (p, q) with p + q <= pmax."""
    return (table.pmax + 1) * (table.pmax + 2) // 2


def _bits(table: CoefficientTable, dps: int) -> int:
    """Fractional bits of the collapses at working precision dps: mpmath's
    bits for dps plus room for the roundings of the recursion pass and for
    the kernel's Taylor orders (see _resolution)."""
    count = max(_count(table), (table.n_exponent + 2) * table.pmax + 2)
    return dps_to_prec(dps) + 3 * count.bit_length() + 1


def _split(x):
    """x as exact integers (xr, xi, e) with x = (xr + i*xi) * 2**e."""
    (sr, mr, er, _), (si, mi, ei, _) = mp.mpc(x)._mpc_
    if (not mr and er) or (not mi and ei):  # mpmath's zero has exponent 0
        raise ParameterError(f"cannot evaluate at the non-finite point {x}")
    if not mr:
        er = ei
    if not mi:
        ei = er
    e = min(er, ei)
    return (-mr if sr else mr) << (er - e), (-mi if si else mi) << (ei - e), e


def _point(x):
    """(xr, xi, e, rho, lx) for x = (xr + i*xi) * 2**e: rho is the smallest
    integer with |x| <= 2**rho * (1 + 2**-60), the slack keeping a point
    rounded just outside a radius such as 8 at that radius, and lx the
    floor of a lower bound of log2 |x|; both None for x = 0."""
    xr, xi, e = _split(x)
    n2 = xr * xr + xi * xi
    if not n2:
        return xr, xi, e, None, None
    lx = (n2.bit_length() - 1) // 2 + e
    n2 -= n2 >> 59
    return xr, xi, e, e + ((n2 - 1).bit_length() + 1) // 2, lx


def _exact(x) -> Fraction:
    """x, an mpf or anything as_fraction reads, as an exact Fraction."""
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp
        if not man and exp:  # mpmath's zero has exponent 0
            raise ParameterError(f"cannot evaluate at the non-finite value {x}")
        return man * Fraction(2) ** exp
    return as_fraction(x)


def _scale(*values) -> int | None:
    """The smallest sigma with 2**sigma >= |x| for every x given, exactly
    (through _exact); None when they are all zero."""
    top = max(abs(_exact(x)) for x in values)
    if not top:
        return None
    # top lies strictly between 2**(sigma-1) and 2**(sigma+1)
    sigma = top.numerator.bit_length() - top.denominator.bit_length()
    return sigma if top <= Fraction(2) ** sigma else sigma + 1


@dataclass(frozen=True)
class ScaledPoly:
    """The polynomial sum_k c_k x**k in fixed point at scale 2**rho:
    c_k * 2**(rho*k) = (re[k] + i*im[k]) * 2**-frac, so |x| <= 2**rho puts
    the variable u = x / 2**rho in the unit disk.  len() is the number of
    coefficients.  bounds holds lower bounds of log2 of the scaled
    coefficients that _horner turns into its working bits, and tail[k] the
    largest bit length of re[j] and im[j] over j >= k, for kept()."""

    re: tuple
    im: tuple
    frac: int
    rho: int
    bounds: tuple = field(init=False, repr=False, compare=False)
    tail: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = [max(r.bit_length(), i.bit_length()) for r, i in zip(self.re, self.im)]
        object.__setattr__(self, "bounds", _bounds([b - 1 - self.frac if b else None for b in sizes]))
        suffix = list(accumulate(reversed(sizes), max))[::-1]
        object.__setattr__(self, "tail", memoryview(struct.pack(f"{len(suffix)}I", *suffix)).cast("I"))

    def __len__(self) -> int:
        return len(self.re)

    def kept(self, n2: int, s: int, frac: int) -> int:
        """How many leading coefficients D_0..D_K a point u with |u|**2 = n2 /
        4**s needs at frac working bits; all when u = 0 or |u| may reach 1.
        For lu = log2(n2)/2 - s, d the degree, the dropped tails of the value
        and the slope are at most sum_{k>K} k |D_k| |u|**(k-1) < 2**(tail[K+1]
        + 1/2 - self.frac + 2*bits(d) + K*lu), as |D_k| < 2**(tail[K+1] + 1/2 -
        self.frac) for k > K: under half a unit 2**-(frac+1) once tail[K+1] = 0
        or tail[K+1] + 2*bits(d) + 2 + K*lu <= self.frac - frac, half a bit
        spared for the float rounding of lu.  The left side falls with K:
        bisection finds the least such K."""
        d = len(self) - 1
        if not n2 or (lu := math.log2(n2) / 2 - s) >= 0 or d < 1:
            return len(self)
        tail, limit = self.tail, self.frac - frac - 2 - 2 * d.bit_length()
        return 1 + bisect_left(range(d), True, key=lambda k: tail[k + 1] <= max(limit - k * lu, 0))

    def rescaled(self, rho: int) -> "ScaledPoly":
        """The same coefficients at a scale 2**rho at most its own (nothing
        moves up): coefficient k shifts right by (self.rho - rho)*k bits,
        rounded once to nearest, dropping the bits that only points beyond
        2**rho would use."""
        d = self.rho - rho

        def moved(c: int, k: int) -> int:
            s = d * k
            return (c + (1 << s >> 1)) >> s

        return ScaledPoly(
            tuple(moved(r, k) for k, r in enumerate(self.re)),
            tuple(moved(i, k) for k, i in enumerate(self.im)),
            self.frac,
            rho,
        )


def _bounds(lgs) -> tuple:
    """From floor(log2 |D_k|) per coefficient (None for 0): per Taylor order
    j <= 1 the first nonzero coefficient at k >= j as (k, lg), and the
    largest coefficient as (k, lg)."""
    firsts = []
    for j in range(min(2, len(lgs))):
        firsts.append(next(((k, lg) for k, lg in enumerate(lgs) if k >= j and lg is not None), None))
    known = [(k, lg) for k, lg in enumerate(lgs) if lg is not None]
    return tuple(firsts), max(known, key=lambda hit: hit[1], default=None)


def _resolution(bounds, deg: int, lu, prec: int):
    """Fractional bits at which _horner's rounding stays below 2**-prec times
    the majorant sum_k binom(k, j) |D_k| |u|**(k-j) of each Taylor order
    j <= 1, that is F = prec + (j+1)*bits(deg) + bits(kappa) with kappa the
    ratio of the unit to a lower bound of the majorant at |u| >= 2**lu
    (lu None: u = 0).  None when every majorant is zero."""
    firsts, peak = bounds
    nb = (deg + 1).bit_length()
    need = None
    for j, first in enumerate(firsts):
        best = None
        for hit in (first, peak):
            if hit is None or hit[0] < j or (hit[0] > j and lu is None):
                continue
            lg = hit[1] + (hit[0] - j) * lu if hit[0] > j else hit[1]
            best = lg if best is None else max(best, lg)
        if best is not None:
            bits = prec + (j + 1) * nb + 1 - best
            need = bits if need is None else max(need, bits)
    return need


# ---------------------------------------------------------------------------
# the recursion pass, run once per point of use


def _pass(step: int, pmax: int, x: Fraction, y: Fraction, b0: Fraction, frac: int):
    """Yield the antidiagonals s = 0..pmax of the recursions scaled by x, y
    >= 0 in turn, so only the one in hand stays alive: per s the pair (A, B)
    of lists over p = 0..s of

        A[p] = X[p,q] = a[p,q] x**p y**q,   B[p] = b0 * b[p,q] x**p y**q,

    q = s - p, as integers at frac fractional bits, from

        X[p,q] = (x X[p-1,q] + y X[p,q-1]) / ((m-1)*m)

    (m*(m+1) for B) with every division rounded down.  All terms are
    positive, so a stored value is below the exact one by the roundings
    it inherits: the unit lost at (p',q') reaches (p,q) through the same
    recursion started at (p',q'), whose divisors exceed those of
    X[p-p',q-q'] from (0,0).  So the shortfall is below sum X[p-p',q-q']
    <= count * max X units; that of B likewise, as b[p,q] <= a[p,q].  The
    callers size frac from closed-form facts of the recursion, not from a
    second run of it: a bound on max X (_peak_bound), or the growth of the
    antidiagonal sums (_rim)."""
    den = x.denominator * y.denominator
    cx, cy = x.numerator * y.denominator, y.numerator * x.denominator
    k = (den & -den).bit_length() - 1  # den = odd * 2**k: the power of two is a shift
    odd = den >> k
    a, b = [1 << frac], [(b0.numerator << frac) // b0.denominator]
    yield a, b
    for s in range(1, pmax + 1):
        ms = [2 * s + (step - 2) * p for p in range(s + 1)]
        a = [((cx * l + cy * r) >> k) // (odd * (m - 1) * m) for l, r, m in zip([0] + a, a + [0], ms)]
        b = [((cx * l + cy * r) >> k) // (odd * m * (m + 1)) for l, r, m in zip([0] + b, b + [0], ms)]
        yield a, b


def _peak_bound(table: CoefficientTable, x: Fraction, y: Fraction) -> float:
    """An upper bound on log2 of max X[p,q] = a[p,q] x**p y**q over p + q <=
    pmax, in closed form.  Put A = 2*sqrt(x)/(N+2) + sqrt(y); the bound is
    A*log2(e) when A <= 2*pmax, and 2*pmax*log2(e*A/(2*pmax)) otherwise:

    * sum X is psi1 at the real point w = x**(1/(N+2)), E = y/w**2, and
      psi'' = (t**N + E) psi with psi'(0) = 0, so u = psi'/psi obeys u' =
      V - u**2 with u(0) = 0: u never rises above sqrt(V), which does not
      decrease, and log sum X <= int_0^w sqrt(t**N + E) dt <= A;
    * every X[p,q] at (x, y) is tau**-(p+q) times its value at (tau*x,
      tau*y), so X <= tau**-pmax * exp(A*sqrt(tau)) for 0 < tau <= 1, least
      at sqrt(tau) = 2*pmax/A."""
    pmax = table.pmax
    big = 2 * math.sqrt(x) / (table.n_exponent + 2) + math.sqrt(y)
    if big <= 2 * pmax:
        return big * math.log2(math.e)
    return 2 * pmax * math.log2(math.e * big / (2 * pmax))


def _sum_bits(table: CoefficientTable, x: Fraction, y: Fraction, bits: int) -> int:
    """Fractional bits at which _pass(x, y) leaves every sum of up to pmax + 1
    of its values within 2**-bits: the error bound of _pass, count * max X
    units per value, times pmax + 1, with max X from _peak_bound and one
    guard bit for the floating-point evaluation of that bound."""
    spread = _count(table).bit_length() + (table.pmax + 1).bit_length()
    return bits + math.ceil(_peak_bound(table, x, y)) + spread + 1


def eval_psi(
    table: CoefficientTable,
    z,
    E,
    ctx: PrecisionContext,
):
    """Evaluate the truncated fundamental pair at one point.

    Returns (psi1, psi1', psi2, psi2') as mpc values, derivatives taken
    with respect to z: psi1 and psi2 as space polynomials at E, scaled
    for the least disk |z| <= 2**rho that holds z (up to _point's slack),
    each read with its slope by poly_psi_d.  Integer arithmetic in a
    fixed order, so results are reproducible bit for bit.
    """
    with ctx.workdps():
        radius = Fraction(2) ** (_point(z)[3] or 0)  # z = 0 is read at any scale
        out = []
        for weights in ((1, 0), (0, 1)):
            out += poly_psi_d(space_polynomial(table, E, *weights, ctx, radius), z)
        return tuple(out)


def residual(
    table: CoefficientTable,
    z,
    E,
    ctx: PrecisionContext,
    which: str = "psi1",
):
    """ODE residual -psi'' - (iz)**N psi - E psi of one truncated series.

    Every interior term cancels through the recursion, so the residual
    is -(w**N + E) times the sum of the rim terms c[p,q] * E**q * w**m,
    p + q = pmax (_rim): it measures the truncation error directly, in
    closed form and without the cancellation of a second derivative.
    """
    if which not in ("psi1", "psi2"):
        raise ParameterError(f"which must be 'psi1' or 'psi2', got {which!r}")
    with ctx.workdps():
        w = mp.mpc(0, 1) * mp.mpc(z)
        ev = mp.mpf(E)
        return -(w ** table.n_exponent + ev) * mp.fsum(_rim(table, w, ev, which))


def _rim(table: CoefficientTable, w, ev, which: str) -> list:
    """Terms c[p,q] * E**q * w**m of psi1 (c = a) or psi2 (c = b, m + 1)
    on the last antidiagonal p + q = pmax, at the working precision.

    Their sizes are the rim of _pass at (x, y) = (|w|**(N+2), |w|**2 |E|),
    run at (2**k x, 2**k y) for the least k >= 0 with 2**k (x + y) >=
    ((N+2)*pmax)**2 and read at frac + k*pmax fractional bits, an exact
    shift.  As m <= (N+2)*s, the sum of antidiagonal s obeys T_s >= (x + y)
    T_(s-1) / ((N+2)*s)**2, so after the scaling no sum falls: the rim's is
    the largest, and its largest term is at least 1/(pmax+1) of every
    value.  frac = prec + 4 + spread + bits(pmax+1) thus rounds every rim
    term at 2**-prec relative to the largest of them (the rim of b is
    within a factor 2*pmax + 1 of that of a).  Signs and phases (E/|E|)**q
    * (w/|w|)**m follow in mpmath."""
    step, pmax = table.n_exponent + 2, table.pmax
    prec = mp.mp.prec
    guard = (step * pmax + 2).bit_length() + 4  # rounding x and y perturbs a term by <= m roundings
    with mp.workprec(prec + guard):
        size = abs(w)
        if not size:
            return [mp.mpf(0)] * (pmax + 1)
        x, y = _exact(size**step), _exact(size * size * abs(ev))
        unit = w / size
    k = (math.ceil((step * pmax) ** 2 / (x + y)) - 1).bit_length()
    spread = _count(table).bit_length() + (step * pmax + 2).bit_length()
    frac = prec + 4 + spread + (pmax + 1).bit_length()
    for a, b in _pass(step, pmax, x * 2**k, y * 2**k, Fraction(1), frac):
        pass  # on to the last antidiagonal, the rim
    sign = -1 if ev < 0 else 1
    row, lift = (a, 1) if which == "psi1" else (b, w)
    out = []
    for p, t in enumerate(row):
        term = mp.make_mpf(from_man_exp(t, -frac - k * pmax, prec, "n")) * sign ** (pmax - p)
        out.append(term * unit ** (step * p + 2 * (pmax - p)) * lift)
    return out


def rim_peak(table: CoefficientTable, radius, E, ctx: PrecisionContext) -> RealHP:
    """Largest magnitude of the terms of psi1 on the last antidiagonal
    p + q = pmax at |z| = radius and |E|.  Every a[p,q] is positive, so
    these are the rim terms at the real point w = radius, E = |E|: one
    value for every direction of that radius."""
    with ctx.workdps():
        return max(_rim(table, mp.mpf(radius), abs(mp.mpf(E)), "psi1"))


def wronskian(table: CoefficientTable, z, E, ctx: PrecisionContext) -> ComplexHP:
    """psi1 * psi2' - psi1' * psi2; exactly i for the full series."""
    p1, d1, p2, d2 = eval_psi(table, z, E, ctx)
    with ctx.workdps():
        return p1 * d2 - d1 * p2


# ---------------------------------------------------------------------------
# collapsed polynomial forms


@memo
def _radial_sums(table: CoefficientTable, radius: Fraction, bits: int, rho: int):
    """(alpha, beta, frac): at R = 2**rho >= radius, the real sums

        alpha[q] = sum_p a[p,q] r**((N+2)*p) R**((N+2)*q),
        beta[q] = R * sum_p b[p,q] r**((N+2)*p) R**((N+2)*q),

    as integers at frac fractional bits, each within 2**-bits below the
    exact sum: the sums over p of _pass at (x, y) = (r**(N+2), R**(N+2)).
    At a wedge centre u**(N+2) = (r/R)**(N+2) for u = iz/R, so a[p,q] w**m
    E**q = X[p,q] * u**(2q) * (E/R**N)**q and these sums are all a probe
    of that radius needs from the series.  Memoized: every wedge pair of N
    at one radius shares them."""
    step, pmax = table.n_exponent + 2, table.pmax
    x, y = radius**step, Fraction(2) ** (rho * step)
    frac = _sum_bits(table, x, y, bits)
    alpha, beta = [0] * (pmax + 1), [0] * (pmax + 1)
    for s, (a, b) in enumerate(_pass(step, pmax, x, y, Fraction(2) ** rho, frac)):
        for p in range(s + 1):
            alpha[s - p] += a[p]
            beta[s - p] += b[p]
    return tuple(alpha), tuple(beta), frac


@memo
def energy_polynomials(table: CoefficientTable, radius, theta, ctx: PrecisionContext):
    """Collapse the double series at the wedge centre z = radius *
    exp(i*pi*theta) into polynomials in E.

    Returns (A, B): ScaledPolys of the coefficients A_q, B_q with
    psi1(z, E) = sum_q A_q E**q and psi2(z, E) = sum_q B_q E**q, both of
    degree pmax.  theta (units of pi) must be a wedge centre of N, where
    u = iz / 2**rho has u**(N+2) real: A_q = alpha_q u**(2q) and B_q =
    beta_q u**(2q+1) in the scaled units, from the radial sums that every
    probe of the radius shares.  Any other theta raises ParameterError.

    The energy scale is S = R**N for the smallest power of two R >=
    radius, and every |E| > S raises RadiusError, in the kernel and on
    the exact grid alike; a request whose |E| stays below a smaller power
    of two rescales them once down to it (ScaledPoly.rescaled) and
    evaluates that copy only.  Memoized per (table, radius, theta, ctx);
    eigenvalue scans collapse once per probe and then evaluate thousands
    of energies at polynomial cost.
    """
    radius, theta = as_fraction(radius), as_fraction(theta)
    step = table.n_exponent + 2
    phase = theta + Fraction(1, 2)  # arg w / pi
    if (phase * step / 2).denominator != 1:
        raise ParameterError(f"theta={theta} is not a wedge centre of N={table.n_exponent}")
    rho = _scale(radius)
    bits = _bits(table, ctx.dps)
    alpha, beta, frac = _radial_sums(table, radius, bits, rho)
    with mp.workprec(frac + 20):
        t = mp.ldexp(mp.mpf(radius.numerator) / radius.denominator, frac - rho)
        arg = mp.mpf(phase.numerator) / phase.denominator
        ur, ui = (int(mp.nint(t * part(arg))) for part in (mp.cospi, mp.sinpi))
    pr, pi = [1 << frac], [0]  # u**k at frac fractional bits
    for _ in range(2 * table.pmax + 1):
        r, i = pr[-1], pi[-1]
        pr.append((r * ur - i * ui) >> frac)
        pi.append((r * ui + i * ur) >> frac)
    shift = 2 * frac - bits
    return tuple(
        ScaledPoly(
            tuple((x * pr[2 * q + odd]) >> shift for q, x in enumerate(sums)),
            tuple((x * pi[2 * q + odd]) >> shift for q, x in enumerate(sums)),
            bits,
            table.n_exponent * rho,
        )
        for odd, sums in ((0, alpha), (1, beta))
    )


def eval_energy_poly(coeffs: ScaledPoly, E) -> ComplexHP:
    """Horner evaluation of an energy polynomial at real E."""
    return _horner(coeffs, mp.mpf(E))[0]


@memo
def space_polynomial(
    table: CoefficientTable,
    E,
    alpha,
    beta,
    ctx: PrecisionContext,
    radius,
):
    """Collapse at fixed E: alpha*psi1 + beta*psi2 as a polynomial in w = iz.

    Returns a ScaledPoly of the C_k with psi(z) = sum_k C_k w**k at the
    scale 2**rho, the least power of two with 2**rho >= radius and
    2**(N*rho) >= |E|, each rounded once from the space sums: it is read
    at |z| <= 2**rho, and RadiusError is raised past that disk.  Memoized
    per (table, E, alpha, beta, ctx, radius); node searches, wavefunction
    sampling and the moments of one level reuse one collapse for
    thousands of point evaluations.
    """
    with ctx.workdps():
        ev, rho = mp.mpf(E), _scale(radius)
        if ev:
            rho = max(rho, -(-_scale(ev) // table.n_exponent))
        bits = _bits(table, ctx.dps)
        sum_a, sum_b, frac = _space_sums(table, ev, bits, rho)
        ar, ai, ea = _split(alpha)
        br, bi, eb = _split(beta)
    e0 = min(ea, eb, frac - bits)  # weights as integers over 2**-e0, then one shift
    ar, ai, br, bi = ar << (ea - e0), ai << (ea - e0), br << (eb - e0), bi << (eb - e0)
    shift = frac - bits - e0
    re = tuple((ar * x + br * y) >> shift for x, y in zip(sum_a, sum_b))
    im = tuple((ai * x + bi * y) >> shift for x, y in zip(sum_a, sum_b))
    return ScaledPoly(re, im, bits, rho)


@memo
def _space_sums(table: CoefficientTable, ev, bits: int, rho: int):
    """(psi1, psi2, frac): the coefficients of psi1 and psi2 in u = w /
    2**rho at real E = ev,

        psi1[k] = sum over m = k of a[p,q] R**m E**q,
        psi2[k] = sum over m + 1 = k of b[p,q] R**(m+1) E**q,

    as integers at frac fractional bits, each within 2**-bits of the exact
    sum: the sums of _pass at (x, y) = (R**(N+2), R**2 |E|), each term
    signed by (E/|E|)**q.  Memoized: the two halves
    of eval_psi share one pass."""
    step, pmax = table.n_exponent + 2, table.pmax
    x, y = Fraction(2) ** (rho * step), Fraction(2) ** (2 * rho) * abs(_exact(ev))
    frac = _sum_bits(table, x, y, bits)
    size = step * pmax + 2
    psi1, psi2 = [0] * size, [0] * size
    negative = ev < 0
    for s, (a, b) in enumerate(_pass(step, pmax, x, y, Fraction(2) ** rho, frac)):
        for p in range(s + 1):
            m = 2 * s + (step - 2) * p
            sign = -1 if negative and (s - p) % 2 else 1
            psi1[m] += sign * a[p]
            psi2[m + 1] += sign * b[p]
    return tuple(psi1), tuple(psi2), frac


def poly_psi(coeffs: ScaledPoly, z) -> ComplexHP:
    """Evaluate a space polynomial at z (Horner in w = iz)."""
    return _horner(coeffs, mp.mpc(0, 1) * mp.mpc(z))[0]


def poly_psi_d(coeffs: ScaledPoly, z):
    """Evaluate (psi, dpsi/dz) of a space polynomial at z."""
    psi, dpsi = _horner(coeffs, mp.mpc(0, 1) * mp.mpc(z), 1)
    return psi, mp.mpc(0, 1) * dpsi


# ---------------------------------------------------------------------------
# exact moment integrals


def poly_square(poly: ScaledPoly) -> ScaledPoly:
    """The square of a polynomial, exact, at the same scale and twice the
    fractional bits (the empty one squares to itself), by Kronecker
    substitution: R + iI as signed digits in base 2**(8*width), so
    re = (R+I)(R-I) and im = 2RI are two long integer products."""
    n = len(poly)
    top = max(map(abs, poly.re + poly.im), default=0).bit_length()
    width = (2 * top + n.bit_length() + 9) // 8  # bytes per digit: >= 2*top + bits(n) + 2 bits
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * (2 * n), "little")  # half in each digit

    def pack(coeffs):  # sum_k c_k 2**(8*width*k), through digits lifted by half
        lifted = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
        return int.from_bytes(lifted, "little") - (bias >> (8 * width * n))

    def unpack(x):  # the 2n-1 signed digits of x
        raw = (x + bias).to_bytes(2 * n * width, "little")
        digits = (raw[k:k + width] for k in range(0, len(raw) - width, width))
        return tuple(int.from_bytes(d, "little") - half for d in digits)

    r, i = pack(poly.re), pack(poly.im)
    re_packed, im_packed = (r + i) * (r - i), 2 * r * i
    del r, i  # only the two products stay alive while unpacking
    return ScaledPoly(unpack(re_packed), unpack(im_packed), 2 * poly.frac, poly.rho)


def _antiderivative(square: ScaledPoly, m: int) -> ScaledPoly:
    """sum_j S_j w**(j+m+1) / (j+m+1) for square = sum_j S_j w**j, each
    integer coefficient rounded down (floor division by j+m+1)."""
    shift = square.rho * (m + 1)  # the factor 2**(rho*(m+1)) of the scaled variable
    lift = max(shift, 0)
    pad = (0,) * (m + 1)
    return ScaledPoly(
        pad + tuple((r << lift) // (j + m + 1) for j, r in enumerate(square.re)),
        pad + tuple((i << lift) // (j + m + 1) for j, i in enumerate(square.im)),
        square.frac + lift - shift,
        square.rho,
    )


def moment_integral(square: ScaledPoly, m: int, z0, z1):
    """(int_z0^z1 S(iz) z**m dz, sum of |terms|) for S = poly_square(C),
    exact from the antiderivative: (-i)**(m+1) (T(w1) - T(w0)) with
    w = iz and T = _antiderivative(S, m), evaluated by _horner together
    with the size sum_k |T_k| |w|**k at both ends."""
    anti = _antiderivative(square, m)
    magnitudes = tuple(math.isqrt(r * r + i * i) for r, i in zip(anti.re, anti.im))
    sizes = ScaledPoly(magnitudes, (0,) * len(anti), anti.frac, anti.rho)
    ends, size = [], 0
    for z in (z0, z1):
        w = mp.mpc(0, 1) * z
        ends.append(_horner(anti, w)[0])
        size += _horner(sizes, abs(w))[0].real
    return mp.mpc(0, -1) ** (m + 1) * (ends[1] - ends[0]), size


# ---------------------------------------------------------------------------
# the evaluation kernel


def grid_evaluator(polys: Sequence[ScaledPoly], den: int):
    """(at, unit): the exact values of ScaledPolys of one length, frac and
    scale 2**rho on the grid of points t/den, t an integer.

    at(t) lists Re V(t) and Im V(t) of every polynomial in turn, with
    V(t) = unit * P(t/den) exactly and unit = 2**frac * M**d, M = den *
    2**max(rho, 0) and d the degree.  For the integers D_j of P, V is
    Horner's rule in an integer u on G_j = D_j * M**(d-j): u = t, or t *
    2**-rho when rho < 0 (then M = den).  Each step is one multiply by a
    short integer plus an add, with no rounding, so the sign of any
    integer combination of the values is exact.  at raises RadiusError
    for |t/den| > 2**rho, exactly: for |t|, den < 2**50, t/den lies
    2**-51 or more (relative) from any power of two it is not, beyond
    _horner's slack of 2**-60, so both refuse the same points.
    """
    first = polys[0]
    if any((len(p), p.frac, p.rho) != (len(first), first.frac, first.rho) for p in polys):
        raise ParameterError("grid polynomials must share length, frac and scale")
    if not isinstance(den, int) or den < 1:
        raise ParameterError(f"grid denominator must be a positive integer, got {den!r}")
    d, rho = len(first) - 1, first.rho
    m, lift = den << max(rho, 0), max(-rho, 0)
    weights = [m ** k for k in range(d + 1)]  # M**(d-j) for j = d, ..., 0
    lanes = [tuple(map(mul, part[::-1], weights)) if any(part) else ()
             for p in polys for part in (p.re, p.im)]

    def at(t: int) -> list:
        u = t << lift
        if abs(u) > m:  # |t/den| > 2**rho
            raise RadiusError(f"point at 2**{_scale(Fraction(t, den))} beyond the scale"
                              f" radius 2**{rho} of a polynomial")
        out = []
        for lane in lanes:
            v = 0
            for g in lane:
                v = v * u + g
            out.append(v)
        return out

    return at, m ** d << first.frac


def _horner(coeffs: ScaledPoly, x, order: int = 0) -> list:
    """[P(x)] at order 0, [P(x), P'(x)] at order 1, for P(x) = sum_k
    coeffs[k] x**k; ParameterError above order 1.

    Horner's rule runs on the (re, im) integer pairs of the ScaledPoly
    coeffs in u = x / 2**rho, |u| <= 1, with u exact and every step
    rounded down to the working bits F of _resolution: 2**-F * deg**(j+1)
    stays below 2**-prec times the majorant of the j-th Taylor coefficient
    for j <= 1.  Only D_0..D_K run, K + 1 = coeffs.kept at |u|**2 =
    (xr**2 + xi**2) / 4**s, from the integers of the point (a float of xr
    or xi may overflow): the dropped tail moves order j by under half a
    unit 2**-(F+1) and the K rounded steps by under sqrt(2)*K (value) or
    K**2 (slope) units, so it stays within 2*(deg+1)**(j+1) units of the
    full sum.  Neither F nor K depends on the order asked, so neither does
    the value.  Each coefficient updates the slope before the value.  Every
    polynomial evaluation in ptspec runs through this loop except the grid
    scans of grid_evaluator; at order 0 it is one complex multiply-add per
    kept coefficient, the cost of the node winding count.  Results are mpc
    at the working precision.  A point past |u| <= 1, beyond _point's
    slack of 2**-60, raises RadiusError.
    """
    if order not in (0, 1):
        raise ParameterError(f"_horner covers Taylor orders 0 and 1, got {order}")
    prec = mp.mp.prec
    xr, xi, e, rho_x, lx = _point(x)
    rho = coeffs.rho
    if rho_x is not None and rho_x > rho:
        raise RadiusError(f"point at 2**{rho_x} beyond the scale radius 2**{rho} of a polynomial")
    need = _resolution(coeffs.bounds, len(coeffs) - 1, None if lx is None else lx - rho, prec)
    s = 0 if rho_x is None else rho - e  # u = (xr + i*xi) / 2**s
    frac = coeffs.frac if need is None else max(coeffs.frac, need)
    cut = len(coeffs) - coeffs.kept(xr * xr + xi * xi, s, frac)
    top_down = islice(zip(reversed(coeffs.re), reversed(coeffs.im)), cut, None)
    if (d := frac - coeffs.frac) > 0:
        top_down = [(r << d, i << d) for r, i in top_down]

    vr = vi = tr = ti = 0  # P(u) and P'(u)
    for cr, ci in top_down:
        if order:
            tr, ti = ((tr * xr - ti * xi) >> s) + vr, ((tr * xi + ti * xr) >> s) + vi
        vr, vi = ((vr * xr - vi * xi) >> s) + cr, ((vr * xi + vi * xr) >> s) + ci
    pairs = [(vr, vi, -frac), (tr, ti, -frac - rho)][:order + 1]
    return [mp.make_mpc((from_man_exp(r, exp, prec, "n"), from_man_exp(i, exp, prec, "n")))
            for r, i, exp in pairs]
