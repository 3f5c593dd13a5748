"""Coefficient tables and truncated-series evaluation.

The equation -psi''(z) - (iz)**N psi(z) = E psi(z) has two fundamental
solutions, analytic at z = 0, expandable in the variable w = iz:

    psi1 = sum_{p,q} a[p,q] * w**((N+2)*p + 2*q)     * E**q
    psi2 = sum_{p,q} b[p,q] * w**(1 + (N+2)*p + 2*q) * E**q

with a[0,0] = b[0,0] = 1 and the two-term recursions

    (m-1)*m     * a[p,q] = a[p-1,q] + a[p,q-1],   m = (N+2)*p + 2*q
    m2*(m2+1)   * b[p,q] = b[p-1,q] + b[p,q-1],   m2 = (N+2)*p + 2*q

(absent neighbors count as zero).  The module is built in layers:

* exact table: build_tables gives the coefficients as Fractions for
  (N, pmax), truncated on the antidiagonal p + q <= pmax;
* snapshot: _float_entries converts them once per working dps;
* reference and collapses: eval_psi sums the double series directly
  and is the reference the collapses are tested against.  At fixed z,
  energy_polynomials turns psi1 and psi2 into polynomials in E (degree
  pmax, for eigenvalue scans); at fixed E, space_polynomial turns
  alpha*psi1 + beta*psi2 into a polynomial in w = iz (for nodes and
  exact moments, and uncached for residual);
* kernel: _horner evaluates a polynomial and its first Taylor
  coefficients; eval_energy_poly, poly_psi, poly_psi_d, residual,
  tail_ratio and the moment integrals all run through it.

Beside them, _rim gives the terms of the last antidiagonal p + q = pmax,
which make up boundary_residual and the maximum in tail_ratio.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import ParameterError
from .precision import (
    ComplexHP,
    PrecisionContext,
    RealHP,
    as_fraction,
    complex_str,
)

__all__ = [
    "TruncationParams",
    "CoefficientTable",
    "build_tables",
    "eval_psi",
    "residual",
    "boundary_residual",
    "tail_ratio",
    "wronskian",
    "energy_polynomials",
    "eval_energy_poly",
    "space_polynomial",
    "space_polynomial_at",
    "poly_psi",
    "poly_psi_d",
    "save_table",
    "load_table",
]


@dataclass(frozen=True)
class TruncationParams:
    """Antidiagonal truncation order and evaluation radius.

    The radius is stored exactly (as a Fraction) so reports and cache
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

    def scaled_radius(self, num: int, den: int) -> "TruncationParams":
        """Same truncation order at radius * num/den (error estimation)."""
        return TruncationParams(self.pmax, self.radius * Fraction(num, den))

    def radius_mpf(self, ctx: PrecisionContext) -> RealHP:
        return ctx.mpf(self.radius)


@dataclass(frozen=True)
class CoefficientTable:
    """Exact series coefficients for one (N, pmax).

    a and b map (p, q) with p + q <= pmax to Fractions.  Instances are
    built by build_tables and must be treated as immutable; tables for
    equal (N, pmax) are interchangeable because the recursion determines
    every entry.
    """

    n_exponent: int
    pmax: int
    a: dict
    b: dict

    def entry_count(self) -> int:
        return len(self.a)


_TABLE_CACHE: dict = {}


def build_tables(n_exponent: int, pmax: int) -> CoefficientTable:
    """Build (or fetch cached) exact coefficient tables for given N, pmax."""
    if not isinstance(n_exponent, int) or n_exponent < 2:
        raise ParameterError(f"N must be an integer >= 2, got {n_exponent!r}")
    if not isinstance(pmax, int) or pmax < 1:
        raise ParameterError(f"pmax must be a positive integer, got {pmax!r}")
    key = (n_exponent, pmax)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached

    step = n_exponent + 2
    a = {(0, 0): Fraction(1)}
    b = {(0, 0): Fraction(1)}
    zero = Fraction(0)
    for s in range(1, pmax + 1):
        for p in range(s + 1):
            q = s - p
            m = step * p + 2 * q
            a_src = a.get((p - 1, q), zero) + a.get((p, q - 1), zero)
            b_src = b.get((p - 1, q), zero) + b.get((p, q - 1), zero)
            a[(p, q)] = a_src / ((m - 1) * m)
            b[(p, q)] = b_src / (m * (m + 1))

    table = CoefficientTable(n_exponent, pmax, a, b)
    _TABLE_CACHE[key] = table
    return table


class BoundedCache(dict):
    """Insertion-ordered cache holding at most cap entries: put() drops
    the oldest entry first when the cache is full (FIFO, no refresh on
    hits)."""

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def put(self, key, value):
        if len(self) >= self.cap:
            del self[next(iter(self))]
        self[key] = value
        return value


# ---------------------------------------------------------------------------
# float-coefficient snapshots, converted once per (N, pmax, dps)

_FLOAT_CACHE = BoundedCache(16)


def _float_entries(table: CoefficientTable, dps: int):
    """Coefficients as mpf at dps, ordered by (p+q, p).  Cached."""
    key = (table.n_exponent, table.pmax, dps)
    hit = _FLOAT_CACHE.get(key)
    if hit is not None:
        return hit
    return _FLOAT_CACHE.put(key, _snapshot(table, dps))


def _snapshot(table: CoefficientTable, dps: int):
    """Uncached body of _float_entries."""
    step = table.n_exponent + 2
    entries = []
    with mp.workdps(dps):
        for s in range(table.pmax + 1):
            for p in range(s + 1):
                af, bf = table.a[(p, s - p)], table.b[(p, s - p)]
                af = mp.mpf(af.numerator) / af.denominator
                bf = mp.mpf(bf.numerator) / bf.denominator
                entries.append((p, s - p, step * p + 2 * (s - p), af, bf))
    return tuple(entries)


def _powers(base: ComplexHP, top: int) -> list:
    out = [mp.mpc(1)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def eval_psi(
    table: CoefficientTable,
    z,
    E,
    ctx: PrecisionContext,
):
    """Evaluate the truncated fundamental pair at one point.

    Returns (psi1, psi1', psi2, psi2') as mpc values, derivatives taken
    with respect to z.  Summation follows the fixed antidiagonal order,
    so results are reproducible bit for bit.
    """
    entries = _float_entries(table, ctx.dps)
    with ctx.workdps():
        w = mp.mpc(0, 1) * mp.mpc(z)
        ev = mp.mpf(E)
        top = (table.n_exponent + 2) * table.pmax + 1
        wpow = _powers(w, top)
        epow = _powers(mp.mpc(ev), table.pmax)
        i_unit = mp.mpc(0, 1)

        psi1 = mp.mpc(0)
        dpsi1 = mp.mpc(0)
        psi2 = mp.mpc(0)
        dpsi2 = mp.mpc(0)
        for p, q, m, af, bf in entries:
            eq = epow[q]
            ta = af * eq
            tb = bf * eq
            psi1 += ta * wpow[m]
            psi2 += tb * wpow[m + 1]
            if m > 0:
                dpsi1 += ta * m * wpow[m - 1]
            dpsi2 += tb * (m + 1) * wpow[m]
        return psi1, i_unit * dpsi1, psi2, i_unit * dpsi2


def residual(
    table: CoefficientTable,
    z,
    E,
    ctx: PrecisionContext,
    which: str = "psi1",
):
    """ODE residual -psi'' - (iz)**N psi - E psi of one truncated series.

    Every interior term cancels through the recursion, so the result
    consists purely of boundary (p + q = pmax) contributions; it
    measures the truncation error directly.
    """
    if which not in ("psi1", "psi2"):
        raise ParameterError(f"which must be 'psi1' or 'psi2', got {which!r}")
    with ctx.workdps():
        w = mp.mpc(0, 1) * mp.mpc(z)
        ev = mp.mpf(E)
        weights = (mp.mpc(1), mp.mpc(0)) if which == "psi1" else (mp.mpc(0), mp.mpc(1))
        coeffs = _collapse_space(table, _float_entries(table, ctx.dps), ev, *weights)
        psi, _, half_d2 = _horner(coeffs, w, 2)
        # d/dz = i d/dw, so -psi'' in z is P''(w)
        return 2 * half_d2 - (w ** table.n_exponent + ev) * psi


def _rim(table: CoefficientTable, w, ev, dps: int, which: str) -> list:
    """Terms c[p,q] * E**q * w**m of psi1 (c = a) or psi2 (c = b, m + 1)
    on the last antidiagonal p + q = pmax: the snapshot's last pmax + 1
    entries."""
    col, shift = (3, 0) if which == "psi1" else (4, 1)
    return [
        entry[col] * ev ** entry[1] * w ** (entry[2] + shift)
        for entry in _float_entries(table, dps)[-(table.pmax + 1):]
    ]


def boundary_residual(
    table: CoefficientTable,
    z,
    E,
    ctx: PrecisionContext,
    which: str = "psi1",
):
    """Closed form of the residual: -(w**N + E) times the sum of the rim
    terms c[p,q] * E**q * w**m.  Cheap, and must agree with residual()
    to working precision.
    """
    if which not in ("psi1", "psi2"):
        raise ParameterError(f"which must be 'psi1' or 'psi2', got {which!r}")
    with ctx.workdps():
        w = mp.mpc(0, 1) * mp.mpc(z)
        ev = mp.mpf(E)
        return -(w ** table.n_exponent + ev) * mp.fsum(_rim(table, w, ev, ctx.dps, which))


def tail_ratio(
    table: CoefficientTable,
    z,
    E,
    ctx: PrecisionContext,
) -> RealHP:
    """Largest boundary-term magnitude relative to |psi1(z)|.

    This is the convergence diagnostic: well inside the reliable region
    the last antidiagonal is negligible against the sum.
    """
    with ctx.workdps():
        ev = mp.mpf(E)
        denom = abs(_horner(energy_polynomials(table, z, ctx)[0], ev)[0])
        if denom == 0:
            return mp.inf
        w = mp.mpc(0, 1) * mp.mpc(z)
        return max(abs(term) for term in _rim(table, w, ev, ctx.dps, "psi1")) / denom


def wronskian(table: CoefficientTable, z, E, ctx: PrecisionContext) -> ComplexHP:
    """psi1 * psi2' - psi1' * psi2; exactly i for the full series."""
    p1, d1, p2, d2 = eval_psi(table, z, E, ctx)
    with ctx.workdps():
        return p1 * d2 - d1 * p2


# ---------------------------------------------------------------------------
# collapsed polynomial forms

_ENERGY_CACHE = BoundedCache(64)
_SPACE_CACHE = BoundedCache(64)


def energy_polynomials(table: CoefficientTable, z, ctx: PrecisionContext):
    """Collapse the double series at fixed z into polynomials in E.

    Returns (A, B): tuples with psi1(z, E) = sum_q A[q] E**q and
    psi2(z, E) = sum_q B[q] E**q, both of degree pmax.  Cached per
    (N, pmax, z, dps); eigenvalue scans call this once per angle and
    then evaluate thousands of energies at polynomial cost.
    """
    with ctx.workdps():
        zc = mp.mpc(z)
        key = (table.n_exponent, table.pmax, ctx.dps, complex_str(zc, ctx.dps))
        hit = _ENERGY_CACHE.get(key)
        if hit is not None:
            return hit
        entries = _float_entries(table, ctx.dps)
        w = mp.mpc(0, 1) * zc
        top = (table.n_exponent + 2) * table.pmax + 1
        wpow = _powers(w, top)
        acc_a = [mp.mpc(0) for _ in range(table.pmax + 1)]
        acc_b = [mp.mpc(0) for _ in range(table.pmax + 1)]
        for p, q, m, af, bf in entries:
            acc_a[q] += af * wpow[m]
            acc_b[q] += bf * wpow[m + 1]
        result = (tuple(acc_a), tuple(acc_b))
    return _ENERGY_CACHE.put(key, result)


def eval_energy_poly(coeffs: Sequence[ComplexHP], E) -> ComplexHP:
    """Horner evaluation of an energy polynomial at real E."""
    return _horner(coeffs, mp.mpf(E))[0]


def space_polynomial(
    table: CoefficientTable,
    E,
    alpha,
    beta,
    ctx: PrecisionContext,
):
    """Collapse at fixed E: alpha*psi1 + beta*psi2 as a polynomial in w = iz.

    Returns the coefficient tuple C with psi(z) = sum_k C[k] w**k.
    Cached; node searches and wavefunction sampling reuse one collapse
    for thousands of point evaluations.
    """
    with ctx.workdps():
        ev = mp.mpf(E)
        al = mp.mpc(alpha)
        be = mp.mpc(beta)
        key = (
            table.n_exponent,
            table.pmax,
            ctx.dps,
            mp.nstr(ev, ctx.dps),
            complex_str(al, ctx.dps),
            complex_str(be, ctx.dps),
        )
        hit = _SPACE_CACHE.get(key)
        if hit is not None:
            return hit
        result = _collapse_space(table, _float_entries(table, ctx.dps), ev, al, be)
    return _SPACE_CACHE.put(key, result)


def space_polynomial_at(table: CoefficientTable, E, alpha, beta, dps: int):
    """space_polynomial at working precision dps, uncached: neither the
    collapse nor the coefficient snapshot it is built from outlives the
    call.  For one-off computations at a raised precision."""
    with mp.workdps(dps):
        ev, al, be = mp.mpf(E), mp.mpc(alpha), mp.mpc(beta)
        return _collapse_space(table, _snapshot(table, dps), ev, al, be)


def _collapse_space(table: CoefficientTable, entries, ev, al, be):
    """Sum the snapshot entries into the coefficients of w**k at E = ev."""
    epow = _powers(mp.mpc(ev), table.pmax)
    top = (table.n_exponent + 2) * table.pmax + 2
    coeffs = [mp.mpc(0) for _ in range(top)]
    for p, q, m, af, bf in entries:
        eq = epow[q]
        coeffs[m] += al * af * eq
        coeffs[m + 1] += be * bf * eq
    return tuple(coeffs)


def poly_psi(coeffs: Sequence[ComplexHP], z) -> ComplexHP:
    """Evaluate a space polynomial at z (Horner in w = iz)."""
    return _horner(coeffs, mp.mpc(0, 1) * mp.mpc(z))[0]


def poly_psi_d(coeffs: Sequence[ComplexHP], z):
    """Evaluate (psi, dpsi/dz) of a space polynomial at z."""
    psi, dpsi = _horner(coeffs, mp.mpc(0, 1) * mp.mpc(z), 1)
    return psi, mp.mpc(0, 1) * dpsi


# ---------------------------------------------------------------------------
# the evaluation kernel


def _horner(coeffs: Sequence[ComplexHP], x, order: int = 0) -> list:
    """[P(x), P'(x), ..., P^(order)(x)/order!] for P(x) = sum_k coeffs[k] x**k.

    Horner's rule carried to the Taylor coefficients of P at x: each
    coefficient updates the highest order first.  Every polynomial
    evaluation in ptspec runs through this loop; at order 0 it is one
    multiply-add per coefficient, the cost of the node winding count.
    """
    value = mp.mpc(0)
    taylor = [mp.mpc(0)] * order  # taylor[k-1] accumulates P^(k)(x)/k!
    for c in reversed(coeffs):
        if order:
            for k in range(order - 1, 0, -1):
                taylor[k] = taylor[k] * x + taylor[k - 1]
            taylor[0] = taylor[0] * x + value
        value = value * x + c
    return [value] + taylor


# ---------------------------------------------------------------------------
# exact text serialization

_HEADER_RE = re.compile(r"^(\d+)\s+(\d+)$")


def save_table(table: CoefficientTable, path: str) -> None:
    """Write a table as exact integers: header 'N pmax', then one line
    'p q a_num a_den b_num b_den' per entry in (p+q, p) order."""
    lines = [f"{table.n_exponent} {table.pmax}"]
    for s in range(table.pmax + 1):
        for p in range(s + 1):
            q = s - p
            af = table.a[(p, q)]
            bf = table.b[(p, q)]
            lines.append(
                f"{p} {q} {af.numerator} {af.denominator} {bf.numerator} {bf.denominator}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path: str) -> CoefficientTable:
    """Read a table written by save_table, checking completeness."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        match = _HEADER_RE.match(header)
        if not match:
            raise ParameterError(f"malformed table header {header!r} in {path}")
        n_exponent, pmax = int(match.group(1)), int(match.group(2))
        a: dict = {}
        b: dict = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ParameterError(f"malformed table row {line!r} in {path}")
            p, q = int(parts[0]), int(parts[1])
            a[(p, q)] = Fraction(int(parts[2]), int(parts[3]))
            b[(p, q)] = Fraction(int(parts[4]), int(parts[5]))
    expected = (pmax + 1) * (pmax + 2) // 2
    if len(a) != expected:
        raise ParameterError(
            f"table in {path} has {len(a)} entries, expected {expected}"
        )
    return CoefficientTable(n_exponent, pmax, a, b)
