"""Independent oracles the tests compare against.

Nothing here runs ptspec's algorithms; reference values are produced by
separate algorithms (the exact coefficients by a dictionary-based
recursion in Fractions, a direct double sum, float shooting
integrations, tanh-sinh quadrature, an mpmath polynomial square, a
schoolbook integer square, the complex collapse of the exact
coefficients at a general point) so agreement is meaningful.  The one
name taken from ptspec is its ScaledPoly container, which fixed_point
fills with mpmath coefficients rounded by a rule of its own.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ptspec.series import ScaledPoly


@lru_cache(maxsize=None)
def brute_tables(n_exponent, pmax):
    """Recompute both coefficient families with a plain dict recursion,
    exactly, as Fractions (memoized; callers must not change the dicts).

    The library keeps no coefficients: it runs the recursion rounded in
    integers at its point of use, so these are its exact reference.
    """
    a = {(0, 0): Fraction(1)}
    b = {(0, 0): Fraction(1)}
    for s in range(1, pmax + 1):
        for p in range(s + 1):
            q = s - p
            m = (n_exponent + 2) * p + 2 * q
            rhs_a = a.get((p - 1, q), Fraction(0)) + a.get((p, q - 1), Fraction(0))
            rhs_b = b.get((p - 1, q), Fraction(0)) + b.get((p, q - 1), Fraction(0))
            a[(p, q)] = rhs_a / ((m - 1) * m)
            b[(p, q)] = rhs_b / (m * (m + 1))
    return a, b


def fraction_tables(table):
    """(a, b): the exact coefficients of a table's N and pmax as Fractions,
    from brute_tables."""
    return brute_tables(table.n_exponent, table.pmax)


def floor_sums(terms, bits):
    """{k: floor(2**bits * t_k)} for t_k the sum of the Fractions that terms
    pairs with k, exactly: each t_k over one common denominator."""
    groups = {}
    for k, t in terms:
        groups.setdefault(k, []).append(t)
    out = {}
    for k, ts in groups.items():
        den = lcm(*(t.denominator for t in ts))
        out[k] = (sum(t.numerator * (den // t.denominator) for t in ts) << bits) // den
    return out


def fixed_point(coeffs, rho, prec):
    """The polynomial sum_k c_k x**k of the mpmath numbers coeffs as a
    ScaledPoly at scale 2**rho: both parts of each D_k = c_k 2**(rho*k)
    rounded to nearest at one count of fractional bits, the least that
    keeps every nonzero D_k to 2**-(prec+1) of itself.  So at any |u| <= 1
    the stored error of each Taylor coefficient stays below 2**-(prec+1)
    times its majorant sum_k binom(k, j) |D_k| |u|**(k-j), term by term."""
    scaled = [(mp.ldexp(c.real, rho * k), mp.ldexp(c.imag, rho * k))
              for k, c in enumerate(map(mp.mpc, coeffs))]  # exact: only exponents move
    tops = [max(mp.frexp(v)[1] for v in parts if v) - 1 for parts in scaled if any(parts)]
    frac = prec + 1 - min(tops, default=prec + 1)
    re, im = ([int(mp.nint(mp.ldexp(parts[i], frac))) for parts in scaled] for i in (0, 1))
    return ScaledPoly(tuple(re), tuple(im), frac, rho)


def closed_a0q(q):
    return Fraction(1, factorial(2 * q))


def closed_b0q(q):
    return Fraction(1, factorial(2 * q + 1))


def closed_ap0(n_exponent, p):
    out = Fraction(1)
    for j in range(1, p + 1):
        m = (n_exponent + 2) * j
        out /= (m - 1) * m
    return out


def closed_bp0(n_exponent, p):
    out = Fraction(1)
    for j in range(1, p + 1):
        m = (n_exponent + 2) * j
        out /= m * (m + 1)
    return out


def direct_psi(table, z, e_val, dps):
    """(psi1, psi1', psi2, psi2') at z by the plain double sum in mpmath at dps.

    Sums a[p,q] w**m E**q and b[p,q] w**(m+1) E**q over the exact
    coefficients of brute_tables for the table's N and pmax, entry by
    entry, derivatives taken with respect to z (d/dz = i d/dw).  Shares no
    code with the solver's recursion pass, its integer collapses or its
    Horner kernel, so those can be checked against it.
    """
    step = table.n_exponent + 2
    with mp.workdps(dps):
        w = mp.mpc(0, 1) * mp.mpc(z)
        ev = mp.mpf(e_val)
        top = step * table.pmax + 2
        wpow = [mp.mpc(1)]
        for _ in range(top):
            wpow.append(wpow[-1] * w)
        epow = [mp.mpf(1)]
        for _ in range(table.pmax):
            epow.append(epow[-1] * ev)
        psi1 = dpsi1 = psi2 = dpsi2 = mp.mpc(0)
        a, b = fraction_tables(table)
        for (p, q), af in a.items():
            bf = b[(p, q)]
            m = step * p + 2 * q
            ta = mp.mpf(af.numerator) / af.denominator * epow[q]
            tb = mp.mpf(bf.numerator) / bf.denominator * epow[q]
            psi1 += ta * wpow[m]
            psi2 += tb * wpow[m + 1]
            if m > 0:
                dpsi1 += ta * m * wpow[m - 1]
            dpsi2 += tb * (m + 1) * wpow[m]
        i_unit = mp.mpc(0, 1)
        return psi1, i_unit * dpsi1, psi2, i_unit * dpsi2


@lru_cache(maxsize=None)
def _scaled_rows(n_exponent, pmax, rho):
    """Per q, (D, nums_a, nums_b, ms): the exact a[p,q] R**m S**q and
    b[p,q] R**(m+1) S**q as the integers nums over one denominator D, with
    R = 2**rho and S = R**N, so R**m S**q = R**((N+2)*(p+q))."""
    a, b = brute_tables(n_exponent, pmax)
    step = n_exponent + 2
    rows = []
    for q in range(pmax + 1):
        keys = [(p, q) for p in range(pmax - q + 1)]
        ta = [a[key] * Fraction(2) ** (rho * step * sum(key)) for key in keys]
        tb = [b[key] * Fraction(2) ** (rho * (step * sum(key) + 1)) for key in keys]
        den = lcm(*(t.denominator for t in ta + tb))
        rows.append((den, [t.numerator * (den // t.denominator) for t in ta],
                     [t.numerator * (den // t.denominator) for t in tb],
                     [step * p + 2 * q for p, _ in keys]))
    return rows


def complex_collapse(n_exponent, pmax, bits, rho, radius, theta):
    """The energy polynomials at z = radius * exp(i*pi*theta), any theta,
    by the complex sum of the exact coefficients: the integer parts (a_re,
    a_im, b_re, b_im) of the coefficients of psi1 and psi2 in E at energy
    scale 2**(N*rho) and bits fractional bits.

    Coefficient q of psi1 is sum_p a[p,q] R**m S**q u**m with u = w / R, R
    = 2**rho and S = R**N, likewise b with u**(m+1): each is the floor of
    an exact sum over one common denominator, with the powers of u as
    integers at frac fractional bits taken from mpmath at well above the
    fixed point's precision, so the point carries no rounding of its own.
    Needs no wedge centre.
    """
    rows = _scaled_rows(n_exponent, pmax, rho)
    top = (n_exponent + 2) * pmax + 1
    peak = max(max(map(abs, nums_a)).bit_length() - den.bit_length() for den, nums_a, _, _ in rows)
    frac = bits + max(peak, 0) + top.bit_length() + 40
    with mp.workprec(frac + 40):
        r = mp.mpf(radius.numerator) / radius.denominator
        phase = mp.mpf(theta.numerator) / theta.denominator + mp.mpf(1) / 2
        u = mp.ldexp(r, frac - rho) * mp.expjpi(phase)
        xr, xi = int(mp.nint(u.real)), int(mp.nint(u.imag))
    pr, pi = [1 << frac], [0]
    for _ in range(top):
        r, i = pr[-1], pi[-1]
        pr.append((r * xr - i * xi) >> frac)
        pi.append((r * xi + i * xr) >> frac)
    out = [[], [], [], []]
    for den, nums_a, nums_b, ms in rows:
        for part, nums, powers, lift in zip(out, (nums_a, nums_a, nums_b, nums_b), (pr, pi, pr, pi), (0, 0, 1, 1)):
            total = sum(n * powers[m + lift] for n, m in zip(nums, ms))
            part.append((total << bits) // (den << frac))
    return tuple(map(tuple, out))


def _shoot_to_origin(n_exponent, theta, e_val, s_inf):
    """(psi(0), psi'(0)) of the solution decaying along z = t*s_inf*e^{i theta}.

    Integrates from the asymptotic region to the origin with DOP853,
    starting from the decaying WKB branch (psi = 1 there); the growing
    component that the start leaves in shrinks on the way in.
    """
    zs = s_inf * np.exp(1j * theta)
    k = np.sqrt(e_val + (1j * zs) ** n_exponent + 0j)
    d = 1j * k
    if (d * np.exp(1j * theta)).real > 0:
        d = -d

    def rhs(t, y):
        psi = y[0] + 1j * y[1]
        chi = y[2] + 1j * y[3]
        z = t * zs
        acc = -zs * zs * (e_val + (1j * z) ** n_exponent) * psi
        return [chi.real, chi.imag, acc.real, acc.imag]

    sol = solve_ivp(
        rhs,
        (1.0, 0.0),
        [1.0, 0.0, (zs * d).real, (zs * d).imag],
        method="DOP853",
        rtol=1e-13,
        atol=1e-13,
    )
    psi0 = sol.y[0, -1] + 1j * sol.y[1, -1]
    dpsi0 = (sol.y[2, -1] + 1j * sol.y[3, -1]) / zs
    return psi0, dpsi0


def shoot_eigenvalue(n_exponent, theta, bracket, s_inf=12.0):
    """Shooting eigenvalue from a float ODE integration.

    Integrates the wavefunction along the ray z = t*s_inf*e^{i theta}
    from the asymptotic region to the origin, starting from the
    decaying WKB branch.  With the left-wedge solution taken as the PT
    image of the right one, the Wronskian matching condition at z = 0
    collapses to Re[conj(psi) * psi'] = 0, which is immune to the
    overall normalization of the shot.
    """

    def g(e_val):
        psi0, dpsi0 = _shoot_to_origin(n_exponent, theta, e_val, s_inf)
        return (np.conj(psi0) * dpsi0).real

    return brentq(g, bracket[0], bracket[1], xtol=1e-13, rtol=8.9e-16)


def shoot_connection(n_exponent, theta, e_val, s_inf=12.0):
    """Connection coefficient of the solution decaying along the ray at angle theta.

    That solution is K*(psi1 + c*psi2) with psi1(0) = 1, psi1'(0) = 0,
    psi2(0) = 0, psi2'(0) = i, so c = -i psi'(0)/psi(0) from the same
    float shot as shoot_eigenvalue.  Complex in general; real at a PT
    eigenvalue.
    """
    psi0, dpsi0 = _shoot_to_origin(n_exponent, theta, e_val, s_inf)
    return -1j * dpsi0 / psi0


def parity_shoot_eigenvalue(power, parity, bracket, s_inf=10.0):
    """Eigenvalue of -phi'' + s^power phi = eps*phi by real shooting.

    Integrates inward from the decaying WKB branch; even states are
    roots of phi'(0), odd states of phi(0).
    """

    def g(eps):
        def rhs(s, y):
            return [y[1], (s**power - eps) * y[0]]

        k = np.sqrt(s_inf**power - eps)
        sol = solve_ivp(
            rhs, (s_inf, 0.0), [1.0, -k], method="DOP853", rtol=1e-13, atol=1e-13
        )
        return sol.y[1, -1] if parity == "even" else sol.y[0, -1]

    return brentq(g, bracket[0], bracket[1], xtol=1e-13, rtol=8.9e-16)


def quad_moment(psi, m, lam, dps):
    """<z^m> on [-lam, lam] by mpmath's adaptive tanh-sinh quadrature,
    for psi a callable at real x (the level's eigenfunction).

    Independent of the solver's exact endpoint antiderivative.
    """
    with mp.workdps(dps):
        lam_f = mp.mpf(lam)

        def num(x):
            value = psi(x)
            return value * value * x**m

        def den(x):
            value = psi(x)
            return value * value

        return mp.quad(num, [-lam_f, 0, lam_f]) / mp.quad(den, [-lam_f, 0, lam_f])


def square(coeffs):
    """Coefficients of the square of the polynomial sum_k coeffs[k] w**k,
    in mpmath at the working precision."""
    out = []
    for j in range(2 * len(coeffs) - 1):
        lo = max(0, j - len(coeffs) + 1)
        acc = 2 * mp.fdot((coeffs[k], coeffs[j - k]) for k in range(lo, (j + 1) // 2))
        if j % 2 == 0:
            acc += coeffs[j // 2] ** 2
        out.append(acc)
    return tuple(out)


def schoolbook_square(re, im):
    """(re, im) integer coefficients of the square of sum_k (re[k] + i*im[k]) w**k,
    by the schoolbook self-convolution: every product c_k c_(j-k) summed."""
    n = len(re)
    out_re, out_im = [], []
    for j in range(2 * n - 1):
        ks = range(max(0, j - n + 1), min(j, n - 1) + 1)
        out_re.append(sum(re[k] * re[j - k] - im[k] * im[j - k] for k in ks))
        out_im.append(2 * sum(re[k] * im[j - k] for k in ks))
    return tuple(out_re), tuple(out_im)
