"""Oracles computed apart from ptspec.

Nothing here imports ptspec.  The references come from shooting and
from closed forms:

* Im-c pairs: integrate psi'' = -(E + (iz)^N) psi along the right
  wedge's centre ray from the decaying WKB branch at |z| = s_inf to the
  origin.  With the left-wedge solution taken as the PT image of the
  right one, the matching condition at z = 0 is Re[conj(psi) psi'] = 0
  (Bender & Boettcher, PRL 80, 5243 (1998)).  Float shooting (scipy)
  brackets and estimates each level; a Taylor-stepped shot at 30 digits
  polishes it, because float shooting alone scatters by ~1e-7 relative
  on the slowly varying matching function of the N=7 pair-2 level near
  E = 59.
* The parity pair of N = 4 lies on the imaginary axis; z = i*s turns the
  problem into -phi'' + s^4 phi = -E phi, solved by real float shooting.
* N = 2 on its parity pair is the harmonic oscillator, E_n = 2n + 1.
* Turning points solve (iz)^N = -E.
* Eigenfunction values and nodes are checked by integrating the ODE
  from psi(0) = 1, psi'(0) = i*c, which is psi1 + c*psi2.

Shooting is too slow to repeat in every benchmark run, so its levels
are stored in reference.json next to this file.  Regenerate them (a few
minutes) with

    python3 perfbench/oracles.py
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# (N, pair index, scan ceiling, start radius s_inf).  Inward from s_inf
# the wanted solution outgrows the other by exp(2/(N+2) * s^((N+2)/2)),
# which must be large, yet inside float range for the bracketing shots.
IM_C_CASES = ((3, 0, 30.0, 8.0), (7, 0, 26.0, 3.5), (7, 1, 18.0, 3.5), (7, 2, 61.0, 3.5))
# quartic oscillator levels give the N = 4 parity pair as E = -eps
PARITY_CASES = ((4, 13.0, 10.0),)
SCAN_STEP = 0.25
POLISH_DPS = 30
POLISH_DIGITS = 22


def right_wedge_angle(n_exponent: int, pair_index: int) -> Fraction:
    """Right-wedge centre (units of pi) of a PT pair.

    Wedge centres are theta_k = theta_0 + 2k/(N+2) with
    theta_0 = -(N-2)/(2(N+2)); the first (N-1)/2 of them for odd N, or
    (N+2)/2 for even N, are the right members of the PT pairs, indexed
    by decreasing angle as the CLI documents.
    """
    theta0 = Fraction(-(n_exponent - 2), 2 * (n_exponent + 2))
    count = (n_exponent + 2) // 2 if n_exponent % 2 == 0 else (n_exponent - 1) // 2
    rights = []
    for k in range(count):
        t = theta0 + Fraction(2 * k, n_exponent + 2)
        while t > 1:
            t -= 2
        while t <= -1:
            t += 2
        rights.append(t)
    return sorted(rights, reverse=True)[pair_index]


def _shoot(n_exponent: int, theta: float, e_val: float, s_inf: float):
    """(psi(0), psi'(0)) of the solution decaying in the right wedge."""
    zs = s_inf * np.exp(1j * theta)
    d = 1j * np.sqrt(e_val + (1j * zs) ** n_exponent + 0j)
    if (d * np.exp(1j * theta)).real > 0:
        d = -d

    def rhs(t, y):
        psi = y[0] + 1j * y[1]
        acc = -zs * zs * (e_val + (1j * t * zs) ** n_exponent) * psi
        return [y[2], y[3], acc.real, acc.imag]

    sol = solve_ivp(
        rhs, (1.0, 0.0), [1.0, 0.0, (zs * d).real, (zs * d).imag],
        method="DOP853", rtol=1e-13, atol=1e-13,
    )
    return sol.y[0, -1] + 1j * sol.y[1, -1], (sol.y[2, -1] + 1j * sol.y[3, -1]) / zs


def _match(n_exponent: int, theta: float, e_val: float, s_inf: float) -> float:
    """Re[conj(psi(0)) psi'(0)]: zero exactly at the eigenvalues."""
    psi0, dpsi0 = _shoot(n_exponent, theta, e_val, s_inf)
    return float((np.conj(psi0) * dpsi0).real)


def _parity_match(power: int, parity: str, eps: float, s_inf: float) -> float:
    """phi'(0) (even) or phi(0) (odd) of -phi'' + s^power phi = eps phi."""

    def rhs(s, y):
        return [y[1], (s**power - eps) * y[0]]

    k = np.sqrt(s_inf**power - eps)
    sol = solve_ivp(rhs, (s_inf, 0.0), [1.0, -k], method="DOP853", rtol=1e-13, atol=1e-13)
    return float(sol.y[1, -1] if parity == "even" else sol.y[0, -1])


def _roots(g, e_max: float) -> list:
    """Every sign change of g on the grid SCAN_STEP, 2*SCAN_STEP, .. e_max,
    refined.  Every level here lies above SCAN_STEP, and at E = 0 the
    integrator stalls."""
    grid = np.arange(SCAN_STEP, e_max + SCAN_STEP / 2, SCAN_STEP)
    values = [g(e) for e in grid]
    out = []
    for lo, hi, g_lo, g_hi in zip(grid, grid[1:], values, values[1:]):
        if g_lo * g_hi < 0:
            out.append((lo, hi, brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16)))
    return out


def taylor_shoot(n_exponent: int, theta_pi: Fraction, e_val, s_inf: float, dps: int = POLISH_DPS):
    """(psi(0), psi'(0)) of the decaying solution at dps digits.

    The same shot as _shoot, stepped by local Taylor series instead of a
    float integrator: at each point z0 of the ray, psi(z0 + h) follows
    from (k+2)(k+1) a[k+2] = -sum_j v[j] a[k-j], where
    v[j] = [h^j] (E + (i(z0 + h))^N).  The solutions are entire, so each
    step converges; steps of |h| ~ 1/sqrt|V| keep the terms tame.
    """
    with mp.workdps(dps):
        i_n = mp.mpc(0, 1) ** n_exponent
        e_val = mp.mpf(e_val)
        zs = s_inf * mp.expjpi(mp.mpf(theta_pi.numerator) / theta_pi.denominator)
        d = mp.mpc(0, 1) * mp.sqrt(e_val + i_n * zs**n_exponent)
        if (d * zs).real > 0:
            d = -d
        steps = math.ceil(s_inf * math.sqrt(abs(float(e_val)) + s_inf**n_exponent))
        h = -zs / steps
        binom = [math.comb(n_exponent, j) for j in range(n_exponent + 1)]
        tol = mp.mpf(10) ** (-dps)
        psi, dpsi = mp.mpc(1), d
        for step in range(steps):
            z0 = zs + step * h
            v = [e_val + i_n * z0**n_exponent]
            v += [i_n * binom[j] * z0 ** (n_exponent - j) for j in range(1, n_exponent + 1)]
            a = [psi, dpsi]
            val, der, hk, quiet = psi + dpsi * h, dpsi, h, 0
            while quiet < 3:
                k = len(a) - 2
                a.append(-sum(v[j] * a[k - j] for j in range(min(k, n_exponent) + 1))
                         / ((k + 2) * (k + 1)))
                d_term = (k + 2) * a[-1] * hk
                hk *= h
                val += a[-1] * hk
                der += d_term
                small = abs(a[-1] * hk) < tol * abs(val) and abs(d_term) < tol * abs(der)
                quiet = quiet + 1 if small else 0
            psi, dpsi = val, der
        return psi, dpsi


def shooting_levels(n_exponent: int, pair_index: int, e_max: float, s_inf: float):
    """Levels below e_max and their c = -i psi'(0)/psi(0), which is real
    at an eigenvalue because psi = psi1 + c*psi2 with psi2'(0) = i.

    Float shooting brackets and estimates each level; taylor_shoot then
    polishes it by secant on Re(psi'(0)/psi(0)), whose zeros are the same.
    Both come back as decimal strings of POLISH_DIGITS digits.
    """
    theta_pi = right_wedge_angle(n_exponent, pair_index)
    theta = float(theta_pi) * np.pi
    brackets = _roots(lambda e: _match(n_exponent, theta, e, s_inf), e_max)

    def log_derivative(e_val):
        psi0, dpsi0 = taylor_shoot(n_exponent, theta_pi, e_val, s_inf)
        return (dpsi0 / psi0).real

    levels, cs = [], []
    for lo, hi, e_float in brackets:
        with mp.workdps(POLISH_DPS):
            e_val = mp.findroot(log_derivative, (mp.mpf(e_float), mp.mpf(e_float) * (1 + 1e-9)),
                                solver="secant", tol=mp.mpf(10) ** (-2 * POLISH_DIGITS))
            if not lo < e_val < hi:
                raise ArithmeticError(f"polished level {e_val} left its bracket [{lo}, {hi}]")
            psi0, dpsi0 = taylor_shoot(n_exponent, theta_pi, e_val, s_inf)
            levels.append(mp.nstr(e_val, POLISH_DIGITS))
            cs.append(mp.nstr((-1j * dpsi0 / psi0).real, POLISH_DIGITS))
    return levels, cs


def quartic_parity_levels(power: int, eps_max: float, s_inf: float) -> list:
    """[E, parity] with E = -eps on the imaginary-axis parity pair, by |E|."""
    levels = []
    for parity in ("even", "odd"):
        eps = _roots(lambda e, p=parity: _parity_match(power, p, e, s_inf), eps_max)
        levels += [[-e, parity] for _, _, e in eps]
    return sorted(levels, key=lambda lv: -lv[0])


def oscillator_levels(count: int) -> list:
    return [2 * n + 1 for n in range(count)]


def turning_point_residual(n_exponent: int, e_val, z) -> mp.mpf:
    """|(iz)^N + E| / |E|: zero at a turning point."""
    return abs((mp.mpc(0, 1) * z) ** n_exponent + e_val) / abs(e_val)


def ode_psi(n_exponent: int, e_val: float, c_val: float, z_end: complex):
    """(psi, psi') at z_end of psi1 + c*psi2, integrating
    psi'' = -(E + (iz)^N) psi from psi(0) = 1, psi'(0) = i*c along the
    segment 0 -> z_end."""

    def rhs(t, y):
        psi = y[0] + 1j * y[1]
        acc = -z_end * z_end * (e_val + (1j * t * z_end) ** n_exponent) * psi
        return [y[2], y[3], acc.real, acc.imag]

    d0 = z_end * 1j * c_val  # d psi/dt = z_end * psi'(z)
    sol = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.0, d0.real, d0.imag],
                    method="DOP853", rtol=1e-13, atol=1e-15)
    psi = sol.y[0, -1] + 1j * sol.y[1, -1]
    return psi, (sol.y[2, -1] + 1j * sol.y[3, -1]) / z_end


def build_reference() -> dict:
    ref = {"im_c": {}, "parity": {}}
    for n_exp, pair, e_max, s_inf in IM_C_CASES:
        levels, cs = shooting_levels(n_exp, pair, e_max, s_inf)
        ref["im_c"][f"{n_exp}/{pair}"] = {
            "theta_right_pi": str(right_wedge_angle(n_exp, pair)),
            "e_max": e_max,
            "levels": levels,
            "c": cs,
        }
    for power, eps_max, s_inf in PARITY_CASES:
        ref["parity"][str(power)] = {
            "e_max": eps_max,
            "levels": quartic_parity_levels(power, eps_max, s_inf),
        }
    return ref


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    reference = build_reference()
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    for kind, cases in reference.items():
        for key, case in cases.items():
            print(f"{kind} {key}: {len(case['levels'])} levels", file=sys.stderr)
