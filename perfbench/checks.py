"""Checks on the program's output, one maker per kind of command.

Every check compares stdout with an oracle from oracles.py or with a
property the method must have.  A maker takes the oracle reference and
the parameters a workload gives it and returns
check(stdout, returncode) -> list of problems.  A problem
that starts with KNOWN_FAULT is the one fault the benchmark keeps on
purpose (see README.md): it counts its operation as failed but leaves
the run correct.

This module loads mpmath, numpy and scipy; the benchmark imports it only
after the timed passes, so that the processes it starts do not inherit
that memory in their peak RSS.
"""

from __future__ import annotations

import csv
import json
from decimal import Decimal
from fractions import Fraction

import mpmath as mp

import oracles

KNOWN_FAULT = "known fault: "
CHECK_DPS = 120
SHOOTING_REL = mp.mpf("1e-10")
SYMMETRY_REL = mp.mpf("1e-30")
ODE_REL = 1e-8


def _num(text) -> mp.mpf:
    return mp.mpf(text)


def _z(row) -> mp.mpc:
    return mp.mpc(_num(row["re"]), _num(row["im"]))


def _json(stdout: str, returncode: int, problems: list):
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _csv_rows(stdout: str, returncode: int, problems: list) -> list:
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _est(text) -> mp.mpf:
    """Upper end of the interval a printed est_error stands for: it is
    rounded to 3 significant digits, so add half a unit of the last."""
    printed = Decimal(text)
    if not printed.is_finite():
        return mp.inf
    if printed == 0:
        return mp.mpf(0)
    return mp.mpf(text) + mp.mpf(5) * mp.mpf(10) ** (printed.as_tuple().exponent - 1)


def _rel(value, ref) -> mp.mpf:
    return abs(value - ref) / abs(ref)


def _closed_under_reflection(points) -> bool:
    """The set maps onto itself under z -> -conj(z)."""
    for z in points:
        image = -mp.conj(z)
        tol = SYMMETRY_REL * max(1, abs(z))
        if not any(abs(w - image) <= tol for w in points):
            return False
    return True


def _check_levels_shooting(levels, ref_levels, problems, what, ref_cs=None):
    if len(levels) > len(ref_levels):
        problems.append(f"{what}: {len(levels)} levels, oracle has {len(ref_levels)}")
        return
    for i, (lv, e_ref) in enumerate(zip(levels, ref_levels)):
        rel = _rel(_num(lv["E"]), mp.mpf(e_ref))
        if rel >= SHOOTING_REL:
            problems.append(f"{what}: level {lv['n']} off shooting by rel {mp.nstr(rel, 3)}")
        if ref_cs is not None:
            rel = _rel(_num(lv["c"]), mp.mpf(ref_cs[i]))
            if rel >= SHOOTING_REL:
                problems.append(f"{what}: c of level {lv['n']} off shooting by rel {mp.nstr(rel, 3)}")


def im_c_spectrum(reference, n_exp, pair, n_levels):
    case = reference["im_c"][f"{n_exp}/{pair}"]

    def check(stdout, returncode):
        problems: list = []
        doc = _json(stdout, returncode, problems)
        if doc is None:
            return problems
        with mp.workdps(CHECK_DPS):
            levels = doc["levels"]
            if len(levels) != n_levels:
                problems.append(f"{len(levels)} levels, asked for {n_levels}")
            entry = [e for e in doc["health"]["entries"] if e["pair"] == pair]
            if not entry or entry[0]["theta_right_pi"] != case["theta_right_pi"]:
                problems.append(f"pair {pair} is not the wedge at {case['theta_right_pi']} pi")
            if not doc["health"]["passed"]:
                problems.append("health check failed")
            if any(lv["c"] is None for lv in levels):
                problems.append("Im-c level without c")
                return problems
            _check_levels_shooting(levels, case["levels"], problems, f"N={n_exp} pair {pair}",
                                   case["c"])
        return problems

    return check


def parity_spectrum(reference, n_exp, n_levels):
    ref_levels = reference["parity"][str(n_exp)]["levels"]

    def check(stdout, returncode):
        problems: list = []
        doc = _json(stdout, returncode, problems)
        if doc is None:
            return problems
        with mp.workdps(CHECK_DPS):
            levels = doc["levels"]
            if len(levels) != n_levels:
                problems.append(f"{len(levels)} levels, asked for {n_levels}")
            _check_levels_shooting(levels, [e for e, _ in ref_levels], problems, f"N={n_exp} parity")
            for lv, (_, parity) in zip(levels, ref_levels):
                if lv["parity"] != parity:
                    problems.append(f"level {lv['n']} has parity {lv['parity']}, oracle {parity}")
        return problems

    return check


def oscillator_spectrum(reference, n_levels):
    """N=2 on the parity pair: E_n = 2n + 1.  Run with --force at r=8,
    where the health check fails on purpose, so each level must sit
    within its own printed est_error of the closed form."""

    def check(stdout, returncode):
        problems: list = []
        doc = _json(stdout, returncode, problems)
        if doc is None:
            return problems
        with mp.workdps(CHECK_DPS):
            levels = doc["levels"]
            exact = oracles.oscillator_levels(n_levels)
            if len(levels) != n_levels:
                problems.append(f"{len(levels)} levels, asked for {n_levels}")
            for lv, e_ref in zip(levels, exact):
                err = abs(_num(lv["E"]) - e_ref)
                if not err <= _est(lv["est_error"]):
                    problems.append(
                        f"level {lv['n']}: |E - {e_ref}| = {mp.nstr(err, 3)} "
                        f"exceeds est_error {lv['est_error']}"
                    )
                parity = "even" if lv["n"] % 2 == 0 else "odd"
                if lv["parity"] != parity:
                    problems.append(f"level {lv['n']} has parity {lv['parity']}")
        return problems

    return check


def scan(reference, e_max):
    """As many Im c sign changes on [0, e_max] as oracle levels below
    e_max, one level inside each bracket."""
    ref_levels = [mp.mpf(e) for e in reference["im_c"]["3/0"]["levels"] if float(e) < e_max]

    def check(stdout, returncode):
        problems: list = []
        rows = _csv_rows(stdout, returncode, problems)
        with mp.workdps(CHECK_DPS):
            brackets = []
            prev = None
            for row in rows:
                if row["flag"] != "ok":
                    prev = None
                    continue
                e_val, im_c = _num(row["E"]), _num(row["im_c"])
                if prev is not None and mp.sign(prev[1]) * mp.sign(im_c) < 0:
                    brackets.append((prev[0], e_val))
                prev = (e_val, im_c)
        if not rows or float(rows[-1]["E"]) != e_max:
            problems.append("scan does not reach the end of its window")
        if len(brackets) != len(ref_levels):
            problems.append(f"{len(brackets)} sign changes, {len(ref_levels)} levels below {e_max}")
        for (lo, hi), e_ref in zip(brackets, ref_levels):
            if not lo <= e_ref <= hi:
                problems.append(f"bracket [{lo}, {hi}] misses level {e_ref}")
        return problems

    return check


def selfcheck(reference):
    def check(stdout, returncode):
        problems = [] if returncode == 0 else [f"exit code {returncode}"]
        names = [ln.split(":")[0] for ln in stdout.splitlines()]
        if names != ["wronskian", "pt_reflection", "n2_oracle"]:
            problems.append(f"unexpected selfcheck lines {names}")
        problems += [f"selfcheck: {ln}" for ln in stdout.splitlines() if ": ok (" not in ln]
        return problems

    return check


def _level_vs_shooting(doc, reference, level, problems):
    lv = doc["level"]
    if lv["n"] != level:
        problems.append(f"level {lv['n']} returned for {level}")
    e_ref = reference["im_c"]["3/0"]["levels"][level]
    if _rel(_num(lv["E"]), mp.mpf(e_ref)) >= SHOOTING_REL:
        problems.append(f"level {level} off shooting")
    return _num(lv["E"]), _num(lv["c"])


def nodes(reference, level):
    def check(stdout, returncode):
        problems: list = []
        doc = _json(stdout, returncode, problems)
        if doc is None:
            return problems
        with mp.workdps(CHECK_DPS):
            e_val, c_val = _level_vs_shooting(doc, reference, level, problems)
            arch = [_z(r) for r in doc["arch_nodes"]]
            found = arch + [_z(r) for r in doc["axis_nodes"]]
            turning = [_z(r) for r in doc["turning_points"]]
            if len(arch) != level:
                problems.append(f"{len(arch)} arch nodes at level {level}")
            if not _closed_under_reflection(found):
                problems.append("nodes not closed under z -> -conj(z)")
            if len(turning) != 2 or not _closed_under_reflection(turning):
                problems.append("turning points are not one PT-mirrored pair")
            for z in turning:
                if oracles.turning_point_residual(3, e_val, z) >= SYMMETRY_REL:
                    problems.append(f"turning point {mp.nstr(z, 8)} misses (iz)^3 = -E")
            for z in found:
                psi, dpsi = oracles.ode_psi(3, float(e_val), float(c_val), complex(z))
                if abs(psi / dpsi) >= ODE_REL:
                    problems.append(f"ODE solution does not vanish at node {mp.nstr(z, 8)}")
        return problems

    return check


def expect(reference, level, moments):
    def check(stdout, returncode):
        problems: list = []
        doc = _json(stdout, returncode, problems)
        if doc is None:
            return problems
        with mp.workdps(CHECK_DPS):
            e_val, _ = _level_vs_shooting(doc, reference, level, problems)
            rows = {r["m"]: r for r in doc["moments"]}
            if sorted(rows) != sorted(moments):
                problems.append(f"moments {sorted(rows)} for {sorted(moments)}")
                return problems
            values = {m: mp.mpc(_num(r["re_value"]), _num(r["im_value"])) for m, r in rows.items()}
            for m, v in values.items():
                stray = v.real if m % 2 else v.imag  # odd moments imaginary, even real
                if abs(stray) >= SYMMETRY_REL * max(1, abs(v)):
                    problems.append(f"<z^{m}> has a stray {'real' if m % 2 else 'imaginary'} part")
            ehrenfest = abs(values[2])
            virial = abs(values[3] + mp.mpc(0, 2) / 5 * e_val)
            if not ehrenfest < mp.mpf("1e-9"):
                problems.append(f"Ehrenfest |<z^2>| = {mp.nstr(ehrenfest, 3)}")
            if not virial < mp.mpf("1e-8"):
                problems.append(f"virial residual {mp.nstr(virial, 3)}")
            est = _est(rows[3]["est_error"])
            if not est >= virial:
                problems.append(
                    f"{KNOWN_FAULT}<z^3> est_error {rows[3]['est_error']} does not cover "
                    f"the virial residual {mp.nstr(virial, 3)}"
                )
        return problems

    return check


def wavefunction(reference, level, window):
    x_max = Fraction(window)
    step = x_max / 100

    def check(stdout, returncode):
        problems: list = []
        rows = _csv_rows(stdout, returncode, problems)
        if len(rows) != 201:
            return problems + [f"{len(rows)} samples, expected 201"]
        with mp.workdps(CHECK_DPS):
            xs = [_num(r["x"]) for r in rows]
            psi = [mp.mpc(_num(r["re_psi"]), _num(r["im_psi"])) for r in rows]
            scale = max(abs(p) for p in psi)
            for j, x in enumerate(xs):
                grid = -x_max + j * step
                if abs(x - mp.mpf(grid.numerator) / grid.denominator) > SYMMETRY_REL:
                    problems.append(f"sample {j} at x={x}, grid point {grid}")
                    break
            if any(abs(psi[200 - j] - mp.conj(psi[j])) > SYMMETRY_REL * scale for j in range(201)):
                problems.append("psi(-x) differs from conj(psi(x))")
            # two samples against the ODE from the origin, with the oracle's E and c
            case = reference["im_c"]["3/0"]
            e_ref, c_ref = float(case["levels"][level]), float(case["c"][level])
            for j in (50, 150):
                ode, _ = oracles.ode_psi(3, e_ref, c_ref, complex(float(xs[j])))
                if abs(ode - complex(psi[j])) > ODE_REL * float(scale):
                    problems.append(f"psi({mp.nstr(xs[j], 6)}) differs from the ODE solution")
        return problems

    return check

