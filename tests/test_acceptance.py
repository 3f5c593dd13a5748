"""Acceptance gate: one test per published criterion.

Each test prints a PASS/FAIL verdict line (collected by the conftest
terminal-summary hook) and then asserts, so a criterion that the
computed digits genuinely contradict shows up as an honest failure.
The comparison unit is one unit in the stated significant figure of
the quoted reference value.
"""

import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp

import oracles
from conftest import ACCEPTANCE_LINES, cli_env, p_symmetric_pair
from ptspec import (
    TruncationParams,
    build_contour,
    eval_psi,
    expectation,
    pt_pairs,
    spectrum,
    wronskian,
)

# quoted reference spectrum, 20 significant figures (E4 only 17)
REF_E = (
    "1.1562670719881132937",
    "4.1092287528096515358",
    "7.5622738549788280413",
    "11.314421820195804397",
    "15.291553750392532",
)
REF_C = (
    "-0.53871550451988192490",
    "-2.32727424075874334001",
    "-2.69833514190279036708",
    "-3.37823419494258452822",
)

# quoted reference moments, ten digits after the point
REF_MOMENTS = {
    (1, 0): "-0.5900725330",
    (1, 1): "-0.9820718380",
    (1, 2): "-1.2054807539",
    (1, 3): "-1.3796870779",
    (3, 0): "-0.4625068288",
    (3, 1): "-1.6436915011",
    (3, 2): "-3.0249095421",
    (3, 3): "-4.5257687286",
    (4, 0): "-0.3898751086",
    (4, 1): "-2.3060330480",
    (4, 2): "-5.2092431933",
    (4, 3): "-8.9202066199",
}

REF_N7_E0 = ("1.6047", "1.2247", "3.0686")
REF_N7_E3 = ("23.702", "16.872", "59.026")
REF_N7_RATIOS = ("1.41", "3.52")


def record(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {num} ({name}): {verdict} ({detail})")


def sig_unit(quoted, nsig):
    """One unit in the nsig-th significant figure of the quoted value."""
    mag = int(mp.floor(mp.log10(abs(mp.mpf(quoted)))))
    return mp.mpf(10) ** (mag - (nsig - 1))


def test_acceptance_1_reference_spectrum(levels3, ctx40):
    bad = []
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ptspec", "spectrum", "--N", "3", "--levels", "5"],
            capture_output=True,
            timeout=120,
            env=cli_env(),
        )
        if proc.returncode != 0:
            bad.append(f"cli rc={proc.returncode}")
    except subprocess.TimeoutExpired:
        bad.append("cli run exceeded 120s")
    elapsed = time.monotonic() - t0
    with ctx40.workdps():
        for n in range(5):
            nsig = 17 if n == 4 else 20
            off = abs(levels3[n].E - mp.mpf(REF_E[n])) / sig_unit(REF_E[n], nsig)
            if off > 1:
                bad.append(f"E{n} off {mp.nstr(off, 2)} ulp")
        for n in range(4):
            off = abs(levels3[n].c - mp.mpf(REF_C[n])) / sig_unit(REF_C[n], 20)
            if off > 1:
                bad.append(f"c{n} off {mp.nstr(off, 2)} ulp")
    ok = not bad
    detail = f"fresh run {elapsed:.1f}s; " + (
        "all 9 quoted values within 1 ulp" if ok else "; ".join(bad)
    )
    record(1, "reference spectrum digits", ok, detail)
    assert ok, detail


def test_acceptance_2_truncation_robustness(pair3, levels3, ctx40):
    alt_r = spectrum(pair3, 4, TruncationParams(100, Fraction(7)), ctx40)
    alt_p = spectrum(pair3, 4, TruncationParams(150, Fraction(8)), ctx40)
    worst = mp.mpf(0)
    with ctx40.workdps():
        for n in range(4):
            unit = sig_unit(REF_E[n], 20)
            worst = max(
                worst,
                abs(alt_r[n].E - levels3[n].E) / unit,
                abs(alt_p[n].E - levels3[n].E) / unit,
            )
        ok = bool(worst < 1)
        detail = f"max shift under r 8->7 and P 100->150: {mp.nstr(worst, 2)} ulp of 20 sig figs"
    record(2, "radius and order robustness", ok, detail)
    assert ok, detail


def test_acceptance_3_nodes(nodesets3, ctx40):
    bad = []
    for n in range(4):
        if nodesets3[n].count() != n:
            bad.append(f"level {n} has {nodesets3[n].count()} nodes")
    off = None
    with ctx40.workdps():
        if len(nodesets3[1].arch_nodes) == 1:
            (z,) = nodesets3[1].arch_nodes
            off = abs(z - mp.mpc(0, "-0.661296226442715413308")) / mp.mpf("1e-21")
            if off > 1:
                bad.append(f"n=1 node off {mp.nstr(off, 2)} units of 1e-21")
        ok = not bad
        detail = (
            f"counts 0..3 match; n=1 node off {mp.nstr(off, 2)} units in the 21st digit"
            if ok
            else "; ".join(bad)
        )
    record(3, "node locations", ok, detail)
    assert ok, detail


def test_acceptance_4_reference_moments(moments3, ctx40):
    bad = []
    with ctx40.workdps():
        worst = mp.mpf(0)
        for (m, n), quoted in REF_MOMENTS.items():
            want = mp.mpc(0, quoted) if m in (1, 3) else mp.mpc(quoted)
            off = abs(moments3[(m, n)].value - want) / mp.mpf("1e-10")
            worst = max(worst, off)
            if off > 2:
                bad.append(f"<z^{m}>_{n} off {mp.nstr(off, 2)} ulp")
        z2 = abs(moments3[(2, 0)].value)
        if z2 >= mp.mpf("1e-9"):
            bad.append(f"|<z^2>_0| = {mp.nstr(z2, 3)}")
        ok = not bad
        detail = (
            f"12 quoted moments within {mp.nstr(worst, 2)} ulp (cap 2); "
            f"|<z^2>_0| = {mp.nstr(z2, 2)}"
            if ok
            else "; ".join(bad)
        )
    record(4, "reference expectation values", ok, detail)
    assert ok, detail


def test_acceptance_5_virial(moments3, levels3, ctx40):
    with ctx40.workdps():
        worst = mp.mpf(0)
        for n in range(4):
            resid = moments3[(3, n)].value + mp.mpc(0, 2) / 5 * mp.mpf(levels3[n].E)
            worst = max(worst, abs(resid))
        ok = bool(worst < mp.mpf("1e-8"))
        detail = f"max |<z^3> + (2/5)iE| = {mp.nstr(worst, 2)} (cap 1e-8)"
    record(5, "virial identity", ok, detail)
    assert ok, detail


def test_acceptance_6_n7_multi_spectrum(ctx40):
    trunc = TruncationParams(100, Fraction(3))
    bad = []
    e3 = []
    with ctx40.workdps():
        for i, pair in enumerate(pt_pairs(7)):
            levels = spectrum(pair, 4, trunc, ctx40)
            if abs(levels[0].E - mp.mpf(REF_N7_E0[i])) > sig_unit(REF_N7_E0[i], 4):
                bad.append(f"pair {i} E0 = {mp.nstr(levels[0].E, 8)}")
            if abs(levels[3].E - mp.mpf(REF_N7_E3[i])) > sig_unit(REF_N7_E3[i], 5):
                bad.append(f"pair {i} E3 = {mp.nstr(levels[3].E, 8)}")
            e3.append(levels[3].E)
            if i == 0:
                if not all(lv.c > 0 for lv in levels):
                    bad.append(f"pair {i} expected positive c")
            elif not all(lv.c < 0 for lv in levels):
                bad.append(f"pair {i} expected negative c")
        for ratio, quoted in zip((e3[0] / e3[1], e3[2] / e3[1]), REF_N7_RATIOS):
            if abs(ratio / mp.mpf(quoted) - 1) > mp.mpf("0.01"):
                bad.append(f"E3 ratio {mp.nstr(ratio, 6)} vs {quoted}")
        ok = not bad
        detail = (
            "three spectra, E3 ratios "
            f"{mp.nstr(e3[0] / e3[1], 6)} : 1 : {mp.nstr(e3[2] / e3[1], 6)}, "
            "c signs +,-,-"
            if ok
            else "; ".join(bad)
        )
    record(6, "N=7 multi-spectrum", ok, detail)
    assert ok, detail


def test_acceptance_7_n2_oracle(trunc8, ctx40):
    with ctx40.workdps():
        even = spectrum(p_symmetric_pair(2), 3, trunc8, ctx40, parity="even")
        odd = spectrum(p_symmetric_pair(2), 2, trunc8, ctx40, parity="odd")
        worst = mp.mpf(0)
        for lv, want in zip(even, (1, 5, 9)):
            worst = max(worst, abs(lv.E - want))
        for lv, want in zip(odd, (3, 7)):
            worst = max(worst, abs(lv.E - want))
        ok = bool(worst < mp.mpf("1e-15"))
        detail = f"max |E - (2k+1)| = {mp.nstr(worst, 2)} over {{1,3,5,7,9}} (cap 1e-15)"
    record(7, "harmonic oscillator digits", ok, detail)
    assert ok, detail


def test_acceptance_8_property_suites(table3, pair3, levels3, moments3, ctx40):
    bad = []
    # exact recursion identity on every stored coefficient
    a, b = oracles.fraction_tables(table3)
    for (p, q), val in a.items():
        m = 5 * p + 2 * q
        ref = a.get((p - 1, q), Fraction(0)) + a.get((p, q - 1), Fraction(0))
        if (p, q) != (0, 0) and (m - 1) * m * val != ref:
            bad.append(f"a[{p},{q}] recursion")
            break
    for (p, q), val in b.items():
        m = 5 * p + 2 * q
        ref = b.get((p - 1, q), Fraction(0)) + b.get((p, q - 1), Fraction(0))
        if (p, q) != (0, 0) and m * (m + 1) * val != ref:
            bad.append(f"b[{p},{q}] recursion")
            break

    with ctx40.workdps():
        # Wronskian == i on a deterministic 100-point sample
        tol = mp.mpf(10) ** (-(ctx40.digits - 10))
        worst_w = mp.mpf(0)
        for k in range(100):
            z = 2 * (k + 1) / mp.mpf(100) * mp.exp(mp.mpc(0, 2) * mp.pi * ((37 * k) % 100) / 100)
            e_val = mp.mpf(20) * k / 99
            worst_w = max(worst_w, abs(wronskian(table3, z, e_val, ctx40) - mp.mpc(0, 1)))
        if worst_w >= tol:
            bad.append(f"wronskian {mp.nstr(worst_w, 2)}")

        # PT reflection of both series and their derivatives
        worst_pt = mp.mpf(0)
        for k in range(10):
            z = mp.mpc(mp.mpf(-3) / 2 + k * mp.mpf("0.35"), mp.mpf("0.4") + k * mp.mpf("0.11"))
            e_val = mp.mpf(2) * k
            p1, d1, p2, d2 = eval_psi(table3, z, e_val, ctx40)
            q1, e1, q2, e2 = eval_psi(table3, -mp.conj(z), e_val, ctx40)
            worst_pt = max(
                worst_pt,
                abs(q1 - mp.conj(p1)),
                abs(q2 - mp.conj(p2)),
                abs(e1 + mp.conj(d1)),
                abs(e2 + mp.conj(d2)),
            )
        if worst_pt >= tol:
            bad.append(f"pt reflection {mp.nstr(worst_pt, 2)}")

        # normalization moment
        worst_norm = mp.mpf(0)
        for n in range(4):
            worst_norm = max(worst_norm, abs(moments3[(0, n)].value - 1))
        if worst_norm >= mp.mpf("1e-20"):
            bad.append(f"m=0 moment {mp.nstr(worst_norm, 2)}")

        # contour independence of the ground-level moments
        rays = build_contour(pair3, Fraction(5), "wedge_rays")
        worst_c = mp.mpf(0)
        for m in (1, 4):
            alt = expectation(levels3[0], m, rays)
            worst_c = max(worst_c, abs(alt.value - moments3[(m, 0)].value))
        if worst_c >= mp.mpf("1e-10"):
            bad.append(f"contour dependence {mp.nstr(worst_c, 2)}")

        ok = not bad
        detail = (
            f"recursion exact; |W-i| <= {mp.nstr(worst_w, 2)}; "
            f"PT defect <= {mp.nstr(worst_pt, 2)}; |<1>-1| <= {mp.nstr(worst_norm, 2)}; "
            f"contour shift <= {mp.nstr(worst_c, 2)}"
            if ok
            else "; ".join(bad)
        )
    record(8, "property suites", ok, detail)
    assert ok, detail


def test_acceptance_9_shooting_oracle(pair3, trunc8, ctx40):
    # independent float integration must confirm every reported level
    levels = spectrum(pair3, 8, trunc8, ctx40)
    theta = float(pair3.theta_right) * 3.141592653589793
    worst = 0.0
    with ctx40.workdps():
        for lv in levels:
            e_f = float(lv.E)
            ref = oracles.shoot_eigenvalue(3, theta, (e_f - 0.4, e_f + 0.4), s_inf=12.0)
            worst = max(worst, abs(e_f - ref) / ref)
    ok = worst < 1e-10
    detail = f"8 levels re-derived by shooting, max rel diff {worst:.2e} (cap 1e-10)"
    record(9, "shooting cross-check", ok, detail)
    assert ok, detail
