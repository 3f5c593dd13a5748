"""Coefficient tables and series evaluation against independent oracles."""

import math
import sys
import types
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_rational, mpf_cos_sin_pi, mpf_mul
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ptspec import observables, series
from ptspec import (
    ParameterError,
    PrecisionContext,
    RadiusError,
    TruncationParams,
    build_tables,
    eval_psi,
    health_check,
    level_weights,
    pt_pairs,
    residual,
    spectrum,
    wronskian,
)
from ptspec.wedges import polar_point
from ptspec.series import (
    MEMO_CAP,
    ScaledPoly,
    _antiderivative,
    _horner,
    energy_polynomials,
    eval_energy_poly,
    grid_evaluator,
    moment_integral,
    poly_psi,
    poly_psi_d,
    poly_square,
    rim_peak,
    space_polynomial,
)


def test_recursion_identity_exact_all_entries(table3):
    # m(m-1)*a_pq = a_{p-1,q} + a_{p,q-1} exactly, in rational arithmetic
    n = table3.n_exponent
    a, b = oracles.fraction_tables(table3)
    for (p, q), val in a.items():
        m = (n + 2) * p + 2 * q
        if p == q == 0:
            assert val == 1
            continue
        lhs = (m - 1) * m * val
        assert lhs == a.get((p - 1, q), Fraction(0)) + a.get((p, q - 1), Fraction(0))
    for (p, q), val in b.items():
        m = (n + 2) * p + 2 * q
        if p == q == 0:
            assert val == 1
            continue
        assert m * (m + 1) * val == b.get((p - 1, q), Fraction(0)) + b.get(
            (p, q - 1), Fraction(0)
        )


def test_closed_forms(table3):
    a, b = oracles.fraction_tables(table3)
    for q in range(0, 101, 10):
        assert a[(0, q)] == oracles.closed_a0q(q)
        assert b[(0, q)] == oracles.closed_b0q(q)
    for p in range(0, 101, 10):
        assert a[(p, 0)] == oracles.closed_ap0(3, p)
        assert b[(p, 0)] == oracles.closed_bp0(3, p)


_RADII = (Fraction(8), Fraction(3), Fraction(27, 10), Fraction(2), Fraction(1, 2))
_ENERGIES = (Fraction(0), Fraction(11, 2), Fraction(-7, 2), Fraction(30))


def _space_scale(n_exponent, e_val, radius):
    """The scale rho of space_polynomial: the least with 2**rho >= radius
    and 2**(N*rho) >= |E|."""
    rho = series._scale(radius)
    return max(rho, -(-series._scale(e_val) // n_exponent)) if e_val else rho


@pytest.mark.parametrize(
    "n_exponent, pmax, digits",
    [(n, 60 if n <= 4 else 50 if n <= 8 else 40, 40) for n in range(2, 17)] + [(3, 150, 80)],
)
def test_recursion_matches_the_exact_coefficients(n_exponent, pmax, digits):
    # the sums of the rounded-down recursion pass lie within 1 unit of
    # floor(exact * 2**bits): on the energy side at radii down to 1/2
    # (rho = -1), on the space side at E of both signs and at every scale
    # the radii give; the long case at one radius and energy
    radii, energies = (_RADII, _ENERGIES) if pmax < 100 else (_RADII[:1], _ENERGIES[1:2])
    table = build_tables(n_exponent, pmax)
    ctx = PrecisionContext(digits)
    bits = series._bits(table, ctx.dps)
    a, b = oracles.brute_tables(n_exponent, pmax)
    step = n_exponent + 2

    def assert_within_a_unit(sums, frac, x, y, b0, key_a, key_b):
        # sums of a[p,q] x**p y**q by key_a(p, q), and of b0 b[p,q] x**p y**q by key_b
        for got, coeffs, lift, key in ((sums[0], a, 1, key_a), (sums[1], b, b0, key_b)):
            terms = ((key(p, q), lift * c * x**p * y**q) for (p, q), c in coeffs.items())
            want = oracles.floor_sums(terms, bits)
            assert max(abs((v >> (frac - bits)) - want.get(k, 0)) for k, v in enumerate(got)) <= 1

    for radius in radii:
        rho = series._scale(radius)
        *sums, frac = series._radial_sums(table, radius, bits, rho)
        x, y = radius**step, Fraction(2) ** (rho * step)
        assert_within_a_unit(sums, frac, x, y, Fraction(2) ** rho, lambda p, q: q, lambda p, q: q)
    for e_val in energies:
        rhos = {space_polynomial(table, ctx.mpf(e_val), 1, 0, ctx, r).rho for r in radii}
        assert rhos == {_space_scale(n_exponent, e_val, r) for r in radii}
        for rho in rhos:
            *sums, frac = series._space_sums(table, ctx.mpf(e_val), bits, rho)
            x, y = Fraction(2) ** (rho * step), Fraction(2) ** (2 * rho) * e_val
            assert_within_a_unit(sums, frac, x, y, Fraction(2) ** rho,
                                 lambda p, q: step * p + 2 * q, lambda p, q: step * p + 2 * q + 1)


def _log2(v: Fraction) -> float:
    return math.log2(v.numerator) - math.log2(v.denominator)


@pytest.mark.parametrize("n_exponent", range(2, 17))
def test_peak_bound_covers_the_exact_peak(n_exponent, ctx40):
    # the closed-form bound on log2 max a[p,q] x**p y**q against the exact
    # max over brute_tables: never below it and at most 64 bits above, at
    # the energy points (r**(N+2), R**(N+2)), the space points (R**(N+2),
    # R**2 |E|) and the rim points (r**(N+2), r**2 |E|); at each rim point
    # scaled by the least 2**k with 2**k (x + y) >= ((N+2)*pmax)**2, no
    # antidiagonal sum falls and the largest rim term is at least
    # 1/(pmax+1) of every value, as _rim relies on
    pmax = 60 if n_exponent <= 4 else 50 if n_exponent <= 8 else 40
    table = build_tables(n_exponent, pmax)
    step = n_exponent + 2
    logs = [(p, q, _log2(c)) for (p, q), c in oracles.brute_tables(n_exponent, pmax)[0].items()]

    def log_terms(x, y):  # (p + q, log2 of a[p,q] x**p y**q) of the nonzero terms
        lx, ly = _log2(x), _log2(y) if y else None
        return [(p + q, lg + p * lx + (q * ly if q else 0)) for p, q, lg in logs if y or not q]

    energy = [(r**step, Fraction(2) ** (series._scale(r) * step)) for r in _RADII]
    space, rim = [], []
    for r in _RADII:
        for e_val in _ENERGIES:
            rho = _space_scale(n_exponent, e_val, r)
            space.append((Fraction(2) ** (rho * step), Fraction(2) ** (2 * rho) * abs(e_val)))
            rim.append((r**step, r**2 * abs(e_val)))
    for x, y in energy + space + rim:
        want = max(lg for _, lg in log_terms(x, y))
        got = series._peak_bound(table, x, y)
        assert want <= got <= want + 64, (x, y)
    for x, y in rim:
        k = 0
        while 2**k * (x + y) < (step * pmax) ** 2:
            k += 1
        terms = log_terms(2**k * x, 2**k * y)
        sums = []
        for s in range(pmax + 1):
            top = max(lg for t, lg in terms if t == s)
            sums.append(top + math.log2(sum(2 ** (lg - top) for t, lg in terms if t == s)))
        assert all(later >= earlier for earlier, later in zip(sums, sums[1:])), (x, y)
        rim_top = max(lg for t, lg in terms if t == pmax)
        assert rim_top + math.log2(pmax + 1) >= max(lg for _, lg in terms), (x, y)


def test_build_tables_validation():
    with pytest.raises(ParameterError):
        build_tables(1, 100)
    with pytest.raises(ParameterError):
        build_tables(3, 0)
    with pytest.raises(ParameterError):
        build_tables("3", 100)


def test_build_tables_cached():
    assert build_tables(3, 40) is build_tables(3, 40)


MEMOIZED = (
    series.build_tables,
    series._space_sums,
    series.energy_polynomials,
    series.space_polynomial,
    observables._level_square,
    observables._path_integral,
)


@pytest.mark.parametrize("stage", MEMOIZED, ids=lambda stage: stage.__name__)
def test_memoized_stages_are_plain_functions(stage):
    # per-function tracing wraps the plain functions a module defines
    assert isinstance(stage, types.FunctionType)
    assert getattr(sys.modules[stage.__module__], stage.__name__) is stage


def test_memo_shares_equal_arguments(table3):
    # probes and contexts built separately but equal in value share one entry
    first, second = PrecisionContext(40), PrecisionContext(40)
    r1, r2 = Fraction(6), Fraction(12, 2)
    theta1, theta2 = Fraction(-1, 10), Fraction(-3, 30)
    assert r1 is not r2 and theta1 is not theta2 and first is not second
    first_polys = energy_polynomials(table3, r1, theta1, first)
    assert energy_polynomials(table3, r2, theta2, second) is first_polys


def test_memo_evicts_the_least_recently_used():
    calls = []

    @series.memo
    def stage(x):
        calls.append(x)
        return [x]

    kept = stage(0)
    for x in range(1, MEMO_CAP):
        stage(x)
    assert stage(0) is kept  # a hit, which makes 0 the most recently used
    stage(MEMO_CAP)  # cap + 1 distinct arguments: 1 is evicted, not 0
    assert stage(0) is kept
    stage(1)
    assert calls == list(range(MEMO_CAP + 1)) + [1]


def test_small_z_free_limit(table3, ctx40):
    # with the potential term suppressed, psi1 -> cos(z sqrt(E)) and
    # psi2 -> i sin(z sqrt(E))/sqrt(E) (leading term w = iz); the
    # defect enters at order z^{N+2}
    with ctx40.workdps():
        e_val = mp.mpf("3.7")
        for z in (mp.mpf("0.01"), mp.mpc("0.005", "0.008")):
            p1, _, p2, _ = eval_psi(table3, z, e_val, ctx40)
            root = mp.sqrt(e_val)
            assert abs(p1 - mp.cos(z * root)) < abs(z) ** 5
            assert abs(p2 - mp.mpc(0, 1) * mp.sin(z * root) / root) < abs(z) ** 5


def test_residual_small_inside_disk(table3, ctx40):
    # the closed form shows the true defect scale, far below what a direct
    # second derivative could resolve at working precision
    with ctx40.workdps():
        assert abs(residual(table3, mp.mpf(2), mp.mpf(5), ctx40)) < mp.mpf("1e-200")


def test_wronskian_is_i(table3, ctx40):
    with ctx40.workdps():
        for z, e_str in ((mp.mpc("0.3", "0.9"), "0"), (mp.mpc("-1.7", "-0.4"), "18.0")):
            assert abs(wronskian(table3, z, mp.mpf(e_str), ctx40) - mp.mpc(0, 1)) < ctx40.tolerance(-8)


def test_pt_reflection_identity(table3, ctx40):
    # both series have real coefficients in w = iz, so psi(-conj z) = conj psi(z)
    with ctx40.workdps():
        for z in (mp.mpc("1.2", "0.5"), mp.mpc("-0.4", "-1.9")):
            p1, d1, p2, d2 = eval_psi(table3, z, mp.mpf("6.5"), ctx40)
            q1, e1, q2, e2 = eval_psi(table3, -mp.conj(z), mp.mpf("6.5"), ctx40)
            assert abs(q1 - mp.conj(p1)) < ctx40.tolerance(-8)
            assert abs(q2 - mp.conj(p2)) < ctx40.tolerance(-8)
            assert abs(e1 + mp.conj(d1)) < ctx40.tolerance(-8)
            assert abs(e2 + mp.conj(d2)) < ctx40.tolerance(-8)


def test_derivatives_match_finite_difference(table3, ctx40):
    with ctx40.workdps():
        z, e_val, h = mp.mpc("0.8", "-0.3"), mp.mpf("2.5"), mp.mpf("1e-20")
        _, d1, _, d2 = eval_psi(table3, z, e_val, ctx40)
        hi = eval_psi(table3, z + h, e_val, ctx40)
        lo = eval_psi(table3, z - h, e_val, ctx40)
        assert abs((hi[0] - lo[0]) / (2 * h) - d1) < mp.mpf("1e-12")
        assert abs((hi[2] - lo[2]) / (2 * h) - d2) < mp.mpf("1e-12")


def test_energy_polynomials_match_eval(table3, ctx40):
    # on both wedge centres of N=3 at r = 31/10, against the direct double sum
    radius = Fraction(31, 10)
    pair = pt_pairs(3)[0]
    for theta in (pair.theta_right, pair.theta_left):
        coeffs_a, coeffs_b = energy_polynomials(table3, radius, theta, ctx40)
        with ctx40.workdps():
            z = polar_point(radius, theta, PrecisionContext(ctx40.digits + 20))
            for e_str in ("0.5", "17.25"):
                e_val = mp.mpf(e_str)
                p1, _, p2, _ = oracles.direct_psi(table3, z, e_val, ctx40.dps + 20)
                assert abs(eval_energy_poly(coeffs_a, e_val) - p1) < ctx40.tolerance(-10)
                assert abs(eval_energy_poly(coeffs_b, e_val) - p2) < ctx40.tolerance(-10)


@pytest.mark.parametrize("n_exponent", range(2, 9))
def test_radial_collapse_matches_the_complex_collapse(n_exponent, ctx40):
    # the radial sums times the powers of u, on both sides of every pair of
    # N at radii down to 1/2 (rho = -1), agree with the complex collapse of
    # the exact coefficients at the same point to 2 units of 2**-bits
    table = build_tables(n_exponent, 50)
    bits = series._bits(table, ctx40.dps)
    for radius in (Fraction(8), Fraction(3), Fraction(27, 10), Fraction(3, 4), Fraction(1, 2)):
        rho = series._scale(radius)
        for pair in pt_pairs(n_exponent):
            for theta in (pair.theta_right, pair.theta_left):
                a, b = energy_polynomials(table, radius, theta, ctx40)
                assert {(a.frac, a.rho), (b.frac, b.rho)} == {(bits, n_exponent * rho)}
                want = oracles.complex_collapse(n_exponent, 50, bits, rho, radius, theta)
                for got, ref in zip((a.re, a.im, b.re, b.im), want):
                    assert max(abs(g - r) for g, r in zip(got, ref)) <= 2, (radius, theta)


def test_energy_polynomials_refuse_a_point_off_the_wedge_centres(table3, ctx40):
    # the centres of N=3 are -1/10 + 2k/5; 0, 1/10 and 1/2 are not among them
    for theta in (Fraction(0), Fraction(1, 2), Fraction(-1, 10) + Fraction(1, 5)):
        with pytest.raises(ParameterError, match="not a wedge centre"):
            energy_polynomials(table3, Fraction(3), theta, ctx40)


def test_energy_scale_drops_only_unused_bits(table7, ctx40):
    # N=7 at r = 3 is stored at S = 2**14; asked for |E| <= 2**7 it is
    # rescaled down, coefficient q by 7*q bits, and agrees with the full
    # scale to working precision up to |E| = 128
    full = energy_polynomials(table7, Fraction(3), pt_pairs(7)[2].theta_right, ctx40)
    small = [f.rescaled(7) for f in full]
    for f, s in zip(full, small):
        assert (f.rho, s.rho, s.frac) == (14, 7, f.frac)
        for k in range(len(f)):  # coefficient k rounded once, to the nearest 2**(7k)
            assert abs((s.re[k] << 7 * k) - f.re[k]) <= (1 << 7 * k) // 2
        assert max(map(abs, s.re + s.im)).bit_length() < max(map(abs, f.re + f.im)).bit_length()
    with ctx40.workdps():
        for e_str in ("0.5", "59.03", "128", "-100"):
            for f, s in zip(full, small):
                want = eval_energy_poly(f, mp.mpf(e_str))
                assert abs(eval_energy_poly(s, mp.mpf(e_str)) - want) <= ctx40.tolerance(5) * abs(want)


def test_space_polynomial_matches(table3, ctx40):
    with ctx40.workdps():
        e_val = mp.mpf("4.1")
        alpha, beta = mp.mpf(1), mp.mpf("-0.54")
        coeffs = space_polynomial(table3, e_val, alpha, beta, ctx40, radius=8)
        for z in (mp.mpf("0.9"), mp.mpc("-1.4", "-0.8")):
            p1, d1, p2, d2 = oracles.direct_psi(table3, z, e_val, ctx40.dps + 20)
            for got, want in zip(eval_psi(table3, z, e_val, ctx40), (p1, d1, p2, d2)):
                assert abs(got - want) < ctx40.tolerance(-10)
            want = alpha * p1 + beta * p2
            got, got_d = poly_psi_d(coeffs, z)
            assert abs(got - want) < ctx40.tolerance(-10)
            assert abs(poly_psi(coeffs, z) - want) < ctx40.tolerance(-10)
            assert abs(got_d - (alpha * d1 + beta * d2)) < ctx40.tolerance(-10)


def test_polys_beyond_their_scale(table3, ctx40):
    # the energy polynomials at r = 79/10 are scaled for |E| <= 8**3 and
    # read only there: the kernel and the exact grid both read E = 512
    # and both refuse E = 3000 and -2000.  A space polynomial scaled for
    # |z| <= 2 refuses the point at |z| = 7.9
    radius, theta = Fraction(79, 10), pt_pairs(3)[0].theta_left
    polys = energy_polynomials(table3, radius, theta, ctx40)
    at, _ = grid_evaluator(polys, 1)
    at(512)
    with ctx40.workdps():
        eval_energy_poly(polys[0], 512)
    for e_val, rho in ((3000, 12), (-2000, 11)):
        refusal = rf"^point at 2\*\*{rho} beyond the scale radius 2\*\*9 "
        with pytest.raises(RadiusError, match=refusal):
            at(e_val)
        with ctx40.workdps():
            for poly in polys:
                with pytest.raises(RadiusError, match=refusal):
                    eval_energy_poly(poly, e_val)
    with ctx40.workdps():
        near = space_polynomial(table3, mp.mpf("4.1"), 1, mp.mpf("-0.5"), ctx40, radius=2)
        p1, _, p2, _ = eval_psi(table3, mp.mpc("1.9", "0.3"), mp.mpf("4.1"), ctx40)
        assert abs(poly_psi(near, mp.mpc("1.9", "0.3")) - (p1 - p2 / 2)) < ctx40.tolerance(-10)
        with pytest.raises(RadiusError):
            poly_psi(near, mp.mpc("7.9", "0.3"))


def test_space_polynomial_reads_its_disk_and_no_further(table3, ctx40):
    # radius 2 and E = 4.1 scale a space polynomial for |z| <= 2: the
    # kernel reads it on that circle and within _point's slack of 2**-60
    # past it, and refuses 2**-50 past it.  At radius 8, a power of two,
    # the points polar_point puts on the circle |z| = 8 are rounded at the
    # working precision and the slack keeps them inside the disk
    e_val = mp.mpf("4.1")
    near = space_polynomial(table3, e_val, 1, 0, ctx40, radius=2)
    rim = space_polynomial(table3, e_val, 1, 0, ctx40, radius=8)
    assert (near.rho, rim.rho) == (1, 3)
    on_rim = [polar_point(Fraction(8), theta, ctx40) for theta in (Fraction(1, 7), Fraction(-1, 10))]
    with ctx40.workdps():
        inside = [mp.mpf(2), mp.mpc(0, -2), mp.mpf(2) + mp.ldexp(1, -62)]
        for poly, z in [(near, z) for z in inside] + [(rim, z) for z in on_rim]:
            want = oracles.direct_psi(table3, z, e_val, ctx40.dps + 20)[0]
            assert abs(poly_psi(poly, z) - want) <= ctx40.tolerance(5) * abs(want), z
        for z in (mp.mpf(2) + mp.ldexp(1, -50), mp.mpc(0, -2) * (1 + mp.ldexp(1, -50))):
            with pytest.raises(RadiusError, match=r"^point at 2\*\*2 beyond the scale radius 2\*\*1 "):
                poly_psi(near, z)


@pytest.mark.parametrize("n_exponent", [3, 7])
def test_eval_psi_reads_python_numbers_as_mpmath_ones(n_exponent):
    # the benchmark's set-up probe calls eval_psi(build_tables(N, pmax),
    # complex, int, PrecisionContext(d)) outside any workdps block: the
    # result is bit for bit that of the same call on mpc and mpf inputs
    # inside one, at |z| < 1 and beyond
    table, ctx = build_tables(n_exponent, 100), PrecisionContext(40)
    for z in (complex("0.7+0.3j"), complex("-1.5+0.25j")):
        got = eval_psi(table, z, 5, ctx)
        with ctx.workdps():
            want = eval_psi(table, mp.mpc(z), mp.mpf(5), ctx)
        assert [v._mpc_ for v in got] == [v._mpc_ for v in want]


def _probe_polys(table, pair_index, radius, ctx):
    """The energy polynomials at the right probe of a pair."""
    pair = pt_pairs(table.n_exponent)[pair_index]
    return energy_polynomials(table, Fraction(radius), pair.theta_right, ctx)


def assert_grid_matches_horner(polys, den, ts, ctx):
    """Every part of the exact grid values at t/den, rounded once to the
    working precision, is within 2**-prec of the majorant sum_k |c_k|
    |E|**k of eval_energy_poly there."""
    at, unit = grid_evaluator(polys, den)
    with ctx.workdps():
        prec = mp.mp.prec
        for t in ts:
            ev = ctx.mpf(Fraction(t, den))
            values = at(t)
            for k, poly in enumerate(polys):
                want = eval_energy_poly(poly, ev)
                got = [mp.make_mpf(from_rational(v, unit, prec, "n")) for v in values[2 * k:2 * k + 2]]
                with mp.workprec(prec + 40):
                    u = abs(ev) / mp.mpf(2) ** poly.rho
                    majorant = mp.fsum(mp.hypot(r, i) * u**j for j, (r, i) in enumerate(zip(poly.re, poly.im)))
                    bound = majorant / mp.mpf(2) ** (poly.frac + prec)
                    assert abs(got[0] - want.real) <= bound, (t, k)
                    assert abs(got[1] - want.imag) <= bound, (t, k)


@pytest.mark.parametrize(
    "n_exponent, pair_index, radius, den, ts",
    [
        (3, 0, 8, 20, range(0, 310, 7)),  # past the fifth level, 15.29
        (7, 2, 3, 20, range(0, 1200, 29)),  # past the fourth level, 59.03
        (4, 0, 6, 20, range(0, -240, -7)),  # the parity pair, down to -12
        (2, 0, 8, 20, range(0, -400, -9)),  # the negative direction of N=2 pair 0
        (3, 0, Fraction(1, 2), 100, range(13)),  # rho = -3: t moves 2**3 in, E in [0, 1/8]
        (7, 2, 3, 21, range(-7, 43, 3)),  # scan grid -1/3 + j/7 up to 2
    ],
)
def test_grid_evaluator_matches_horner(n_exponent, pair_index, radius, den, ts, ctx40):
    table = build_tables(n_exponent, 100)
    polys = _probe_polys(table, pair_index, radius, ctx40)
    assert_grid_matches_horner(polys, den, ts, ctx40)


def _refusal(read):
    """The message of the RadiusError read() raises, or None."""
    try:
        read()
    except RadiusError as error:
        return str(error)
    return None


def test_grid_evaluator_refuses_what_horner_refuses(ctx40):
    # radius 3/4 and pmax 40 scale the energy polynomials for |E| <= 1:
    # the grid and _horner read every point of that disk and refuse every
    # point past it with the same message, on both sides of E = 0 (the
    # parity pair scans toward negative E) and at 53 bits as at the
    # working precision
    table = build_tables(3, 40)
    polys = _probe_polys(table, 0, Fraction(3, 4), ctx40)
    at, _ = grid_evaluator(polys, 20)
    for precision in (ctx40.workdps(), mp.workprec(53)):
        with precision:
            for t in range(-420, 421):
                grid = _refusal(lambda: at(t))
                kernel = _refusal(lambda: [eval_energy_poly(poly, mp.mpf(t) / 20) for poly in polys])
                assert grid == kernel, t
                assert (grid is None) == (abs(t) <= 20), t


def test_scale_is_the_least_power_of_two_above():
    # the smallest sigma with 2**sigma >= |x| for every x given, exact at
    # powers of two and 2**-80 (relative) on either side of them, below 1,
    # for negative values and for mpf input; None when all are zero
    for k in (-70, -3, -1, 0, 1, 3, 70):
        power = Fraction(2) ** k
        assert series._scale(power) == series._scale(-power) == series._scale(mp.ldexp(1, k)) == k
        assert series._scale(power * (1 + Fraction(1, 2**80))) == k + 1
        assert series._scale(-power * (1 - Fraction(1, 2**80))) == k
    assert series._scale(Fraction(3, 4)) == 0 and series._scale(Fraction(1, 3)) == -1
    assert series._scale("0.05") == -4 and series._scale(mp.mpf(2) ** 30 + mp.mpf(2) ** -20) == 31
    assert series._scale(5, Fraction(-33, 2), 0, mp.mpf(-1)) == 5
    assert series._scale(0) is None and series._scale(0, Fraction(0), mp.mpf(0)) is None
    with pytest.raises(ParameterError):  # so eval_psi keeps refusing a non-finite E
        series._scale(1, mp.inf)
    with pytest.raises(ParameterError):
        eval_psi(build_tables(3, 20), 1, mp.inf, PrecisionContext(20))


def test_grid_evaluator_validation(table3, ctx40):
    a, b = _probe_polys(table3, 0, 8, ctx40)
    with pytest.raises(ParameterError):
        grid_evaluator((a, b), 0)
    with pytest.raises(ParameterError):
        grid_evaluator((a, ScaledPoly(b.re[:-1], b.im[:-1], b.frac, b.rho)), 20)


def test_health_tails_grow_with_radius(ctx40):
    near, far = ([health_check(pair, TruncationParams(100, Fraction(r)), 30, ctx40)
                  for pair in pt_pairs(7)] for r in (3, 8))
    with ctx40.workdps():
        assert all(report.tail < mp.mpf("1e-10") for report in near)
        assert any(report.tail > mp.mpf("1e-10") for report in far)


def test_health_tails_match_definition(table7, ctx40):
    # max over the rim p + q = P of |a[p,P-p] E^q w^m|, over |psi1| from
    # the direct double sum at the wedge centre of each pair
    pmax, step = table7.pmax, table7.n_exponent + 2
    a = oracles.fraction_tables(table7)[0]
    for radius in (3, 8):
        trunc = TruncationParams(100, Fraction(radius))
        with ctx40.workdps():
            e_val = mp.mpf(30)
            rim = [(a[(p, pmax - p)], pmax - p, step * p + 2 * (pmax - p))
                   for p in range(pmax + 1)]
            worst = max(mp.mpf(a.numerator) / a.denominator * e_val**q * mp.mpf(radius)**m
                        for a, q, m in rim)
            for pair in pt_pairs(7):
                report = health_check(pair, trunc, 30, ctx40)
                assert report.pair == pair
                z = polar_point(Fraction(radius), pair.theta_right, PrecisionContext(ctx40.digits + 20))
                want = worst / abs(oracles.direct_psi(table7, z, e_val, ctx40.dps + 20)[0])
                assert abs(report.tail - want) <= mp.mpf("1e-30") * want, (radius, pair.index)


@pytest.mark.parametrize(
    "n_exponent, radius, e_val, theta",
    [(7, Fraction(3), Fraction(30), Fraction(1, 12)), (7, Fraction(3), Fraction(30), Fraction(-1, 2)),
     (3, Fraction(8), Fraction(5), Fraction(1, 6)), (3, Fraction(8), Fraction(-7, 2), Fraction(-1, 6)),
     (3, Fraction(3, 4), Fraction(30), Fraction(1, 6)),
     (3, Fraction(8), Fraction(5), Fraction(0)),
     (3, Fraction(15, 2), Fraction(23, 2), (Fraction(24, 25), Fraction(7, 25)))],
)
def test_rim_keeps_its_relative_precision(n_exponent, radius, e_val, theta, ctx40):
    # rim_peak and residual against the exact rim terms c[p,q] E**q w**m
    # of brute_tables, to 10**-digits relative, though at N=7 the rim lies
    # 70 digits below psi1; mostly at angles where the rim terms do not
    # cancel, so the relative precision of each term is what shows, and
    # at z = 8 and 7.2 + 2.1i, where the residual clears 1e-6.  theta is
    # the angle of z in units of pi, or z / radius as an exact (cos, sin)
    pmax, step = 100, n_exponent + 2
    table = build_tables(n_exponent, pmax)
    a, b = oracles.brute_tables(n_exponent, pmax)
    rim = [(p, pmax - p, step * p + 2 * (pmax - p)) for p in range(pmax + 1)]
    peak = max(a[p, q] * abs(e_val) ** q * radius**m for p, q, m in rim)
    hi = PrecisionContext(ctx40.digits + 30)
    with ctx40.workdps():
        got = rim_peak(table, ctx40.mpf(radius), ctx40.mpf(e_val), ctx40)
    assert abs(got - hi.mpf(peak)) <= ctx40.tolerance() * hi.mpf(peak)
    if isinstance(theta, tuple):
        with hi.workdps():
            z = mp.mpc(*(hi.mpf(radius * t) for t in theta))
    else:
        z = polar_point(radius, theta, hi)
    for which, coeffs, lift in (("psi1", a, 0), ("psi2", b, 1)):
        with hi.workdps():
            w, ev = mp.mpc(0, 1) * z, hi.mpf(e_val)
            want = -(w**n_exponent + ev) * mp.fsum(
                hi.mpf(coeffs[p, q]) * ev**q * w ** (m + lift) for p, q, m in rim)
        with ctx40.workdps():
            got = residual(table, z, ctx40.mpf(e_val), ctx40, which)
        assert abs(got - want) <= ctx40.tolerance() * abs(want), which


def _majorant_taylor(coeffs, t, order):
    """order-th Taylor coefficient at t of sum_k |c_k| x**k, term by term."""
    return mp.fsum(mp.binomial(k, order) * abs(c) * t ** (k - order)
                   for k, c in enumerate(coeffs) if k >= order)


_unit = st.floats(-1, 1, allow_nan=False)


def _polar(size, turn):
    """size * exp(i*pi*turn) at the working precision, each part rounded
    toward zero: a point on the scale circle |x| = size stays in the disk
    _horner reads, where rounding to nearest may put it outside."""
    prec = mp.mp.prec
    parts = mpf_cos_sin_pi(mp.mpf(turn)._mpf_, prec, "d")
    return mp.mpc(*(mp.make_mpf(mpf_mul(size._mpf_, part, prec, "d")) for part in parts))


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=41),
    dps=st.integers(15, 80),
    x=st.tuples(st.floats(0, 2, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
    real_x=st.booleans(),
)
def test_horner_matches_polyval(coeffs, dps, x, real_x):
    # _horner at dps against mpmath at dps + 20, within the running
    # error bound 10^-dps * deg * (Taylor coefficient of sum |c_k| x^k)
    with mp.workdps(dps):
        poly = [mp.mpc(*c) for c in coeffs]
        point = mp.mpf(x[0]) if real_x else _polar(mp.mpf(x[0]), x[1])
        stored = oracles.fixed_point(poly, 1, mp.mp.prec)  # scale 2 covers |x| <= 2
        got = _horner(stored, point, 1)
        assert _horner(stored, point)[0] == got[0]
        with pytest.raises(ParameterError):
            _horner(stored, point, 2)
    deg = len(poly) - 1
    with mp.workdps(dps + 20):
        value, slope = mp.polyval(poly[::-1], point, derivative=True)
        for order, want in enumerate((value, slope)):
            bound = mp.mpf(10) ** -dps * max(deg, 1) * _majorant_taylor(poly, abs(point), order)
            assert abs(got[order] - want) <= bound, order


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.tuples(_unit, _unit, st.integers(-300, 300)), min_size=1, max_size=41),
    tiny_c0=st.booleans(),
    dps=st.integers(15, 80),
    rho=st.integers(-10, 10),
    depth=st.integers(0, 60),
    x=st.tuples(st.floats(0.5, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
    real_x=st.booleans(),
)
def test_integer_kernel_wide_exponents(coeffs, tiny_c0, dps, rho, depth, x, real_x):
    # binary exponents of the coefficients over +-300 (c_0 down to 2^-600
    # when tiny), points from the scale radius 2^rho down to 2^(rho-61):
    # ScaledPolys at the scale of the point and at scale 2^rho (the form of
    # the collapses) both stay within the bound of
    # test_horner_matches_polyval against mpmath at dps + 20
    with mp.workdps(dps):
        poly = [mp.mpc(re, im) * mp.ldexp(1, e) for re, im, e in coeffs]
        if tiny_c0:
            poly[0] *= mp.ldexp(1, -300)
        size = mp.ldexp(mp.mpf(x[0]), rho - depth)
        point = size if real_x else _polar(size, x[1])
        near = oracles.fixed_point(poly, rho - depth, mp.mp.prec)  # |point| <= 2^(rho-depth)
        stored = oracles.fixed_point(poly, rho, mp.mp.prec)
        assert isinstance(stored, ScaledPoly) and len(near) == len(stored) == len(poly)
        results = []
        for form in (near, stored):
            got = _horner(form, point, 1)
            assert _horner(form, point)[0] == got[0]
            with pytest.raises(ParameterError):
                _horner(form, point, 2)
            results.append(got)
    deg = len(poly) - 1
    with mp.workdps(dps + 20):
        value, slope = mp.polyval(poly[::-1], point, derivative=True)
        for got in results:
            for order, want in enumerate((value, slope)):
                bound = mp.mpf(10) ** -dps * max(deg, 1) * _majorant_taylor(poly, abs(point), order)
                assert abs(got[order] - want) <= bound, order


def _exact_sums(poly, u, keep):
    """(P(u), P'(u), value tail, slope tail) of a ScaledPoly at the scaled
    point u, in mpmath: the full sums, and sum_{k>=keep} |D_k| |u|**k and
    sum_{k>=keep} k |D_k| |u|**(k-1) of the coefficients a cut drops."""
    coeffs = [mp.mpc(r, i) * mp.ldexp(1, -poly.frac) for r, i in zip(poly.re, poly.im)]
    value, slope = mp.polyval(coeffs[::-1], u, derivative=True)
    dropped = list(enumerate(coeffs))[keep:]
    tail = mp.fsum(abs(c) * abs(u) ** k for k, c in dropped)
    slope_tail = mp.fsum(k * abs(c) * abs(u) ** (k - 1) for k, c in dropped)
    return value, slope, tail, slope_tail


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.lists(st.tuples(_unit, _unit, st.integers(-8, 8)), min_size=120, max_size=120),
    length=st.integers(1, 120),
    top=st.integers(-300, 300),
    decay=st.integers(0, 12),
    extra=st.integers(0, 300),
    dps=st.integers(15, 80),
    rho=st.integers(-10, 10),
    depth=st.integers(0, 60),
    x=st.tuples(st.floats(0.5, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
)
def test_horner_cut_stays_within_its_bound(coeffs, length, top, decay, extra, dps, rho, depth, x):
    # a ScaledPoly of up to 120 coefficients at scale 2^rho, exponents from +-300,
    # falling by 2^-decay per degree and stored at prec + extra fractional
    # bits, like the collapses (so its tail can fall below them), at |u|
    # from 2^-61 to 1: the coefficients _horner drops move the value and
    # the slope by under half a unit 2^-(F+1) of its working bits F, and
    # both orders stay within 2 (deg+1)^(j+1) units of the full exact sum
    # of the stored coefficients (plus the final rounding to prec bits)
    with mp.workdps(dps):
        prec = mp.mp.prec
        frac = prec + extra
        parts = [mp.mpc(re, im) * mp.ldexp(1, top + e - decay * k + rho * k + frac)
                 for k, (re, im, e) in enumerate(coeffs[:length])]
        stored = ScaledPoly(*(tuple(int(mp.nint(getattr(c, part))) for c in parts)
                              for part in ("real", "imag")), frac, rho)
        point = _polar(mp.ldexp(mp.mpf(x[0]), rho - depth), x[1])
        got = _horner(stored, point, 1)
        xr, xi, e, rho_x, lx = series._point(point)
        need = series._resolution(stored.bounds, len(stored) - 1, lx - rho, prec)
        work = max(frac, need or 0)  # the working bits F
        keep = stored.kept(xr * xr + xi * xi, rho - e, work)
    deg = len(stored) - 1
    with mp.workprec(2 * prec + 64 * len(stored) + 700):
        u = point * mp.ldexp(1, -rho)
        value, slope, tail, slope_tail = _exact_sums(stored, u, keep)
        unit = mp.ldexp(1, -work)
        assert tail < unit / 2 and slope_tail < unit / 2
        for order, (g, want, lift) in enumerate(((got[0], value, 1), (got[1], slope, mp.ldexp(1, -rho)))):
            bound = 2 * (deg + 1) ** (order + 1) * unit * lift + mp.ldexp(abs(g), 1 - prec)
            assert abs(g - want * lift) <= bound, order


def test_horner_keeps_a_coefficient_just_above_the_cut():
    # P(u) = 1 + u + m 2^-frac u^40 + 0 u^41 + ... + 0 u^44 at u = 1/2, where
    # frac = 80 are the working bits: kept() drops D_40 only when bits(m) +
    # 2*bits(44) + 2 - 39 <= 0.  At bits(m) = 26, one bit above that
    # threshold, D_40 must stay; at 25 bits it is cut, the coefficients
    # after it are zero, and the exact dropped tails lie below half a unit
    with mp.workprec(64):
        frac, j = 80, 40
        for m, keep in ((2**25, j + 1), (2**25 - 1, j)):
            re = (1 << frac, 1 << frac) + (0,) * (j - 2) + (m,) + (0,) * 4
            poly = ScaledPoly(re, (0,) * len(re), frac, 0)
            assert series._resolution(poly.bounds, len(poly) - 1, -1, mp.mp.prec) <= frac  # F = frac
            assert poly.kept(1, 1, frac) == keep, m  # u = 1/2
            got = _horner(poly, mp.mpf(0.5), 1)
            with mp.workprec(400):
                value, slope, tail, slope_tail = _exact_sums(poly, mp.mpf(0.5), keep)
                unit = mp.ldexp(1, -frac)
                assert tail < unit / 2 and slope_tail < unit / 2
                for order, (g, want) in enumerate(zip(got, (value, slope))):
                    assert abs(g - want) <= 2 * len(poly) ** (order + 1) * unit + mp.ldexp(abs(g), -63)


def test_the_suffix_bound_adds_no_measurable_memory(table3, levels3, ctx40):
    # four bytes per coefficient: under 5% of the coefficients of a level
    # polynomial of N=3 (502 of them at 226 fractional bits)
    level = levels3[1]
    poly = space_polynomial(table3, level.E, *level_weights(level), ctx40, level.trunc.radius)
    assert len(poly.tail) == len(poly) and poly.tail.nbytes == 4 * len(poly)
    coefficient_bytes = sum(map(sys.getsizeof, (poly.re, poly.im, *poly.re, *poly.im)))
    assert sys.getsizeof(poly.tail) + sys.getsizeof(poly.tail.obj) < coefficient_bytes / 20


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=41),
    dps=st.integers(15, 80),
    m=st.integers(0, 6),
    rho=st.integers(-3, 3),
    ends=st.lists(st.tuples(st.floats(0.5, 1, allow_nan=False), _unit), min_size=2, max_size=2),
)
def test_integer_square_and_antiderivative(coeffs, dps, m, rho, ends):
    # the integer square of a ScaledPoly at scale 2^rho, and its integer
    # antiderivative sum_j S_j w^(j+m+1) / (j+m+1) at two points with
    # 2^(rho-1) <= |w| <= 2^rho, against the mpmath square at dps + 20,
    # within the bound of test_horner_matches_polyval; moment_integral
    # returns (-i)^(m+1) times their difference and the two majorants
    with mp.workdps(dps):
        poly = [mp.mpc(*c) for c in coeffs]
        points = [_polar(mp.ldexp(mp.mpf(r), rho), t) for r, t in ends]
        square = poly_square(oracles.fixed_point(poly, rho, mp.mp.prec))
        assert len(square) == 2 * len(poly) - 1 and square.rho == rho
        anti = _antiderivative(square, m)
        got = [_horner(anti, w)[0] for w in points]
        value, size = moment_integral(square, m, *(-mp.mpc(0, 1) * w for w in points))
    with mp.workdps(dps + 20):
        want = [0] * (m + 1) + [s / (j + m + 1) for j, s in enumerate(oracles.square(poly))]
        deg = len(want) - 1
        sizes = [_majorant_taylor(want, abs(w), 0) for w in points]
        bounds = [mp.mpf(10) ** -dps * deg * size_w for size_w in sizes]
        ends_want = [mp.polyval(want[::-1], w) for w in points]
        for g, e, bound in zip(got, ends_want, bounds):
            assert abs(g - e) <= bound
        turn = mp.mpc(0, -1) ** (m + 1)
        assert abs(value - turn * (ends_want[1] - ends_want[0])) <= sum(bounds)
        assert abs(size - sum(sizes)) <= sum(bounds)


# signed integers of mixed bit lengths, zero among them
_coefficient = st.one_of(st.just(0), st.integers(-(2**8), 2**8), st.integers(-(2**400), 2**400))


@settings(max_examples=80, deadline=None)
@given(
    re=st.lists(_coefficient, min_size=1, max_size=40),
    im=st.lists(_coefficient, min_size=40, max_size=40),
    shape=st.sampled_from(["mixed", "real", "negative"]),
)
def test_poly_square_matches_schoolbook(re, im, shape):
    # the packed product, bit for bit against the schoolbook convolution,
    # on any length from 1, with an all-zero imaginary part, and all negative
    im = [0] * len(re) if shape == "real" else im[: len(re)]
    if shape == "negative":
        re, im = [-abs(c) - 1 for c in re], [-abs(c) - 1 for c in im]
    square = poly_square(ScaledPoly(tuple(re), tuple(im), 7, -2))
    assert (square.re, square.im) == oracles.schoolbook_square(re, im)
    assert (square.frac, square.rho) == (14, -2)


def test_poly_square_of_empty_and_level_polynomials(table3, table7, ctx40):
    # the empty polynomial squares to the empty polynomial
    empty = poly_square(ScaledPoly((), (), 5, 1))
    assert (empty.re, empty.im, empty.frac, empty.rho) == ((), (), 10, 1)
    # the level-1 polynomials of N=3 at r=8 and of N=7, pair 1, at r=3
    for table, pair, radius in ((table3, 0, 8), (table7, 1, 3)):
        trunc = TruncationParams(100, Fraction(radius))
        level = spectrum(pt_pairs(table.n_exponent)[pair], 2, trunc, ctx40)[1]
        poly = space_polynomial(table, level.E, *level_weights(level), ctx40, level.trunc.radius)
        square = poly_square(poly)
        assert (square.re, square.im) == oracles.schoolbook_square(poly.re, poly.im)
