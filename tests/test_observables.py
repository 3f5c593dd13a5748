"""PT moments, model identities, contour handling, sampling."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import p_symmetric_pair
from oracles import fixed_point
from ptspec import (
    DegenerateNormError,
    GeometryError,
    ParameterError,
    RadiusError,
    build_contour,
    expectation,
    identity_checks,
    level_weights,
    pt_pairs,
    spectrum,
    wavefunction_samples,
)
from ptspec import series
from ptspec.cli import main
from ptspec.series import (
    moment_integral,
    poly_psi,
    poly_square,
    space_polynomial,
)

# quoted reference values for the first four levels; m=1 and m=3 are
# pure imaginary, m=4 real, all to ten digits after the point
QUOTED_MOMENTS = {
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


def test_norm_moment_is_one(moments3, ctx40):
    with ctx40.workdps():
        for n in range(4):
            res = moments3[(0, n)]
            assert abs(res.value - 1) < mp.mpf("1e-20")
            assert res.norm != 0


def test_quoted_reference_moments(moments3, ctx40):
    with ctx40.workdps():
        tol = mp.mpf("2e-10")  # two units in the last quoted digit
        for (m, n), digits in QUOTED_MOMENTS.items():
            want = mp.mpc(0, digits) if m in (1, 3) else mp.mpc(digits)
            assert abs(moments3[(m, n)].value - want) < tol, (m, n)


def test_second_moment_vanishes(moments3, ctx40):
    # Ehrenfest: <z^(N-1)> = 0; limited by the finite contour tail,
    # which grows with n as the decay exponent weakens
    with ctx40.workdps():
        assert abs(moments3[(2, 0)].value) < mp.mpf("1e-13")
        for n in range(1, 4):
            assert abs(moments3[(2, n)].value) < mp.mpf("1e-9")


def test_virial_relation(moments3, levels3, ctx40):
    with ctx40.workdps():
        for n in range(4):
            resid = moments3[(3, n)].value + mp.mpc(0, 2) / 5 * mp.mpf(levels3[n].E)
            assert abs(resid) < mp.mpf("1e-8")


def test_against_adaptive_quadrature(table3, levels3, moments3, trunc8, ctx40):
    from oracles import quad_moment

    with ctx40.workdps():
        for m, n in ((1, 0), (4, 2)):
            alpha, beta = level_weights(levels3[n])
            poly = space_polynomial(table3, levels3[n].E, alpha, beta, ctx40, trunc8.radius)
            want = quad_moment(lambda x: poly_psi(poly, x), m, 5, ctx40.dps)
            assert abs(moments3[(m, n)].value - want) < mp.mpf("1e-15")


def test_contour_independence(levels3, pair3, moments3, ctx40):
    rays = build_contour(pair3, Fraction(5), "wedge_rays")
    with ctx40.workdps():
        for m in (1, 4):
            alt = expectation(levels3[0], m, rays)
            assert abs(alt.value - moments3[(m, 0)].value) < mp.mpf("1e-10")
        # excited levels decay more slowly, so the endpoint mismatch grows
        alt = expectation(levels3[3], 4, rays)
        assert abs(alt.value - moments3[(4, 3)].value) < mp.mpf("1e-7")


def test_est_error_is_quadrature_sized(moments3, ctx40):
    with ctx40.workdps():
        for res in moments3.values():
            assert res.est_error >= 0
            assert res.est_error < mp.mpf("1e-28")


def test_identity_checks_pass(levels3, ctx40):
    for n, level in enumerate(levels3[:4]):
        row = identity_checks(level, build_contour(level.pair, 5, "real_line"))
        with ctx40.workdps():
            assert row.n == n
            assert row.ehrenfest_ok and row.ehrenfest_abs < mp.mpf("1e-9")
            assert row.virial_ok and row.virial_abs < mp.mpf("1e-8")


def test_identity_checks_other_power(trunc8, ctx40):
    # no virial column away from the cubic case
    (level,) = spectrum(p_symmetric_pair(2), 1, trunc8, ctx40, parity="even")
    row = identity_checks(level, build_contour(level.pair, 5, "real_line"))
    assert row.ehrenfest_ok
    assert row.virial_abs is None
    assert row.virial_ok is None


def test_degenerate_norm_detected(table3, levels3, contour3, trunc8, ctx40):
    # pick the superposition weight that makes the norm integral vanish:
    # with psi = psi1 + beta*psi2 the norm is A + 2*beta*B + beta^2*C
    with ctx40.workdps():
        e0 = levels3[0].E
        lam = mp.mpf(5)
        polys = {
            "11": space_polynomial(table3, e0, 1, 0, ctx40, trunc8.radius),
            "12": space_polynomial(table3, e0, 0, 1, ctx40, trunc8.radius),
        }

        def quad(pa, pb):
            f = lambda x: poly_psi(polys[pa], x) * poly_psi(polys[pb], x)
            return mp.quad(f, [-lam, 0, lam])

        a, b, c = quad("11", "11"), quad("11", "12"), quad("12", "12")
        beta = (-b + mp.sqrt(b * b - a * c)) / c
        bad = levels3[0]._replace(c=beta)
    with pytest.raises(DegenerateNormError):
        expectation(bad, 0, contour3)


def test_radius_guard(levels3, pair3):
    wide = build_contour(pair3, 9, "real_line")
    with pytest.raises(RadiusError):
        expectation(levels3[0], 0, wide)
    with pytest.raises(RadiusError):
        wavefunction_samples(levels3[0], -9, 2, Fraction(1, 4))


def test_parameter_validation(levels3, pair3, contour3):
    with pytest.raises(ParameterError):
        expectation(levels3[0], -1, contour3)
    with pytest.raises(ParameterError):
        expectation(levels3[0], 1.5, contour3)
    with pytest.raises(ParameterError):
        build_contour(pair3, 0, "real_line")
    with pytest.raises(ParameterError):
        build_contour(pair3, 5, "arc")


def test_real_line_needs_straddling_pair():
    # wedge boundaries exclude the axis directions
    with pytest.raises(GeometryError):
        build_contour(pt_pairs(4)[1], 5, "real_line")


def test_contour_geometry(pair3, contour3):
    assert contour3.style == "real_line"
    assert contour3.lam == 5
    assert (contour3.left, contour3.right) == ((5, 1), (5, 0))
    rays = build_contour(pair3, Fraction(5), "wedge_rays")
    assert rays.lam == 5
    assert (rays.left, rays.right) == ((5, pair3.theta_left), (5, pair3.theta_right))


def test_wavefunction_samples_grid(levels3, ctx40):
    pts = wavefunction_samples(levels3[0], -2, 2, Fraction(1, 4))
    assert len(pts) == 17
    with ctx40.workdps():
        for j, (x, _) in enumerate(pts):
            assert x == ctx40.mpf(Fraction(-2) + j * Fraction(1, 4))
        # real c makes psi PT self conjugate: psi(-x) = conj(psi(x))
        vals = dict(pts)
        for x, psi in pts:
            assert abs(vals[-x] - mp.conj(psi)) < mp.mpf("1e-35")


def test_wavefunction_samples_validation(levels3):
    with pytest.raises(ParameterError):
        wavefunction_samples(levels3[0], -2, 2, 0)
    with pytest.raises(ParameterError):
        wavefunction_samples(levels3[0], 2, -2, Fraction(1, 4))


def test_weights_used_by_contour(levels3):
    alpha, beta = level_weights(levels3[0])
    assert alpha == 1
    assert beta is levels3[0].c


def test_n2_closed_form_moments(trunc8, ctx40):
    # N=2 is the harmonic oscillator -psi'' + z^2 psi = E psi: E_n = 2n+1,
    # psi_n = H_n(z) e^(-z^2/2), so <z^2>_n = E_n/2 = n + 1/2 (virial
    # theorem) and <z^4>_0 = 3/4.  The contour [-lam, lam] leaves out the
    # two tails beyond lam, each about 2^(2n) lam^(2n+m-1) e^(-lam^2) / 2
    # against the norm sqrt(pi) 2^n n!, so the moment is off by about
    # tail(n, m) = 2^n lam^(2n+m-1) e^(-lam^2) / (sqrt(pi) n!).  lam = 7,
    # inside the validated radius 8, keeps every tail below 4e-16 while
    # the levels themselves are within 1e-21 of 2n+1; the tolerance is
    # twice the tail, which also covers the next order of its expansion.
    levels = spectrum(p_symmetric_pair(2), 4, trunc8, ctx40)
    lam = 7
    path = build_contour(levels[0].pair, lam, "real_line")
    with ctx40.workdps():

        def tail(n, m):
            return (
                2**n * mp.mpf(lam) ** (2 * n + m - 1) * mp.exp(-lam**2)
                / (mp.sqrt(mp.pi) * mp.factorial(n))
            )

        for n in range(4):
            res = expectation(levels[n], 2, path)
            assert abs(res.value - (n + mp.mpf(1) / 2)) < 2 * tail(n, 2), n
        res = expectation(levels[0], 4, path)
        assert abs(res.value - mp.mpf(3) / 4) < 2 * tail(0, 4)


_unit = st.floats(-1, 1, allow_nan=False)
_complex = st.tuples(_unit, _unit)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(_complex, min_size=1, max_size=13),
    m=st.integers(0, 4),
    z0=_complex,
    z1=_complex,
)
def test_exact_integral_matches_quadrature(coeffs, m, z0, z1):
    # int_z0^z1 P(iz)^2 z^m dz from the squared polynomial's antiderivative
    # against tanh-sinh quadrature along the straight segment z0 -> z1
    with mp.workdps(30):
        poly = [mp.mpc(*c) for c in coeffs]
        a = 2 * mp.mpc(*z0)
        b = 2 * mp.mpc(*z1)
        # scale 2**2 covers |a|, |b| <= 2*sqrt(2)
        stored = fixed_point(poly, 2, mp.mp.prec)
        value, size = moment_integral(poly_square(stored), m, a, b)

        def integrand(t):
            z = a + t * (b - a)
            return poly_psi(stored, z) ** 2 * z**m * (b - a)

        want = mp.quad(integrand, [0, 1])
        assert abs(value - want) <= mp.mpf("1e-20") * max(1, size)


def test_expect_integrates_each_endpoint_sum_once(monkeypatch, capsys):
    # four moments plus the Ehrenfest (m=2) and virial (m=3) checks need
    # the norm at the working and at the raised dps and m = 1..4 at the
    # raised dps: six distinct integrals
    calls = []

    def counted(*args):
        calls.append(args[1])
        return moment_integral(*args)

    monkeypatch.setattr(series, "moment_integral", counted)
    series.clear_memos()
    rc = main(["expect", "--N", "3", "--level", "0", "--moments", "1,2,3,4",
               "--digits", "20", "--pmax", "60"])
    capsys.readouterr()
    assert rc == 0
    assert sorted(calls) == [0, 0, 1, 2, 3, 4]
