"""Eigenvalue machinery: golden spectrum, parity route, health gates."""

import itertools
from fractions import Fraction

import mpmath as mp
import pytest

import oracles
from conftest import p_symmetric_pair
from ptspec import (
    DivergenceError,
    ParameterError,
    PoleError,
    PrecisionContext,
    RadiusError,
    TruncationError,
    TruncationParams,
    health_check,
    level_weights,
    pt_pairs,
    pt_reflect,
    scan_im_c,
    quantize,
    series,
    spectrum,
)

# regression anchors: computed at digits=40, P=100, r=8 and confirmed
# by the radius/truncation stability and shooting cross-checks below
GOLDEN_N3 = [
    ("1.156267071988113293799219177999951379166",
     "-0.5387155454097590905020112544288825223324"),
    ("4.109228752809651535843668478561335691086",
     "-2.327274240758743340017200966938772697992"),
    ("7.562273854978828041351809110631482712093",
     "-2.698335141902790367089526507889801521971"),
    ("11.31442182019580440223378394842698944127",
     "-3.378234194942584528834972234886463085202"),
    ("15.29155375039253238818163079175199939873",
     "-3.909809260127766591456317898585289823379"),
]

N4_EVEN = ["-1.06036209048418289964704601669", "-7.45569793798673839215659134719"]
N4_ODD = ["-3.79967302980139416878309418851", "-11.6447455113781620208503732814"]


def test_golden_spectrum_regression(levels3, ctx40):
    with ctx40.workdps():
        for lv, (e_str, c_str) in zip(levels3, GOLDEN_N3):
            assert lv.n == GOLDEN_N3.index((e_str, c_str))
            assert abs(lv.E - mp.mpf(e_str)) < mp.mpf("1e-36")
            assert abs(lv.c - mp.mpf(c_str)) < mp.mpf("1e-36")
            assert abs(mp.im(lv.c)) == 0  # stored as a real number
            assert lv.parity is None
            assert lv.pair.index == 0


def test_spectrum_monotone_and_diagnosed(levels3, ctx40):
    with ctx40.workdps():
        for prev, cur in zip(levels3, levels3[1:]):
            assert cur.E > prev.E
        for lv in levels3:
            assert lv.est_error < mp.mpf("1e-30")
            assert lv.stable
            assert lv.trunc.pmax == 100
            assert lv.ctx.digits == 40


def test_c_approaches_minus_sqrt_e(levels3, ctx40):
    with ctx40.workdps():
        dev = [abs(lv.c / mp.sqrt(lv.E) + 1) for lv in levels3]
        assert dev[3] < dev[0]


def test_radius_and_truncation_stability(pair3, levels3, ctx40):
    # the same roots from r=7 and from P=150 to twenty significant figures
    with ctx40.workdps():
        r7 = spectrum(pair3, 4, TruncationParams(100, Fraction(7)), ctx40)
        p150 = spectrum(pair3, 4, TruncationParams(150, Fraction(8)), ctx40)
        for n in range(4):
            assert abs(r7[n].E - levels3[n].E) < mp.mpf("1e-20") * levels3[n].E
            assert abs(p150[n].E - levels3[n].E) < mp.mpf("1e-20") * levels3[n].E


def test_shooting_oracle_n7(ctx40):
    # float shooting along the wedge centre rays agrees with the series
    # roots to at least ten digits
    trunc = TruncationParams(100, Fraction(3))
    pairs = pt_pairs(7)
    for pair, bracket in ((pairs[0], (1.3, 1.9)), (pairs[2], (2.7, 3.4))):
        lv = spectrum(pair, 1, trunc, ctx40)[0]
        theta = float(pair.theta_right) * 3.141592653589793
        ref = oracles.shoot_eigenvalue(7, theta, bracket, s_inf=3.5)
        assert abs(float(lv.E) - ref) / ref < 1e-10


def test_c_matches_shooting_n3(levels3, pair3):
    # c = -i psi'(0)/psi(0) of the shot decaying along the right wedge's
    # centre ray, at each level's E: an oracle for the printed c that
    # shares nothing with the series
    theta = float(pair3.theta_right) * 3.141592653589793
    for level in levels3[:5]:
        c = float(level.c)
        ref = oracles.shoot_connection(3, theta, float(level.E))
        assert abs(ref - c) <= 1e-9 * abs(c), level.n


def test_c_matches_shooting_n7():
    ctx = PrecisionContext(20)
    pair = pt_pairs(7)[1]
    theta = float(pair.theta_right) * 3.141592653589793
    for level in spectrum(pair, 4, TruncationParams(100, Fraction(3)), ctx):
        c = float(level.c)
        ref = oracles.shoot_connection(7, theta, float(level.E), s_inf=3.5)
        assert abs(ref - c) <= 1e-9 * abs(c), level.n


def test_left_probe_is_the_right_one_conjugated():
    # every read takes the right probe: on a PT pair the left probe's
    # energy polynomials are the right ones conjugated, in the same fixed
    # point, to 1 unit of the last bit on Re and 2 on Im (the worst case
    # over these exponents, radii and precisions)
    for n_exponent in range(2, 9):
        table = series.build_tables(n_exponent, 100)
        pairs = [p for p in pt_pairs(n_exponent) if pt_reflect(p.theta_right) == p.theta_left]
        for digits, radius, pair in itertools.product(
            (20, 40, 80), (Fraction(8), Fraction(3), Fraction(27, 10), Fraction(1, 2)), pairs
        ):
            ctx = PrecisionContext(digits)
            right, left = (series.energy_polynomials(table, radius, theta, ctx)
                           for theta in (pair.theta_right, pair.theta_left))
            for r, l in zip(right, left, strict=True):
                assert (l.frac, l.rho) == (r.frac, r.rho)
                assert all(abs(x - y) <= 1 for x, y in zip(r.re, l.re, strict=True))
                assert all(abs(x + y) <= 2 for x, y in zip(r.im, l.im, strict=True))


def test_c_real_at_eigenvalue(pair3, levels3, trunc8, ctx40):
    E = levels3[0].E
    with ctx40.workdps():
        polys = quantize._probe_polys(pair3, trunc8, ctx40, series._scale(E))
        c = quantize._c_from_polys(*polys, E, ctx40)
        assert abs(mp.im(c)) < mp.mpf("1e-35")
        assert abs(mp.re(c) - levels3[0].c) < mp.mpf("1e-35")


def test_spectrum_ignores_a_pole_of_c_beside_a_level(pair3, trunc8, ctx40, monkeypatch):
    # c = -psi1/psi2 made to raise PoleError at the grid point E = 41/10,
    # the lower end of the scan cell holding the level at 4.109: the scan
    # reads D, which has no poles, so the cell still brackets the level
    with ctx40.workdps():
        pole = ctx40.mpf(Fraction(41, 10))
    c_from_polys = quantize._c_from_polys

    def planted(poly_a, poly_b, E, ctx):
        if E == pole:
            raise PoleError("planted pole")
        return c_from_polys(poly_a, poly_b, E, ctx)

    monkeypatch.setattr(quantize, "_c_from_polys", planted)
    levels = spectrum(pair3, 5, trunc8, ctx40)
    assert len(levels) == len(GOLDEN_N3)
    with ctx40.workdps():
        for lv, (e_str, c_str) in zip(levels, GOLDEN_N3):
            assert abs(lv.E - mp.mpf(e_str)) < mp.mpf("1e-36")
            assert abs(lv.c - mp.mpf(c_str)) < mp.mpf("1e-36")


@pytest.mark.parametrize(
    "n_exponent, pair_index, radius",
    [(3, 0, 8), (7, 2, 3), (4, 0, 6), (2, 0, 8)],
)
def test_exact_scan_sign_matches_reader(n_exponent, pair_index, radius, ctx40):
    # the exact sign of the determinant from the grid lanes against the
    # mpf reader, at every 10th grid point of the scan direction up to the
    # fourth sign change
    pair = pt_pairs(n_exponent)[pair_index]
    trunc = TruncationParams(100, Fraction(radius))
    direction = -1 if pair.theta_right == Fraction(1, 2) else 1
    scale = series._scale(quantize.DEFAULT_ENERGY_CAP)  # spectrum's scale
    polys = quantize._probe_polys(pair, trunc, ctx40, scale)
    at = series.grid_evaluator(polys, 20)
    changes, prev, k = 0, 0, 0
    with ctx40.workdps():
        while changes < 4:
            f = quantize._determinant(pair.parity_swapped(), *at(direction * k))
            sign = (f > 0) - (f < 0)
            changes += prev * sign < 0
            prev = sign or prev
            if k % 10 == 0:
                ev = ctx40.mpf(Fraction(direction * k, 20))
                assert sign == mp.sign(quantize._reader(pair.parity_swapped(), polys, ev)[0]), k
            k += 1
            assert k < 2000


def _plant_a_grid_zero(monkeypatch):
    # p1 = i(E - 1), p2 = 1 on a PT pair: the reader is E - 1, exactly zero
    # at the grid point E = 1
    frac, rho = 64, 7  # at scale 2**7 for the whole scan up to E = 100
    p1 = series.ScaledPoly((0, 0), (-(1 << frac), 1 << (frac + rho)), frac, rho)
    p2 = series.ScaledPoly((1 << frac, 0), (0, 0), frac, rho)
    monkeypatch.setattr(series, "energy_polynomials", lambda table, radius, theta, ctx: (p1, p2))


def test_spectrum_finds_a_level_on_a_grid_point(pair3, trunc8, ctx40, monkeypatch):
    # the planted exact zero of the reader at E = 1 must not hide the level
    _plant_a_grid_zero(monkeypatch)
    (level,) = spectrum(pair3, 1, trunc8, ctx40)
    assert level.E == 1
    assert level.est_error == 0


def test_scan_brackets_ground_root(pair3, trunc8, ctx40):
    points = scan_im_c(pair3, Fraction(1), Fraction(13, 10), Fraction(1, 10), trunc8, ctx40)
    assert [p.flag for p in points] == ["ok"] * 4
    signs = [mp.sign(p.c_im) for p in points]
    assert signs[0] != signs[-1]  # the n=0 root at 1.156 sits inside


def test_scan_flags_pole(ctx40):
    # on the parity pair c has a pole at each odd-reader eigenvalue
    pts = scan_im_c(
        pt_pairs(2)[1],
        Fraction(29, 10),
        Fraction(31, 10),
        Fraction(1, 10),
        TruncationParams(),
        ctx40,
    )
    assert [p.flag for p in pts] == ["ok", "pole", "ok"]
    assert mp.isinf(pts[1].c_im)


def test_scan_validation(pair3, trunc8, ctx40):
    with pytest.raises(ParameterError):
        scan_im_c(pair3, 0, 1, 0, trunc8, ctx40)
    with pytest.raises(ParameterError):
        scan_im_c(pair3, 2, 1, Fraction(1, 10), trunc8, ctx40)


def test_spectrum_refines_a_unit_bracket(pair3, trunc8, ctx40):
    # at scan step 1 level 3 is refined from the whole cell (11, 12)
    lv = spectrum(pair3, 4, trunc8, ctx40, step=1)[3]
    with ctx40.workdps():
        assert 11 < lv.E < 12
        assert abs(lv.E - mp.mpf(GOLDEN_N3[3][0])) < mp.mpf("1e-36")
        assert lv.n == 3


def test_spectrum_reads_a_float_step_by_its_decimal_intent(pair3, trunc8, ctx40):
    # the scan step 0.05 is read as 1/20, so both grids bracket the
    # ground state by (23/20, 6/5) and refine it to the same bits
    exact = spectrum(pair3, 1, trunc8, ctx40, step=Fraction(1, 20))
    floats = spectrum(pair3, 1, trunc8, ctx40, step=0.05)
    with ctx40.workdps():
        assert exact[0].E == floats[0].E
        assert mp.nstr(exact[0].E, 40) == GOLDEN_N3[0][0]


def _newton_from_the_secant(f, lo, hi, tol, calls):
    """quantize._newton_root on f = (value, slope) from the secant point
    of the bracket, as spectrum starts it, listing the points it reads in
    calls."""
    def read(x):
        calls.append(x)
        return f(x)

    f_lo, f_hi = f(lo)[0], f(hi)[0]
    start = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    return quantize._newton_root(read, lo, hi, start, f_lo < 0, tol)


def test_newton_root_closes_without_rounding_noise():
    # f(x) = x - 1/3 with 1/3 held to 80 digits: the secant point is the
    # root, and the first read's step is below tol/2
    with mp.workdps(80):
        root = mp.mpf(1) / 3
    calls = []
    with mp.workdps(50):
        got = _newton_from_the_secant(lambda x: (x - root, 1), mp.mpf(0), mp.mpf("0.5"), mp.mpf("1e-45"), calls)
        assert abs(got - root) < mp.mpf("1e-45")
    assert len(calls) <= 25


def test_newton_root_does_not_creep_along_a_steep_side():
    # f = exp(200 (x - 1/20)) - 1 is flat below its root and steep above:
    # Newton from the steep side moves by 1/200 a read, some 90 reads from
    # the midpoint down to 0.05.  The bisection taken when a step is longer
    # than half the one before closes it in about 20
    calls = []
    with mp.workdps(50):
        root = mp.mpf(1) / 20

        def f(x):
            grown = mp.exp(200 * (x - root))
            return grown - 1, 200 * grown

        got = _newton_from_the_secant(f, mp.mpf(0), mp.mpf(1), mp.mpf("1e-40"), calls)
        assert abs(got - root) <= mp.mpf("1e-40")
    assert len(calls) <= 30


@pytest.mark.parametrize("steepness, max_reads", [(10, 10), (100, 13), (1000, 16)])
def test_newton_root_closes_on_a_tanh_step(steepness, max_reads):
    # tanh(K (x - 3/10)) on [0, 1]: far from the root f' is about
    # 4K exp(-2K|x - 3/10|), so a Newton step overshoots the bracket and
    # the midpoint is read instead, until the root is within about 1/K,
    # some log2(K) reads, and Newton closes it in about six more
    calls = []
    with mp.workdps(50):
        root = mp.mpf(3) / 10

        def f(x):
            arg = steepness * (x - root)
            return mp.tanh(arg), steepness / mp.cosh(arg) ** 2

        got = _newton_from_the_secant(f, mp.mpf(0), mp.mpf(1), mp.mpf("1e-45"), calls)
        assert abs(got - root) <= mp.mpf("1e-45")
        assert all(0 < x < 1 for x in calls)
    assert len(calls) <= max_reads


def test_newton_root_stops_at_the_rounding_noise_of_f():
    # tanh(10 (x - 3/10)) rounded down to a multiple of q = 1e-40 and
    # raised by q/2, so |f| >= q/2 everywhere: like an ill-conditioned D,
    # f resolves its root only to about q/20, far above tol.  The steps
    # shrink quadratically down to that level and then stop shrinking,
    # and the root is returned from there instead of the far end of the
    # bracket being bisected back in
    calls = []
    with mp.workdps(50):
        root, q = mp.mpf(3) / 10, mp.mpf("1e-40")

        def f(x):
            arg = 10 * (x - root)
            return q * mp.floor(mp.tanh(arg) / q) + q / 2, 10 / mp.cosh(arg) ** 2

        got = _newton_from_the_secant(f, mp.mpf(0), mp.mpf(1), mp.mpf("1e-45"), calls)
        assert abs(got - root) <= q
    assert len(calls) <= 10


def test_newton_root_raises_when_the_bracket_cannot_close():
    # tol 1e-60 lies below what 30 digits resolve near 1/3, and the secant
    # point is already as close as they resolve, so no two Newton steps in
    # a row shrink: the refinement says so instead of returning
    with mp.workdps(80):
        root = mp.mpf(1) / 3
    calls = []
    with mp.workdps(30):
        with pytest.raises(DivergenceError, match="did not close"):
            _newton_from_the_secant(lambda x: (x - root, 1), mp.mpf(0), mp.mpf("0.5"), mp.mpf("1e-60"), calls)
    assert len(calls) == quantize._ROOT_STEPS


@pytest.mark.parametrize("n_exponent, radius, n_levels", [(3, 8, 5), (3, 8, 1), (4, 6, 4), (4, 6, 1)])
def test_spectrum_builds_its_probes_once(n_exponent, radius, n_levels, ctx40, monkeypatch):
    # the grid and every level read one probe at r and one at 0.9r, built
    # once before the scan, so their number does not grow with n_levels
    built = []
    probe_polys = quantize._probe_polys

    def counted(pair, trunc, ctx, scale):
        built.append(trunc.radius)
        return probe_polys(pair, trunc, ctx, scale)

    monkeypatch.setattr(quantize, "_probe_polys", counted)
    trunc = TruncationParams(100, Fraction(radius))
    spectrum(pt_pairs(n_exponent)[0], n_levels, trunc, ctx40)
    assert built == [trunc.radius, trunc.radius * Fraction(9, 10)]


@pytest.mark.parametrize("n_exponent, pair_index, radius", [(3, 0, 8), (7, 1, 3), (4, 0, 6)])
def test_the_probe_scale_moves_no_level(n_exponent, pair_index, radius, ctx40, request):
    # spectrum reads its levels from probes at the energy scale of e_max:
    # 2**7 at the default 100 and 2**10 at 1000.  E, c and est_error agree
    # far below what is printed
    pair = pt_pairs(n_exponent)[pair_index]
    trunc = TruncationParams(100, Fraction(radius))
    near = request.getfixturevalue("levels3") if n_exponent == 3 else spectrum(pair, 4, trunc, ctx40)
    far = spectrum(pair, len(near), trunc, ctx40, e_max=Fraction(1000))
    with ctx40.workdps():
        for level, other in zip(near, far, strict=True):
            assert (other.n, other.parity) == (level.n, level.parity)
            assert abs(other.E - level.E) <= mp.mpf("1e-43")
            if level.c is not None:
                assert abs(other.c - level.c) <= mp.mpf("1e-40")
            est = level.est_error
            assert abs(other.est_error - est) <= mp.mpf("1e-3") * est


@pytest.mark.parametrize("n_exponent, pair_index, radius, n_levels",
                         [(3, 0, 8, 5), (7, 1, 3, 4), (7, 2, 3, 4), (4, 0, 6, 4), (2, 1, 8, 5)])
def test_est_error_is_the_root_shift_to_a_newton_step(n_exponent, pair_index, radius, n_levels, ctx40):
    # est_error, one Newton step of the 0.9r reader from the level's root,
    # against the shift to that reader's own root in the level's grid cell
    pair = pt_pairs(n_exponent)[pair_index]
    trunc = TruncationParams(100, Fraction(radius))
    levels = spectrum(pair, n_levels, trunc, ctx40)
    _, inner = quantize._probes(pair, trunc, ctx40, series._scale(quantize.DEFAULT_ENERGY_CAP))
    with ctx40.workdps():
        for level in levels:
            lo = mp.floor(20 * level.E) / 20
            hi = lo + mp.mpf(1) / 20

            def f(ev):
                return quantize._reader(pair.parity_swapped(), inner, ev)

            root = _newton_from_the_secant(f, lo, hi, ctx40.tolerance(5), [])
            shift = abs(level.E - root)
            assert abs(level.est_error - shift) <= mp.mpf("1e-3") * shift, level.n


@pytest.mark.parametrize("n_exponent, pair_index, radius, pmax, n_levels, e_max",
                         [(3, 0, 8, 100, 5, 100), (16, 8, 2, 200, 3, 300),
                          (12, 6, Fraction(5, 2), 200, 3, 300)])
def test_a_level_takes_few_reads_of_the_determinant(
    n_exponent, pair_index, radius, pmax, n_levels, e_max, ctx40, monkeypatch
):
    # Newton from the secant point of a grid cell of 1/20 closes a level in
    # five reads of D at r, and est_error takes one more at 0.9r: at most
    # six reads a level, where the secant and bisection steps took eight
    # or nine.  Level 2 of N=12 reaches the rounding noise of D above tol
    # and stops there, instead of bisecting the cell back in
    reads = []
    reader = quantize._reader

    def counted(*args):
        reads.append(args[2])
        return reader(*args)

    monkeypatch.setattr(quantize, "_reader", counted)
    trunc = TruncationParams(pmax, Fraction(radius))
    levels = spectrum(pt_pairs(n_exponent)[pair_index], n_levels, trunc, ctx40, e_max=e_max)
    assert len(levels) == n_levels
    assert len(reads) <= 6 * n_levels


def test_est_error_is_inf_when_the_newton_step_leaves_the_bracket(ctx40):
    # N=10 pair 5 at r=3 and pmax 100 cannot hold level 2 (E = 60.05): the
    # 0.9r reader keeps its sign across the level's cell, and the Newton
    # step from the level moves by about 16
    levels = spectrum(pt_pairs(10)[5], 3, TruncationParams(100, Fraction(3)), ctx40, e_max=300)
    assert levels[2].est_error == mp.inf
    assert not levels[2].stable
    assert all(mp.isfinite(lv.est_error) for lv in levels[:2])


@pytest.mark.parametrize(
    "n_exponent, pair_index, radius, n_levels, parity, planted",
    [(3, 0, 8, 5, "both", False), (7, 2, 3, 4, "both", False), (4, 0, 6, 3, "both", False),
     (4, 0, 6, 3, "even", False), (4, 0, 6, 3, "odd", False), (2, 1, 8, 5, "both", False),
     (3, 0, 8, 1, "both", True)],
)
def test_spectrum_hands_the_refinement_a_certified_bracket(
    n_exponent, pair_index, radius, n_levels, parity, planted, ctx40, monkeypatch
):
    # _newton_root trusts its caller: every cell spectrum passes runs lo <
    # hi between grid values that are nonzero and of opposite signs, also
    # across the planted exact zero that the scan steps over, with the
    # grid's sign at lo and a start strictly inside
    if planted:
        _plant_a_grid_zero(monkeypatch)
    calls = []
    newton_root = quantize._newton_root

    def recorded(f, lo, hi, x, negative, tol):
        calls.append((lo, hi, x, negative))
        return newton_root(f, lo, hi, x, negative, tol)

    monkeypatch.setattr(quantize, "_newton_root", recorded)
    pair = pt_pairs(n_exponent)[pair_index]
    trunc = TruncationParams(100, Fraction(radius))
    levels = spectrum(pair, n_levels, trunc, ctx40, parity=parity)
    assert len(calls) == len(levels) == n_levels
    polys = quantize._probe_polys(pair, trunc, ctx40, series._scale(quantize.DEFAULT_ENERGY_CAP))
    at = series.grid_evaluator(polys, 20)
    with ctx40.workdps():
        for lo, hi, x, negative in calls:
            assert lo < x < hi
            f_lo, f_hi = (quantize._determinant(pair.parity_swapped(), *at(int(mp.nint(20 * e))))
                          for e in (lo, hi))
            assert f_lo != 0 and f_hi != 0
            assert (f_lo < 0) == negative == (f_hi > 0)


def test_spectrum_rejects_the_other_parity_pair(trunc8, ctx40):
    # pair 0 of N=2 is parity-swapped but not the p-symmetric pair 1
    with pytest.raises(ParameterError, match="no quantization method applies.*--pair 1"):
        spectrum(pt_pairs(2)[0], 1, trunc8, ctx40)


@pytest.mark.parametrize("n_exponent, radius", [(2, 8), (4, 6)])
def test_spectrum_on_the_parity_pair_is_the_lookup_by_n(n_exponent, radius, ctx40):
    # the pair looked up by N and its p_symmetric flag: "both" keeps the
    # first even and the first odd level, each read as under its filter
    trunc = TruncationParams(100, Fraction(radius))
    pair = p_symmetric_pair(n_exponent)
    found = {parity: spectrum(pair, 2, trunc, ctx40, parity=parity) for parity in ("even", "odd", "both")}
    for parity, levels in found.items():
        assert all(lv.c is None and lv.pair == pair for lv in levels)
        if parity != "both":
            assert {lv.parity for lv in levels} == {parity}
    assert [(lv.E, lv.est_error, lv.parity) for lv in found["both"]] == [
        (lv.E, lv.est_error, lv.parity) for lv in (found["even"][0], found["odd"][0])
    ]


def test_spectrum_rejects_a_bad_parity_on_a_pt_pair(pair3, trunc8, ctx40):
    for bad in ("all", "Both", None):
        with pytest.raises(ParameterError, match="parity must be"):
            spectrum(pair3, 1, trunc8, ctx40, parity=bad)


def test_spectrum_needs_room_below_emax(pair3, trunc8, ctx40):
    with pytest.raises(TruncationError):
        spectrum(pair3, 4, trunc8, ctx40, e_max=Fraction(5))


def test_parity_n2_analytic(trunc8, ctx40):
    with ctx40.workdps():
        even = spectrum(p_symmetric_pair(2), 3, trunc8, ctx40, parity="even")
        odd = spectrum(p_symmetric_pair(2), 3, trunc8, ctx40, parity="odd")
        for lv, want in zip(even, (1, 5, 9)):
            assert abs(lv.E - want) < mp.mpf("1e-15")
            assert lv.parity == "even" and lv.c is None
        for lv, want in zip(odd, (3, 7, 11)):
            assert abs(lv.E - want) < mp.mpf("1e-15")
            assert lv.parity == "odd"


def test_parity_n4_regression_and_oracle(ctx40):
    trunc = TruncationParams(100, Fraction(6))
    with ctx40.workdps():
        even = spectrum(p_symmetric_pair(4), 2, trunc, ctx40, parity="even")
        odd = spectrum(p_symmetric_pair(4), 2, trunc, ctx40, parity="odd")
        for lv, ref in zip(even, N4_EVEN):
            assert abs(lv.E - mp.mpf(ref)) < mp.mpf("1e-25")
        for lv, ref in zip(odd, N4_ODD):
            assert abs(lv.E - mp.mpf(ref)) < mp.mpf("1e-25")
        # independent check: these are minus the quartic-oscillator levels
        eps0 = oracles.parity_shoot_eigenvalue(4, "even", (0.9, 1.2))
        eps1 = oracles.parity_shoot_eigenvalue(4, "odd", (3.5, 4.1))
        assert abs(float(-even[0].E) - eps0) < 1e-10
        assert abs(float(-odd[0].E) - eps1) < 1e-10


def test_parity_both_interleaves(trunc8, ctx40):
    # the oscillator levels 1,3,5,7,9 alternate even/odd, renumbered 0..4
    with ctx40.workdps():
        both = spectrum(p_symmetric_pair(2), 5, trunc8, ctx40)
        assert [lv.n for lv in both] == [0, 1, 2, 3, 4]
        assert [lv.parity for lv in both] == ["even", "odd", "even", "odd", "even"]
        for lv, want in zip(both, (1, 3, 5, 7, 9)):
            assert abs(lv.E - want) < mp.mpf("1e-15")
    for bad in ("all", "Both", None):
        with pytest.raises(ParameterError):
            spectrum(p_symmetric_pair(2), 2, trunc8, ctx40, parity=bad)


def test_level_weights(levels3, trunc8, ctx40):
    with ctx40.workdps():
        alpha, beta = level_weights(levels3[0])
        assert alpha == 1 and abs(beta - levels3[0].c) == 0
        even = spectrum(p_symmetric_pair(2), 1, trunc8, ctx40, parity="even")[0]
        odd = spectrum(p_symmetric_pair(2), 1, trunc8, ctx40, parity="odd")[0]
        assert level_weights(even) == (1, 0)
        assert level_weights(odd) == (0, 1)


def test_health_pass_and_fail_cases(trunc8, ctx40):
    def verdicts(n_exponent, trunc):
        return [health_check(pair, trunc, ctx40).passed for pair in pt_pairs(n_exponent)]

    assert verdicts(3, trunc8) == [True]
    assert verdicts(7, trunc8) == [False] * 3
    assert verdicts(7, TruncationParams(100, Fraction(3))) == [True] * 3
    assert verdicts(3, TruncationParams(10)) == [False]


def test_health_report_structure(trunc8, ctx40):
    (pair,) = pt_pairs(3)
    report = health_check(pair, trunc8, ctx40)
    assert report.pair == pair and report.pair.index == 0
    assert report.passed
    with PrecisionContext(40).workdps():
        assert report.tail < mp.mpf("1e-10")
        assert report.c_discrepancy < mp.mpf("1e-10")


# health_check(7, r = 3) at E = 30, (tail, c_discrepancy) per pair to 10
# digits, as the code with a second probe at 97/96 of the energy gave it
HEALTH_N7_R3_E30 = [("1.374069444e-70", "1.568579152e-18"), ("6.710837118e-69", "3.472773045e-15"),
                    ("4.577008141e-72", "2.027126088e-21")]


@pytest.mark.parametrize("pole_at_30", [False, True])
def test_health_check_reads_one_energy(pole_at_30, ctx40, monkeypatch):
    # with a pole of c planted at E = 30 the tail stands, and the pair fails
    # on an infinite c discrepancy: there is no second probe
    if pole_at_30:
        c_from_polys = quantize._c_from_polys

        def planted(poly_a, poly_b, E, ctx):
            if E == 30:
                raise PoleError("planted pole")
            return c_from_polys(poly_a, poly_b, E, ctx)

        monkeypatch.setattr(quantize, "_c_from_polys", planted)
    trunc = TruncationParams(100, Fraction(3))
    for pair, (tail, c_disc) in zip(pt_pairs(7), HEALTH_N7_R3_E30, strict=True):
        report = health_check(pair, trunc, ctx40)
        assert report.passed is not pole_at_30
        with ctx40.workdps():
            assert abs(report.tail - mp.mpf(tail)) <= mp.mpf("1e-9") * mp.mpf(tail)
            if pole_at_30:
                assert report.c_discrepancy == mp.inf
            else:
                assert abs(report.c_discrepancy - mp.mpf(c_disc)) <= mp.mpf("1e-9") * mp.mpf(c_disc)


def test_energy_scale_keeps_the_refusals_beyond_the_radius_scale(ctx40, monkeypatch):
    # r = 3/4 and pmax 40 keep the energy polynomials at scale 1, below any
    # e_max asked here, so they are never rescaled, and every point beyond
    # E = 1 is refused: the scan of spectrum (e_max = 20) reads the grid up
    # to E = 1 and refuses 21/20 at the working precision, the health check
    # of `spectrum --N 3 --radius 3/4 --pmax 40 --force --levels 1 --emax
    # 20` cannot evaluate its psi1 at E = 30 and fails the pair instead of
    # raising, and at 53 bits the grid refuses 21/20 as well
    asked = []
    grid_evaluator = series.grid_evaluator

    def recording(polys, den):
        at = grid_evaluator(polys, den)

        def recorded(t):
            asked.append(Fraction(t, den))
            return at(t)

        return recorded

    monkeypatch.setattr(series, "grid_evaluator", recording)
    pair, trunc = pt_pairs(3)[0], TruncationParams(40, Fraction(3, 4))
    with pytest.raises(RadiusError):
        spectrum(pair, 1, trunc, ctx40, e_max=Fraction(20))
    assert asked[-2:] == [1, Fraction(21, 20)]
    report = health_check(pair, trunc, ctx40)
    assert not report.passed and report.tail == mp.inf
    at = recording(quantize._probe_polys(pair, trunc, ctx40, series._scale(20)), 20)
    at(20)
    with pytest.raises(RadiusError):
        at(21)


def test_parity_image_pairs_isospectral(ctx40):
    # the two non-parity N=4 pairs map onto each other under z -> -z,
    # so their spectra coincide
    trunc = TruncationParams(100, Fraction(6))
    pairs = pt_pairs(4)
    with ctx40.workdps():
        up = spectrum(pairs[1], 2, trunc, ctx40)
        down = spectrum(pairs[2], 2, trunc, ctx40)
        for a, b in zip(up, down):
            assert abs(a.E - b.E) < mp.mpf("1e-30")
            assert a.E > 0
