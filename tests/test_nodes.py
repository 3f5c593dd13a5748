"""Eigenfunction zeros: counts, values, classification, turning points."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import oracles
from ptspec import (
    EnergyLevel,
    ParameterError,
    PrecisionContext,
    RadiusError,
    TruncationParams,
    WindingError,
    build_contour,
    build_tables,
    expectation,
    find_nodes,
    level_weights,
    newton_zero,
    nodes,
    pt_pairs,
    reduce_angle,
    series,
    spectrum,
    turning_points,
    wavefunction_samples,
)
from ptspec.cli import main
from ptspec.series import poly_psi, space_polynomial

# regression anchors, frozen from a digits=50 run
ARCH_N1 = "-0.661296226442715413308895259088443004757024592"
ARCH_N2_RE = "0.554088629563594524296290618506385067875022982"
ARCH_N2_IM = "-0.834567778226259643386163127106833470710267235"
ARCH_N3_RE = "0.92321922581058898863126556694723471587141065"
ARCH_N3_IM = "-0.97965816321587541884516010882814525945989987"
ARCH_N3_MID_IM = "-0.934375275935253155505143797470643936361188862"
AXIS_N1 = "2.64556138807199255333101453216549865168221478"


def test_arch_counts_match_level_index(nodesets3):
    for n in range(4):
        assert len(nodesets3[n].arch_nodes) == n
        assert nodesets3[n].axis_nodes == ()  # default box sits below the axis
        assert nodesets3[n].count() == n


def test_single_arch_node_value(nodesets3, ctx40):
    with ctx40.workdps():
        (z,) = nodesets3[1].arch_nodes
        assert abs(z.real) == 0
        assert abs(z.imag - mp.mpf(ARCH_N1)) < mp.mpf("1e-36")


def test_arch_nodes_pt_symmetric(nodesets3, ctx40):
    # eigenfunctions with real c are PT self conjugate, so the node set
    # is closed under z -> -conj(z)
    with ctx40.workdps():
        for n in range(4):
            nodes = nodesets3[n].arch_nodes
            for z in nodes:
                assert any(abs(-mp.conj(z) - w) < mp.mpf("1e-30") for w in nodes)


def test_arch_values_n2_n3(nodesets3, ctx40):
    with ctx40.workdps():
        lo, hi = sorted(nodesets3[2].arch_nodes, key=lambda z: z.real)
        assert abs(hi - mp.mpc(ARCH_N2_RE, ARCH_N2_IM)) < mp.mpf("1e-34")
        assert abs(lo - (-mp.conj(hi))) < mp.mpf("1e-30")
        outer_l, mid, outer_r = sorted(nodesets3[3].arch_nodes, key=lambda z: z.real)
        assert abs(outer_r - mp.mpc(ARCH_N3_RE, ARCH_N3_IM)) < mp.mpf("1e-34")
        assert abs(mid - mp.mpc(0, ARCH_N3_MID_IM)) < mp.mpf("1e-34")
        assert abs(outer_l - (-mp.conj(outer_r))) < mp.mpf("1e-30")


def test_nodes_sorted_by_im_then_re(nodesets3):
    for n in range(4):
        keys = [(z.imag, z.real) for z in nodesets3[n].arch_nodes]
        assert keys == sorted(keys)


def test_nodes_are_zeros(table3, levels3, nodesets3, trunc8, ctx40):
    with ctx40.workdps():
        for n in range(4):
            alpha, beta = level_weights(levels3[n])
            poly = space_polynomial(table3, levels3[n].E, alpha, beta, ctx40, trunc8.radius)
            for z in nodesets3[n].arch_nodes:
                assert abs(poly_psi(poly, z)) < mp.mpf("1e-35")


def test_axis_string_above_turning_point(levels3, ctx40):
    region = (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(3))
    found = find_nodes(levels3[1], region=region)
    assert found.arch_nodes == ()
    with ctx40.workdps():
        (z,) = found.axis_nodes
        assert abs(z.real) == 0
        assert abs(z.imag - mp.mpf(AXIS_N1)) < mp.mpf("1e-34")
        # the string lives above the classical turning point E^(1/3)
        assert z.imag > mp.mpf(levels3[1].E) ** (mp.mpf(1) / 3)


def test_turning_points_in_wedges(levels3, ctx40):
    with ctx40.workdps():
        for n in range(4):
            pts = turning_points(levels3[n])
            assert len(pts) == 2  # the +i E^{1/3} point lies outside the pair
            rho = mp.mpf(levels3[n].E) ** (mp.mpf(1) / 3)
            left, right = pts
            want_r = rho * mp.exp(mp.mpc(0, -mp.pi) / 6)
            assert abs(right - want_r) < mp.mpf("1e-35")
            assert abs(left - (-mp.conj(want_r))) < mp.mpf("1e-35")
            for z in pts:
                assert abs((mp.mpc(0, 1) * z) ** 3 + levels3[n].E) < mp.mpf("1e-33")


def test_turning_points_of_every_pair(ctx40):
    # planted levels at E = 7/2 (-7/2 on the imaginary-axis parity pair,
    # whose bound spectrum is negative): one turning point in each wedge,
    # each solving (iz)**N = -E, and exact zeros on an axis
    for n_exponent in range(2, 9):
        for pair in pt_pairs(n_exponent):
            e_val = Fraction(-7, 2) if pair.theta_right == Fraction(1, 2) else Fraction(7, 2)
            with ctx40.workdps():
                level = EnergyLevel(0, ctx40.mpf(e_val), None, pair,
                                    TruncationParams(100, Fraction(8)), ctx40, mp.mpf(0), True)
                points = turning_points(level)
                assert len(points) == 2, (n_exponent, pair.index)
                for z in points:
                    residual = abs((mp.mpc(0, 1) * z) ** n_exponent + level.E)
                    assert residual <= mp.mpf(10) ** (1 - ctx40.dps) * abs(level.E)
                    angle = Fraction(float(mp.arg(z) / mp.pi)).limit_denominator(4 * n_exponent)
                    angle = reduce_angle(angle)
                    assert pair.contains_angle(angle), (n_exponent, pair.index, angle)
                    if angle in (0, 1):
                        assert z.imag == 0, (n_exponent, pair.index, angle)
                    if abs(angle) == Fraction(1, 2):
                        assert z.real == 0, (n_exponent, pair.index, angle)


def test_newton_polish_from_nearby_seed(levels3, ctx40):
    with ctx40.workdps():
        z = newton_zero(levels3[1], mp.mpc("0.05", "-0.6"), ctx40.tolerance())
        assert abs(z - mp.mpc(0, mp.mpf(ARCH_N1))) < mp.mpf("1e-35")


def test_newton_rejects_outside_disk(levels3, ctx40):
    with pytest.raises(RadiusError):
        newton_zero(levels3[1], mp.mpc(9, -3), ctx40.tolerance())
    # the zero at -0.661i lies below the given region
    region = (-1, 1, Fraction(-1, 2), 0)
    with pytest.raises(RadiusError, match="left the region"):
        newton_zero(levels3[1], mp.mpc("0.05", "-0.45"), ctx40.tolerance(), region)


def test_newton_rejects_bad_tol(levels3):
    with pytest.raises(ParameterError):
        newton_zero(levels3[1], mp.mpc(0, -1), 0)


def test_find_nodes_validation(levels3):
    with pytest.raises(ParameterError):
        find_nodes(levels3[0], region=(1, 1, 0, 1))
    with pytest.raises(RadiusError):
        # the corner (6, -6) lies at |z| = 8.49 > 8
        find_nodes(levels3[0], region=(-6, 6, -6, 0))


def test_region_errors_print_the_region_as_fractions(levels3):
    with pytest.raises(ParameterError, match=r"^degenerate region 5/2,5/2,0,1$"):
        find_nodes(levels3[0], region=(Fraction(5, 2), Fraction(5, 2), 0, 1))
    # the corner (13/2, -6) lies at |z| = 8.85 > 8
    with pytest.raises(RadiusError, match=r"^region -13/2,13/2,-6,0 leaves the validated disk"):
        find_nodes(levels3[0], region=(Fraction(-13, 2), Fraction(13, 2), -6, 0))


def _level_at_radius_3():
    """Level 1 of N=7, pair 1, refined at r = 3 (pmax 50, 20 digits)."""
    return spectrum(pt_pairs(7)[1], 2, TruncationParams(50, Fraction(3)), PrecisionContext(20))[1]


def test_find_nodes_defaults_to_the_levels_truncation():
    # the validated disk is the level's own, r = 3 here, not radius 8: the
    # corner (2.9, -1.5) at |z| = 3.26 is refused rather than the series
    # being evaluated beyond the radius it was refined at
    region = (Fraction(5, 2), Fraction(29, 10), Fraction(-3, 2), Fraction(-1, 2))
    with pytest.raises(RadiusError, match=r"\|z\| <= 3$"):
        find_nodes(_level_at_radius_3(), region=region)


def test_explicit_trunc_stays_in_the_levels_disk():
    # nodes, moments and samples of a level refined at r = 3 stay in that
    # disk, though each request lies inside the default radius 8
    level = _level_at_radius_3()
    region = (Fraction(5, 2), Fraction(29, 10), Fraction(-3, 2), Fraction(-1, 2))
    with pytest.raises(RadiusError):
        find_nodes(level, region=region)
    with pytest.raises(RadiusError, match="validated radius 3$"):
        expectation(level, 0, build_contour(level.pair, 4, "wedge_rays"))
    with pytest.raises(RadiusError, match=r"\|z\| <= 3$"):
        wavefunction_samples(level, -4, 4, Fraction(1, 2))


def test_every_stage_reads_the_table_of_the_levels_truncation(monkeypatch):
    # after quantization the level is the only handle: the energy and space
    # collapses under spectrum, nodes, moments and samples all read the
    # table of the level's N and pmax
    tables = []

    def recording(stage):
        def recorded(table, *args):
            tables.append((stage.__name__, table, args))
            return stage(table, *args)

        return recorded

    for name in ("energy_polynomials", "space_polynomial"):
        monkeypatch.setattr(series, name, recording(getattr(series, name)))
    pair = pt_pairs(3)[0]
    level = spectrum(pair, 2, TruncationParams(40, Fraction(8)), PrecisionContext(20))[1]
    find_nodes(level)
    expectation(level, 2, build_contour(level.pair, 4, "real_line"))
    wavefunction_samples(level, -1, 1, Fraction(1, 2))
    assert {name for name, _, _ in tables} == {"energy_polynomials", "space_polynomial"}
    assert all(table is build_tables(3, 40) for _, table, _ in tables)
    # the energy side probes the right wedge centre at r and at 0.9r
    probes = {args[:2] for name, _, args in tables if name == "energy_polynomials"}
    assert probes == {(Fraction(8), pair.theta_right), (Fraction(36, 5), pair.theta_right)}


def test_default_box_finds_zeros_near_its_edge():
    # the two lowest zeros of N=7, pair 1, level 3 lie 0.007 inside the
    # bottom edge of the default box (im = -1.80); pmax 50 places them to
    # 1e-20 at r = 3, as pmax 100 does, in half the time
    ctx = PrecisionContext(20)
    level = spectrum(pt_pairs(7)[1], 4, TruncationParams(50, Fraction(3)), ctx)[3]
    found = find_nodes(level)
    assert found.count() == 5 and found.axis_nodes == ()
    with ctx.workdps():
        for re in ("0.73929744566515791549", "-0.73929744566515791549"):
            want = mp.mpc(re, "-1.79287863991946795065")
            assert any(abs(z - want) < mp.mpf("1e-18") for z in found.arch_nodes)


def test_parity_pair_default_box_holds_the_real_zeros():
    # on the p-symmetric pair the default box is the square around z = 0:
    # odd levels vanish there and the N=2 zeros are real, where the arch
    # box has its top edge; levels 1-3 of the oscillator give the Hermite
    # zeros, to the accuracy of the level (E off by about 1e-22 at r = 8)
    ctx = PrecisionContext(20)
    levels = spectrum(pt_pairs(2)[1], 4, TruncationParams(100, Fraction(8)), ctx)
    hermite = {1: ["0"], 2: ["-0.5", "0.5"], 3: ["-1.5", "0", "1.5"]}  # squares, signed
    for n, squares in hermite.items():
        found = find_nodes(levels[n])
        assert found.axis_nodes == () and len(found.arch_nodes) == n
        with ctx.workdps():
            for z, sq in zip(found.arch_nodes, squares):
                want = mp.sign(mp.mpf(sq)) * mp.sqrt(abs(mp.mpf(sq)))
                assert abs(z - want) < mp.mpf("1e-18"), (n, z)
    level = spectrum(pt_pairs(4)[0], 2, TruncationParams(100, Fraction(6)), ctx)[1]
    assert level.parity == "odd" and find_nodes(level).arch_nodes == (0,)


def _planted(zeros, ctx):
    """prod (z - z_j) as a space polynomial in w = iz, at scale 2 (the
    regions below lie in |z| <= sqrt(2))."""
    with ctx.workdps():
        coeffs = [mp.mpc(1)]
        for z in zeros:
            # (z - z_j) = -i*(w - i*z_j)
            root = mp.mpc(0, 1) * mp.mpc(z)
            shifted = [mp.mpc(0)] + coeffs
            coeffs = [-mp.mpc(0, 1) * (s - root * c) for s, c in zip(shifted, coeffs + [0])]
        return oracles.fixed_point(coeffs, 1, mp.mp.prec)


def test_winding_isolates_planted_zeros(monkeypatch, levels3, ctx40):
    # two zeros 0.01 apart inside one 0.05 cell, and one 0.005 inside
    # the bottom edge of the region
    with ctx40.workdps():
        zeros = [mp.mpc("0.312", "0.215"), mp.mpc("0.322", "0.215"), mp.mpc("-0.4", "-0.995")]
        poly = _planted(zeros, ctx40)
        for z in zeros:
            assert abs(poly_psi(poly, z)) < mp.mpf("1e-45")
    monkeypatch.setattr(nodes, "_level_poly", lambda level, ctx: poly)
    found = find_nodes(levels3[0], region=(-1, 1, -1, 1))
    assert found.count() == 3
    with ctx40.workdps():
        for z in zeros:
            assert any(abs(z - w) < mp.mpf("1e-38") for w in found.arch_nodes)

    # a zero exactly on the bottom edge
    on_edge = _planted(zeros[:2] + [mp.mpc("-0.4", "-1")], ctx40)
    monkeypatch.setattr(nodes, "_level_poly", lambda level, ctx: on_edge)
    with pytest.raises(WindingError):
        find_nodes(levels3[0], region=(-1, 1, -1, 1))


def test_mirror_pair_order_ignores_rounding_noise(monkeypatch, levels3, ctx40):
    # the two members of a PT mirror pair share im up to rounding noise;
    # they come out ordered by re whichever member the noise puts lower
    for noise in ("1e-50", "-1e-50"):
        with ctx40.workdps():
            shift = mp.mpc(0, noise)
            poly = _planted([mp.mpc("0.5", "-0.4") + shift, mp.mpc("-0.5", "-0.4") - shift], ctx40)
        monkeypatch.setattr(nodes, "_level_poly", lambda level, ctx: poly)
        found = find_nodes(levels3[0], region=(-1, 1, -1, 1))
        assert [mp.sign(z.real) for z in found.arch_nodes] == [-1, 1], noise
        with ctx40.workdps():
            assert found.arch_nodes[0].imag != found.arch_nodes[1].imag


@pytest.mark.parametrize("n, cap", [(2, 320), (7, 1200)])
def test_box_splits_reuse_edge_samples(monkeypatch, trunc8, ctx40, n, cap):
    # every point is evaluated once, and a split samples only its two cross
    # lines and its cut points, since the quarters' outer edges are slices
    # of the parent's edges; sampling each quarter's outer half-edges afresh
    # costs 902 and 3,440 evaluations
    level = spectrum(pt_pairs(3)[0], n + 1, trunc8, ctx40)[n]
    points = []

    def counted(poly, z):
        points.append((z.real, z.imag))
        return poly_psi(poly, z)

    monkeypatch.setattr(nodes.series, "poly_psi", counted)
    found = find_nodes(level)
    assert found.count() == n
    assert len(points) <= cap
    assert len(set(points)) == len(points)


def test_planted_zeros_at_the_cut(monkeypatch, levels3, ctx40):
    # region (-1, 1, -1, 1) is first split at x = y = 2/37; a second zero
    # in another quarter makes the root box split
    def nodes_of(zero):
        zeros = [zero, mp.mpc("-0.5", "-0.5")]
        poly = _planted(zeros, ctx40)
        monkeypatch.setattr(nodes, "_level_poly", lambda level, ctx: poly)
        found = find_nodes(levels3[0], region=(-1, 1, -1, 1))
        assert found.count() == 2
        for z in zeros:
            assert any(abs(z - w) < mp.mpf("1e-38") for w in found.arch_nodes + found.axis_nodes)

    with ctx40.workdps():
        cut = mp.mpf(2) / 37
        on_line, beside_line = mp.mpc(cut, "0.5"), mp.mpc(cut + mp.mpf("1e-6"), "0.5")
        # 1e-4 from the bottom edge and from the cross line, beside the bottom cut point
        near_cut_point = mp.mpc(cut + mp.mpf("1e-4"), "-0.9999")
    with pytest.raises(WindingError):
        nodes_of(on_line)
    nodes_of(beside_line)
    nodes_of(near_cut_point)


def test_split_rechecks_the_steps_beside_a_cut(ctx40):
    # a zero just below the bottom edge and one just above it, point-symmetric
    # about the middle of the sampled step [0, 1/16] that the cut x = 2/37
    # falls in: the step turns by about 0, each of its two pieces by 0.6 rad,
    # so joining the cut point must bisect them
    with ctx40.workdps():
        zeros = [mp.mpc("0.01125", "-1.005"), mp.mpc("0.05125", "-0.995"), mp.mpc("-0.5", "0.5")]
        poly = _planted(zeros, ctx40)
        boundary, split, winding = nodes._winding_counter(poly, ctx40)
        edges = boundary((Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)))
        assert Fraction(1, 16) in [x for x, _ in edges[0]]
        assert winding(edges) == 2
        quarters = split(edges)
        assert [winding(e) for _, e in quarters] == [1, 1, 0, 0]
        for _, quarter_edges in quarters:
            for path in quarter_edges:
                values = [poly_psi(poly, mp.mpc(*map(ctx40.mpf, pt))) for pt in path]
                turns = [abs(mp.arg(b / a)) for a, b in zip(values, values[1:])]
                assert max(turns) <= nodes._MAX_PHASE_STEP


def _clidiff_commands():
    path = Path(__file__).resolve().parents[1] / "tools" / "clidiff.py"
    spec = importlib.util.spec_from_file_location("clidiff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


def _reference_turns(poly, edges):
    """The winding of psi along edges in turns, from mp.arg of each step's
    quotient summed at the working precision."""
    def psi(pt):
        return poly_psi(poly, mp.mpc(*(mp.mpf(v.numerator) / v.denominator for v in pt)))

    signs = (1, 1, -1, -1)
    steps = [s * mp.arg(psi(b) / psi(a)) for s, e in zip(signs, edges) for a, b in zip(e, e[1:])]
    return mp.fsum(steps) / (2 * mp.pi)


def test_float_phases_count_like_mp_arg_on_every_clidiff_root_box(monkeypatch):
    # the root box of each nodes command of tools/clidiff.py: the count
    # from float phases is the mp.arg count on the same sample points (one
    # command's region leaves the validated disk and is refused first)
    class RootCounted(Exception):
        pass

    counted = []
    counter = nodes._winding_counter

    def root_only(poly, ctx):
        boundary, split, winding = counter(poly, ctx)

        def checked(edges):
            turns = _reference_turns(poly, edges)
            assert abs(turns - mp.nint(turns)) < mp.mpf("1e-20")
            counted.append((winding(edges), int(mp.nint(turns))))
            raise RootCounted

        return boundary, split, checked

    monkeypatch.setattr(nodes, "_winding_counter", root_only)
    commands = [c for c in _clidiff_commands() if c.startswith("nodes ")]
    assert len(commands) >= 10
    refused = 0
    for command in commands:
        try:
            refused += main(command.split()) == 1
        except RootCounted:
            pass
    assert len(counted) + refused == len(commands) and refused <= 1
    assert all(got == want for got, want in counted), counted
    assert sum(want for _, want in counted) > 0


def test_edge_zero_messages(ctx40):
    # psi exactly zero at a sample point, and a zero on an edge between
    # sample points, which bisection meets at its depth cap
    with ctx40.workdps():
        at_sample = oracles.fixed_point([mp.mpc(-1), mp.mpc(1)], 1, mp.mp.prec)  # w - 1: z = -i
        between = _planted([mp.mpc(1, 0) / 3 - mp.mpc(0, 1)], ctx40)
    for poly, message in (
        (at_sample, r"^psi vanishes on a box edge at -1j$"),
        (between, r"^a zero lies on a box edge near \(0\.333333333333\d*-1j\)$"),
    ):
        boundary, _, _ = nodes._winding_counter(poly, ctx40)
        with ctx40.workdps(), pytest.raises(WindingError, match=message):
            boundary((Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)))


def test_winding_of_psi_beyond_float_range(ctx40):
    # |psi| near 2**1200 > 1e308 on every edge: the phases come from the
    # mantissas, so the count is still the number of zeros in the box
    with ctx40.workdps():
        zeros = [mp.mpc("0.3", "0.2"), mp.mpc("-0.5", "-0.5"), mp.mpc("0.6", "-0.1")]
        small = _planted(zeros, ctx40)
        poly = series.ScaledPoly(small.re, small.im, small.frac - 1200, small.rho)
        assert abs(poly_psi(poly, mp.mpc(1, 1))) > mp.mpf("1e308")
        boundary, split, winding = nodes._winding_counter(poly, ctx40)
        edges = boundary((Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)))
        assert winding(edges) == 3
        assert [winding(e) for _, e in split(edges)] == [1, 0, 1, 1]
