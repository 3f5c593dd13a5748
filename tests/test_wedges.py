"""Wedge-pair geometry against a from-scratch enumeration."""

from fractions import Fraction

import mpmath as mp
import pytest

from ptspec import PrecisionContext, ground_angle, pt_pairs, pt_reflect, reduce_angle
from ptspec.wedges import angle_radians, polar_point

CTX = PrecisionContext(40)


def oracle_pairs(n_exponent):
    """Independent enumeration: the anti-Stokes lattice, its PT orbits
    minus the adjacent one, and the two self-reflected rays joined for
    even N.  Returns a set of frozensets of angles (units of pi)."""
    width = Fraction(2, n_exponent + 2)
    lattice = [
        reduce_angle(Fraction(-1, 2) + Fraction(2 * j, n_exponent + 2))
        for j in range(n_exponent + 2)
    ]
    fixed = sorted(f for f in lattice if pt_reflect(f) == f)
    orbits = set()
    for f in lattice:
        g = pt_reflect(f)
        if g == f:
            continue
        # angular separation on the circle, in units of pi
        gap = min(abs(reduce_angle(f - g)), 2 - abs(reduce_angle(f - g)))
        if gap == width:
            continue  # adjacent wedges share a boundary: no quantization
        orbits.add(frozenset((f, g)))
    if len(fixed) == 2:  # even N has both half-axis rays; join them
        orbits.add(frozenset(fixed))
    else:
        assert fixed == [Fraction(-1, 2)]  # odd N: lone fixed ray, no partner
    return orbits


@pytest.mark.parametrize("n_exponent", range(2, 13))
def test_enumeration_matches_oracle(n_exponent):
    pairs = pt_pairs(n_exponent)
    got = {frozenset((p.theta_right, p.theta_left)) for p in pairs}
    assert got == oracle_pairs(n_exponent)


@pytest.mark.parametrize("n_exponent", range(2, 14))
def test_pair_count(n_exponent):
    want = (n_exponent - 1) // 2 if n_exponent % 2 else (n_exponent + 2) // 2
    assert len(pt_pairs(n_exponent)) == want


def test_known_tables():
    def rows(n_exponent):
        return [
            (p.theta_right, p.theta_left, p.p_symmetric) for p in pt_pairs(n_exponent)
        ]

    f = Fraction
    assert rows(2) == [(f(1, 2), f(-1, 2), False), (f(0), f(1), True)]
    assert rows(3) == [(f(-1, 10), f(-9, 10), False)]
    assert rows(4) == [
        (f(1, 2), f(-1, 2), True),
        (f(1, 6), f(5, 6), False),
        (f(-1, 6), f(-5, 6), False),
    ]
    assert rows(7) == [
        (f(1, 6), f(5, 6), False),
        (f(-1, 18), f(-17, 18), False),
        (f(-5, 18), f(-13, 18), False),
    ]


def test_reduce_angle_range_and_idempotence():
    for num in range(-40, 41):
        f = Fraction(num, 7)
        r = reduce_angle(f)
        assert Fraction(-1) < r <= 1
        assert (f - r) % 2 == 0
        assert reduce_angle(r) == r


def test_pt_reflect_involution():
    for num in range(-30, 31):
        f = Fraction(num, 11)
        assert pt_reflect(pt_reflect(f)) == reduce_angle(f)
    # the two rays fixed under PT
    assert pt_reflect(Fraction(1, 2)) == Fraction(1, 2)
    assert pt_reflect(Fraction(-1, 2)) == Fraction(-1, 2)


def test_ground_angle_values():
    assert ground_angle(2) == 0
    assert ground_angle(3) == Fraction(-1, 10)
    assert ground_angle(4) == Fraction(-1, 6)
    assert ground_angle(7) == Fraction(-5, 18)


@pytest.mark.parametrize("n_exponent", range(2, 13))
def test_members_on_anti_stokes_lattice(n_exponent):
    # lattice form theta = -1/2 + 2j/(N+2) means (N+2)(theta+1/2)/2
    # must be an integer for every pair member
    for p in pt_pairs(n_exponent):
        for f in (p.theta_right, p.theta_left):
            x = Fraction(n_exponent + 2) * (f + Fraction(1, 2)) / 2
            assert x.denominator == 1


def test_half_width(table3):
    for n_exponent in (2, 3, 4, 7):
        for p in pt_pairs(n_exponent):
            assert p.half_width == Fraction(1, n_exponent + 2)


def test_ordering_and_index():
    for n_exponent in (2, 3, 4, 7, 10):
        pairs = pt_pairs(n_exponent)
        rights = [p.theta_right for p in pairs]
        assert rights == sorted(rights, reverse=True)
        assert [p.index for p in pairs] == list(range(len(pairs)))
        assert all(p.n_exponent == n_exponent for p in pairs)


def test_pt_closure_of_ordinary_pairs():
    for n_exponent in (3, 4, 5, 6, 7, 8):
        for p in pt_pairs(n_exponent):
            if p.theta_right == Fraction(1, 2):  # joined self-reflected rays
                assert p.theta_left == Fraction(-1, 2)
                continue
            assert p.theta_left == pt_reflect(p.theta_right)


def test_p_symmetric_flag_unique_for_even():
    # from the definition: the pair whose members are parity images, and of
    # two such pairs the one that PT also swaps
    for n_exponent in range(2, 41):
        pairs = pt_pairs(n_exponent)
        flagged = [p for p in pairs if p.p_symmetric]
        if n_exponent % 2:
            assert flagged == []
            continue
        candidates = [p for p in pairs if reduce_angle(p.theta_right + 1) == p.theta_left]
        if len(candidates) > 1:
            candidates = [p for p in candidates if pt_reflect(p.theta_right) == p.theta_left]
        assert flagged == candidates, n_exponent
        assert flagged[0].parity_swapped()


def test_parity_swapped():
    pairs = pt_pairs(2)
    assert pairs[0].parity_swapped() and pairs[1].parity_swapped()
    assert not pt_pairs(3)[0].parity_swapped()
    n4 = pt_pairs(4)
    assert n4[0].parity_swapped()
    assert not n4[1].parity_swapped() and not n4[2].parity_swapped()


def test_contains_angle():
    ground = pt_pairs(3)[0]  # wedges centred at -pi/10 and -9pi/10
    assert ground.contains_angle(Fraction(0))
    assert ground.contains_angle(Fraction(1))
    assert ground.contains_angle(Fraction(-99, 100))
    assert not ground.contains_angle(Fraction(1, 2))
    upper4 = pt_pairs(4)[1]  # centred at pi/6 and 5pi/6
    assert not upper4.contains_angle(Fraction(0))  # boundary is excluded


def test_polar_point_exact_axes():
    rho = Fraction(8)
    with CTX.workdps():
        up = polar_point(rho, Fraction(1, 2), CTX)
        assert up.real == 0 and up.imag == 8
        down = polar_point(rho, Fraction(-1, 2), CTX)
        assert down.real == 0 and down.imag == -8
        assert polar_point(rho, Fraction(0), CTX) == 8
        assert polar_point(rho, Fraction(1), CTX) == -8


def test_angle_radians_matches_pi_multiple():
    with CTX.workdps():
        for f in (Fraction(-9, 10), Fraction(1, 6), Fraction(5, 18)):
            want = mp.pi * mp.mpf(f.numerator) / f.denominator
            assert abs(angle_radians(f, CTX) - want) < CTX.tolerance(-3)
