"""Precision management and decimal serialization.

A PrecisionContext carries the requested number of significant digits;
internally every computation runs with GUARD_DIGITS extra digits so
that the requested digits are fully trustworthy.  Values outside the
series layer are mpmath numbers at that working precision.  Inside it
(ptspec.series) the coefficient recursion, the collapses and Horner's
rule run on fixed-point Python integers whose bits follow from the same
working precision, and their results come back as mpmath numbers.
Numbers cross process boundaries (CLI output) only as decimal strings,
never as binary floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TypeAlias, Union

import mpmath as mp

from .errors import ParameterError

ComplexHP: TypeAlias = mp.mpc
RealHP: TypeAlias = mp.mpf

GUARD_DIGITS = 15

Fractionable = Union[Fraction, int, str, float]


def as_fraction(x: Fractionable) -> Fraction:
    """Coerce to an exact Fraction, reading floats by their decimal intent.

    Fraction(str(0.05)) gives 1/20, not the binary expansion of 0.05.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    try:
        if isinstance(x, float):
            return Fraction(str(x))
        if isinstance(x, str):
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot interpret {x!r} as an exact fraction") from None
    raise ParameterError(f"cannot interpret {x!r} as an exact fraction")


@dataclass(frozen=True)
class PrecisionContext:
    """Requested output precision in significant decimal digits."""

    digits: int = 40

    def __post_init__(self) -> None:
        if not isinstance(self.digits, int) or self.digits < 1:
            raise ParameterError(f"digits must be a positive integer, got {self.digits!r}")

    @property
    def dps(self) -> int:
        """Working decimal precision (requested digits plus guard digits)."""
        return self.digits + GUARD_DIGITS

    def workdps(self):
        """Context manager setting mpmath's precision to self.dps."""
        return mp.workdps(self.dps)

    def mpf(self, x: Fractionable) -> RealHP:
        """Convert an exact value to mpf at working precision."""
        fr = as_fraction(x)
        with self.workdps():
            return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)

    def tolerance(self, extra: int = 0) -> RealHP:
        """10**-(digits + extra) at working precision."""
        with self.workdps():
            return mp.mpf(10) ** (-(self.digits + extra))


def real_str(x, digits: int) -> str:
    """Deterministic decimal string for a real mpmath value.

    Conversion runs at digits-plus-guard working precision; passing an
    mpf through mp.mpf at a lower ambient precision would silently
    re-round it.
    """
    with mp.workdps(digits + GUARD_DIGITS):
        return mp.nstr(mp.mpf(x), digits, strip_zeros=True)

