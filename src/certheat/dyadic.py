"""Dyadic literals: the value a solve prints.

A :class:`DyadicDecimal` is a binary fixed-point literal ``[+|-][bits].[bits]``:
a sign, an integer part (no leading zeros, possibly empty) and a nonempty
fractional part.  Trailing fractional zeros are significant: they widen the
precision claim.  The value is ``(-1)^sign * mag * 2**-pcs`` where ``pcs`` is
the number of fractional bits, so every instance is an exact rational with a
power-of-two denominator.

A result printed with ``pcs == n`` asserts that the true quantity lies within
``2**-n`` of it.  A solve makes one with :func:`round_to`, which rounds an
exact rational half-to-even to a requested number of fractional bits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class DyadicDecimal:
    """Exact signed binary fixed-point number, ``mag * 2**-pcs``."""

    __slots__ = ("negative", "mag", "pcs")

    def __init__(self, negative: bool, mag: int, pcs: int):
        if pcs < 1:
            raise ValueError("pcs must be >= 1")
        if mag < 0:
            raise ValueError("mag must be nonnegative; use the sign flag")
        self.negative = bool(negative)
        self.mag = mag
        self.pcs = pcs

    def literal(self) -> str:
        int_part = self.mag >> self.pcs
        frac_part = self.mag & ((1 << self.pcs) - 1)
        int_bits = format(int_part, "b") if int_part else ""
        frac_bits = format(frac_part, "b").zfill(self.pcs)
        return ("-" if self.negative else "+") + int_bits + "." + frac_bits

    def as_fraction(self) -> Fraction:
        sign = -1 if self.negative else 1
        return Fraction(sign * self.mag, 1 << self.pcs)

    @property
    def signed_mag(self) -> int:
        return -self.mag if self.negative else self.mag

    def decimal(self, digits: int) -> str:
        """Decimal rendering with ``digits`` places, round half to even."""
        scaled = _round_half_even(self.signed_mag * 10**digits, 1 << self.pcs)
        sign = "-" if scaled < 0 else ""
        s = str(abs(scaled)).rjust(digits + 1, "0")
        return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def as_fraction(value: Rational) -> Fraction:
    """value as a Fraction; a Fraction comes back as itself (it is immutable)."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den, ties to even.  den > 0."""
    q, r = divmod(num, den)  # floor division; 0 <= r < den
    twice = 2 * r
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    return q


def round_to(value: Rational, n: int) -> DyadicDecimal:
    """Round an exact rational to ``n`` fractional bits, half to even.

    The result differs from ``value`` by at most ``2**-(n+1)`` and carries
    ``pcs == n``.

    >>> round_to(Fraction(1, 3), 2).literal()
    '+.01'
    >>> round_to(0, 5).literal()
    '+.00000'
    >>> round_to(Fraction(1, 2), 3).literal()
    '+.100'
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = as_fraction(value)
    m = _round_half_even(f.numerator * (1 << n), f.denominator)
    return DyadicDecimal(m < 0, abs(m), n)
