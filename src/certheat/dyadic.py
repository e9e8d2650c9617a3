"""Exact dyadic numbers with an explicit precision tag.

A :class:`DyadicDecimal` is a binary fixed-point literal ``[+|-][bits].[bits]``:
a sign, an integer part (no leading zeros, possibly empty) and a nonempty
fractional part.  Trailing fractional zeros are significant: they widen the
precision claim.  The value is ``(-1)^sign * mag * 2**-pcs`` where ``pcs`` is
the number of fractional bits, so every instance is an exact rational with a
power-of-two denominator.

Every solver in this package speaks this type at its boundary: a result printed
with ``pcs == n`` asserts that the true quantity lies within ``2**-n`` of it.
Arithmetic here is exact (no hidden rounding); the only lossy operation is
:func:`round_to`, which rounds half-to-even to a requested number of
fractional bits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction, "DyadicDecimal"]

_LITERAL_RE = re.compile(r"^([+-])([01]*)\.([01]+)$")


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

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DyadicDecimal":
        m = _LITERAL_RE.match(text)
        if not m:
            raise ValueError(f"malformed dyadic literal: {text!r}")
        sign, int_bits, frac_bits = m.groups()
        if int_bits and int_bits[0] != "1":
            raise ValueError(f"integer part has a leading zero: {text!r}")
        mag = int(int_bits + frac_bits, 2) if (int_bits + frac_bits) else 0
        return cls(sign == "-", mag, len(frac_bits))

    @classmethod
    def from_fraction(cls, value: Rational) -> "DyadicDecimal":
        """Exact conversion at the fewest fractional bits (at least one);
        raises if ``value`` is not dyadic."""
        f = as_fraction(value)
        den = f.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{f} is not a dyadic rational")
        pcs = max(exp, 1)
        return cls(f.numerator < 0, abs(f.numerator) << (pcs - exp), pcs)

    # -- representation ----------------------------------------------------

    def literal(self) -> str:
        int_part = self.mag >> self.pcs
        frac_part = self.mag & ((1 << self.pcs) - 1)
        int_bits = format(int_part, "b") if int_part else ""
        frac_bits = format(frac_part, "b").zfill(self.pcs)
        return ("-" if self.negative else "+") + int_bits + "." + frac_bits

    def __str__(self) -> str:
        return self.literal()

    def __repr__(self) -> str:
        return f"DyadicDecimal({self.literal()!r})"

    def tnd(self) -> int:
        """Total number of digits, integer part plus fractional part."""
        int_part = self.mag >> self.pcs
        return (int_part.bit_length() if int_part else 0) + self.pcs

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

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicDecimal):
            return NotImplemented
        # Structural equality: "+.10" != "+.1" even though the values agree.
        return (self.negative, self.mag, self.pcs) == (other.negative, other.mag, other.pcs)

    def __hash__(self) -> int:
        return hash((self.negative, self.mag, self.pcs))

    def same_value(self, other: Rational) -> bool:
        return self.as_fraction() == as_fraction(other)

    # -- exact arithmetic --------------------------------------------------

    def __neg__(self) -> "DyadicDecimal":
        if self.mag == 0:
            return DyadicDecimal(False, 0, self.pcs)
        return DyadicDecimal(not self.negative, self.mag, self.pcs)

    def __add__(self, other: "DyadicDecimal") -> "DyadicDecimal":
        if not isinstance(other, DyadicDecimal):
            return NotImplemented
        pcs = max(self.pcs, other.pcs)
        m = (self.signed_mag << (pcs - self.pcs)) + (other.signed_mag << (pcs - other.pcs))
        return DyadicDecimal(m < 0, abs(m), pcs)

    def __sub__(self, other: "DyadicDecimal") -> "DyadicDecimal":
        return self + (-other)

    def __mul__(self, other: "DyadicDecimal") -> "DyadicDecimal":
        if not isinstance(other, DyadicDecimal):
            return NotImplemented
        m = self.signed_mag * other.signed_mag
        return DyadicDecimal(m < 0, abs(m), self.pcs + other.pcs)

    def __abs__(self) -> "DyadicDecimal":
        return DyadicDecimal(False, self.mag, self.pcs)


def as_fraction(value: Rational) -> Fraction:
    """value as a Fraction; a Fraction comes back as itself (it is immutable)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, DyadicDecimal):
        return value.as_fraction()
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

    >>> str(round_to(Fraction(1, 3), 2))
    '+.01'
    >>> str(round_to(0, 5))
    '+.00000'
    >>> str(round_to(Fraction(1, 2), 3))
    '+.100'
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = as_fraction(value)
    m = _round_half_even(f.numerator * (1 << n), f.denominator)
    return DyadicDecimal(m < 0, abs(m), n)
