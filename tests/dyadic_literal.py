"""The grammar of the dyadic literals that `certheat solve` prints.

A literal is a sign, an integer part without a leading zero (possibly
empty), a point and a nonempty fractional part, all in binary; tests read
printed values back through :func:`parse_literal`.
"""

import re
from fractions import Fraction

LITERAL = re.compile(r"([+-])((?:1[01]*)?)\.([01]+)")


def parse_literal(text: str) -> Fraction:
    """The exact value of a dyadic literal; ValueError off the grammar."""
    m = LITERAL.fullmatch(text)
    if not m:
        raise ValueError(f"malformed dyadic literal: {text!r}")
    sign, int_bits, frac_bits = m.groups()
    value = Fraction(int(int_bits + frac_bits, 2), 1 << len(frac_bits))
    return -value if sign == "-" else value
