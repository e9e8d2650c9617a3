import random
from fractions import Fraction

import pytest

from certheat.dyadic import as_fraction, round_to
from dyadic_literal import parse_literal


def approximates(d, target):
    """|value(d) - target| <= 2^-pcs(d), the claim a printed result makes."""
    return abs(d.as_fraction() - as_fraction(target)) <= Fraction(1, 1 << d.pcs)


def test_parse_literal_roundtrip_examples():
    cases = {
        "+101.001": Fraction(41, 8),
        "-.1": Fraction(-1, 2),
        "+.000": Fraction(0),
        "+0.1": None,  # leading zero in integer part is not allowed
        "+1.": None,  # fractional part must be nonempty
        "1.0": None,  # sign is mandatory
        "+1 .0": None,
        "+12.0": None,
    }
    for text, expected in cases.items():
        if expected is None:
            with pytest.raises(ValueError):
                parse_literal(text)
        else:
            assert parse_literal(text) == expected
            assert round_to(expected, len(text.split(".")[1])).literal() == text


def test_round_to_frozen_examples():
    assert round_to(Fraction(1, 3), 2).literal() == "+.01"
    assert round_to(0, 5).literal() == "+.00000"
    assert round_to(Fraction(1, 2), 3).literal() == "+.100"
    # ties round half to even
    assert round_to(Fraction(1, 4), 1).literal() == "+.0"
    assert round_to(Fraction(3, 4), 1).literal() == "+1.0"
    assert round_to(Fraction(-3, 4), 1).literal() == "-1.0"
    assert round_to(Fraction(3, 8), 2).literal() == "+.10"


def test_round_to_error_bound_property():
    rng = random.Random(1701)
    for _ in range(300):
        num = rng.randrange(-10**6, 10**6)
        den = rng.randrange(1, 10**6)
        n = rng.randrange(1, 40)
        t = Fraction(num, den)
        d = round_to(t, n)
        assert d.pcs == n
        assert abs(d.as_fraction() - t) <= Fraction(1, 2 ** (n + 1))
        assert approximates(d, t)


def test_approximates_examples():
    # trailing zeros are significant: "+.10" claims more than "+.1"
    assert approximates(round_to(Fraction(1, 2), 1), Fraction(3, 5))
    assert not approximates(round_to(Fraction(1, 2), 2), Fraction(4, 5))
    assert approximates(round_to(Fraction(1, 2), 2), Fraction(3, 4))


def test_as_fraction_helper():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)


def test_as_fraction_returns_a_fraction_itself():
    f = Fraction(-22, 7)
    assert as_fraction(f) is f


def test_decimal_rendering():
    assert round_to(Fraction(1, 2), 1).decimal(3) == "0.500"
    assert round_to(Fraction(-5, 4), 2).decimal(2) == "-1.25"
    assert round_to(0, 3).decimal(1) == "0.0"
