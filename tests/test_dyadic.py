import random
from fractions import Fraction

import pytest

from certheat.dyadic import DyadicDecimal, as_fraction, round_to


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
                DyadicDecimal.parse(text)
        else:
            d = DyadicDecimal.parse(text)
            assert d.as_fraction() == expected
            assert d.literal() == text


def test_component_counts():
    d = DyadicDecimal.parse("+101.001")
    assert d.tnd() == 6
    assert d.pcs == 3
    assert DyadicDecimal.parse("-.1").tnd() == 1
    assert DyadicDecimal.parse("+.000").tnd() == 3


def test_trailing_zeros_are_significant():
    a = DyadicDecimal.parse("+.1")
    b = DyadicDecimal.parse("+.10")
    assert a != b
    assert a.same_value(b)


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
    assert approximates(DyadicDecimal.parse("+.1"), Fraction(3, 5))
    assert not approximates(DyadicDecimal.parse("+.10"), Fraction(4, 5))
    assert approximates(DyadicDecimal.parse("+.10"), Fraction(3, 4))


def test_exact_arithmetic_matches_fractions():
    rng = random.Random(7)
    for _ in range(200):
        a = DyadicDecimal.from_fraction(Fraction(rng.randrange(-500, 500), 2 ** rng.randrange(1, 10)))
        b = DyadicDecimal.from_fraction(Fraction(rng.randrange(-500, 500), 2 ** rng.randrange(1, 10)))
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
        assert (-a).as_fraction() == -a.as_fraction()
        assert abs(a).as_fraction() == abs(a.as_fraction())


def test_from_fraction_rejects_non_dyadic():
    with pytest.raises(ValueError):
        DyadicDecimal.from_fraction(Fraction(1, 3))


def test_as_fraction_helper():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction(DyadicDecimal.parse("+1.1")) == Fraction(3, 2)


def test_as_fraction_returns_a_fraction_itself():
    f = Fraction(-22, 7)
    assert as_fraction(f) is f


def test_decimal_rendering():
    d = DyadicDecimal.parse("+.1")
    assert d.decimal(3) == "0.500"
    assert DyadicDecimal.parse("-1.01").decimal(2) == "-1.25"
    assert DyadicDecimal.parse("+.000").decimal(1) == "0.0"
