"""Tests for kernel evaluations: heat-kernel derivative families and
spherical harmonics."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from scipy.special import lpmv

from certheat.certified import CertifiedValue, sqrt_cv
from certheat.errors import PreconditionError
from certheat.kernels import _assoc_legendre_cs, real_sph_harmonic_3d
from closed_forms import heat_g, heat_g_tilde, sph_count

MP_PREC = 500  # mpmath bits for this module's tests (see conftest.py)


def to_mp(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / f.denominator


def assert_encloses(cv, ref, p):
    assert cv.err_fraction() <= Fraction(1, 2 ** p)
    assert abs(to_mp(cv.value_fraction()) - ref) <= to_mp(cv.err_fraction()) + mp.mpf(10) ** -30


# ---------------------------------------------------------------------------
# Poisson kernel identity behind the disk counting reduction


def test_poisson_mean_value_property():
    # (1/2) * integral over rho in [0,2] of P(r, theta, rho) d rho = 1
    r, th = mp.mpf(7) / 10, mp.mpf(3) / 5
    mean = mp.quad(lambda rho: (1 - r ** 2) / (1 - 2 * r * mp.cos(mp.pi * (th - rho)) + r ** 2),
                   [0, 2]) / 2
    assert abs(mean - 1) < mp.mpf(10) ** -10


# ---------------------------------------------------------------------------
# heat-kernel derivative families


def test_heat_g_base_values():
    assert_encloses(heat_g(0, 1, 1, 30), mp.e ** -1, 30)
    assert_encloses(heat_g(1, 1, 1, 30), -mp.e ** -1 / 2, 30)
    cv = heat_g(3, 1, 0, 30)
    assert cv.value_fraction() == 0 and cv.err_fraction() == 0


def test_heat_g_vs_numeric_derivative():
    def g(t, x):
        return x * t ** mp.mpf('-1.5') * mp.e ** (-x * x / t)

    pts = [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 4)),
           (Fraction(2), Fraction(6, 5))]
    for n in range(7):
        for t, x in pts:
            ref = mp.diff(lambda tt: g(tt, to_mp(x)), to_mp(t), n)
            assert_encloses(heat_g(n, t, x, 40), ref, 40)


def test_heat_g_tilde_vs_numeric_derivative():
    def gt(t, x):
        return t ** mp.mpf('-0.5') * mp.e ** (-x * x / t)

    pts = [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 4)),
           (Fraction(2), Fraction(6, 5))]
    for n in range(7):
        for t, x in pts:
            ref = mp.diff(lambda tt: gt(tt, to_mp(x)), to_mp(t), n)
            assert_encloses(heat_g_tilde(n, t, x, 40), ref, 40)


def printed_variant(n, t, x, p):
    # (t g^(n) + g^(n-1)) / x: the Leibniz form of g~^(n) without its factor n
    t, x = Fraction(t), Fraction(x)
    out = heat_g(n, t, x, p + 4).value_fraction() * t
    if n >= 1:
        out += heat_g(n - 1, t, x, p + 4).value_fraction()
    return out / x


def test_printed_variant_diverges_from_second_order():
    # the two assembled forms agree for n <= 1 and split at n = 2
    def gt(t, x):
        return t ** mp.mpf('-0.5') * mp.e ** (-x * x / t)

    for n in (0, 1):
        a = heat_g_tilde(n, 1, 1, 40).value_fraction()
        b = printed_variant(n, 1, 1, 40)
        assert abs(a - b) <= Fraction(1, 2 ** 38)
    ref = mp.diff(lambda tt: gt(tt, mp.mpf(1)), mp.mpf(1), 2)
    pv = printed_variant(2, 1, 1, 40)
    assert abs(to_mp(pv) - ref) > mp.mpf(10) ** -6


def test_heat_g_rejects_bad_args():
    with pytest.raises(PreconditionError):
        heat_g(2, 0, 1, 10)
    with pytest.raises(PreconditionError):
        heat_g_tilde(2, 1, 0, 10)


# ---------------------------------------------------------------------------
# spherical harmonics


def test_sph_count_small_cases():
    assert sph_count(3, 0) == 1
    assert sph_count(3, 2) == 5
    assert sph_count(4, 1) == 4
    assert [sph_count(3, l) for l in range(8)] == [2 * l + 1 for l in range(8)]
    assert [sph_count(4, l) for l in range(8)] == [(l + 1) ** 2 for l in range(8)]
    with pytest.raises(PreconditionError):
        sph_count(1, 2)


def assoc_legendre(l, m, x, p):
    """P_l^m(x), fed the polar angle's certified cosine x and sine
    sqrt(1 - x^2) as the spherical harmonics feed it."""
    x = Fraction(x)
    c = CertifiedValue.from_fraction(x, p + 8)
    return _assoc_legendre_cs(l, m, c, sqrt_cv(1 - x * x, p + 8), p)


def test_assoc_legendre_vs_scipy():
    rng = random.Random(53)
    for _ in range(40):
        l = rng.randrange(0, 7)
        m = rng.randrange(0, l + 1)
        x = Fraction(rng.randrange(-99, 100), 100)
        cv = assoc_legendre(l, m, x, 40)
        ref = lpmv(m, l, float(x))
        assert abs(float(cv.value_fraction()) - ref) <= float(cv.err_fraction()) + 1e-12


def test_assoc_legendre_endpoints():
    # P_l^m(+-1) = 0 for m >= 1; P_l^0(1) = 1
    for l in range(1, 5):
        for m in range(1, l + 1):
            cv = assoc_legendre(l, m, 1, 30)
            assert abs(cv.value_fraction()) <= cv.err_fraction()
    cv = assoc_legendre(4, 0, 1, 30)
    assert abs(cv.value_fraction() - 1) <= cv.err_fraction()


def test_y00_value():
    cv = real_sph_harmonic_3d(0, 0, Fraction(1, 3), Fraction(1, 5), 40)
    assert_encloses(cv, 1 / mp.sqrt(4 * mp.pi), 40)


def test_addition_identity_sampled():
    rng = random.Random(61)
    for _ in range(8):
        l = rng.randrange(0, 6)
        th = Fraction(rng.randrange(1, 100), 100)
        ph = Fraction(rng.randrange(0, 200), 100)
        tot = mp.mpf(0)
        for m in range(-l, l + 1):
            tot += to_mp(real_sph_harmonic_3d(l, m, th, ph, 45).value_fraction()) ** 2
        assert abs(tot - mp.mpf(2 * l + 1) / (4 * mp.pi)) < mp.mpf(10) ** -10


def test_harmonic_sum_bound():
    # sum over m of |Y_{l,m}| <= (2l+1)/sqrt(4 pi), consequence of the
    # addition identity via Cauchy-Schwarz
    rng = random.Random(67)
    for _ in range(6):
        l = rng.randrange(0, 6)
        th = Fraction(rng.randrange(1, 100), 100)
        ph = Fraction(rng.randrange(0, 200), 100)
        tot = sum(abs(to_mp(real_sph_harmonic_3d(l, m, th, ph, 40).value_fraction()))
                  for m in range(-l, l + 1))
        assert tot <= (2 * l + 1) / mp.sqrt(4 * mp.pi) + mp.mpf(10) ** -9
