"""Tests for kernel evaluations: heat-kernel derivative families, integer
Laguerre/Hermite tables, spherical harmonics."""

import random
from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest
from scipy.special import lpmv

from certheat.errors import PreconditionError
from certheat.kernels import (_gamma_ratio, assoc_legendre, heat_g,
                              heat_g_rational_core, heat_g_tilde,
                              hermite_pair_table, laguerre_half_table,
                              laguerre_minus_half_table, real_sph_harmonic_3d,
                              sph_count)

mp.mp.prec = 500


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
# integer tables


def test_laguerre_half_matches_rational_core():
    # g^(n)(1,x)/n! = (-1)^n x e^(-x^2) L_n^(1/2)(x^2): both sides held
    # rationally, equality must be exact
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(0, 31)
        x2 = Fraction(rng.randrange(0, 50), rng.randrange(1, 9))
        S = sum((-1) ** m * comb(n, m) * _gamma_ratio(n, m) * x2 ** (n - m)
                for m in range(n + 1))
        tab = laguerre_half_table(n, x2.numerator, x2.denominator)
        L = Fraction(tab[n], factorial(n) * (2 * x2.denominator) ** n)
        assert S == (-1) ** n * factorial(n) * L


def test_laguerre_minus_half_matches_hermite():
    # H_{2n}(w) = (-4)^n n! L_n^(-1/2)(w^2)
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(0, 16)
        w2 = Fraction(rng.randrange(0, 30), rng.randrange(1, 7))
        tab = laguerre_minus_half_table(n, w2.numerator, w2.denominator)
        L = Fraction(tab[n], factorial(n) * (2 * w2.denominator) ** n)
        K = hermite_pair_table(2 * n, w2.numerator, w2.denominator)
        assert Fraction(K[2 * n], w2.denominator ** n) == (-4) ** n * factorial(n) * L


def test_hermite_pair_table_vs_direct_recurrence():
    rng = random.Random(19)
    for _ in range(20):
        w = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
        u, v = (w * w).numerator, (w * w).denominator
        K = hermite_pair_table(9, u, v)
        H = [Fraction(1), 2 * w]
        for j in range(1, 9):
            H.append(2 * w * H[-1] - 2 * j * H[-2])
        for j in range(10):
            if j % 2 == 0:
                assert H[j] == Fraction(K[j], v ** (j // 2))
            else:
                assert H[j] == w * Fraction(K[j], v ** ((j - 1) // 2))


def test_szego_style_decay():
    # e^(-z) |L_n^(1/2)(z)| <= n+1 keeps the solver series summable
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(0, 40)
        z = Fraction(rng.randrange(0, 800), 100)
        tab = laguerre_half_table(n, z.numerator, z.denominator)
        L = to_mp(Fraction(tab[n], factorial(n) * (2 * z.denominator) ** n))
        assert abs(L) * mp.e ** (-to_mp(z)) <= n + 1 + mp.mpf(10) ** -25


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
