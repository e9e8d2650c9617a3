import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from certheat import certified as C
from certheat.certified import CertifiedValue
from certheat.errors import PreconditionError

MP_PREC = 500  # mpmath bits for this module's tests (see conftest.py)


def mpf(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / mp.mpf(f.denominator)


def assert_encloses(cv: CertifiedValue, true: mp.mpf, p: int):
    assert abs(mpf(cv.value_fraction()) - true) <= mpf(cv.err_fraction())
    assert mpf(cv.err_fraction()) <= mp.mpf(2) ** (-p)


def holds(cv: CertifiedValue, x: Fraction) -> bool:
    """x lies within cv's error bound of its value."""
    return abs(cv.value_fraction() - x) <= cv.err_fraction()


def test_constructor_invariants():
    v = CertifiedValue.from_fraction(Fraction(1, 3), 24)
    assert holds(v, Fraction(1, 3))
    assert v.err_fraction() <= Fraction(1, 2 ** 24)
    with pytest.raises(ValueError):
        CertifiedValue(1, 4, -1, 4)
    with pytest.raises(ValueError):
        CertifiedValue.exact(Fraction(1, 3))
    assert CertifiedValue.exact(Fraction(5, 8)).err_fraction() == 0


def test_error_mantissa_is_renormalised():
    v = CertifiedValue(0, 1, (1 << 200) + 12345, 400)
    assert v.en.bit_length() <= 33
    assert v.err_fraction() >= Fraction((1 << 200) + 12345, 1 << 400)


def test_spec_addition_example():
    # (1/2 +- 2^-10) + (1/4 +- 2^-10) carries a 2^-9 bound
    a = CertifiedValue(1, 1, 1, 10)
    b = CertifiedValue(1, 2, 1, 10)
    s = a + b
    assert s.value_fraction() == Fraction(3, 4)
    assert s.err_fraction() == Fraction(1, 512)


def test_arithmetic_encloses_true_value():
    rng = random.Random(42)
    for _ in range(150):
        fa = Fraction(rng.randrange(-999, 999), rng.randrange(1, 999))
        fb = Fraction(rng.randrange(-999, 999), rng.randrange(1, 999))
        p = rng.randrange(8, 60)
        a = CertifiedValue.from_fraction(fa, p)
        b = CertifiedValue.from_fraction(fb, p)
        assert holds(a + b, fa + fb)
        assert holds(a - b, fa - fb)
        assert holds(a * b, fa * fb)
        assert holds(-a, -fa)
        assert holds(a.mul_exact(Fraction(3, 8)), fa * Fraction(3, 8))
        assert holds(a.rounded(6), fa)


def test_pi_various_precisions():
    for p in (10, 53, 130, 333):
        assert_encloses(C.pi_cv(p), mp.pi, p)


def test_sqrt_recip_div():
    for p in (16, 64, 150):
        assert_encloses(C.sqrt_cv(2, p), mp.sqrt(2), p)
        assert_encloses(C.sqrt_cv(Fraction(9, 16), p), mp.mpf(3) / 4, p)
        assert_encloses(C.recip_cv(3, p), mp.mpf(1) / 3, p)
        assert_encloses(C.recip_cv(Fraction(-7, 5), p), -mp.mpf(5) / 7, p)
    assert C.sqrt_cv(0, 30).en == 0
    with pytest.raises(PreconditionError):
        C.recip_cv(CertifiedValue(1, 10, 5, 10), 20)  # straddles zero
    with pytest.raises(PreconditionError):
        C.sqrt_cv(-2, 20)


def test_exp_various_arguments():
    for p in (16, 64, 150):
        for arg in (1, -1, Fraction(13, 3), Fraction(-29, 4), Fraction(1, 1024), 0):
            assert_encloses(C.exp_cv(arg, p), mp.exp(mpf(Fraction(arg))), p)


def test_exp_large_arguments_keep_the_bound():
    # the squarings multiply the error by e^x, which the working scale covers
    for x in (Fraction(15, 2), 8, 9, 10, 20, 60, 120):
        for p in (16, 30, 64, 200):
            assert_encloses(C.exp_cv(x, p), mp.exp(mpf(Fraction(x))), p)


def test_exp_deeply_negative_shortcut():
    z = C.exp_cv(-5000, 40)
    assert z.m == 0
    assert z.err_fraction() <= Fraction(1, 1 << 40)


def test_sin_pi_mul_exact_special_values():
    assert C.sin_pi_mul_cv(7, 50).en == 0
    assert C.sin_pi_mul_cv(7, 50).m == 0
    assert C.sin_pi_mul_cv(Fraction(-4), 50).en == 0
    assert C.sin_pi_mul_cv(Fraction(5, 2), 50).value_fraction() == 1
    assert C.sin_pi_mul_cv(Fraction(3, 2), 50).value_fraction() == -1
    assert C.cos_pi_mul_cv(Fraction(3, 2), 50).en == 0
    assert C.cos_pi_mul_cv(Fraction(1, 2), 50).m == 0
    assert C.cos_pi_mul_cv(2, 50).value_fraction() == 1
    assert C.cos_pi_mul_cv(1, 50).value_fraction() == -1


def test_sin_cos_pi_mul_generic():
    rng = random.Random(99)
    for _ in range(40):
        r = Fraction(rng.randrange(-300, 300), rng.randrange(1, 97))
        p = rng.choice([16, 48, 100])
        assert_encloses(C.sin_pi_mul_cv(r, p), mp.sinpi(mpf(r)), p)
        assert_encloses(C.cos_pi_mul_cv(r, p), mp.cospi(mpf(r)), p)


def unit_rotations(theta, K, p):
    """W = p + bitlen(K) + 3 and (cos, sin) of k pi theta for k = 1..K, each
    the rotation_sum whose only nonzero weight is a unit at k, at scale W."""
    W = p + K.bit_length() + 3
    return W, [C.rotation_sum(theta, [(0, 0)] * (k - 1) + [(1 << W, 0)], W)
               for k in range(1, K + 1)]


@pytest.mark.parametrize("theta", [Fraction(1, 4) - Fraction(1, 64),
                                   Fraction(1, 4) + Fraction(1, 64)])
def test_rotation_encloses_cos_sin_and_its_bound_grows_linearly(theta):
    # near theta = 1/4, |cos| + |sin| is about sqrt 2: a componentwise bound
    # would grow like 2^(k/2), the Euclidean one must stay linear in k
    K, p = 1000, 20
    W, rot = unit_rotations(theta, K, p)
    assert len(rot) == K
    with mp.workprec(80):
        for k, (c, s) in enumerate(rot, 1):
            x = k * mp.pi * mpf(theta)
            assert_encloses(c, mp.cos(x), p)
            assert_encloses(s, mp.sin(x), p)
    assert all(s.err_fraction() == c.err_fraction() for c, s in rot)
    # the rotation's bound E_k in units of 2^-W: the sum's error mantissa,
    # shortened to 32 bits, adds less than one unit
    E = [math.floor(c.err_fraction() * (1 << W)) for c, _ in rot]
    step = E[1] - E[0]
    assert all(E[k + 1] - E[k] <= step for k in range(K - 1))


def test_rotation_at_exact_angles():
    for theta in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        for k, (c, s) in enumerate(unit_rotations(theta, 12, 30)[1], 1):
            assert_encloses(c, mp.cos(k * mp.pi * mpf(theta)), 30)
            assert_encloses(s, mp.sin(k * mp.pi * mpf(theta)), 30)
    # K = 0: no weight, an exact zero in both parts
    assert [(v.value_fraction(), v.err_fraction())
            for v in C.rotation_sum(Fraction(1, 3), [], 30)] == [(0, 0), (0, 0)]


def test_gauss_primitive():
    for p in (16, 64, 150):
        for a in (Fraction(3, 2), -6, 8, Fraction(1, 128), 0):
            true = mp.sqrt(mp.pi) / 2 * mp.erf(mpf(Fraction(a)))
            assert_encloses(C.gauss_primitive_cv(a, p), true, p)
    with pytest.raises(PreconditionError):
        C.gauss_primitive_cv(9, 20)


@pytest.mark.parametrize("x, p", [(8, 512), (Fraction(5, 2), 2048)])
def test_gauss_primitive_term_cap_grows_with_precision(x, p):
    # both need more than 400 series terms
    with mp.workdps(800):
        true = mp.sqrt(mp.pi) / 2 * mp.erf(mpf(Fraction(x)))
        assert_encloses(C.gauss_primitive_cv(x, p), true, p)


def test_input_error_propagation():
    # a certified input's own uncertainty must flow through
    base = Fraction(1, 3)
    fuzz = CertifiedValue.from_fraction(base, 50)
    for fn, true in [
        (C.exp_cv, mp.exp(mpf(base))),
        (C.sqrt_cv, mp.sqrt(mpf(base))),
        (C.gauss_primitive_cv, mp.sqrt(mp.pi) / 2 * mp.erf(mpf(base))),
    ]:
        out = fn(fuzz, 30)
        assert abs(mpf(out.value_fraction()) - true) <= mpf(out.err_fraction())
    r = C.recip_cv(fuzz, 30)
    assert abs(mpf(r.value_fraction()) - 3) <= mpf(r.err_fraction())


def test_directed_pow_brackets_true_value():
    rng = random.Random(5)
    for _ in range(25):
        b = Fraction(rng.randrange(1, 2**40), rng.randrange(1, 2**40))
        n = rng.randrange(0, 5000)
        hi = C.pow_fraction_upper(b, n)
        true = mpf(b) ** n
        assert true <= mpf(hi)
        # 128-bit intermediate rounding keeps the bound tight
        if true > 0 and n > 0:
            assert mpf(hi) - true <= true * mp.mpf(2) ** -100


# -- scaled pairs: (v, e) at scale W stands for v * 2^-W with error e * 2^-W --

ints = st.integers(-(1 << 80), 1 << 80)
errs = st.integers(0, 1 << 40)
scales = st.integers(0, 64)


def ends(v, e):
    """The true values at the two ends of a pair's error range."""
    return (v - e, v + e)


def assert_pair_holds(exact, pair):
    v, e = pair
    assert abs(Fraction(exact) - v) <= e


@given(ints, errs, ints, errs, scales)
def test_smul_contains_the_product(a, ea, b, eb, W):
    for A in ends(a, ea):
        for B in ends(b, eb):
            assert_pair_holds(Fraction(A * B, 1 << W), C._smul(a, ea, b, eb, W))


@example(5, 5, 6)
@given(ints, errs, st.integers(1, 1 << 40))
def test_sdiv_int_contains_the_quotient(a, ea, d):
    for A in ends(a, ea):
        assert_pair_holds(Fraction(A, d), C._sdiv_int(a, ea, d))


@given(st.fractions(max_denominator=1 << 40), scales)
def test_scaled_from_fraction_contains_the_value(f, W):
    assert_pair_holds(f * (1 << W), C._scaled_from_fraction(f, W))


@given(ints, st.integers(-20, 80), errs, st.integers(-20, 80), scales)
def test_scaled_from_cv_contains_the_enclosure(m, s, en, es, W):
    cv = CertifiedValue(m, s, en, es)
    for true in (cv.lower_fraction(), cv.upper_fraction()):
        assert_pair_holds(true * (1 << W), C._scaled_from_cv(cv, W))


# -- the scaled-integer trig kernel against the Fraction-based code it
#    replaced, kept here as the oracle --


def oracle_scaled_from_cv(cv: CertifiedValue, W: int):
    val = cv.value_fraction()
    err = cv.err_fraction()
    return (C._round_half_even(val.numerator << W, val.denominator),
            (err.numerator << W) // err.denominator + 2)


def oracle_trig_pi(f: Fraction, sign: int, p: int, odd: bool) -> CertifiedValue:
    piv = C.pi_cv(p + 6)
    W = p + 8
    rv, re = C._scaled_from_fraction(piv.value_fraction() * f, W)
    x2, ex2 = C._smul(rv, re, rv, re, W)
    acc, eacc = (rv, re) if odd else (1 << W, 0)
    term, eterm = acc, eacc
    k = 0
    while True:
        k += 1
        term, eterm = C._smul(term, eterm, x2, ex2, W)
        term, eterm = C._sdiv_int(-term, eterm, (2 * k - 1 + odd) * (2 * k + odd))
        acc += term
        eacc += eterm
        if k >= 4 and abs(term) <= 1 and eterm <= 2:
            eacc += abs(term) + eterm + 2
            break
    out = CertifiedValue(sign * acc, W, eacc, W).rounded(p + 4)
    return out.widen_fraction(piv.err_fraction() * f)


def oracle_sin_pi(r: Fraction, p: int) -> CertifiedValue:
    f = r % 2
    if f.denominator == 1:
        return CertifiedValue.zero()
    sign = 1
    if f > 1:
        f, sign = f - 1, -1
    if f > Fraction(1, 2):
        f = 1 - f
    if f == Fraction(1, 2):
        return CertifiedValue.exact(sign)
    return oracle_trig_pi(f, sign, p, True)


def oracle_cos_pi(r: Fraction, p: int) -> CertifiedValue:
    f = r % 2
    if f > 1:
        f = 2 - f
    sign = 1
    if f > Fraction(1, 2):
        f, sign = 1 - f, -1
    if f == Fraction(1, 2):
        return CertifiedValue.zero()
    if f == 0:
        return CertifiedValue.exact(sign)
    return oracle_trig_pi(f, sign, p, False)


def cv_fields(cv):
    return cv.m, cv.s, cv.en, cv.es


def kernel_angles():
    rng = random.Random(141)
    out = [Fraction(j, 4) for j in range(-12, 13)]  # multiples of 1/4
    for _ in range(12):
        den = rng.randrange(1, 10 ** 4 + 1)
        out.append(Fraction(rng.randrange(-6 * den, 0), den))  # negative
        out.append(Fraction(rng.randrange(2 * den + 1, 9 * den), den))  # above 2
        out.append(Fraction(rng.randrange(0, 2 * den), den))
    return out


@pytest.mark.parametrize("p", [8, 20, 64, 256, 1024])
def test_trig_kernel_matches_the_fraction_oracle_cold_and_warm(p):
    pairs = ((C.sin_pi_mul_cv, oracle_sin_pi), (C.cos_pi_mul_cv, oracle_cos_pi))
    angles = kernel_angles()
    want = {(fn, r): cv_fields(oracle(r, p)) for fn, oracle in pairs for r in angles}
    for fn, r in want:
        C._trig_pi.cache_clear()
        assert cv_fields(fn(r, p)) == want[fn, r], (fn.__name__, r)
    for fn, r in reversed(list(want)):  # warm: every angle met before
        assert cv_fields(fn(r, p)) == want[fn, r], (fn.__name__, r)
        assert cv_fields(fn(r, p)) == want[fn, r], (fn.__name__, r)
    assert C._trig_pi.cache_info().maxsize == 256


def test_scaled_from_cv_matches_the_fraction_oracle():
    rng = random.Random(142)
    for _ in range(3000):
        W = rng.randrange(0, 70)
        s = rng.choice([rng.randrange(-40, 0), rng.randrange(W + 1, W + 90),
                        rng.randrange(0, W + 1)])
        es = rng.choice([rng.randrange(-40, 0), rng.randrange(W + 1, W + 90),
                         rng.randrange(0, W + 1)])
        m = rng.choice([rng.randrange(-(1 << 90), 1 << 90), rng.randrange(-8, 8),
                        rng.randrange(-4, 5) << max(0, s - W - 1)])  # ties at s > W
        en = rng.choice([0, rng.randrange(1, 1 << 32)])
        cv = CertifiedValue(m, s, en, es)
        assert C._scaled_from_cv(cv, W) == oracle_scaled_from_cv(cv, W), (m, s, en, es, W)


@pytest.mark.parametrize("p", [8, 20, 64, 256, 1024])
def test_recip_sqrt_pi_is_cached_and_matches_a_fresh_computation(p):
    fresh = C.recip_cv(C.sqrt_pi_cv(p + 4), p)
    cached = C.recip_sqrt_pi_cv(p)
    assert cv_fields(cached) == cv_fields(fresh)
    assert C.recip_sqrt_pi_cv(p) is cached  # one value per precision
