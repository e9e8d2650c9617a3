"""Certified arithmetic: dyadic approximations with proven error bounds.

A :class:`CertifiedValue` holds an exact dyadic approximation ``m * 2**-s``
together with an error bound ``en * 2**-es`` such that the (possibly
irrational) true quantity lies within the bound of the approximation.  All
arithmetic propagates bounds conservatively in exact integer arithmetic;
nothing here rounds silently.

The second half of the module evaluates the transcendental functions the
solvers need (pi, sqrt, exp, sin/cos, the Gaussian antiderivative) to any
requested absolute accuracy ``2**-p``.  Each evaluator runs a scaled-integer
Taylor scheme with an explicit remainder term, so the returned bounds are
sound rather than heuristic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Union

from .dyadic import _round_half_even, as_fraction
from .errors import PreconditionError

ExactLike = Union[int, Fraction]

_ERR_BITS = 32  # error mantissas are renormalised to at most this many bits


def _ceil_div(a, b) -> int:
    """ceil(a / b) for b > 0; exact for integers and Fractions alike."""
    return -(-a // b)


class CertifiedValue:
    """Dyadic approximation ``m * 2**-s`` with error bound ``en * 2**-es``."""

    __slots__ = ("m", "s", "en", "es")

    def __init__(self, m: int, s: int, en: int, es: int):
        self.m = m
        self.s = s
        if en < 0:
            raise ValueError("error mantissa must be nonnegative")
        # Keep error mantissas short; rounding an error bound up is sound.
        extra = en.bit_length() - _ERR_BITS
        if extra > 0:
            en = (en >> extra) + 1
            es -= extra
        self.en = en
        self.es = es

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, value: ExactLike) -> "CertifiedValue":
        f = as_fraction(value)
        den = f.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{f} is not dyadic; round it first")
        return cls(f.numerator, exp, 0, 0)

    @classmethod
    def from_fraction(cls, value: ExactLike, p: int, den: int = 1) -> "CertifiedValue":
        """Round any rational, or value / den for an integer den > 0, to scale
        ``2**-p``; rounding error <= 2**-(p+1)."""
        m, e = _scaled_from_fraction(value, p, den)
        return cls(m, p, e, p + 1)

    @classmethod
    def zero(cls) -> "CertifiedValue":
        return cls(0, 1, 0, 0)

    # -- views -------------------------------------------------------------

    def value_fraction(self) -> Fraction:
        if self.s >= 0:
            return Fraction(self.m, 1 << self.s)
        return Fraction(self.m << -self.s)

    def err_fraction(self) -> Fraction:
        if self.en == 0:
            return Fraction(0)
        if self.es >= 0:
            return Fraction(self.en, 1 << self.es)
        return Fraction(self.en << -self.es)

    def upper_fraction(self) -> Fraction:
        return self.value_fraction() + self.err_fraction()

    def lower_fraction(self) -> Fraction:
        return self.value_fraction() - self.err_fraction()

    def abs_upper(self) -> Fraction:
        return abs(self.value_fraction()) + self.err_fraction()

    def __repr__(self) -> str:
        return f"CertifiedValue({self.value_fraction()}, err<={self.err_fraction()})"

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "CertifiedValue":
        return CertifiedValue(-self.m, self.s, self.en, self.es)

    def __add__(self, other: "CertifiedValue") -> "CertifiedValue":
        if not isinstance(other, CertifiedValue):
            return NotImplemented
        s = max(self.s, other.s)
        m = (self.m << (s - self.s)) + (other.m << (s - other.s))
        en, es = _err_add(self.en, self.es, other.en, other.es)
        return CertifiedValue(m, s, en, es)

    def __sub__(self, other: "CertifiedValue") -> "CertifiedValue":
        return self + (-other)

    def __mul__(self, other: "CertifiedValue") -> "CertifiedValue":
        if not isinstance(other, CertifiedValue):
            return NotImplemented
        m = self.m * other.m
        s = self.s + other.s
        # |ab - a'b'| <= |a'| eb + |b'| ea + ea eb   (primed: approximations)
        en, es = _err_add(abs(self.m) * other.en, self.s + other.es,
                          abs(other.m) * self.en, other.s + self.es)
        en, es = _err_add(en, es, self.en * other.en, self.es + other.es)
        return CertifiedValue(m, s, en, es)

    def mul_exact(self, value: ExactLike) -> "CertifiedValue":
        """Multiply by an exact dyadic scalar."""
        c = CertifiedValue.exact(value)
        return CertifiedValue(self.m * c.m, self.s + c.s,
                              self.en * abs(c.m), self.es + c.s)

    def mul_fraction(self, f, p: int) -> "CertifiedValue":
        """Multiply by an exact rational, rounding the result to p+4 bits."""
        return (self * CertifiedValue.from_fraction(f, p + 4)).rounded(p + 4)

    def widen(self, en: int, es: int) -> "CertifiedValue":
        """Add an extra error term ``en * 2**-es``."""
        nen, nes = _err_add(self.en, self.es, en, es)
        return CertifiedValue(self.m, self.s, nen, nes)

    def widen_fraction(self, extra: Fraction) -> "CertifiedValue":
        """Add the error bound ``extra``, rounded up to about _ERR_BITS + 2
        significant bits, so the cost does not grow with extra's integers."""
        if extra <= 0:
            return self
        num, den = extra.numerator, extra.denominator
        es = max(0, _ERR_BITS + 2 - (num.bit_length() - den.bit_length()))
        return self.widen(_ceil_div(num << es, den), es)

    def rounded(self, p: int) -> "CertifiedValue":
        """Shorten the mantissa to scale ``2**-p`` (folds the rounding error)."""
        if self.s <= p:
            return self
        den = 1 << (self.s - p)
        m = _round_half_even(self.m, den)
        if m * den == self.m:  # dropped bits were zero; no rounding happened
            return CertifiedValue(m, p, self.en, self.es)
        en, es = _err_add(self.en, self.es, 1, p + 1)
        return CertifiedValue(m, p, en, es)


def _err_add(en1: int, es1: int, en2: int, es2: int) -> tuple[int, int]:
    if en1 == 0:
        return en2, es2
    if en2 == 0:
        return en1, es1
    es = max(es1, es2)
    return (en1 << (es - es1)) + (en2 << (es - es2)), es


def _exact_cv(f: ExactLike, prec: int) -> CertifiedValue:
    """Exact enclosure when f is dyadic, else one far below the budget 2**-prec."""
    f = as_fraction(f)
    if f.denominator & (f.denominator - 1) == 0:
        return CertifiedValue.exact(f)
    return CertifiedValue.from_fraction(f, prec + 40)


# ---------------------------------------------------------------------------
# scaled-integer evaluation helpers
#
# A "scaled" quantity is a pair (val, err) of integers at scale W, standing
# for val * 2**-W with absolute error at most err * 2**-W.  These helpers are
# the only code that forms, multiplies, scales and divides such pairs; a
# certified value becomes one by shifts alone (_scaled_from_cv), so the
# rotations start with no Fraction.
#
# Two rounding directions remain.  The Taylor primitives below (_smul,
# _sdiv_int) round to nearest or toward zero and keep only a few guard bits
# before their final rounded(p + 4); the rotations round down.


def _scaled_from_fraction(f: ExactLike, W: int, den: int = 1) -> tuple[int, int]:
    """Scaled pair of the rational f, or of f / den for an integer den > 0."""
    num, den = f.numerator << W, f.denominator * den
    v = _round_half_even(num, den)
    return v, (0 if v * den == num else 1)


def _scaled_from_cv(cv: CertifiedValue, W: int) -> tuple[int, int]:
    """Scaled view (v, e) of a certified value: |true * 2^W - v| <= e.

    v is m 2^(W - s) rounded half to even and e is floor(en 2^(W - es)) + 2,
    both by shifts."""
    k = cv.s - W
    if k <= 0:
        v = cv.m << -k
    else:
        v = cv.m >> k  # floor, so 0 <= rest < 2^k
        rest, half = cv.m - (v << k), 1 << (k - 1)
        if rest > half or (rest == half and v & 1):
            v += 1
    k = cv.es - W
    return v, (cv.en << -k if k <= 0 else cv.en >> k) + 2


def _smul(a: int, ea: int, b: int, eb: int, W: int) -> tuple[int, int]:
    """Product of two scaled pairs, by shifts: v = floor(a b / 2^W), plus one
    when the rest r = a b - v 2^W has 2r > 2^W, or 2r = 2^W with v odd (a b
    / 2^W rounded half to even), and the error bound rounded up."""
    ab = a * b
    v = ab >> W
    v += ((ab - (v << W)) << 1 | v & 1) > 1 << W
    return v, -(-(abs(a) * eb + abs(b) * ea + ea * eb) >> W) + 1


def _sdiv_int(a: int, ea: int, d: int) -> tuple[int, int]:
    """Divide a scaled value by a positive integer, truncating toward zero."""
    v = a // d if a >= 0 else -(-a // d)
    # truncating a / d loses up to (d - 1) / d: one unit on top of ea / d
    return v, -(-ea // d) + 1


def rotation_sum(terms, weights: list[tuple[int, int]],
                 W: int) -> tuple[CertifiedValue, CertifiedValue]:
    """(sum of c sum_k w_k cos k pi theta, sum of c sum_k w_k sin k pi theta)
    over the terms (theta, c), k = 1..K, for rational angles and coefficients.

    ``weights[k - 1]`` is a scaled pair (v, e) at scale W: the weight w_k is
    within e units of v.  One rotation per term serves every k: (x, y), the
    (cos, sin) of k pi theta at scale W, is (1, 0) rotated k times by the
    certified (cos pi theta, sin pi theta), rounding down.  The start pair
    comes from the cached trig kernel (:func:`_trig_pi`), one entry per
    reduced angle and scale, and reaches scale W by integer shifts.
    Componentwise bounds would grow like (|cos pi theta| + |sin pi theta|)^k,
    so the pair carries one bound E_k on the Euclidean norm of its error
    instead.  With d >= ||R~ - R||_2 (units 2^-W), R a rotation and each
    rounding below one unit, E_{k+1} = E_k + ceil(d (2^W + E_k) / 2^W) + 2,
    which grows linearly in k while K d stays far below 2^W.  The products
    are added exactly at scale 2W, so the only error is each product's
    |v| E_k + e 2^W (|cos|, |sin| <= 1).  The terms combine exactly over
    the common denominator q of their coefficients; the totals are divided
    by q at scale 2W (one more unit when that rounds) and rounded to W
    once, so a lone term with c = 1 costs no rounding beyond that last one,
    and no weight gives exact zeros.
    """
    one = 1 << W
    coeffs = [as_fraction(c) for _, c in terms]
    q = lcm(*(c.denominator for c in coeffs))
    cs = sn = err = 0
    for (theta, _), coeff in zip(terms, coeffs):
        theta = as_fraction(theta)
        c, ec = _scaled_from_cv(cos_pi_mul_cv(theta, W), W)
        s, es = _scaled_from_cv(sin_pi_mul_cv(theta, W), W)
        d = ec + es  # bounds both singular values of the error matrix
        x, y, E = one, 0, 0
        tc = ts = te = 0
        for v, e in weights:
            x, y = (c * x - s * y) >> W, (s * x + c * y) >> W
            E += -(-d * (one + E) >> W) + 2
            tc += v * x
            ts += v * y
            te += abs(v) * E + (e << W)
        a = coeff.numerator * (q // coeff.denominator)
        cs, sn, err = cs + a * tc, sn + a * ts, err + abs(a) * te
    if q > 1:  # one more unit at scale 2W unless q divides both totals
        err = _ceil_div(err, q) + (cs % q != 0 or sn % q != 0)
        cs, sn = _round_half_even(cs, q), _round_half_even(sn, q)
    return (CertifiedValue(cs, 2 * W, err, 2 * W).rounded(W),
            CertifiedValue(sn, 2 * W, err, 2 * W).rounded(W))


def gauss_ladder(a: Fraction, K: int, W: int) -> list[tuple[int, int]]:
    """Scaled pairs (v, e) at scale W of e^{-c k^2}, c = pi^2 a, for
    k = 1..K and rational a > 0.

    One exp: e^{-c k^2} = e^{-c (k-1)^2} e^{-c (2k-1)} and
    e^{-c (2k+1)} = e^{-c (2k-1)} e^{-2c}, each a rounded product of values
    at most one.  Each step adds about one unit to the bounds, so they grow
    linearly in k, plus about 1/c units in all from e^{-c (k-1)^2} times
    the error of e^{-c (2k-1)}; bitlen(K) + log2(1/c) guard bits absorb them.
    """
    c = (pi_cv(W + 8) * pi_cv(W + 8)).rounded(W + 8).mul_fraction(a, W + 4)
    m, em = _scaled_from_cv(exp_cv(-c, W), W)  # e^{-c (2k-1)} at k = 1
    s, es = _smul(m, em, m, em, W)  # e^{-2c}
    q, eq = m, em
    out = []
    for k in range(1, K + 1):
        if k > 1:
            m, em = _smul(m, em, s, es, W)
            q, eq = _smul(q, eq, m, em, W)
        out.append((q, eq))
    return out


def _as_exact_pair(x) -> tuple[int, int, ExactLike]:
    """(num, den, input error bound): the approximation is num / den, den > 0,
    read off a certified value's integers without forming a Fraction."""
    if isinstance(x, CertifiedValue):
        return x.m << max(0, -x.s), 1 << max(0, x.s), x.err_fraction()
    x = as_fraction(x)
    return x.numerator, x.denominator, 0


# ---------------------------------------------------------------------------
# pi


@lru_cache(maxsize=None)
def _pi_bucket(P: int) -> CertifiedValue:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239); alternating series, so each
    # remainder is below the first omitted term.
    def atan_inv(q: int, tail_exp: int) -> Fraction:
        total = Fraction(0)
        j = 0
        sign = 1
        while True:
            term = Fraction(1, (2 * j + 1) * q ** (2 * j + 1))
            if term < Fraction(1, 1 << tail_exp):
                break
            total += sign * term
            sign = -sign
            j += 1
        return total

    guard = P + 8
    machin = 16 * atan_inv(5, guard) - 4 * atan_inv(239, guard)
    return CertifiedValue.from_fraction(machin, guard).widen(20, guard)


def pi_cv(p: int) -> CertifiedValue:
    P = ((max(p, 16) + 63) // 64) * 64
    return _pi_bucket(P)


@lru_cache(maxsize=None)
def recip_pi_cv(p: int) -> CertifiedValue:
    return recip_cv(pi_cv(p + 4), p)


def sqrt_pi_cv(p: int) -> CertifiedValue:
    return sqrt_cv(pi_cv(p + 4), p)


@lru_cache(maxsize=None)
def recip_sqrt_pi_cv(p: int) -> CertifiedValue:
    return recip_cv(sqrt_pi_cv(p + 4), p)


# ---------------------------------------------------------------------------
# sqrt / reciprocal


def sqrt_cv(x, p: int) -> CertifiedValue:
    """Certified square root; error <= 2**-p plus the propagated input error."""
    num, den, ierr = _as_exact_pair(x)
    if num < 0:
        if num + ierr * den >= 0:  # enclosure straddles zero from below
            num = 0
        else:
            raise PreconditionError("sqrt of a negative value")
    if num == 0 and ierr == 0:
        return CertifiedValue.zero()
    W = p + 2
    out = CertifiedValue(isqrt((num << (2 * W)) // den), W, 2, W)
    if ierr:
        lo = Fraction(num, den) - ierr
        if lo > 0:
            # |sqrt u - sqrt v| <= |u - v| / (2 sqrt(lo)), and sqrt(lo) >= R / 2^F
            # to at least 16 fractional and 16 significant bits: lo = a / b >=
            # 2^-(e+1) for e = bitlen(b) - bitlen(a), so lo 4^F >= 2^31, R >= 2^15
            a, b = lo.numerator, lo.denominator
            F = 16 + max(0, (b.bit_length() - a.bit_length() + 1) // 2)
            out = out.widen_fraction(ierr * (1 << F) / (2 * isqrt((a << 2 * F) // b)))
        else:  # sqrt(lo + 2 ierr), rounded up to 16 fractional bits
            hi = lo + 2 * ierr
            r = isqrt(_ceil_div(hi.numerator << 32, hi.denominator)) + 1
            out = out.widen_fraction(Fraction(r, 1 << 16))
    return out


def recip_cv(x, p: int) -> CertifiedValue:
    """Certified 1/x for x bounded away from zero."""
    num, den, ierr = _as_exact_pair(x)
    lo = abs(num) - ierr * den  # |x| - ierr, times den
    if lo <= 0:
        raise PreconditionError("reciprocal of a value not bounded away from 0")
    W = p + 2
    m = _round_half_even(den << W, abs(num))
    out = CertifiedValue(m if num > 0 else -m, W, 1, W)
    if ierr:
        out = out.widen_fraction(ierr * den * den / (lo * lo))
    return out


# ---------------------------------------------------------------------------
# exp

_LN2_HI = Fraction(693148, 1000000)   # > ln 2


def exp_cv(x, p: int) -> CertifiedValue:
    """Certified e**x; absolute error <= 2**-p plus propagated input error."""
    num, den, ierr = _as_exact_pair(x)
    if 4 * ierr > 1:
        raise PreconditionError("exp input error too large to propagate")
    # Deeply negative argument: the value itself sits below the target error.
    if num < 0 and -num >= (p + 2) * _LN2_HI * den:
        return CertifiedValue(0, p, 1, p + 1)
    if num > 128 * den:
        raise PreconditionError("exp argument unexpectedly large")

    # the least j with |x| / 2^j <= 1/2, i.e. 2 |num| <= den 2^j: from the
    # bit lengths the quotient lies in (2^(j-1), 2^(j+1)), so j or j + 1
    top = 2 * abs(num)
    j = max(0, top.bit_length() - den.bit_length())
    j += top > den << j
    # the squarings carry the error of e^r up by e^x: ceil(3x/2) >= x log2 e bits
    W = p + 2 * j + 12 + (_ceil_div(3 * num, 2 * den) if num > 0 else 0)
    rv, re = _scaled_from_fraction(num, W, den << j)  # r = x / 2^j
    acc, eacc = 1 << W, 0
    term, eterm = 1 << W, 0
    i = 1
    while True:
        term, eterm = _smul(term, eterm, rv, re, W)
        term, eterm = _sdiv_int(term, eterm, i)
        acc += term
        eacc += eterm
        # tail <= |term| * sum (|r|/(i+1))^k <= |term| for |r| <= 1/2, i >= 1
        if i >= 2 and abs(term) <= 1 and eterm <= 2:
            eacc += abs(term) + eterm + 2
            break
        i += 1
    for _ in range(j):
        acc, eacc = _smul(acc, eacc, acc, eacc, W)
    out = CertifiedValue(acc, W, eacc, W)
    if ierr:
        # |e^(a+d) - e^a| <= e^a (e^|d| - 1) <= 2 e^a |d| for |d| <= 1/2
        out = out.widen_fraction(2 * out.abs_upper() * ierr)
    return out.rounded(p + 4)


# ---------------------------------------------------------------------------
# sin / cos of pi times a rational, reduced exactly


@lru_cache(maxsize=256)
def _trig_pi(num: int, den: int, p: int, odd: bool) -> CertifiedValue:
    """sin(pi f) (odd) or cos(pi f) for f = num / den in lowest terms,
    0 < f < 1/2, within 2^-p.

    Scaled integers only: pi f goes on the scale from pi_cv's integers, and
    the result widens by pi's error times f.  The value is positive, so the
    callers' reductions apply their sign afterwards.  Each reduced angle and
    precision is computed once per process: a rotation's start pair, or two
    angles that reduce alike, ask for the same entry.
    """
    piv = pi_cv(p + 6)
    W = p + 8
    top, bot = piv.m * num << W, den << piv.s  # pi f 2^W = top / bot
    rv = _round_half_even(top, bot)
    re = 0 if top % bot == 0 else 1
    x2, ex2 = _smul(rv, re, rv, re, W)
    acc, eacc = (rv, re) if odd else (1 << W, 0)
    term, eterm = acc, eacc
    k = 0
    while True:
        k += 1
        term, eterm = _smul(term, eterm, x2, ex2, W)
        term, eterm = _sdiv_int(-term, eterm, (2 * k - 1 + odd) * (2 * k + odd))
        acc += term
        eacc += eterm
        # |arg| < 2 after reduction, so the terms decrease once k >= 4 and
        # the alternating tail is below the last added term.
        if k >= 4 and abs(term) <= 1 and eterm <= 2:
            eacc += abs(term) + eterm + 2
            break
    out = CertifiedValue(acc, W, eacc, W).rounded(p + 4)
    # pi's error times f is en num / (den 2^es); widen by it in lowest
    # terms, as widen_fraction would
    top, bot = piv.en * num, den << piv.es
    g = gcd(top, bot)
    top, bot = top // g, bot // g
    es = bot.bit_length() + 4
    return out.widen(_ceil_div(top << es, bot), es)


def sin_pi_mul_cv(r, p: int) -> CertifiedValue:
    """Certified sin(pi * r) for exact rational r, with exact reduction.

    Integer r yields an exact zero, so interval-solver boundary values come
    out exactly zero rather than merely small.
    """
    f = as_fraction(r)
    den = f.denominator
    num = f.numerator % (2 * den)  # exact reduction into [0, 2)
    if den == 1:
        return CertifiedValue.zero()
    neg = num > den
    if neg:
        num -= den  # sin(pi + x) = -sin(x)
    if 2 * num > den:
        num = den - num  # sin(pi - x) = sin(x)
    if 2 * num == den:
        return CertifiedValue.exact(-1 if neg else 1)
    out = _trig_pi(num, den, p, True)
    return -out if neg else out  # rounding half to even commutes with the sign


def cos_pi_mul_cv(r, p: int) -> CertifiedValue:
    """Certified cos(pi * r) for exact rational r, with exact reduction."""
    f = as_fraction(r)
    den = f.denominator
    num = f.numerator % (2 * den)
    if num > den:
        num = 2 * den - num  # cos(2 pi - x) = cos(x)
    neg = 2 * num > den
    if neg:
        num = den - num  # cos(pi - x) = -cos(x)
    if 2 * num == den:
        return CertifiedValue.zero()
    if num == 0:
        return CertifiedValue.exact(-1 if neg else 1)
    out = _trig_pi(num, den, p, False)
    return -out if neg else out


# ---------------------------------------------------------------------------
# Gaussian antiderivative  F(x) = integral_0^x e^{-w^2} dw


def gauss_primitive_cv(x, p: int) -> CertifiedValue:
    """Certified integral of e^{-w^2} over [0, x] for x^2 <= max(64, p).

    The range grows with p so that every argument whose tail e^{-x^2} is
    not yet below 2^-p stays in reach.
    """
    num, den, ierr = _as_exact_pair(x)
    if num * num > max(64, p) * den * den:
        raise PreconditionError("gauss primitive argument out of supported range")
    # intermediate terms reach e^{x^2} before the alternating sum cancels,
    # so widen the working scale accordingly
    guard = 3 * num * num // (2 * den * den) + 1
    W = p + 10 + guard
    rv, re = _scaled_from_fraction(num, W, den)
    x2, ex2 = _smul(rv, re, rv, re, W)
    acc, eacc = rv, re
    pow_, epow = rv, re
    j = 0
    while True:
        j += 1
        pow_, epow = _smul(pow_, epow, x2, ex2, W)
        pow_, epow = _sdiv_int(-pow_, epow, j)
        term, eterm = _sdiv_int(pow_, epow, 2 * j + 1)
        acc += term
        eacc += eterm
        # terms decrease once j >= x^2; the alternating tail is then bounded
        # by the first omitted term
        if abs(term) <= 1 and eterm <= 2 and j * (1 << W) >= abs(x2) + ex2:
            eacc += abs(term) + eterm + 2
            break
        # Once j >= 4x^2 each term is at most 1/4 of the one before, and no
        # term exceeds |x| e^{x^2} < 2^(3/2 x^2 + 3) units, so the stop test
        # holds by j = 19/4 x^2 + W/2 + 3, below this cap: 5 * guard > 15/2 x^2.
        if j > 5 * guard + W // 2 + 16:
            raise AssertionError("gauss primitive series failed to converge")
    out = CertifiedValue(acc, W, eacc, W)
    if ierr:
        out = out.widen_fraction(ierr)  # integrand is bounded by 1
    return out.rounded(p + 4)


# ---------------------------------------------------------------------------
# directed rational powers (plan inequalities with huge exponents)


_POW_BITS = 160  # significant bits each directed-power step keeps


def pow_fraction_upper(base: Fraction, n: int) -> Fraction:
    """Upper bound on base**n (base >= 0), intermediates rounded up."""
    if base < 0:
        raise PreconditionError("directed powers need a nonnegative base")
    result = Fraction(1)
    while n:
        if n & 1:
            result = _round_frac_up(result * base)
        n >>= 1
        if n:
            base = _round_frac_up(base * base)
    return result


def _round_frac_up(f: Fraction) -> Fraction:
    # round upward to _POW_BITS significant bits of the ratio
    num, den = f.numerator, f.denominator
    if num == 0 or (num.bit_length() <= _POW_BITS and den.bit_length() <= _POW_BITS):
        return f
    k = _POW_BITS - (num.bit_length() - den.bit_length())
    if k >= 0:
        return Fraction(_ceil_div(num << k, den), 1 << k)
    return Fraction(_ceil_div(num, den << -k) * (1 << -k))
