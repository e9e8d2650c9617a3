"""Closed forms that tests check against and no solve calls.

The heat-kernel time derivatives ``heat_g`` and ``heat_g_tilde`` of
g(t,x) = x t^(-3/2) e^(-x^2/t) and g~(t,x) = t^(-1/2) e^(-x^2/t)
(``heat_g_rational_core`` is the exact finite sum S with
g^(n) = x t^(-3/2) e^(-x^2/t) S, since the half-integer Gamma ratios are
rational, and g~^(n) follows from the Leibniz rule on t g / x), the
harmonic dimension ``sph_count``, and the series tail identities
``arith_geom_sum``, ``higher_arith_geom`` and ``geometric_tail``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from certheat.certified import CertifiedValue, exp_cv, recip_cv, sqrt_cv
from certheat.dyadic import as_fraction
from certheat.errors import PreconditionError
from certheat.evaluable import _log2_ceil


# ---------------------------------------------------------------------------
# the heat-kernel derivative family g^(n), g~^(n)


def _gamma_ratio(n: int, m: int) -> Fraction:
    """Gamma(3/2+n) / Gamma(3/2+n-m) as an exact rational."""
    out = Fraction(1)
    for i in range(m):
        out *= Fraction(2 * (n - i) + 1, 2)
    return out


def heat_g_rational_core(n: int, t, x) -> Fraction:
    """S with g^(n)(t,x) = x t^(-3/2) e^(-x^2/t) S; exact rational."""
    t, x = as_fraction(t), as_fraction(x)
    if t <= 0:
        raise PreconditionError("t must be positive")
    total = Fraction(0)
    for m in range(n + 1):
        total += ((-1) ** m * comb(n, m) * _gamma_ratio(n, m)
                  * x ** (2 * (n - m)) * t ** -(2 * n - m))
    return total


def _assemble_gstyle(rational_part: Fraction, t: Fraction, x: Fraction, p: int) -> CertifiedValue:
    """rational_part * t^(-1/2) * e^(-x^2/t), certified to 2^-p."""
    if rational_part == 0:
        return CertifiedValue.zero()
    pp = p + 10 + max(0, _log2_ceil(abs(rational_part) + 1))
    rsqrt_t = recip_cv(sqrt_cv(t, pp), pp)
    ex = exp_cv(-x * x / t, pp)
    out = (rsqrt_t * ex).mul_fraction(rational_part, pp)
    return out.rounded(p + 4)


def heat_g(n: int, t, x, p: int) -> CertifiedValue:
    """Certified n-th time derivative of g(t,x) = x t^(-3/2) e^(-x^2/t)."""
    t, x = as_fraction(t), as_fraction(x)
    if t <= 0:
        raise PreconditionError("t must be positive")
    if n < 0:
        raise PreconditionError("derivative order must be nonnegative")
    if x == 0:
        return CertifiedValue.zero()
    S = heat_g_rational_core(n, t, x)
    return _assemble_gstyle(x * S / t, t, x, p)


def heat_g_tilde(n: int, t, x, p: int) -> CertifiedValue:
    """Certified n-th time derivative of g~(t,x) = t^(-1/2) e^(-x^2/t).

    Computed through the Leibniz rule on t * g(t,x) / x, which gives
    (t g^(n) + n g^(n-1)) / x; the division by x cancels symbolically.
    """
    t, x = as_fraction(t), as_fraction(x)
    if t <= 0:
        raise PreconditionError("t must be positive")
    if x == 0:
        raise PreconditionError("x must be nonzero")
    Q = t * heat_g_rational_core(n, t, x)
    if n >= 1:
        Q += n * heat_g_rational_core(n - 1, t, x)
    return _assemble_gstyle(Q / t, t, x, p)


# ---------------------------------------------------------------------------
# harmonic dimensions and series tail identities


def sph_count(d: int, l: int) -> int:
    """Dimension N(d,l) of the degree-l harmonics on the (d-1)-sphere."""
    if d < 2 or l < 0:
        raise PreconditionError("need d >= 2 and l >= 0")
    if l == 0:
        return 1
    val = Fraction(2 * l + d - 2, l) * comb(l + d - 3, l - 1)
    if val.denominator != 1:
        raise AssertionError(f"N({d},{l}) came out non-integral")
    return int(val)


def arith_geom_sum(m: int, x) -> Fraction:
    """Sum of (k+1) x^k for k >= m, as an exact rational.

    >>> arith_geom_sum(0, Fraction(1, 2))
    Fraction(4, 1)
    >>> arith_geom_sum(1, Fraction(1, 2))
    Fraction(3, 1)
    """
    x = as_fraction(x)
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    if abs(x) >= 1:
        raise PreconditionError("arith_geom_sum requires |x| < 1")
    return x ** m * (m * (1 - x) + 1) / (1 - x) ** 2


def higher_arith_geom(m: int, p: int, x) -> Fraction:
    """Sum of x^k (k+p)!/k! for k >= m, exact.

    Computed by differentiating x^(p+m)/(1-x) p times term by term, keeping
    coefficients of x^a/(1-x)^b exactly, then evaluating at x.
    """
    x = as_fraction(x)
    if m < 0 or p < 0:
        raise PreconditionError("m and p must be nonnegative")
    if abs(x) >= 1:
        raise PreconditionError("higher_arith_geom requires |x| < 1")
    # terms: (a, b) -> coefficient, meaning coeff * x^a / (1-x)^b
    terms = {(p + m, 1): 1}
    for _ in range(p):
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), c in terms.items():
            if a > 0:
                key = (a - 1, b)
                nxt[key] = nxt.get(key, 0) + c * a
            key = (a, b + 1)
            nxt[key] = nxt.get(key, 0) + c * b
        terms = nxt
    one_minus = 1 - x
    total = Fraction(0)
    for (a, b), c in terms.items():
        total += c * x ** a / one_minus ** b
    return total


def geometric_tail(r, start: int, scale) -> Fraction:
    """scale * r^start / (1 - r): closed form for scale * sum of r^k, k >= start."""
    r = as_fraction(r)
    scale = as_fraction(scale)
    if not 0 < r < 1:
        raise PreconditionError("geometric_tail requires r in (0,1)")
    return scale * r ** start / (1 - r)
