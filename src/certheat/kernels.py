"""Heat-kernel derivative families and spherical harmonics.

* ``heat_g`` and ``heat_g_tilde`` evaluate the n-th time derivatives of
  g(t,x) = x t^(-3/2) e^(-x^2/t) and g~(t,x) = t^(-1/2) e^(-x^2/t).
  Everything rational about them is exact: ``heat_g_rational_core`` gives
  the finite sum S with g^(n)(t,x) = x t^(-3/2) e^(-x^2/t) S(n,t,x) (the
  half-integer Gamma ratios are rational, so S is), and g~^(n) follows from
  the Leibniz rule on t g / x.
* ``real_sph_harmonic_3d`` serves the ball solver; ``sph_count``, the
  dimension of the degree-l harmonics, serves only ``verify``'s checks.

The half-line solvers do not use these families: they sum closed forms in
the repeated erfc integrals (:mod:`certheat.heat`).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .certified import (CertifiedValue, cos_pi_mul_cv, exp_cv, recip_cv,
                        recip_pi_cv, sin_pi_mul_cv, sqrt_cv)
from .dyadic import as_fraction
from .errors import PreconditionError
from .evaluable import _log2_ceil


# ---------------------------------------------------------------------------
# heat-kernel derivative family g^(n), g~^(n)


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
# spherical harmonics (d = 3 explicit; general d counting)


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


def _assoc_legendre_cs(l: int, m: int, c: CertifiedValue, s: CertifiedValue,
                       p: int) -> CertifiedValue:
    """P_l^m given certified cos and sin of the polar angle."""
    pp = p + 8
    # seed P_m^m = (-1)^m (2m-1)!! s^m, then climb l with the standard
    # three-term recurrence (Condon-Shortley phase included)
    df = 1
    for i in range(1, 2 * m, 2):
        df *= i
    cur = CertifiedValue.exact((-1) ** m * df)
    for _ in range(m):
        cur = (cur * s).rounded(pp)
    if l == m:
        return cur.rounded(p + 4)
    prev = cur
    cur = (c * cur).mul_fraction(2 * m + 1, pp)
    for ll in range(m + 2, l + 1):
        nxt = (c * cur).mul_fraction(Fraction(2 * ll - 1, ll - m), pp) - \
            prev.mul_fraction(Fraction(ll + m - 1, ll - m), pp)
        prev, cur = cur, nxt.rounded(pp)
    return cur.rounded(p + 4)


def real_sph_harmonic_3d(l: int, m: int, theta, phi, p: int) -> CertifiedValue:
    """Real orthonormal Y_{l,m} on S^2; theta, phi in units of pi.

    theta in [0,1] is the polar angle, phi in [0,2] the azimuth; m runs over
    -l..l with the cos/sin real convention.
    """
    if abs(m) > l:
        raise PreconditionError("need |m| <= l")
    theta, phi = as_fraction(theta), as_fraction(phi)
    pp = p + 10
    c = cos_pi_mul_cv(theta, pp)
    s = sin_pi_mul_cv(theta, pp)
    am = abs(m)
    leg = _assoc_legendre_cs(l, am, c, s, pp)
    ratio = Fraction(2 * l + 1) * Fraction(factorial(l - am), factorial(l + am)) / 4
    norm = sqrt_cv(recip_pi_cv(pp).mul_fraction(ratio, pp), pp)
    out = (norm * leg).rounded(pp)
    if m > 0:
        out = (out * sqrt_cv(2, pp) * cos_pi_mul_cv(m * phi, pp)).rounded(pp)
    elif m < 0:
        out = (out * sqrt_cv(2, pp) * sin_pi_mul_cv(am * phi, pp)).rounded(pp)
    return out.rounded(p + 4)
