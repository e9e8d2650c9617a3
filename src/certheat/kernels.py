"""Real spherical harmonics on S^2, for the ball solver.

``real_sph_harmonic_3d`` gives the real orthonormal Y_{l,m} within 2^-p at
any degree: P_l^m and its norm grow and shrink like factorials in l + m, so
the norm is formed at relative precision, and the working precision grows
with the length of the Legendre recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .certified import CertifiedValue, cos_pi_mul_cv, recip_pi_cv, sin_pi_mul_cv, sqrt_cv
from .dyadic import as_fraction
from .errors import PreconditionError


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
    am = abs(m)
    # the upward recurrence's error bounds outgrow P_l^m by up to 1 + sqrt 2
    # per step (m = 0; less for larger m, measured to l = 40): 2 bits a step
    pp = p + 10 + 2 * (l - am)
    c = cos_pi_mul_cv(theta, pp)
    s = sin_pi_mul_cv(theta, pp)
    leg = _assoc_legendre_cs(l, am, c, s, pp)
    # the norm sqrt((2l+1) / (4 pi big)), big = (l+m)!/(l-m)!, is about
    # 1/sqrt(big) while |P_l^m| <= sqrt(big): take the root of 4^k times it,
    # with 4^k >= big, and shift back, so it keeps its relative precision
    big = factorial(l + am) // factorial(l - am)
    k = (big.bit_length() + 1) // 2
    norm = sqrt_cv(recip_pi_cv(pp).mul_fraction(Fraction((2 * l + 1) << (2 * k), 4 * big), pp),
                   pp).mul_exact(Fraction(1, 1 << k))
    out = (norm * leg).rounded(pp)
    if m > 0:
        out = (out * sqrt_cv(2, pp) * cos_pi_mul_cv(m * phi, pp)).rounded(pp)
    elif m < 0:
        out = (out * sqrt_cv(2, pp) * sin_pi_mul_cv(am * phi, pp)).rounded(pp)
    return out.rounded(p + 4)
