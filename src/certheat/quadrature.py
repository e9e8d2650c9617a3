"""Certified integration of data with exact structure.

Polynomials, declared linear pieces and uniform grids that sum their own
midpoint values integrate exactly: the midpoint rule is exact on each linear
piece, so one exact midpoint value per piece (clipped to the requested range)
gives the true integral, a rational rounded once.  A uniform grid is walked
by integer segment index and hands over each whole run of indices in one
``segment_sum`` call, without building any midpoint.  Data without such
structure is refused: no solver integrates anything else.

Piecewise-linear data times sin or cos of a rational multiple of pi has a
closed form with one term per point of its jump list (``pl_jumps``),
:func:`int_pl_trig_pi`.  Summed over the modes of a disk or interval
solution, the same form is one rotation per point (:func:`breakpoint_series`),
which gives the sum's sine and cosine parts together.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .certified import (CertifiedValue, cos_pi_mul_cv, recip_pi_cv, rotation_sum,
                        sin_pi_mul_cv)
from .dyadic import as_fraction
from .errors import PreconditionError
from .evaluable import EvaluableFunction, _log2_ceil, pl_jumps


def integrate(fn: EvaluableFunction, lo, hi, p: int) -> CertifiedValue:
    """Certified integral of fn over [lo, hi] with error <= 2^-p: the exact
    integral (:func:`integral_exact`) rounded once."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo > hi:
        raise PreconditionError("integration range is reversed")
    if lo < fn.domain[0] or hi > fn.domain[1]:
        raise PreconditionError("integration range leaves the function domain")
    if lo == hi:
        return CertifiedValue.zero()
    total = integral_exact(fn, lo, hi)
    if total is None:
        raise PreconditionError(
            "integrand needs exact structure: polynomial, linear pieces or a uniform grid")
    return CertifiedValue.from_fraction(total, p + 2 + max(0, _log2_ceil(hi - lo)))


def integral_exact(fn: EvaluableFunction, lo: Fraction,
                   hi: Fraction) -> Optional[Fraction]:
    """Exact integral of fn over [lo, hi] inside its domain, or None.

    Polynomials integrate by their antiderivative.  On linear pieces the
    midpoint rule is exact, so each declared piece, clipped to [lo, hi],
    gives its midpoint value times its width, and a uniform grid that sums
    its midpoint values (``segment_sum``) is summed by
    :func:`_uniform_integral`; None for any other function.
    """
    if fn.poly_coeffs is not None:
        total = Fraction(0)  # exact antiderivative, no sampling at all
        for i, c in enumerate(fn.poly_coeffs):
            total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
        return total
    if fn.pieces is not None:
        cut = [(c0, c1, max(a, lo), min(b, hi)) for c0, c1, a, b in fn.pieces]
        return sum(((c0 + c1 * (a + b) / 2) * (b - a) for c0, c1, a, b in cut if a < b),
                   Fraction(0))
    if fn.segment_sum is None or fn.eval_exact is None:
        return None
    return _uniform_integral(fn, lo, hi)


def _uniform_integral(fn: EvaluableFunction, lo: Fraction, hi: Fraction) -> Fraction:
    """Midpoint sum over the uniform cells of fn that meet [lo, hi].

    Cells lying inside [lo, hi] form one run of integer indices
    first .. last - 1, whose exact sum of midpoint values is one
    ``segment_sum`` call; the sum is multiplied by the common width once.
    The parts of cells that [lo, hi] clips are separate exact terms on
    ``eval_exact``, one evaluation each; no grid list.
    """
    a, b = fn.domain
    f = fn.eval_exact
    w = (b - a) / fn.linear_segments
    first, last = math.ceil((lo - a) / w), math.floor((hi - a) / w)
    if first > last:  # [lo, hi] lies inside one cell
        return f((lo + hi) / 2) * (hi - lo)
    x0, x1 = a + first * w, a + last * w
    ends = Fraction(0)
    if lo < x0:
        ends += f((lo + x0) / 2) * (x0 - lo)
    if x1 < hi:
        ends += f((x1 + hi) / 2) * (hi - x1)
    return ends + w * fn.segment_sum(first, last)


# ---------------------------------------------------------------------------
# closed forms for piecewise-linear data times trig, angles in units of pi
#
# All arguments rational; trig arguments reduce exactly, so these are exact
# up to the certified rounding of sin, cos and 1/pi.


def int_linear_sin_pi(c0, c1, a, b, k: int, phase, p: int) -> CertifiedValue:
    """Integral over [a,b] of (c0 + c1 rho) sin(pi (k rho + phase)) d rho."""
    return int_pl_trig_pi([(c0, c1, a, b)], k, phase, p)[0]


def int_linear_cos_pi(c0, c1, a, b, k: int, phase, p: int) -> CertifiedValue:
    """Integral over [a,b] of (c0 + c1 rho) cos(pi (k rho + phase)) d rho."""
    return int_pl_trig_pi([(c0, c1, a, b)], k, phase, p)[1]


def int_pl_trig_pi(pieces, k: int, phase, p: int) -> tuple[CertifiedValue, CertifiedValue]:
    """Integrals of g times sin and of g times cos of pi (k rho + phase), each
    within 2^-p, for any integer k.

    g is continuous and piecewise linear, given as contiguous pieces
    (c0, c1, a, b) with g = c0 + c1 rho on [a, b].  For k != 0, u = pi k and
    t(rho) = pi (k rho + phase), integrating by parts twice leaves one term
    per point rho_j of :func:`pl_jumps`, where g (zero outside [a, b])
    jumps by J_j in value and D_j in slope:

        int g e^{i t} = -sum_j (J_j e^{i t(rho_j)} / (i u) + D_j e^{i t(rho_j)} / u^2).

    Terms whose angles agree mod 2 merge first, so for periodic data the end
    values cancel and the end slopes leave the jump at the seam.  Each
    remaining point costs one sin and one cos; 1/pi and 1/pi^2 are formed
    once per call.
    """
    phase = as_fraction(phase)
    pieces = [tuple(map(as_fraction, piece)) for piece in pieces]
    if k == 0:
        area = sum((c0 * (b - a) + c1 * (b * b - a * a) / 2 for c0, c1, a, b in pieces),
                   Fraction(0))
        pp = p + 4 + (_log2_ceil(abs(area)) if abs(area) > 1 else 0)  # area scales the error
        return (sin_pi_mul_cv(phase, pp).mul_fraction(area, p),
                cos_pi_mul_cv(phase, pp).mul_fraction(area, p))
    # angle mod 2 -> (weight of e^{i t} / (i u), weight of e^{i t} / u^2),
    # the ends first (so the error bounds add in the same order every time)
    jumps = pl_jumps(pieces)
    points: dict[Fraction, list[Fraction]] = {}
    for rho, J, D in [jumps[0], jumps[-1], *(j for j in jumps[1:-1] if j[2])]:
        vw = points.setdefault((k * rho + phase) % 2, [Fraction(0), Fraction(0)])
        vw[0] -= J
        vw[1] -= D
    size = sum((abs(v) + abs(w) for v, w in points.values()), Fraction(0))
    pp = p + 6 + (_log2_ceil(size) if size > 1 else 0)
    vs = vc = ds = dc = CertifiedValue.zero()
    for x, (v, w) in points.items():
        if v or w:
            s, c = sin_pi_mul_cv(x, pp), cos_pi_mul_cv(x, pp)
            vs, vc = vs + c.mul_fraction(v, pp), vc + s.mul_fraction(v, pp)
            ds, dc = ds + s.mul_fraction(w, pp), dc + c.mul_fraction(w, pp)
    rp = recip_pi_cv(pp)
    rp2 = (rp * rp).rounded(pp + 4)
    ik, ik2 = Fraction(1, k), Fraction(1, k * k)
    # Im: -[g cos t] / u + [g' sin t] / u^2;  Re: [g sin t] / u + [g' cos t] / u^2
    sin_int = (ds * rp2).mul_fraction(ik2, pp) - (vs * rp).mul_fraction(ik, pp)
    cos_int = (dc * rp2).mul_fraction(ik2, pp) + (vc * rp).mul_fraction(ik, pp)
    return sin_int.rounded(p + 4), cos_int.rounded(p + 4)


def breakpoint_series(decay: list[tuple[int, int]], cos_terms, sin_terms, W: int,
                      imag: bool) -> tuple[CertifiedValue, Optional[CertifiedValue]]:
    """Real part and, if ``imag``, imaginary part (else None) of the sum
    over k = 1..K of d_k (sum of -i c e^{i k pi t} / (pi k) over (t, c) in
    sin_terms - sum of c e^{-i k pi t} / (pi k)^2 over (t, c) in cos_terms).

    The real part, d_k (sum of c sin(k pi t) / (pi k) - sum of
    c cos(k pi t) / (pi k)^2), is the series :func:`int_pl_trig_pi`'s closed
    form leaves in a solution: end values give 1/k terms, slope jumps 1/k^2
    terms, and the mode decay d_k (r^k on the disk, e^{-c k^2} on the
    interval) arrives as ``decay[k - 1]``, a scaled pair (v, e) at scale W.
    Each term is one :func:`rotation_sum`, whose other part gives the
    imaginary part; 1/pi is formed once.
    """
    rp = recip_pi_cv(W + 4)
    re = CertifiedValue.zero()
    im = re if imag else None
    for terms, power, part, factor in ((cos_terms, 2, 0, -(rp * rp)), (sin_terms, 1, 1, rp)):
        if terms:  # d_k / k^power: the floor adds a unit, and so does e's
            w = [(v // k ** power, e // k ** power + 2) for k, (v, e) in enumerate(decay, 1)]
            acc = other = CertifiedValue.zero()
            for t, c in terms:
                sums = rotation_sum(t, w, W)
                acc = acc + sums[part].mul_fraction(c, W)
                if imag:
                    other = other + sums[1 - part].mul_fraction(c, W)
            re = re + (acc * factor).rounded(W)
            if imag:
                im = im - (other * factor).rounded(W)
    return re, im
