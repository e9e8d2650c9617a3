"""Certified integration.

Two regimes:

* Polynomials, and functions with declared piecewise-linear structure and
  exact evaluation, integrate exactly: the midpoint rule is exact on each
  linear piece, so one exact midpoint value per segment (clipped to the
  requested range) gives the true integral, a rational rounded once.  A
  uniform grid is walked by integer segment index; data that gives its
  midpoint values by index (``segment_value``) is read without building any
  midpoint.
* Generic continuous functions fall back to composite midpoint driven by the
  declared modulus of continuity.  The error bound is (b-a) * 2^-k per the
  modulus contract, which forces a panel count that can be astronomically
  large; a hard cap turns that into QuadratureBudgetError instead of a
  non-terminating loop.  This cost cliff is the point of the benchmark
  harness, not an implementation accident.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Optional

from .certified import (CertifiedValue, _ceil_div, cos_pi_mul_cv,
                        recip_pi_cv, sin_pi_mul_cv)
from .dyadic import as_fraction
from .errors import PreconditionError, QuadratureBudgetError
from .evaluable import EvaluableFunction, _log2_ceil

DEFAULT_MAX_PANELS = 1 << 22


def integrate(fn: EvaluableFunction, lo, hi, p: int,
              max_panels: int = DEFAULT_MAX_PANELS) -> CertifiedValue:
    """Certified integral of fn over [lo, hi] with error <= 2^-p."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo > hi:
        raise PreconditionError("integration range is reversed")
    if lo < fn.domain[0] or hi > fn.domain[1]:
        raise PreconditionError("integration range leaves the function domain")
    if lo == hi:
        return CertifiedValue.zero()
    width = hi - lo
    pe = p + 2 + max(0, _log2_ceil(width))
    total = integral_exact(fn, lo, hi)
    if total is not None:
        return CertifiedValue.from_fraction(total, pe)
    return _integrate_modulus(fn, lo, hi, p, pe, max_panels)


def integral_exact(fn: EvaluableFunction, lo: Fraction,
                   hi: Fraction) -> Optional[Fraction]:
    """Exact integral of fn over [lo, hi] inside its domain, or None.

    Polynomials integrate by their antiderivative.  On declared
    piecewise-linear structure the midpoint rule is exact on each piece, so
    one exact evaluation per piece, clipped to [lo, hi], gives the integral;
    None for any other function.
    """
    if fn.poly_coeffs is not None:
        total = Fraction(0)  # exact antiderivative, no sampling at all
        for i, c in enumerate(fn.poly_coeffs):
            total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
        return total
    if not fn.has_linear_structure():
        return None
    if fn.linear_segments is not None:
        return _uniform_integral(fn, lo, hi)
    grid = fn.segment_grid(lo, hi)
    return sum((fn.eval_exact((a + b) / 2) * (b - a) for a, b in zip(grid, grid[1:])),
               Fraction(0))


def _uniform_integral(fn: EvaluableFunction, lo: Fraction, hi: Fraction) -> Fraction:
    """Midpoint sum over the uniform cells of fn that meet [lo, hi].

    Cells lying inside [lo, hi] are walked by integer index j; the value at
    cell j's midpoint comes from ``fn.segment_value(j)`` when fn declares it,
    otherwise from ``eval_exact`` at a midpoint built from integers.  The
    values are added exactly as numerator sums per denominator and
    multiplied by the common width once.  The parts of cells that [lo, hi]
    clips are separate exact terms on ``eval_exact``.  One evaluation per
    cell or clipped part, no grid list.
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
    mid = fn.segment_value
    if mid is None:
        # the midpoint of cell j is (base + (2j + 1) step) / den
        half = w / 2
        den = math.lcm(a.denominator, half.denominator)
        base = a.numerator * (den // a.denominator)
        step = half.numerator * (den // half.denominator)

        def mid(j: int) -> Fraction:
            return f(Fraction(base + (2 * j + 1) * step, den))

    sums = defaultdict(int)  # denominator -> sum of numerators
    for j in range(first, last):
        v = mid(j)
        sums[v.denominator] += v.numerator
    if x1 < hi:
        ends += f((x1 + hi) / 2) * (hi - x1)
    return ends + w * sum((Fraction(n, d) for d, n in sums.items()), Fraction(0))


def _integrate_modulus(fn: EvaluableFunction, lo: Fraction, hi: Fraction,
                       p: int, pe: int, max_panels: int) -> CertifiedValue:
    width = hi - lo
    k = p + 1 + max(0, _log2_ceil(width))
    spacing = Fraction(2, 2 ** fn.modulus(k))  # panel width with half-width 2^-m(k)
    panels = _ceil_div(width.numerator * spacing.denominator,
                       width.denominator * spacing.numerator)
    if panels > max_panels:
        raise QuadratureBudgetError(
            f"modulus-driven quadrature needs {panels} panels "
            f"(cap {max_panels}); declare structure or lower precision")
    w = width / panels
    pp = pe + panels.bit_length() + 2  # per-panel rounding must not pile up
    acc = CertifiedValue.zero()
    x = lo + w / 2
    for _ in range(panels):
        acc = acc + fn.eval_cv(x, pp).mul_fraction(w, pp)
        x += w
    # modulus bound: each panel contributes at most (panel width) * 2^-k
    return acc.widen_fraction(width * Fraction(1, 2 ** k))


# ---------------------------------------------------------------------------
# closed forms for (linear) x (trig) pieces, angles in units of pi
#
# All arguments rational; trig arguments reduce exactly, so these are the
# workhorses of the exact Fourier-coefficient paths.


def int_linear_sin_pi(c0, c1, a, b, k: int, phase, p: int) -> CertifiedValue:
    """Integral over [a,b] of (c0 + c1 rho) sin(pi (k rho + phase)) d rho."""
    return _int_linear_trig_pi("sin", c0, c1, a, b, k, phase, p)


def int_linear_cos_pi(c0, c1, a, b, k: int, phase, p: int) -> CertifiedValue:
    """Integral over [a,b] of (c0 + c1 rho) cos(pi (k rho + phase)) d rho."""
    return _int_linear_trig_pi("cos", c0, c1, a, b, k, phase, p)


def int_pieces_trig_pi(pieces, k: int, phase, p: int,
                       kinds=("sin", "cos")) -> list[CertifiedValue]:
    """For each kind, the sum over pieces (c0, c1, a, b) of int_linear_<kind>_pi.

    Equal, bit for bit, to adding up the single-piece integrals, but sin and
    cos of pi (k rho + phase) are evaluated once per breakpoint rho and
    shared between neighbouring pieces and between the kinds.
    """
    phase = as_fraction(phase)
    # one working scale for every piece: the trig memo is shared between them
    pp = p + 6 + max((_size_bits(c0, c1, a, b) for c0, c1, a, b in pieces), default=0)
    trig = _trig_at(k, phase, pp)
    out = []
    for kind in kinds:
        acc = CertifiedValue.zero()
        for c0, c1, a, b in pieces:
            acc = acc + _int_linear_trig_pi(kind, c0, c1, a, b, k, phase, p, pp, trig)
        out.append(acc)
    return out


def _size_bits(c0, c1, a, b) -> int:
    """log2 of |c0| + |c1| max(|a|, |b|), at least 0: the most the linear
    factor c0 + c1 rho multiplies the trig values' rounding errors by."""
    size = abs(c0) + abs(c1) * max(abs(a), abs(b))
    return _log2_ceil(size) if size > 1 else 0


def _trig_at(k: int, phase: Fraction, pp: int):
    """rho -> (sin, cos) of pi (k rho + phase) at precision pp, memoised."""
    memo = {}

    def at(rho: Fraction) -> tuple[CertifiedValue, CertifiedValue]:
        v = memo.get(rho)
        if v is None:
            x = k * rho + phase
            v = memo[rho] = (sin_pi_mul_cv(x, pp), cos_pi_mul_cv(x, pp))
        return v

    return at


def _int_linear_trig_pi(kind: str, c0, c1, a, b, k: int, phase, p: int,
                        pp: int | None = None, trig=None) -> CertifiedValue:
    c0, c1, a, b = map(as_fraction, (c0, c1, a, b))
    phase = as_fraction(phase)
    if k == 0:
        area = c0 * (b - a) + c1 * (b * b - a * a) / 2
        trig0 = sin_pi_mul_cv if kind == "sin" else cos_pi_mul_cv
        # the area multiplies the trig value's error
        return trig0(phase, p + 4 + _size_bits(area, 0, 0, 0)).mul_fraction(area, p)
    if pp is None:
        pp = p + 6 + _size_bits(c0, c1, a, b)
    rp = recip_pi_cv(pp)
    if trig is None:
        trig = _trig_at(k, phase, pp)

    def F(rho: Fraction) -> CertifiedValue:
        # antiderivative: -lin cos/(pi k) + c1 sin/(pi k)^2 for sin, and
        # lin sin/(pi k) + c1 cos/(pi k)^2 for cos
        lin = c0 + c1 * rho
        s, c = trig(rho)
        if kind == "sin":
            t1, t2 = c.mul_fraction(-lin, pp) * rp, s.mul_fraction(c1, pp) * rp * rp
        else:
            t1, t2 = s.mul_fraction(lin, pp) * rp, c.mul_fraction(c1, pp) * rp * rp
        t1 = t1.mul_fraction(Fraction(1, k), pp)
        t2 = t2.mul_fraction(Fraction(1, k * k), pp)
        return t1 + t2

    return (F(b) - F(a)).rounded(p + 4)
