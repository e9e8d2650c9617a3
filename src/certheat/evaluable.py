"""Function handles the solvers can evaluate with certified error.

An :class:`EvaluableFunction` is a continuous function on a closed rational
domain with a sup-norm bound, a certified evaluator and the structure the
solvers read: declared modes (trig polynomial, sine modes, spherical
harmonics), or exact pieces, a uniform grid or polynomial coefficients.
Every constructor here declares one of these (the counting reductions
attach their own identity instead), and the solvers refuse data that
declares none.  Piecewise-linear data is read as its pieces (c0, c1, a, b)
through :func:`linear_pieces`, and every closed form for it keeps one term
per point of its jump list, :func:`pl_jumps`.

Angular convention: functions on the circle are parametrized in units of pi,
so the domain is the rational interval [0, 2] and an argument rho stands for
the angle pi * rho.  This keeps every domain endpoint rational and lets the
trigonometric evaluators reduce arguments exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Optional

from .certified import CertifiedValue, cos_pi_mul_cv, sin_pi_mul_cv
from .dyadic import as_fraction

Pieces = list[tuple[Fraction, Fraction, Fraction, Fraction]]  # (c0, c1, a, b)


def _log2_ceil(f: Fraction) -> int:
    """Smallest j with f <= 2^j (f > 0)."""
    if f <= 0:
        raise ValueError("positive value required")
    # num/den lies in (2^(j-1), 2^(j+1)), so the answer is j or j + 1
    num, den = f.numerator, f.denominator
    j = num.bit_length() - den.bit_length()
    return j if (num <= den << j if j >= 0 else num << -j <= den) else j + 1


def _guard_bits(scale: Fraction) -> int:
    """Extra bits for a sum of evaluated terms whose coefficients total
    ``scale``: each term's error is its coefficient times the term's."""
    return max(0, _log2_ceil(scale)) if scale else 0


class TrigPoly:
    """const + sum s_k sin(k pi rho) + sum c_k cos(k pi rho), rho in [0,2]."""

    def __init__(self, const: Fraction = Fraction(0),
                 sin_coeffs: dict[int, Fraction] | None = None,
                 cos_coeffs: dict[int, Fraction] | None = None):
        self.const = const
        self.sin_coeffs = {} if sin_coeffs is None else sin_coeffs
        self.cos_coeffs = {} if cos_coeffs is None else cos_coeffs
        if any(k < 1 for k in (*self.sin_coeffs, *self.cos_coeffs)):
            raise ValueError("trig modes start at 1; mode 0 is const")

    def degree(self) -> int:
        ks = list(self.sin_coeffs) + list(self.cos_coeffs)
        return max(ks) if ks else 0

    def coeff_l1(self) -> Fraction:
        return sum(map(abs, self.sin_coeffs.values()), Fraction(0)) + \
            sum(map(abs, self.cos_coeffs.values()), Fraction(0))

    def sup_bound(self) -> Fraction:
        return abs(self.const) + self.coeff_l1()

    def eval_cv(self, rho: Fraction, p: int) -> CertifiedValue:
        terms = max(1, len(self.sin_coeffs) + len(self.cos_coeffs))
        pp = p + terms.bit_length() + 2 + _guard_bits(self.coeff_l1())
        acc = CertifiedValue.from_fraction(self.const, pp)
        for k in sorted(self.sin_coeffs):
            acc = acc + sin_pi_mul_cv(k * rho, pp).mul_fraction(self.sin_coeffs[k], pp)
        for k in sorted(self.cos_coeffs):
            acc = acc + cos_pi_mul_cv(k * rho, pp).mul_fraction(self.cos_coeffs[k], pp)
        return acc


class EvaluableFunction:
    """Certified pointwise evaluation with domain, sup bound and structure.

    ``eval_exact`` is exact rational evaluation, when the shape admits one.
    The rest is the structure the solvers read; data declares at least one
    of these, or carries a counting reduction (``hardness``):

    * ``trig_poly``, modes on the circle;
    * ``sph_modes``, orthonormal harmonics {(l, m): c} on the sphere;
    * ``sine_modes``, {k: c_k} with g(x) = sum of c_k sin(k pi x / L) on
      the domain [0, L];
    * ``pieces``, contiguous exact (c0, c1, a, b) with g = c0 + c1 y on
      [a, b], covering the domain continuously;
    * ``linear_segments``, the count of uniform segments g is linear on,
      read by ``eval_exact``;
    * ``poly_coeffs``.

    ``segment_sum(first, last)`` is the exact sum over uniform segments
    first .. last - 1 of the value at each midpoint a + (j + 1/2) w: equal
    to summing eval_exact there, but one call for the whole run.  A grid
    integrates only through it; :func:`linear_pieces` reads any grid.
    """

    def __init__(self, domain: tuple[Fraction, Fraction], sup_bound: Fraction,
                 eval_cv: Callable[[Fraction, int], CertifiedValue],
                 label: str = "",
                 eval_exact: Optional[Callable[[Fraction], Fraction]] = None,
                 trig_poly: Optional[TrigPoly] = None,
                 sine_modes: Optional[dict[int, Fraction]] = None,
                 pieces: Optional[Pieces] = None,
                 linear_segments: Optional[int] = None,
                 segment_sum: Optional[Callable[[int, int], Fraction]] = None,
                 poly_coeffs: Optional[list[Fraction]] = None,
                 smooth_model: object = None,
                 hardness: object = None,
                 sph_modes: Optional[dict[tuple[int, int], Fraction]] = None):
        self.domain = domain
        self.sup_bound = sup_bound
        self.eval_cv = eval_cv
        self.label = label
        self.eval_exact = eval_exact
        self.trig_poly = trig_poly
        self.sine_modes = sine_modes
        self.pieces = pieces
        self.linear_segments = linear_segments
        self.segment_sum = segment_sum
        self.poly_coeffs = poly_coeffs
        self.smooth_model = smooth_model
        self.hardness = hardness
        self.sph_modes = sph_modes


def linear_pieces(fn: EvaluableFunction) -> Optional[Pieces]:
    """(c0, c1, a, b) with fn = c0 + c1 y on [a, b], covering fn's domain.

    The declared ``pieces``, or for uniform data (``linear_segments`` with
    exact evaluation) the pieces read off its grid; None for any other
    function.
    """
    if fn.pieces is not None:
        return fn.pieces
    if fn.linear_segments is None or fn.eval_exact is None:
        return None
    lo, hi = fn.domain
    w = (hi - lo) / fn.linear_segments
    grid = [lo + j * w for j in range(fn.linear_segments)] + [hi]
    return _pieces_through(grid, [fn.eval_exact(x) for x in grid])


def _pieces_through(xs: list[Fraction], ys: list[Fraction]) -> Pieces:
    """The pieces of the linear interpolation through nodes (xs, ys)."""
    slopes = [(yb - ya) / (b - a) for a, b, ya, yb in zip(xs, xs[1:], ys, ys[1:])]
    return [(ya - c1 * a, c1, a, b) for a, b, ya, c1 in zip(xs, xs[1:], ys, slopes)]


def pl_jumps(pieces: Pieces) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(y, J, D) at every end and breakpoint y of contiguous pieces
    (c0, c1, a, b), in order, with the data taken as zero outside them:
    J is the value after y minus the value before, D the slope after minus
    the slope before (either may be zero).  The pieces meet continuously,
    so only the two ends have a J.

    Integrating by parts twice leaves one term per point, and the data is
    the sum of J + D (x - y) over the points y <= x.
    """
    (c0, c1, a, _), (d0, d1, _, b) = pieces[0], pieces[-1]
    inner = [(y, Fraction(0), after - before)
             for (_, before, _, _), (_, after, y, _) in zip(pieces, pieces[1:])]
    return [(a, c0 + c1 * a, c1), *inner, (b, -(d0 + d1 * b), -d1)]


def trig_poly_fn(tp: TrigPoly, label: str = "") -> EvaluableFunction:
    return EvaluableFunction(
        domain=(Fraction(0), Fraction(2)),
        sup_bound=tp.sup_bound(),
        eval_cv=tp.eval_cv,
        label=label or "trig-poly",
        trig_poly=tp,
    )


def sine_modes_fn(modes: dict[int, Fraction], L: Fraction, label: str = "") -> EvaluableFunction:
    """g(x) = sum over k of c_k sin(k pi x / L) on [0, L]."""
    L = as_fraction(L)
    modes = {int(k): as_fraction(c) for k, c in modes.items() if c != 0}
    sup = sum(map(abs, modes.values()), Fraction(0))
    guard = _guard_bits(sup)

    def ev(x: Fraction, p: int) -> CertifiedValue:
        pp = p + max(1, len(modes)).bit_length() + 2 + guard
        acc = CertifiedValue.zero()
        for k in sorted(modes):
            acc = acc + sin_pi_mul_cv(k * x / L, pp).mul_fraction(modes[k], pp)
        return acc

    return EvaluableFunction(
        domain=(Fraction(0), L),
        sup_bound=sup if sup else Fraction(1, 2 ** 30),
        eval_cv=ev,
        label=label or "sine-modes",
        sine_modes=modes,
    )


def piecewise_linear_fn(points: list[tuple[Fraction, Fraction]], label: str = "") -> EvaluableFunction:
    """Linear interpolation through sorted (x, y) rational nodes."""
    pts = [(as_fraction(x), as_fraction(y)) for x, y in points]
    if len(pts) < 2 or any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
        raise ValueError("nodes must be strictly increasing, need at least two")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    pieces = _pieces_through(xs, ys)
    sup = max(map(abs, ys))

    def exact(x: Fraction) -> Fraction:
        if not xs[0] <= x <= xs[-1]:
            raise ValueError(f"{x} outside domain")
        c0, c1, _, _ = pieces[min(bisect_right(xs, x), len(xs) - 1) - 1]
        return c0 + c1 * x

    return EvaluableFunction(
        domain=(xs[0], xs[-1]),
        sup_bound=sup if sup else Fraction(1, 2 ** 30),
        eval_cv=lambda x, p: CertifiedValue.from_fraction(exact(x), p + 2),
        label=label or "piecewise-linear",
        eval_exact=exact,
        pieces=pieces,
    )


def polynomial_fn(coeffs: list[Fraction], domain: tuple[Fraction, Fraction],
                  label: str = "") -> EvaluableFunction:
    """sum c_i x^i with exact rational evaluation; of degree <= 1, also one
    linear piece."""
    cs = [as_fraction(c) for c in coeffs]
    lo, hi = as_fraction(domain[0]), as_fraction(domain[1])
    big = max(abs(lo), abs(hi), Fraction(1))
    sup = sum(abs(c) * big ** i for i, c in enumerate(cs))
    c0, c1 = (cs + [Fraction(0)] * 2)[:2]

    def exact(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    return EvaluableFunction(
        domain=(lo, hi),
        sup_bound=sup if sup else Fraction(1, 2 ** 30),
        eval_cv=lambda x, p: CertifiedValue.from_fraction(exact(x), p + 2),
        label=label or "polynomial",
        eval_exact=exact,
        poly_coeffs=cs,
        pieces=[(c0, c1, lo, hi)] if len(cs) <= 2 else None,
    )


def constant_fn(c: Fraction, domain: tuple[Fraction, Fraction], label: str = "") -> EvaluableFunction:
    return polynomial_fn([as_fraction(c)], domain, label=label or "constant")
