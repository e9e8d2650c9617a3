"""Function handles the solvers can evaluate with certified error.

An :class:`EvaluableFunction` is pointwise access to a continuous function:
a certified evaluator, a modulus of continuity, a closed rational domain and
a sup-norm bound.  Constructors for the shapes the solvers understand attach
structure metadata (trig polynomial, sine modes, piecewise-linear grid,
polynomial coefficients) that lets integration read off exact values instead
of brute-force sampling; the generic pointwise contract still holds either
way.

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
from .dyadic import DyadicDecimal, as_fraction, round_to
from .series import require


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


def lipschitz_modulus(bound: Fraction) -> Callable[[int], int]:
    """Modulus for a function with |f(x)-f(y)| <= bound * |x-y|."""
    shift = max(0, _log2_ceil(bound)) if bound > 0 else 0
    return lambda k: max(k, 0) + shift


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

    def lipschitz_pi_units(self) -> Fraction:
        # d/drho = pi * d/dtau; bound pi by 4
        total = Fraction(0)
        for k, c in self.sin_coeffs.items():
            total += k * abs(c)
        for k, c in self.cos_coeffs.items():
            total += k * abs(c)
        return 4 * total

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
    """Pointwise-evaluable function with modulus, domain and sup bound.

    ``eval_exact`` is exact rational evaluation, when the shape admits one.
    The rest is structure metadata for the exact integration paths:
    ``sine_modes`` is {k: c_k} with g(x) = sum of c_k sin(k pi x / L) on the
    domain [0, L], and ``segment_sum(first, last)`` is the exact sum over
    uniform segments first .. last - 1 of the value at each midpoint
    a + (j + 1/2) w: equal to summing eval_exact there, but one call for the
    whole run.
    """

    def __init__(self, domain: tuple[Fraction, Fraction], sup_bound: Fraction,
                 modulus: Callable[[int], int],
                 eval_cv: Callable[[Fraction, int], CertifiedValue],
                 label: str = "",
                 eval_exact: Optional[Callable[[Fraction], Fraction]] = None,
                 trig_poly: Optional[TrigPoly] = None,
                 sine_modes: Optional[dict[int, Fraction]] = None,
                 breakpoints: Optional[list[Fraction]] = None,
                 linear_segments: Optional[int] = None,
                 segment_sum: Optional[Callable[[int, int], Fraction]] = None,
                 poly_coeffs: Optional[list[Fraction]] = None,
                 smooth_model: object = None,
                 hardness: object = None,
                 sph_modes: Optional[dict[tuple[int, int], Fraction]] = None):
        self.domain = domain
        self.sup_bound = sup_bound
        self.modulus = modulus
        self.eval_cv = eval_cv
        self.label = label
        self.eval_exact = eval_exact
        self.trig_poly = trig_poly
        self.sine_modes = sine_modes
        self.breakpoints = breakpoints
        self.linear_segments = linear_segments
        self.segment_sum = segment_sum
        self.poly_coeffs = poly_coeffs
        self.smooth_model = smooth_model
        self.hardness = hardness
        self.sph_modes = sph_modes

    def eval(self, d: DyadicDecimal, n: int) -> DyadicDecimal:
        """Public contract: |result - f(value(d))| <= 2^-n.  The evaluator
        must certify 2^-(n+1); rounding to n + 1 bits adds at most that."""
        cv = self.eval_cv(d.as_fraction(), n + 1)
        require("evaluator error", cv.err_fraction(), Fraction(1, 1 << (n + 1)))
        return round_to(cv.value_fraction(), n + 1)

    def has_linear_structure(self) -> bool:
        """Declared piecewise-linear, with exact evaluation to read the pieces."""
        return self.eval_exact is not None and (
            self.breakpoints is not None or self.linear_segments is not None)

    def segment_grid(self, lo: Fraction, hi: Fraction) -> list[Fraction]:
        """Breakpoints of linearity clipped to [lo, hi], endpoints included."""
        if self.linear_segments is not None:
            a, b = self.domain
            w = (b - a) / self.linear_segments
            pts = []
            j = (lo - a) // w
            x = a + j * w
            while x < hi:
                if x > lo:
                    pts.append(x)
                x += w
            return [lo] + pts + [hi]
        if self.breakpoints is not None:
            inner = [x for x in self.breakpoints if lo < x < hi]
            return [lo] + inner + [hi]
        raise ValueError("function has no declared linear structure")


def linear_pieces(
        fn: EvaluableFunction) -> Optional[list[tuple[Fraction, Fraction, Fraction, Fraction]]]:
    """(c0, c1, a, b) with fn = c0 + c1 y on [a, b], covering fn's domain.

    Reads the pieces off a declared piecewise-linear structure with exact
    evaluation, or off an affine polynomial (one piece); None for any other
    function.
    """
    if fn.has_linear_structure():
        grid = fn.segment_grid(*fn.domain)
        out = []
        for a, b in zip(grid, grid[1:]):
            ya, yb = fn.eval_exact(a), fn.eval_exact(b)
            c1 = (yb - ya) / (b - a)
            out.append((ya - c1 * a, c1, a, b))
        return out
    if fn.poly_coeffs is not None and len(fn.poly_coeffs) <= 2:
        c0, c1 = (list(fn.poly_coeffs) + [Fraction(0)])[:2]
        return [(c0, c1, *fn.domain)]
    return None


def slope_jumps(pieces) -> list[tuple[Fraction, Fraction]]:
    """(y, slope after y minus slope before) at each breakpoint y between
    contiguous pieces (c0, c1, a, b) where the slope changes."""
    return [(y, after - before) for (_, before, _, _), (_, after, y, _)
            in zip(pieces, pieces[1:]) if after != before]


def trig_poly_fn(tp: TrigPoly, label: str = "") -> EvaluableFunction:
    lip = tp.lipschitz_pi_units()
    return EvaluableFunction(
        domain=(Fraction(0), Fraction(2)),
        sup_bound=tp.sup_bound(),
        modulus=lipschitz_modulus(lip),
        eval_cv=tp.eval_cv,
        label=label or "trig-poly",
        trig_poly=tp,
    )


def sine_modes_fn(modes: dict[int, Fraction], L: Fraction, label: str = "") -> EvaluableFunction:
    """g(x) = sum over k of c_k sin(k pi x / L) on [0, L]."""
    L = as_fraction(L)
    modes = {int(k): as_fraction(c) for k, c in modes.items() if c != 0}
    sup = sum(map(abs, modes.values()), Fraction(0))
    lip = sum((4 * k / L) * abs(c) for k, c in modes.items())

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
        modulus=lipschitz_modulus(lip if lip else Fraction(1)),
        eval_cv=ev,
        label=label or "sine-modes",
        sine_modes=modes,
    )


def piecewise_linear_fn(points: list[tuple[Fraction, Fraction]], label: str = "") -> EvaluableFunction:
    """Linear interpolation through sorted (x, y) rational nodes."""
    pts = [(as_fraction(x), as_fraction(y)) for x, y in points]
    if len(pts) < 2 or any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
        raise ValueError("breakpoints must be strictly increasing, need at least two")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    sup = max(map(abs, ys))
    slope = max(abs((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])) for i in range(len(xs) - 1))

    def exact(x: Fraction) -> Fraction:
        if not xs[0] <= x <= xs[-1]:
            raise ValueError(f"{x} outside domain")
        i = min(bisect_right(xs, x), len(xs) - 1) - 1
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + t * (ys[i + 1] - ys[i])

    return EvaluableFunction(
        domain=(xs[0], xs[-1]),
        sup_bound=sup if sup else Fraction(1, 2 ** 30),
        modulus=lipschitz_modulus(slope if slope else Fraction(1)),
        eval_cv=lambda x, p: CertifiedValue.from_fraction(exact(x), p + 2),
        label=label or "piecewise-linear",
        eval_exact=exact,
        breakpoints=xs,
    )


def polynomial_fn(coeffs: list[Fraction], domain: tuple[Fraction, Fraction],
                  label: str = "") -> EvaluableFunction:
    """sum c_i x^i with exact rational evaluation."""
    cs = [as_fraction(c) for c in coeffs]
    lo, hi = as_fraction(domain[0]), as_fraction(domain[1])
    big = max(abs(lo), abs(hi), Fraction(1))
    sup = sum(abs(c) * big ** i for i, c in enumerate(cs))
    lip = sum(i * abs(c) * big ** (i - 1) for i, c in enumerate(cs) if i)

    def exact(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    return EvaluableFunction(
        domain=(lo, hi),
        sup_bound=sup if sup else Fraction(1, 2 ** 30),
        modulus=lipschitz_modulus(lip if lip else Fraction(1)),
        eval_cv=lambda x, p: CertifiedValue.from_fraction(exact(x), p + 2),
        label=label or "polynomial",
        eval_exact=exact,
        poly_coeffs=cs,
    )


def constant_fn(c: Fraction, domain: tuple[Fraction, Fraction], label: str = "") -> EvaluableFunction:
    return polynomial_fn([as_fraction(c)], domain, label=label or "constant")
