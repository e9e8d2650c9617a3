"""Certified Dirichlet solvers for the Laplace equation on the unit disk and
unit ball, plus the counting-reduction boundary construction.

Angles are kept in units of pi throughout (an angle value a means a*pi
radians), so the angular domain is the rational box [0,2] and every
trigonometric call reduces its argument exactly.  Fourier coefficients are
indexed with a_k the sine coefficient and b_k the cosine coefficient.

The solvers follow one discipline: an exact rational plan fixes the series
order and splits the error budget, certified arithmetic carries the partial
sums, and the analytic tail bound is added to the final error envelope.  The
plan records every inequality it relied on, so it can be re-audited later
with exact comparisons only.

Piecewise-linear disk data (``linear_pieces``) forms no Fourier
coefficient: integrating by parts twice leaves one series per point of the
data's jump list (``pl_jumps``, the ends merged into the seam), summed by one
rotation each (:func:`_solve_disk_pl`).  The counting-reduction data
(:class:`DiskReduction`) sums the same series over its piecewise-linear
gtilde's jump list and reads both of its parts, since the kernel factor
mixes each mode with its neighbours; data of no such kind is refused.

Data given as finitely many declared modes (trig polynomials on the disk,
spherical harmonics on the ball) has an exactly finite solution: every mode
is summed, nothing is left over, and the plan's order is the top declared
degree.  No ball solve counts harmonics (``kernels.sph_count`` serves
``verify`` only).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable

from .certified import CertifiedValue, _exact_cv, cos_pi_mul_cv, sin_pi_mul_cv
from .dyadic import as_fraction
from .errors import PreconditionError
from .evaluable import EvaluableFunction, TrigPoly, _log2_ceil, linear_pieces, pl_jumps
from .kernels import real_sph_harmonic_3d
from .quadrature import breakpoint_series, integral_exact
from .record import Record
from .series import (TruncationPlan, declared_modes_plan, geometric_cap, point_order,
                     require)


class DiskProblem(Record):
    """Dirichlet data on the unit circle with a guaranteed evaluation radius.

    g lives on [0,2] in pi-units and declares trig modes, linear pieces or a
    :class:`DiskReduction` (``reduction``, else None); r0 < 1 bounds the
    radii r a solve takes, and the plan's order is what a solve at r0 sums.
    One solve plans at its own r; many solves plan once at their largest.
    ``pieces`` is ``linear_pieces(g)``, read once here for every solve; so
    are, when g has pieces or is reduction data, what :func:`_solve_disk_pl`
    reads off them (gtilde's, for reduction data): the ``jumps`` (y, J, D)
    of ``pl_jumps`` where something jumps, with the points at 0 and 2 merged
    into the seam's (J = g(0) - g(2), usually 0), their ``size`` sum
    |J| + |D| and the exact ``area`` over [0, 2].  These derived fields take
    no part in equality or ``repr``.
    """

    _fields = ("g", "r0")

    def __init__(self, g: EvaluableFunction, r0: Fraction):
        self.g = g
        self.r0 = as_fraction(r0)
        self.jumps = self.size = self.area = None
        if not 0 <= self.r0 < 1:
            raise PreconditionError("radius r must lie in [0,1)")
        lo, hi = self.g.domain
        if (lo, hi) != (Fraction(0), Fraction(2)):
            raise PreconditionError("boundary data must live on [0,2] in pi-units")
        self.pieces = pieces = linear_pieces(self.g)
        hard = self.g.hardness
        self.reduction = red = hard if isinstance(hard, DiskReduction) else None
        if pieces is None and self.g.trig_poly is None and red is None:
            raise PreconditionError("boundary data must declare trig modes or linear pieces")
        a = self.g.eval_cv(Fraction(0), 20)
        b = self.g.eval_cv(Fraction(2), 20)
        gap = abs(a.value_fraction() - b.value_fraction())
        if gap > a.err_fraction() + b.err_fraction() + Fraction(1, 2 ** 18):
            raise PreconditionError("boundary data is not periodic at the seam")
        if pieces is not None or red is not None:
            (_, j0, d0), *inner, (_, j2, d2) = pl_jumps(pieces) if red is None else red.jumps
            self.jumps = [(y, J, D) for y, J, D in [(Fraction(0), j0 + j2, d0 + d2), *inner]
                          if J or D]  # the seam first, then in order
            self.size = sum((abs(J) + abs(D) for _, J, D in self.jumps), Fraction(0))
            self.area = integral_exact(self.g, Fraction(0), Fraction(2)) if red is None \
                else red.area


# ---------------------------------------------------------------------------
# Fourier coefficients


def fourier_coeffs(g: EvaluableFunction, k: int, prec: int):
    """Certified (a_k, b_k) with a_k the sine and b_k the cosine coefficient.

    a_k = (1/pi) * integral of g sin(k tau) over a full period, which in
    pi-units is the plain integral of g(rho) sin(k pi rho) over [0,2];
    likewise for b_k with cosine (so b_0 is twice the mean of g).  Declared
    trig modes are read off; any other data is refused, since its solve
    forms no coefficient (:func:`_solve_disk_pl`).
    """
    if k < 0:
        raise PreconditionError("coefficient index must be nonnegative")
    tp = g.trig_poly
    if tp is None:
        raise PreconditionError("Fourier coefficients need declared trig modes")
    a = tp.sin_coeffs.get(k, Fraction(0))
    b = 2 * tp.const if k == 0 else tp.cos_coeffs.get(k, Fraction(0))
    return _exact_cv(a, prec), _exact_cv(b, prec)


# ---------------------------------------------------------------------------
# disk solver


_PI_LO = Fraction(157, 50)  # < pi


def _point_tail(p: DiskProblem, r: Fraction) -> Callable[[int], Fraction]:
    """Bound on what the series drops past order m at radius r, as a
    function of m.

    The series (:func:`_solve_disk_pl`) sums c_k r^k e^{i pi k theta} over
    k <= m for piecewise-linear g, and c_k r^(k-1) e^{i pi k theta} (S0) for
    reduction data, with c_k the complex Fourier coefficients of g or of
    gtilde.  2 |c_k| is at most twice their sup and, from the jump list,
    sum |D_j| / (pi k)^2 + sum |J_j| / (pi k), so the terms k > m of
    sum 2 |c_k| r^(k-1) are at most the lesser of the two sums past m times
    r^m / (1 - r).  Piecewise-linear data charges that times r.  The
    reduction's combination weighs what S0 drops by 2 ((1 + r0^2) r +
    r0 (1 + r^2)) / (1 - r0^2), half of which it charges, since |c_k| is
    half of 2 |c_k|; at r0 = 0 that is r again.  Each bound is an exact
    rational that grows with r, so the order found at r0 serves every
    r <= r0.  What does not depend on m is formed once, outside the
    point-order search.
    """
    red = p.reduction
    if red is None:
        sup, weight = p.g.sup_bound, r
    else:
        r0 = red.r0
        sup = red.gtilde.sup_bound
        weight = ((1 + r0 * r0) * r + r0 * (1 + r * r)) / (1 - r0 * r0)
    scale = weight / (1 - r)
    slope_part = scale * sum((abs(D) for _, _, D in p.jumps), Fraction(0)) / (_PI_LO * _PI_LO)
    value_part = scale * sum((abs(J) for _, J, _ in p.jumps), Fraction(0)) / _PI_LO
    ceiling = 2 * sup * scale

    def tail(m: int) -> Fraction:
        start = m + 1
        return min((slope_part + value_part * start) / (start * start), ceiling) * r ** m

    return tail


def plan_disk(p: DiskProblem, n: int) -> TruncationPlan:
    """The order a solve at r0 sums (:func:`_point_tail`), which every
    r <= r0 needs at most; declared modes plan their top degree.

    The search stops by the order where 2 ||g|| r0^K / (1 - r0) is within
    2^-(n+1).  That covers piecewise-linear data, whose tail at r0 is at
    most this, and reduction data too: its ceiling at r0 is 4 r0 (1 + r0^2)
    ||gtilde|| r0^K / ((1 - r0)(1 - r0^2)), and ||g|| = ||gtilde|| (1 + r0) /
    (1 - r0), so the ratio of the two is 2 r0 (1 + r0^2) / (1 + r0)^2 <= 1.
    """
    tp = p.g.trig_poly
    if tp is not None:
        return declared_modes_plan(tp.degree(), n)
    cap = geometric_cap(2 * p.g.sup_bound / (1 - p.r0), p.r0, n)
    K, tail = point_order(_point_tail(p, p.r0), n, cap, "disk point tail")
    plan = TruncationPlan(K, [("truncation", n + 1), ("summation", n + 1)])
    plan.claim("tail", tail, Fraction(1, 1 << (n + 1)))
    plan.require_budget(n)
    return plan


def solve_disk(p: DiskProblem, r, theta, n: int,
               plan: TruncationPlan | None = None) -> CertifiedValue:
    """Certified u(r, theta) with |error| <= 2^-n; theta in units of pi.

    Declared modes are all summed, one term per mode, and leave no tail.
    Other data, piecewise linear or reduction data over a piecewise-linear
    gtilde, sums the series over the points of its jump list
    (:func:`_solve_disk_pl`) only as far as r needs, and the plan's order
    caps that.
    """
    r, theta = as_fraction(r), as_fraction(theta)
    if not 0 <= r <= p.r0:
        raise PreconditionError("evaluation radius exceeds the declared r0")
    tp = p.g.trig_poly
    if tp is not None:
        scaled = TrigPoly(tp.const, {k: c * r ** k for k, c in tp.sin_coeffs.items()},
                          {k: c * r ** k for k, c in tp.cos_coeffs.items()})
        out = scaled.eval_cv(theta, n + 2).rounded(n + 4)
        require("disk assembly", out.err_fraction(), Fraction(1, 1 << (n + 1)))
        return out
    if plan is None:
        plan = plan_disk(p, n)
    K, tail = point_order(_point_tail(p, r), n, plan.order, "disk point tail")
    return _solve_disk_pl(p, r, theta, n, K).widen_fraction(tail)


def _solve_disk_pl(p: DiskProblem, r: Fraction, theta: Fraction, n: int,
                   K: int) -> CertifiedValue:
    """Terms 0..K of u(r, theta) for piecewise-linear data (g, or the
    reduction's gtilde) that jumps by J_j in value and D_j in slope at rho_j
    (``p.jumps``: the seam's, at 0, and the inner points').

    Integrating by parts twice gives the complex Fourier coefficients
    c_k = (1/2) sum_j (-i J_j / (pi k) - D_j / (pi k)^2) e^{-i pi k rho_j},
    and c_0 = area / 2, so for piecewise-linear g
    u = c_0 + 2 Re S1 = mean(g) + pi^-1 sum_j J_j sum_k r^k sin(k pi (theta - rho_j)) / k
        - pi^-2 sum_j D_j sum_k r^k cos(k pi (rho_j - theta)) / k^2,
    with S1 = sum_{k>=1} c_k r^k e^{i pi k theta}; each inner sum is the real
    part of Li_2(r e^{i pi (rho_j - theta)}) cut at K (Lewin 1981;
    DLMF 25.12), or its Li_1 analogue: one rotation per term and no Fourier
    coefficient (:func:`breakpoint_series`).  Only the seam carries a J,
    the end gap g(0) - g(2) that the seam check lets through.

    Reduction data g = gtilde (1 + r0^2 - 2 r0 cos pi(theta0 - rho)) /
    (1 - r0^2) has coefficients (1 + r0^2) c_k - r0 (e^{i pi theta0} c_{k+1}
    + e^{-i pi theta0} c_{k-1}) over 1 - r0^2.  With S0 = sum_{k>=1} c_k
    r^(k-1) e^{i pi k theta}, so that S1 = r S0, and psi = theta0 - theta,
    u (1 - r0^2) = (1 + r0^2)(c_0 + 2 Re S1)
        - 2 r0 [Re(e^{i pi psi} S0) + c_0 r cos pi psi + r Re(e^{-i pi psi} S1)]
      = (1 + r0^2)(c_0 + 2 r Re S0) - r0 cos pi psi (2 r c_0 + 2 (1 + r^2) Re S0)
        + 2 r0 (1 - r^2) sin pi psi Im S0:
    the same series on the decay r^(k-1), read in both parts.
    """
    red = p.reduction
    guard = 0 if red is None else _log2_ceil(8 / (1 - red.r0 * red.r0))
    W = n + 8 + K.bit_length() + max(0, _log2_ceil(max(p.size, 1))) + guard
    # each floor loses under a unit and r <= 1 shrinks the earlier losses,
    # so r^k stays less than k units below 2^W r^k
    powers, rk = [], 1 << W
    for k in range(K + 1):
        powers.append((rk, k))
        rk = rk * r.numerator // r.denominator
    c0 = CertifiedValue.from_fraction(p.area, W + 4).mul_fraction(Fraction(1, 2), W)
    re, im = breakpoint_series(
        powers[1:] if red is None else powers[:K], [(y - theta, D) for y, _, D in p.jumps if D],
        [(theta - y, J) for y, J, _ in p.jumps if J], W, imag=red is not None)
    if red is None:
        acc = c0 + re
    else:
        r0, psi = red.r0, red.theta0 - theta
        one_plus = 1 + r0 * r0
        cos_part = (c0.mul_fraction(2 * r, W) + re.mul_fraction(1 + r * r, W)) \
            * cos_pi_mul_cv(psi, W)
        sin_part = im.mul_fraction(r0 * (1 - r * r), W) * sin_pi_mul_cv(psi, W)
        acc = (c0.mul_fraction(one_plus, W) + re.mul_fraction(one_plus * r, W)
               - cos_part.mul_fraction(r0, W) + sin_part).mul_fraction(1 / (1 - r0 * r0), W)
    out = acc.rounded(n + 4)
    require("disk assembly", out.err_fraction(), Fraction(1, 1 << (n + 2)))
    return out


# ---------------------------------------------------------------------------
# counting-reduction boundary data


class DiskReduction:
    """Metadata tying reweighted boundary data to its point-value identity.

    The boundary g was built as gtilde divided by the Poisson kernel at
    (r0, theta0), which forces u(r0, theta0) to equal the plain mean of
    gtilde over the circle regardless of what gtilde is.  ``profile`` is h,
    which gtilde closes up.  ``pieces`` are gtilde's linear pieces and
    ``jumps`` their ``pl_jumps`` list, and ``area`` is gtilde's exact
    integral over [0, 2]; each is built on first use and then kept, the
    pieces and jumps for a disk problem's series (:class:`DiskProblem`) and
    the area for that and the point-value identity, which reads no piece.
    The area comes from the jumps when the pieces are already read and from
    h's run sum otherwise, so either route verifies a counting cell once.
    """

    def __init__(self, r0: Fraction, theta0: Fraction, gtilde: EvaluableFunction,
                 profile: EvaluableFunction):
        self.r0 = r0
        self.theta0 = theta0
        self.gtilde = gtilde
        self.profile = profile

    @cached_property
    def pieces(self):
        return linear_pieces(self.gtilde)

    @cached_property
    def jumps(self):
        return pl_jumps(self.pieces)

    @cached_property
    def area(self) -> Fraction:
        """Integral of gtilde over [0, 2].

        Once the pieces are read, the jump list gives it with no further
        evaluation: gtilde is the sum of J + D (x - y) over its points
        y <= x, so its integral up to the last point b is the sum of
        J (b - y) + D (b - y)^2 / 2.  Before that, only h is integrated:
        gtilde is h on [0, 1] and the linear bridge from h(1) back to h(0)
        on [1, 2], whose integral is the trapezoid (h(0) + h(1)) / 2.
        """
        if "pieces" in self.__dict__:  # read already: integrate its jump list
            b = self.jumps[-1][0]
            return sum((J * (b - y) + D * (b - y) ** 2 / 2 for y, J, D in self.jumps
                        if J or D), Fraction(0))
        h = self.profile
        head = integral_exact(h, Fraction(0), Fraction(1))
        if head is None:
            raise PreconditionError("reduction data needs an exact integral")
        return head + (h.eval_exact(Fraction(0)) + h.eval_exact(Fraction(1))) / 2

    def certified_point_value(self, n: int) -> CertifiedValue:
        """u(r0, theta0) = (1/2) * integral of gtilde over [0,2]."""
        # n + 4 = (n + 1) + 2 + log2 of the width 2, the scale integrate rounds to
        total = CertifiedValue.from_fraction(self.area, n + 4)
        return total.mul_fraction(Fraction(1, 2), n + 1)


def interpolated_closure(h: EvaluableFunction) -> EvaluableFunction:
    """Extend h from [0,1] to [0,2] by the linear bridge back to h(0).

    The bridge keeps the closure continuous and exactly periodic on the
    circle; h's pieces gain the bridge as one more, and a uniform grid as
    many more segments, so integrals of the closure stay exact.
    """
    if h.domain != (Fraction(0), Fraction(1)):
        raise PreconditionError("profile must live on [0,1]")
    if h.eval_exact is None:
        raise PreconditionError("profile needs exact pointwise evaluation")
    h0, h1 = h.eval_exact(Fraction(0)), h.eval_exact(Fraction(1))

    def exact(x: Fraction) -> Fraction:
        if x < 1:
            return h.eval_exact(x)
        return h1 + (h0 - h1) * (x - 1)  # at x = 1 this is h1, already read

    out = EvaluableFunction(
        domain=(Fraction(0), Fraction(2)),
        sup_bound=max(h.sup_bound, abs(h0), abs(h1), Fraction(1, 2 ** 30)),
        eval_cv=lambda x, p: CertifiedValue.from_fraction(exact(x), p + 2),
        label=(h.label or "profile") + "-closure",
        eval_exact=exact,
    )
    if h.pieces is not None:
        out.pieces = h.pieces + [(2 * h1 - h0, h0 - h1, Fraction(1), Fraction(2))]
    elif h.linear_segments is not None:
        out.linear_segments = 2 * h.linear_segments
    return out


def hardness_boundary_disk(r0, theta0, h: EvaluableFunction) -> EvaluableFunction:
    """Boundary data whose solution at (r0, theta0) is the mean of h's closure.

    g(rho) = gtilde(rho) * (1 - 2 r0 cos(pi(theta0 - rho)) + r0^2) / (1 - r0^2)
    cancels the Poisson kernel at the marked point, so evaluating the solution
    there is exactly the integration task (1/2) * integral of gtilde.
    """
    r0, theta0 = as_fraction(r0), as_fraction(theta0)
    if not 0 <= r0 < 1:
        raise PreconditionError("r0 must lie in [0,1)")
    if not 0 <= theta0 <= 2:
        raise PreconditionError("theta0 must lie in [0,2] (pi-units)")
    gt = interpolated_closure(h)
    one_plus = 1 + r0 * r0
    inv_den = Fraction(1) / (1 - r0 * r0)

    def ev(rho: Fraction, p: int) -> CertifiedValue:
        pp = p + 6
        kern = CertifiedValue.from_fraction(one_plus, pp) - \
            cos_pi_mul_cv(theta0 - rho, pp).mul_fraction(2 * r0, pp)
        return (gt.eval_cv(rho, pp) * kern).mul_fraction(inv_den, pp).rounded(p)

    dmax = (1 + r0) / (1 - r0) if r0 else Fraction(1)  # the kernel factor's top
    out = EvaluableFunction(
        domain=(Fraction(0), Fraction(2)),
        sup_bound=gt.sup_bound * dmax,
        eval_cv=ev,
        label="reduction-boundary",
    )
    out.hardness = DiskReduction(r0, theta0, gt, h)
    return out


# ---------------------------------------------------------------------------
# ball solver (d = 3 explicit basis)


class BallProblem(Record):
    """Dirichlet data on the unit sphere in R^3, given by declared modes."""

    _fields = ("g",)

    def __init__(self, g: EvaluableFunction):
        self.g = g


def _declared_modes(g: EvaluableFunction) -> dict:
    """g's declared orthonormal-harmonic modes {(l, m): c}; the ball takes
    no other data."""
    if g.sph_modes is None:
        raise PreconditionError("ball data must declare its harmonic modes")
    return g.sph_modes


def plan_ball_truncation(g: EvaluableFunction, n: int) -> TruncationPlan:
    """The top declared degree: every declared mode is summed, at any r."""
    return declared_modes_plan(max((l for l, _m in _declared_modes(g)), default=0), n)


def solve_ball(p: BallProblem, r, theta, phi, n: int) -> CertifiedValue:
    """Certified u(r, theta, phi) on the unit ball in R^3 for 0 <= r <= 1,
    angles in pi-units: the sum of every declared mode c r^l Y_{l,m}."""
    r = as_fraction(r)
    if not 0 <= r <= 1:
        raise PreconditionError("evaluation radius must lie in [0,1]")
    modes = _declared_modes(p.g)
    use = [lm for lm in sorted(modes) if modes[lm]]
    # each harmonic's error is scaled by its coefficient
    big = max((abs(modes[lm]) for lm in use), default=Fraction(1))
    pc = n + 1 + max(1, len(use)).bit_length() + 3 + max(0, _log2_ceil(big))
    acc = CertifiedValue.zero()
    for l, m in use:
        y = real_sph_harmonic_3d(l, m, theta, phi, pc)
        acc = (acc + y.mul_fraction(modes[(l, m)] * r ** l, pc)).rounded(pc)
    return acc
