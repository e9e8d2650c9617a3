"""Certified solvers for the 1-D diffusion equation.

Four problem shapes:

* interval with Dirichlet ends and initial data, solved by a truncated sine
  series whose mode count comes from an exact decay plan;
* half-line driven by a boundary profile h(t), solved by expanding the
  flux kernel in powers of (t - s - 1) with integer Laguerre tables for the
  coefficients and repeated integration by parts for the time integrals;
* half-line with an external force supported away from the evaluation
  window, same expansion with the image kernel realized through integer
  Hermite tables;
* half-line with compactly supported initial data (the time-integral-free
  variant of the force scheme).

Every solver first builds a :class:`TruncationPlan` whose inequality chain
records, in exact rational arithmetic, why the retained terms reach the
requested 2^-n accuracy: a boundary-layer bound for the dropped interval
near s = t, a series-tail bound, an integration-by-parts remainder, and the
working-scale rounding budget.  The hot loops run on plain integers at a
fixed binary scale with explicit per-operation error counters, kept by the
scaled-pair helpers of :mod:`certheat.certified` (``_fmul``, ``_fdot``,
``_fscale``, ``_scaled_from_cv``), so the final error claim is checked on
every solve rather than assumed; the check leaves the plan as planning built
it, so one plan serves any number of solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, isqrt, perm
from typing import Callable

from .certified import (CertifiedValue, _ceil_div, _exact_cv, _fdot, _fmul,
                        _fscale, _scaled_from_cv, _scaled_from_fraction,
                        exp_cv, gauss_primitive_cv, pi_cv, pow_fraction_upper,
                        recip_cv, recip_pi_cv, recip_sqrt_pi_cv, sin_pi_mul_cv,
                        sqrt_cv)
from .dyadic import as_fraction
from .errors import PreconditionError, QuadratureBudgetError
from .evaluable import (EvaluableFunction, _log2_ceil, linear_pieces,
                        lipschitz_modulus, polynomial_fn)
from .quadrature import int_pieces_trig_pi, integrate
from .series import (CoefficientTable, TruncationPlan, choose_K_disk,
                     gaussian_tail, least_passing, point_order, require)


def _sqrtN_upper(N: int) -> Fraction:
    return Fraction(isqrt(N << 40) + 1, 1 << 20)


def _invsqrtN_upper(N: int) -> Fraction:
    return Fraction(1 << 20, isqrt(N << 40))


def _inv_sqrt_4pialpha(alpha: Fraction, p: int) -> CertifiedValue:
    return recip_cv(sqrt_cv(pi_cv(p + 10).mul_fraction(4 * alpha, p + 6), p), p)


def _check_alpha_window(p) -> None:
    """Normalise and check a half-line problem's alpha and x window."""
    p.alpha = as_fraction(p.alpha)
    x0, x1 = map(as_fraction, p.x_window)
    p.x_window = (x0, x1)
    if p.alpha <= 0:
        raise PreconditionError("alpha must be positive")
    if not 0 < x0 <= x1:
        raise PreconditionError("window must satisfy 0 < x0 <= x1")


def _finish(out: CertifiedValue, plan: TruncationPlan, n: int) -> CertifiedValue:
    """Check the series sum against the plan's assembly budget, then add the
    plan's truncation claims and round."""
    budget = dict(plan.budget_split)["assembly"]
    require("assembly", out.err_fraction(), Fraction(1, 1 << budget))
    extra = sum((lhs for lab, lhs, _ in plan.chain
                 if lab in ("I1", "I2", "ibp-remainder")), Fraction(0))
    return out.widen_fraction(extra).rounded(n + 4)


# ---------------------------------------------------------------------------
# time profiles with certified derivative access


@dataclass
class SmoothProfile:
    """Derivative model of a time profile.

    ``deriv_cv(k, s, p)`` evaluates the k-th derivative at s with error
    <= 2^-p; ``deriv_sup(k)`` bounds sup over [0, 1] of its magnitude (the
    half-line schemes only ever sample inside [0, 1)).
    """

    deriv_cv: Callable[[int, Fraction, int], CertifiedValue]
    deriv_sup: Callable[[int], Fraction]


def poly_time_profile(coeffs, domain=(Fraction(0), Fraction(2))) -> EvaluableFunction:
    """Polynomial profile with exact derivatives of every order."""
    fn = polynomial_fn(coeffs, domain, label="poly-profile")
    cs = fn.poly_coeffs

    def dexact(k: int, s: Fraction) -> Fraction:
        return sum((c * perm(j, k) * s ** (j - k)
                    for j, c in enumerate(cs) if j >= k), Fraction(0))

    fn.smooth_model = SmoothProfile(
        deriv_cv=lambda k, s, p: CertifiedValue.from_fraction(dexact(k, as_fraction(s)), p),
        deriv_sup=lambda k: sum((abs(c) * perm(j, k)
                                 for j, c in enumerate(cs) if j >= k), Fraction(0)),
    )
    return fn


_HALF_PI_UB = Fraction(1571, 1000)  # > pi/2


def sin_half_profile(amplitude=Fraction(1)) -> EvaluableFunction:
    """h(s) = amplitude * sin(pi s / 2) on [0, 2]; h(0) = 0 exactly."""
    amp = as_fraction(amplitude)

    def ev(s, p: int) -> CertifiedValue:
        return sin_pi_mul_cv(as_fraction(s) / 2, p + 4).mul_fraction(amp, p)

    def dcv(k: int, s, p: int) -> CertifiedValue:
        pp = p + k + 8
        base = sin_pi_mul_cv((as_fraction(s) + k) / 2, pp)
        half_pi = pi_cv(pp).mul_exact(Fraction(1, 2))
        pw = CertifiedValue.exact(1)
        for _ in range(k):
            pw = (pw * half_pi).rounded(pp)
        return (base * pw).rounded(p + 4).mul_fraction(amp, p)

    fn = EvaluableFunction(
        domain=(Fraction(0), Fraction(2)),
        sup_bound=abs(amp) if amp else Fraction(1, 1 << 30),
        modulus=lipschitz_modulus(2 * abs(amp) if amp else Fraction(1)),
        eval_cv=ev,
        label="sin-half-profile",
        sine_modes={1: amp},
        sine_L=Fraction(2),
    )
    fn.smooth_model = SmoothProfile(
        deriv_cv=dcv,
        deriv_sup=lambda k: abs(amp) * _HALF_PI_UB ** k,
    )
    return fn


# ---------------------------------------------------------------------------
# interval: Dirichlet sine series


@dataclass
class IntervalHeatProblem:
    """Diffusion on [0, L] with Dirichlet ends, initial data g, times >= t0.

    Solving the same problem object again reuses its sine coefficients (see
    :class:`CoefficientTable`), so g must not change once it is solved.
    """

    L: Fraction
    alpha: Fraction
    g: EvaluableFunction
    t0: Fraction
    coeffs: CoefficientTable = field(default_factory=CoefficientTable,
                                     init=False, repr=False, compare=False)

    def __post_init__(self):
        self.L = as_fraction(self.L)
        self.alpha = as_fraction(self.alpha)
        self.t0 = as_fraction(self.t0)
        if self.L <= 0 or self.alpha <= 0 or self.t0 <= 0:
            raise PreconditionError("L, alpha and t0 must be positive")
        if self.g.domain != (Fraction(0), self.L):
            raise PreconditionError("initial data must live on [0, L]")


def sine_coeff(p: IntervalHeatProblem, k: int, prec: int) -> CertifiedValue:
    """Certified mu_k = (2/L) * integral of g(y) sin(k pi y / L) over [0, L]."""
    if k < 1:
        raise PreconditionError("mode index must be at least 1")
    g, L = p.g, p.L
    if g.sine_modes is not None and g.sine_L == L:
        # orthogonality reads the coefficient off exactly
        return _exact_cv(g.sine_modes.get(k, Fraction(0)), prec)
    segs = linear_pieces(g)
    if segs is not None:
        pp = prec + len(segs).bit_length() + 3
        # substitute y = L rho so the oscillation is in pi-units
        scaled = [(c0, c1 * L, a / L, b / L) for c0, c1, a, b in segs]
        acc, = int_pieces_trig_pi(scaled, k, Fraction(0), pp, kinds=("sin",))
        return acc.mul_exact(2).rounded(prec + 2)

    def ev(y: Fraction, pr: int) -> CertifiedValue:
        return (g.eval_cv(y, pr + 2) * sin_pi_mul_cv(k * y / L, pr + 2)).rounded(pr)

    trig_lip = Fraction(4 * k) / L * max(g.sup_bound, 1)

    def mod(j: int) -> int:
        return max(g.modulus(j + 1), lipschitz_modulus(trig_lip)(j + 1))

    prod = EvaluableFunction(domain=g.domain, sup_bound=g.sup_bound,
                             modulus=mod, eval_cv=ev, label="sine-mode-product")
    return integrate(prod, 0, L, prec + 1).mul_fraction(2 / L, prec)


def _interval_decay(p: IntervalHeatProblem, t: Fraction) -> tuple[Fraction, Fraction]:
    """(upper bound on e^{-pi^2 alpha t / L^2}, tail constant C)."""
    pisq = (pi_cv(80) * pi_cv(80)).rounded(80)
    expo = pisq.mul_fraction(-p.alpha * t / (p.L * p.L), 76)
    rho = exp_cv(expo, 70).upper_fraction()
    if rho >= 1:
        raise AssertionError("decay bound failed to certify a rate below one")
    return rho, 2 * p.g.sup_bound / (1 - rho)


def plan_interval(p: IntervalHeatProblem, n: int) -> TruncationPlan:
    """Mode count K*(n+1), geometric in the per-mode decay at t0."""
    rho, C = _interval_decay(p, p.t0)
    K = choose_K_disk(C, rho)
    order = K * (n + 1)
    plan = TruncationPlan(order,
                          [("truncation", n + 1), ("summation", n + 1)],
                          f"interval series, K={K} per output bit",
                          params={})
    plan.claim("per-block decay", C * pow_fraction_upper(rho, K, 160), Fraction(1, 2))
    plan.claim("tail", C * pow_fraction_upper(rho, order, 160), Fraction(1, 1 << (n + 1)))
    if p.g.sine_modes is not None and p.g.sine_L == p.L:
        kmax = max(p.g.sine_modes, default=0)
        if kmax < order:
            # modes beyond the declared data are exactly zero
            plan.order = kmax
            plan.params["capped"] = 1
            plan.claim("declared-modes", Fraction(0), Fraction(1, 1 << (n + 1)))
    assert plan.validates(n)
    return plan


def solve_interval(p: IntervalHeatProblem, t, x, n: int,
                   plan: TruncationPlan | None = None) -> CertifiedValue:
    """Certified u(t, x) with |error| <= 2^-n for t >= t0, summing only the
    modes t needs; the plan's order caps them and sets the precision."""
    t, x = as_fraction(t), as_fraction(x)
    if t < p.t0:
        raise PreconditionError("evaluation time below the declared t0")
    if not 0 <= x <= p.L:
        raise PreconditionError("evaluation point outside [0, L]")
    if plan is None:
        plan = plan_interval(p, n)
    order = plan.order
    ks = (sorted(k for k in p.g.sine_modes if 1 <= k <= order)
          if p.g.sine_modes is not None and p.g.sine_L == p.L
          else list(range(1, order + 1)))
    pc = n + 1 + max(1, len(ks) + 1).bit_length() + 4 \
        + max(0, _log2_ceil(max(p.g.sup_bound, 1)))
    if plan.params.get("capped"):  # declared modes past the order are zero
        K, extra = order, Fraction(0)
    else:  # |mu_k| <= 2||g|| and mode k decays like rho^(k^2)
        rho = _interval_decay(p, t)[0]
        K, extra = point_order(lambda m: gaussian_tail(2 * p.g.sup_bound, rho, m + 1),
                               n, order, "interval point tail")
    pisq = (pi_cv(pc + 8) * pi_cv(pc + 8)).rounded(pc + 8)
    rate = p.alpha * t / (p.L * p.L)
    coeff = p.coeffs.source(pc, lambda k: sine_coeff(p, k, pc))
    acc = CertifiedValue.zero()
    for k in ks:
        if k > K:
            break
        mu = coeff(k)
        if mu.m == 0 and mu.en == 0:
            continue
        decay = exp_cv(pisq.mul_fraction(-k * k * rate, pc + 6), pc)
        term = (mu * decay).rounded(pc) * sin_pi_mul_cv(k * x / p.L, pc)
        acc = (acc + term.rounded(pc)).rounded(pc)
    return acc.widen_fraction(extra).rounded(n + 4)


# ---------------------------------------------------------------------------
# interval reduction: reweighted initial data whose point value is a plain
# integral


@dataclass
class IntervalReduction:
    """Ties reweighted initial data to its integration identity.

    The data is gtilde times the weight exp(E), E given by
    :meth:`weight_exponent`.  The identity divides that weight back out, so
    the claimed point value is (4 pi alpha t0)^{-1/2} times the plain
    integral of gtilde, whatever gtilde is.  With gtilde(y) = profile(y/L)/L
    that integral is the integral of the profile over [0, 1].
    """

    t0: Fraction
    x0: Fraction
    L: Fraction
    alpha: Fraction
    gtilde: EvaluableFunction
    profile: EvaluableFunction

    def weight_exponent(self, y: Fraction, prec: int) -> CertifiedValue:
        """(y - x0)^2 / (4 pi alpha t0), certified."""
        f = (y - self.x0) ** 2 / (4 * self.alpha * self.t0)
        return recip_pi_cv(prec + 6).mul_fraction(f, prec + 4)

    def certified_point_value(self, n: int) -> CertifiedValue:
        if not self.profile.has_linear_structure():
            raise PreconditionError("reduction data must be piecewise linear")
        pe = n + 8
        pref = recip_cv(sqrt_cv(pi_cv(pe + 10).mul_fraction(
            4 * self.alpha * self.t0, pe + 8), pe + 4), pe + 4)
        # midpoint rule, exact per linear piece: one verifier call per piece
        return (integrate(self.profile, 0, 1, n + 4) * pref).rounded(n + 4)


def hardness_initial_interval(t0, x0, g_hard: EvaluableFunction,
                              L=Fraction(1), alpha=Fraction(1)) -> EvaluableFunction:
    """Reweight profile data into interval initial data with a known identity.

    Returns g*(y) = gtilde(y) * exp((y - x0)^2 / (4 pi alpha t0)) where
    gtilde(y) = g_hard(y / L) / L, together with an attached
    :class:`IntervalReduction` whose point value is a pure integration task.
    """
    t0, x0, L, alpha = map(as_fraction, (t0, x0, L, alpha))
    if t0 <= 0 or L <= 0 or alpha <= 0:
        raise PreconditionError("t0, L and alpha must be positive")
    if not 0 <= x0 <= L:
        raise PreconditionError("x0 must lie in [0, L]")
    if g_hard.domain != (Fraction(0), Fraction(1)):
        raise PreconditionError("profile data must live on [0, 1]")
    if g_hard.eval_exact is None:
        raise PreconditionError("profile data needs exact pointwise evaluation")

    def gt_exact(y: Fraction) -> Fraction:
        return g_hard.eval_exact(y / L) / L

    sv = max(_log2_ceil(max(1 / L, Fraction(1, 2))), 0)
    gtilde = EvaluableFunction(
        domain=(Fraction(0), L),
        sup_bound=max(g_hard.sup_bound / L, Fraction(1, 1 << 30)),
        modulus=lambda k: g_hard.modulus(k + sv) + sv,
        eval_cv=lambda y, p: CertifiedValue.from_fraction(gt_exact(y), p + 2),
        label="rescaled-profile",
        eval_exact=gt_exact,
        breakpoints=([b * L for b in g_hard.breakpoints]
                     if g_hard.breakpoints is not None else None),
        linear_segments=g_hard.linear_segments,
    )
    red = IntervalReduction(t0, x0, L, alpha, gtilde, g_hard)

    # e^{ceil(L^2 / (4 alpha t0))} bounds the weight: E before its 1/pi factor
    wsup = exp_cv(Fraction(_ceil_div(L * L, 4 * alpha * t0)), 20).upper_fraction()
    sup = gtilde.sup_bound * wsup
    # weight Lipschitz bound: |E'| e^{Emax} with |E'| <= 2 L / (4 alpha t0 pi)
    wlip = wsup * 2 * L / (4 * alpha * t0)
    b1 = max(0, _log2_ceil(max(wsup, 1)))
    b2 = max(0, _log2_ceil(max(gtilde.sup_bound, 1)))
    wmod = lipschitz_modulus(wlip if wlip else Fraction(1))

    def ev(y, p: int) -> CertifiedValue:
        y = as_fraction(y)
        lift = exp_cv(red.weight_exponent(y, p + 8), p + 6)
        return (CertifiedValue.from_fraction(gt_exact(y), p + 6) * lift).rounded(p)

    gstar = EvaluableFunction(
        domain=(Fraction(0), L),
        sup_bound=sup if sup else Fraction(1, 1 << 30),
        modulus=lambda k: max(gtilde.modulus(k + 1 + b1), wmod(k + 1 + b2)),
        eval_cv=ev,
        label="reweighted-initial-data",
    )
    gstar.hardness = red
    return gstar


# ---------------------------------------------------------------------------
# Neumann half-line with space-independent force: a plain time integral


def solve_neumann_constant_force(f: EvaluableFunction, t, n: int) -> CertifiedValue:
    """Certified integral of f over [0, t]: the ODE the problem reduces to."""
    t = as_fraction(t)
    if not f.domain[0] <= 0 <= t <= f.domain[1]:
        raise PreconditionError("integration time outside the force domain")
    return integrate(f, 0, t, n)


# ---------------------------------------------------------------------------
# half-line with boundary forcing


@dataclass
class HalflineBoundaryProblem:
    """u_t = alpha u_xx on x > 0 with u(0, t) = h(t) and zero initial data."""

    alpha: Fraction
    h: EvaluableFunction
    x_window: tuple[Fraction, Fraction]

    def __post_init__(self):
        _check_alpha_window(self)
        if self.h.domain != (Fraction(0), Fraction(2)):
            raise PreconditionError("boundary profile must live on [0, 2]")
        if self.h.smooth_model is None:
            raise PreconditionError("boundary profile needs a derivative model")
        at0 = self.h.eval_cv(Fraction(0), 20)
        if abs(at0.value_fraction()) > at0.err_fraction() + Fraction(1, 1 << 16):
            raise PreconditionError("boundary profile must vanish at t = 0")


def _plan_parts_series(n: int, layer, Nmin: int, tail_rem, pad: int,
                       cutoff_rhs: Fraction, what: str) -> TruncationPlan:
    """Cutoff 1/N, series length T and parts depth Kh from exact inequalities.

    Shared by the boundary and force planners.  ``layer(N)`` bounds the
    dropped interval near s = t for cutoff 1/N (and u itself below it);
    ``tail_rem(N, q)`` with q = 1 - 1/N returns ``tail(m)``, the bound on the
    series terms from index m on, and ``rem(K)``, the remainder of depth-K
    integration by parts.  ``pad`` is the solver's extra working-scale bits.
    """
    bud2 = Fraction(1, 1 << (n + 2))
    bud3 = Fraction(1, 1 << (n + 3))
    N = least_passing(lambda m: layer(m) <= bud2, Nmin, Nmin, 1 << 26,
                      "boundary-layer bound failed to close")
    tail, rem = tail_rem(N, Fraction(N - 1, N))
    T = least_passing(lambda m: tail(m + 1) <= bud2, N, 1, 1 << 26,
                      "series-tail bound failed to close")
    Kh = 0
    while rem(Kh) > bud3:
        Kh += 1
        if Kh > 200:
            raise AssertionError(f"{what} derivatives grow too fast for parts integration")

    pw = n + 3 + 2 * (T + 1).bit_length() + (Kh + 2).bit_length() + pad
    plan = TruncationPlan(
        T,
        [("boundary-layer", n + 2), ("series tail", n + 2),
         ("ibp remainder", n + 3), ("assembly", n + 3)],
        f"cutoff 1/{N}, {T + 1} series terms, depth-{Kh} parts integration",
        params={"N": N, "ibp": Kh, "scale": pw})
    plan.claim("cutoff-monotone", Fraction(1, N), cutoff_rhs)
    plan.claim("I1", layer(N), bud2)
    plan.claim("small-t", layer(N), bud2)
    plan.claim("I2", tail(T + 1), bud2)
    plan.claim("ibp-remainder", rem(Kh), bud3)
    assert plan.validates(n)
    return plan


def _window_solve_args(p, t, x, n: int, plan: TruncationPlan | None, planner):
    """Checked (t, x), the plan (built if none is given) and its N, Kh, pw."""
    t, x = as_fraction(t), as_fraction(x)
    if not 0 <= t <= 1:
        raise PreconditionError("time must lie in [0, 1]")
    x0, x1 = p.x_window
    if not x0 <= x <= x1:
        raise PreconditionError("evaluation point outside the declared window")
    if plan is None:
        plan = planner(p, n)
    return t, x, plan, plan.params["N"], plan.params["ibp"], plan.params["scale"]


def plan_halfline_boundary(p: HalflineBoundaryProblem, n: int) -> TruncationPlan:
    """Cutoff 1/N, series length T and parts depth from exact inequalities."""
    x0, x1 = p.x_window
    a = p.alpha
    sm = p.h.smooth_model
    hsup = sm.deriv_sup(0)
    prec = n + 40
    pref = _inv_sqrt_4pialpha(a, prec).upper_fraction() * x0

    def layer(N: int) -> Fraction:
        e = exp_cv(-x0 * x0 * N / (4 * a), prec).upper_fraction()
        return pref * hsup * _sqrtN_upper(N) * e

    c = (sqrt_cv(x1 * x1 / (4 * a), 40).upper_fraction()
         * recip_sqrt_pi_cv(40).upper_fraction())

    def tail_rem(N: int, q: Fraction):
        # tail: sum over n' > m-1 of (n'+1) q^n' in closed form, rounded upward
        return (lambda m: c * hsup * N * N * (Fraction(m, N) + 1)
                * pow_fraction_upper(q, m, 160),
                lambda K: c * sm.deriv_sup(K + 1) * N
                * pow_fraction_upper(q, K + 2, 160) / factorial(K + 1))

    return _plan_parts_series(n, layer, max(_ceil_div(6 * a, x0 * x0), 2),
                              tail_rem, 8, x0 * x0 / (6 * a), "profile")


class _PartsIntegrator:
    """Scaled-integer stream of J_{n'} = integral of (t-s-1)^{n'} h(s) ds.

    Repeated integration by parts turns each J into boundary terms at s = 0
    and s = tau weighted by powers of A = t-1 and B = -(1-1/N); the power
    chains advance one multiplication per term, never losing more than one
    unit in the last place per step because |A|, |B| <= 1.
    """

    def __init__(self, sm: SmoothProfile, t: Fraction, tau: Fraction,
                 N: int, Kh: int, pw: int):
        pp = pw + 8
        self.Kh = Kh
        self.pw = pw
        self.h0 = [_scaled_from_cv(sm.deriv_cv(k, Fraction(0), pp), pw)
                   for k in range(Kh + 1)]
        self.ht = [_scaled_from_cv(sm.deriv_cv(k, tau, pp), pw)
                   for k in range(Kh + 1)]
        self.hcut = max(abs(v) + e for v, e in self.h0 + self.ht) + 1
        A = t - 1
        self.An, self.Ad = A.numerator, A.denominator
        self.Bn, self.Bd = 1 - N, N
        self.pa, self.epa = _scaled_from_fraction(A, pw)
        self.pb, self.epb = _scaled_from_fraction(Fraction(self.Bn, self.Bd), pw)
        self.np = 0

    def term(self) -> tuple[int, int]:
        pw = self.pw
        xa, exa = self.pa, self.epa
        xb, exb = self.pb, self.epb
        dv = 1
        jv = je = 0
        for k in range(self.Kh + 1):
            dv *= self.np + 1 + k
            if dv > self.hcut:
                je += self.Kh + 1 - k  # dropped terms are below one ulp each
                break
            v, e = _fdot(xa, exa, *self.h0[k], -xb, exb, *self.ht[k], dv << pw)
            jv += v
            je += e
            if k < self.Kh:
                xa, exa = _fscale(xa, exa, self.An, self.Ad)
                xb, exb = _fscale(xb, exb, self.Bn, self.Bd)
        self.pa, self.epa = _fscale(self.pa, self.epa, self.An, self.Ad)
        self.pb, self.epb = _fscale(self.pb, self.epb, self.Bn, self.Bd)
        self.np += 1
        return jv, je


def solve_halfline_boundary(p: HalflineBoundaryProblem, t, x, n: int,
                            plan: TruncationPlan | None = None) -> CertifiedValue:
    """Certified u(t, x) with |error| <= 2^-n inside the declared window."""
    t, x, plan, N, Kh, pw = _window_solve_args(p, t, x, n, plan,
                                               plan_halfline_boundary)
    if t < Fraction(1, N):
        # below the cutoff the scheme returns 0; the small-t claim bounds u
        return CertifiedValue(0, n + 2, 1, n + 2)
    tau = t - Fraction(1, N)
    a = p.alpha
    z = x * x / (4 * a)
    zn, zd = z.numerator, z.denominator
    pp = pw + 8
    s_cv = (sqrt_cv(z, pp) * exp_cv(-z, pp)).rounded(pp)
    s_cv = (s_cv * recip_sqrt_pi_cv(pp)).rounded(pp)
    P, eP = _scaled_from_cv(s_cv, pw)

    parts = _PartsIntegrator(p.h.smooth_model, t, tau, N, Kh, pw)
    # integer family for the kernel's Taylor coefficients at z = x^2/(4 alpha):
    # cur / D equals the degree-n' generalized Laguerre value there
    cur, nxt = 1, 3 * zd - 2 * zn
    D = 1
    zd2 = 2 * zd * zd
    total = etot = 0
    for np_ in range(plan.order + 1):
        c, ec = _fscale(P, eP, cur, D)
        if np_ & 1:
            c = -c
        v, e = _fmul(c, ec, *parts.term(), pw)
        total += v
        etot += e
        m = np_ + 2
        cur, nxt = nxt, ((4 * m - 1) * zd - 2 * zn) * nxt \
            - (2 * m - 1) * (m - 1) * zd2 * cur
        D *= (np_ + 1) * 2 * zd

    return _finish(CertifiedValue(total, pw, etot + 1, pw), plan, n)


# ---------------------------------------------------------------------------
# half-line image-kernel ladder (shared by the force and initial-data solvers)


class _EndState:
    """Per-endpoint integer tables for e^{-w^2} H_j(w) / (4^{n'} n'!).

    The factorial normalizer is folded into the divisor so every quotient is
    a few words long: the normalized even value is at most e^{w^2} and the
    odd one at most |w| e^{w^2}, whatever n' is.
    """

    __slots__ = ("u", "v", "ecv", "wcv", "gpcv", "Ev", "Ee", "EWv", "EWe",
                 "kmid", "kcur", "Do", "De", "prevEv", "prevEe",
                 "Rov", "Roe", "Rev", "Ree")

    def __init__(self, w2: Fraction, negative: bool, pw: int):
        pp = pw + 8
        self.u, self.v = w2.numerator, w2.denominator
        self.ecv = exp_cv(-w2, pp)
        w = sqrt_cv(w2, pp)
        self.wcv = -w if negative else w
        self.gpcv = gauss_primitive_cv(self.wcv, pp)
        self.Ev, self.Ee = _scaled_from_cv(self.ecv, pw)
        self.EWv, self.EWe = _scaled_from_cv((self.ecv * self.wcv).rounded(pp), pw)
        # rolling pair K_{2n'-1}, K_{2n'} starting at n' = 1, with divisors
        # Do = v^{n'-1} 4^{n'} n'! and De = Do v
        self.kmid = 2
        self.kcur = 4 * self.u - 2 * self.v
        self.Do = 4
        self.De = 4 * self.v
        self.prevEv, self.prevEe = self.Ev, self.Ee

    def refresh(self):
        """Scaled e^{-w^2} H_j / (4^{n'} n'!) for j = 2n'-1 and 2n'."""
        self.Rov, self.Roe = _fscale(self.EWv, self.EWe, self.kmid, self.Do)
        self.Rev, self.Ree = _fscale(self.Ev, self.Ee, self.kcur, self.De)

    def advance(self, np_: int):
        self.prevEv, self.prevEe = self.Rev, self.Ree
        j = 2 * np_
        k1 = 2 * self.kcur - 2 * j * self.v * self.kmid
        k2 = 2 * self.u * k1 - 2 * (j + 1) * self.v * self.kcur
        self.kmid, self.kcur = k1, k2
        step = 4 * (np_ + 1) * self.v
        self.Do *= step
        self.De *= step


class _SpaceLadder:
    """Streams S_{n'} = integral of the image-kernel Taylor coefficient pair
    against affine space data, divided by 4^{n'} n'!."""

    def __init__(self, f_space: EvaluableFunction, x: Fraction, alpha: Fraction,
                 pw: int):
        self.pw = pw
        pp = pw + 8
        segs = linear_pieces(f_space)
        if segs is None:
            raise QuadratureBudgetError(
                "space data must be piecewise linear or affine for the kernel ladder")
        c_cv = sqrt_cv(4 * alpha, pp)
        self.pieces = []  # (chsgn, k1 pair, k2 pair, end_a, end_b, cert consts)
        ends: dict[tuple[int, Fraction], _EndState] = {}
        for c0, c1, ya, yb in segs:
            for chsgn, shift in ((1, -x), (-1, x)):
                key_a, key_b = (chsgn, ya), (chsgn, yb)
                for key, y in ((key_a, ya), (key_b, yb)):
                    if key not in ends:
                        arg = y + shift
                        ends[key] = _EndState(arg * arg / (4 * alpha),
                                              arg < 0, pw)
                const = c0 - c1 * shift  # data in the w variable: const + c1*c*w
                k1cv = c_cv.mul_fraction(const, pp) if const else None
                self.pieces.append((
                    chsgn,
                    _scaled_from_cv(k1cv, pw) if k1cv is not None else (0, 0),
                    _scaled_from_fraction(4 * alpha * c1, pw),
                    ends[key_a], ends[key_b],
                    k1cv, c1,
                ))
        self.ends = list(ends.values())
        self.c_cv = c_cv
        self.alpha = alpha
        self.np = 1

    def term0_cv(self, prec: int) -> CertifiedValue:
        """S_0 with certified arithmetic (needs the Gaussian antiderivative)."""
        acc = CertifiedValue.zero()
        half = Fraction(1, 2)
        for chsgn, _, _, ea, eb, k1cv, c1 in self.pieces:
            u0 = eb.gpcv - ea.gpcv
            v0 = (ea.ecv - eb.ecv).mul_exact(half)
            part = CertifiedValue.zero()
            if k1cv is not None:
                part = part + (k1cv * u0).rounded(prec + 4)
            if c1:
                part = part + v0.mul_fraction(4 * self.alpha * c1, prec + 4)
            acc = acc + (part if chsgn > 0 else -part)
        return acc.rounded(prec)

    def term(self) -> tuple[int, int]:
        """Scaled S_{n'} for the current n' >= 1, then advance."""
        one = 1 << self.pw
        np_ = self.np
        for e in self.ends:
            e.refresh()
        sv = se = 0
        for chsgn, (k1v, k1e), (k2v, k2e), ea, eb, _, _ in self.pieces:
            uv = ea.Rov - eb.Rov
            ue = ea.Roe + eb.Roe
            # normalized V: half the even difference plus half the two-steps-
            # back difference (the 2n'/(4n') ratio of the divisors is 1/2)
            vv, ve = _fscale(ea.Rev - eb.Rev + ea.prevEv - eb.prevEv,
                             ea.Ree + eb.Ree + ea.prevEe + eb.prevEe, 1, 2)
            pv, pe = _fdot(k1v, k1e, uv, ue, k2v, k2e, vv, ve, one)
            if chsgn > 0:
                sv += pv
            else:
                sv -= pv
            se += pe
        for e in self.ends:
            e.advance(np_)
        self.np += 1
        return sv, se


# ---------------------------------------------------------------------------
# half-line with external force


@dataclass
class HalflineForceProblem:
    """u_t = alpha u_xx + f_time(t) f_space(x) on x > 0, Dirichlet at 0.

    The force support [0, y0] must sit strictly left of the evaluation
    window so the kernel-argument gap drives the boundary-layer decay.
    """

    alpha: Fraction
    f_time: EvaluableFunction
    f_space: EvaluableFunction
    x_window: tuple[Fraction, Fraction]

    def __post_init__(self):
        _check_alpha_window(self)
        if self.f_time.smooth_model is None:
            raise PreconditionError("time factor needs a derivative model")
        if self.f_space.domain[0] != 0:
            raise PreconditionError("force support must start at 0")
        self.y0 = self.f_space.domain[1]
        if self.y0 >= self.x_window[0]:
            raise PreconditionError("force support must end left of the window")


def plan_halfline_force(p: HalflineForceProblem, n: int) -> TruncationPlan:
    a = p.alpha
    gap = p.x_window[0] - p.y0
    sm = p.f_time.smooth_model
    fts = sm.deriv_sup(0)
    prec = n + 40
    c = (2 * p.y0 * p.f_space.sup_bound
         * _inv_sqrt_4pialpha(a, prec).upper_fraction())

    def layer(N: int) -> Fraction:
        e = exp_cv(-gap * gap * N / (4 * a), prec).upper_fraction()
        return c * fts * _invsqrtN_upper(N) * e

    def tail_rem(N: int, q: Fraction):
        return (lambda m: c * fts * N * pow_fraction_upper(q, m, 160),
                lambda K: c * sm.deriv_sup(K + 1) * N
                * pow_fraction_upper(q, K + 2, 160) / factorial(K + 1))

    return _plan_parts_series(n, layer, max(_ceil_div(2 * a, gap * gap), 2),
                              tail_rem, 10, gap * gap / (2 * a), "time-factor")


def solve_halfline_force(p: HalflineForceProblem, t, x, n: int,
                         plan: TruncationPlan | None = None) -> CertifiedValue:
    """Certified u(t, x) with |error| <= 2^-n inside the declared window."""
    t, x, plan, N, Kh, pw = _window_solve_args(p, t, x, n, plan,
                                               plan_halfline_force)
    if t < Fraction(1, N):
        return CertifiedValue(0, n + 2, 1, n + 2)
    tau = t - Fraction(1, N)
    pp = pw + 8

    parts = _PartsIntegrator(p.f_time.smooth_model, t, tau, N, Kh, pw)
    ladder = _SpaceLadder(p.f_space, x, p.alpha, pw)
    total = etot = 0
    for np_ in range(plan.order + 1):
        jv, je = parts.term()
        sv, se = _scaled_from_cv(ladder.term0_cv(pp), pw) if np_ == 0 else ladder.term()
        v, e = _fmul(sv, se, jv, je, pw)
        total += v
        etot += e

    pref = _inv_sqrt_4pialpha(p.alpha, pp)
    return _finish(CertifiedValue(total, pw, etot + 1, pw) * pref, plan, n)


# ---------------------------------------------------------------------------
# half-line with compactly supported initial data


def plan_halfline_initial(g: EvaluableFunction, alpha, t, x, n: int) -> TruncationPlan:
    alpha, t, x = map(as_fraction, (alpha, t, x))
    a_, b_ = g.domain
    if not 0 < a_ < b_ < 1:
        raise PreconditionError("initial data support must sit inside (0, 1)")
    if x <= 0:
        raise PreconditionError("evaluation point must be positive")
    margin = a_ - x if x < a_ else x - b_
    if margin <= 0:
        raise PreconditionError("evaluation point must clear the support margin")
    if not 0 <= t <= 1:
        raise PreconditionError("time must lie in [0, 1]")
    meff = min(margin, a_ + x)
    prec = n + 40
    pref = _inv_sqrt_4pialpha(alpha, prec).upper_fraction()
    width = b_ - a_
    bud1 = Fraction(1, 1 << (n + 1))

    if t == 0:
        plan = TruncationPlan(0, [("small-t", n + 1)], "t = 0: data away from x",
                              params={"zero": 1})
        plan.claim("small-t", Fraction(0), bud1)
        return plan
    small = (pref * recip_cv(sqrt_cv(t, prec), prec).upper_fraction()
             * 2 * g.sup_bound * width
             * exp_cv(-meff * meff / (4 * alpha * t), prec).upper_fraction())
    if t <= meff * meff / (2 * alpha) and small <= bud1:
        plan = TruncationPlan(0, [("small-t", n + 1)],
                              "below the Gaussian-tail cutoff",
                              params={"zero": 1})
        plan.claim("small-t-monotone", t, meff * meff / (2 * alpha))
        plan.claim("small-t", small, bud1)
        return plan

    q = 1 - t
    tpref = pref * 2 * g.sup_bound * width / t

    def tail(m: int) -> Fraction:
        return tpref * pow_fraction_upper(q, m, 160)

    T = least_passing(lambda m: tail(m + 1) <= bud1, 1, 0, 1 << 26,
                      "series-tail bound failed to close")

    pw = n + 2 + 2 * (T + 1).bit_length() + 10
    plan = TruncationPlan(T, [("series tail", n + 1), ("assembly", n + 2)],
                          f"{T + 1} series terms at t = {t}",
                          params={"zero": 0, "scale": pw})
    plan.claim("I2", tail(T + 1), bud1)
    assert plan.validates(n)
    return plan


def solve_halfline_initial(g: EvaluableFunction, alpha, t, x, n: int,
                           plan: TruncationPlan | None = None) -> CertifiedValue:
    """Certified u(t, x) for initial data g supported inside (0, 1)."""
    alpha, t, x = map(as_fraction, (alpha, t, x))
    if plan is None:
        plan = plan_halfline_initial(g, alpha, t, x, n)
    if plan.params.get("zero"):
        return CertifiedValue(0, n + 2, 1, n + 1)
    T, pw = plan.order, plan.params["scale"]
    pp = pw + 8

    ladder = _SpaceLadder(g, x, alpha, pw)
    qt = t - 1  # powers of (t-1) weight the ladder terms
    qn, qd = qt.numerator, qt.denominator
    ptv, pte = _scaled_from_fraction(Fraction(1), pw)
    total = etot = 0
    for np_ in range(T + 1):
        sv, se = _scaled_from_cv(ladder.term0_cv(pp), pw) if np_ == 0 else ladder.term()
        v, e = _fmul(sv, se, ptv, pte, pw)
        total += v
        etot += e
        ptv, pte = _fscale(ptv, pte, qn, qd)

    pref = _inv_sqrt_4pialpha(alpha, pp)
    return _finish(CertifiedValue(total, pw, etot + 1, pw) * pref, plan, n)
