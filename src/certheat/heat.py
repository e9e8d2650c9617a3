"""Certified solvers for the 1-D diffusion equation.

Four problem shapes:

* interval with Dirichlet ends and initial data, solved by a truncated sine
  series whose mode count comes from an exact decay plan (declared sine
  modes are all summed, with no tail);
* half-line driven by a boundary profile h(t): a Taylor polynomial of h,
  answered term by term in closed form, since data s^k gives
  k! (4t)^k i^{2k}erfc(x / (2 sqrt(alpha t))); h(0) may be nonzero;
* half-line with an external force supported left of the evaluation
  window: a Taylor polynomial of the time factor, each term answered by
  repeated erfc integrals at the space data's endpoints (Duhamel);
* half-line with compactly supported piecewise-linear initial data, the
  same endpoint sum without a time integral.

A time profile (h, or the force's time factor) lives on [0, 2] and
declares polynomial coefficients or sine modes; its Taylor data at 0 and
the bounds on its derivatives over [0, 1] are read off those coefficients.

Piecewise-linear data (``linear_pieces``) gives one interval series term or
half-line distance per point of its jump list (``pl_jumps``).

Here i^j erfc is the j-th repeated integral of erfc (DLMF 7.18; Carslaw and
Jaeger, *Conduction of Heat in Solids*, ch. II and App. II).  Each half-line
solution is a finite sum of erfc(z) and e^{-z^2} with exact rational weights,
so nothing is truncated but the Taylor polynomial.

Every solver first builds a :class:`TruncationPlan` whose inequality chain
records, in exact rational arithmetic, why the retained terms reach the
requested 2^-n accuracy: a series tail for the interval, the Taylor
remainder (maximum principle, worst case over t in [0, 1]) for the half
line.  Each solve checks its own bounds (point tails, Gaussian-tail claims,
the assembled rounding error) with :func:`certheat.series.require` and
leaves the plan as planning built it, so one plan serves any number of
solves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, perm

from .certified import (_LN2_HI, CertifiedValue, _ceil_div, _exact_cv, exp_cv,
                        gauss_ladder, gauss_primitive_cv, pi_cv, recip_cv,
                        recip_sqrt_pi_cv, sin_pi_mul_cv, sqrt_cv)
from .dyadic import as_fraction
from .errors import PreconditionError
from .evaluable import (EvaluableFunction, _guard_bits, _log2_ceil, linear_pieces,
                        pl_jumps)
from .quadrature import breakpoint_series, integral_exact, integrate
from .record import Record
from .series import (TruncationPlan, declared_modes_plan, gaussian_tail, geometric_cap,
                     point_order, require)


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


# ---------------------------------------------------------------------------
# time profiles: Taylor data at 0 read off the declared coefficients


_HALF_PI_UB = Fraction(1571, 1000)  # > pi/2


def _check_time_profile(fn: EvaluableFunction, what: str) -> None:
    """A time profile lives on [0, 2] and declares polynomial coefficients
    or sine modes sum c_m sin(m pi s / 2)."""
    if fn.domain != (Fraction(0), Fraction(2)) or (
            fn.poly_coeffs is None and fn.sine_modes is None):
        raise PreconditionError(
            f"{what} must declare polynomial coefficients or sine modes on [0, 2]")


def _profile_deriv(fn: EvaluableFunction, k: int, p: int) -> CertifiedValue:
    """h^(k)(0) within 2^-p: k! c_k for polynomial coefficients, and
    sin(k pi / 2) (pi/2)^k sum c_m m^k for sine modes on [0, 2]."""
    if fn.poly_coeffs is not None:
        cs = fn.poly_coeffs
        return CertifiedValue.from_fraction(cs[k] * factorial(k) if k < len(cs) else 0, p)
    if k % 2 == 0:
        return CertifiedValue.zero()
    c = (-1) ** (k // 2) * sum((cm * m ** k for m, cm in fn.sine_modes.items()), Fraction(0))
    if c == 0:
        return CertifiedValue.zero()
    g = _guard_bits(abs(c))  # the coefficient scales errors
    pp = p + g + k + 8
    half_pi = pi_cv(pp).mul_exact(Fraction(1, 2))
    pw = CertifiedValue.exact(1)
    for _ in range(k):
        pw = (pw * half_pi).rounded(pp)
    # (pi/2)^k < 2^k scales c's rounding
    return (pw.rounded(p + g + 4) * _exact_cv(c, p + k)).rounded(p + 4)


def _profile_sup(fn: EvaluableFunction, k: int) -> Fraction:
    """Bound on sup over [0, 1] of |h^(k)|."""
    if fn.poly_coeffs is not None:
        return sum((abs(c) * perm(j, k) for j, c in enumerate(fn.poly_coeffs) if j >= k),
                   Fraction(0))
    return sum((abs(c) * (m * _HALF_PI_UB) ** k for m, c in fn.sine_modes.items()),
               Fraction(0))


# ---------------------------------------------------------------------------
# interval: Dirichlet sine series


class IntervalHeatProblem(Record):
    """Diffusion on [0, L] with Dirichlet ends, initial data g, times >= t0.

    g declares sine modes or linear pieces.  The plan's order is what a
    solve at t0 sums.  One solve plans at its own t; many solves plan once
    at their earliest.  ``pieces`` is ``linear_pieces(g)``, read once here
    for every solve, and so, when g has pieces, is their ``pl_jumps`` list
    ``jumps``; ``rho0``, the decay bound at t0, is computed on first use.
    These derived fields take no part in equality or ``repr``.
    """

    _fields = ("L", "alpha", "g", "t0")

    def __init__(self, L: Fraction, alpha: Fraction, g: EvaluableFunction, t0: Fraction):
        self.L = as_fraction(L)
        self.alpha = as_fraction(alpha)
        self.g = g
        self.t0 = as_fraction(t0)
        if self.L <= 0 or self.alpha <= 0 or self.t0 <= 0:
            raise PreconditionError("L, alpha and t must be positive")
        if self.g.domain != (Fraction(0), self.L):
            raise PreconditionError("initial data must live on [0, L]")
        self.pieces = linear_pieces(self.g)
        if self.pieces is None and self.g.sine_modes is None:
            raise PreconditionError("initial data must declare sine modes or linear pieces")
        self.jumps = pl_jumps(self.pieces) if self.pieces is not None else None

    @cached_property
    def rho0(self) -> Fraction:
        return _decay_bound(self.alpha * self.t0 / (self.L * self.L))


def sine_coeff(p: IntervalHeatProblem, k: int, prec: int) -> CertifiedValue:
    """Certified mu_k = (2/L) * integral of g(y) sin(k pi y / L) over [0, L],
    read off g's declared sine modes by orthogonality.  Piecewise-linear data
    forms no coefficient (:func:`_solve_interval_pl`)."""
    if k < 1:
        raise PreconditionError("mode index must be at least 1")
    if p.g.sine_modes is None:
        raise PreconditionError("sine coefficients need declared sine modes")
    return _exact_cv(p.g.sine_modes.get(k, Fraction(0)), prec)


# What depends only on the time slice rate = alpha t / L^2 (and on the
# precision) is computed once per process: many points of one problem, or of
# problems sharing a rate, ask for few slices many times.  The caches are
# bounded; the ladder is a tuple, so no caller can change a shared result.


@lru_cache(maxsize=256)
def _decay_bound(rate: Fraction) -> Fraction:
    """Upper bound rho < 1 on e^{-pi^2 rate}, the per-mode decay."""
    pisq = (pi_cv(80) * pi_cv(80)).rounded(80)
    rho = exp_cv(pisq.mul_fraction(-rate, 76), 70).upper_fraction()
    if rho >= 1:
        raise AssertionError("decay bound failed to certify a rate below one")
    return rho


@lru_cache(maxsize=256)
def _mode_count(scale: Fraction, rho: Fraction, n: int, cap: int) -> tuple[int, Fraction]:
    """(K, tail) of :func:`point_order` for modes of size <= scale decaying
    like rho^(k^2)."""
    return point_order(lambda m: gaussian_tail(scale, rho, m + 1), n, cap,
                       "interval point tail")


@lru_cache(maxsize=256)
def _ladder(rate: Fraction, K: int, W: int) -> tuple:
    return tuple(gauss_ladder(rate, K, W))


def plan_interval(p: IntervalHeatProblem, n: int) -> TruncationPlan:
    """The mode count a solve at t0 sums (:func:`_mode_count`), which every
    t >= t0 needs at most; declared modes plan their top mode."""
    if p.g.sine_modes is not None:
        return declared_modes_plan(max(p.g.sine_modes, default=0), n)
    scale = 2 * p.g.sup_bound
    K, tail = _mode_count(scale, p.rho0, n, geometric_cap(scale / (1 - p.rho0), p.rho0, n))
    plan = TruncationPlan(K, [("truncation", n + 1), ("summation", n + 1)])
    plan.claim("tail", tail, Fraction(1, 1 << (n + 1)))
    plan.require_budget(n)
    return plan


def solve_interval(p: IntervalHeatProblem, t, x, n: int,
                   plan: TruncationPlan | None = None) -> CertifiedValue:
    """Certified u(t, x) with |error| <= 2^-n for t >= t0.  Declared modes
    are all summed and leave no tail; piecewise-linear data sums only the
    modes t needs (:func:`_solve_interval_pl`), and the plan's order caps
    them."""
    t, x = as_fraction(t), as_fraction(x)
    if t < p.t0:
        raise PreconditionError("evaluation time below the declared t0")
    if not 0 <= x <= p.L:
        raise PreconditionError("evaluation point outside [0, L]")
    rate = p.alpha * t / (p.L * p.L)
    if p.g.sine_modes is None:
        if plan is None:
            plan = plan_interval(p, n)
        # |mu_k| <= 2||g|| and mode k decays like rho^(k^2).  e^{-pi^2 rate}
        # falls as t grows, but _decay_bound rounds, so t0's bound may be the
        # lesser; either is a bound at t, and the lesser keeps K within the plan.
        rho = min(_decay_bound(rate), p.rho0)
        K, extra = _mode_count(2 * p.g.sup_bound, rho, n, plan.order)
        return _solve_interval_pl(p, rate, x, K, n).widen_fraction(extra)
    ks = sorted(p.g.sine_modes)
    pc = n + 1 + (len(ks) + 1).bit_length() + 4 \
        + max(0, _log2_ceil(max(p.g.sup_bound, 1)))
    pisq = (pi_cv(pc + 8) * pi_cv(pc + 8)).rounded(pc + 8)
    acc = CertifiedValue.zero()
    for k in ks:
        mu = sine_coeff(p, k, pc)
        if mu.m == 0 and mu.en == 0:
            continue
        decay = exp_cv(pisq.mul_fraction(-k * k * rate, pc + 6), pc)
        term = (mu * decay).rounded(pc) * sin_pi_mul_cv(k * x / p.L, pc)
        acc = (acc + term.rounded(pc)).rounded(pc)
    require("interval assembly", acc.err_fraction(), Fraction(1, 1 << (n + 2)))
    return acc.rounded(n + 4)


def _solve_interval_pl(p: IntervalHeatProblem, rate: Fraction, x: Fraction, K: int,
                       n: int) -> CertifiedValue:
    """Modes 1..K at x of piecewise-linear g, decay e^{-c k^2}, c = pi^2 rate:
    by parts, mu_k = 2 (J_0 + (-1)^k J_L) / (pi k) - 2 L sum_j D_j
    sin(k pi y_j / L) / (pi k)^2 over ``p.jumps``, whose ends' J are g(0)
    and -g(L); the ends' D drop out, as sin(k pi y / L) vanishes there."""
    L = p.L
    (_, j0, _), *mid, (_, jL, _) = p.jumps
    inner = [(y, d) for y, _, d in mid if d]
    size = L * sum((abs(d) for _, d in inner), Fraction(0)) + abs(j0) + abs(jL)
    # the ladder's bounds reach about K + 1/c units, and c >= 9 rate
    W = n + 8 + K.bit_length() + max(0, _log2_ceil(max(size, 1))) \
        + max(0, _log2_ceil(max(1 / rate, 1)))
    decay = _ladder(rate, K, W)
    cos_terms = [((y - x) / L, L * d) for y, d in inner] + [((y + x) / L, -L * d) for y, d in inner]
    # (-1)^k sin(k pi x / L) = sin(k pi (x + L) / L)
    sin_terms = [((x + y) / L, 2 * j) for y, j in ((0, j0), (L, jL)) if j]
    out = breakpoint_series(decay, cos_terms, sin_terms, W, imag=False)[0].rounded(n + 4)
    require("interval assembly", out.err_fraction(), Fraction(1, 1 << (n + 2)))
    return out


# ---------------------------------------------------------------------------
# interval reduction: reweighted initial data whose point value is a plain
# integral


class IntervalReduction:
    """Ties reweighted initial data to its integration identity.

    The data is the profile times the weight exp(E), with
    E = (y - x0)^2 / (4 pi t0).  The identity divides that weight back out,
    so the claimed point value is (4 pi t0)^{-1/2} times the plain integral
    of the profile over [0, 1], whatever the profile is.  No solve evaluates
    the weighted data, so it carries no evaluator.
    """

    def __init__(self, t0: Fraction, x0: Fraction, profile: EvaluableFunction):
        self.t0 = t0
        self.x0 = x0
        self.profile = profile

    def certified_point_value(self, n: int) -> CertifiedValue:
        # midpoint rule, exact per linear piece: one verifier call per cell
        total = integral_exact(self.profile, Fraction(0), Fraction(1))
        if total is None:
            raise PreconditionError("reduction data needs an exact integral")
        pref = _inv_sqrt_4pialpha(self.t0, n + 12)
        return (CertifiedValue.from_fraction(total, n + 6) * pref).rounded(n + 4)


def hardness_initial_interval(t0, x0, g_hard: EvaluableFunction) -> EvaluableFunction:
    """Reweight profile data into initial data on [0, 1] (alpha = 1) with a
    known identity.

    The data is g*(y) = g_hard(y) * exp((y - x0)^2 / (4 pi t0)), returned as
    its domain and sup bound with an attached :class:`IntervalReduction`
    whose point value is a pure integration task; it has no evaluator.
    """
    t0, x0 = as_fraction(t0), as_fraction(x0)
    if t0 <= 0:
        raise PreconditionError("t0 must be positive")
    if not 0 <= x0 <= 1:
        raise PreconditionError("x0 must lie in [0, 1]")
    if g_hard.domain != (Fraction(0), Fraction(1)):
        raise PreconditionError("profile data must live on [0, 1]")
    if g_hard.eval_exact is None:
        raise PreconditionError("profile data needs exact pointwise evaluation")

    # 3^{ceil(1 / (4 t0))} bounds the weight e^E: E before its 1/pi factor
    # is at most 1 / (4 t0), and e < 3
    sup = g_hard.sup_bound * 3 ** _ceil_div(1, 4 * t0)
    return EvaluableFunction(
        domain=(Fraction(0), Fraction(1)),
        sup_bound=sup if sup else Fraction(1, 1 << 30),
        eval_cv=None,
        label="reweighted-initial-data",
        hardness=IntervalReduction(t0, x0, g_hard),
    )


# ---------------------------------------------------------------------------
# Neumann half-line with space-independent force: a plain time integral


def solve_neumann_constant_force(f: EvaluableFunction, t, n: int) -> CertifiedValue:
    """Certified integral of f over [0, t]: the ODE the problem reduces to."""
    t = as_fraction(t)
    if not f.domain[0] <= 0 <= t <= f.domain[1]:
        raise PreconditionError("integration time outside the force domain")
    return integrate(f, 0, t, n)


# ---------------------------------------------------------------------------
# half-line solvers: finite sums of repeated erfc integrals
#
# All three half-line solutions are sums of responses
#     c_e (4t)^e / 2 * (eC i^{2e}erfc(z) + sC s i^{2e+1}erfc(z)),
# one per Taylor index e and per signed distance d from x to the boundary or
# to a data endpoint, with s = 2 sqrt(alpha t) and z = d / s (Carslaw and
# Jaeger, ch. II and App. II).  Writing i^j erfc through erfc(z) and
# e^{-z^2} with exact rational weights leaves two transcendentals per
# distance; the weights fix the precision they need before either is taken.


def _ierfc_parts(w: Fraction, m: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact (a_j, b_j), j = 0..m, with, for z^2 = w,

        i^j erfc(z) = z^(j%2) a_j erfc(z) + z^((j+1)%2) b_j (2/sqrt(pi)) e^{-w}.

    Both parts obey 2j i^j = i^{j-2} - 2z i^{j-1} (DLMF 7.18.7) from
    i^{-1}erfc = (2/sqrt(pi)) e^{-z^2} and i^0 erfc = erfc; splitting off the
    odd powers of z keeps them rational in w.  The recurrence runs exactly,
    so its instability costs nothing: the cancellation between the parts is
    paid once, by the precision of erfc and e^{-w}.
    """
    a, b = [Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]  # j = -1, 0
    for j in range(1, m + 1):
        wa, wb = (w, 1) if j % 2 == 0 else (1, w)
        a.append((a[-2] - 2 * wa * a[-1]) / (2 * j))
        b.append((b[-2] - 2 * wb * b[-1]) / (2 * j))
    return a[1:], b[1:]


def _erfc_cv(w: Fraction, negative: bool, p: int) -> CertifiedValue:
    """erfc(z) for z = +-sqrt(w), sign by ``negative``, with error <= 2^-p."""
    if w >= (p + 2) * _LN2_HI:  # erfc(|z|) <= e^{-w} <= 2^-(p+2)
        tail = CertifiedValue(0, p + 2, 1, p + 2)
        return CertifiedValue.exact(2) - tail if negative else tail
    z = sqrt_cv(w, p + 4)
    F = gauss_primitive_cv(-z if negative else z, p + 4)
    return (CertifiedValue.exact(1)
            - (F * recip_sqrt_pi_cv(p + 4)).mul_exact(2)).rounded(p + 2)


def _kernel_cv(w: Fraction, pref: CertifiedValue, g: int, p: int) -> CertifiedValue:
    """e^{-w} / sqrt(pi alpha t) with error <= 2^-p, from the prefactor
    pref = 1 / sqrt(4 pi alpha t) within 2^-(p + g + 4), 2^g >= 1 / (alpha t)."""
    return (exp_cv(-w, p + g + 4) * pref).mul_exact(2).rounded(p + 2)


def _data_endpoints(f: EvaluableFunction, x: Fraction) -> dict[Fraction, tuple]:
    """Signed distance d -> weights (eC, sC) of piecewise-linear data seen from x.

    Against the Dirichlet half-line kernel, data that jumps by J in value
    and D in slope at y (:func:`pl_jumps`) gives half of
    eC erfc(d/s) + sC s i^1erfc(d/s) with (eC, sC) = (-J, D) at the direct
    distance d = x - y and (-J, -D) at the image's d = x + y.  Equal
    distances merge.  The order is x - y1, x - y0, x + y0, x + y1, then
    x - y, x + y per point: it fixes how the response's error bound rounds.
    """
    segs = linear_pieces(f)
    if segs is None:
        raise PreconditionError(
            "space data must be piecewise linear or affine for the closed form")
    jumps = pl_jumps(segs)
    out: dict[Fraction, tuple] = {}
    for d, e, s in ([(x - y, -J, D) for y, J, D in jumps[1::-1]]
                    + [(x + y, -J, -D) for y, J, D in jumps[:2]]
                    + [t for y, J, D in jumps[2:] for t in ((x - y, -J, D), (x + y, -J, -D))]):
        e0, s0 = out.get(d, (0, 0))
        out[d] = (e0 + e, s0 + s)
    return {d: v for d, v in out.items() if v != (0, 0)}


def _erfc_response(ends: dict, terms: list, t: Fraction, alpha: Fraction,
                   n: int) -> CertifiedValue:
    """Sum over ends {d: (eC, sC)} and terms (e, bound, coeff) of the
    responses c_e (4t)^e / 2 (eC i^{2e}erfc(z) + sC s i^{2e+1}erfc(z)), t > 0.

    ``coeff(prec)`` is c_e with error <= 2^-prec and ``bound`` >= |c_e|.
    A distance d > 0 whose responses are below their share of 2^-(n+3) by
    i^j erfc(z) <= e^{-z^2} i^j erfc(0) is dropped and claimed instead.  The
    rest is P_d erfc(z) + Q_d e^{-w} / sqrt(pi alpha t) with exact weights:
    their sizes set the precision of the coefficients and then of the
    transcendentals, so the sum keeps within 2^-(n+2) without a retry.
    """
    at = alpha * t
    g = max(0, _log2_ceil(1 / at))  # 1/(4 pi at) scales the prefactor's error
    cap = Fraction(1 << ((g + 1) // 2))  # >= 1 / sqrt(alpha t), the kernel at d = 0
    sat = sqrt_cv(at, 16).upper_fraction()
    phi = sum((bd * t ** e / factorial(e) for e, bd, _ in terms), Fraction(0))
    share = Fraction(1, 1 << (n + 3)) / max(len(ends), 1)
    top = 2 * max(e for e, _, _ in terms) + 1
    claims = Fraction(0)
    kept = []
    for d, (eC, sC) in ends.items():
        w = d * d / (4 * at)
        if d > 0:
            # Gamma(e + 3/2) >= e!/2 bounds the odd-order response too
            size = phi * (abs(eC) + 2 * abs(sC) * sat) / 2
            if size == 0:
                continue
            cut = size * exp_cv(-w, n + 8 + len(ends).bit_length()
                                + max(0, _log2_ceil(size))).upper_fraction()
            if cut <= share:
                claims += cut
                continue
        a, b = _ierfc_parts(w, top)
        # the kernel e^{-w} / sqrt(pi alpha t) is at most 1 / (2|d|) and cap
        kern = Fraction(1, 2 * abs(d)) if d else cap
        kept.append((d, w, kern, [((4 * t) ** e / 2 * (eC * a[2 * e] + sC * d * a[2 * e + 1]),
                              (4 * t) ** e / 2 * (eC * d * b[2 * e] + 4 * at * sC * b[2 * e + 1]))
                             for e, _, _ in terms]))
    # erfc <= 2 and the kernel's bound weigh the coefficients
    M = sum((2 * abs(mp) + abs(mq) * kern
             for _, _, kern, ms in kept for mp, mq in ms), Fraction(0))
    q = n + 8 + max(0, _log2_ceil(M) if M else 0)
    cs = [c(q) for _, _, c in terms] if kept else []
    parts, size = [], Fraction(0)
    for d, w, kern, ms in kept:
        P = Q = Pe = Qe = Fraction(0)
        for cv, (mp, mq) in zip(cs, ms):
            v, e = cv.value_fraction(), cv.err_fraction()
            P, Q = P + v * mp, Q + v * mq
            Pe, Qe = Pe + e * abs(mp), Qe + e * abs(mq)
        size += abs(P) + Pe + abs(Q) + Qe
        parts.append((d, w, kern, P, Pe, Q, Qe))
    r = n + 8 + (2 * len(parts)).bit_length() + max(0, _log2_ceil(size) if size else 0)
    pref = _inv_sqrt_4pialpha(at, r + g + 4)
    total = CertifiedValue.zero()
    for d, w, kern, P, Pe, Q, Qe in parts:
        Pc = CertifiedValue.from_fraction(P, r + 4).widen_fraction(Pe)
        # the kernel scales Q's rounding; r's slack absorbs a kernel up to
        # 2^9, and a larger one (d and alpha t both near 0) rounds Q finer
        Qc = CertifiedValue.from_fraction(
            Q, r + 4 + max(0, _log2_ceil(min(kern, cap)) - 9)).widen_fraction(Qe)
        total = (total + (Pc * _erfc_cv(w, d < 0, r)).rounded(r + 4)
                 + (Qc * _kernel_cv(w, pref, g, r)).rounded(r + 4))
    out = total.rounded(n + 4)
    require("assembly", out.err_fraction(), Fraction(1, 1 << (n + 2)))
    require("erfc tail", claims, Fraction(1, 1 << (n + 3)))
    return out.widen_fraction(claims)


def _plan_taylor(fn: EvaluableFunction, scale: Fraction, extra: int, n: int,
                 what: str) -> TruncationPlan:
    """Least Taylor degree K of a time profile with remainder claim
    scale * sup|h^(K+1)| / (K+1+extra)! <= 2^-(n+1), the bound at t = 1."""
    bud = Fraction(1, 1 << (n + 1))
    K = 0
    # linear scan: the remainder is not monotone in K (x^5, t = 1: 5, 10, 10, 5, 1, 0)
    while _taylor_rem(fn, scale, extra, K, Fraction(1)) > bud:
        K += 1
        if K > 8 * n + 256:
            raise PreconditionError(f"{what} derivatives grow too fast for a Taylor closed form")
    plan = TruncationPlan(K, [("taylor", n + 1), ("erfc tail", n + 3), ("assembly", n + 2)])
    plan.claim("taylor-remainder", _taylor_rem(fn, scale, extra, K, Fraction(1)), bud)
    plan.require_budget(n)
    return plan


def _taylor_rem(fn: EvaluableFunction, scale: Fraction, extra: int, K: int,
                t: Fraction) -> Fraction:
    """Bound at t <= 1 on the solution driven by the Taylor remainder past
    degree K: the maximum principle gives sup|R_K| <= sup|h^(K+1)| t^(K+1)
    / (K+1)!, and each Duhamel time integral (extra) one more t/(K+2)."""
    return scale * _profile_sup(fn, K + 1) * t ** (K + 1 + extra) / factorial(K + 1 + extra)


def _window_args(p, t, x, n: int, plan: TruncationPlan | None, planner):
    """Checked (t, x) and the plan, built if none is given."""
    t, x = as_fraction(t), as_fraction(x)
    if not 0 <= t <= 1:
        raise PreconditionError("time must lie in [0, 1]")
    x0, x1 = p.x_window
    if not x0 <= x <= x1:
        raise PreconditionError("evaluation point outside the declared window")
    return t, x, plan if plan is not None else planner(p, n)


def _taylor_terms(fn: EvaluableFunction, K: int, shift: int) -> list:
    """(e, bound, coeff) for the Taylor coefficients f^(k)(0), k <= K, at
    response index e = k + shift."""
    return [(k + shift, _profile_sup(fn, k),
             lambda prec, k=k: _profile_deriv(fn, k, prec)) for k in range(K + 1)]


# ---------------------------------------------------------------------------
# half-line with boundary forcing


class HalflineBoundaryProblem(Record):
    """u_t = alpha u_xx on x > 0 with u(0, t) = h(t) and zero initial data."""

    _fields = ("alpha", "h", "x_window")

    def __init__(self, alpha: Fraction, h: EvaluableFunction,
                 x_window: tuple[Fraction, Fraction]):
        self.alpha = alpha
        self.h = h
        self.x_window = x_window
        _check_alpha_window(self)
        _check_time_profile(self.h, "boundary profile")


def plan_halfline_boundary(p: HalflineBoundaryProblem, n: int) -> TruncationPlan:
    """Taylor degree of h for every t in [0, 1] and x in the window."""
    return _plan_taylor(p.h, Fraction(1), 0, n, "profile")


def solve_halfline_boundary(p: HalflineBoundaryProblem, t, x, n: int,
                            plan: TruncationPlan | None = None) -> CertifiedValue:
    """Certified u(t, x) with |error| <= 2^-n inside the declared window.

    Data s^k gives k! (4t)^k i^{2k}erfc(x / (2 sqrt(alpha t))), so u is
    sum_k h^(k)(0) (4t)^k i^{2k}erfc plus the Taylor remainder's claim.
    """
    t, x, plan = _window_args(p, t, x, n, plan, plan_halfline_boundary)
    if t == 0:
        return CertifiedValue.zero()
    K = plan.order
    u = _erfc_response({x: (Fraction(2), Fraction(0))}, _taylor_terms(p.h, K, 0),
                       t, p.alpha, n)
    return u.widen_fraction(_taylor_rem(p.h, Fraction(1), 0, K, t))


# ---------------------------------------------------------------------------
# half-line with external force


class HalflineForceProblem(Record):
    """u_t = alpha u_xx + f_time(t) f_space(x) on x > 0, Dirichlet at 0.

    The force support [0, y0] must sit strictly left of the evaluation
    window: the time integrals of the kernel take the Laplace pair
    e^{-d sqrt(p/alpha)} / p^(1+j/2) <-> (4t)^(j/2) i^j erfc(d / (2 sqrt(alpha t))),
    which needs every endpoint distance d > 0.  ``y0``, the support's right
    end, takes no part in equality or ``repr``.
    """

    _fields = ("alpha", "f_time", "f_space", "x_window")

    def __init__(self, alpha: Fraction, f_time: EvaluableFunction,
                 f_space: EvaluableFunction, x_window: tuple[Fraction, Fraction]):
        self.alpha = alpha
        self.f_time = f_time
        self.f_space = f_space
        self.x_window = x_window
        _check_alpha_window(self)
        _check_time_profile(self.f_time, "time factor")
        if self.f_space.domain[0] != 0:
            raise PreconditionError("force support must start at 0")
        self.y0 = self.f_space.domain[1]
        if self.y0 >= self.x_window[0]:
            raise PreconditionError("force support must end left of the window")


def plan_halfline_force(p: HalflineForceProblem, n: int) -> TruncationPlan:
    """Taylor degree of f_time; Duhamel adds a factor t/(K+2) ||f_space||."""
    return _plan_taylor(p.f_time, p.f_space.sup_bound, 1, n, "time-factor")


def solve_halfline_force(p: HalflineForceProblem, t, x, n: int,
                         plan: TruncationPlan | None = None) -> CertifiedValue:
    """Certified u(t, x) with |error| <= 2^-n inside the declared window.

    Time data s^k against the space data answers
    k! (4t)^(k+1) / 2 sum_d (eC i^{2k+2}erfc(z_d) + sC s i^{2k+3}erfc(z_d)).
    """
    t, x, plan = _window_args(p, t, x, n, plan, plan_halfline_force)
    if t == 0:
        return CertifiedValue.zero()
    K = plan.order
    u = _erfc_response(_data_endpoints(p.f_space, x), _taylor_terms(p.f_time, K, 1),
                       t, p.alpha, n)
    return u.widen_fraction(_taylor_rem(p.f_time, p.f_space.sup_bound, 1, K, t))


# ---------------------------------------------------------------------------
# half-line with compactly supported initial data


def _initial_args(g: EvaluableFunction, alpha, t, x) -> tuple[Fraction, Fraction, Fraction]:
    """Checked (alpha, t, x): alpha > 0, t >= 0, x >= 0, support from >= 0."""
    alpha, t, x = map(as_fraction, (alpha, t, x))
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    if t < 0 or x < 0:
        raise PreconditionError("time and evaluation point must be nonnegative")
    if g.domain[0] < 0:
        raise PreconditionError("initial data support must start at or right of 0")
    return alpha, t, x


def plan_halfline_initial(g: EvaluableFunction, alpha, t, x, n: int) -> TruncationPlan:
    """The closed form's budget: the erfc tail's claim and the assembly."""
    _initial_args(g, alpha, t, x)
    plan = TruncationPlan(0, [("erfc tail", n + 3), ("assembly", n + 2)])
    plan.require_budget(n)
    return plan


def solve_halfline_initial(g: EvaluableFunction, alpha, t, x, n: int) -> CertifiedValue:
    """Certified u(t, x) for piecewise-linear initial data g, zero outside
    its support [b0, b1] with b0 >= 0, at any t >= 0 and x >= 0.

    The kernel depends on alpha t only; u is half the sum over the data's
    endpoint distances d of eC erfc(d/s) + sC s i^1erfc(d/s), on either
    side of the support or inside it.  At t = 0, u is the data's value at x.
    """
    alpha, t, x = _initial_args(g, alpha, t, x)
    ends = _data_endpoints(g, x)
    if t == 0:
        v = next((c0 + c1 * x for c0, c1, b0, b1 in linear_pieces(g) if b0 <= x <= b1), 0)
        return CertifiedValue.from_fraction(v, n + 2)
    one = CertifiedValue.exact(1)
    return _erfc_response(ends, [(0, Fraction(1), lambda prec: one)], t, alpha, n)
