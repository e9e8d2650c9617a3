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
solution is a finite sum of erfc(z) and e^{-z^2} whose weights are exact:
integers over one denominator per distance, built by an integer recurrence
for the repeated integrals, so nothing is truncated but the Taylor
polynomial and no weight passes through a Fraction.

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
    if fn.domain != (0, 2) or (
            fn.poly_coeffs is None and fn.sine_modes is None):
        raise PreconditionError(
            f"{what} must declare polynomial coefficients or sine modes on [0, 2]")


def _profile_deriv(fn: EvaluableFunction, k: int, p: int) -> CertifiedValue:
    """h^(k)(0) within 2^-p: k! c_k for polynomial coefficients, and
    sin(k pi / 2) (pi/2)^k sum c_m m^k for sine modes on [0, 2]."""
    if fn.poly_coeffs is not None:
        cs = fn.poly_coeffs
        return CertifiedValue.from_fraction(cs[k] * factorial(k) if k < len(cs) else 0, p)
    c = k % 2 and (-1) ** (k // 2) * sum(cm * m ** k for m, cm in fn.sine_modes.items())
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


def _profile_sups(fn: EvaluableFunction, k: int):
    """Bounds on sup over [0, 1] of |h^(j)| for j = k, k + 1, ...:
    sum |c_i| i!/(i - j)! over i >= j for polynomial coefficients and
    sum |c_m| (m u)^j, u = 1571/1000 > pi/2, for sine modes, each term
    carried to the next j by one product."""
    poly = fn.poly_coeffs is not None
    coeffs = dict(enumerate(fn.poly_coeffs)) if poly else fn.sine_modes
    terms = {i: abs(c) * (perm(i, k) if poly else (i * _HALF_PI_UB) ** k)
             for i, c in coeffs.items()}
    while True:
        yield sum(terms.values())
        terms = {i: a * (i - k if poly else i * _HALF_PI_UB) for i, a in terms.items()}
        k += 1


# ---------------------------------------------------------------------------
# interval: Dirichlet sine series


class IntervalHeatProblem(Record):
    """Diffusion on [0, L] with Dirichlet ends, initial data g, times >= t0.

    g declares sine modes or linear pieces.  The plan's order is what a
    solve at t0 sums.  One solve plans at its own t; many solves plan once
    at their earliest.  ``pieces`` is ``linear_pieces(g)``, read once here
    for every solve, and so, when g has pieces, are their ``pl_jumps`` list
    ``jumps``, its ``inner`` slope jumps (y, D) with D != 0 and
    ``size_bits``, the guard bits log2 of L sum |D| + |g(0)| + |g(L)|
    (at least 0) that :func:`_solve_interval_pl` adds to its scale; ``rho0``,
    the decay bound at t0, is computed on first use.  These derived fields
    take no part in equality or ``repr``.
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
        self.jumps = self.inner = self.size_bits = None
        if self.pieces is not None:
            self.jumps = pl_jumps(self.pieces)
            (_, j0, _), *mid, (_, jL, _) = self.jumps
            self.inner = [(y, d) for y, _, d in mid if d]
            size = self.L * sum((abs(d) for _, d in self.inner), Fraction(0)) + abs(j0) + abs(jL)
            self.size_bits = _guard_bits(size)

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
        raise PreconditionError(f"rate alpha t / L^2 = {rate} is too small to certify "
                                "a decay below one")
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
    pc = n + 1 + (len(ks) + 1).bit_length() + 4 + _guard_bits(p.g.sup_bound)
    pisq = (pi_cv(pc + 8) * pi_cv(pc + 8)).rounded(pc + 8)
    acc = CertifiedValue.zero()
    for k in ks:
        mu = sine_coeff(p, k, pc)
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
    L, inner, j0, jL = p.L, p.inner, p.jumps[0][1], p.jumps[-1][1]
    # the ladder's bounds reach about K + 1/c units, and c >= 9 rate
    W = n + 8 + K.bit_length() + p.size_bits + _guard_bits(1 / rate)
    decay = _ladder(rate, K, W)
    cos_terms = [((y - x) / L, L * d) for y, d in inner] + [((y + x) / L, -L * d) for y, d in inner]
    # (-1)^k sin(k pi x / L) = sin(k pi (x + L) / L)
    sin_terms = [((x + y) / L, 2 * j) for y, j in ((0, j0), (L, jL)) if j]
    out = breakpoint_series(decay, cos_terms, sin_terms, W)[0].rounded(n + 4)
    require("interval assembly", out.err_fraction(), Fraction(1, 1 << (n + 2)))
    return out


# ---------------------------------------------------------------------------
# counting reduction: reweighted half-line initial data whose point value is
# a plain integral


class IntervalReduction:
    """Reweighted half-line initial data built from a profile h on [0, 1]
    (with exact evaluation) at a point (t0, x0), t0 > 0 and x0 > 0, and the
    data's integration identity.

    The problem is the half-line initial-data problem with Dirichlet end at
    0 (``solve_halfline_initial``'s) at alpha = 1, whose kernel is
    (4 pi t)^{-1/2} e^{-(x - y)^2 / (4 t)} (1 - e^{-x y / t}) by the
    method of images (Carslaw and Jaeger, ch. II).  The data is the profile
    h moved onto [1/2, 3/2], times the weight
    w(y) = e^{(x0 - y)^2 / (4 t0)} / (1 - e^{-x0 y / t0}), the kernel at
    (t0, x0) over its constant factor.  So u(t0, x0) is
    (4 pi t0)^{-1/2} times the plain integral of h over [0, 1], whatever h
    is, and the identity reads only that integral.  The weight blows up at
    y = 0, hence the support off 0.  The data is not piecewise linear, so no
    solve evaluates it: the identity is the whole route.
    """

    def __init__(self, t0, x0, profile: EvaluableFunction):
        t0, x0 = as_fraction(t0), as_fraction(x0)
        if t0 <= 0:
            raise PreconditionError("t0 must be positive")
        if x0 <= 0:
            raise PreconditionError("x0 must be positive")
        if profile.domain != (Fraction(0), Fraction(1)):
            raise PreconditionError("profile data must live on [0, 1]")
        if profile.eval_exact is None:
            raise PreconditionError("profile data needs exact pointwise evaluation")
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


def _ierfc_parts(w: Fraction, m: int) -> tuple[list[int], list[int]]:
    """Integers (A_j, B_j), j = 0..m, with, for z^2 = w = N / D in lowest terms,

        i^j erfc(z) = z^(j%2) a_j erfc(z) + z^((j+1)%2) b_j (2/sqrt(pi)) e^{-w},
        A_j = a_j 2^j j! D^floor(j/2),   B_j = b_j 2^j j! D^floor((j+1)/2).

    Both parts obey 2j i^j = i^{j-2} - 2z i^{j-1} (DLMF 7.18.7) from
    i^{-1}erfc = (2/sqrt(pi)) e^{-z^2} and i^0 erfc = erfc; splitting off the
    odd powers of z keeps them rational in w, and the scales clear their
    denominators: A_j = 2(j-1) D A_{j-2} - 2 N A_{j-1} for even j and
    - 2 A_{j-1} for odd j, and B_j the same with the parities swapped.  The
    recurrence runs exactly, so its instability costs nothing: the
    cancellation between the parts is paid once, by the precision of erfc
    and e^{-w}.
    """
    N, D = w.numerator, w.denominator
    a, b = [1, -2], [0, D]  # j = 0, 1
    for j in range(2, m + 1):
        c = 2 * (j - 1) * D
        na, nb = (N, 1) if j % 2 == 0 else (1, N)
        a.append(c * a[-2] - 2 * na * a[-1])
        b.append(c * b[-2] - 2 * nb * b[-1])
    return a[:m + 1], b[:m + 1]


def _erfc_cv(w: Fraction, negative: bool, p: int) -> CertifiedValue:
    """erfc(z) for z = +-sqrt(w), sign by ``negative``, with error <= 2^-p."""
    if w >= (p + 2) * _LN2_HI:  # erfc(|z|) <= e^{-w} <= 2^-(p+2)
        tail = CertifiedValue(0, p + 2, 1, p + 2)
        return CertifiedValue.exact(2) - tail if negative else tail
    z = sqrt_cv(w, p + 4)
    F = gauss_primitive_cv(-z if negative else z, p + 4)
    return (CertifiedValue.exact(1)
            - (F * recip_sqrt_pi_cv(p + 4)).mul_exact(2)).rounded(p + 2)


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
    out = {}
    for d, e, s in ([(x - y, -J, D) for y, J, D in jumps[1::-1]]
                    + [(x + y, -J, -D) for y, J, D in jumps[:2]]
                    + [t for y, J, D in jumps[2:] for t in ((x - y, -J, D), (x + y, -J, -D))]):
        if d in out:
            e, s = out[d][0] + e, out[d][1] + s
        out[d] = (e, s)
    return {d: v for d, v in out.items() if any(v)}


def _erfc_response(ends: dict, terms: list, t: Fraction, alpha: Fraction,
                   n: int) -> CertifiedValue:
    """Sum over ends {d: (eC, sC)} and terms (e, bound, coeff), e ascending,
    of the responses c_e (4t)^e / 2 (eC i^{2e}erfc(z) + sC s i^{2e+1}erfc(z)),
    t > 0.

    ``coeff(prec)`` is c_e with error <= 2^-prec and ``bound`` >= |c_e|.
    A distance d > 0 whose responses are below their share 1 / sh of the
    tail budget, sh = len(ends) 2^(n+3), is dropped and claimed instead: by
    i^j erfc(z) <= e^{-z^2} i^j erfc(0) and Gamma(e + 3/2) >= e!/2 they are
    at most ph (|eC| + s2 |sC|) e^{-w}, and as log2 e < 1.4427, a size above
    the share times 2^ceil(1.4427 w) is kept without forming the exp.

    The rest is P_d erfc(z) + Q_d e^{-w} / sqrt(pi alpha t), with the
    integers A, B of :func:`_ierfc_parts` at w = N / D:

        P_d = sum_e c_e t^e (2 (2e+1) eC A_2e + sC d A_2e+1) / (4 (2e+1)! D^e),
        Q_d = sum_e c_e t^e ((2e+1) D eC d B_2e + 2 alpha t sC B_2e+1)
                            / (2 (2e+1)! D^(e+1)).

    With t = T1 / T2, E the top e and t^e / (2e+1)! = te / ((2E+1)! T2^E),
    each weight of c_e is an integer over one denominator per distance,
    den = 4 (2E+1)! T2^E D^(E+1) times the denominators of eC, sC, d and
    alpha t: U, V, U1 and V1 stand for 2 D eC, D sC d, 2 D eC d and
    4 alpha t sC over it.  With the coefficients as integers over 2^S, so
    are P_d, Q_d and their error bounds.

    The weights' size M, with erfc <= 2 and the kernel at most kn / kd
    (1 / (2|d|), and 2^ceil(g/2) >= 1 / sqrt(alpha t)), sets the
    coefficients' precision, and the size Z of P_d, Q_d and their errors
    that of the transcendentals, so the sum keeps within 2^-(n+2) without a
    retry.  The kernel is within 2^-r, as pref is within 2^-(r + g + 4) and
    2^g >= 1 / (alpha t); it scales Q's rounding, and r's slack absorbs a
    kernel up to 2^9, so a larger one (d and alpha t both near 0) rounds Q
    finer.
    """
    at = alpha * t
    A1, B1 = at.numerator, at.denominator
    g = _guard_bits(B1, A1)  # 1/(4 pi at) scales the prefactor's error
    cap = 1 << ((g + 1) // 2)
    ph = sum(bd * t ** e / factorial(e) for e, bd, _ in terms) / 2
    s2 = 2 * sqrt_cv(at, 16).upper_fraction()
    phn, phd, s2n, s2d = ph.numerator, ph.denominator, s2.numerator, s2.denominator
    sh = len(ends) << (n + 3)
    E = terms[-1][0]
    T2, big = t.denominator, factorial(2 * E + 1)
    ts = [(e, t.numerator ** e * T2 ** (E - e) * (big // factorial(2 * e + 1)))
          for e, _, _ in terms]
    claims, kept, Mn, Md = Fraction(0), [], 0, 1
    for d, (eC, sC) in ends.items():
        w = d * d / (4 * at)
        N, D = w.numerator, w.denominator
        en, ed, sn, sd, dn, dd = (eC.numerator, eC.denominator, sC.numerator, sC.denominator,
                                  d.numerator, d.denominator)
        if d > 0:
            size, sz = phn * (abs(en) * sd * s2d + s2n * abs(sn) * ed), phd * ed * sd * s2d
            if size == 0:
                continue
            if _log2_ceil(size * sh, sz) <= _ceil_div(N * 14427, D * 10000):
                size = Fraction(size, sz)
                cut = size * exp_cv(-w, n + 8 + len(ends).bit_length()
                                    + _guard_bits(size)).upper_fraction()
                if cut * sh <= 1:
                    claims += cut
                    continue
        A, B = _ierfc_parts(w, 2 * E + 1)
        den = 4 * big * T2 ** E * D ** (E + 1) * ed * sd * dd * B1
        U, V, V1 = 2 * D * en * sd * dd * B1, D * sn * dn * ed * B1, 4 * A1 * sn * ed * dd
        ws = [[te * D ** (E - e) * ((2 * e + 1) * u * X[2 * e] + v * X[2 * e + 1]) for e, te in ts]
              for u, v, X in ((U, V, A), (U // dd * dn, V1, B))]
        kn, kd = (dd, 2 * abs(dn)) if d else (cap, 1)
        m = 2 * kd * sum(map(abs, ws[0])) + kn * sum(map(abs, ws[1]))
        Mn, Md = Mn * den * kd + m * Md, Md * den * kd
        kept.append((d, w, max(0, _log2_ceil(min(kn, cap * kd), kd) - 9), den, ws))
    q = n + 8 + _guard_bits(Mn, Md)
    cs = [c(q) for _, _, c in terms] if kept else []
    S = max((max(cv.s, cv.es) for cv in cs), default=0)
    cs = [(cv.m << (S - cv.s), cv.en << (S - cv.es)) for cv in cs]
    parts, Zn, Zd = [], 0, 1
    for d, w, qx, den, ws in kept:
        PQ = [(sum(v * x for (v, _), x in zip(cs, col)),
               sum(e * abs(x) for (_, e), x in zip(cs, col))) for col in ws]
        den <<= S
        Zn, Zd = Zn * den + sum(abs(v) + e for v, e in PQ) * Zd, Zd * den
        parts.append((d, w, qx, den, PQ))
    r = n + 8 + (2 * len(parts)).bit_length() + _guard_bits(Zn, Zd)
    pref = _inv_sqrt_4pialpha(at, r + g + 4)
    total = CertifiedValue.zero()
    for d, w, qx, den, PQ in parts:
        kern = (exp_cv(-w, r + g + 4) * pref).mul_exact(2).rounded(r + 2)
        for (X, Xe), x, tr in zip(PQ, (0, qx), (_erfc_cv(w, d < 0, r), kern)):
            Xc = CertifiedValue.from_fraction(X, r + 4 + x, den).widen_fraction(Fraction(Xe, den))
            total += (Xc * tr).rounded(r + 4)
    out = total.rounded(n + 4)
    require("assembly", out.err_fraction(), Fraction(1, 1 << (n + 2)))
    require("erfc tail", claims, Fraction(1, 1 << (n + 3)))
    return out.widen_fraction(claims)


def _plan_taylor(fn: EvaluableFunction, scale: Fraction, extra: int, n: int,
                 what: str) -> TruncationPlan:
    """Least Taylor degree K of a time profile with remainder claim
    scale * sup|h^(K+1)| / (K+1+extra)! <= 2^-(n+1), the bound at t = 1 on
    the solution the remainder past degree K drives: the maximum principle
    gives sup|R_K| <= sup|h^(K+1)| t^(K+1) / (K+1)!, and each Duhamel time
    integral (extra) one more t/(K+2)."""
    bud, sups, fact, K = Fraction(1, 1 << (n + 1)), _profile_sups(fn, 1), factorial(1 + extra), 0
    # linear scan, carrying the sup and the factorial from K to K + 1: the
    # remainder is not monotone in K (x^5, t = 1: 5, 10, 10, 5, 1, 0)
    while (rem := scale * next(sups) / fact) > bud:
        K += 1
        if K > 8 * n + 256:
            raise PreconditionError(f"{what} derivatives grow too fast for a Taylor closed form")
        fact *= K + 1 + extra
    plan = TruncationPlan(K, [("taylor", n + 1), ("erfc tail", n + 3), ("assembly", n + 2)])
    plan.claim("taylor-remainder", rem, bud)
    plan.require_budget(n)
    return plan


def _taylor_solve(p, fn, scale, shift: int, ends, t, x, n: int, plan,
                  planner) -> CertifiedValue:
    """u(t, x) driven by the time profile fn of p (scale and shift as in
    :func:`_plan_taylor`'s claim): (t, x) checked against p's window, the
    plan built if none is given, the responses at the distances ``ends(x)``
    to the Taylor coefficients f^(k)(0), k <= K, at index e = k + shift, and
    the Taylor remainder's claim."""
    t, x = as_fraction(t), as_fraction(x)
    if not 0 <= t <= 1:
        raise PreconditionError("time must lie in [0, 1]")
    if not p.x_window[0] <= x <= p.x_window[1]:
        raise PreconditionError("evaluation point outside the declared window")
    K = (plan or planner(p, n)).order
    if t == 0:
        return CertifiedValue.zero()
    sups = _profile_sups(fn, 0)
    terms = [(k + shift, next(sups), lambda prec, k=k: _profile_deriv(fn, k, prec))
             for k in range(K + 1)]
    return _erfc_response(ends(x), terms, t, p.alpha, n).widen_fraction(
        scale * next(sups) * t ** (K + 1 + shift) / factorial(K + 1 + shift))


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
    return _taylor_solve(p, p.h, Fraction(1), 0, lambda x: {x: (2, 0)},
                         t, x, n, plan, plan_halfline_boundary)


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
    return _taylor_solve(p, p.f_time, p.f_space.sup_bound, 1,
                         lambda x: _data_endpoints(p.f_space, x), t, x, n, plan,
                         plan_halfline_force)


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
