"""Self-check suites: one named invariant per check, pass/fail reporting.

Each check re-derives its expected answer from an independent route (closed
forms, exact partial sums, enumeration, analytic identities) so a passing
suite certifies the installed build, not the test fixtures.

The closed forms that only these checks use live here too, off the solvers'
import path: the heat-kernel time derivatives ``heat_g`` and
``heat_g_tilde`` of g(t,x) = x t^(-3/2) e^(-x^2/t) and
g~(t,x) = t^(-1/2) e^(-x^2/t) (``heat_g_rational_core`` is the exact finite
sum S with g^(n) = x t^(-3/2) e^(-x^2/t) S, since the half-integer Gamma
ratios are rational, and g~^(n) follows from the Leibniz rule on t g / x),
the harmonic dimension ``sph_count``, and the series tail identities
``arith_geom_sum``, ``higher_arith_geom`` and ``geometric_tail``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Callable

from .certified import (CertifiedValue, cos_pi_mul_cv, exp_cv, pi_cv, recip_cv,
                        recip_pi_cv, sin_pi_mul_cv, sqrt_cv)
from .dyadic import as_fraction
from .errors import CertHeatError, ConfigError, InsufficientPrecision, PreconditionError
from .evaluable import (EvaluableFunction, _log2_ceil, piecewise_linear_fn, polynomial_fn,
                        sine_modes_fn, trig_poly_fn, TrigPoly)
from .hardness import (CountingInstance, PIPELINES, brute_force_count,
                       counting_integrand, measure_blowup, precision_for,
                       random_instance, recover_count, render_csv)
from .heat import (IntervalHeatProblem, HalflineBoundaryProblem,
                   solve_halfline_boundary, solve_interval,
                   solve_neumann_constant_force)
from .kernels import real_sph_harmonic_3d
from .laplace import DiskProblem, hardness_boundary_disk, solve_disk
from .quadrature import integrate
from .series import TruncationPlan


class CheckResult:
    def __init__(self, suite: str, name: str, ok: bool, detail: str = ""):
        self.suite = suite
        self.name = name
        self.ok = ok
        self.detail = detail


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _enclose(cv: CertifiedValue, target: CertifiedValue, slack: Fraction) -> None:
    gap = abs(cv.value_fraction() - target.value_fraction())
    _require(gap <= cv.err_fraction() + target.err_fraction() + slack,
             f"gap {float(gap):.3e} exceeds budget")


# ---------------------------------------------------------------------------
# closed forms only these checks use: the heat-kernel derivative family
# g^(n), g~^(n)


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
# harmonic dimensions and series tail identities


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


def arith_geom_sum(m: int, x) -> Fraction:
    """Sum of (k+1) x^k for k >= m, as an exact rational.

    >>> arith_geom_sum(0, Fraction(1, 2))
    Fraction(4, 1)
    >>> arith_geom_sum(1, Fraction(1, 2))
    Fraction(3, 1)
    """
    x = as_fraction(x)
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    if abs(x) >= 1:
        raise PreconditionError("arith_geom_sum requires |x| < 1")
    return x ** m * (m * (1 - x) + 1) / (1 - x) ** 2


def higher_arith_geom(m: int, p: int, x) -> Fraction:
    """Sum of x^k (k+p)!/k! for k >= m, exact.

    Computed by differentiating x^(p+m)/(1-x) p times term by term, keeping
    coefficients of x^a/(1-x)^b exactly, then evaluating at x.
    """
    x = as_fraction(x)
    if m < 0 or p < 0:
        raise PreconditionError("m and p must be nonnegative")
    if abs(x) >= 1:
        raise PreconditionError("higher_arith_geom requires |x| < 1")
    # terms: (a, b) -> coefficient, meaning coeff * x^a / (1-x)^b
    terms = {(p + m, 1): 1}
    for _ in range(p):
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), c in terms.items():
            if a > 0:
                key = (a - 1, b)
                nxt[key] = nxt.get(key, 0) + c * a
            key = (a, b + 1)
            nxt[key] = nxt.get(key, 0) + c * b
        terms = nxt
    one_minus = 1 - x
    total = Fraction(0)
    for (a, b), c in terms.items():
        total += c * x ** a / one_minus ** b
    return total


def geometric_tail(r, start: int, scale) -> Fraction:
    """scale * r^start / (1 - r): closed form for scale * sum of r^k, k >= start."""
    r = as_fraction(r)
    scale = as_fraction(scale)
    if not 0 < r < 1:
        raise PreconditionError("geometric_tail requires r in (0,1)")
    return scale * r ** start / (1 - r)


# ---------------------------------------------------------------------------
# kernels


def _ck_heat_g_base(rng):
    _enclose(heat_g(0, 1, 1, 40), exp_cv(Fraction(-1), 60), Fraction(0))
    half = exp_cv(Fraction(-1), 60).mul_fraction(Fraction(-1, 2), 60)
    _enclose(heat_g(1, 1, 1, 40), half, Fraction(0))
    cv = heat_g(3, 1, 0, 30)
    _require(cv.value_fraction() == 0 and cv.err_fraction() == 0,
             "odd kernel should vanish exactly at x=0")


def _printed_form(n: int) -> CertifiedValue:
    # (t g^(n) + g^(n-1)) / x at t = x = 1: the Leibniz form without its factor n
    out = heat_g(n, 1, 1, 42)
    return out + heat_g(n - 1, 1, 1, 42) if n >= 1 else out


def _ck_heat_g_forms(rng):
    for n in (0, 1):
        a = heat_g_tilde(n, 1, 1, 40)
        b = _printed_form(n)
        _enclose(a, b, Fraction(1, 2 ** 36))
    a = heat_g_tilde(2, 1, 1, 40)
    b = _printed_form(2)
    gap = abs(a.value_fraction() - b.value_fraction())
    gap -= a.err_fraction() + b.err_fraction()
    _require(gap > Fraction(1, 10 ** 6), "variant forms should split at order 2")


def _ck_sph_addition(rng):
    quarter = recip_pi_cv(70)
    for l in range(4):
        th = Fraction(rng.randrange(5, 195), 100)
        ph = Fraction(rng.randrange(0, 200), 100)
        total = CertifiedValue.zero()
        for m in range(-l, l + 1):
            y = real_sph_harmonic_3d(l, m, th, ph, 50)
            total = (total + y * y).rounded(60)
        target = quarter.mul_fraction(Fraction(2 * l + 1, 4), 70)
        _enclose(total, target, Fraction(1, 10 ** 10))


def _ck_sph_count(rng):
    for l in range(7):
        _require(sph_count(3, l) == 2 * l + 1, "N(3,l) must be 2l+1")
    _require(sph_count(4, 3) == 16, "N(4,l) must be (l+1)^2")


# ---------------------------------------------------------------------------
# series


def _partial(term: Callable[[int], Fraction], start: int, stop: int) -> Fraction:
    total = Fraction(0)
    for k in range(start, stop):
        total += term(k)
    return total


def _poly_geom_tail(stop: int, p: int, x: Fraction) -> Fraction:
    # sum of (k+p)^p |x|^k over k >= stop, bounded via Bernoulli:
    # (k+p)^p <= (stop+p)^p * rho^{p(k-stop)} with rho = 1 + 1/(stop+p)
    rho = Fraction(stop + p + 1, stop + p)
    r = rho ** p * abs(x)
    _require(r < 1, "tail bound needs a contracting ratio")
    return geometric_tail(r, 0, (stop + p) ** p * abs(x) ** stop) if p else \
        geometric_tail(abs(x), 0, abs(x) ** stop)


def _ck_arith_geom(rng):
    for x in (Fraction(9, 10), Fraction(-9, 10), Fraction(1, 2),
              Fraction(-1, 2), Fraction(1, 10)):
        m = rng.randrange(0, 21)
        stop = m + 700
        partial = _partial(lambda k: (k + 1) * x ** k, m, stop)
        _require(abs(arith_geom_sum(m, x) - partial) <= _poly_geom_tail(stop, 1, x),
                 f"closed form off partial sums at m={m} x={x}")


def _ck_higher_arith_geom(rng):
    for p in range(4):
        x = rng.choice([Fraction(1, 2), Fraction(-1, 2), Fraction(9, 10)])
        m = rng.randrange(0, 21)
        stop = m + 900

        def term(k):
            prod = Fraction(1)
            for i in range(1, p + 1):
                prod *= k + i
            return x ** k * prod

        partial = _partial(term, m, stop)
        _require(abs(higher_arith_geom(m, p, x) - partial)
                 <= _poly_geom_tail(stop, p, x),
                 f"closed form off partial sums at p={p} m={m}")


def _ck_geometric_tail_split(rng):
    r = Fraction(rng.randrange(1, 99), 100)
    c = Fraction(rng.randrange(1, 50), 7)
    s, mid = rng.randrange(0, 9), rng.randrange(9, 30)
    head = _partial(lambda k: c * r ** k, s, mid)
    _require(geometric_tail(r, s, c) == head + geometric_tail(r, mid, c),
             "tail must telescope exactly")


def _ck_plan_claims(rng):
    plan = TruncationPlan(4, [("truncation", 5)])
    plan.claim("toy", Fraction(1, 3), Fraction(1, 2))
    _require(plan.chain_ok(), "true claim should audit clean")
    try:
        plan.claim("bad", Fraction(2, 3), Fraction(1, 2))
    except AssertionError:
        return
    raise AssertionError("violated claim must raise")


# ---------------------------------------------------------------------------
# laplace


def _ck_disk_harmonic(rng):
    for _ in range(4):
        k = rng.randrange(1, 7)
        g = trig_poly_fn(TrigPoly(cos_coeffs={k: Fraction(1)}))
        p = DiskProblem(g, Fraction(9, 10))
        r = Fraction(rng.randrange(0, 90), 100)
        th = Fraction(rng.randrange(0, 200), 100)
        u = solve_disk(p, r, th, 16)
        target = cos_pi_mul_cv(k * th, 40).mul_fraction(r ** k, 40)
        _enclose(u, target, Fraction(1, 2 ** 16))


def _ck_disk_mean_value(rng):
    # the center value must equal the boundary mean, whatever the data
    for _ in range(50):
        pts = [(Fraction(0), Fraction(rng.randrange(-8, 9), 4))]
        for cut in sorted(rng.sample(range(1, 8), 3)):
            pts.append((Fraction(cut, 4), Fraction(rng.randrange(-8, 9), 4)))
        pts.append((Fraction(2), pts[0][1]))
        g = piecewise_linear_fn(pts)
        u = solve_disk(DiskProblem(g, Fraction(0)), 0, Fraction(1, 3), 12)
        mean = integrate(g, 0, 2, 16).mul_fraction(Fraction(1, 2), 16)
        _enclose(u, mean, Fraction(1, 2 ** 12))


def _ck_disk_reduction_identity(rng):
    h = piecewise_linear_fn([(Fraction(0), Fraction(0)),
                             (Fraction(1, 2), Fraction(1)),
                             (Fraction(1), Fraction(0))])
    r0, th0 = Fraction(1, 2), Fraction(3, 4)
    g = hardness_boundary_disk(r0, th0, h)
    shortcut = g.hardness.certified_point_value(14)
    direct = solve_disk(DiskProblem(g, r0), r0, th0, 14)
    _enclose(shortcut, direct, Fraction(1, 2 ** 13))
    half = integrate(h, 0, 1, 20).mul_fraction(Fraction(1, 2), 20)
    _enclose(shortcut, half, Fraction(1, 2 ** 13))


# ---------------------------------------------------------------------------
# heat


def _sine_mode_fn(k: int, L) -> EvaluableFunction:
    return sine_modes_fn({k: Fraction(1)}, L)


def _ck_interval_eigenmode(rng):
    k, L, alpha = 2, Fraction(1), Fraction(1, 2)
    p = IntervalHeatProblem(L, alpha, _sine_mode_fn(k, L), Fraction(1, 4))
    t, x = Fraction(1, 2), Fraction(1, 3)
    u = solve_interval(p, t, x, 14)
    pisq = (pi_cv(60) * pi_cv(60)).rounded(60)
    decay = exp_cv(pisq.mul_fraction(-k * k * alpha * t / L ** 2, 60), 50)
    target = (decay * sin_pi_mul_cv(Fraction(k) * x / L, 50)).rounded(40)
    _enclose(u, target, Fraction(1, 2 ** 14))


def _ck_interval_ends(rng):
    p = IntervalHeatProblem(Fraction(1), Fraction(1), _sine_mode_fn(1, 1),
                            Fraction(1, 4))
    for x in (Fraction(0), Fraction(1)):
        u = solve_interval(p, Fraction(1, 2), x, 12)
        _require(u.value_fraction() == 0, "Dirichlet ends must vanish exactly")


def _ck_halfline_monotone(rng):
    prob = HalflineBoundaryProblem(Fraction(1), _ramp_profile(),
                                   (Fraction(1, 2), Fraction(3, 2)))
    t = Fraction(3, 5)
    near = solve_halfline_boundary(prob, t, Fraction(3, 5), 12)
    far = solve_halfline_boundary(prob, t, Fraction(7, 5), 12)
    _require(near.lower_fraction() > far.upper_fraction(),
             "boundary influence must decay with distance")


def _ramp_profile():
    return polynomial_fn([Fraction(0), Fraction(1)], (Fraction(0), Fraction(2)))


def _ck_halfline_zero_time(rng):
    prob = HalflineBoundaryProblem(Fraction(1), _ramp_profile(),
                                   (Fraction(1, 2), Fraction(3, 2)))
    u = solve_halfline_boundary(prob, Fraction(0), Fraction(1), 12)
    _require(u.value_fraction() == 0 and u.err_fraction() <= Fraction(1, 2 ** 12),
             "zero-time value must be a certified zero")


def _ck_neumann_force(rng):
    pts = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(2)),
           (Fraction(1), Fraction(1, 2))]
    fn = piecewise_linear_fn(pts)
    # exact trapezoid area over [0, 3/4] computed from the vertex list
    area = (Fraction(1) + Fraction(2)) / 2 * Fraction(1, 2)
    area += (Fraction(2) + Fraction(5, 4)) / 2 * Fraction(1, 4)
    u = solve_neumann_constant_force(fn, Fraction(3, 4), 20)
    _require(abs(u.value_fraction() - area) <= u.err_fraction(),
             "ODE route must integrate the force exactly")


# ---------------------------------------------------------------------------
# hardness


def _ck_counting_examples(rng):
    cases = [(CountingInstance((1,), 1), Fraction(1, 4)),
             (CountingInstance((1, 2), 3), Fraction(1, 16)),
             (CountingInstance((2, 2), 3), Fraction(0))]
    for inst, area in cases:
        v = integrate(counting_integrand(inst), 0, 1, 30)
        _require(v.value_fraction() == area, f"area mismatch for {inst.weights}")


def _ck_pipelines_agree(rng):
    for nv in (3, 5, 6):
        inst = random_instance(rng, nv)
        expect = brute_force_count(inst)
        for name, pipe in PIPELINES.items():
            got = recover_count(pipe(inst, precision_for(inst)), inst)
            _require(got == expect, f"{name} returned {got}, expected {expect}")


def _ck_verifier_accounting(rng):
    fn = counting_integrand(CountingInstance((2, 3, 5), 8))
    for k in range(1, 25):  # off the cell edges k / 8
        fn.eval_exact(Fraction(k, 25))
    _require(fn.verifier_calls() == 24, "one verifier call per evaluation off a cell edge")
    for k in range(9):
        fn.eval_exact(Fraction(k, 8))
    _require(fn.verifier_calls() == 24, "no verifier call on a cell edge")


def _ck_recovery_threshold(rng):
    inst = CountingInstance((1, 2), 3)
    coarse = CertifiedValue(1, 4, 1, 2 * inst.n_vars)
    try:
        recover_count(coarse, inst)
    except InsufficientPrecision:
        return
    raise AssertionError("coarse value must be refused")


def _ck_blowup_schema(rng):
    recs = measure_blowup([CountingInstance((1,), 1)], "neumann", repeats=1)
    lines = render_csv(recs).strip().split("\n")
    _require(lines[0] == "pipeline,n_vars,precision_bits,wall_ms,value,count,ok",
             "CSV header drifted")
    _require(len(lines) == 2 and lines[1].endswith(",1/4,1,true"),
             "benchmark row malformed")


# ---------------------------------------------------------------------------
# registry and runner

SUITES: dict[str, list[tuple[str, Callable]]] = {
    "kernels": [
        ("heat-g-base-values", _ck_heat_g_base),
        ("derivative-recurrence-forms", _ck_heat_g_forms),
        ("spherical-addition-identity", _ck_sph_addition),
        ("spherical-dimension-count", _ck_sph_count),
    ],
    "series": [
        ("arith-geom-closed-form", _ck_arith_geom),
        ("higher-arith-geom-closed-form", _ck_higher_arith_geom),
        ("geometric-tail-telescopes", _ck_geometric_tail_split),
        ("plan-claim-audit", _ck_plan_claims),
    ],
    "laplace": [
        ("disk-harmonic-modes", _ck_disk_harmonic),
        ("disk-mean-value-50-random", _ck_disk_mean_value),
        ("disk-reduction-identity", _ck_disk_reduction_identity),
    ],
    "heat": [
        ("interval-eigenmode-decay", _ck_interval_eigenmode),
        ("interval-dirichlet-ends", _ck_interval_ends),
        ("halfline-distance-decay", _ck_halfline_monotone),
        ("halfline-zero-time", _ck_halfline_zero_time),
        ("neumann-force-integral", _ck_neumann_force),
    ],
    "hardness": [
        ("counting-integrand-areas", _ck_counting_examples),
        ("three-pipelines-agree", _ck_pipelines_agree),
        ("verifier-call-accounting", _ck_verifier_accounting),
        ("recovery-threshold", _ck_recovery_threshold),
        ("benchmark-csv-schema", _ck_blowup_schema),
    ],
}


def suite_names() -> list[str]:
    return [*SUITES, "all"]


def run_suite(name: str, seed: int) -> list[CheckResult]:
    """Run one suite (or 'all'); never raises on check failure."""
    if name == "all":
        out = []
        for sub in SUITES:
            out.extend(run_suite(sub, seed))
        return out
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}, have {suite_names()}")
    results = []
    for check_name, fn in SUITES[name]:
        rng = random.Random(f"{seed}:{name}:{check_name}")
        try:
            fn(rng)
            results.append(CheckResult(name, check_name, True))
        except (AssertionError, CertHeatError) as exc:
            results.append(CheckResult(name, check_name, False, str(exc)))
    return results
