"""Self-check suites: one named invariant per check, pass/fail reporting.

Each check runs code that a solve runs and re-derives its expected answer
from an independent route (exact values, the certified primitives term by
term, enumeration, analytic identities), so a passing suite certifies the
installed build, not the test fixtures.  A check that raises anything
fails on its own line, and the rest still run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import Callable

from .certified import (CertifiedValue, cos_pi_mul_cv, exp_cv, gauss_ladder, pi_cv,
                        recip_pi_cv, rotation_sum, sin_pi_mul_cv)
from .errors import ConfigError, InsufficientPrecision
from .evaluable import (EvaluableFunction, piecewise_linear_fn, polynomial_fn,
                        sine_modes_fn, trig_poly_fn, TrigPoly)
from .hardness import (CountingInstance, PIPELINES, brute_force_count,
                       counting_integrand, measure_blowup, precision_for,
                       random_instance, recover_count, render_csv)
from .heat import (IntervalHeatProblem, HalflineBoundaryProblem, _ierfc_parts,
                   plan_halfline_boundary, plan_interval, solve_halfline_boundary,
                   solve_interval, solve_neumann_constant_force)
from .kernels import real_sph_harmonic_3d
from .laplace import DiskProblem, DiskReduction, plan_disk, solve_disk
from .quadrature import integrate
from .series import geometric_cap, point_order


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
# kernels


def _ck_ierfc_at_zero(rng):
    # i^j erfc(0) = 1 / (2^j Gamma(1 + j/2)) (DLMF 7.18), which the half-line
    # responses read at d = 0: a_{2m} = 1 / (4^m m!) and, with the factor
    # 2 / sqrt(pi), b_{2m+1} = 1 / (2^(m+1) (2m+1)!!); at w = 0 the integer
    # parts are A_j = a_j 2^j j! and B_j = b_j 2^j j!
    top = rng.randrange(16, 33)
    a, b = _ierfc_parts(Fraction(0), top)
    _require(len(a) == len(b) == top + 1, "one pair of parts per order 0..top")
    odd = 1  # (2m+1)!!
    for m in range(top // 2 + 1):
        j = 2 * m
        _require(Fraction(a[j], 2 ** j * factorial(j)) == Fraction(1, 4 ** m * factorial(m)),
                 f"a_{j} off at zero")
        odd *= j + 1
        if j + 1 <= top:
            _require(Fraction(b[j + 1], 2 ** (j + 1) * factorial(j + 1))
                     == Fraction(1, 2 ** (m + 1) * odd), f"b_{j + 1} off at zero")


def _ck_gauss_ladder(rng):
    # every rung encloses its own exp: pi^2 a k^2 is carried 24 bits deeper,
    # so its error moves e^{-pi^2 a k^2} by far less than the exp's 2^-(W+4)
    a = Fraction(rng.randrange(1, 64), 256)
    K, W = rng.randrange(8, 33), rng.randrange(80, 97)
    pisq = (pi_cv(W + 24) * pi_cv(W + 24)).rounded(W + 24)
    ladder = gauss_ladder(a, K, W)
    _require(len(ladder) == K, "one rung per mode 1..K")
    for k, (v, e) in enumerate(ladder, 1):
        want = exp_cv(pisq.mul_fraction(-a * k * k, W + 12), W + 4)
        _enclose(CertifiedValue(v, W, e, W), want, Fraction(0))


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


# ---------------------------------------------------------------------------
# series


def _ck_rotation_sum(rng):
    # one term (theta, c) over seeded weights against c sum_k w_k cos and
    # sin k pi theta, each k from the certified primitives; theta is not an
    # integer, so neither part vanishes identically
    W, K = rng.randrange(80, 97), rng.randrange(8, 25)
    den = rng.randrange(3, 60)
    theta = Fraction(den * rng.randrange(0, 4) + rng.randrange(1, den), den)
    c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 41), rng.randrange(1, 12))
    weights = [(rng.randrange(-1 << W, 1 << W), rng.randrange(0, 4)) for _ in range(K)]
    for part, trig in zip(rotation_sum([(theta, c)], weights, W),
                          (cos_pi_mul_cv, sin_pi_mul_cv)):
        want = CertifiedValue.zero()
        for k, (v, e) in enumerate(weights, 1):
            want += CertifiedValue(v, W, e, W) * trig(k * theta, W + 8)
        _enclose(part, want.mul_fraction(c, W + 8), Fraction(0))


def _ck_point_order(rng):
    # on tails C r^m the search returns an order under geometric_cap's whose
    # predecessor fails
    for _ in range(8):
        C = Fraction(rng.randrange(1, 1000), rng.randrange(1, 100))
        r = Fraction(rng.randrange(1, 100), 100)
        n = rng.randrange(8, 65)
        budget = Fraction(1, 1 << (n + 1))
        cap = geometric_cap(C, r, n)
        _require(C * r ** cap <= budget, f"cap {cap} leaves the tail open")
        K, bound = point_order(lambda m: C * r ** m, n, cap, "geometric tail")
        _require(K <= cap and bound == C * r ** K <= budget, f"order {K} does not pass")
        _require(K == 0 or C * r ** (K - 1) > budget, f"order {K} is not the least")


def _ck_plan_claims(rng):
    # the disk, interval and half-line planners' claims re-audit exactly
    n = rng.randrange(8, 41)
    vals = [Fraction(rng.randrange(-8, 9), 4) for _ in range(4)]
    ring = piecewise_linear_fn([(Fraction(j, 2), v) for j, v in enumerate(vals)]
                               + [(Fraction(2), vals[0])])
    tent = piecewise_linear_fn([(Fraction(0), Fraction(0)),
                                (Fraction(rng.randrange(1, 8), 8), Fraction(1)),
                                (Fraction(1), Fraction(0))])
    profile = polynomial_fn([Fraction(rng.randrange(-4, 5), 2) for _ in range(3)]
                            + [Fraction(1)], (Fraction(0), Fraction(2)))
    plans = [
        plan_disk(DiskProblem(ring, Fraction(rng.randrange(1, 10), 10)), n),
        plan_interval(IntervalHeatProblem(Fraction(1), Fraction(1), tent,
                                          Fraction(rng.randrange(1, 9), 64)), n),
        plan_halfline_boundary(HalflineBoundaryProblem(
            Fraction(1), profile, (Fraction(1, 2), Fraction(3, 2))), n),
    ]
    for plan in plans:
        _require(plan.chain and plan.chain_ok(), "a plan's claims must audit clean")
        _require(plan.total_budget() <= Fraction(1, 1 << n), "a plan's budget exceeds 2^-n")
    chain = list(plans[0].chain)
    try:
        plans[0].claim("bad", Fraction(2, 3), Fraction(1, 2))
    except AssertionError:
        _require(plans[0].chain == chain, "a violated claim must not be recorded")
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
    g = DiskReduction(r0, th0, h)
    shortcut = g.certified_point_value(14)
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
        ("ierfc-at-zero", _ck_ierfc_at_zero),
        ("gauss-ladder-vs-exp", _ck_gauss_ladder),
        ("spherical-addition-identity", _ck_sph_addition),
    ],
    "series": [
        ("rotation-sum-vs-terms", _ck_rotation_sum),
        ("point-order-is-least", _ck_point_order),
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
    """Run one suite (or 'all'); a check that raises is reported as failed."""
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
        except Exception as exc:  # a broken build may raise anything
            results.append(CheckResult(name, check_name, False,
                                       f"{type(exc).__name__}: {exc}"))
    return results
