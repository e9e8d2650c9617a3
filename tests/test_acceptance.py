"""End-to-end acceptance run: nine criteria, one test and pass line each.

Criteria 1-3 solve with the truncation plans of a shared module fixture;
criterion 9 re-audits the full set with exact rational comparisons.
Oracles: closed forms for harmonic and eigenmode data, adaptive quadrature
for the half-line kernel representation, Richardson finite differences for
derivative families, integer partial sums for series identities, subset
enumeration for counts.
"""

import random
import statistics
import time
from fractions import Fraction

import mpmath as mp
import pytest

MP_PREC = 300  # mpmath bits for this module's tests (see conftest.py)

from certheat.evaluable import TrigPoly, sine_modes_fn, trig_poly_fn
from certheat.hardness import (PIPELINES, brute_force_count, measure_blowup,
                               precision_for, random_instance, recover_count)
from certheat.heat import (HalflineBoundaryProblem, IntervalHeatProblem,
                           plan_halfline_boundary, plan_interval,
                           poly_time_profile, sin_half_profile,
                           solve_halfline_boundary, solve_interval)
from certheat.kernels import heat_g, heat_g_tilde, real_sph_harmonic_3d
from certheat.laplace import DiskProblem, plan_disk, solve_disk
from certheat.series import arith_geom_sum, higher_arith_geom

# criterion 3's boundary profiles with their mpmath counterparts
PROFILES = [
    (poly_time_profile([Fraction(0), Fraction(1)]), lambda s: s),
    (poly_time_profile([Fraction(0), Fraction(0), Fraction(1)]),
     lambda s: s * s),
    (sin_half_profile(), lambda s: mp.sin(mp.pi * s / 2)),
]


def to_mp(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / f.denominator


def report(k: int, detail: str) -> None:
    print(f"criterion {k}: PASS ({detail})")


@pytest.fixture(scope="module")
def plans():
    """(key, problem, n, plan) for criteria 1-3, built once per module.

    Criteria 1-3 solve with these plans, which record the solves' claims;
    criterion 9 audits all of them, so it also passes when run alone.
    """
    disk, interval, halfline = [], [], []
    for k in range(1, 9):
        g = trig_poly_fn(TrigPoly(cos_coeffs={k: Fraction(1)}), f"cos{k}")
        p = DiskProblem(g, Fraction(9, 10))
        disk += [(k, p, n, plan_disk(p, n)) for n in (10, 20, 30)]
    for k in range(1, 5):
        g = sine_modes_fn({k: Fraction(1)}, Fraction(1), f"mode{k}")
        for alpha in (Fraction(1, 2), Fraction(1)):
            p = IntervalHeatProblem(Fraction(1), alpha, g, Fraction(1, 4))
            interval += [((k, alpha), p, n, plan_interval(p, n))
                         for n in (10, 16, 24)]
    for i, (fn, _) in enumerate(PROFILES):
        p = HalflineBoundaryProblem(Fraction(1), fn, (Fraction(1, 2), Fraction(3, 2)))
        halfline += [(i, p, n, plan_halfline_boundary(p, n)) for n in (10, 16)]
    return {"disk": disk, "interval": interval, "halfline": halfline}


# ---------------------------------------------------------------------------


def test_criterion_1_disk_harmonic_exactness(plans):
    started = time.perf_counter()
    rng = random.Random(101)
    pts = [(Fraction(rng.randrange(0, 901), 1000),
            Fraction(rng.randrange(0, 2000), 1000)) for _ in range(20)]
    solves = 0
    for k, p, n, plan in plans["disk"]:
        tol = mp.mpf(2) ** -n + mp.mpf(2) ** -200
        for r, th in pts:
            u = solve_disk(p, r, th, n, plan)
            want = to_mp(r) ** k * mp.cos(k * mp.pi * to_mp(th))
            assert abs(to_mp(u.value_fraction()) - want) <= tol, (k, n, r, th)
            solves += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(1, f"{solves} solves, k<=8, n in 10/20/30, {elapsed:.1f}s")


def test_criterion_2_interval_eigenmode_decay(plans):
    started = time.perf_counter()
    xs = [Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(7, 10)]
    solves = 0
    for (k, alpha), p, n, plan in plans["interval"]:
        tol = mp.mpf(2) ** -n + mp.mpf(2) ** -200
        for t in (p.t0, 2 * p.t0):
            decay = mp.e ** (-k * k * mp.pi ** 2 * to_mp(alpha) * to_mp(t))
            for x in xs:
                u = solve_interval(p, t, x, n, plan)
                want = mp.sin(k * mp.pi * to_mp(x)) * decay
                gap = abs(to_mp(u.value_fraction()) - want)
                assert gap <= tol, (k, alpha, t, x, n)
                solves += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(2, f"{solves} solves, k<=4, n up to 24, {elapsed:.1f}s")


def psi_oracle(t: Fraction, x: Fraction, h) -> mp.mpf:
    # boundary-kernel representation integrated adaptively at high precision
    tm, xm = to_mp(t), to_mp(x)

    def f(s):
        d = tm - s
        return xm / mp.sqrt(4 * mp.pi * d ** 3) * mp.e ** (-xm * xm / (4 * d)) * h(s)

    return mp.quad(f, [0, tm])


def test_criterion_3_halfline_boundary_vs_quadrature_oracle(plans):
    started = time.perf_counter()
    grid_t = [Fraction(3, 10), Fraction(13, 20), Fraction(1)]
    grid_x = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    solves, refs = 0, {}  # one quadrature per (profile, t, x) serves every n
    for i, p, n, plan in plans["halfline"]:
        tol = mp.mpf(2) ** -n + mp.mpf(10) ** -10
        for t in grid_t:
            for x in grid_x:
                u = solve_halfline_boundary(p, t, x, n, plan)
                if (i, t, x) not in refs:
                    refs[(i, t, x)] = psi_oracle(t, x, PROFILES[i][1])
                assert abs(to_mp(u.value_fraction()) - refs[(i, t, x)]) <= tol, (n, t, x)
                solves += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    report(3, f"{solves} solves over 3 profiles on a 3x3 grid, {elapsed:.1f}s")


def richardson_diff(f, t0: mp.mpf, n: int, levels: int = 4) -> mp.mpf:
    # n-th central difference extrapolated to O(h^(2*levels))
    est = []
    for j in range(levels):
        h = mp.mpf(1) / (16 * 2 ** j)
        s = mp.mpf(0)
        for i in range(n + 1):
            s += (-1) ** i * mp.binomial(n, i) * f(t0 + (mp.mpf(n) / 2 - i) * h)
        est.append(s / h ** n)
    for col in range(1, levels):
        for row in range(levels - 1, col - 1, -1):
            est[row] = est[row] + (est[row] - est[row - 1]) / (4 ** col - 1)
    return est[-1]


def test_criterion_4_kernel_derivatives_and_recurrence_forms():
    rng = random.Random(104)
    pts = [(Fraction(rng.randrange(500, 1501), 1000),
            Fraction(rng.randrange(300, 2001), 1000)) for _ in range(20)]
    for t, x in pts:
        xm = to_mp(x)
        base = lambda tt: xm * tt ** mp.mpf('-1.5') * mp.e ** (-xm * xm / tt)
        for n in range(7):
            ref = richardson_diff(base, to_mp(t), n)
            got = to_mp(heat_g(n, t, x, 60).value_fraction())
            assert abs(got - ref) <= mp.mpf(10) ** -6 * max(abs(ref), abs(got)), (n, t, x)
    # recurrence resolution: the assembled derivative form passes the same
    # oracle, the alternative printed form breaks from second order on
    t, x = Fraction(1), Fraction(1)
    gt = lambda tt: tt ** mp.mpf('-0.5') * mp.e ** (-1 / tt)
    for n in range(4):
        ref = richardson_diff(gt, mp.mpf(1), n)
        got = to_mp(heat_g_tilde(n, t, x, 60).value_fraction())
        assert abs(got - ref) <= mp.mpf(10) ** -6 * max(abs(ref), mp.mpf(1))
    ref2 = richardson_diff(gt, mp.mpf(1), 2)
    # printed form (t g^(n) + g^(n-1)) / x, from the public g^(n)
    pv = to_mp((t * heat_g(2, t, x, 60).value_fraction()
                + heat_g(1, t, x, 60).value_fraction()) / x)
    assert abs(pv - ref2) > mp.mpf(10) ** -6 * abs(ref2)
    print("criterion 4 log: printed recurrence form checked - it diverges "
          "from the finite-difference oracle at order 2; the implemented "
          "product-rule form passes at all orders <= 6")
    report(4, "20 random points, orders <= 6, relative error <= 1e-6")


def _poly_tail_bound(stop: int, p: int, x: Fraction) -> Fraction:
    # sum of (k+p)^p |x|^k for k >= stop, via (k+p)^p <= (stop+p)^p rho^{p(k-stop)}
    rho = Fraction(stop + p + 1, stop + p)
    r = rho ** p * abs(x)
    assert r < 1
    return (stop + p) ** p * abs(x) ** stop / (1 - r)


def _partial_sum(coeff, m: int, stop: int, x: Fraction) -> Fraction:
    # Horner over integers: sum of coeff(k) x^k, k in [m, stop)
    xn, xd = x.numerator, x.denominator
    acc, dpow = 0, 1
    for k in range(stop - 1, m - 1, -1):
        acc = coeff(k) * dpow + xn * acc
        dpow *= xd
    return Fraction(acc * xn ** m, xd ** (stop - 1))


def test_criterion_5_series_identities_vs_partial_sums():
    started = time.perf_counter()
    xs = [Fraction(9, 10), Fraction(-9, 10), Fraction(1, 2),
          Fraction(-1, 2), Fraction(1, 10)]
    budget = Fraction(1, 10 ** 15)
    checks = 0
    for x in xs:
        for m in range(21):
            stop = m + 64
            while _poly_tail_bound(stop, 1, x) >= budget / 10:
                stop *= 2
            closed = arith_geom_sum(m, x)
            part = _partial_sum(lambda k: k + 1, m, stop, x)
            tail = _poly_tail_bound(stop, 1, x)
            assert tail < budget
            assert abs(closed - part) <= tail, ("arith", m, x)
            checks += 1
            for p in range(4):
                def coeff(k, p=p):
                    prod = 1
                    for i in range(1, p + 1):
                        prod *= k + i
                    return prod

                stop_p = m + 64
                while _poly_tail_bound(stop_p, p, x) >= budget / 10:
                    stop_p *= 2
                closed = higher_arith_geom(m, p, x)
                part = _partial_sum(coeff, m, stop_p, x)
                tail = _poly_tail_bound(stop_p, p, x)
                assert tail < budget
                assert abs(closed - part) <= tail, ("higher", m, p, x)
                checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    report(5, f"{checks} identities, m<=20, p<=3, {elapsed:.1f}s")


def test_criterion_6_spherical_addition_identity():
    rng = random.Random(106)
    pts = [(Fraction(rng.randrange(1, 200), 100),
            Fraction(rng.randrange(0, 200), 100)) for _ in range(50)]
    for th, ph in pts:
        for l in range(6):
            total = mp.mpf(0)
            for m in range(-l, l + 1):
                y = to_mp(real_sph_harmonic_3d(l, m, th, ph, 60).value_fraction())
                total += y * y
            want = (2 * l + 1) / (4 * mp.pi)
            assert abs(total - want) <= mp.mpf(10) ** -10, (l, th, ph)
    report(6, "50 random points, l <= 5, |sum - (2l+1)/(4pi)| <= 1e-10")


def test_criterion_7_counting_recovery_three_pipelines():
    started = time.perf_counter()
    rng = random.Random(107)
    for trial in range(30):
        inst = random_instance(rng, rng.randrange(2, 13))
        expect = brute_force_count(inst)
        bits = precision_for(inst)
        for name, pipe in PIPELINES.items():
            got = recover_count(pipe(inst, bits), inst)
            assert got == expect, (trial, name, inst.weights, inst.target)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    report(7, f"30 random instances, n_vars <= 12, exact on all three "
              f"pipelines, {elapsed:.1f}s")


def test_criterion_8_neumann_blowup_monotone_trend():
    rng = random.Random(108)
    family = [random_instance(rng, nv) for nv in range(4, 15)]
    # 15 passes over the whole family, one run per size each, and each
    # size's median wall: a slow spell of the machine then slows every size
    # alike instead of all the runs of one size
    passes = [measure_blowup(family, "neumann", repeats=1) for _ in range(15)]
    assert all(r.ok for records in passes for r in records)
    walls = [statistics.median(r.wall_ms for r in runs) for runs in zip(*passes)]
    best = run = 1
    for i in range(1, len(walls)):
        run = run + 1 if walls[i] >= walls[i - 1] else 1
        best = max(best, run)
    assert best >= 8, walls
    report(8, f"monotone nondecreasing over {best} consecutive sizes "
              f"(walls {', '.join(f'{w:.1f}' for w in walls)} ms)")


def test_criterion_9_truncation_plan_audits(plans):
    # criterion 1: 8 modes x 3 precisions; criterion 2: 4 modes x 2 alphas
    # x 3 precisions; criterion 3: 3 profiles x 2 precisions
    audited = [(plan, n) for group in plans.values() for _, _, n, plan in group]
    assert len(audited) == 24 + 24 + 6, "criteria 1-3 have 54 plans"
    failures = 0
    claims = 0
    for plan, n in audited:
        if not plan.chain_ok() or not plan.total_budget() <= Fraction(1, 2 ** n):
            failures += 1
        claims += len(plan.chain)
    assert failures == 0
    report(9, f"{len(audited)} plans, {claims} exact inequalities, 0 failures")
