"""Diffusion solvers against independent quadrature and series oracles."""

import json
import os
import random
from fractions import Fraction
from math import factorial, perm

import mpmath as mp
import pytest

import certheat.heat as heat
import certheat.quadrature as quadrature
from certheat.errors import PreconditionError
from certheat.evaluable import (EvaluableFunction, constant_fn, linear_pieces,
                                piecewise_linear_fn, polynomial_fn, sine_modes_fn)
from certheat.hardness import CountingInstance, counting_integrand
from certheat.quadrature import int_pl_trig_pi, integrate
from certheat.heat import (HalflineBoundaryProblem, HalflineForceProblem,
                           IntervalHeatProblem, IntervalReduction,
                           plan_halfline_boundary, plan_halfline_force,
                           plan_halfline_initial, plan_interval, sine_coeff,
                           solve_halfline_boundary, solve_halfline_force,
                           solve_halfline_initial, solve_interval,
                           solve_neumann_constant_force)

MP_PREC = 300  # mpmath bits for this module's tests (see conftest.py)

F = Fraction


def poly_profile(*cs):
    """Time profile sum c_j s^j on [0, 2]."""
    return polynomial_fn(list(cs), (F(0), F(2)))


def sinhalf(amp):
    """Time profile amp sin(pi s / 2) on [0, 2], sine mode 1."""
    return sine_modes_fn({1: amp}, F(2))


def to_mp(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / mp.mpf(f.denominator)


def assert_close(cv, target, n: int, slack=mp.mpf(0)):
    assert to_mp(cv.err_fraction()) <= mp.mpf(2) ** (-n) + slack
    assert abs(to_mp(cv.value_fraction()) - target) <= mp.mpf(2) ** (-n) + slack


def psi_oracle(t, x, alpha, h):
    """Adaptive quadrature of the boundary-flux representation."""
    def integrand(s):
        sig = t - s
        return x / mp.sqrt(4 * mp.pi * alpha * sig ** 3) * \
            mp.exp(-x * x / (4 * alpha * sig)) * h(s)
    return mp.quad(integrand, [0, t])


# ---------------------------------------------------------------------------
# interval sine series


def test_sine_coeff_eigenmode_readoff():
    p = IntervalHeatProblem(F(1), F(1), sine_modes_fn({1: F(1)}, F(1)), F(1, 4))
    mu1 = sine_coeff(p, 1, 30)
    assert mu1.value_fraction() == 1 and mu1.err_fraction() == 0
    mu2 = sine_coeff(p, 2, 30)
    assert mu2.value_fraction() == 0 and mu2.err_fraction() == 0
    p2 = IntervalHeatProblem(F(2), F(1), sine_modes_fn({2: F(1)}, F(2)), F(1, 4))
    assert sine_coeff(p2, 2, 30).value_fraction() == 1
    assert sine_coeff(p2, 1, 30).value_fraction() == 0
    with pytest.raises(PreconditionError):
        sine_coeff(p, 0, 30)


def test_sine_coeff_affine_closed_form():
    # flat data: mu_k = 2(1-(-1)^k)/(k pi), from the breakpoint closed form
    # (sine_coeff reads declared modes only; pl data forms no coefficient)
    pieces = linear_pieces(constant_fn(F(1), (F(0), F(1))))
    for k in range(1, 7):
        cv = int_pl_trig_pi(pieces, k, 0, 42)[0].mul_exact(2)
        want = 2 * (1 - (-1) ** k) / (k * mp.pi)
        assert abs(to_mp(cv.value_fraction()) - want) <= mp.mpf(2) ** -38
        oracle = 2 * mp.quad(lambda y: mp.sin(k * mp.pi * y), [0, 1])
        assert abs(to_mp(cv.value_fraction()) - oracle) <= mp.mpf(2) ** -38


def test_interval_eigenmode_decay():
    # single sine mode: u = sin(pi x / L) exp(-pi^2 alpha t / L^2)
    for alpha in (F(1, 2), F(1)):
        p = IntervalHeatProblem(F(1), alpha, sine_modes_fn({1: F(1)}, F(1)), F(1, 4))
        for t, x, n in [(F(1, 4), F(1, 3), 10), (F(1, 4), F(1, 3), 20),
                        (F(1, 2), F(2, 3), 24)]:
            u = solve_interval(p, t, x, n)
            want = mp.sin(mp.pi * to_mp(x)) * mp.exp(-mp.pi ** 2 * to_mp(alpha) * to_mp(t))
            assert_close(u, want, n)


def test_interval_dirichlet_ends_exact():
    p = IntervalHeatProblem(F(1), F(1), sine_modes_fn({1: F(1), 3: F(1, 2)}, F(1)), F(1, 4))
    for x in (F(0), F(1)):
        u = solve_interval(p, F(1, 2), x, 20)
        assert u.value_fraction() == 0


def test_interval_tent_data_vs_series_oracle():
    tent = piecewise_linear_fn([(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))])
    p = IntervalHeatProblem(F(1), F(1), tent, F(1, 4))
    t, x = mp.mpf(1) / 4, mp.mpf(1) / 3
    oracle = mp.mpf(0)
    for k in range(1, 16):
        mu = 2 * mp.quad(lambda y: (1 - abs(2 * y - 1)) * mp.sin(k * mp.pi * y),
                         [0, mp.mpf(1) / 2, 1])
        oracle += mu * mp.exp(-k * k * mp.pi ** 2 * t) * mp.sin(k * mp.pi * x)
    u = solve_interval(p, F(1, 4), F(1, 3), 14)
    assert_close(u, oracle, 14)


def tent_oracle(t, x):
    # tent on [0, 1] with peak 1 at 1/2: mu_k = 8 sin(k pi / 2) / (pi k)^2
    t, x = to_mp(t), to_mp(x)
    return mp.nsum(lambda k: 8 * mp.sin(k * mp.pi / 2) / (mp.pi * k) ** 2
                   * mp.exp(-k * k * mp.pi ** 2 * t) * mp.sin(k * mp.pi * x),
                   [1, mp.inf], method="direct", steps=[400])


@pytest.mark.parametrize("t0, n", [(F(1, 4), 24), (F(1, 256), 24), (F(1, 256), 64)])
def test_interval_sums_only_the_modes_its_time_needs(monkeypatch, t0, n):
    tent = piecewise_linear_fn([(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))])
    p = IntervalHeatProblem(F(1), F(1), tent, t0)
    plan = plan_interval(p, n)
    found, summed = [], []
    orig_order, orig_sum = heat.point_order, quadrature.rotation_sum

    def order(tail, n_, cap, label):
        out = orig_order(tail, n_, cap, label)
        found.append((out, tail))
        return out

    def rotation_sum(terms, weights, W):
        summed.append((len(terms), len(weights)))
        return orig_sum(terms, weights, W)

    monkeypatch.setattr(heat, "point_order", order)
    monkeypatch.setattr(quadrature, "rotation_sum", rotation_sum)
    budget = F(1, 2 ** (n + 1))
    orders = []
    for t in (t0, t0 + F(1, 2 ** 80), 8 * t0):
        # a time slice an earlier solve cached would skip the search counted here
        for cached in (heat._decay_bound, heat._mode_count, heat._ladder):
            cached.cache_clear()
        found.clear()
        summed.clear()
        u = solve_interval(IntervalHeatProblem(F(1), F(1), tent, t0), t, F(5, 16), n, plan)
        (K, tail), tail_fn = found[0]
        # the tent's one slope jump: one pass of two rotations, each over
        # modes 1..K
        assert K <= plan.order and summed == [(2, K)]
        assert tail == tail_fn(K) <= budget
        assert K == 0 or tail_fn(K - 1) > budget  # the least such K
        assert_close(u, tent_oracle(t, F(5, 16)), n)
        orders.append(K)
    # t0 sums exactly the plan's order, and later times no more
    assert orders[0] == plan.order and orders == sorted(orders, reverse=True)


def test_interval_bound_above_t0s_stays_within_the_plan(monkeypatch):
    # _decay_bound rounds, so its bound just past t0 can exceed t0's; the
    # solve takes the lesser, so even a far looser bound keeps it in the plan
    tent = piecewise_linear_fn([(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))])
    t0, t, x, n = F(1, 64), F(1, 64) + F(1, 2 ** 80), F(5, 16), 32
    p = IntervalHeatProblem(F(1), F(1), tent, t0)
    plan = plan_interval(p, n)
    exact = heat._decay_bound
    monkeypatch.setattr(heat, "_decay_bound",
                        lambda rate: exact(rate) if rate == t0 else (1 + exact(t0)) / 2)
    assert_close(solve_interval(p, t, x, n, plan), tent_oracle(t, x), n)


def test_interval_capped_sine_data_adds_no_tail(monkeypatch):
    # declared sine modes are all summed: no point tail
    def no_search(*args):
        raise AssertionError("declared modes need no tail search")

    monkeypatch.setattr(heat, "point_order", no_search)
    p = IntervalHeatProblem(F(1), F(1), sine_modes_fn({1: F(1, 3), 5: F(1, 5)}, F(1)), F(1, 4))
    plan = plan_interval(p, 24)
    assert plan.order == 5 and plan.chain == []
    for t, plan_arg in ((F(1, 2), plan), (F(1, 4), None)):
        u = solve_interval(p, t, F(3, 16), 24, plan_arg)
        want = sum(c * mp.exp(-k * k * mp.pi ** 2 * to_mp(t)) * mp.sin(k * mp.pi * 3 / 16)
                   for k, c in ((1, mp.mpf(1) / 3), (5, mp.mpf(1) / 5)))
        assert_close(u, want, 24)


def test_interval_linearity():
    a, b = F(3, 7), F(-2, 5)
    p1 = IntervalHeatProblem(F(1), F(1), sine_modes_fn({1: a}, F(1)), F(1, 4))
    p2 = IntervalHeatProblem(F(1), F(1), sine_modes_fn({3: b}, F(1)), F(1, 4))
    p12 = IntervalHeatProblem(F(1), F(1), sine_modes_fn({1: a, 3: b}, F(1)), F(1, 4))
    t, x, n = F(1, 2), F(2, 7), 20
    u1, u2, u12 = (solve_interval(q, t, x, n) for q in (p1, p2, p12))
    gap = abs(u12.value_fraction() - u1.value_fraction() - u2.value_fraction())
    assert gap <= u1.err_fraction() + u2.err_fraction() + u12.err_fraction()


def test_interval_problem_keeps_its_inner_jumps_and_size_guard():
    # what every solve of pieces reads is formed once, from the jump list;
    # it takes no part in equality or repr
    g = piecewise_linear_fn([(F(0), F(1)), (F(1, 3), F(3)), (F(1, 2), F(3)), (F(2), F(-5, 2))])
    p = IntervalHeatProblem(F(2), F(1, 3), g, F(1, 8))
    assert p.inner == [(F(1, 3), F(-6)), (F(1, 2), F(-11, 3))]
    # L sum |D| + |g(0)| + |g(L)| = 2 (6 + 11/3) + 1 + 5/2 = 22 5/6 <= 2^5
    assert p.size_bits == 5
    assert p == IntervalHeatProblem(F(2), F(1, 3), g, F(1, 8)) and "inner" not in repr(p)
    modes = IntervalHeatProblem(F(1), F(1), sine_modes_fn({1: F(1)}, F(1)), F(1, 4))
    assert modes.jumps is modes.inner is modes.size_bits is None


def test_interval_rejects_and_plan_chain():
    p = IntervalHeatProblem(F(1), F(1), sine_modes_fn({2: F(1)}, F(1)), F(1, 4))
    with pytest.raises(PreconditionError):
        solve_interval(p, F(1, 8), F(1, 2), 10)  # t below t0
    with pytest.raises(PreconditionError):
        solve_interval(p, F(1, 2), F(3, 2), 10)  # x outside [0, L]
    with pytest.raises(PreconditionError):
        IntervalHeatProblem(F(1), F(1), sine_modes_fn({1: F(1)}, F(1)), F(0))
    # declared modes plan their top mode and claim nothing
    plan = plan_interval(p, 16)
    assert plan.order == 2 and plan.chain == [] and plan.total_budget() <= F(1, 2 ** 16)
    generic = IntervalHeatProblem(F(1), F(1),
                                  constant_fn(F(1), (F(0), F(1))), F(1, 4))
    plan2 = plan_interval(generic, 12)
    labels = [lab for lab, _, _ in plan2.chain]
    assert labels == ["tail"]
    assert plan2.order > 0 and plan2.chain_ok() and plan2.total_budget() <= F(1, 2 ** 12)


# ---------------------------------------------------------------------------
# half-line boundary forcing


def test_boundary_linear_profile_matches_quadrature_oracle():
    tol = mp.mpf(10) ** -12
    hb = HalflineBoundaryProblem(F(1), poly_profile(F(0), F(1)),
                                 (F(1, 2), F(3, 2)))
    plan16 = plan_halfline_boundary(hb, 16)
    for t, x in [(F(1), F(1)), (F(1, 2), F(3, 4)), (F(1, 4), F(9, 8))]:
        u = solve_halfline_boundary(hb, t, x, 16, plan16)
        want = psi_oracle(to_mp(t), to_mp(x), 1, lambda s: s)
        assert_close(u, want, 16, tol)
    u = solve_halfline_boundary(hb, F(1), F(1), 24)
    assert_close(u, psi_oracle(mp.mpf(1), mp.mpf(1), 1, lambda s: s), 24, tol)
    hb2 = HalflineBoundaryProblem(F(1, 2), poly_profile(F(0), F(1)),
                                  (F(1, 2), F(3, 2)))
    u = solve_halfline_boundary(hb2, F(1), F(1), 12)
    assert_close(u, psi_oracle(mp.mpf(1), mp.mpf(1), mp.mpf(1) / 2, lambda s: s), 12, tol)


def test_boundary_curved_profiles_match_oracle():
    tol = mp.mpf(10) ** -12
    t, x = F(3, 4), F(1)
    cases = [
        (poly_profile(F(0), F(0), F(1)), lambda s: s * s),
        (sinhalf(F(1)), lambda s: mp.sin(mp.pi * s / 2)),
    ]
    for prof, href in cases:
        hb = HalflineBoundaryProblem(F(1), prof, (F(1, 2), F(3, 2)))
        u = solve_halfline_boundary(hb, t, x, 12)
        assert_close(u, psi_oracle(to_mp(t), to_mp(x), 1, href), 12, tol)


def test_boundary_zero_and_small_time():
    hb = HalflineBoundaryProblem(F(1), poly_profile(F(0), F(1)),
                                 (F(1, 2), F(3, 2)))
    plan = plan_halfline_boundary(hb, 16)
    u0 = solve_halfline_boundary(hb, F(0), F(1), 16, plan)
    assert u0.value_fraction() == 0 and u0.err_fraction() == 0  # t = 0 is exact
    # x^2 / (4 alpha t) = 250: the erfc-tail claim replaces the whole sum
    t_small = F(1, 1000)
    u = solve_halfline_boundary(hb, t_small, F(1), 16, plan)
    assert u.value_fraction() == 0 and u.err_fraction() <= F(1, 1 << 16)
    oracle = psi_oracle(to_mp(t_small), mp.mpf(1), 1, lambda s: s)
    assert abs(oracle) <= to_mp(u.err_fraction())


def test_boundary_plan_chain_audit():
    hb = HalflineBoundaryProblem(F(1), sinhalf(F(1)), (F(1, 2), F(3, 2)))
    plan = plan_halfline_boundary(hb, 12)
    assert [lab for lab, _, _ in plan.chain] == ["taylor-remainder"]
    assert [lab for lab, _ in plan.budget_split] == ["taylor", "erfc tail", "assembly"]
    assert plan.chain_ok() and plan.total_budget() <= F(1, 2 ** 12)
    # the least degree whose remainder (pi/2)^(K+1) / (K+1)! fits 2^-13
    K = plan.order
    assert (F(1571, 1000) ** (K + 1) / factorial(K + 1) <= F(1, 1 << 13)
            < F(1571, 1000) ** K / factorial(K))
    chain = list(plan.chain)
    solve_halfline_boundary(hb, F(1, 2), F(1), 12, plan)
    assert plan.chain == chain  # the solve checks its assembly bound, records nothing
    assert plan.chain_ok()


def test_boundary_rejects():
    prof = poly_profile(F(0), F(1))
    hb = HalflineBoundaryProblem(F(1), prof, (F(1, 2), F(3, 2)))
    with pytest.raises(PreconditionError):
        solve_halfline_boundary(hb, F(1, 2), F(1, 4), 10)  # x below window
    with pytest.raises(PreconditionError):
        solve_halfline_boundary(hb, F(3, 2), F(1), 10)  # t beyond [0, 1]
    with pytest.raises(PreconditionError):
        HalflineBoundaryProblem(F(1), prof, (F(0), F(1)))  # window touches 0
    refused = [
        piecewise_linear_fn([(F(0), F(0)), (F(2), F(2))]),  # no coefficients
        polynomial_fn([F(0), F(1)], (F(0), F(1))),  # not on [0, 2]
        sine_modes_fn({1: F(1)}, F(1)),  # sine modes of another period
    ]
    for h in refused:
        with pytest.raises(PreconditionError, match="on \\[0, 2\\]"):
            HalflineBoundaryProblem(F(1), h, (F(1, 2), F(1)))


@pytest.mark.parametrize("cs, href", [
    ((F(1),), lambda s: 1),
    ((F(1), F(1)), lambda s: 1 + s),
], ids=["const", "affine"])
def test_boundary_profile_nonzero_at_zero_matches_oracle(cs, href):
    # the k = 0 term is h(0) erfc(z), and the remainder past it vanishes at 0
    tol = mp.mpf(10) ** -15
    hb = HalflineBoundaryProblem(F(1), poly_profile(*cs), (F(1, 2), F(3, 2)))
    for n in (16, 40):
        for t, x in [(F(1), F(1)), (F(1, 4), F(3, 4))]:
            u = solve_halfline_boundary(hb, t, x, n)
            assert_close(u, psi_oracle(to_mp(t), to_mp(x), 1, href), n, tol)


# ---------------------------------------------------------------------------
# half-line force and initial data


def force_oracle(t, x, alpha, y0):
    # inner space integral in closed error-function form, outer adaptive
    def inner(s):
        c = mp.sqrt(4 * alpha * s)
        direct = mp.erf(x / c) - mp.erf((x - y0) / c)
        image = mp.erf((x + y0) / c) - mp.erf(x / c)
        return (direct - image) / 2
    return mp.quad(inner, [0, t])


def test_force_constant_matches_oracle():
    tol = mp.mpf(10) ** -10
    fp = HalflineForceProblem(F(1), poly_profile(F(1)),
                              constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    for t, x, n in [(F(1), F(1), 10), (F(1), F(1), 16), (F(1, 2), F(5, 4), 14)]:
        u = solve_halfline_force(fp, t, x, n)
        assert_close(u, force_oracle(to_mp(t), to_mp(x), 1, mp.mpf(1) / 2), n, tol)
    u = solve_halfline_force(fp, F(1), F(9, 8), 24)
    assert_close(u, force_oracle(mp.mpf(1), to_mp(F(9, 8)), 1, mp.mpf(1) / 2), 24, tol)
    fp2 = HalflineForceProblem(F(1, 2), poly_profile(F(1)),
                               constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    u = solve_halfline_force(fp2, F(1), F(1), 12)
    assert_close(u, force_oracle(mp.mpf(1), mp.mpf(1), mp.mpf(1) / 2, mp.mpf(1) / 2), 12, tol)


def test_force_decreases_across_window():
    fp = HalflineForceProblem(F(1), poly_profile(F(1)),
                              constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    plan = plan_halfline_force(fp, 10)
    vals = [solve_halfline_force(fp, F(1), x, 10, plan) for x in (F(1), F(5, 4), F(3, 2))]
    for a, b in zip(vals, vals[1:]):
        assert b.value_fraction() + b.err_fraction() < a.value_fraction() - a.err_fraction()


def test_force_plan_chain_and_rejects():
    fp = HalflineForceProblem(F(1), poly_profile(F(1)),
                              constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    plan = plan_halfline_force(fp, 12)
    assert [lab for lab, _, _ in plan.chain] == ["taylor-remainder"]
    assert plan.order == 0 and plan.chain[0][1] == 0  # constant time factor
    assert plan.chain_ok() and plan.total_budget() <= F(1, 2 ** 12)
    with pytest.raises(PreconditionError):
        # support reaches into the window: the Laplace pair needs d > 0
        HalflineForceProblem(F(1), poly_profile(F(1)),
                             constant_fn(F(1), (F(0), F(1))), (F(1), F(3, 2)))
    for f_time in (piecewise_linear_fn([(F(0), F(1)), (F(2), F(1))]),
                   constant_fn(F(1), (F(0), F(1))), sine_modes_fn({1: F(1)}, F(1))):
        with pytest.raises(PreconditionError, match="time factor"):
            HalflineForceProblem(F(1), f_time, constant_fn(F(1), (F(0), F(1, 2))),
                                 (F(1), F(3, 2)))
    u = solve_halfline_force(fp, F(1, 10000), F(1), 12, plan)
    assert u.value_fraction() == 0


def initial_oracle(t, x, alpha):
    tent = lambda y: 1 - abs(10 * (y - mp.mpf(1) / 2))

    def kern(y):
        c = 4 * alpha * t
        return (mp.exp(-(x - y) ** 2 / c) - mp.exp(-(x + y) ** 2 / c)) / mp.sqrt(mp.pi * c)
    return mp.quad(lambda y: kern(y) * tent(y),
                   [mp.mpf(2) / 5, mp.mpf(1) / 2, mp.mpf(3) / 5])


def test_initial_matches_oracle():
    tol = mp.mpf(10) ** -12
    g = piecewise_linear_fn([(F(2, 5), F(0)), (F(1, 2), F(1)), (F(3, 5), F(0))])
    for t, x, alpha, n in [(F(1, 2), F(6, 5), F(1), 10),
                           (F(1, 2), F(6, 5), F(1), 16),
                           (F(1, 2), F(6, 5), F(1), 24),
                           (F(1, 2), F(6, 5), F(1, 2), 16),
                           (F(1), F(11, 10), F(1), 14)]:
        u = solve_halfline_initial(g, alpha, t, x, n)
        assert_close(u, initial_oracle(to_mp(t), to_mp(x), to_mp(alpha)), n, tol)


def pl_initial_oracle(pts, t, x, alpha):
    """Quadrature of the Dirichlet half-line kernel against the table pts,
    zero off its support; at t = 0 the table's value at x."""
    pts = [(to_mp(a), to_mp(b)) for a, b in pts]
    x = to_mp(x)

    def data(y):
        for (a, ya), (b, yb) in zip(pts, pts[1:]):
            if a <= y <= b:
                return ya + (yb - ya) * (y - a) / (b - a)
        return mp.mpf(0)

    if t == 0:
        return data(x)
    c = 4 * to_mp(alpha) * to_mp(t)

    def kern(y):
        return (mp.exp(-(x - y) ** 2 / c) - mp.exp(-(x + y) ** 2 / c)) / mp.sqrt(mp.pi * c)
    nodes = sorted({a for a, _ in pts} | ({x} if pts[0][0] < x < pts[-1][0] else set()))
    return mp.quad(lambda y: kern(y) * data(y), nodes)


def test_initial_small_time_and_margin():
    # x inside the support, on a breakpoint and at 0; t = 0, small, and past
    # 1; a support from 0 and one right of 1
    tent = [(F(2, 5), F(0)), (F(1, 2), F(1)), (F(3, 5), F(0))]
    from_zero = [(F(0), F(1)), (F(1, 2), F(-2)), (F(3, 2), F(1, 3))]
    far = [(F(2), F(3)), (F(5, 2), F(3))]
    tol = mp.mpf(10) ** -30
    for pts, x, t, alpha, n in [
            (tent, F(6, 5), F(1, 1000), F(1), 16),   # far from the support
            (tent, F(9, 20), F(1, 1000), F(1), 24),  # inside the support
            (tent, F(1, 2), F(1, 1000), F(1), 24),   # on the peak
            (tent, F(2, 5), F(1, 2 ** 30), F(1), 12),
            (tent, F(1, 2), F(0), F(1), 20),
            (tent, F(3, 4), F(0), F(1), 20),
            (tent, F(0), F(1, 2), F(1), 20),
            (tent, F(1, 2), F(4), F(1, 3), 32),
            (from_zero, F(0), F(1, 64), F(1), 20),
            (from_zero, F(1, 2), F(1, 64), F(4), 40),
            (from_zero, F(1, 10 ** 6), F(1, 2 ** 20), F(1, 256), 24),
            (from_zero, F(0), F(0), F(1), 20),
            (far, F(9, 4), F(2), F(1), 24),
            (far, F(5, 2), F(1, 16), F(1), 24)]:
        u = solve_halfline_initial(piecewise_linear_fn(pts), alpha, t, x, n)
        assert_close(u, pl_initial_oracle(pts, t, x, alpha), n, tol)
    g = piecewise_linear_fn(tent)
    plan = plan_halfline_initial(g, F(1), F(3), F(1, 2), 16)
    assert plan.order == 0 and plan.total_budget() <= F(1, 2 ** 16)
    for args in ((F(0), F(1, 2), F(1)), (F(1), F(-1), F(1)), (F(1), F(1), F(-1, 8))):
        with pytest.raises(PreconditionError):
            solve_halfline_initial(g, *args, 10)
    left = piecewise_linear_fn([(F(-1, 2), F(0)), (F(1, 2), F(1))])
    with pytest.raises(PreconditionError):
        solve_halfline_initial(left, F(1), F(1, 2), F(6, 5), 10)  # support left of 0


# ---------------------------------------------------------------------------
# Neumann constant-force reduction


def test_neumann_reduction_examples():
    u = solve_neumann_constant_force(constant_fn(F(1), (F(0), F(1))), F(1, 2), 30)
    assert u.value_fraction() == F(1, 2)
    u = solve_neumann_constant_force(polynomial_fn([F(0), F(1)], (F(0), F(1))), F(1), 30)
    assert u.value_fraction() == F(1, 2)
    assert u.err_fraction() <= F(1, 1 << 30)
    with pytest.raises(PreconditionError):
        solve_neumann_constant_force(constant_fn(F(1), (F(0), F(1))), F(2), 10)


# ---------------------------------------------------------------------------
# interval reduction identity


def test_interval_reduction_examples():
    flat = piecewise_linear_fn([(F(0), F(1)), (F(1), F(1))])
    red = IntervalReduction(F(1, 4), F(1, 2), flat)
    u = red.certified_point_value(20)
    assert_close(u, 1 / mp.sqrt(mp.pi), 20)

    ramp = piecewise_linear_fn([(F(0), F(0)), (F(1), F(1))])
    red2 = IntervalReduction(F(1, 4), F(1, 2), ramp)
    assert_close(red2.certified_point_value(20), 1 / (2 * mp.sqrt(mp.pi)), 20)
    ival = integrate(red2.profile, 0, 1, 30)
    assert abs(ival.value_fraction() - F(1, 2)) <= ival.err_fraction()


def reduction_weight(t0, x0, y):
    """w(y) = e^{(x0 - y)^2 / (4 t0)} / (1 - e^{-x0 y / t0}), in mpmath."""
    return mp.exp((x0 - y) ** 2 / (4 * t0)) / (1 - mp.exp(-x0 * y / t0))


def test_interval_reduction_refuses_bad_inputs():
    tent = piecewise_linear_fn([(F(0), F(0)), (F(3, 4), F(1)), (F(1), F(1, 2))])
    red = IntervalReduction(F(1, 4), F(1, 2), tent)
    assert (red.t0, red.x0, red.profile) == (F(1, 4), F(1, 2), tent)
    with pytest.raises(PreconditionError, match="x0"):
        IntervalReduction(F(1, 4), F(0), tent)  # the weight has a pole at y = 0
    with pytest.raises(PreconditionError, match="t0"):
        IntervalReduction(F(0), F(1, 2), tent)
    wide = piecewise_linear_fn([(F(0), F(0)), (F(2), F(1))])
    with pytest.raises(PreconditionError, match=r"\[0, 1\]"):
        IntervalReduction(F(1, 4), F(1, 2), wide)
    with pytest.raises(PreconditionError, match="pointwise"):
        IntervalReduction(F(1, 4), F(1, 2), EvaluableFunction((F(0), F(1)), F(1)))


def halfline_kernel(t, x, y):
    """The heat kernel on x > 0 with u = 0 at x = 0, alpha = 1 (images)."""
    return (mp.exp(-(x - y) ** 2 / (4 * t)) - mp.exp(-(x + y) ** 2 / (4 * t))) \
        / mp.sqrt(4 * mp.pi * t)


def reweighted_oracle(t0, x0, h):
    """u(t0, x0) for the data h(y - 1/2) w(y) on [1/2, 3/2]: the kernel
    against the data by quadrature, one nonzero linear piece of h at a time."""
    t0, x0, half = to_mp(t0), to_mp(x0), mp.mpf(1) / 2
    total = mp.mpf(0)
    for c0, c1, a, b in linear_pieces(h):
        if c0 or c1:
            c0, c1 = to_mp(c0), to_mp(c1)
            total += mp.quad(lambda y: halfline_kernel(t0, x0, y) * reduction_weight(t0, x0, y)
                             * (c0 + c1 * (y - half)), [to_mp(a) + half, to_mp(b) + half])
    return total


@pytest.mark.parametrize("t0, x0", [(F(1, 4), F(1)), (F(1, 4), F(1, 2)),
                                    (F(1, 10), F(3, 4)), (F(1), F(2))])
def test_interval_reduction_identity_holds_for_the_halfline_problem(t0, x0):
    # the stated problem's kernel, checked against the half-line solver on a
    # tent, times the reweighted data by 30-digit quadrature equals the
    # identity's value within its bound, for h = 1, h = y and counting data
    tent = piecewise_linear_fn([(F(1, 2), F(0)), (F(1), F(1)), (F(3, 2), F(0))])
    u = solve_halfline_initial(tent, 1, t0, x0, 60)
    with mp.workdps(30):
        want = mp.quad(lambda y: halfline_kernel(to_mp(t0), to_mp(x0), y)
                       * (1 - abs(2 * y - 2)), [mp.mpf(1) / 2, 1, mp.mpf(3) / 2])
        assert abs(to_mp(u.value_fraction()) - want) <= to_mp(u.err_fraction()) + mp.mpf(10) ** -25
    inst = CountingInstance((1, 2, 3, 4, 5, 6), 7)  # 4 of 64 cells accepted
    for h in (piecewise_linear_fn([(F(0), F(1)), (F(1), F(1))]),
              piecewise_linear_fn([(F(0), F(0)), (F(1), F(1))]), counting_integrand(inst)):
        v = IntervalReduction(t0, x0, h).certified_point_value(60)
        with mp.workdps(30):
            want = reweighted_oracle(t0, x0, h)
            assert abs(to_mp(v.value_fraction()) - want) \
                <= to_mp(v.err_fraction()) + mp.mpf(10) ** -25, h


# ---------------------------------------------------------------------------
# Taylor data of time profiles, read off their coefficients


def _assert_taylor_data(fn, href):
    """h^(k)(0) within its error <= 2^-40 and the sup bound over [0, 1]
    against mpmath derivatives of href, k = 0..9."""
    grid = [mp.mpf(j) / 32 for j in range(33)]
    for k in range(10):
        d = heat._profile_deriv(fn, k, 40)
        assert d.err_fraction() <= F(1, 1 << 40)
        assert abs(to_mp(d.value_fraction()) - mp.diff(href, 0, k)) \
            <= to_mp(d.err_fraction()) + mp.mpf(2) ** -200, k
        sup = max(abs(mp.diff(href, s, k)) for s in grid)
        assert to_mp(next(heat._profile_sups(fn, k))) >= sup - mp.mpf(2) ** -200, k


def test_poly_profile_taylor_data():
    cs = [F(3, 4), F(-2), F(1, 3), F(0), F(-5, 7), F(1, 9)]
    _assert_taylor_data(poly_profile(*cs),
                        lambda s: sum(to_mp(c) * s ** j for j, c in enumerate(cs)))
    assert next(heat._profile_sups(poly_profile(*cs), 6)) == 0
    assert heat._profile_deriv(poly_profile(*cs), 7, 10).value_fraction() == 0


@pytest.mark.parametrize("amp", [F(3), F(-1, 3)], ids=["amp3", "amp-third"])
def test_sinhalf_profile_taylor_data(amp):
    # k = 0..9 covers every k mod 4: 0, (pi/2)^k amp, 0, -(pi/2)^k amp
    _assert_taylor_data(sinhalf(amp), lambda s: to_mp(amp) * mp.sin(mp.pi * s / 2))


def reference_sup(fn, k):
    """The sup bound on |h^(k)| over [0, 1] as it was formed before it was
    carried from k to k + 1."""
    if fn.poly_coeffs is not None:
        return sum(abs(c) * perm(j, k) for j, c in enumerate(fn.poly_coeffs) if j >= k)
    return sum(abs(c) * (m * F(1571, 1000)) ** k for m, c in fn.sine_modes.items())


def reference_plan_taylor(fn, scale, extra, n):
    """The scan _plan_taylor replaced, (K, remainder): the sup bound and the
    factorial recomputed for every K and compared as Fractions."""
    bud, K = F(1, 1 << (n + 1)), 0
    while (rem := scale * reference_sup(fn, K + 1) / factorial(K + 1 + extra)) > bud:
        K += 1
    return K, rem


@pytest.mark.parametrize("extra", [0, 1])
def test_plan_taylor_matches_the_reference_scan(extra):
    # seeded polynomial and sine-mode profiles, scales and n up to 1024: the
    # same order and the same exact claim as the Fraction scan
    rng = random.Random(3141 + extra)
    profiles = [sinhalf(F(1)), poly_profile(F(0))]
    for _ in range(8):
        profiles.append(poly_profile(*(F(rng.randrange(-50, 51), rng.randrange(1, 13))
                                       for _ in range(rng.randrange(1, 8)))))
        profiles.append(sine_modes_fn({m: F(rng.randrange(-30, 31), rng.randrange(1, 9))
                                       for m in rng.sample(range(1, 9), rng.randrange(1, 4))},
                                      F(2)))
    for fn in profiles:
        for n in (1, 8, 64, 256, 1024):
            scale = rng.choice([F(1), F(3, 7), F(1000), F(1, 1 << 30)])
            K, rem = reference_plan_taylor(fn, scale, extra, n)
            plan = heat._plan_taylor(fn, scale, extra, n, "profile")
            assert plan.order == K
            assert plan.chain == [("taylor-remainder", rem, F(1, 1 << (n + 1)))]
            sups = heat._profile_sups(fn, 0)
            assert all(next(sups) == reference_sup(fn, k) for k in range(K + 2))


def reference_ierfc_parts(w, m):
    """The exact Fraction recurrence _ierfc_parts replaced: (a_j, b_j)."""
    a, b = [F(0), F(1)], [F(1), F(0)]  # j = -1, 0
    for j in range(1, m + 1):
        wa, wb = (w, 1) if j % 2 == 0 else (1, w)
        a.append((a[-2] - 2 * wa * a[-1]) / (2 * j))
        b.append((b[-2] - 2 * wb * b[-1]) / (2 * j))
    return a[1:], b[1:]


def test_ierfc_parts_match_the_fraction_recurrence():
    # A_j = a_j 2^j j! D^floor(j/2) and B_j = b_j 2^j j! D^floor((j+1)/2),
    # w = N / D in lowest terms, bit for bit on seeded (w, m)
    rng = random.Random(2718)
    cases = [(F(0), m) for m in range(41)]
    cases += [(F(rng.randrange(0, 10 ** rng.randrange(1, 9)), rng.randrange(1, 10 ** 6)),
               rng.randrange(0, 41)) for _ in range(200)]
    cases += [(F(1), 40), (F(169, 100), 9), (F(1, 10 ** 12), 21), (F(10 ** 6, 7), 40)]
    for w, m in cases:
        A, B = heat._ierfc_parts(w, m)
        a, b = reference_ierfc_parts(w, m)
        assert len(A) == len(B) == m + 1
        D = w.denominator
        for j in range(m + 1):
            scale = 2 ** j * factorial(j)
            assert F(A[j], scale * D ** (j // 2)) == a[j], (w, m, j)
            assert F(B[j], scale * D ** ((j + 1) // 2)) == b[j], (w, m, j)


def test_kernel_ladder_needs_linear_space_data():
    # a quadratic force profile has no linear pieces for the closed form
    quad = polynomial_fn([F(0), F(0), F(1)], (F(0), F(1, 4)))
    p = HalflineForceProblem(F(1), poly_profile(F(1)), quad, (F(1, 2), F(1)))
    with pytest.raises(PreconditionError):
        solve_halfline_force(p, F(1, 2), F(3, 4), 6)


# ---------------------------------------------------------------------------
# piecewise-linear interval data: the slope-breakpoint series against a
# 40-digit heat-kernel oracle (method of images)

IVL_NODES = [(F(0), F(1)), (F(1, 2), F(-1)), (F(3, 2), F(2)), (F(2), F(1, 2))]


def image_oracle(nodes, L, alpha, t, x):
    """u(t, x) = integral of the Dirichlet heat kernel on [0, L] times g."""
    s2 = 4 * to_mp(alpha) * to_mp(t)

    def kernel(y):
        return sum(mp.exp(-(x - y + 2 * m * L) ** 2 / s2) - mp.exp(-(x + y + 2 * m * L) ** 2 / s2)
                   for m in range(-4, 5)) / mp.sqrt(mp.pi * s2)

    total = mp.mpf(0)
    for (a, ya), (b, yb) in zip(nodes, nodes[1:]):
        a, b, ya, yb = map(to_mp, (a, b, ya, yb))
        cuts = [a] + ([x] if a < x < b else []) + [b]
        total += mp.quad(lambda y: kernel(y) * (ya + (y - a) * (yb - ya) / (b - a)), cuts)
    return total


@pytest.mark.parametrize("t", [F(1, 256), F(1, 8)])
@pytest.mark.parametrize("x", [F(0), F(2), F(1, 2), F(3, 2), F(5, 16)])
def test_interval_pl_values_match_image_oracle(t, x):
    # g(0) and g(L) nonzero, L = 2, t0 = 1/256, x at both ends and on breakpoints
    p = IntervalHeatProblem(F(2), F(1), piecewise_linear_fn(IVL_NODES), F(1, 256))
    for n in (24, 48):
        u = solve_interval(p, t, x, n)
        assert u.err_fraction() <= F(1, 2 ** n)
        with mp.workdps(40):
            want = image_oracle(IVL_NODES, 2, F(1), t, to_mp(x))
            assert abs(to_mp(u.value_fraction()) - want) <= to_mp(u.err_fraction()) + mp.mpf(10) ** -35


def data_endpoints_per_piece(f, x):
    """Distance -> (eC, sC) built piece by piece: c0 + c1 y on [b0, b1]
    gives (f(b1), -c1) at x - b1, (-f(b0), c1) at x - b0 and the image's
    (-f(b0), -c1) at x + b0, (f(b1), c1) at x + b1."""
    out = {}
    for c0, c1, b0, b1 in linear_pieces(f):
        f0, f1 = c0 + c1 * b0, c0 + c1 * b1
        for d, e, s in ((x - b1, f1, -c1), (x - b0, -f0, c1),
                        (x + b0, -f0, -c1), (x + b1, f1, c1)):
            e0, s0 = out.get(d, (0, 0))
            out[d] = (e0 + e, s0 + s)
    return {d: v for d, v in out.items() if v != (0, 0)}


def test_data_endpoints_match_the_per_piece_sums():
    # same distances, weights and order: the response rounds its error
    # bound in the order the distances come, so the order is part of the
    # result.  Supports from 0 (x = 0 merges a point with its image),
    # collinear nodes and x on a node included
    rng = random.Random(83)
    datas = [piecewise_linear_fn([(F(0), F(1)), (F(1, 4), F(0)), (F(1, 2), F(1))]),
             piecewise_linear_fn([(F(0), F(0)), (F(1, 8), F(1, 8)), (F(1, 4), F(1, 4)),
                                  (F(1, 2), F(0))]),
             polynomial_fn([F(1, 2), F(-1, 3)], (F(0), F(1, 2))), constant_fn(F(1), (F(1), F(2)))]
    for _ in range(12):
        a = F(rng.randrange(0, 3), 4)
        xs = sorted({a + F(rng.randrange(1, 32), 32) for _ in range(rng.randrange(1, 5))} | {a})
        datas.append(piecewise_linear_fn([(x, F(rng.randrange(-9, 10), 4)) for x in xs]))
    for f in datas:
        nodes = [b0 for _, _, b0, _ in linear_pieces(f)] + [f.domain[1]]
        for x in [F(0), F(3, 16), F(5, 2)] + nodes:
            assert list(heat._data_endpoints(f, x).items()) == \
                list(data_endpoints_per_piece(f, x).items()), (nodes, x)


# ---------------------------------------------------------------------------
# half-line solvers pinned bit for bit: the (m, s, en, es) of seeded solves,
# recorded once in tests/data/halfline_pins.json, so a change to their exact
# bookkeeping shows as a changed field, not only as a looser bound

PINS = os.path.join(os.path.dirname(__file__), "data", "halfline_pins.json")


def halfline_pin_cases():
    """(id, thunk) per seeded half-line solve; the id spells out its inputs."""
    rng = random.Random(3217)
    pick = rng.choice
    profiles = {"poly-s": poly_profile(F(0), F(1)),
                "poly-mixed": poly_profile(F(1, 3), F(-2), F(5, 7)),
                "sinhalf-3": sinhalf(F(3)), "sinhalf-third": sinhalf(F(-1, 3))}
    spaces = {"const": constant_fn(F(1), (F(0), F(1, 2))),
              "pl": piecewise_linear_fn([(F(0), F(1)), (F(1, 4), F(-1)), (F(1, 2), F(2))]),
              "affine": polynomial_fn([F(1, 2), F(-1, 3)], (F(0), F(1, 2)))}
    datas = {"tent": piecewise_linear_fn([(F(2, 5), F(0)), (F(1, 2), F(1)), (F(3, 5), F(0))]),
             "from-zero": piecewise_linear_fn([(F(0), F(1)), (F(1, 2), F(-2)),
                                               (F(3, 2), F(1, 3))]),
             "far": piecewise_linear_fn([(F(2), F(3)), (F(5, 2), F(3))])}
    alphas = [F(1), F(1, 3), F(5, 2), F(1, 64)]
    ts = [F(1, 2 ** 20), F(1, 1000), F(1, 16), F(5, 16), F(7, 8), F(1)]
    cases = []
    for name, h in profiles.items():
        for n in (8, 24, 64, 160):
            alpha, t, x = pick(alphas), pick(ts), F(rng.randrange(8, 25), 16)
            p = HalflineBoundaryProblem(alpha, h, (F(1, 2), F(3, 2)))
            cases.append((f"boundary {name} alpha={alpha} t={t} x={x} n={n}",
                          lambda p=p, t=t, x=x, n=n: solve_halfline_boundary(p, t, x, n)))
    for name, h in profiles.items():
        for space in spaces:
            n = pick((8, 24, 64, 128))
            alpha, t, x = pick(alphas), pick(ts), F(rng.randrange(16, 25), 16)
            p = HalflineForceProblem(alpha, h, spaces[space], (F(1), F(3, 2)))
            cases.append((f"force {name} {space} alpha={alpha} t={t} x={x} n={n}",
                          lambda p=p, t=t, x=x, n=n: solve_halfline_force(p, t, x, n)))
    for name, g in datas.items():
        nodes = [b0 for _, _, b0, _ in linear_pieces(g)] + [g.domain[1]]
        xs = [F(0), F(9, 20), F(6, 5), F(9, 4), nodes[1] + F(1, 2 ** 12)] + nodes
        for n in (12, 32, 64, 200):
            for x in rng.sample(xs, 2):
                alpha, t = pick(alphas), pick(ts + [F(3)])
                cases.append((f"initial {name} alpha={alpha} t={t} x={x} n={n}",
                              lambda g=g, a=alpha, t=t, x=x, n=n:
                              solve_halfline_initial(g, a, t, x, n)))
    # distances and alpha t near 0, where the kernel bound passes 2^9
    for name, x, alpha, t, n in [
            ("from-zero", F(1, 2) + F(1, 2 ** 12), F(1, 64), F(1, 2 ** 20), 40),
            ("from-zero", F(1, 10 ** 6), F(1, 256), F(1, 2 ** 20), 24),
            ("tent", F(1, 2), F(1), F(1, 2 ** 30), 64)]:
        cases.append((f"initial {name} alpha={alpha} t={t} x={x} n={n}",
                      lambda g=datas[name], a=alpha, t=t, x=x, n=n:
                      solve_halfline_initial(g, a, t, x, n)))
    return cases


def test_halfline_solves_match_their_pinned_fields():
    with open(PINS, encoding="utf-8") as f:
        pins = json.load(f)
    cases = halfline_pin_cases()
    assert sorted(key for key, _ in cases) == sorted(pins)
    for key, solve in cases:
        u = solve()
        assert [u.m, u.s, u.en, u.es] == pins[key], key
