"""Diffusion solvers against independent quadrature and series oracles."""

import random
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

import certheat.heat as heat
import certheat.quadrature as quadrature
from certheat.errors import PreconditionError
from certheat.evaluable import (constant_fn, linear_pieces, piecewise_linear_fn,
                                polynomial_fn, sine_modes_fn)
from certheat.quadrature import int_pl_trig_pi, integrate
from certheat.heat import (HalflineBoundaryProblem, HalflineForceProblem,
                           IntervalHeatProblem, hardness_initial_interval,
                           plan_halfline_boundary, plan_halfline_force,
                           plan_halfline_initial, plan_interval,
                           poly_time_profile, sin_half_profile, sine_coeff,
                           solve_halfline_boundary, solve_halfline_force,
                           solve_halfline_initial, solve_interval,
                           solve_neumann_constant_force)

MP_PREC = 300  # mpmath bits for this module's tests (see conftest.py)

F = Fraction


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

    def rotation_sum(theta, weights, W):
        summed.append(len(weights))
        return orig_sum(theta, weights, W)

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
        # the tent's one slope jump: two rotations, each over modes 1..K
        assert K <= plan.order and summed == [K, K]
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
    hb = HalflineBoundaryProblem(F(1), poly_time_profile([F(0), F(1)]),
                                 (F(1, 2), F(3, 2)))
    plan16 = plan_halfline_boundary(hb, 16)
    for t, x in [(F(1), F(1)), (F(1, 2), F(3, 4)), (F(1, 4), F(9, 8))]:
        u = solve_halfline_boundary(hb, t, x, 16, plan16)
        want = psi_oracle(to_mp(t), to_mp(x), 1, lambda s: s)
        assert_close(u, want, 16, tol)
    u = solve_halfline_boundary(hb, F(1), F(1), 24)
    assert_close(u, psi_oracle(mp.mpf(1), mp.mpf(1), 1, lambda s: s), 24, tol)
    hb2 = HalflineBoundaryProblem(F(1, 2), poly_time_profile([F(0), F(1)]),
                                  (F(1, 2), F(3, 2)))
    u = solve_halfline_boundary(hb2, F(1), F(1), 12)
    assert_close(u, psi_oracle(mp.mpf(1), mp.mpf(1), mp.mpf(1) / 2, lambda s: s), 12, tol)


def test_boundary_curved_profiles_match_oracle():
    tol = mp.mpf(10) ** -12
    t, x = F(3, 4), F(1)
    cases = [
        (poly_time_profile([F(0), F(0), F(1)]), lambda s: s * s),
        (sin_half_profile(F(1)), lambda s: mp.sin(mp.pi * s / 2)),
    ]
    for prof, href in cases:
        hb = HalflineBoundaryProblem(F(1), prof, (F(1, 2), F(3, 2)))
        u = solve_halfline_boundary(hb, t, x, 12)
        assert_close(u, psi_oracle(to_mp(t), to_mp(x), 1, href), 12, tol)


def test_boundary_zero_and_small_time():
    hb = HalflineBoundaryProblem(F(1), poly_time_profile([F(0), F(1)]),
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
    hb = HalflineBoundaryProblem(F(1), sin_half_profile(F(1)), (F(1, 2), F(3, 2)))
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
    prof = poly_time_profile([F(0), F(1)])
    hb = HalflineBoundaryProblem(F(1), prof, (F(1, 2), F(3, 2)))
    with pytest.raises(PreconditionError):
        solve_halfline_boundary(hb, F(1, 2), F(1, 4), 10)  # x below window
    with pytest.raises(PreconditionError):
        solve_halfline_boundary(hb, F(3, 2), F(1), 10)  # t beyond [0, 1]
    with pytest.raises(PreconditionError):
        HalflineBoundaryProblem(F(1), prof, (F(0), F(1)))  # window touches 0
    with pytest.raises(PreconditionError):
        # no derivative model attached
        HalflineBoundaryProblem(
            F(1), piecewise_linear_fn([(F(0), F(0)), (F(2), F(2))]), (F(1, 2), F(1)))
    with pytest.raises(PreconditionError):
        HalflineBoundaryProblem(F(1), poly_time_profile([F(1)]), (F(1, 2), F(1)))


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
    fp = HalflineForceProblem(F(1), poly_time_profile([F(1)]),
                              constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    for t, x, n in [(F(1), F(1), 10), (F(1), F(1), 16), (F(1, 2), F(5, 4), 14)]:
        u = solve_halfline_force(fp, t, x, n)
        assert_close(u, force_oracle(to_mp(t), to_mp(x), 1, mp.mpf(1) / 2), n, tol)
    u = solve_halfline_force(fp, F(1), F(9, 8), 24)
    assert_close(u, force_oracle(mp.mpf(1), to_mp(F(9, 8)), 1, mp.mpf(1) / 2), 24, tol)
    fp2 = HalflineForceProblem(F(1, 2), poly_time_profile([F(1)]),
                               constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    u = solve_halfline_force(fp2, F(1), F(1), 12)
    assert_close(u, force_oracle(mp.mpf(1), mp.mpf(1), mp.mpf(1) / 2, mp.mpf(1) / 2), 12, tol)


def test_force_decreases_across_window():
    fp = HalflineForceProblem(F(1), poly_time_profile([F(1)]),
                              constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    plan = plan_halfline_force(fp, 10)
    vals = [solve_halfline_force(fp, F(1), x, 10, plan) for x in (F(1), F(5, 4), F(3, 2))]
    for a, b in zip(vals, vals[1:]):
        assert b.value_fraction() + b.err_fraction() < a.value_fraction() - a.err_fraction()


def test_force_plan_chain_and_rejects():
    fp = HalflineForceProblem(F(1), poly_time_profile([F(1)]),
                              constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    plan = plan_halfline_force(fp, 12)
    assert [lab for lab, _, _ in plan.chain] == ["taylor-remainder"]
    assert plan.order == 0 and plan.chain[0][1] == 0  # constant time factor
    assert plan.chain_ok() and plan.total_budget() <= F(1, 2 ** 12)
    with pytest.raises(PreconditionError):
        # support reaches into the window: the Laplace pair needs d > 0
        HalflineForceProblem(F(1), poly_time_profile([F(1)]),
                             constant_fn(F(1), (F(0), F(1))), (F(1), F(3, 2)))
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
    red = hardness_initial_interval(F(1, 4), F(1, 2), flat).hardness
    u = red.certified_point_value(20)
    assert_close(u, 1 / mp.sqrt(mp.pi), 20)

    ramp = piecewise_linear_fn([(F(0), F(0)), (F(1), F(1))])
    red2 = hardness_initial_interval(F(1, 4), F(1, 2), ramp).hardness
    assert_close(red2.certified_point_value(20), 1 / (2 * mp.sqrt(mp.pi)), 20)
    ival = integrate(red2.profile, 0, 1, 30)
    assert abs(ival.value_fraction() - F(1, 2)) <= ival.err_fraction()


def test_interval_reduction_sup_bound_covers_the_weighted_data():
    # ||g|| 3^ceil(1 / (4 t0)) bounds g(y) exp((y - x0)^2 / (4 pi t0)) on
    # [0, 1]; the sup is taken on a grid that holds both ends
    tent = piecewise_linear_fn([(F(0), F(0)), (F(3, 4), F(1)), (F(1), F(1, 2))])
    for t0, x0 in ((F(1, 4), F(1, 2)), (F(1, 50), F(1, 5))):
        gstar = hardness_initial_interval(t0, x0, tent)
        sup = max(to_mp(tent.eval_exact(y)) * mp.exp(to_mp((y - x0) ** 2 / (4 * t0)) / mp.pi)
                  for y in (F(j, 400) for j in range(401)))
        assert to_mp(gstar.sup_bound) >= sup, t0


# ---------------------------------------------------------------------------
# profile derivative models


def test_poly_profile_derivatives():
    prof = poly_time_profile([F(0), F(0), F(1)]).smooth_model
    d1 = prof.deriv_cv(1, F(1, 3), 40)
    assert abs(d1.value_fraction() - F(2, 3)) <= d1.err_fraction()
    assert prof.deriv_sup(2) == 2
    assert prof.deriv_sup(3) == 0


def test_sin_profile_derivatives():
    fn = sin_half_profile(F(1))
    assert fn.eval_cv(F(0), 30).value_fraction() == 0
    assert fn.eval_cv(F(1), 30).value_fraction() == 1
    sm = fn.smooth_model
    d1 = sm.deriv_cv(1, F(0), 40)
    assert abs(to_mp(d1.value_fraction()) - mp.pi / 2) <= to_mp(d1.err_fraction())
    d2 = sm.deriv_cv(2, F(1, 3), 40)
    want = -(mp.pi / 2) ** 2 * mp.sin(mp.pi / 6)
    assert abs(to_mp(d2.value_fraction()) - want) <= to_mp(d2.err_fraction())
    for k in range(5):
        assert to_mp(sm.deriv_sup(k)) >= (mp.pi / 2) ** k - mp.mpf(2) ** -6


def test_kernel_ladder_needs_linear_space_data():
    # a quadratic force profile has no linear pieces for the closed form
    quad = polynomial_fn([F(0), F(0), F(1)], (F(0), F(1, 4)))
    p = HalflineForceProblem(F(1), poly_time_profile([F(1)]), quad, (F(1, 2), F(1)))
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
