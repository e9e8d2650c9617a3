"""Tests for the disk and ball Dirichlet solvers."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from certheat.certified import CertifiedValue
from certheat.errors import PreconditionError
from certheat.evaluable import (EvaluableFunction, TrigPoly, linear_pieces,
                                piecewise_linear_fn, polynomial_fn,
                                trig_poly_fn)
from certheat.hardness import CountingInstance, counting_integrand
import certheat.laplace as laplace
from certheat.cli import parse_boundary_fn
from certheat.kernels import real_sph_harmonic_3d
from certheat.quadrature import int_linear_cos_pi, int_linear_sin_pi, int_pl_trig_pi
from certheat.series import geometric_cap
from certheat.laplace import (BallProblem, DiskProblem, DiskReduction, fourier_coeffs,
                              plan_ball_truncation, plan_disk, solve_ball, solve_disk)

MP_PREC = 300  # mpmath bits for this module's tests (see conftest.py)


def to_mp(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / f.denominator


def poisson(r, dtheta):
    return (1 - r ** 2) / (1 - 2 * r * mp.cos(dtheta) + r ** 2)


def pieces_at(pieces, rho):
    """The piecewise-linear function given by contiguous pieces, at an
    mpmath point rho."""
    for c0, c1, _, b in pieces:
        if rho <= to_mp(b):
            return to_mp(c0) + to_mp(c1) * rho
    raise ValueError(f"{rho} past the last piece")


def random_trig_poly(rng, degree=8):
    tp = TrigPoly(const=Fraction(rng.randrange(-8, 9), 8))
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(1, degree + 1)
        tp.sin_coeffs[k] = Fraction(rng.randrange(-8, 9), 8)
        k = rng.randrange(1, degree + 1)
        tp.cos_coeffs[k] = Fraction(rng.randrange(-8, 9), 8)
    return tp


def trig_value(tp, r, theta):
    # analytic harmonic extension of the boundary trig polynomial
    acc = to_mp(tp.const)
    for k, c in tp.sin_coeffs.items():
        acc += to_mp(c) * to_mp(r) ** k * mp.sin(k * mp.pi * to_mp(theta))
    for k, c in tp.cos_coeffs.items():
        acc += to_mp(c) * to_mp(r) ** k * mp.cos(k * mp.pi * to_mp(theta))
    return acc


def pl_fourier(g, k, prec):
    """(a_k, b_k) of piecewise-linear g by its breakpoint closed form, the
    form whose sum over k the disk series evaluates."""
    return int_pl_trig_pi(linear_pieces(g), k, 0, prec)


def test_fourier_readoff_exact():
    g = trig_poly_fn(TrigPoly(sin_coeffs={3: Fraction(1)}, cos_coeffs={7: Fraction(1, 2)}))
    a3, _ = fourier_coeffs(g, 3, 30)
    assert a3.value_fraction() == 1 and a3.err_fraction() == 0
    a7, b7 = fourier_coeffs(g, 7, 30)
    assert a7.value_fraction() == 0
    assert b7.value_fraction() == Fraction(1, 2)
    _, b0 = fourier_coeffs(g, 0, 30)
    assert b0.value_fraction() == 0
    # only declared modes are read off: other data's solve forms no coefficient
    tent = piecewise_linear_fn([(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)),
                                (Fraction(1), Fraction(0))])
    with pytest.raises(PreconditionError):
        fourier_coeffs(DiskReduction(Fraction(1, 2), 0, tent), 1, 30)


def test_fourier_pl_vs_quadrature_oracle():
    pts = [(Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(-1)),
           (Fraction(2), Fraction(1, 2))]
    g = piecewise_linear_fn(pts)
    for k in (0, 1, 4):
        a, b = pl_fourier(g, k, 30)
        ga = mp.quad(lambda rho: to_mp(g.eval_exact(Fraction(int(rho * 2 ** 30), 2 ** 30)))
                     * mp.sin(k * mp.pi * rho), [0, mp.mpf(3) / 4, 2])
        gb = mp.quad(lambda rho: to_mp(g.eval_exact(Fraction(int(rho * 2 ** 30), 2 ** 30)))
                     * mp.cos(k * mp.pi * rho), [0, mp.mpf(3) / 4, 2])
        assert abs(to_mp(a.value_fraction()) - ga) < mp.mpf(2) ** -25
        assert abs(to_mp(b.value_fraction()) - gb) < mp.mpf(2) ** -25


def test_disk_pure_modes():
    rng = random.Random(101)
    for k in (1, 3, 8):
        prob = DiskProblem(trig_poly_fn(TrigPoly(cos_coeffs={k: Fraction(1)})),
                           Fraction(9, 10))
        for n in (10, 20, 30):
            plan = plan_disk(prob, n)
            assert plan.chain_ok() and plan.total_budget() <= Fraction(1, 2 ** n)
            for _ in range(3):
                r = Fraction(rng.randrange(0, 90), 100)
                th = Fraction(rng.randrange(0, 200), 100)
                cv = solve_disk(prob, r, th, n, plan)
                want = to_mp(r) ** k * mp.cos(k * mp.pi * to_mp(th))
                assert cv.err_fraction() <= Fraction(1, 2 ** n)
                assert abs(to_mp(cv.value_fraction()) - want) <= mp.mpf(2) ** -n


def test_disk_random_trig_boundaries():
    rng = random.Random(7)
    for _ in range(12):
        tp = random_trig_poly(rng)
        prob = DiskProblem(trig_poly_fn(tp), Fraction(4, 5))
        for n in (10, 20):
            for _ in range(3):
                r = Fraction(rng.randrange(0, 80), 100)
                th = Fraction(rng.randrange(0, 200), 100)
                cv = solve_disk(prob, r, th, n)
                assert abs(to_mp(cv.value_fraction()) - trig_value(tp, r, th)) \
                    <= mp.mpf(2) ** -n


def test_disk_constant_and_center():
    prob = DiskProblem(trig_poly_fn(TrigPoly(const=Fraction(5, 7))), Fraction(1, 2))
    cv = solve_disk(prob, Fraction(1, 3), Fraction(9, 8), 20)
    assert abs(cv.value_fraction() - Fraction(5, 7)) <= cv.err_fraction()
    g = trig_poly_fn(TrigPoly(const=Fraction(1, 4), sin_coeffs={2: Fraction(1)}))
    cv = solve_disk(DiskProblem(g, Fraction(1, 2)), 0, Fraction(1, 8), 20)
    assert abs(cv.value_fraction() - Fraction(1, 4)) <= cv.err_fraction()


def test_disk_maximum_principle():
    rng = random.Random(31)
    tp = random_trig_poly(rng)
    prob = DiskProblem(trig_poly_fn(tp), Fraction(3, 4))
    sup = tp.sup_bound()
    for _ in range(10):
        r = Fraction(rng.randrange(0, 75), 100)
        th = Fraction(rng.randrange(0, 200), 100)
        cv = solve_disk(prob, r, th, 16)
        assert abs(cv.value_fraction()) <= sup + Fraction(1, 2 ** 16)


def test_disk_rejects_radius_beyond_r0():
    prob = DiskProblem(trig_poly_fn(TrigPoly(const=Fraction(1))), Fraction(1, 2))
    with pytest.raises(PreconditionError):
        solve_disk(prob, Fraction(3, 4), Fraction(0), 10)


def test_interpolated_closure_bridges_to_seam():
    # the reduction's closure is h's pieces and then the bridge from h(1) on
    # [1, 2] back to h(0), where the closure meets itself at the seam
    for h in (polynomial_fn([Fraction(0), Fraction(1)], (Fraction(0), Fraction(1))), THREE):
        red = DiskReduction(Fraction(1, 2), Fraction(0), h)
        assert red.closure[:-1] == linear_pieces(h)
        c0, c1, a, b = red.closure[-1]
        assert (a, b) == (1, 2)
        assert c0 + c1 * a == h.eval_exact(Fraction(1)) == red.h1
        assert c0 + c1 * b == h.eval_exact(Fraction(0)) == red.h0


def test_disk_reduction_without_pieces_is_refused():
    # the disk series reads the profile's pieces, and a quadratic has none;
    # the point-value identity reads no piece and still holds
    h = polynomial_fn([Fraction(0), Fraction(0), Fraction(1)], (Fraction(0), Fraction(1)))
    g = DiskReduction(Fraction(1, 2), Fraction(1, 2), h)
    with pytest.raises(PreconditionError, match="linear pieces"):
        DiskProblem(g, Fraction(1, 2))
    ucv = g.certified_point_value(20)  # (1/3 + (0 + 1) / 2) / 2
    assert abs(ucv.value_fraction() - Fraction(5, 12)) <= ucv.err_fraction()


def test_hardness_identity_against_quadrature():
    # u(r0, theta0) must equal half the integral of the closure, and the
    # series solve must agree with the Poisson-integral oracle
    h = polynomial_fn([Fraction(0), Fraction(1)], (Fraction(0), Fraction(1)))
    r0, th0 = Fraction(1, 2), Fraction(3, 4)
    g = DiskReduction(r0, th0, h)
    ucv = g.certified_point_value(30)
    # closure: s on [0,1], 2-rho on [1,2]; half the integral is 1/2
    assert abs(ucv.value_fraction() - Fraction(1, 2)) <= ucv.err_fraction()
    cv = solve_disk(DiskProblem(g, r0), r0, th0, 12)
    assert abs(cv.value_fraction() - Fraction(1, 2)) <= cv.err_fraction()
    assert cv.err_fraction() <= Fraction(1, 2 ** 12)

    def gval(rho):
        # g = the closure times the kernel factor
        # (1 + r0^2 - 2 r0 cos pi(theta0 - rho)) / (1 - r0^2)
        a = to_mp(r0)
        return pieces_at(g.closure, rho) \
            * (1 + a * a - 2 * a * mp.cos(mp.pi * (to_mp(th0) - rho))) / (1 - a * a)

    oracle = mp.quad(lambda rho: poisson(to_mp(r0), mp.pi * (to_mp(th0) - rho))
                     * gval(rho), [0, 1, 2]) / 2
    assert abs(oracle - mp.mpf(1) / 2) < mp.mpf(10) ** -5


def test_hardness_constant_profile():
    h = polynomial_fn([Fraction(1)], (Fraction(0), Fraction(1)))
    g = DiskReduction(Fraction(1, 3), Fraction(1, 5), h)
    ucv = g.certified_point_value(25)
    assert abs(ucv.value_fraction() - 1) <= ucv.err_fraction()


def test_disk_reduction_is_the_boundary_data():
    # the reduction is data on [0, 2] bounded by its closure's sup times
    # the kernel factor's top (1 + r0) / (1 - r0), and declares no pieces
    # of its own; a bad marked point or profile is refused by name
    g = DiskReduction(Fraction(1, 3), Fraction(1, 5), THREE)
    assert g.domain == (0, 2) and g.sup == 2 and g.sup_bound == 4
    assert g.pieces is None and linear_pieces(g) is None and g.eval_exact is None
    assert DiskReduction(0, Fraction(1, 5), THREE).sup_bound == 2
    wide = piecewise_linear_fn([(Fraction(0), Fraction(0)), (Fraction(2), Fraction(1))])
    for r0, th0, h, match in ((1, 0, THREE, r"r0 must lie in \[0,1\)"),
                              (Fraction(-1, 2), 0, THREE, r"r0 must lie"),
                              (0, Fraction(5, 2), THREE, r"theta0 must lie in \[0,2\]"),
                              (0, 0, wide, r"profile must live on \[0,1\]"),
                              (0, 0, EvaluableFunction((Fraction(0), Fraction(1)), Fraction(1)),
                               "pointwise")):
        with pytest.raises(PreconditionError, match=match):
            DiskReduction(r0, th0, h)


# three pieces on [0, 1]; the closure's bridge back to h(0) makes a fourth
THREE = piecewise_linear_fn([(Fraction(0), Fraction(1, 3)), (Fraction(1, 4), Fraction(-1)),
                             (Fraction(3, 5), Fraction(2)), (Fraction(1), Fraction(1, 2))])


@pytest.mark.parametrize("r, theta", [
    (Fraction(0), Fraction(1, 4)),            # the mean of g
    (Fraction(1, 1000), Fraction(3, 5)),
    (Fraction(1, 4), Fraction(1, 4)),         # 3/4 of r0
    (Fraction(1, 3), Fraction(1)),            # r0, off the marked angle
    (Fraction(1, 3), Fraction(1, 5)),         # the marked point
])
@pytest.mark.parametrize("n", [30, 64])
def test_reduction_series_matches_poisson_oracle(r, theta, n):
    # away from the marked point nothing cancels: the series solve of the
    # reweighted data against 30-digit Poisson quadrature of g itself, with
    # theta on a breakpoint of the closure and theta0 != 1/2
    r0, th0 = Fraction(1, 3), Fraction(1, 5)
    g = DiskReduction(r0, th0, THREE)
    cv = solve_disk(DiskProblem(g, r0), r, theta, n)
    assert cv.err_fraction() <= Fraction(1, 2 ** n)
    pieces = g.closure
    with mp.workdps(30):
        def gval(rho):
            # the closure times the kernel factor
            R0 = to_mp(r0)
            return pieces_at(pieces, rho) \
                * (1 + R0 ** 2 - 2 * R0 * mp.cospi(to_mp(th0) - rho)) / (1 - R0 ** 2)

        cuts = sorted({to_mp(a) for _, _, a, _ in pieces} | {mp.mpf(2), to_mp(theta)})
        want = mp.quad(lambda rho: poisson(to_mp(r), mp.pi * (to_mp(theta) - rho))
                       * gval(rho), cuts) / 2
        assert abs(to_mp(cv.value_fraction()) - want) \
            <= to_mp(cv.err_fraction()) + mp.mpf(10) ** -25


@pytest.mark.parametrize("r0", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10),
                                Fraction(99, 100)])
def test_reduction_tail_is_within_the_plan_cap(r0):
    # plan_disk stops its search at geometric_cap for ||g||: there the
    # reduction's tail is within the budget at r0, and so at every r <= r0
    g = DiskReduction(r0, Fraction(1, 5), THREE)
    prob = DiskProblem(g, r0)
    for n in (8, 30, 64):
        cap = geometric_cap(2 * g.sup_bound / (1 - r0), r0, n)
        tails = [laplace._point_tail(prob, r0 * j / 8)(cap) for j in range(9)]
        assert tails == sorted(tails) and tails[-1] <= Fraction(1, 2 ** (n + 1))
        plan = plan_disk(prob, n)
        assert plan.order <= cap and plan.chain_ok()


def reference_point_tail(prob, r, m):
    """min((S + V (m + 1)) / (m + 1)^2, C) r^m in Fractions alone, from the
    jump list and the sup: S = w sum |D| / pi_lo^2, V = w sum |J| / pi_lo and
    C = 2 w sup, with w = r / (1 - r) for pieces and
    ((1 + r0^2) r + r0 (1 + r^2)) / ((1 - r0^2)(1 - r)) for reduction data."""
    pi_lo, red = Fraction(157, 50), prob.reduction
    if red is None:
        w, sup = r / (1 - r), prob.g.sup_bound
    else:
        r0 = red.r0
        w = ((1 + r0 * r0) * r + r0 * (1 + r * r)) / ((1 - r0 * r0) * (1 - r))
        sup = red.sup
    S = w * sum(abs(D) for _, _, D in prob.jumps) / pi_lo ** 2
    V = w * sum(abs(J) for _, J, _ in prob.jumps) / pi_lo
    return min((S + V * (m + 1)) / (m + 1) ** 2, 2 * w * sup) * r ** m


def point_tail_problems():
    """Piecewise-linear data (with and without a seam gap, seeded tables) and
    reduction data over pieces and over a counting integrand."""
    rng = random.Random(2718)
    out = [DiskProblem(TENT2, GRID_R0),
           DiskProblem(parse_boundary_fn("pl 0:0 1/2:1 2:1/1048576"), GRID_R0)]
    for _ in range(3):
        xs = sorted({Fraction(rng.randrange(1, 64), 32) for _ in range(5)} - {2})
        ys = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in xs]
        nodes = [(Fraction(0), Fraction(1, 2)), *zip(xs, ys), (Fraction(2), Fraction(1, 2))]
        out.append(DiskProblem(piecewise_linear_fn(nodes), Fraction(99, 100)))
    for r0, h in ((Fraction(0), THREE), (Fraction(1, 3), THREE), (Fraction(9, 10), THREE),
                  (Fraction(1, 2), counting_integrand(CountingInstance((3, 5, 2, 7), 9)))):
        out.append(DiskProblem(DiskReduction(r0, Fraction(1, 5), h), r0))
    return out


def test_point_tail_matches_its_fraction_form():
    # the problem keeps the constants over one denominator and each m takes
    # the minimum in integers: the bound must be the same exact rational
    rng = random.Random(31415)
    ms = [0, 1, 2, 3, 7, 40, 199, 1000, 2999] + [rng.randrange(4000) for _ in range(6)]
    for prob in point_tail_problems():
        assert "tail" not in repr(prob)
        r0 = prob.r0
        radii = [Fraction(0), r0] + [r0 * Fraction(rng.randrange(1, 1000), 1000) for _ in range(4)]
        for r in radii:
            tail = laplace._point_tail(prob, r)
            for m in ms:
                assert tail(m) == reference_point_tail(prob, r, m), (prob, r, m)


# ---------------------------------------------------------------------------
# each disk solve sums only as far as its own radius needs

TENT2 = piecewise_linear_fn([(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)),
                             (Fraction(1), Fraction(0)), (Fraction(3, 2), Fraction(-1)),
                             (Fraction(2), Fraction(0))])
GRID_R0 = Fraction(9, 10)
GRID_RADII = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), GRID_R0]
GRID_THETAS = [Fraction(j, 16) for j in range(1, 32, 2)] + [Fraction(1, 3), Fraction(5, 7)]
GRID_BITS = [12, 20, 32]


def tent2(rho):
    return 2 * rho if rho <= 1 / 2 else 2 - 2 * rho if rho <= 3 / 2 else 2 * rho - 4


def poisson_integral(r, theta):
    r, theta = to_mp(r), to_mp(theta)
    return mp.quad(lambda rho: tent2(rho) * poisson(r, mp.pi * (theta - rho)),
                   [0, 0.5, 1, 1.5, 2]) / 2


def full_order_sums(r, theta, orders):
    """The Fourier series of TENT2 summed to each order in orders, with the
    point tail at r0 as its bound (it covers every k > order at r <= r0).
    TENT2 is the triangle wave: a_k = 8 (-1)^((k-1)/2) / (pi k)^2 for odd k,
    and every other coefficient is zero."""
    bound = laplace._point_tail(DiskProblem(TENT2, GRID_R0), GRID_R0)
    total, out = mp.mpf(0), {}
    z, zk, rk = mp.expjpi(to_mp(theta)), mp.mpc(1), mp.mpf(1)
    for k in range(1, max(orders) + 1):
        zk *= z
        rk *= to_mp(r)
        if k % 2:
            total += (-1) ** (k // 2) * 8 * rk * zk.imag / (mp.pi * k) ** 2
        if k in orders:
            out[k] = total, to_mp(bound(k)) + mp.mpf(2) ** -80  # mpmath's own rounding
    return out


def test_disk_point_truncation_over_a_grid():
    # error within 2^-n, against the Poisson integral and against the sum to
    # the plan's full order, which each point now stops short of
    prob = DiskProblem(TENT2, GRID_R0)
    plans = {n: plan_disk(prob, n) for n in GRID_BITS}
    orders = {plans[n].order for n in GRID_BITS}
    for r in GRID_RADII:
        for th in GRID_THETAS:
            with mp.workprec(64):
                want = poisson_integral(r, th)
            with mp.workprec(96):
                full = full_order_sums(r, th, orders)
            for n in GRID_BITS:
                cv = solve_disk(prob, r, th, n, plans[n])
                got, err = to_mp(cv.value_fraction()), to_mp(cv.err_fraction())
                assert err <= mp.mpf(2) ** -n, (r, th, n)
                assert abs(got - want) <= mp.mpf(2) ** -n + mp.mpf(2) ** -56, (r, th, n)
                s, s_err = full[plans[n].order]
                assert abs(got - s) <= err + s_err, (r, th, n)


def test_disk_point_order_sizes_the_tail_at_r(monkeypatch):
    # the least order whose tail at r itself is within 2^-(n+1); at r0 that
    # is the plan's order, which every r <= r0 stays within
    found = []
    orig = laplace.point_order

    def recorded(tail, n, cap, label):
        out = orig(tail, n, cap, label)
        found.append((out, tail))
        return out

    monkeypatch.setattr(laplace, "point_order", recorded)
    prob = DiskProblem(TENT2, GRID_R0)
    for n in (20, 64):
        plan = plan_disk(prob, n)
        budget = Fraction(1, 2 ** (n + 1))
        orders = []
        for r in GRID_RADII:
            found.clear()
            solve_disk(prob, r, Fraction(1, 3), n, plan)
            (K, tail), tail_fn = found[0]
            assert K <= plan.order and tail <= budget
            assert tail == laplace._point_tail(prob, r)(K) == tail_fn(K)
            if K:
                assert tail_fn(K - 1) > budget
            orders.append(K)
        # r = 0 needs no term past the mean, and r0 exactly the plan's order
        assert orders[0] == 0 and orders == sorted(set(orders))
        assert orders[-1] == plan.order and plan.chain == [("tail", tail, budget)]


def test_disk_area_rounds_to_the_zero_mode_closed_form():
    # The disk solver rounds the problem's exact area to scale W + 4; the
    # closed form at k = 0 multiplies the same rounding by cos 0 = 1 exactly,
    # and error terms of zero pass through, so every field agrees.
    rng = random.Random(61)
    probs = [DiskProblem(TENT2, Fraction(1, 2))]  # a dyadic area, rounded exactly
    for _ in range(12):
        xs = sorted({Fraction(rng.randrange(1, 60), 30) for _ in range(rng.randrange(1, 6))})
        ys = [Fraction(rng.randrange(-50, 51), rng.randrange(1, 12)) for _ in xs]
        y0 = Fraction(rng.randrange(-9, 10), 3)
        probs.append(DiskProblem(piecewise_linear_fn(
            [(Fraction(0), y0), *zip(xs, ys), (Fraction(2), y0)]), Fraction(1, 2)))
    for prob in probs:
        for W in (8, 21, 40, 77):
            got = CertifiedValue.from_fraction(prob.area, W + 4)
            want = int_pl_trig_pi(prob.pieces, 0, 0, W)[1]
            assert (got.m, got.s, got.en, got.es) == (want.m, want.s, want.en, want.es)


def test_plan_disk_chain():
    # series data records its tail at r0; declared modes plan their top
    # degree and claim nothing
    series = DiskProblem(TENT2, Fraction(9, 10))
    declared = DiskProblem(trig_poly_fn(TrigPoly(cos_coeffs={2: Fraction(3)})), Fraction(9, 10))
    for n in (10, 30):
        plan = plan_disk(series, n)
        assert plan.chain_ok()
        assert [c[0] for c in plan.chain] == ["tail"]
        plan = plan_disk(declared, n)
        assert plan.order == 2 and plan.chain == [] and plan.total_budget() <= Fraction(1, 2 ** n)


def test_disk_declared_modes_add_no_tail(monkeypatch):
    # every declared mode is summed: no point tail, at any r
    def no_search(*args):
        raise AssertionError("declared modes need no tail search")

    monkeypatch.setattr(laplace, "point_order", no_search)
    tp = TrigPoly(Fraction(1, 3), {7: Fraction(-1, 7)}, {1: Fraction(1, 5), 40: Fraction(1, 9)})
    prob = DiskProblem(trig_poly_fn(tp), Fraction(99, 100))
    plan = plan_disk(prob, 24)
    assert plan.order == 40 and plan.chain == []
    for r in (Fraction(0), Fraction(1, 2), Fraction(99, 100)):
        for plan_arg in (plan, None):
            cv = solve_disk(prob, r, Fraction(5, 16), 24, plan_arg)
            assert cv.err_fraction() <= Fraction(1, 2 ** 24)
            want = trig_value(tp, r, Fraction(5, 16))
            assert abs(to_mp(cv.value_fraction()) - want) <= to_mp(cv.err_fraction())


def sph_data(modes):
    return EvaluableFunction(domain=(Fraction(0), Fraction(2)), sup_bound=Fraction(1),
                             sph_modes=modes)


def test_ball_single_modes():
    pb = BallProblem(sph_data({(2, 1): Fraction(1)}))
    for n in (10, 24):
        r, th, ph = Fraction(1, 2), Fraction(1, 3), Fraction(7, 5)
        cv = solve_ball(pb, r, th, ph, n)
        want = real_sph_harmonic_3d(2, 1, th, ph, 40).value_fraction() * r ** 2
        assert cv.err_fraction() <= Fraction(1, 2 ** n)
        assert abs(cv.value_fraction() - want) <= cv.err_fraction() + Fraction(1, 2 ** 38)


def test_ball_center_keeps_constant_mode():
    gb = sph_data({(0, 0): Fraction(2), (3, -2): Fraction(1)})
    cv = solve_ball(BallProblem(gb), 0, Fraction(1, 4), Fraction(1, 4), 16)
    y00 = real_sph_harmonic_3d(0, 0, Fraction(1, 4), Fraction(1, 4), 40).value_fraction()
    assert abs(cv.value_fraction() - 2 * y00) <= cv.err_fraction() + Fraction(1, 2 ** 38)


def test_ball_generic_data_refuses():
    gb = EvaluableFunction(domain=(Fraction(0), Fraction(2)), sup_bound=Fraction(1))
    with pytest.raises(PreconditionError):
        solve_ball(BallProblem(gb), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), 10)


def test_ball_plan_is_the_top_declared_degree():
    modes = {(0, 0): Fraction(1), (1, 0): Fraction(1, 2), (2, 1): Fraction(-1, 4),
             (3, -2): Fraction(1, 8), (9, 4): Fraction(1, 2 ** 30), (12, 0): Fraction(0)}
    for n in (1, 8, 24, 48):
        plan = plan_ball_truncation(sph_data(modes), n)
        assert plan.order == 12 and plan.chain == [] and plan.total_budget() <= Fraction(1, 2 ** n)
    assert plan_ball_truncation(sph_data({}), 8).order == 0


def test_ball_sums_every_mode_for_r_up_to_1():
    # a mode far below 2^-n at r = 1/10 still counts at r = 9/10 and r = 1
    modes = {(0, 0): Fraction(1), (6, 3): Fraction(1, 2 ** 12)}
    pb = BallProblem(sph_data(modes))
    th, ph = Fraction(1, 3), Fraction(1, 2)
    ys = {lm: real_sph_harmonic_3d(*lm, th, ph, 60).value_fraction() for lm in modes}
    for r in (Fraction(0), Fraction(1, 10), Fraction(9, 10), Fraction(1)):
        cv = solve_ball(pb, r, th, ph, 20)
        want = sum(c * r ** l * ys[(l, m)] for (l, m), c in modes.items())
        assert cv.err_fraction() <= Fraction(1, 2 ** 20)
        assert abs(cv.value_fraction() - want) <= cv.err_fraction() + Fraction(1, 2 ** 56)
    for r in (Fraction(-1, 10), Fraction(11, 10)):
        with pytest.raises(PreconditionError):
            solve_ball(pb, r, th, ph, 20)


# ---------------------------------------------------------------------------
# piecewise-linear disk data: the slope-breakpoint series against 40-digit
# Poisson integrals

SEAM = "pl 0:0 1/2:1 2:0"  # slopes 2 and -2/3: the seam carries a jump of 8/3


@pytest.mark.parametrize("g, r0, r, theta, n", [
    (SEAM, Fraction(9, 10), Fraction(3, 4), Fraction(1, 3), 40),
    (SEAM, Fraction(9, 10), Fraction(3, 4), Fraction(1, 2), 40),    # theta on a breakpoint
    (SEAM, Fraction(9, 10), Fraction(3, 4), Fraction(0), 24),       # theta on the seam
    (SEAM, Fraction(9, 10), Fraction(0), Fraction(5, 7), 40),       # r = 0: the mean
    (SEAM, Fraction(99, 100), Fraction(99, 100), Fraction(7, 8), 20),  # r = r0
    ("pl 0:1e8 1:-1e8 2:1e8", Fraction(9, 10), Fraction(9, 10), Fraction(1, 3), 30),
    ("pl 0:1/3 1/8:-2 3/4:5/2 1:0 2:1/3", Fraction(1, 2), Fraction(1, 2), Fraction(13, 8), 48),
    # g(2) - g(0) = 10^-6 passes the seam check; the gap adds a 1/k series
    ("pl 0:0 1/2:1 2:1/1000000", Fraction(9, 10), Fraction(3, 4), Fraction(1, 3), 40),
])
def test_disk_pl_values_match_poisson_oracle(g, r0, r, theta, n):
    data = parse_boundary_fn(g)
    cv = solve_disk(DiskProblem(data, r0), r, theta, n)
    assert cv.err_fraction() <= Fraction(1, 2 ** n)
    nodes = sorted({x for x, _ in (p.split(":") for p in g.split()[1:])}, key=Fraction)
    with mp.workdps(40):
        def gval(rho):
            # exact linear interpolation between the nodes, in mpmath
            for lo, hi in zip(nodes, nodes[1:]):
                a, b = Fraction(lo), Fraction(hi)
                if rho <= to_mp(b):
                    ya, yb = data.eval_exact(a), data.eval_exact(b)
                    return to_mp(ya) + (rho - to_mp(a)) * to_mp(yb - ya) / to_mp(b - a)
            return to_mp(data.eval_exact(Fraction(2)))

        cuts = sorted({to_mp(Fraction(x)) for x in nodes} | {to_mp(theta % 2)})
        want = mp.quad(lambda rho: poisson(to_mp(r), mp.pi * (to_mp(theta) - rho))
                       * gval(rho), cuts) / 2
        got = to_mp(cv.value_fraction())
        assert abs(got - want) <= to_mp(cv.err_fraction()) + mp.mpf(10) ** -35


def test_fourier_coeffs_match_piecewise_integrals():
    # the breakpoint form against the kept one-piece integrals, summed piece
    # by piece, for k <= 64 and, through int_pl_trig_pi, a nonzero phase
    g = piecewise_linear_fn([(Fraction(0), Fraction(1, 3)), (Fraction(1, 8), Fraction(-2)),
                             (Fraction(3, 4), Fraction(5, 2)), (Fraction(1), Fraction(0)),
                             (Fraction(2), Fraction(1, 3))])
    pieces = linear_pieces(g)

    def piecewise(k, phase, p):
        s = c = None
        for c0, c1, a, b in pieces:
            ps, pc = int_linear_sin_pi(c0, c1, a, b, k, phase, p), \
                int_linear_cos_pi(c0, c1, a, b, k, phase, p)
            s, c = (ps, pc) if s is None else (s + ps, c + pc)
        return s, c

    def agree(x, y):
        assert abs(x.value_fraction() - y.value_fraction()) <= x.err_fraction() + y.err_fraction()
        assert x.err_fraction() <= Fraction(1, 2 ** 40)

    for k in range(65):
        for got, want in zip(pl_fourier(g, k, 40), piecewise(k, 0, 44)):
            agree(got, want)
    for k in range(-1, 65):
        for got, want in zip(int_pl_trig_pi(pieces, k, Fraction(1, 3), 40),
                             piecewise(k, Fraction(1, 3), 44)):
            agree(got, want)
