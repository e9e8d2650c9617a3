import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from certheat.errors import PreconditionError
from certheat.series import TruncationPlan, gaussian_tail, geometric_cap, point_order
from closed_forms import arith_geom_sum, geometric_tail, higher_arith_geom


def brute_arith_geom(m: int, x: Fraction, tol: Fraction) -> Fraction:
    """Partial summation oracle; stops when the geometric tail is below tol."""
    total = Fraction(0)
    k = m
    while True:
        total += (k + 1) * x ** k
        # tail bound: (k+2) |x|^(k+1) / (1-|x|)^2
        if (k + 2) * abs(x) ** (k + 1) / (1 - abs(x)) ** 2 < tol:
            return total
        k += 1


def brute_higher(m: int, p: int, x: Fraction, tol: Fraction) -> Fraction:
    total = Fraction(0)
    k = m
    while True:
        rising = 1
        for i in range(1, p + 1):
            rising *= k + i
        total += rising * x ** k
        if (k + p + 1) ** p * abs(x) ** (k + 1) / (1 - abs(x)) ** 2 < tol:
            return total
        k += 1


TOL = Fraction(1, 10**15)


def test_arith_geom_frozen_examples():
    assert arith_geom_sum(0, Fraction(1, 2)) == 4
    assert arith_geom_sum(1, Fraction(1, 2)) == 3
    assert arith_geom_sum(0, 0) == 1


def test_arith_geom_matches_partial_sums():
    rng = random.Random(314)
    for _ in range(25):
        m = rng.randrange(0, 8)
        x = Fraction(rng.randrange(-7, 8), rng.randrange(8, 16))
        got = arith_geom_sum(m, x)
        assert abs(got - brute_arith_geom(m, x, TOL)) < 2 * TOL


def test_higher_arith_geom_frozen_examples():
    assert higher_arith_geom(0, 0, Fraction(1, 2)) == 2
    assert higher_arith_geom(0, 1, Fraction(1, 2)) == 4
    third = Fraction(1, 3)
    assert abs(higher_arith_geom(3, 2, third) - brute_higher(3, 2, third, TOL)) < 2 * TOL


def test_higher_matches_partial_sums():
    rng = random.Random(2718)
    for _ in range(20):
        m = rng.randrange(0, 6)
        p = rng.randrange(0, 5)
        x = Fraction(rng.randrange(-6, 7), rng.randrange(8, 14))
        got = higher_arith_geom(m, p, x)
        assert abs(got - brute_higher(m, p, x, TOL)) < 2 * TOL


def test_p1_identity_with_arith_geom():
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randrange(0, 10)
        x = Fraction(rng.randrange(-9, 10), rng.randrange(10, 20))
        assert higher_arith_geom(m, 1, x) == arith_geom_sum(m, x)


def test_geometric_tail():
    assert geometric_tail(Fraction(1, 2), 10, 1) == Fraction(1, 512)
    assert geometric_tail(Fraction(1, 2), 0, 3) == 6
    assert geometric_tail(Fraction(9, 10), 100, 1) == Fraction(9, 10) ** 100 * 10
    # the tail from s is the terms up to mid plus the tail from mid, exactly
    rng = random.Random(17)
    for _ in range(8):
        r = Fraction(rng.randrange(1, 99), 100)
        c = Fraction(rng.randrange(1, 50), 7)
        s, mid = rng.randrange(0, 9), rng.randrange(9, 30)
        head = sum((c * r ** k for k in range(s, mid)), Fraction(0))
        assert geometric_tail(r, s, c) == head + geometric_tail(r, mid, c), (r, c, s, mid)
    with pytest.raises(PreconditionError):
        geometric_tail(1, 0, 1)
    with pytest.raises(PreconditionError):
        geometric_tail(0, 0, 1)


def test_geometric_cap_bounds_the_tail():
    # the cap ends a search for the least order: C r^K is within 2^-(n+1)
    for C, r in [(Fraction(1), Fraction(1, 2)), (Fraction(8), Fraction(1, 2)),
                 (Fraction(1, 3), Fraction(7, 9)), (Fraction(100), Fraction(9, 10)),
                 (Fraction(4), Fraction(0)), (Fraction(1, 2 ** 40), Fraction(1, 3))]:
        for n in (0, 12, 64):
            assert C * r ** geometric_cap(C, r, n) <= Fraction(1, 2 ** (n + 1))


def test_rejects_bad_domains():
    with pytest.raises(PreconditionError):
        arith_geom_sum(0, 1)
    with pytest.raises(PreconditionError):
        arith_geom_sum(0, Fraction(-5, 4))
    with pytest.raises(PreconditionError):
        higher_arith_geom(0, 1, 1)


def test_truncation_plan_budget():
    plan = TruncationPlan(order=12, budget_split=[("tail", 18), ("rounding", 18)])
    assert plan.total_budget() == Fraction(1, 2 ** 17)
    assert plan.total_budget() <= Fraction(1, 2 ** 17)
    assert not plan.total_budget() <= Fraction(1, 2 ** 18)


# Every planner with its budget forced over 2^-n: under ``python -O`` an
# ``assert`` would vanish and the plan would pass.
OVER_BUDGET = """
from fractions import Fraction as F
import certheat.series as series
from certheat import heat, laplace
from certheat.cli import parse_boundary_fn, parse_interval_fn, parse_sph_fn
from certheat.evaluable import piecewise_linear_fn, polynomial_fn

if __debug__:
    raise SystemExit("not running under -O")
series.TruncationPlan.total_budget = lambda self: F(1)
tent = piecewise_linear_fn([(0, 0), (F(1, 2), 1), (1, 0)])
sph = parse_sph_fn("sph 0:0:1 1:0:1/2 3:-2:1/8")
planners = {
    "disk": lambda: laplace.plan_disk(laplace.DiskProblem(
        piecewise_linear_fn([(0, 0), (1, 1), (2, 0)]), F(1, 2)), 8),
    "ball": lambda: laplace.plan_ball_truncation(sph, 8),
    "disk-trig": lambda: laplace.plan_disk(laplace.DiskProblem(
        parse_boundary_fn("trig const=1, cos2=1/2"), F(1, 2)), 8),
    "interval-sine": lambda: heat.plan_interval(heat.IntervalHeatProblem(
        1, 1, parse_interval_fn("sine 1:1 3:1/2", 1), F(1, 4)), 8),
    "interval": lambda: heat.plan_interval(heat.IntervalHeatProblem(1, 1, tent, F(1, 4)), 8),
    "taylor": lambda: heat.plan_halfline_boundary(heat.HalflineBoundaryProblem(
        1, polynomial_fn([0, 1], (0, 2)), (F(1, 2), 1)), 8),
    "initial": lambda: heat.plan_halfline_initial(tent, 1, F(1, 2), F(1, 2), 8),
}
for name, plan in planners.items():
    try:
        plan()
    except AssertionError as exc:
        if "budget" not in str(exc):
            raise SystemExit(f"{name}: {exc}")
    else:
        raise SystemExit(f"{name}: an over-budget plan passed")
"""


def test_over_budget_plans_raise_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", OVER_BUDGET], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_point_order_finds_the_least_passing_order():
    budget = Fraction(1, 2 ** 9)
    for threshold in range(0, 200):
        calls = []

        def tail(m):
            calls.append(m)
            return budget if m >= threshold else 2 * budget

        assert point_order(tail, 8, 1 << 20, "unused") == (threshold, budget)
        # doubling from 1, then bisecting: logarithmically many probes
        assert len(calls) <= 2 * threshold.bit_length() + 3


def test_gaussian_tail_bounds_the_sum():
    with mp.workprec(200):
        for rho in (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)):
            for start in (1, 2, 5, 12):
                r = mp.mpf(rho.numerator) / rho.denominator
                exact = mp.nsum(lambda k: r ** (k * k), [start, mp.inf])
                bound = gaussian_tail(1, rho, start)
                assert exact <= mp.mpf(bound.numerator) / bound.denominator
                # and it is not loose by more than the geometric factor
                assert mp.mpf(bound.numerator) / bound.denominator \
                    <= exact / (1 - r ** (2 * start)) * (1 + mp.mpf(2) ** -100)
        assert gaussian_tail(3, Fraction(1, 2), 2) == 3 * Fraction(1, 16) / (1 - Fraction(1, 16))


def test_point_order_is_least_under_the_cap():
    def tail(m):
        return Fraction(1, 2 ** m)

    for n in range(0, 12):
        K, bound = point_order(tail, n, 40, "t")
        assert bound == tail(K) <= Fraction(1, 2 ** (n + 1))
        assert K == 0 or tail(K - 1) > Fraction(1, 2 ** (n + 1))
    assert point_order(tail, 0, 1, "t") == (1, Fraction(1, 2))
    assert point_order(lambda m: Fraction(0), 5, 10, "t") == (0, 0)


def test_point_order_raises_past_its_cap():
    with pytest.raises(AssertionError, match="point tail"):
        point_order(lambda m: Fraction(1, m + 1), 10, 50, "point tail")


def test_least_passing_raises_at_cap():
    # the least passing order is searched only up to the cap
    def tail(m):
        return Fraction(1, 2 ** 11) if m > 1000 else Fraction(1)

    with pytest.raises(AssertionError, match="tail bound failed to close"):
        point_order(tail, 10, 512, "tail bound failed to close")
    # reaching the cap exactly is still allowed
    assert point_order(lambda m: Fraction(1, 2 ** 11) if m >= 512 else Fraction(1),
                       10, 512, "unused") == (512, Fraction(1, 2 ** 11))
