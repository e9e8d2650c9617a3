"""Solving one problem object many times: reuse must not show in the results.

A disk or interval problem and its plan serve any number of solves, at any
precisions and in any order, and so does a half-line plan.  Neither may
change a returned bit or the plan's inequality chain.
"""

import random
from fractions import Fraction as F

import pytest

from certheat.evaluable import constant_fn, piecewise_linear_fn
from certheat.heat import (HalflineBoundaryProblem, HalflineForceProblem,
                           IntervalHeatProblem, plan_halfline_boundary,
                           plan_halfline_force, plan_halfline_initial,
                           plan_interval, poly_time_profile, sin_half_profile,
                           solve_halfline_boundary, solve_halfline_force,
                           solve_halfline_initial, solve_interval)
from certheat.laplace import DiskProblem, plan_disk, solve_disk

DISK_G = piecewise_linear_fn([(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)),
                              (F(3, 2), F(-1)), (F(2), F(0))])
DISK_R0 = F(1, 2)
IVL_G = piecewise_linear_fn([(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))])
IVL_T0 = F(1, 4)
BITS = [12, 20, 12, 12, 20, 16, 12]  # returns to earlier precisions


def fields(cv):
    return cv.m, cv.s, cv.en, cv.es


def new_interval():
    return IntervalHeatProblem(F(1), F(1), IVL_G, IVL_T0)


def test_disk_reuse_matches_fresh_solves():
    rng = random.Random(31)
    reused = DiskProblem(DISK_G, DISK_R0)
    for bits in BITS:
        r = F(rng.randrange(1, 50), 100)
        th = F(rng.randrange(0, 200), 100)
        got = solve_disk(reused, r, th, bits, plan_disk(reused, bits))
        fresh = DiskProblem(DISK_G, DISK_R0)
        want = solve_disk(fresh, r, th, bits, plan_disk(fresh, bits))
        assert fields(got) == fields(want)


def test_interval_reuse_matches_fresh_solves():
    rng = random.Random(32)
    reused = new_interval()
    for bits in BITS:
        t = IVL_T0 + F(rng.randrange(0, 100), 100)
        x = F(rng.randrange(0, 101), 100)
        got = solve_interval(reused, t, x, bits, plan_interval(reused, bits))
        fresh = new_interval()
        want = solve_interval(fresh, t, x, bits, plan_interval(fresh, bits))
        assert fields(got) == fields(want)


def _boundary():
    p = HalflineBoundaryProblem(F(1), sin_half_profile(F(1)), (F(1, 2), F(3, 2)))
    return plan_halfline_boundary(p, 12), lambda plan: solve_halfline_boundary(
        p, F(1, 2), F(1), 12, plan)


def _force():
    p = HalflineForceProblem(F(1), poly_time_profile([F(1)]),
                             constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    return plan_halfline_force(p, 8), lambda plan: solve_halfline_force(
        p, F(1, 2), F(1), 8, plan)


def _initial():
    g = piecewise_linear_fn([(F(2, 5), F(0)), (F(1, 2), F(1)), (F(3, 5), F(0))])
    return plan_halfline_initial(g, F(1), F(1, 2), F(6, 5), 10), \
        lambda plan: solve_halfline_initial(g, F(1), F(1, 2), F(6, 5), 10, plan)


@pytest.mark.parametrize("make", [_boundary, _force, _initial])
def test_halfline_solves_leave_the_plan_chain_alone(make):
    plan, solve = make()
    chain = list(plan.chain)
    first = fields(solve(plan))
    for _ in range(2):
        assert fields(solve(plan)) == first
    assert plan.chain == chain
    assert plan.chain_ok()
