"""Solving one problem object many times: reuse must not show in the results.

A disk or interval problem and its plan serve any number of solves, at any
precisions and in any order, and so does a half-line boundary or force plan.  Neither may
change a returned bit or the plan's inequality chain.  A problem reads its
data's linear pieces and jump list once, the interval solver keeps each
time slice's decay bound, mode count and Gaussian ladder in bounded
process-wide caches, and sin/cos keep each reduced angle's value at each
precision in one more; a warm cache must give what a cold one gives.
"""

import random
from fractions import Fraction as F

import pytest

import certheat.certified as certified
import certheat.heat as heat
from certheat.evaluable import (constant_fn, linear_pieces, piecewise_linear_fn, pl_jumps,
                                polynomial_fn, sine_modes_fn)
from certheat.heat import (HalflineBoundaryProblem, HalflineForceProblem,
                           IntervalHeatProblem, plan_halfline_boundary,
                           plan_halfline_force, plan_interval, solve_halfline_boundary,
                           solve_halfline_force, solve_interval)
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


CACHES = (heat._decay_bound, heat._mode_count, heat._ladder, certified._trig_pi)


def clear_caches():
    for cached in CACHES:
        cached.cache_clear()


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
    p = HalflineBoundaryProblem(F(1), sine_modes_fn({1: F(1)}, F(2)), (F(1, 2), F(3, 2)))
    return plan_halfline_boundary(p, 12), lambda plan: solve_halfline_boundary(
        p, F(1, 2), F(1), 12, plan)


def _force():
    p = HalflineForceProblem(F(1), polynomial_fn([F(1)], (F(0), F(2))),
                             constant_fn(F(1), (F(0), F(1, 2))), (F(1), F(3, 2)))
    return plan_halfline_force(p, 8), lambda plan: solve_halfline_force(
        p, F(1, 2), F(1), 8, plan)


@pytest.mark.parametrize("make", [_boundary, _force])
def test_halfline_solves_leave_the_plan_chain_alone(make):
    plan, solve = make()
    chain = list(plan.chain)
    first = fields(solve(plan))
    for _ in range(2):
        assert fields(solve(plan)) == first
    assert plan.chain == chain
    assert plan.chain_ok()


ODD_16THS = [F(2 * j + 1, 16) for j in range(16)]
GRID_TIMES = [F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4), F(1)]


def test_grid_points_solved_twice_match_fresh_problems():
    # 4 disk points at bits 20 and 6 interval points each at bits 32 and 64,
    # as a grid draws them; every fresh solve starts from empty caches
    rng = random.Random(33)
    disk_pts = [(rng.choice(band), rng.choice(ODD_16THS))
                for band in ((F(1, 4), F(5, 16)), (F(1, 2), F(9, 16)),
                             (F(3, 4), F(13, 16)), (F(7, 8), F(9, 10)))]
    ivl_pts = [(bits, rng.choice(GRID_TIMES), rng.choice(ODD_16THS[:8]))
               for bits in (32, 64) for _ in range(6)]
    disk = DiskProblem(DISK_G, F(9, 10))
    disk_plan = plan_disk(disk, 20)
    ivl = new_interval()
    ivl_plans = {bits: plan_interval(ivl, bits) for bits in (32, 64)}
    want = []
    for r, th in disk_pts:
        clear_caches()
        fresh = DiskProblem(DISK_G, F(9, 10))
        want.append(fields(solve_disk(fresh, r, th, 20, plan_disk(fresh, 20))))
    for bits, t, x in ivl_pts:
        clear_caches()
        fresh = new_interval()
        want.append(fields(solve_interval(fresh, t, x, bits, plan_interval(fresh, bits))))
    calls = [lambda r=r, th=th: solve_disk(disk, r, th, 20, disk_plan) for r, th in disk_pts]
    calls += [lambda bits=bits, t=t, x=x: solve_interval(ivl, t, x, bits, ivl_plans[bits])
              for bits, t, x in ivl_pts]
    clear_caches()
    order = list(range(len(calls)))
    for _ in range(3):  # cold caches in order, then warm in two shuffled orders
        got = [None] * len(calls)
        for i in order:
            got[i] = fields(calls[i]())
        assert got == want
        rng.shuffle(order)
    assert certified._trig_pi.cache_info().maxsize == 256


def test_pieces_are_derived_and_stay_out_of_eq_and_repr():
    for make, g, derived in ((lambda: DiskProblem(DISK_G, DISK_R0), DISK_G,
                              ("pieces", "jumps", "size", "area")),
                             (new_interval, IVL_G, ("pieces", "jumps"))):
        p, q = make(), make()
        assert p.pieces == linear_pieces(g)
        for name in derived:
            assert getattr(p, name) is not None
            assert name not in repr(p)
            setattr(q, name, None)
        assert p == q and repr(p) == repr(q)
    assert new_interval().jumps == pl_jumps(linear_pieces(IVL_G))
    # the ends merge into the seam, where nothing jumps here, and only the
    # points where something jumps are kept
    disk = DiskProblem(DISK_G, DISK_R0)
    assert disk.jumps == [(F(1, 2), 0, -4), (F(3, 2), 0, 4)]
    assert (disk.size, disk.area) == (8, 0)


def tent(L, peak):
    return piecewise_linear_fn([(F(0), F(0)), (L / 2, peak), (L, F(0))])


def test_time_slice_caches_match_cold_solves():
    # A and B share the rate alpha t / L^2 and the plan's order but not
    # ||g||; C shares A's rate through another L and alpha; D has its own
    # rate at the same t.  One plan per problem, built at the largest n,
    # serves every n, so cached entries of one n meet solves at another.
    problems = {
        "A": IntervalHeatProblem(F(1), F(1), tent(F(1), F(1)), IVL_T0),
        "B": IntervalHeatProblem(F(1), F(1), tent(F(1), F(2)), IVL_T0),
        "C": IntervalHeatProblem(F(2), F(4), tent(F(2), F(1)), IVL_T0),
        "D": IntervalHeatProblem(F(1), F(2), tent(F(1), F(1)), IVL_T0),
    }
    plans = {k: plan_interval(p, 48) for k, p in problems.items()}
    assert plans["A"].order == plans["B"].order
    rng = random.Random(34)
    draws = [(rng.choice(GRID_TIMES), rng.choice(ODD_16THS[:8]), rng.choice((16, 32, 48)))
             for _ in range(10)]

    def solve(k, t, x, n):
        p = problems[k]
        return fields(solve_interval(p, t, x * p.L, n, plans[k]))

    cold = {}
    for t, x, n in draws:
        for k in problems:
            clear_caches()
            cold[k, t, x, n] = solve(k, t, x, n)
    clear_caches()
    for t, x, n in draws:
        for k in problems:
            assert solve(k, t, x, n) == cold[k, t, x, n], (k, t, x, n)
    for cached in CACHES:
        assert cached.cache_info().maxsize is not None
