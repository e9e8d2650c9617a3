"""Self-check suite registry: everything passes on a pristine build, and a
check that raises, or whose target is slightly wrong, fails on its own."""

from fractions import Fraction

import pytest

import certheat.certified as certified
import certheat.cli as cli
import certheat.heat as heat
import certheat.series as series
import certheat.verify as verify
from certheat.errors import ConfigError
from certheat.verify import SUITES, run_suite, suite_names


def test_suite_names_cover_modules():
    assert suite_names() == ["kernels", "series", "laplace", "heat",
                             "hardness", "all"]


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite("sphere", 0)


def test_all_suites_pass():
    results = run_suite("all", seed=3)
    assert len(results) == sum(len(checks) for checks in SUITES.values())
    bad = [(r.suite, r.name, r.detail) for r in results if not r.ok]
    assert bad == []


def test_results_carry_suite_and_name():
    results = run_suite("series", seed=1)
    assert [r.suite for r in results] == ["series"] * len(results)
    assert len({r.name for r in results}) == len(results)


def test_a_check_that_raises_fails_alone(monkeypatch, capsys):
    # any exception is that check's FAIL; the other checks still run
    def broken(rng):
        raise ZeroDivisionError("division by zero")

    checks = list(SUITES["heat"])
    checks[1] = (checks[1][0], broken)
    monkeypatch.setitem(SUITES, "heat", checks)
    results = run_suite("all", seed=0)
    assert len(results) == sum(len(c) for c in SUITES.values())
    bad = [(r.suite, r.name, r.detail) for r in results if not r.ok]
    assert bad == [("heat", checks[1][0], "ZeroDivisionError: division by zero")]
    assert cli.main(["verify", "all"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL heat/{checks[1][0]}: ZeroDivisionError: division by zero" in out
    assert out.strip().endswith(f"{len(results) - 1}/{len(results)} checks passed")


def _ierfc_one_coefficient_off(w, m):
    a, b = heat._ierfc_parts(w, m)
    b[5] += 1  # B_5 = b_5 2^5 5!, so b_5 moves by 1/3840
    return a, b


def _ladder_last_rung_moved(a, K, W):
    out = certified.gauss_ladder(a, K, W)
    v, e = out[-1]
    out[-1] = (v + 4 * e + 16, e)  # far past the rung's bound and the exp's
    return out


def _rotation_sine_negated(terms, weights, W):
    re, im = certified.rotation_sum(terms, weights, W)
    return re, -im


def _point_order_one_past(tail, n, cap, label):
    K, _ = series.point_order(tail, n, cap, label)
    return K + 1, tail(K + 1)


def _interval_plan_with_a_false_claim(p, n):
    plan = heat.plan_interval(p, n)
    plan.chain.append(("tail", Fraction(1), Fraction(0)))
    return plan


@pytest.mark.parametrize("suite, check, target, wrong", [
    ("kernels", "ierfc-at-zero", "_ierfc_parts", _ierfc_one_coefficient_off),
    ("kernels", "gauss-ladder-vs-exp", "gauss_ladder", _ladder_last_rung_moved),
    ("series", "rotation-sum-vs-terms", "rotation_sum", _rotation_sine_negated),
    ("series", "point-order-is-least", "point_order", _point_order_one_past),
    ("series", "plan-claim-audit", "plan_interval", _interval_plan_with_a_false_claim),
])
def test_a_check_fails_on_a_slightly_wrong_target(monkeypatch, suite, check, target, wrong):
    # each check reads the installed code: a wrong version of its target, as
    # the verify module binds it, fails that check and no other in its suite
    monkeypatch.setattr(verify, target, wrong)
    for seed in range(4):
        failed = [r.name for r in run_suite(suite, seed) if not r.ok]
        assert failed == [check], seed
