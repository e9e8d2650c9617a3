"""Series tail identities behind every truncation plan.

Everything here is exact rational arithmetic. The tails of the solver series
are bounded in closed form (geometric and Gaussian sums), and the plans pick
truncation orders by exact comparison against dyadic error budgets, so no
floating point is allowed anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .certified import pow_fraction_upper
from .dyadic import as_fraction


def gaussian_tail(scale, rho, start: int) -> Fraction:
    """Upper bound on scale * sum of rho^(k^2) for k >= start >= 1, 0 < rho < 1.

    (start + j)^2 >= start^2 + 2 start j, so the sum is at most
    rho^(start^2) / (1 - rho^(2 start)); both powers are rounded up.
    """
    return scale * pow_fraction_upper(rho, start * start) \
        / (1 - pow_fraction_upper(rho, 2 * start))


def geometric_cap(C, r, n: int) -> int:
    """An order K with C r^K <= 2^-(n+1), for C > 0 and 0 <= r < 1, in
    closed form: r^K <= e^{-K (1 - r)} < 2^{-K (1 - r)} and
    C < 2^(bitlen(num C) - bitlen(den C) + 1).

    A series whose terms past index K sum to at most C r^K is within
    2^-(n+1) by this order, so a search for its least order can stop here.
    """
    C, r = as_fraction(C), as_fraction(r)
    bits = n + 2 + C.numerator.bit_length() - C.denominator.bit_length()
    return max(0, -(-bits * r.denominator // (r.denominator - r.numerator)))


def point_order(tail: Callable[[int], Fraction], n: int, cap: int,
                label: str) -> tuple[int, Fraction]:
    """Least K <= cap with tail(K) <= 2^-(n+1), and that tail bound.

    tail(K) bounds the series terms a solve drops past index K at its own
    point; tail must be nonincreasing.  The search doubles K from 1 until it
    passes, then bisects down to the least passing K.  The bound is checked
    with :func:`require`, so a point that cap does not cover raises.
    """
    budget = Fraction(1, 1 << (n + 1))

    def ok(m: int) -> bool:
        return m >= cap or tail(m) <= budget

    lo, hi = 0, 1
    while not ok(hi):  # stops by 2 cap, as every m >= cap passes
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    bound = tail(hi)
    require(label, bound, budget)
    return hi, bound


def require(label: str, lhs, rhs) -> None:
    """Raise AssertionError unless lhs <= rhs, compared exactly."""
    lhs, rhs = as_fraction(lhs), as_fraction(rhs)
    if lhs > rhs:
        raise AssertionError(f"plan inequality {label} fails: {lhs} > {rhs}")


class TruncationPlan:
    """How many series terms a solver will sum, and why that is enough.

    ``chain`` records the exact rational inequalities the plan rests on as
    (label, lhs, rhs) triples meaning lhs <= rhs.  Planning appends each
    tail or Taylor-remainder claim (:meth:`claim`), so a finished plan can
    be re-audited independently of the float-free arithmetic that built it.
    The budget comparison is not in the chain: :meth:`require_budget` checks
    that the ``budget_split`` parts sum to at most 2^-n and records nothing,
    so an audit re-checks it through :meth:`total_budget`.  A solve checks
    its own bounds with :func:`require` and appends nothing, so a plan does
    not grow with reuse.
    """

    def __init__(self, order: int, budget_split: list[tuple[str, int]]):
        self.order = order
        self.budget_split = budget_split
        self.chain: list[tuple[str, Fraction, Fraction]] = []

    def total_budget(self) -> Fraction:
        return sum((Fraction(1, 1 << e) for _, e in self.budget_split), Fraction(0))

    def require_budget(self, n_target: int) -> None:
        """Raise AssertionError unless the budget parts sum to at most
        2^-n_target, compared exactly; an explicit raise, so it holds under
        ``python -O`` too."""
        require("budget", self.total_budget(), Fraction(1, 1 << n_target))

    def claim(self, label: str, lhs, rhs) -> None:
        """Record the inequality lhs <= rhs; raises if it does not hold."""
        lhs, rhs = as_fraction(lhs), as_fraction(rhs)
        require(label, lhs, rhs)
        self.chain.append((label, lhs, rhs))

    def chain_ok(self) -> bool:
        """Re-verify every recorded inequality with exact comparisons."""
        return all(lhs <= rhs for _, lhs, rhs in self.chain)


def declared_modes_plan(order: int, n: int) -> TruncationPlan:
    """Plan for data given as finitely many declared modes, the highest of
    degree ``order``: every mode is summed, so the series has no tail,
    nothing is searched and the whole budget is the summation's."""
    plan = TruncationPlan(order, [("summation", n + 1)])
    plan.require_budget(n)
    return plan
