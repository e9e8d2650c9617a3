"""Counting problems embedded into integrands, and the blowup benchmark.

A subset-sum instance with n_vars items becomes a piecewise-linear function
on [0,1]: the unit interval splits into 2^{n_vars} dyadic cells, one per
assignment, and a cell receives a triangular bump of exact area 4^{-n_vars}
precisely when its assignment hits the target sum.  Evaluating the function
at a point off a cell edge costs one verifier call (two table reads and a
comparison), and on a cell edge none, so the integrand is pointwise cheap;
integrating it to enough bits to read off the count forces any solver to
look into every cell, and the integrand's run sum verifies each cell it
meets exactly once.  The benchmark runs that integration through three
solver reductions and records how the wall time grows with instance size.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .certified import CertifiedValue, pi_cv, sqrt_cv
from .errors import (CertHeatError, ConfigError, InsufficientPrecision,
                     PreconditionError)
from .evaluable import EvaluableFunction
from .heat import IntervalReduction, solve_neumann_constant_force
from .laplace import DiskReduction
from .record import Record

MAX_VARS = 24  # counting_integrand refuses larger instances


class CountingInstance(Record):
    """Subset-sum counting: how many S with sum(weights[i], i in S) == target.

    The verifier reads two tables built once from the weights: ``_low[l]``
    is the subset sum of items 0..7 picked by the low byte l of an
    assignment (at most 256 entries), and ``_rest[h]`` is the target minus
    the subset sum of items 8 and up picked by the high bits h (at most
    2^16 entries at ``MAX_VARS`` = 24, one at 8 items or fewer).  An
    instance of more than ``MAX_VARS`` items, which ``counting_integrand``
    refuses, builds neither table and cannot be verified.  Immutable and
    hashable, so the tables cannot drift from ``weights`` and ``target``.
    """

    _fields = ("weights", "target")

    def __init__(self, weights: tuple[int, ...], target: int):
        weights = tuple(int(w) for w in weights)
        if not weights or any(w <= 0 for w in weights):
            raise PreconditionError("weights must be positive integers")
        if target <= 0:
            raise PreconditionError("target must be a positive integer")
        low, rest = [], []
        if len(weights) <= MAX_VARS:  # _rest has 2^(n_vars-8) entries: none past the cap
            low, rest = [0], [target]
            for w in weights[:8]:  # doubling: entry i + 2^j has item j, entry i not
                low += [s + w for s in low]
            for w in weights[8:]:
                rest += [s - w for s in rest]
        for name, value in (("weights", weights), ("target", target),
                            ("_low", tuple(low)), ("_rest", tuple(rest))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"CountingInstance is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CountingInstance is immutable: cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    @property
    def n_vars(self) -> int:
        return len(self.weights)

    def accepts(self, assignment: int) -> bool:
        """Verifier: does the bitmask assignment hit the target sum?

        Two table reads and one comparison for any n_vars <= ``MAX_VARS``:
        the low byte's subset sum against what the high bits leave of the
        target.  The contract is 0 <= assignment < 2^n_vars; a larger
        assignment raises IndexError (as every assignment does past
        ``MAX_VARS``), and a negative one is no assignment: it may read a
        verdict that means nothing instead of raising.
        """
        return self._low[assignment & 255] == self._rest[assignment >> 8]


def brute_force_count(inst: CountingInstance) -> int:
    """Independent oracle: full enumeration of all 2^{n_vars} assignments,
    each summed weight by weight, sharing no table with ``accepts``."""
    weights, target = inst.weights, inst.target
    return sum(1 for a in range(1 << inst.n_vars)
               if sum(w for i, w in enumerate(weights) if a >> i & 1) == target)


def counting_integrand(inst: CountingInstance) -> EvaluableFunction:
    """Piecewise-linear integrand with integral = count * 4^{-n_vars} exactly.

    Cell index = leading n_vars bits of the evaluation point, bit i of the
    index = assignment of item i.  Accepted cells carry a tent of height
    2^{1-n_vars} and half-width 2^{-n_vars-1} (slope 4), vanishing at cell
    edges.  The linear pieces are the 2^{n_vars+1} half-cells; half-cell j
    lies in cell j >> 1, and its midpoint value is the tent's 2^{-n_vars} or
    zero.  ``segment_sum(first, last)`` counts the accepted half-cells of a
    run and returns that count times 2^{-n_vars}: both halves of a cell carry
    the same value, so a cell whose two halves lie in the run costs one
    verifier call and counts twice, and a lone half-cell at either end of
    the run costs one call for its cell.  One verifier call per evaluation
    off a cell edge (every tent is 0 on an edge, which costs none) or per
    cell a run meets; the returned function exposes the call counter as
    ``verifier_calls()``.
    """
    nv = inst.n_vars
    if nv > MAX_VARS:
        raise PreconditionError(f"instance has {nv} items, cap is {MAX_VARS}")
    cells = 1 << nv
    height = Fraction(2, cells)
    zero = Fraction(0)
    calls = [0]

    def value(x: Fraction) -> Fraction:
        idx, off = divmod(x.numerator * cells, x.denominator)
        if not off:  # a cell edge, where every tent is 0
            return zero
        calls[0] += 1
        if not inst.accepts(idx):
            return zero
        return height - 4 * abs(x - Fraction(2 * idx + 1, 2 * cells))

    def segment_sum(first: int, last: int) -> Fraction:
        # the tent is 2^{-n_vars} halfway between edge and center; accepts is
        # looked up per run so that a wrapper on the class sees every call
        if first >= last:
            return zero
        accepts = inst.accepts
        lo, hi = (first + 1) >> 1, last >> 1  # cells with both halves in the run
        hits = 2 * sum(map(accepts, range(lo, hi)))
        ends = [j >> 1 for j in (first, last) if j & 1]  # lone half-cells' cells
        hits += sum(map(accepts, ends))
        calls[0] += hi - lo + len(ends)
        return Fraction(hits, cells)

    fn = EvaluableFunction(
        domain=(Fraction(0), Fraction(1)),
        sup_bound=height,
        eval_exact=value,
        linear_segments=2 * cells,
        segment_sum=segment_sum,
    )
    fn.verifier_calls = lambda: calls[0]
    return fn


def recover_count(v: CertifiedValue, inst: CountingInstance) -> int:
    """Nearest integer to value * 4^{n_vars}; demands error below half a bump."""
    nv = inst.n_vars
    if v.err_fraction() >= Fraction(1, 2 * 4 ** nv):
        raise InsufficientPrecision(
            f"error {v.err_fraction()} too large to separate counts at {nv} items")
    scaled = v.value_fraction() * 4 ** nv + Fraction(1, 2)
    return scaled.numerator // scaled.denominator


def precision_for(inst: CountingInstance) -> int:
    """Bits requested from the pipelines: recovery threshold plus margin."""
    return 2 * inst.n_vars + 6


# ---------------------------------------------------------------------------
# solver pipelines
#
# Each pipeline routes the counting integrand through one PDE reduction, built
# directly from it (the disk's is the boundary data itself), and returns a
# certified value equal to count * 4^{-n_vars} within budget.


def pipeline_neumann(inst: CountingInstance, n: int) -> CertifiedValue:
    """Space-independent force: the solution at t=1 is the plain integral."""
    return solve_neumann_constant_force(counting_integrand(inst), Fraction(1), n)


_DISK_R0 = Fraction(1, 2)
_DISK_THETA0 = Fraction(1, 2)


def pipeline_disk(inst: CountingInstance, n: int) -> CertifiedValue:
    """Reweighted disk boundary data; twice the marked point value."""
    g = DiskReduction(_DISK_R0, _DISK_THETA0, counting_integrand(inst))
    return g.certified_point_value(n).mul_exact(2)


_IVL_T0 = Fraction(1, 4)
_IVL_X0 = Fraction(1)  # the middle of the data's support [1/2, 3/2]


def pipeline_interval(inst: CountingInstance, n: int) -> CertifiedValue:
    """Reweighted half-line initial data (Dirichlet at 0) on [1/2, 3/2]; point
    value times sqrt(4 pi alpha t0)."""
    red = IntervalReduction(_IVL_T0, _IVL_X0, counting_integrand(inst))
    u = red.certified_point_value(n + 4)
    back = sqrt_cv(pi_cv(n + 12).mul_fraction(4 * _IVL_T0, n + 10), n + 6)
    return (u * back).rounded(n + 2)


PIPELINES: dict[str, Callable[[CountingInstance, int], CertifiedValue]] = {
    "neumann": pipeline_neumann,
    "disk": pipeline_disk,
    "interval": pipeline_interval,
}


# ---------------------------------------------------------------------------
# benchmark harness


class BlowupRecord:
    def __init__(self, pipeline: str, n_vars: int, precision_bits: int, wall_ms: float,
                 value: Optional[Fraction], count: Optional[int], ok: bool,
                 error: str = ""):
        self.pipeline = pipeline
        self.n_vars = n_vars
        self.precision_bits = precision_bits
        self.wall_ms = wall_ms
        self.value = value
        self.count = count
        self.ok = ok
        self.error = error


CSV_HEADER = "pipeline,n_vars,precision_bits,wall_ms,value,count,ok"


def measure_blowup(family: list[CountingInstance], pipeline: str,
                   repeats: int) -> list[BlowupRecord]:
    """Run one pipeline over a family; median wall time of `repeats` runs.

    Each round runs every size once, so a slow spell of the machine slows
    every size alike instead of all the runs of one size.  Per-record
    failures (size cap, precision shortfall) are recorded with ok=False, and
    a size that failed is not run again.  A median needs a run, so repeats
    below 1 are refused.
    """
    import statistics  # only here: importing it would slow every CLI start-up
    import time
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}, have {sorted(PIPELINES)}")
    if repeats < 1:
        raise ConfigError(f"repeats: {repeats} is below 1")
    solver = PIPELINES[pipeline]
    bits = [precision_for(inst) for inst in family]
    walls: list[list[float]] = [[] for _ in family]
    values: list[Optional[CertifiedValue]] = [None] * len(family)
    errors: list[Optional[str]] = [None] * len(family)
    for _ in range(repeats):
        for i, inst in enumerate(family):
            if errors[i] is None:
                try:
                    t0 = time.perf_counter_ns()
                    values[i] = solver(inst, bits[i])
                    walls[i].append((time.perf_counter_ns() - t0) / 1e6)
                except CertHeatError as exc:
                    errors[i] = str(exc)

    def record(inst, n, times, v, error) -> BlowupRecord:
        if error is None:
            try:
                count = recover_count(v, inst)
                return BlowupRecord(pipeline, inst.n_vars, n, statistics.median(times),
                                    v.value_fraction(), count,
                                    0 <= count <= 1 << inst.n_vars)
            except CertHeatError as exc:
                error = str(exc)
        return BlowupRecord(pipeline, inst.n_vars, n, 0.0, None, None, False, error=error)

    return [record(*row) for row in zip(family, bits, walls, values, errors)]


def render_csv(records: list[BlowupRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        value = "" if r.value is None else str(r.value)
        count = "" if r.count is None else str(r.count)
        lines.append(f"{r.pipeline},{r.n_vars},{r.precision_bits},"
                     f"{r.wall_ms:.3f},{value},{count},{'true' if r.ok else 'false'}")
    return "\n".join(lines) + "\n"


def random_instance(rng, n_vars: int, max_weight: int = 50) -> CountingInstance:
    """Random weights with a target realized by a random nonempty subset."""
    weights = tuple(rng.randint(1, max_weight) for _ in range(n_vars))
    mask = rng.randrange(1, 1 << n_vars)
    target = sum(w for i, w in enumerate(weights) if mask >> i & 1)
    return CountingInstance(weights, target)
