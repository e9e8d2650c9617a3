"""The timed jobs of each workload and the checks on their outputs.

Importing this module imports certheat, so ``setup_s`` times the import
together with ``setup()``.  Jobs look their entry points up on the module
at call time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from fractions import Fraction

import certheat.cli as cli
import certheat.hardness as hardness
import certheat.heat as heat
import certheat.laplace as laplace

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))


class Job:
    """One timed call and the check of its output.

    ``kind`` is the problem type (``group`` "solve") or the counting
    pipeline (``group`` "pipeline"); ``check(out)`` returns None when the
    output is right and a one-line reason when it is not.
    """

    def __init__(self, name, kind, group, call, check):
        self.name, self.kind, self.group = name, kind, group
        self.call, self.check = call, check


class Workload:
    """Timed jobs, and probes that run once after the timed passes."""

    def __init__(self, jobs, probes=()):
        self.jobs, self.probes = list(jobs), list(probes)


# ---------------------------------------------------------------------------
# checks


def load_refs() -> dict[str, Fraction]:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as f:
        return {k: Fraction(v) for k, v in json.load(f)["values"].items()}


def value_problem(value: Fraction, err: Fraction, bits: int, ref: Fraction):
    """Reason the value breaks the 2^-bits contract, or None.

    References carry at least 24 bits more than the value, so they may
    sit 2^-(bits+24) off the truth.
    """
    tol = Fraction(1, 1 << bits)
    if err > tol:
        return f"certified error {float(err):.3g} exceeds 2^-{bits}"
    miss = abs(value - ref)
    if miss > tol + Fraction(1, 1 << (bits + 24)):
        return f"value misses its reference by {float(miss):.3g} > 2^-{bits}"
    return None


def parse_dyadic(literal: str) -> Fraction:
    sign, body = literal[0], literal[1:]
    whole, frac = body.split(".")
    mag = Fraction(int(whole + frac, 2), 1 << len(frac))
    return -mag if sign == "-" else mag


def subset_sum_count(weights, target) -> int:
    ways = {0: 1}
    for w in weights:
        nxt = dict(ways)
        for s, c in ways.items():
            nxt[s + w] = nxt.get(s + w, 0) + c
        ways = nxt
    return ways.get(target, 0)


# ---------------------------------------------------------------------------
# grid: plan once, evaluate many


def _grid(seed: int, refs) -> Workload:
    draw = inputs.grid_inputs(seed)
    jobs = []
    g = cli.parse_boundary_fn(inputs.DISK_PL)
    disk = laplace.DiskProblem(g, inputs.DISK_R0)
    bits = inputs.GRID_DISK_BITS
    plan = laplace.plan_disk(disk, bits)
    for r, th in draw["disk"]:
        key = inputs.ref_key(inputs.disk_cfg(inputs.DISK_PL, r, th, bits))
        jobs.append(_library_job(
            f"disk r={r} theta={th} bits={bits}", "disk",
            functools.partial(_solve_disk, disk, r, th, bits, plan),
            bits, refs and refs[key]))
    one = Fraction(1)
    gi = cli.parse_interval_fn(inputs.IVL_PL, one)
    ivl = heat.IntervalHeatProblem(one, one, gi, inputs.IVL_T0)
    for bits, points in draw["interval"].items():
        plan = heat.plan_interval(ivl, bits)
        for t, x in points:
            key = inputs.ref_key(inputs.interval_cfg(inputs.IVL_PL, t, x, bits))
            jobs.append(_library_job(
                f"interval t={t} x={x} bits={bits}", "interval",
                functools.partial(_solve_interval, ivl, t, x, bits, plan),
                bits, refs and refs[key]))
    return Workload(jobs)


def _solve_disk(p, r, th, bits, plan):
    return laplace.solve_disk(p, r, th, bits, plan)


def _solve_interval(p, t, x, bits, plan):
    return heat.solve_interval(p, t, x, bits, plan)


def _library_job(name, kind, call, bits, ref):
    def check(v):
        return value_problem(v.value_fraction(), v.err_fraction(), bits, ref)
    return Job(name, kind, "solve", call, check)


# ---------------------------------------------------------------------------
# solve-mix: one-shot solves through the CLI, in process

_SINK = io.StringIO()


def _cli_solve(cfg_path: str, out_path: str) -> int:
    with contextlib.redirect_stdout(_SINK), contextlib.redirect_stderr(_SINK):
        rc = cli.main(["solve", "--config", cfg_path, "--out", out_path])
    _SINK.seek(0)
    _SINK.truncate()
    return rc


def _cli_job(name: str, cfg: dict, workdir: str, ref) -> Job:
    bits = cfg["bits"]
    stem = os.path.join(workdir, name.replace("/", "_"))
    cfg_path, out_path = stem + ".cfg", stem + ".json"

    def check(rc):
        if rc != 0:
            return f"certheat solve exited {rc}"
        with open(out_path, encoding="utf-8") as f:
            record = json.load(f)
        os.remove(out_path)
        if record["error_exponent"] < bits:
            return f"certified error 2^-{record['error_exponent']} exceeds 2^-{bits}"
        return value_problem(parse_dyadic(record["value_dyadic"]), Fraction(0),
                             bits, ref)

    return Job(name, cfg["problem"], "solve",
               functools.partial(_cli_solve, cfg_path, out_path), check)


def _mix_ref(cfg: dict, refs):
    if cfg["problem"] == "neumann":
        # counting force at t = 1: the solution is count * 4^-n_vars exactly
        target, *weights = map(int, cfg["force"].split()[1:])
        return Fraction(subset_sum_count(weights, target), 4 ** len(weights))
    return refs and refs[inputs.ref_key(cfg)]


def _solve_mix(seed: int, refs, workdir: str) -> Workload:
    jobs = [_cli_job(n, cfg, workdir, _mix_ref(cfg, refs))
            for n, cfg in inputs.solve_mix_inputs(seed)]
    probes = [_cli_job(n, cfg, workdir, _mix_ref(cfg, refs))
              for n, cfg in inputs.KNOWN_DEFECTS]
    return Workload(jobs, probes)


# ---------------------------------------------------------------------------
# counting: the paper's blowup

# integrands the pipelines built, so a check can read their verifier counter
CAPTURED: list = []


def _capture_integrands() -> None:
    orig = hardness.counting_integrand
    if getattr(orig, "_bench_capture", False):
        return

    @functools.wraps(orig)
    def capture(inst):
        fn = orig(inst)
        CAPTURED.append(fn)
        return fn

    capture._bench_capture = True
    hardness.counting_integrand = capture


def _run_pipeline(name, inst, bits):
    CAPTURED.clear()
    v = hardness.PIPELINES[name](inst, bits)
    return v, hardness.recover_count(v, inst), list(CAPTURED)


def _counting(seed: int, refs) -> Workload:
    _capture_integrands()
    jobs = []
    for weights, target in inputs.counting_inputs(seed):
        inst = hardness.CountingInstance(weights, target)
        bits = hardness.precision_for(inst)
        nv = inst.n_vars
        want = subset_sum_count(weights, target) if refs is not None else None
        for name in ("neumann", "disk", "interval"):
            jobs.append(Job(f"{name} n_vars={nv} bits={bits}", name, "pipeline",
                            functools.partial(_run_pipeline, name, inst, bits),
                            _count_check(want, nv, bits)))
    return Workload(jobs)


def _count_check(want: int, nv: int, bits: int):
    def check(out):
        v, count, _ = out
        if count != want:
            return f"recovered count {count}, brute force gives {want}"
        bad = value_problem(v.value_fraction(), v.err_fraction(), bits,
                            Fraction(want, 4 ** nv))
        if bad:
            return bad
        calls = verifier_calls(out)
        if calls < 1 << nv:
            return f"{calls} verifier calls, below 2^{nv}: not every cell was visited"
        return None
    return check


def verifier_calls(out) -> int:
    return sum(fn.verifier_calls() for fn in out[2])


# ---------------------------------------------------------------------------


def setup(name: str, seed: int, refs=None, workdir: str = "") -> Workload:
    """Build the workload's problems, instances and plans from its inputs.

    With refs None the checks are not armed: that is the set-up probe,
    which times set-up alone.
    """
    if name == "grid":
        return _grid(seed, refs)
    if name == "solve-mix":
        return _solve_mix(seed, refs, workdir)
    if name == "counting":
        return _counting(seed, refs)
    raise ValueError(f"unknown workload {name!r}")
