"""Command-line driver: certified solves, blowup benches, self-check suites.

Configs are flat key=value text files with a fixed vocabulary of input
functions (trigonometric polynomials, piecewise-linear tables, polynomial
profiles, counting instances); nothing in a config is ever executed.
Exit codes: 0 success, 1 check/solve failure or internal error, 2 config
error, 3 violated solver precondition.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from functools import lru_cache

from .dyadic import round_to
from .errors import CertHeatError, ConfigError, PreconditionError
from .evaluable import (EvaluableFunction, TrigPoly, constant_fn,
                        piecewise_linear_fn, polynomial_fn, sine_modes_fn,
                        trig_poly_fn)
from .heat import (HalflineBoundaryProblem, HalflineForceProblem,
                   IntervalHeatProblem, plan_halfline_boundary,
                   plan_halfline_force, plan_halfline_initial, plan_interval,
                   solve_halfline_boundary, solve_halfline_force,
                   solve_halfline_initial, solve_interval,
                   solve_neumann_constant_force)
from .laplace import (BallProblem, DiskProblem, plan_ball_truncation,
                      plan_disk, solve_ball, solve_disk)
from .series import TruncationPlan


# ---------------------------------------------------------------------------
# config parsing


def parse_config(path: str) -> dict[str, str]:
    """Flat key = value lines; # comments; duplicate keys rejected."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"{path}:{ln}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _num(cfg: dict[str, str], key: str, default: Fraction | None = None) -> Fraction:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return Fraction(cfg[key])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not a number")


def _int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not an integer")


def _check_keys(cfg: dict[str, str], required: set[str], *optional: str) -> None:
    unknown = set(cfg) - required - set(optional) - {"problem", "bits"}
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")


# -- input-function vocabulary ----------------------------------------------


def _parse_pairs(rest: str, what: str,
                 min_pairs: int = 2) -> list[tuple[Fraction, Fraction]]:
    pts = []
    for tok in rest.split():
        if ":" not in tok:
            raise ConfigError(f"{what}: expected x:y pairs, got {tok!r}")
        a, b = tok.split(":", 1)
        try:
            pts.append((Fraction(a), Fraction(b)))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{what}: bad pair {tok!r}")
    if len(pts) < min_pairs:
        raise ConfigError(f"{what}: need at least {min_pairs} x:y pairs")
    return pts


def _parse_pl(rest: str, spec: str) -> EvaluableFunction:
    """Piecewise-linear data through the x:y nodes of a ``pl`` spec; nodes
    that do not strictly increase are a config error naming the spec."""
    try:
        return piecewise_linear_fn(_parse_pairs(rest, "pl"))
    except ValueError as exc:
        raise ConfigError(f"pl: {exc}: {spec!r}")


def _add_mode(modes: dict, key, coeff: Fraction, what: str) -> None:
    """modes[key] = coeff, refusing a mode the spec already gave."""
    if key in modes:
        raise ConfigError(f"{what}: mode {key} given twice")
    modes[key] = coeff


def parse_boundary_fn(spec: str) -> EvaluableFunction:
    """Disk boundary vocabulary: cos/sin modes, trig combinations, tables."""
    kind, _, rest = spec.strip().partition(" ")
    rest = rest.strip()
    if kind in ("cos", "sin"):
        parts = rest.split()
        if not parts:
            raise ConfigError(f"{kind}: missing mode number")
        try:
            k = int(parts[0])
            coeff = Fraction(parts[1]) if len(parts) > 1 else Fraction(1)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{kind}: bad mode spec {rest!r}")
        if k < 1:
            raise ConfigError(f"{kind}: mode must be >= 1")
        tp = TrigPoly(cos_coeffs={k: coeff}) if kind == "cos" else \
            TrigPoly(sin_coeffs={k: coeff})
        return trig_poly_fn(tp)
    if kind == "const":
        try:
            return constant_fn(Fraction(rest), (Fraction(0), Fraction(2)))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"const: bad value {rest!r}")
    if kind == "trig":
        terms = {"const": {}, "cos": {}, "sin": {}}
        for tok in rest.split(","):
            tok = tok.strip()
            if "=" not in tok:
                raise ConfigError(f"trig: expected name=coeff, got {tok!r}")
            name, val = (s.strip() for s in tok.split("=", 1))
            try:
                coeff = Fraction(val)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"trig: bad coefficient {val!r}")
            if name == "const":
                k = 0
            elif name[:3] in ("cos", "sin") and name[3:].isdigit():
                name, k = name[:3], int(name[3:])
                if k < 1:
                    raise ConfigError(f"trig: {name} mode must be >= 1; use const")
            else:
                raise ConfigError(f"trig: unknown term {name!r}")
            _add_mode(terms[name], k, coeff, f"trig {name}")
        return trig_poly_fn(TrigPoly(terms["const"].get(0, Fraction(0)), terms["sin"],
                                     terms["cos"]))
    if kind == "pl":
        return _parse_pl(rest, spec)
    raise ConfigError(f"unknown boundary function kind {kind!r}")


def parse_interval_fn(spec: str, L: Fraction) -> EvaluableFunction:
    kind, _, rest = spec.strip().partition(" ")
    if kind == "sine":
        modes = {}
        for k, c in _parse_pairs(rest, "sine", min_pairs=1):
            if k.denominator != 1 or k < 1:
                raise ConfigError(f"sine: mode {k} must be a positive integer")
            _add_mode(modes, int(k), c, "sine")
        return sine_modes_fn(modes, L)
    if kind == "pl":
        return _parse_pl(rest, spec)
    raise ConfigError(f"unknown interval function kind {kind!r}")


def parse_profile(spec: str) -> EvaluableFunction:
    """Time profiles on [0, 2]: polynomial coefficients, or the half-sine
    amp sin(pi s / 2) as sine mode 1."""
    kind, _, rest = spec.strip().partition(" ")
    if kind == "poly":
        try:
            coeffs = [Fraction(tok) for tok in rest.split()]
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"poly: bad coefficients {rest!r}")
        if not coeffs:
            raise ConfigError("poly: need at least one coefficient")
        return polynomial_fn(coeffs, (Fraction(0), Fraction(2)))
    if kind == "sinhalf":
        try:
            amp = Fraction(rest) if rest.strip() else Fraction(1)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"sinhalf: bad amplitude {rest!r}")
        return sine_modes_fn({1: amp}, Fraction(2))
    raise ConfigError(f"unknown profile kind {kind!r}")


def parse_force_fn(spec: str) -> EvaluableFunction:
    kind, _, rest = spec.strip().partition(" ")
    if kind == "pl":
        return _parse_pl(rest, spec)
    if kind == "poly":
        return parse_profile(spec)
    if kind == "counting":
        from .hardness import CountingInstance, counting_integrand  # counting data only
        parts = rest.split()
        if len(parts) < 2:
            raise ConfigError("counting: need a target and at least one weight")
        try:
            target, weights = int(parts[0]), tuple(int(w) for w in parts[1:])
        except ValueError:
            raise ConfigError(f"counting: bad integers in {rest!r}")
        try:
            return counting_integrand(CountingInstance(weights, target))
        except PreconditionError as exc:
            raise ConfigError(f"counting: {exc}")
    raise ConfigError(f"unknown force kind {kind!r}")


def parse_sph_fn(spec: str) -> EvaluableFunction:
    kind, _, rest = spec.strip().partition(" ")
    if kind != "sph":
        raise ConfigError(f"ball data must be 'sph l:m:coeff ...', got {kind!r}")
    modes = {}
    for tok in rest.split():
        bits = tok.split(":")
        if len(bits) != 3:
            raise ConfigError(f"sph: expected l:m:coeff, got {tok!r}")
        try:
            l, m, c = int(bits[0]), int(bits[1]), Fraction(bits[2])
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"sph: bad mode {tok!r}")
        if l < 0 or abs(m) > l:
            raise ConfigError(f"sph: invalid (l,m)=({l},{m})")
        _add_mode(modes, (l, m), c, "sph")
    if not modes:
        raise ConfigError("sph: need at least one mode")
    sup = sum(map(abs, modes.values()), Fraction(0))
    return EvaluableFunction(domain=(Fraction(0), Fraction(2)), sup_bound=sup, sph_modes=modes)


# ---------------------------------------------------------------------------
# solve


def _solve_disk(cfg, n):
    _check_keys(cfg, {"g", "r", "theta"})
    r = _num(cfg, "r")
    p = DiskProblem(parse_boundary_fn(cfg["g"]), r)  # one solve plans at its own r
    plan = plan_disk(p, n)
    return solve_disk(p, r, _num(cfg, "theta"), n, plan), plan


def _solve_ball(cfg, n):
    _check_keys(cfg, {"g", "r", "theta", "phi"})
    p = BallProblem(parse_sph_fn(cfg["g"]))
    plan = plan_ball_truncation(p.g, n)
    return solve_ball(p, _num(cfg, "r"), _num(cfg, "theta"), _num(cfg, "phi"), n), plan


def _solve_interval(cfg, n):
    _check_keys(cfg, {"g", "t", "x"}, "l", "alpha")
    L = _num(cfg, "l", Fraction(1))
    alpha = _num(cfg, "alpha", Fraction(1))
    t = _num(cfg, "t")
    p = IntervalHeatProblem(L, alpha, parse_interval_fn(cfg["g"], L), t)  # plans at its own t
    plan = plan_interval(p, n)
    return solve_interval(p, t, _num(cfg, "x"), n, plan), plan


def _solve_halfline_boundary(cfg, n):
    _check_keys(cfg, {"h", "x0", "x1", "t", "x"}, "alpha")
    alpha = _num(cfg, "alpha", Fraction(1))
    p = HalflineBoundaryProblem(alpha, parse_profile(cfg["h"]),
                                (_num(cfg, "x0"), _num(cfg, "x1")))
    plan = plan_halfline_boundary(p, n)
    return solve_halfline_boundary(p, _num(cfg, "t"), _num(cfg, "x"), n, plan), plan


def _solve_halfline_force(cfg, n):
    _check_keys(cfg, {"f_time", "f_space", "x0", "x1", "t", "x"}, "alpha")
    alpha = _num(cfg, "alpha", Fraction(1))
    p = HalflineForceProblem(alpha, parse_profile(cfg["f_time"]),
                             parse_force_fn(cfg["f_space"]),
                             (_num(cfg, "x0"), _num(cfg, "x1")))
    plan = plan_halfline_force(p, n)
    return solve_halfline_force(p, _num(cfg, "t"), _num(cfg, "x"), n, plan), plan


def _solve_halfline_initial(cfg, n):
    _check_keys(cfg, {"g0", "t", "x"}, "alpha")
    alpha = _num(cfg, "alpha", Fraction(1))
    g = parse_force_fn(cfg["g0"])
    t, x = _num(cfg, "t"), _num(cfg, "x")
    plan = plan_halfline_initial(g, alpha, t, x, n)
    return solve_halfline_initial(g, alpha, t, x, n), plan


def _solve_neumann(cfg, n):
    _check_keys(cfg, {"force", "t"})
    force = parse_force_fn(cfg["force"])
    return solve_neumann_constant_force(force, _num(cfg, "t"), n), None


SOLVERS = {
    "disk": _solve_disk,
    "ball": _solve_ball,
    "interval": _solve_interval,
    "halfline-boundary": _solve_halfline_boundary,
    "halfline-force": _solve_halfline_force,
    "halfline-initial": _solve_halfline_initial,
    "neumann": _solve_neumann,
}


def decimal_digits(n: int) -> int:
    # ceil(n log10 2) + 1, via a rational upper bound on log10 2
    num, den = 301029995664, 10 ** 12
    return (n * num + den - 1) // den + 1


def _plan_summary(plan: TruncationPlan | None):
    if plan is None:
        return None
    return {"order": plan.order,
            "budget": [[label, bits] for label, bits in plan.budget_split]}


def cmd_solve(args) -> int:
    if not args.config:
        raise ConfigError("solve needs --config")
    cfg = parse_config(args.config)
    if "problem" not in cfg:
        raise ConfigError("missing required key 'problem'")
    prob = cfg["problem"]
    if prob not in SOLVERS:
        raise ConfigError(f"unknown problem {prob!r}, have {sorted(SOLVERS)}")
    n = args.bits if args.bits is not None else _int(cfg, "bits")
    if n < 1:
        raise ConfigError("bits must be a positive integer")
    t0 = time.perf_counter()
    value, plan = SOLVERS[prob](cfg, n)
    wall = time.perf_counter() - t0
    # literal rounding is charged against the same certificate budget
    lit = round_to(value.value_fraction(), min(max(value.s, 1), n + 16))
    total_err = value.err_fraction() + \
        abs(lit.as_fraction() - value.value_fraction())
    if total_err > Fraction(1, 2 ** n):
        raise AssertionError(f"solver exceeded its 2^-{n} budget")
    dec = lit.decimal(decimal_digits(n))
    print(f"problem = {prob}")
    print(f"value   = {lit.literal()}")
    print(f"decimal = {dec}")
    print(f"error  <= 2^-{n}")
    if plan is not None:
        split = " + ".join(f"{label}:{bits}" for label, bits in plan.budget_split)
        print(f"plan    = order {plan.order}, budget {split}")
    print(f"wall    = {wall:.3f}s", file=sys.stderr)

    if args.out:
        import json  # only a result file needs it

        record = {"problem": prob, "bits": n, "inputs": cfg,
                  "value_dyadic": lit.literal(), "value_decimal": dec,
                  "error_exponent": n, "plan": _plan_summary(plan)}
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# bench


def _parse_sizes(text: str) -> list[int]:
    """Item counts, each at least 1; sizes past ``MAX_VARS`` are the
    benchmark's to record as not ok."""
    text = text.strip()
    if not text or text == "none":
        return []
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(f"sizes: bad range {text!r}")
        if hi < lo:
            raise ConfigError(f"sizes: empty range {text!r}")
        sizes = list(range(lo, hi + 1))
    else:
        try:
            sizes = [int(tok) for tok in text.split()]
        except ValueError:
            raise ConfigError(f"sizes: bad list {text!r}")
    if min(sizes) < 1:
        raise ConfigError(f"sizes: {min(sizes)} is below 1 item")
    return sizes


def cmd_bench(args) -> int:
    import random  # only this subcommand draws instances and measures them

    from .hardness import CountingInstance, measure_blowup, random_instance, render_csv

    if not args.config:
        raise ConfigError("bench needs --config")
    cfg = parse_config(args.config)
    allowed = {"pipeline", "sizes", "seed", "repeats", "max_weight",
               "weights", "target"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    if "pipeline" not in cfg:
        raise ConfigError("missing required key 'pipeline'")
    pipeline = cfg["pipeline"]  # measure_blowup refuses an unknown one
    repeats = _int(cfg, "repeats", 5)  # and a count below 1

    if "weights" in cfg or "target" in cfg:
        if "sizes" in cfg:
            raise ConfigError("give either sizes or an explicit weights/target")
        try:
            weights = tuple(int(w) for w in cfg.get("weights", "").split())
            inst = CountingInstance(weights, _int(cfg, "target"))
        except (ValueError, PreconditionError) as exc:
            raise ConfigError(f"bad instance: {exc}")
        family = [inst]
    else:
        if "sizes" not in cfg:
            raise ConfigError("bench needs sizes or an explicit weights/target")
        seed = args.seed if args.seed is not None else _int(cfg, "seed", 0)
        max_weight = _int(cfg, "max_weight", 50)
        if max_weight < 1:
            raise ConfigError(f"max_weight: {max_weight} is below 1")
        rng = random.Random(seed)
        family = [random_instance(rng, nv, max_weight)
                  for nv in _parse_sizes(cfg["sizes"])]

    csv = render_csv(measure_blowup(family, pipeline, repeats))
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .verify import run_suite  # only this subcommand pays for the checks

    results = run_suite(args.suite, args.seed)
    failures = 0
    for r in results:
        if r.ok:
            print(f"PASS {r.suite}/{r.name}")
        else:
            failures += 1
            detail = f": {r.detail}" if r.detail else ""
            print(f"FAIL {r.suite}/{r.name}{detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser():
    # built once per process: parse_args leaves the parser unchanged, and
    # each call gets its own Namespace; argparse is imported here, so a
    # process that imports certheat.cli without running main skips it
    import argparse

    ap = argparse.ArgumentParser(
        prog="certheat",
        description="certified-precision solvers and the counting benchmark")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    ps = sub.add_parser("solve", help="run one certified solve")
    ps.add_argument("--config", help="flat key=value config file")
    ps.add_argument("--bits", type=int, help="output precision 2^-bits")
    ps.add_argument("--out", help="result file path")
    pb = sub.add_parser("bench", help="run the blowup benchmark, emit CSV")
    pb.add_argument("--config", help="flat key=value config file")
    pb.add_argument("--out", help="CSV file path")
    pb.add_argument("--seed", type=int, help="seed for the drawn instances")
    pv = sub.add_parser("verify", help="run self-check suites")
    pv.add_argument("suite", help="a suite name, or all")
    pv.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except CertHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # a solver broke its own certificate
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
