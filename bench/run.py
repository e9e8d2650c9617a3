"""certheat benchmark: one workload, timed end to end, or traced by layer.

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one process, one thread, its jobs back to
back, pass after pass, for about --seconds seconds.  Every job's output is
checked (certified error and distance to a reference both within 2^-n,
recovered counts equal to subset enumeration).  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs untraced passes, then
wraps the layers' public functions (tracing.py) for traced passes and reports
the per-layer metrics.  Human-readable lines come first; the last line of
stdout is the JSON result.  A fuller record (samples, quartiles, machine,
per-job times, failures) goes to bench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set-up probes before the first pass and after each pass of a --trace 0
# run, so setup_s samples the same stretch of machine time as wall_s
SETUP_PROBES_FIRST, SETUP_PROBES_PER_PASS = 3, 1
UNTRACED_SHARE = 0.4        # of --seconds, in a --trace 1 run

SOLVE_KINDS = ["disk", "ball", "interval", "halfline-boundary",
               "halfline-force", "halfline-initial", "neumann"]
PIPELINE_KINDS = ["neumann", "disk", "interval"]
# primitive microbench: function name -> argument, at each precision
MICRO = [("pi_cv", None), ("exp_cv", "-5/3"), ("sqrt_cv", "2"),
         ("sin_pi_mul_cv", "5/17"), ("cos_pi_mul_cv", "5/17"),
         ("gauss_primitive_cv", "3/2")]
MICRO_PRECISIONS = (64, 256, 1024)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# layer metric -> (end-to-end metric it should move, workload)
LAYER_MAP = [
    ("cli.self_s", "solve_s.* (cheap jobs)", "solve-mix"),
    ("plan.self_s", "setup_s", "grid"),
    ("plan.terms", "setup_s and solve_s.disk", "grid"),
    ("plan.terms", "solve_s.halfline-*", "solve-mix"),
    ("coeff.calls / coeff.self_s / coeff.distinct_ratio",
     "solve_s.disk, solve_s.interval, wall_s", "grid"),
    ("coeff.*", "no change", "solve-mix"),
    ("coeff.*", "zero", "counting"),
    ("series.self_s.<problem>", "solve_s.halfline-*, wall_s", "solve-mix"),
    ("series.self_s.<problem>", "zero", "counting"),
    ("quad.calls / quad.self_s", "pipeline_s.*", "counting"),
    ("quad.calls / quad.self_s", "solve_s.disk", "grid"),
    ("kernels.self_s", "solve_s.ball", "solve-mix"),
    ("prim.*.exp_cv", "pipeline_s.interval", "counting"),
    ("prim.*.sin_pi_mul_cv / cos_pi_mul_cv", "solve_s.disk", "grid"),
    ("prim.*.gauss_primitive_cv", "solve_s.halfline-force, solve_s.halfline-initial",
     "solve-mix"),
    ("prim.*.recip_cv / pi_cv", "solve_s.disk (1/pi per closed-form integral)", "grid"),
    ("prim.*.recip_cv / pi_cv", "pipeline_s.interval", "counting"),
    ("prim.*.sqrt_cv", "solve_s.halfline-*", "solve-mix"),
    ("hardness.self_s / verifier_calls / growth", "pipeline_s.*", "counting"),
    ("errors.<class>", "fail_ratio", "all"),
    ("trace.overhead_ratio", "traced wall_s / untraced wall_s - 1", "all"),
]


def per_layer_names() -> dict[str, str]:
    import tracing
    names = {}
    names.update({f"solve_s.{k}": "s" for k in SOLVE_KINDS})
    names.update({f"pipeline_s.{k}": "s" for k in PIPELINE_KINDS})
    names["fail_ratio"] = "1"
    names.update({"cli.self_s": "s", "plan.self_s": "s", "plan.terms": "count",
                  "coeff.calls": "count", "coeff.self_s": "s",
                  "coeff.distinct_ratio": "1"})
    names.update({f"series.self_s.{k}": "s" for k in SOLVE_KINDS})
    names.update({"quad.calls": "count", "quad.self_s": "s", "kernels.self_s": "s"})
    for fn in tracing.PRIMS:
        names[f"prim.calls.{fn}"] = "count"
        names[f"prim.self_s.{fn}"] = "s"
    names["hardness.self_s"] = "s"
    names.update({f"hardness.verifier_calls.{k}": "count" for k in PIPELINE_KINDS})
    names.update({f"hardness.growth.{k}": "1" for k in PIPELINE_KINDS})
    names.update({f"errors.{c}": "count" for c in tracing.ERROR_CLASSES})
    names.update({"trace.overhead_ratio": "1", "trace.accounted_ratio": "1"})
    for fn, _ in MICRO:
        for p in MICRO_PRECISIONS:
            names[f"prim.us.{fn}.p{p}"] = "us"
    return names


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self):
        self.job_ns: list[int] = []
        self.failures: list[tuple[str, str]] = []
        self.verifier_calls: dict[str, int] = {}
        self.elapsed = 0.0

    @property
    def wall_ns(self) -> int:
        return sum(self.job_ns)


def run_job(job, tracer=None):
    """(ns, failure reason or None, output)."""
    out, why = None, None
    if tracer is None:
        t0 = time.perf_counter_ns()
        try:
            out = job.call()
        except Exception as exc:  # a failed job, reported, not fatal
            why = f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - t0
    else:
        i = tracer.mark()
        try:
            out = tracer.run_span("job", job.call)
        except Exception as exc:
            why = f"{type(exc).__name__}: {exc}"
        ns = tracer.last_duration(i)
    if why is None:
        try:
            why = job.check(out)
        except Exception as exc:
            why = f"check raised {type(exc).__name__}: {exc}"
    return ns, why, out


def run_pass(wl, tracer=None) -> Pass:
    import workloads
    started = time.perf_counter()
    p = Pass()
    for job in wl.jobs:
        ns, why, out = run_job(job, tracer)
        p.job_ns.append(ns)
        if why is not None:
            p.failures.append((job.name, why))
        elif job.group == "pipeline":
            p.verifier_calls[job.kind] = (p.verifier_calls.get(job.kind, 0)
                                          + workloads.verifier_calls(out))
    p.elapsed = time.perf_counter() - started
    return p


def run_passes(wl, until: float, tracer=None, on_pass=None) -> list[Pass]:
    passes = []
    while True:
        passes.append(run_pass(wl, tracer))
        if on_pass is not None:
            on_pass()
        est = statistics.median(p.elapsed for p in passes)
        if time.perf_counter() + est > until:
            return passes


def run_probes(wl, tracer=None) -> list[dict]:
    out = []
    for job in wl.probes:
        ns, why, _ = run_job(job, tracer)
        out.append({"name": job.name, "ok": why is None, "reason": why,
                    "seconds": ns / 1e9})
    return out


# ---------------------------------------------------------------------------
# statistics


def summary(samples: list[float]) -> dict:
    s = sorted(samples)
    if len(s) >= 2:
        q1, med, q3 = statistics.quantiles(s, n=4)
    else:
        q1 = med = q3 = s[0]
    return {"median": statistics.median(s), "q1": q1, "q3": q3,
            "n": len(s), "samples": samples}


def kind_seconds(wl, passes: list[Pass], group: str, kinds) -> dict[str, list[float]]:
    """Per pass, the summed time of each kind's jobs."""
    out = {}
    for kind in kinds:
        idx = [i for i, j in enumerate(wl.jobs) if j.group == group and j.kind == kind]
        out[kind] = [sum(p.job_ns[i] for i in idx) / 1e9 for p in passes]
    return out


def job_medians(passes: list[Pass]) -> list[float]:
    return [statistics.median(p.job_ns[i] for p in passes) / 1e9
            for i in range(len(passes[0].job_ns))]


def growth(wl, medians: list[float], kind: str) -> float:
    """Least-squares slope of log2(time) against n_vars: ~1 for 2^n_vars."""
    pts = [(int(j.name.split("n_vars=")[1].split()[0]), math.log2(m))
           for j, m in zip(wl.jobs, medians)
           if j.group == "pipeline" and j.kind == kind and m > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def fail_ratio(wl, passes: list[Pass], probes: list[dict]) -> tuple[float, list]:
    failed = sorted({name for p in passes for name, _ in p.failures})
    failed += [p["name"] for p in probes if not p["ok"]]
    return len(failed) / (len(wl.jobs) + len(probes)), failed


# ---------------------------------------------------------------------------
# set-up


def setup_samples(name: str, seed: int, workdir: str, count: int) -> list[float]:
    """Seconds of `count` set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
             str(seed), workdir],
            capture_output=True, text=True, cwd=ROOT, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# traced run


def layer_metrics(window: dict) -> dict[str, float]:
    """Per-layer metrics of one trace window (set-up, a pass, the probes)."""
    import tracing
    tot = window["totals"]

    def self_s(prefix: str) -> float:
        return sum(v[2] for k, v in tot.items() if k.startswith(prefix)) / 1e9

    def calls(prefix: str) -> int:
        return sum(v[0] for k, v in tot.items() if k.startswith(prefix))

    m: dict[str, float] = {
        "cli.self_s": self_s("cli."), "plan.self_s": self_s("plan."),
        "plan.terms": window["plan_terms"],
        "coeff.calls": calls("coeff."), "coeff.self_s": self_s("coeff."),
        "quad.calls": calls("quad."), "quad.self_s": self_s("quad."),
        "kernels.self_s": self_s("kernels."), "hardness.self_s": self_s("hardness."),
    }
    m["coeff.distinct_ratio"] = (window["coeff_distinct"] / m["coeff.calls"]
                                 if m["coeff.calls"] else 0.0)
    for fn, kind in tracing.SOLVE_PROBLEM.items():
        m[f"series.self_s.{kind}"] = self_s(f"series.{fn}")
    for fn in tracing.PRIMS:
        m[f"prim.calls.{fn}"] = calls(f"prim.{fn}")
        m[f"prim.self_s.{fn}"] = self_s(f"prim.{fn}")
    for cls in tracing.ERROR_CLASSES:
        m[f"errors.{cls}"] = sum(n for (_, c), n in window["errors"].items() if c == cls)
    wall = sum(v[1] for k, v in tot.items() if k == "job")
    layers = sum(v[2] for k, v in tot.items() if k not in ("job", "setup"))
    m["trace.accounted_ratio"] = layers / wall if wall else 0.0
    return m


def micro_bench(rounds: int = 5, batch_s: float = 0.01) -> dict[str, float]:
    """Median microseconds per call of the certified primitives."""
    from fractions import Fraction
    import certheat.certified as certified
    out = {}
    for fn_name, arg in MICRO:
        fn = getattr(certified, fn_name)
        for p in MICRO_PRECISIONS:
            call = ((lambda: fn(p)) if arg is None
                    else (lambda x=Fraction(arg): fn(x, p)))
            call()  # warm: pi is cached per precision bucket
            n = 1
            while True:
                t0 = time.perf_counter_ns()
                for _ in range(n):
                    call()
                dt = time.perf_counter_ns() - t0
                if dt >= batch_s * 1e9:
                    break
                n *= 2
            per = [dt / n]
            for _ in range(rounds - 1):
                t0 = time.perf_counter_ns()
                for _ in range(n):
                    call()
                per.append((time.perf_counter_ns() - t0) / n)
            out[f"prim.us.{fn_name}.p{p}"] = statistics.median(per) / 1e3
    return out


def traced_phase(name, seed, refs, workdir, until):
    """Set-up, passes and probes with every layer wrapped.

    Per-layer metrics are medians over the traced passes; plan.* add the
    set-up (where grid plans) and errors.* add set-up and probes.
    """
    import tracing
    import workloads
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = tracer.run_span("setup", lambda: workloads.setup(name, seed, refs, workdir))
        setup = tracer.window()
        windows = []
        passes = run_passes(wl, until, tracer,
                            on_pass=lambda: windows.append(tracer.window()))
        probes = run_probes(wl, tracer)
        probe = tracer.window()
    finally:
        tracer.uninstall()
    per_pass = [layer_metrics(w) for w in windows]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    once = [layer_metrics(setup), layer_metrics(probe)]
    for k in metrics:
        if k.startswith(("plan.", "errors.")):
            metrics[k] += sum(m[k] for m in once)
    errors_by_layer: dict[str, int] = {}
    for w in [setup, *windows, probe]:
        for (layer, cls), n in w["errors"].items():
            key = f"{layer}.{cls}"
            errors_by_layer[key] = errors_by_layer.get(key, 0) + n
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    tracer.dump(os.path.join(OUT, "spans", name),
                [w["spans"] for w in [setup, *windows, probe]])
    return passes, probes, metrics, errors_by_layer


# ---------------------------------------------------------------------------
# metadata


def git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "git_sha": git_sha(),
            "seed": seed, "platform": platform.platform()}


# ---------------------------------------------------------------------------


def read_spec(per_layer: dict[str, str]) -> dict:
    """BENCHMARK.json, whose metric lists must agree with the ones here."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared_e2e != END_TO_END or declared_layer != per_layer:
        raise SystemExit("BENCHMARK.json and bench/run.py list different metrics")
    return spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["grid", "solve-mix", "counting"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "certheat", "__init__.py")):
        print(f"bench: no certheat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    per_layer_units = per_layer_names()
    spec = read_spec(per_layer_units)

    import inputs
    name, seed = args.workload, args.seed
    workdir = os.path.join(OUT, "work", name)
    inputs.write_inputs(name, seed, workdir)

    import workloads
    import certheat
    if not os.path.abspath(certheat.__file__).startswith(SRC + os.sep):
        print(f"bench: certheat imported from {certheat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    refs = workloads.load_refs()
    wl = workloads.setup(name, seed, refs, workdir)

    start = time.perf_counter()
    if args.trace == 0:
        setup = setup_samples(name, seed, workdir, SETUP_PROBES_FIRST)
        passes = run_passes(wl, start + args.seconds, on_pass=lambda: setup.extend(
            setup_samples(name, seed, workdir, SETUP_PROBES_PER_PASS)))
        probes = run_probes(wl)
    else:
        passes = run_passes(wl, start + UNTRACED_SHARE * args.seconds)
        micro = micro_bench()
        passes_t, probes, traced, errors_by_layer = traced_phase(
            name, seed, refs, workdir, start + args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls = [p.wall_ns / 1e9 for p in passes]
    medians = job_medians(passes)
    solve = kind_seconds(wl, passes, "solve", SOLVE_KINDS)
    pipe = kind_seconds(wl, passes, "pipeline", PIPELINE_KINDS)
    ratio, failed_names = fail_ratio(wl, passes, probes)
    samples = {"wall_s": walls}
    if args.trace == 0:
        samples["setup_s"] = setup
    samples.update({f"solve_s.{k}": v for k, v in solve.items()
                    if any(j.kind == k and j.group == "solve" for j in wl.jobs)})
    samples.update({f"pipeline_s.{k}": v for k, v in pipe.items()
                    if any(j.kind == k and j.group == "pipeline" for j in wl.jobs)})
    stats = {k: summary(v) for k, v in samples.items()}
    values = {k: s["median"] for k, s in stats.items()}
    values["peak_rss_mb"] = peak_rss_mb
    values["fail_ratio"] = ratio

    if args.trace == 0:
        metrics = {k: (values[k], u) for k, u in END_TO_END.items()}
    else:
        values.update(traced)
        values.update(micro)
        for k in SOLVE_KINDS:
            values.setdefault(f"solve_s.{k}", 0.0)
        for k in PIPELINE_KINDS:
            values.setdefault(f"pipeline_s.{k}", 0.0)
            values[f"hardness.verifier_calls.{k}"] = statistics.median(
                p.verifier_calls.get(k, 0) for p in passes)
            values[f"hardness.growth.{k}"] = growth(wl, medians, k)
        traced_wall = statistics.median(p.wall_ns for p in passes_t)
        values["trace.overhead_ratio"] = traced_wall / statistics.median(
            p.wall_ns for p in passes) - 1
        metrics = {k: (values[k], u) for k, u in per_layer_units.items()}

    attempted = sum(len(p.job_ns) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if args.trace:
        attempted += sum(len(p.job_ns) for p in passes_t)
        failed += sum(len(p.failures) for p in passes_t)

    why = {w["name"]: w["why"] for w in spec.get("workloads", [])}
    record = {
        "workload": name, "why": why.get(name), "trace": args.trace,
        "seconds": args.seconds, "machine": machine(seed),
        "loop": "closed: one process, one thread, jobs back to back",
        "passes": len(passes), "stats": stats,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "all_values": values,
        "jobs": [{"name": j.name, "kind": j.kind, "median_s": m,
                  "samples_s": [p.job_ns[i] / 1e9 for p in passes]}
                 for i, (j, m) in enumerate(zip(wl.jobs, medians))],
        "failures": sorted({f for p in passes for f in p.failures}),
        "known_defects": probes, "fail_ratio_failed": failed_names,
        "layer_map": [{"layer_metric": a, "moves": b, "workload": c}
                      for a, b, c in LAYER_MAP],
    }
    if args.trace:
        record["errors_by_layer"] = errors_by_layer
        record["traced_passes"] = len(passes_t)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{name}-trace{args.trace}-seed{seed}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)

    units = {**END_TO_END, **per_layer_units}
    print(f"workload {name}  seed {seed}  passes {len(passes)}"
          + (f" + {len(passes_t)} traced" if args.trace else ""))
    for k in sorted(values):
        print(f"  {k:38s} {values[k]:.6g} {units[k]}")
    for pr in probes:
        print(f"  known defect {pr['name']}: {'ok' if pr['ok'] else pr['reason']}")
    for job_name, why in record["failures"]:
        print(f"  FAILED {job_name}: {why}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
