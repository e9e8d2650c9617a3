"""Spans around the public functions of certheat's layers, from outside.

``Tracer.install()`` replaces each listed function in every ``certheat.*``
namespace that binds it (and in ``hardness.PIPELINES``) by a wrapper that
records one span: name, start, end and parent.  Spans live in flat arrays
while the run lasts and are written out once at the end.  A layer's self
time is its spans' duration minus the duration of their direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# layer -> (module, attribute) of the public functions it owns
LAYERS = {
    "cli": [("cli", "main")],
    "plan": [("laplace", "plan_disk"), ("laplace", "plan_ball_truncation"),
             ("heat", "plan_interval"), ("heat", "plan_halfline_boundary"),
             ("heat", "plan_halfline_force"), ("heat", "plan_halfline_initial")],
    "series": [("laplace", "solve_disk"), ("laplace", "solve_ball"),
               ("heat", "solve_interval"), ("heat", "solve_halfline_boundary"),
               ("heat", "solve_halfline_force"), ("heat", "solve_halfline_initial"),
               ("heat", "solve_neumann_constant_force")],
    "coeff": [("laplace", "fourier_coeffs"), ("heat", "sine_coeff")],
    "quad": [("quadrature", "integrate"), ("quadrature", "int_linear_sin_pi"),
             ("quadrature", "int_linear_cos_pi")],
    "kernels": [],  # every public function of certheat.kernels, see _targets
    "prim": [("certified", fn) for fn in (
        "pi_cv", "exp_cv", "sqrt_cv", "recip_cv", "sin_pi_mul_cv",
        "cos_pi_mul_cv", "gauss_primitive_cv")],
    "hardness": [("hardness", "pipeline_neumann"), ("hardness", "pipeline_disk"),
                 ("hardness", "pipeline_interval"), ("hardness", "counting_integrand"),
                 ("hardness", "recover_count"), ("hardness", "precision_for"),
                 ("hardness", "CountingInstance.accepts")],
}

SOLVE_PROBLEM = {
    "solve_disk": "disk", "solve_ball": "ball", "solve_interval": "interval",
    "solve_halfline_boundary": "halfline-boundary",
    "solve_halfline_force": "halfline-force",
    "solve_halfline_initial": "halfline-initial",
    "solve_neumann_constant_force": "neumann",
}
PRIMS = [fn for _, fn in LAYERS["prim"]]
ERROR_CLASSES = ["PreconditionError", "QuadratureBudgetError",
                 "InsufficientPrecision", "AssertionError"]


def _resolve(module: str, attr: str):
    owner = sys.modules[f"certheat.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _targets() -> dict[object, tuple[str, str]]:
    """Original function -> (layer, span name)."""
    out = {}
    layers = dict(LAYERS)
    kmod = sys.modules["certheat.kernels"]
    layers["kernels"] = [("kernels", n) for n, f in vars(kmod).items()
                         if inspect.isfunction(f) and not n.startswith("_")
                         and f.__module__ == kmod.__name__]
    for layer, fns in layers.items():
        for module, attr in fns:
            owner, name = _resolve(module, attr)
            fn = inspect.unwrap(getattr(owner, name))
            out[fn] = (layer, f"{layer}.{attr.split('.')[-1]}")
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.coeff_keys: dict[tuple, object] = {}
        self.plan_terms = 0
        self._window_start = 0
        self._patches: list[tuple[object, object, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def mark(self) -> int:
        return len(self.nid)

    def window(self) -> dict:
        """Span totals and counters since the previous window; resets them."""
        lo, hi = self._window_start, self.mark()
        w = {"spans": [lo, hi], "totals": self.totals(lo, hi),
             "plan_terms": self.plan_terms, "coeff_distinct": len(self.coeff_keys),
             "errors": dict(self.errors)}
        self._window_start = hi
        self.plan_terms = 0
        self.coeff_keys.clear()
        self.errors.clear()
        return w

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        nid = self.name_id(name)
        nids, par, st, en, stack = self.nid, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        errors = self.errors
        after = self._after_hook(layer)

        def traced(*args, **kwargs):
            i = len(nids)
            nids.append(nid)
            par.append(stack[-1])
            en.append(0)
            stack.append(i)
            st.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                en[i] = clock()
                stack.pop()
                if not getattr(exc, "_bench_seen", False):
                    try:
                        exc._bench_seen = True
                    except AttributeError:
                        pass
                    errors[(layer, type(exc).__name__)] += 1
                raise
            en[i] = clock()
            stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after_hook(self, layer: str):
        if layer == "plan":
            def after(args, kwargs, plan):
                self.plan_terms += plan.order + 1
            return after
        if layer == "coeff":
            keys = self.coeff_keys

            def after(args, kwargs, out):
                # (problem, k, prec); the problem object is kept alive so
                # its id is not reused by a later problem
                key = (id(args[0]), *args[1:], *sorted(kwargs.items()))
                keys.setdefault(key, args[0])
            return after
        return None

    def run_span(self, name: str, fn):
        """Time fn() as a harness span (a job root); returns (out, ns)."""
        nid = self.name_id(name)
        i = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            return fn()
        finally:
            self.end[i] = time.perf_counter_ns()
            self.stack.pop()

    def last_duration(self, index: int) -> int:
        return self.end[index] - self.start[index]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        targets = _targets()
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "certheat" or n.startswith("certheat.")]
        owners = namespaces + [getattr(m, n) for m in namespaces
                               for n, v in vars(m).items()
                               if inspect.isclass(v) and v.__module__ == m.__name__]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = targets.get(inspect.unwrap(value)) if callable(value) else None
                if hit is not None:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, self.wrap(value, *hit))
        pipelines = sys.modules["certheat.hardness"].PIPELINES
        for key, value in list(pipelines.items()):
            hit = targets.get(inspect.unwrap(value))
            if hit is not None:
                self._patches.append((pipelines, key, value))
                pipelines[key] = self.wrap(value, *hit)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self, lo: int, hi: int) -> dict[str, list[int]]:
        """name -> [calls, total ns, self ns] over spans lo..hi-1."""
        acc = [[0, 0, 0] for _ in self.names]
        nid, par, st, en = self.nid, self.parent, self.start, self.end
        for i in range(lo, hi):
            d = en[i] - st[i]
            a = acc[nid[i]]
            a[0] += 1
            a[1] += d
            a[2] += d
            p = par[i]
            if p >= lo:
                acc[nid[p]][2] -= d
        return {self.names[k]: v for k, v in enumerate(acc) if v[0]}

    def dump(self, path: str, windows: list[list[int]]) -> None:
        """Spans as four little-endian arrays plus a JSON index beside them."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path + ".bin", "wb") as f:
            for arr in (self.nid, self.parent, self.start, self.end):
                arr.tofile(f)
        with open(path + ".json", "w", encoding="utf-8") as f:
            json.dump({"count": len(self.nid), "names": self.names,
                       "layout": ["name_id int32", "parent int32 (-1 root)",
                                  "start_ns int64", "end_ns int64"],
                       "byteorder": sys.byteorder, "clock_origin_ns": t0,
                       "windows": windows}, f, indent=1)
