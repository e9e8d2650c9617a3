"""The benchmark's tracer wraps certheat functions by name; they must exist.

`bench/tracing.py` lists, per layer, the `(module, attribute)` pairs it
replaces by timing wrappers.  A rename in `src/` would otherwise break only
traced benchmark runs.  These tests load the tracer and change nothing
under `bench/`.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

import certheat.hardness as hardness

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_every_traced_target_resolves():
    layers = load_tracing().LAYERS
    assert layers["coeff"] and layers["quad"] and layers["prim"]
    for layer, targets in layers.items():
        for module, attr in targets:
            owner = importlib.import_module(f"certheat.{module}")
            for part in attr.split("."):
                assert hasattr(owner, part), f"{layer}: certheat.{module}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: certheat.{module}.{attr} is not callable"


def test_traced_verifier_sees_every_call(monkeypatch):
    # the benchmark's hardness.verifier_calls.* count the cells a pipeline
    # visits only if every verifier call goes through the wrapped
    # CountingInstance.accepts: one call per assignment in every pipeline
    built = []
    orig = hardness.counting_integrand

    def capture(inst):
        built.append(orig(inst))
        return built[-1]

    monkeypatch.setattr(hardness, "counting_integrand", capture)
    tracing = load_tracing()
    for module in {module for targets in tracing.LAYERS.values() for module, _ in targets}:
        importlib.import_module(f"certheat.{module}")  # the tracer wraps what is loaded
    inst = hardness.random_instance(random.Random(5), 7)
    for name in ("neumann", "disk", "interval"):
        built.clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            hardness.PIPELINES[name](inst, hardness.precision_for(inst))
        finally:
            tracer.uninstall()
        traced = tracer.totals(0, tracer.mark())["hardness.accepts"][0]
        calls = sum(fn.verifier_calls() for fn in built)
        assert traced == calls == 2 ** inst.n_vars, name
