"""The benchmark's tracer wraps certheat functions by name; they must exist.

`bench/tracing.py` lists, per layer, the `(module, attribute)` pairs it
replaces by timing wrappers.  A rename in `src/` would otherwise break only
traced benchmark runs.  This test reads the list and changes nothing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module.LAYERS


def test_every_traced_target_resolves():
    layers = load_layers()
    assert layers["coeff"] and layers["quad"] and layers["prim"]
    for layer, targets in layers.items():
        for module, attr in targets:
            owner = importlib.import_module(f"certheat.{module}")
            for part in attr.split("."):
                assert hasattr(owner, part), f"{layer}: certheat.{module}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: certheat.{module}.{attr} is not callable"
