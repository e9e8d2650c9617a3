"""Record and compare what ``certheat solve`` prints and writes over a fixed
sweep of configs, so that a change can be checked to keep every output byte.

    python tools/out_sweep.py record SRC RECORD.json
    python tools/out_sweep.py compare OLD.json NEW.json

``record`` imports certheat from the tree SRC (the directory that holds
``certheat/``, e.g. ``src`` of a checkout) and runs ``cli.main`` in this one
process on every config of the sweep set:

- every ``tests/data/golden/*.cfg`` at its own bits and at 8, 24 and 64;
- every ``all_reference_cfgs()`` config of ``bench/inputs.py`` at 16, 32
  and 64 bits, and each half-line one also at 128 and 256 bits, where the
  Taylor degree and the order of the repeated erfc integrals are largest.

For each it keeps the exit code, stdout and the bytes of the ``--out`` file
(null when none was written).  The configs come from the repository this
script lives in, whatever SRC is, so two trees are swept over the same set.
``compare`` names each config whose exit code, stdout or ``--out`` bytes
differ between two records, and exits 1 if any does or if the two records
hold different configs.  Standard library only; one process records the
1,638 configs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")
GOLDEN_BITS = (8, 24, 64)
REFERENCE_BITS = (16, 32, 64)
HALFLINE_BITS = (128, 256)


def sweep_set() -> list[tuple[str, str, int | None]]:
    """(id, config text, bits; None for the config's own) per config."""
    out = []
    for name in sorted(f for f in os.listdir(GOLDEN) if f.endswith(".cfg")):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
            text = f.read()
        stem = name[:-len(".cfg")]
        out += [(f"golden/{stem}@{b or 'own'}", text, b) for b in (None, *GOLDEN_BITS)]
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import inputs  # imports nothing from certheat
    for i, cfg in enumerate(inputs.all_reference_cfgs()):
        text = inputs.cfg_text(cfg)
        bits = REFERENCE_BITS
        if cfg["problem"].startswith("halfline"):
            bits += HALFLINE_BITS
        out += [(f"reference/{i}@{b} {inputs.ref_key(cfg)}", text, b) for b in bits]
    return out


def record(src: str, path: str) -> int:
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import certheat
    from certheat.cli import main
    if not os.path.abspath(certheat.__file__).startswith(src + os.sep):
        print(f"out_sweep: certheat imported from {certheat.__file__}, not {src}",
              file=sys.stderr)
        return 2
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out_path = os.path.join(tmp, "in.cfg"), os.path.join(tmp, "out.json")
        for key, text, bits in sweep_set():
            with open(cfg_path, "w", encoding="utf-8") as f:
                f.write(text)
            if os.path.exists(out_path):
                os.remove(out_path)
            argv = ["solve", "--config", cfg_path, "--out", out_path]
            if bits is not None:
                argv += ["--bits", str(bits)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # the argument parser exits by itself
                    code = exc.code
            written = None
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as f:
                    written = f.read()
            rows[key] = {"exit": code, "stdout": stdout.getvalue(), "out": written}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(rows, f, indent=1, sort_keys=True)
    print(f"out_sweep: {len(rows)} configs recorded from {src}")
    return 0


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as f:
        old = json.load(f)
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)
    bad = sorted(set(old) ^ set(new))
    for key in bad:
        print(f"only in {'old' if key in old else 'new'}: {key}")
    differ = [k for k in sorted(set(old) & set(new)) if old[k] != new[k]]
    for key in differ:
        fields = [f for f in ("exit", "stdout", "out") if old[key][f] != new[key][f]]
        print(f"differs ({', '.join(fields)}): {key}")
    print(f"out_sweep: {len(differ)} of {len(set(old) & set(new))} configs differ, "
          f"{len(bad)} in one record only")
    return 1 if differ or bad else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "record":
        return record(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
