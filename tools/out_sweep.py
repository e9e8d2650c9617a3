"""Record and compare what ``certheat solve`` and ``certheat bench`` print and
write over a fixed sweep of configs, so that a change can be checked to keep
every output byte.

    python tools/out_sweep.py record SRC RECORD.json
    python tools/out_sweep.py compare OLD.json NEW.json

``record`` imports certheat from the tree SRC (the directory that holds
``certheat/``, e.g. ``src`` of a checkout) and runs ``cli.main`` in this one
process on every config of the sweep set:

- every ``tests/data/golden/*.cfg`` at its own bits and at 8, 24 and 64;
- every ``all_reference_cfgs()`` config of ``bench/inputs.py`` at 16, 32
  and 64 bits, and each half-line one also at 128 and 256 bits, where the
  Taylor degree and the order of the repeated erfc integrals are largest;
- ``certheat bench`` on each counting pipeline at seeds 1, 2 and 3, sizes
  1..12 and one repeat, with the ``wall_ms`` column blanked, so that the
  certified values and counts the reductions give are kept byte for byte.

For each it keeps the exit code, stdout and the bytes of the ``--out`` file
(null when none was written).  The configs come from the repository this
script lives in, whatever SRC is, so two trees are swept over the same set.
``compare`` names each config whose exit code, stdout or ``--out`` bytes
differ between two records, and exits 1 if any does or if the two records
hold different configs.  Standard library only; one process records the
1,647 configs in a few seconds.
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
BENCH_PIPELINES = ("neumann", "disk", "interval")
BENCH_SEEDS = (1, 2, 3)


def sweep_set() -> list[tuple[str, str, list[str]]]:
    """(id, config text, the subcommand and its flags past --config and
    --out) per config."""
    out = []
    for name in sorted(f for f in os.listdir(GOLDEN) if f.endswith(".cfg")):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
            text = f.read()
        stem = name[:-len(".cfg")]
        out += [(f"golden/{stem}@{b or 'own'}", text,
                 ["solve", *(["--bits", str(b)] if b else [])]) for b in (None, *GOLDEN_BITS)]
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import inputs  # imports nothing from certheat
    for i, cfg in enumerate(inputs.all_reference_cfgs()):
        text = inputs.cfg_text(cfg)
        bits = REFERENCE_BITS
        if cfg["problem"].startswith("halfline"):
            bits += HALFLINE_BITS
        out += [(f"reference/{i}@{b} {inputs.ref_key(cfg)}", text, ["solve", "--bits", str(b)])
                for b in bits]
    for pipeline in BENCH_PIPELINES:
        out += [(f"bench/{pipeline}@seed{seed}",
                 f"pipeline = {pipeline}\nsizes = 1..12\nseed = {seed}\nrepeats = 1\n", ["bench"])
                for seed in BENCH_SEEDS]
    return out


def blank_wall_ms(csv: str) -> str:
    """The bench CSV with its one timed column emptied."""
    rows = [line.split(",") for line in csv.splitlines()]
    col = rows[0].index("wall_ms")
    for row in rows[1:]:
        row[col] = ""
    return "".join(",".join(row) + "\n" for row in rows)


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
        for key, text, (command, *flags) in sweep_set():
            with open(cfg_path, "w", encoding="utf-8") as f:
                f.write(text)
            if os.path.exists(out_path):
                os.remove(out_path)
            argv = [command, "--config", cfg_path, "--out", out_path, *flags]
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
                if command == "bench":
                    written = blank_wall_ms(written)
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
