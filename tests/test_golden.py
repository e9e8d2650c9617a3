"""`certheat solve --out` records must stay byte-identical.

Each `tests/data/golden/<name>.cfg` has its expected result file
`<name>.json` beside it.  The set covers every problem type and each
solve route: the slope-breakpoint series of piecewise-linear disk and
interval data (which forms no Fourier or sine coefficient), declared trig,
sine and spherical-harmonic modes summed in full, exact-or-rounded
constants, the half-line closed forms for affine and piecewise-linear data,
and polynomial and half-sine profiles.
"""

from pathlib import Path

import pytest

from certheat.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def test_every_golden_config_has_a_record():
    assert len(CASES) >= 9
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == CASES


@pytest.mark.parametrize("name", CASES)
def test_solve_out_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(["solve", "--config", str(GOLDEN / f"{name}.cfg"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
