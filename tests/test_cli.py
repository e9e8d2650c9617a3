"""Driver contract: config parsing, exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

MP_PREC = 120  # mpmath bits for this module's tests (see conftest.py)

import certheat.cli as cli
import certheat.heat as heat
import certheat.laplace as laplace
from certheat.cli import decimal_digits, main, parse_config
from certheat.dyadic import round_to
from certheat.errors import PreconditionError
from certheat.evaluable import EvaluableFunction
from certheat.quadrature import integrate
from dyadic_literal import parse_literal


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


DISK_CFG = """\
# harmonic mode on the unit circle
problem = disk
g = cos 3
r = 1/2
theta = 0
bits = 20
"""

INTERVAL_CFG = """\
problem = interval
g = sine 1:1
l = 1
alpha = 1
t = 1/4
x = 1/2
bits = 16
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_config_round_trip(tmp_path):
    path = write(tmp_path, "c.cfg", "a = 1\n# note\nb = pl 0:0 1:1\n")
    assert parse_config(path) == {"a": "1", "b": "pl 0:0 1:1"}


def test_solve_disk_harmonic_example(tmp_path, capsys):
    cfg = write(tmp_path, "d.cfg", DISK_CFG)
    out = str(tmp_path / "r.json")
    code, text, _ = run(["solve", "--config", cfg, "--out", out], capsys)
    assert code == 0
    assert "error  <= 2^-20" in text
    rec = json.loads((tmp_path / "r.json").read_text())
    got = parse_literal(rec["value_dyadic"])
    assert abs(got - Fraction(1, 8)) <= Fraction(1, 2 ** 20)
    assert rec["value_decimal"] == "0.12500000"
    assert rec["plan"]["budget"] == [["summation", 21]]


def test_solve_interval_eigenmode_example(tmp_path, capsys):
    cfg = write(tmp_path, "i.cfg", INTERVAL_CFG)
    out = str(tmp_path / "r.json")
    code, text, _ = run(["solve", "--config", cfg, "--out", out], capsys)
    assert code == 0
    rec = json.loads((tmp_path / "r.json").read_text())
    got = parse_literal(rec["value_dyadic"])
    want = mp.e ** (-mp.pi ** 2 / 4)
    assert abs(mp.mpf(got.numerator) / got.denominator - want) \
        <= mp.mpf(2) ** -16 + mp.mpf(2) ** -60


def test_bits_flag_overrides_config(tmp_path, capsys):
    cfg = write(tmp_path, "d.cfg", DISK_CFG)
    code, text, _ = run(["solve", "--config", cfg, "--bits", "12"], capsys)
    assert code == 0 and "error  <= 2^-12" in text


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; a flag given to one call, or a
    # call argparse rejects, must not reach the next call
    cfg = write(tmp_path, "d.cfg", DISK_CFG)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["solve", "--config", cfg, "--bits", "12", "--out", str(a)], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg, "--bits", "twelve"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(["solve", "--config", cfg, "--out", str(b)], capsys)[0] == 0
    assert json.loads(a.read_text())["bits"] == 12
    assert json.loads(b.read_text())["bits"] == 20
    assert cli.build_parser() is cli.build_parser()


def test_ball_config_with_d_or_r0_exits_2(tmp_path, capsys):
    ball = "problem = ball\ng = sph 0:0:1\nr = 1/2\ntheta = 0\nphi = 0\nbits = 16\n"
    assert run(["solve", "--config", write(tmp_path, "b.cfg", ball)], capsys)[0] == 0
    for extra in ("d = 3\n", "r0 = 9/10\n"):
        cfg = write(tmp_path, "b.cfg", ball + extra)
        code, text, err = run(["solve", "--config", cfg], capsys)
        assert code == 2 and text == ""
        assert err.startswith("config error: unknown keys")


@pytest.mark.parametrize("cfg, key", [(DISK_CFG, "r0 = 9/10\n"), (INTERVAL_CFG, "t0 = 1/4\n")])
def test_disk_r0_or_interval_t0_key_exits_2(tmp_path, capsys, cfg, key):
    # a solve plans at its own r or t, so no config names a planning point
    code, text, err = run(["solve", "--config", write(tmp_path, "w.cfg", cfg + key)], capsys)
    assert code == 2 and text == ""
    assert err.startswith("config error: unknown keys")


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "c.cfg", "--seed", "1"],
    ["bench", "--config", "c.cfg", "--bits", "10"],
    ["verify", "series", "--config", "c.cfg"],
    ["verify", "series", "--bits", "10"],
    ["verify", "series", "--out", "r.json"],
])
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_ball_solves_on_the_sphere(tmp_path, capsys):
    # r = 1 is the data itself: g = Y_00 = 1 / (2 sqrt(pi))
    ball = "problem = ball\ng = sph 0:0:1\nr = 1\ntheta = 1/3\nphi = 0\nbits = 40\n"
    code, text, _ = run(["solve", "--config", write(tmp_path, "b.cfg", ball)], capsys)
    assert code == 0
    got = parse_literal(text.split("value   = ")[1].split()[0])
    assert abs(mp.mpf(got.numerator) / got.denominator - 1 / (2 * mp.sqrt(mp.pi))) \
        <= mp.mpf(2) ** -40


@pytest.mark.parametrize("problem, g", [
    ("disk", "trig cos0=1"),                 # mode 0 is const
    ("disk", "trig const=1, sin0=1"),
    ("disk", "trig cos1=1, cos01=2"),        # one mode twice
    ("disk", "trig const=1, const=2"),
    ("interval", "sine 1:1 1:5"),
    ("ball", "sph 0:0:1 0:0:2"),
])
def test_mode_zero_or_a_repeated_mode_exits_2(tmp_path, capsys, problem, g):
    where = {"disk": "r = 1/2\ntheta = 0\n", "interval": "t = 1/4\nx = 1/2\n",
             "ball": "r = 1/2\ntheta = 0\nphi = 0\n"}[problem]
    cfg = write(tmp_path, "m.cfg", f"problem = {problem}\ng = {g}\n{where}bits = 10\n")
    code, text, err = run(["solve", "--config", cfg], capsys)
    assert code == 2 and text == ""
    assert err.startswith("config error:")


def test_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.cfg", "nonsense without equals\n")
    assert run(["solve", "--config", bad], capsys)[0] == 2

    unk = write(tmp_path, "unk.cfg", DISK_CFG + "color = blue\n")
    assert run(["solve", "--config", unk], capsys)[0] == 2

    noprob = write(tmp_path, "np.cfg", "bits = 10\n")
    assert run(["solve", "--config", noprob], capsys)[0] == 2

    dup = write(tmp_path, "dup.cfg", "problem = disk\nproblem = disk\n")
    assert run(["solve", "--config", dup], capsys)[0] == 2

    assert run(["solve"], capsys)[0] == 2   # no config at all

    oob = write(tmp_path, "oob.cfg",
                "problem = disk\ng = cos 2\nr = 1\ntheta = 0\nbits = 10\n")
    code, _, err = run(["solve", "--config", oob], capsys)
    assert code == 3
    assert "radius r must lie in [0,1)" in err  # names the violated precondition
    early = write(tmp_path, "early.cfg", INTERVAL_CFG.replace("t = 1/4", "t = 0"))
    code, _, err = run(["solve", "--config", early], capsys)
    assert code == 3 and "t must be positive" in err

    assert run(["verify", "bogus"], capsys)[0] == 2


@pytest.mark.parametrize("g, code", [
    ("pl 0:0 1:1 2:1/2", 3),                          # g(0) - g(2) = -1/2
    ("pl 0:0 1:1 2:-1/262144", 0),                    # a gap of exactly 2^-18
    ("pl 0:0 1:1 2:-4194305/1099511627776", 3),       # 2^-18 + 2^-40
    ("pl 0:1/3 1:1 2:1/3", 0),                        # periodic
    ("trig const=1, cos2=1/2, sin5=-3", 0),           # periodic by construction
])
def test_disk_seam_check_refuses_gaps_above_2_to_the_minus_18(tmp_path, capsys, g, code):
    cfg = write(tmp_path, "seam.cfg",
                f"problem = disk\ng = {g}\nr = 1/2\ntheta = 1/3\nbits = 20\n")
    got, _, err = run(["solve", "--config", cfg], capsys)
    assert got == code, err
    if code:
        assert "not periodic at the seam" in err


def test_disk_reduction_data_passes_the_seam_check():
    # no config writes reduction data; its closure makes the seam's jump
    # exactly 0 even where the profile's ends differ
    from certheat.evaluable import piecewise_linear_fn

    h = piecewise_linear_fn([(Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(-1)),
                             (Fraction(1), Fraction(2))])
    g = laplace.DiskReduction(Fraction(1, 2), Fraction(3, 4), h)
    p = laplace.DiskProblem(g, Fraction(1, 2))
    assert all(J == 0 for _, J, _ in p.jumps)


def test_interval_rate_too_small_to_decay_exits_3(tmp_path, capsys):
    # at alpha t / L^2 = 2^-81, e^{-pi^2 rate} rounds up to 1 at the decay
    # bound's precision: no mode count can be certified, so it is refused
    text = ("problem = interval\ng = pl 0:0 1/2:1 1:0\nalpha = 1/1208925819614629174706176\n"
            "t = 1/2\nx = 1/3\nbits = 24\n")
    code, out, err = run(["solve", "--config", write(tmp_path, "slow.cfg", text)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("precondition violated:") and "1/2417851639229258349412352" in err


@pytest.mark.parametrize("text", [
    "problem = halfline-initial\ng0 = poly 1 1 1\nt = 0\nx = 1/2\nbits = 16\n",
    "problem = halfline-force\nf_time = poly 1\nf_space = poly 0 0 1\n"
    "x0 = 3\nx1 = 4\nt = 1/2\nx = 7/2\nbits = 16\n",
])
def test_halfline_space_data_without_pieces_exits_3(tmp_path, capsys, text):
    # the half-line closed forms sum over the points of linear pieces; a
    # quadratic has none, which is a precondition, not a solver failure
    code, out, err = run(["solve", "--config", write(tmp_path, "q.cfg", text)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("precondition violated:") and "piecewise linear" in err


def test_trailing_zero_coefficients_keep_the_degree(tmp_path, capsys):
    # poly 1 1 0 is the affine 1 + y, so the half-line closed form takes it
    text = "problem = halfline-initial\ng0 = {}\nt = 1/2\nx = 1/2\nbits = 16\n"
    values = []
    for spec in ("poly 1 1", "poly 1 1 0"):
        out = tmp_path / "r.json"
        cfg = write(tmp_path, "p.cfg", text.format(spec))
        assert run(["solve", "--config", cfg, "--out", str(out)], capsys)[0] == 0
        values.append(json.loads(out.read_text())["value_dyadic"])
    assert values[0] == values[1]


def test_internal_error_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    def broken(cfg, n):
        raise AssertionError("solver exceeded its 2^-20 budget")

    monkeypatch.setitem(cli.SOLVERS, "disk", broken)
    code, text, err = run(["solve", "--config", write(tmp_path, "d.cfg", DISK_CFG)],
                          capsys)
    assert code == 1 and text == ""
    assert err == "internal error: solver exceeded its 2^-20 budget\n"


def test_bench_family_csv(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg",
                "pipeline = neumann\nsizes = 4..7\nseed = 1\nrepeats = 1\n")
    code, text, _ = run(["bench", "--config", cfg], capsys)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "pipeline,n_vars,precision_bits,wall_ms,value,count,ok"
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == "neumann" and int(cells[1]) == 4 + i
        assert cells[-1] == "true"


def test_bench_empty_family(tmp_path, capsys):
    cfg = write(tmp_path, "e.cfg", "pipeline = disk\nsizes = none\n")
    code, text, _ = run(["bench", "--config", cfg], capsys)
    assert code == 0
    assert text == "pipeline,n_vars,precision_bits,wall_ms,value,count,ok\n"


def test_bench_explicit_instance(tmp_path, capsys):
    cfg = write(tmp_path, "x.cfg",
                "pipeline = interval\nweights = 1 2\ntarget = 3\nrepeats = 1\n")
    code, text, _ = run(["bench", "--config", cfg], capsys)
    assert code == 0
    row = text.strip().split("\n")[1].split(",")
    assert row[:3] == ["interval", "2", "10"] and row[5:] == ["1", "true"]


def test_bench_rejects_unknown_pipeline(tmp_path, capsys):
    # measure_blowup refuses the name, with or without an instance to run
    for sizes in ("4..5", "none"):
        cfg = write(tmp_path, "p.cfg", f"pipeline = sphere\nsizes = {sizes}\n")
        code, text, err = run(["bench", "--config", cfg], capsys)
        assert (code, text) == (2, "") and "unknown pipeline 'sphere'" in err


@pytest.mark.parametrize("line, key", [
    ("sizes = 0", "sizes"), ("sizes = -2", "sizes"), ("sizes = 3 0 5", "sizes"),
    ("sizes = -1..3", "sizes"),
    ("sizes = 4\nmax_weight = 0", "max_weight"), ("sizes = 4\nrepeats = 0", "repeats"),
])
def test_bench_refuses_counts_below_one(tmp_path, capsys, line, key):
    # an instance needs an item and a positive weight, and a median a run
    cfg = write(tmp_path, "b.cfg", f"pipeline = neumann\n{line}\n")
    code, text, err = run(["bench", "--config", cfg], capsys)
    assert (code, text) == (2, "") and err.startswith(f"config error: {key}: ")


def test_bench_records_sizes_past_the_cap_as_not_ok(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg", "pipeline = neumann\nsizes = 25\nrepeats = 1\n")
    code, text, _ = run(["bench", "--config", cfg], capsys)
    row = text.strip().split("\n")[1]
    assert code == 0 and row.startswith("neumann,25,56,") and row.endswith(",,,false")


PL_KEYS = {
    "disk g": "problem = disk\ng = {}\nr = 1/2\ntheta = 0\n",
    "interval g": "problem = interval\ng = {}\nt = 1/4\nx = 1/2\n",
    "g0": "problem = halfline-initial\ng0 = {}\nt = 1/2\nx = 1/4\n",
    "f_space": "problem = halfline-force\nf_time = poly 1\nf_space = {}\n"
               "x0 = 1/2\nx1 = 1\nt = 5/8\nx = 3/4\n",
    "force": "problem = neumann\nforce = {}\nt = 1\n",
}


@pytest.mark.parametrize("spec", ["pl 0:0 0:1 2:0", "pl 2:0 0:0"])
@pytest.mark.parametrize("key", sorted(PL_KEYS))
def test_pl_nodes_that_do_not_increase_are_a_config_error(tmp_path, capsys, key, spec):
    cfg = write(tmp_path, "c.cfg", PL_KEYS[key].format(spec) + "bits = 10\n")
    code, text, err = run(["solve", "--config", cfg], capsys)
    assert (code, text) == (2, "")
    assert err.startswith("config error: pl: nodes must be strictly increasing") \
        and err.rstrip().endswith(repr(spec))


def test_result_file_determinism(tmp_path, capsys):
    cfg = write(tmp_path, "d.cfg", DISK_CFG)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["solve", "--config", cfg, "--out", a], capsys)[0] == 0
    assert run(["solve", "--config", cfg, "--out", b], capsys)[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_cli_reports_checks(capsys):
    code, text, _ = run(["verify", "series"], capsys)
    assert code == 0
    lines = text.strip().split("\n")
    assert all(l.startswith("PASS series/") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")


def assert_cli_import_skips(module, importing="certheat.cli"):
    """A fresh `import certheat.cli` (or of `importing`) leaves `module` out
    of sys.modules."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import sys, {importing}\n"
            f"raise SystemExit({module!r} in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, (module, importing, run.stderr)


def test_import_leaves_the_verify_suites_out():
    # only `certheat verify` needs the self-check suites; every other
    # process skips their import
    assert_cli_import_skips("certheat.verify")


def test_import_leaves_statistics_out():
    # only the blowup benchmark's median needs statistics, and its import
    # costs start-up time in every other process
    assert_cli_import_skips("statistics")


def test_import_leaves_the_counting_reductions_out():
    # only counting data and `certheat bench` need certheat.hardness; a
    # solve of ordinary data skips its import
    assert_cli_import_skips("certheat.hardness")


@pytest.mark.parametrize("importing", ["certheat.cli", "certheat.hardness"])
def test_import_leaves_dataclasses_inspect_and_argparse_out(importing):
    # no certheat class is a dataclass (whose import pulls in inspect, ast,
    # dis and tokenize), argparse loads only when main builds its parser,
    # and json only when a solve writes its result file
    for module in ("dataclasses", "inspect", "argparse", "json"):
        assert_cli_import_skips(module, importing)


def test_halfline_solve_records_plan_params(tmp_path, capsys):
    cfg = write(tmp_path, "h.cfg", "\n".join([
        "problem = halfline-boundary", "h = poly 0 1", "alpha = 1",
        "x0 = 1/2", "x1 = 3/2", "t = 1/2", "x = 1", "bits = 10", ""]))
    out = str(tmp_path / "r.json")
    code, _, _ = run(["solve", "--config", cfg, "--out", out], capsys)
    assert code == 0
    rec = json.loads((tmp_path / "r.json").read_text())
    # h(s) = s: Taylor degree 1 with an exactly zero remainder; the plan
    # block holds the order and the budget and nothing else
    assert rec["plan"]["order"] == 1 and sorted(rec["plan"]) == ["budget", "order"]
    labels = [b[0] for b in rec["plan"]["budget"]]
    assert labels == ["taylor", "erfc tail", "assembly"]


def test_neumann_counting_force(tmp_path, capsys):
    cfg = write(tmp_path, "n.cfg",
                "problem = neumann\nforce = counting 3 1 2\nt = 1\nbits = 12\n")
    out = str(tmp_path / "r.json")
    code, _, _ = run(["solve", "--config", cfg, "--out", out], capsys)
    assert code == 0
    rec = json.loads((tmp_path / "r.json").read_text())
    got = parse_literal(rec["value_dyadic"])
    assert got == Fraction(1, 16)


def test_golden_records_print_round_to_literals():
    # every recorded value keeps the literal grammar and reads back as the
    # literal round_to prints for its value at its own fractional bits
    records = sorted((Path(__file__).parent / "data" / "golden").glob("*.json"))
    assert records
    for path in records:
        text = json.loads(path.read_text())["value_dyadic"]
        pcs = len(text.split(".")[1])
        assert round_to(parse_literal(text), pcs).literal() == text, path.name


def test_decimal_digit_budget():
    # ceil(n log10 2) + 1: never prints more precision than certified
    assert decimal_digits(20) == 8
    assert decimal_digits(16) == 6
    assert decimal_digits(1) == 2
    assert decimal_digits(30) == 11


def test_disk_const_data_takes_the_closed_form(tmp_path, capsys):
    # affine boundary data integrates in closed form; u = 1 exactly
    cfg = write(tmp_path, "const.cfg",
                "problem = disk\ng = const 1\nr = 1/2\ntheta = 0\nbits = 12\n")
    out = tmp_path / "const.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())
    assert record["error_exponent"] >= 12
    value = parse_literal(record["value_dyadic"])
    assert abs(value - 1) <= Fraction(1, 2 ** 12)


def test_disk_large_amplitude_keeps_the_bound(tmp_path, capsys):
    # |g| reaches 1e8: the coefficient precision widens by log2 of the sup
    # bound, as the interval solver's does
    cfg = write(tmp_path, "amp.cfg", "problem = disk\ng = pl 0:1e8 1:-1e8 2:1e8\n"
                "r = 9/10\ntheta = 0\nbits = 30\n")
    out = tmp_path / "amp.json"
    code, text, _ = run(["solve", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0 and "error  <= 2^-30" in text
    got = parse_literal(json.loads(out.read_text())["value_dyadic"])
    r = mp.mpf(9) / 10

    def integrand(rho):  # Poisson kernel at (r, 0) times the data, rho in pi-units
        g = 10 ** 8 * (1 - 2 * rho) if rho <= 1 else 10 ** 8 * (2 * rho - 3)
        return (1 - r * r) / (1 - 2 * r * mp.cos(mp.pi * rho) + r * r) * g

    want = mp.quad(integrand, [0, 1, 2]) / 2
    assert abs(mp.mpf(got.numerator) / got.denominator - want) \
        <= mp.mpf(2) ** -30 + mp.mpf(10) ** -25


def _oracle_value(tmp_path, capsys, name, text, bits):
    """Solve through the CLI (exit 0 required) and return the record's value."""
    cfg = write(tmp_path, f"{name}.cfg", text + f"bits = {bits}\n")
    out = tmp_path / f"{name}.json"
    code, _, _ = run(["solve", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    record = json.loads(out.read_text())
    assert record["error_exponent"] >= bits
    got = parse_literal(record["value_dyadic"])
    return mp.mpf(got.numerator) / got.denominator


@pytest.mark.parametrize("bits", [20, 40])
def test_halfline_force_small_alpha_keeps_the_bound(tmp_path, capsys, bits):
    # alpha = 1/256: once failed its assembly check, exit 1
    got = _oracle_value(tmp_path, capsys, "force", "problem = halfline-force\n"
                        "f_time = poly 1\nf_space = pl 0:1 1/4:1\nalpha = 1/256\n"
                        "x0 = 1/2\nx1 = 3/4\nt = 1\nx = 3/4\n", bits)
    with mp.workdps(30):
        x, b, c = mp.mpf(3) / 4, mp.mpf(1) / 4, mp.mpf(1) / 64  # c = 4 alpha

        def v(tau):  # Dirichlet kernel mass of [0, b] at x after time tau
            r = mp.sqrt(c * tau)
            return (mp.erf(x / r) - mp.erf((x - b) / r)
                    - mp.erf((x + b) / r) + mp.erf(x / r)) / 2

        want = mp.quad(v, [0, mp.mpf(1) / 4, 1])
        assert abs(got - want) <= mp.mpf(2) ** -bits


def test_halfline_initial_small_alpha_keeps_the_bound(tmp_path, capsys):
    # alpha = 1/64 at bits 24: once failed its assembly check, exit 1
    got = _oracle_value(tmp_path, capsys, "initial", "problem = halfline-initial\n"
                        "g0 = pl 1/4:0 1/2:1 3/4:0\nalpha = 1/64\nt = 1/2\nx = 7/8\n", 24)
    with mp.workdps(30):
        x, c = mp.mpf(7) / 8, mp.mpf(1) / 32  # c = 4 alpha t

        def integrand(y):
            tent = 1 - abs(4 * y - 2)
            return tent * (mp.exp(-(x - y) ** 2 / c)
                           - mp.exp(-(x + y) ** 2 / c)) / mp.sqrt(mp.pi * c)

        want = mp.quad(integrand, [mp.mpf(1) / 4, mp.mpf(1) / 2, mp.mpf(3) / 4])
        assert abs(got - want) <= mp.mpf(2) ** -24


# ---------------------------------------------------------------------------
# radii near the circle and times near 0: each solve plans at its own point

EDGE_DISK = [(0, 0), (Fraction(1, 2), 1), (1, 0), (Fraction(3, 2), -1), (2, 0)]
EDGE_INTERVAL = [(0, 1), (Fraction(1, 4), -1), (Fraction(3, 4), 2), (1, Fraction(1, 2))]


def _pl(nodes):
    return "pl " + " ".join(f"{x}:{y}" for x, y in nodes)


def _mp_nodes(nodes):
    return [(mp.mpf(Fraction(x).numerator) / Fraction(x).denominator,
             mp.mpf(Fraction(y).numerator) / Fraction(y).denominator) for x, y in nodes]


def poisson_oracle(nodes, r, theta):
    """(1/2) integral over [0, 2] (pi-units) of the Poisson kernel at
    (r, theta) times the linear interpolant of nodes, by quadrature cut at
    the nodes and ever closer around theta, where the kernel peaks."""
    pts = _mp_nodes(nodes)

    def g(rho):
        for (a, ya), (b, yb) in zip(pts, pts[1:]):
            if rho <= b:
                return ya + (rho - a) * (yb - ya) / (b - a)
        return pts[-1][1]

    def integrand(rho):
        return (1 - r * r) / (1 - 2 * r * mp.cos(mp.pi * (theta - rho)) + r * r) * g(rho)

    near = [theta + sign * mp.mpf(10) ** -j for j in range(1, 6) for sign in (-1, 1)]
    cuts = sorted({a for a, _ in pts} | {theta} | {c for c in near if 0 < c < 2})
    return mp.quad(integrand, cuts) / 2


def image_oracle(nodes, t, x):
    """u(t, x) on [0, 1] with alpha = 1 by the method of images: the odd,
    2-periodic extension of the data against the free heat kernel, in closed
    form (erf and exp) on each linear piece of each image."""
    s = mp.sqrt(4 * t)

    def piece(a, ya, b, yb, c):  # integral of the line against e^{-(y-c)^2/s^2} / (s sqrt pi)
        slope = (yb - ya) / (b - a)
        return (ya + slope * (c - a)) * (mp.erf((b - c) / s) - mp.erf((a - c) / s)) / 2 \
            + slope * s / (2 * mp.sqrt(mp.pi)) * (mp.exp(-((a - c) / s) ** 2)
                                                 - mp.exp(-((b - c) / s) ** 2))

    pts = _mp_nodes(nodes)
    return sum(piece(a, ya, b, yb, x + 2 * m) - piece(a, ya, b, yb, -x + 2 * m)
               for m in range(-3, 4) for (a, ya), (b, yb) in zip(pts, pts[1:]))


@pytest.mark.parametrize("bits", [16, 64])
@pytest.mark.parametrize("problem, point", [
    ("disk", Fraction(19, 20)), ("disk", Fraction(99, 100)), ("disk", Fraction(999, 1000)),
    ("interval", Fraction(1, 8)), ("interval", Fraction(1, 2 ** 10)),
    ("interval", Fraction(1, 2 ** 20)),
])
def test_points_near_the_edges_solve_within_their_oracles(tmp_path, capsys, monkeypatch,
                                                          problem, point, bits):
    # r above and t below the old planning window (9/10 and 1/4); the plan
    # order in --out is the order the solve summed
    summed = []
    for module, name, at in ((laplace, "_solve_disk_pl", 4), (heat, "_solve_interval_pl", 3)):
        def record(*args, _orig=getattr(module, name), _at=at):
            summed.append(args[_at])
            return _orig(*args)
        monkeypatch.setattr(module, name, record)
    theta = x = Fraction(1, 3)
    if problem == "disk":
        text = f"problem = disk\ng = {_pl(EDGE_DISK)}\nr = {point}\ntheta = {theta}\n"
    else:
        text = f"problem = interval\ng = {_pl(EDGE_INTERVAL)}\nt = {point}\nx = {x}\n"
    got = _oracle_value(tmp_path, capsys, problem, text, bits)
    order = json.loads((tmp_path / f"{problem}.json").read_text())["plan"]["order"]
    assert summed == [order]
    with mp.workdps(40):
        p = mp.mpf(point.numerator) / point.denominator
        third = mp.mpf(1) / 3
        want = poisson_oracle(EDGE_DISK, p, third) if problem == "disk" \
            else image_oracle(EDGE_INTERVAL, p, third)
        assert abs(got - want) <= mp.mpf(2) ** -bits


# ---------------------------------------------------------------------------
# every input a config can express declares its structure


def declares_structure(fn):
    return (fn.trig_poly is not None or fn.sine_modes is not None
            or fn.sph_modes is not None or fn.pieces is not None
            or (fn.linear_segments is not None and fn.eval_exact is not None)
            or fn.poly_coeffs is not None)


@pytest.mark.parametrize("parse, spec", [
    (cli.parse_boundary_fn, "cos 2 1/3"),
    (cli.parse_boundary_fn, "sin 1"),
    (cli.parse_boundary_fn, "const 3/4"),
    (cli.parse_boundary_fn, "trig const=1, cos2=1/2, sin3=-1"),
    (cli.parse_boundary_fn, "pl 0:0 1/2:1 2:0"),
    (lambda spec: cli.parse_interval_fn(spec, Fraction(1)), "sine 1:1 3:-1/2"),
    (lambda spec: cli.parse_interval_fn(spec, Fraction(1)), "pl 0:0 1/2:1 1:0"),
    (cli.parse_profile, "poly 1 1 1"),
    (cli.parse_profile, "sinhalf 2"),
    (cli.parse_force_fn, "pl 0:1 1/4:1"),
    (cli.parse_force_fn, "poly 0 0 1"),
    (cli.parse_force_fn, "counting 5 2 3"),
    (cli.parse_sph_fn, "sph 0:0:1 2:-1:1/2"),
])
def test_every_parsed_input_declares_its_structure(parse, spec):
    assert declares_structure(parse(spec)), spec


def test_structureless_data_is_refused():
    def bare(hi):
        return EvaluableFunction(domain=(Fraction(0), Fraction(hi)), sup_bound=Fraction(1))

    assert not declares_structure(bare(2))
    with pytest.raises(PreconditionError, match="trig modes or linear pieces"):
        laplace.DiskProblem(bare(2), Fraction(1, 2))
    with pytest.raises(PreconditionError, match="sine modes or linear pieces"):
        heat.IntervalHeatProblem(Fraction(1), Fraction(1), bare(1), Fraction(1, 4))
    with pytest.raises(PreconditionError, match="exact structure"):
        integrate(bare(1), 0, 1, 10)
    # half-line time profiles are read as their polynomial coefficients or
    # sine modes; bare data and pieces on [0, 2] declare neither
    window, space = (Fraction(1), Fraction(3, 2)), cli.parse_force_fn("pl 0:1 1/2:1")
    for profile in (bare(2), cli.parse_force_fn("pl 0:0 1:1 2:0")):
        with pytest.raises(PreconditionError, match="boundary profile must declare"):
            heat.HalflineBoundaryProblem(Fraction(1), profile, window)
        with pytest.raises(PreconditionError, match="time factor must declare"):
            heat.HalflineForceProblem(Fraction(1), profile, space, window)
