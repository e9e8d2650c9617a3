"""Every config a fuzzer draws over the config grammar exits 0, 2 or 3.

`certheat solve` reads a flat key = value file.  The fuzzer writes such
files for all seven problems, well formed or with one fault: a malformed
or out-of-range number (zero, negative, decimal, exponent, huge), a bad
function spec (broken tokens, unsorted or duplicate nodes), a missing or
unknown key, a bad bits value, or a broken line.  Each runs through
`cli.main` and must return 0 (solved), 2 (config error) or 3 (violated
precondition) and never raise.  An exit 0 must print and record a bound of
at most 2^-bits, and for declared disk modes, whose solution has a closed
form, the value must lie within it.

Inputs stay away from the slow edges: r <= 99/100 and t >= 2^-20, and
above 64 bits r <= 3/4 and t >= 1/16, so each example is cheap.  The
profile is derandomised with a fixed example count, so every run checks
the same inputs.
"""

import contextlib
import io
import json
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from certheat.cli import main
from dyadic_literal import parse_literal

MP_PREC = 1300  # mpmath bits: the disk oracle resolves 2^-1024 at values up to 10^30

FUZZ = settings(max_examples=500, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# what a fault puts where a number belongs: out of range, extreme or no
# number at all; no tiny positive one, since a tiny t or alpha is the slow edge
BAD_NUMBERS = ["0", "-1", "-7/3", "0.25", "-0.5", "1e-3", "2.5e1", "1e30", "-1e30",
               "123456789012345678901234567890/7", "1/0", "abc", "", "1//2", "--1", "nan",
               "inf", "0x10", "1_000"]
BAD_ALPHAS = ["0", "-1", "0.5", "2.5e1", "1e30", "1/0", "abc", ""]
BAD_TOKENS = ["x:y", "1:", ":1", "1", "1:1:1", "1/0:1", "0:1/0", "#", "=", "pl"]

# declared disk modes and their harmonic extensions
DISK_MODES = {
    "cos 3": lambda r, th: r ** 3 * mp.cospi(3 * th),
    "sin 1 -5/2": lambda r, th: -5 * r * mp.sinpi(th) / 2,
    "const 7/3": lambda r, th: mp.mpf(7) / 3,
    "trig const=1/2, cos1=1, sin3=-1/4":
        lambda r, th: mp.mpf(1) / 2 + r * mp.cospi(th) - r ** 3 * mp.sinpi(3 * th) / 4,
    "trig cos2=1e30": lambda r, th: mp.mpf(10) ** 30 * r ** 2 * mp.cospi(2 * th),
}
# function specs: (well formed, faulty)
SPECS = {
    "disk": (sorted(DISK_MODES), ["trig cos0=1", "trig cos1=1, cos1=2", "trig foo=1",
                                  "trig cos1", "cos 0", "cos", "sin x", "const", "const 1/0",
                                  "wave 1", "", "pl 0:1 2:0", "pl 0:0 1:1"]),
    "sine": (["sine 1:1 3:1/2", "sine 2:-1e30"],
             ["sine 0:1", "sine 1/2:1", "sine 1:1 1:2", "sine", "sine 1"]),
    "profile": (["poly 0 1", "poly 1", "poly 1 -2 3/4", "poly 0 0 0 1", "sinhalf",
                 "sinhalf 3/4", "poly 1 0 0"], ["poly", "poly x", "sinhalf 1/0", "exp 1"]),
    "force": (["pl 0:1 1/2:1", "pl 1/4:0 1/2:1 3/4:0", "poly 1", "poly 0 0 1",
               "counting 3 1 2", "counting 9 3 5 2 7 1 4"],
              ["counting 3", "counting x y", "counting 1" + " 1" * 25, "counting 2 -1",
               "spike 1"]),
    "sph": (["sph 0:0:1 1:0:1/2", "sph 2:-1:3 3:3:-1/8", "sph 6:6:1 9:-4:1/3"],
            ["sph 1:2:1", "sph 1:0", "sph", "sph 0:0:1 0:0:2", "sph 0:0:x", "harm 1"]),
}
UNKNOWN = ["r0", "t0", "foo", "d", "x0", "color"]
FAULTS = ["none", "none", "none", "number", "spec", "missing", "unknown", "bits", "line"]


@st.composite
def pl_spec(draw, lo: F, hi: F, faulty: bool):
    """A ``pl`` spec on [lo, hi] through sorted nodes; a faulty one has
    nodes swapped, repeated or pushed off the domain, a broken token, or a
    single node."""
    inner = sorted(draw(st.sets(st.integers(1, 31), max_size=5)))
    xs = [lo] + [lo + (hi - lo) * k / 32 for k in inner] + [hi]
    ys = draw(st.lists(st.sampled_from(["0", "1", "-2", "1/3", "7/5", "1e30", "-1e-30"]),
                       min_size=len(xs), max_size=len(xs)))
    if (lo, hi) == (0, 2) and draw(st.integers(0, 3)):
        ys[-1] = ys[0]  # periodic at the disk's seam
    toks = [f"{x}:{y}" for x, y in zip(xs, ys)]
    if faulty:
        fault = draw(st.sampled_from(["swap", "repeat", "shift", "token", "single"]))
        i = draw(st.integers(0, len(toks) - 2))
        if fault == "swap":
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif fault == "repeat":
            toks.insert(i, toks[i])
        elif fault == "shift":
            toks[-1] = f"{hi + 1}:{ys[-1]}"
        elif fault == "token":
            toks[i] = draw(st.sampled_from(BAD_TOKENS))
        else:
            toks = toks[:1]
    return "pl " + " ".join(toks)


@st.composite
def configs(draw):
    """(config text, bits if the bits key is valid, the disk's closed form or None)."""
    problem = draw(st.sampled_from(["disk", "ball", "interval", "halfline-boundary",
                                    "halfline-force", "halfline-initial", "neumann"]))
    fault = draw(st.sampled_from(FAULTS))
    bits = draw(st.one_of(st.integers(1, 64), st.sampled_from([128, 256, 1024])))
    high = bits > 64
    radii = ["0", "1/4", "1/2", "3/4", "1/1073741824"] + ([] if high else ["9/10", "99/100"])
    times = ["1/16", "1/4", "1/2", "1"] + ([] if high else ["1/1048576", "1/1024"])
    angles = ["0", "1/3", "1/2", "-7/3", "2", "1000001/7"]

    def pick(xs):
        return draw(st.sampled_from(xs))

    def spec(kind, pl_domain=None):
        good, bad = SPECS[kind]
        if fault != "spec":
            return draw(st.one_of(st.sampled_from(good), pl_spec(*pl_domain, False))) \
                if pl_domain else pick(good)
        return draw(st.one_of(st.sampled_from(bad), pl_spec(*pl_domain, True))) \
            if pl_domain else pick(bad)

    cfg = {"problem": problem, "bits": str(bits)}
    if problem == "disk":
        cfg.update(g=spec("disk", (F(0), F(2))), r=pick(radii), theta=pick(angles))
    elif problem == "ball":
        cfg.update(g=spec("sph"), r=pick(radii + ["1"]), theta=pick(angles), phi=pick(angles))
    elif problem == "interval":
        cfg.update(g=spec("sine", (F(0), F(1))), t=pick(times),
                   x=pick(["0", "1/4", "1/2", "3/4", "1"]))
        if draw(st.booleans()):
            cfg["alpha"] = pick(["1", "1/3", "4"])
    elif problem == "halfline-boundary":
        cfg.update(h=spec("profile"), x0="1/2", x1="3/2", t=pick(times),
                   x=pick(["1/2", "3/4", "1", "3/2"]))
    elif problem == "halfline-force":
        cfg.update(f_time=spec("profile"), f_space=spec("force"), x0="1", x1="3/2",
                   t=pick(times), x=pick(["1", "5/4", "3/2"]))
    elif problem == "halfline-initial":
        cfg.update(g0=spec("force", (F(1, 4), F(3, 4))), t=pick(times),
                   x=pick(["0", "1/4", "1/2", "1", "2"]))
    else:
        cfg.update(force=spec("force"), t=pick(times))
    if problem.startswith("halfline") and draw(st.booleans()):
        cfg["alpha"] = pick(["1", "1/64", "3"])
    oracle = DISK_MODES.get(cfg["g"]) if problem == "disk" else None

    numeric = [k for k in cfg if k in ("r", "theta", "phi", "t", "x", "x0", "x1", "alpha")]
    if fault == "number":
        key = pick(numeric)
        cfg[key] = pick(BAD_ALPHAS if key == "alpha" else BAD_NUMBERS)
    elif fault == "missing":
        del cfg[pick(sorted(cfg))]
    elif fault == "unknown":
        cfg[pick(UNKNOWN)] = "1"
    elif fault == "bits":
        cfg["bits"] = pick(["0", "-4", "1.5", "x", "", "1e3"])
    elif fault == "spec" and problem != "ball" and draw(st.integers(0, 3)) == 0:
        cfg["problem"] = pick(["sphere", "DISK", ""])
    lines = [f"{k} = {v}" for k, v in cfg.items()]
    if fault == "line":
        extra = pick(["garbage", "= 3", "repeat", "UPPER", "# comment"])
        if extra == "repeat":
            lines.append(lines[0])
        elif extra == "UPPER":  # keys are case-insensitive, values are not
            lines[-1] = lines[-1].upper()
        else:
            lines.insert(draw(st.integers(0, len(lines))), extra)
    valid_bits = cfg.get("bits") == str(bits)
    return "\n".join(lines) + "\n", bits if valid_bits else None, oracle and cfg


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(case=configs())
def test_every_config_exits_0_2_or_3(work, case):
    text, bits, oracle_cfg = case
    path, out = work / "fuzz.cfg", work / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["solve", "--config", str(path), "--out", str(out)])
    assert code in (0, 2, 3), (text, code, stderr.getvalue())
    if code:
        assert not out.exists() and stderr.getvalue().count("\n") == 1, text
        return
    # only a config with a valid bits key reaches a solve
    assert bits is not None, text
    assert f"error  <= 2^-{bits}\n" in stdout.getvalue(), text
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["bits"] == record["error_exponent"] == bits, text
    if oracle_cfg:
        r, th = (F(oracle_cfg[k]) for k in ("r", "theta"))
        value = parse_literal(record["value_dyadic"])
        want = DISK_MODES[oracle_cfg["g"]](mp.mpf(r.numerator) / r.denominator,
                                           mp.mpf(th.numerator) / th.denominator)
        gap = abs(mp.mpf(value.numerator) / value.denominator - want)
        assert gap <= mp.mpf(2) ** -bits + mp.mpf(2) ** -1200, (text, gap)
