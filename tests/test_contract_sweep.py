"""The 2^-n contract over inputs a config can express, for all seven problems.

Each example builds a config as `certheat solve` would read it and solves it.
The solve must either return a bound within 2^-n or stop with a clean
PreconditionError (exit 3); any other exception or a looser bound fails.
The ball and the half-line initial data accept every input they draw, and
their values must also sit within that bound of an mpmath oracle, as must
the values of declared modes on the disk and the interval (closed forms).
The disk and the interval must solve every input they draw: radii in
[0, 1) and times down to 2^-20.  Amplitude, alpha, window, t, r/x and bits
all vary, and so does the ball's harmonic: every (l, m) with l <= 16.  The
half-line problems are also drawn at alpha of 2^-72, 2^-80 and 2^-100 in a
test of their own, since the shared alpha draw must solve on the interval.
The profile is derandomised with a fixed example count, so every run checks
the same inputs.
"""

from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from certheat.cli import SOLVERS, parse_boundary_fn, parse_interval_fn
from certheat.errors import PreconditionError
from certheat.heat import IntervalHeatProblem, plan_interval, solve_interval
from certheat.laplace import DiskProblem, plan_disk, solve_disk

SWEEP = settings(max_examples=150, derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def frac(lo: int, hi: int, den: int):
    """Rationals k/den for lo <= k <= hi."""
    return st.integers(lo, hi).map(lambda k: F(k, den))


bits = st.integers(2, 64)
amplitude = st.sampled_from([F(1), F(3, 4), F(-5, 2), F(1, 1000), F(2 ** 10), F(10 ** 8)])
alpha = st.sampled_from([F(1, 256), F(1, 64), F(1, 3), F(1), F(4)])


def check(cfg: dict, oracle=None, solves: bool = False) -> None:
    """Solve cfg; with an oracle, every input must solve and the value
    must lie within its bound of oracle(cfg) (within 10^-30 of the truth);
    with solves, every input must solve."""
    cfg = {k: str(v) for k, v in cfg.items()}
    n = int(cfg["bits"])
    try:
        value, _ = SOLVERS[cfg["problem"]](cfg, n)
    except PreconditionError:
        assert oracle is None and not solves, cfg
        return
    within(value, n, cfg, oracle)


def within(value, n: int, cfg: dict, oracle=None) -> None:
    """value's bound is at most 2^-n and, with an oracle, holds oracle(cfg)."""
    assert value.err_fraction() <= F(1, 2 ** n), cfg
    if oracle is not None:
        with mp.workdps(50):
            gap = abs(q(value.value_fraction()) - oracle(cfg))
            assert gap <= q(value.err_fraction()) + mp.mpf(10) ** -30, (cfg, gap)


def q(x) -> mp.mpf:
    f = F(x)
    return mp.mpf(f.numerator) / f.denominator


def legendre(l: int, m: int, th: mp.mpf) -> mp.mpf:
    """P_l^m(cos th) with the Condon-Shortley phase, by the upward recurrence."""
    x = mp.cos(th)
    prev, cur = mp.mpf(0), (-1) ** m * mp.fac2(2 * m - 1) * mp.sin(th) ** m
    for ll in range(m + 1, l + 1):
        prev, cur = cur, ((2 * ll - 1) * x * cur - (ll + m - 1) * prev) / (ll - m)
    return cur


def ball_oracle(cfg: dict) -> mp.mpf:
    """Sum of c r^l Y_{l,m}, real orthonormal harmonics, angles in pi-units."""
    r, th, ph = q(cfg["r"]), mp.pi * q(cfg["theta"]), mp.pi * q(cfg["phi"])
    out = mp.mpf(0)
    for tok in cfg["g"].split()[1:]:
        l, m, c = tok.split(":")
        l, m, am = int(l), int(m), abs(int(m))
        y = mp.sqrt((2 * l + 1) / (4 * mp.pi) * mp.factorial(l - am) / mp.factorial(l + am)) \
            * legendre(l, am, th)
        if m:
            y *= mp.sqrt(2) * (mp.cos(m * ph) if m > 0 else mp.sin(am * ph))
        out += q(c) * r ** l * y
    return out


def disk_oracle(cfg: dict) -> mp.mpf:
    """const + sum of r^k (s_k sin k pi theta + c_k cos k pi theta)."""
    kind, _, rest = cfg["g"].partition(" ")
    if kind == "const":
        return q(rest)
    if kind in ("cos", "sin"):
        k, c = rest.split()
        rest = f"{kind}{k}={c}"
    r, th = q(cfg["r"]), mp.pi * q(cfg["theta"])
    out = mp.mpf(0)
    for tok in rest.split(","):
        name, c = (part.strip() for part in tok.split("="))
        if name == "const":
            out += q(c)
        else:
            k = int(name[3:])
            out += q(c) * r ** k * (mp.cos(k * th) if name[:3] == "cos" else mp.sin(k * th))
    return out


def sine_oracle(cfg: dict) -> mp.mpf:
    """Sum of c_k e^{-pi^2 k^2 alpha t / L^2} sin(k pi x / L)."""
    L, alpha, t, x = (q(cfg[key]) for key in ("l", "alpha", "t", "x"))
    out = mp.mpf(0)
    for tok in cfg["g"].split()[1:]:
        k, c = tok.split(":")
        k = int(k)
        out += q(c) * mp.exp(-(mp.pi * k / L) ** 2 * alpha * t) * mp.sin(k * mp.pi * x / L)
    return out


def initial_oracle(cfg: dict) -> mp.mpf:
    """Quadrature of the Dirichlet half-line kernel against the data, split
    at its breakpoints and at x; at t = 0 the data's value at x."""
    pts = [(q(a), q(b)) for a, b in (tok.split(":") for tok in cfg["g0"].split()[1:])]
    t, x, alpha = q(cfg["t"]), q(cfg["x"]), q(cfg["alpha"])

    def data(y):
        for (a, ya), (b, yb) in zip(pts, pts[1:]):
            if a <= y <= b:
                return ya + (yb - ya) * (y - a) / (b - a)
        return mp.mpf(0)

    if t == 0:
        return data(x)
    c = 4 * alpha * t

    def integrand(y):
        return data(y) * (mp.exp(-(x - y) ** 2 / c)
                          - mp.exp(-(x + y) ** 2 / c)) / mp.sqrt(mp.pi * c)

    # split at x and, for a narrow kernel, at a few of its widths either side
    near = {x + k * mp.sqrt(c) for k in (-16, -4, -1, 0, 1, 4, 16)}
    nodes = sorted({a for a, _ in pts} | {y for y in near if pts[0][0] < y < pts[-1][0]})
    return mp.quad(integrand, nodes)


def disk_data(a) -> list[str]:
    return [f"pl 0:0 1/2:{a} 1:0 3/2:{-a} 2:0", f"trig const={a}, cos1=1, sin3={-a}",
            f"cos 3 {a}", f"sin 1 {a}", f"const {a}", f"pl 0:{a} 1:{-a} 2:{a}"]


def interval_data(a, L) -> list[str]:
    return [f"sine 1:{a} 3:1/2", f"pl 0:0 {L / 2}:{a} {L}:0", f"pl 0:{a} {L / 4}:{-a} {L}:0"]


@SWEEP
@given(st.data())
def test_disk(data):
    g = data.draw(st.sampled_from(disk_data(data.draw(amplitude))))
    check({"problem": "disk", "g": g, "r": data.draw(frac(0, 99, 100)),
           "theta": data.draw(frac(0, 63, 32)), "bits": data.draw(st.integers(2, 40))},
          None if g.startswith("pl") else disk_oracle, solves=True)


@pytest.mark.parametrize("a", [F(1), F(-5, 2), F(10 ** 8)])
@pytest.mark.parametrize("r0", [F(1, 2), F(9, 10)])
def test_disk_at_r0(a, r0):
    # the plan's order is what a solve at r0 sums, so a problem planned
    # once for many radii must solve its largest at full precision
    for g in disk_data(a):
        p = DiskProblem(parse_boundary_fn(g), r0)
        cfg = {"g": g, "r": r0, "theta": F(5, 16)}
        within(solve_disk(p, r0, cfg["theta"], 64, plan_disk(p, 64)), 64, cfg,
               None if g.startswith("pl") else disk_oracle)


@SWEEP
@given(st.data())
def test_ball(data):
    a = data.draw(amplitude)
    l = data.draw(st.integers(0, 16))
    m = data.draw(st.integers(-l, l))
    g = data.draw(st.sampled_from([f"sph 0:0:{a} 1:0:1/2 2:1:{a} 3:-2:1/8",
                                   f"sph {l}:{m}:{a}"]))
    check({"problem": "ball", "g": g,
           "r": data.draw(st.one_of(frac(0, 100, 100), st.just(F(1)))),  # the sphere too
           "theta": data.draw(frac(0, 16, 16)), "phi": data.draw(frac(0, 31, 16)),
           "bits": data.draw(st.integers(2, 48))}, ball_oracle)


@SWEEP
@given(st.data())
def test_interval(data):
    a = data.draw(amplitude)
    L = data.draw(st.sampled_from([F(1), F(2)]))
    g = data.draw(st.sampled_from(interval_data(a, L)))
    t = data.draw(st.one_of(frac(1, 32, 16), st.sampled_from([F(1, 2 ** 20), F(1, 256)])))
    check({"problem": "interval", "g": g, "l": L, "alpha": data.draw(alpha), "t": t,
           "x": data.draw(frac(0, 16, 16)) * L, "bits": data.draw(st.integers(2, 48))},
          sine_oracle if g.startswith("sine") else None, solves=True)


@pytest.mark.parametrize("a", [F(1), F(-5, 2), F(10 ** 8)])
@pytest.mark.parametrize("t0", [F(1, 256), F(1, 16), F(1, 4)])
def test_interval_just_after_t0(a, t0):
    # the decay bound at t rounds, so it can exceed t0's just after t0; a
    # problem planned once at t0 must still solve there within its order
    t = t0 + F(1, 2 ** 80)
    for L in (F(1), F(2)):
        for g in interval_data(a, L):
            for alph in (F(1), F(4), F(1, 256)):
                p = IntervalHeatProblem(L, alph, parse_interval_fn(g, L), t0)
                cfg = {"g": g, "l": L, "alpha": alph, "t": t, "x": L * F(5, 16)}
                within(solve_interval(p, t, cfg["x"], 64, plan_interval(p, 64)), 64, cfg,
                       sine_oracle if g.startswith("sine") else None)


def halfline_boundary_cfg(data, alphas) -> dict:
    a = data.draw(amplitude)
    h = data.draw(st.sampled_from([f"poly 0 {a}", f"poly 0 1 {a}", f"poly 0 0 0 {a}",
                                   f"sinhalf {a}"]))
    x0 = data.draw(frac(1, 16, 8))
    x1 = x0 + data.draw(frac(0, 16, 8))
    return {"problem": "halfline-boundary", "h": h, "alpha": data.draw(alphas),
            "x0": x0, "x1": x1, "t": data.draw(frac(0, 16, 16)),
            "x": x0 + data.draw(frac(0, 8, 8)) * (x1 - x0), "bits": data.draw(bits)}


def halfline_force_cfg(data, alphas) -> dict:
    a = data.draw(amplitude)
    f_time = data.draw(st.sampled_from(["poly 1", f"poly 1 {a}", "sinhalf", f"sinhalf {a}"]))
    y0 = data.draw(frac(1, 8, 8))
    f_space = data.draw(st.sampled_from([f"pl 0:{a} {y0}:{a}", f"pl 0:0 {y0 / 2}:{a} {y0}:0",
                                         f"pl 0:1 {y0 / 3}:{-a} {y0}:2"]))
    x0 = y0 + data.draw(frac(1, 16, 16))
    x1 = x0 + data.draw(frac(0, 8, 8))
    return {"problem": "halfline-force", "f_time": f_time, "f_space": f_space,
            "alpha": data.draw(alphas), "x0": x0, "x1": x1, "t": data.draw(frac(0, 16, 16)),
            "x": x0 + data.draw(frac(0, 8, 8)) * (x1 - x0), "bits": data.draw(bits)}


def halfline_initial_cfg(data, alphas) -> dict:
    a = data.draw(amplitude)
    lo = data.draw(frac(0, 6, 16))
    hi = lo + data.draw(frac(1, 8, 16))
    g0 = data.draw(st.sampled_from([f"pl {lo}:0 {(lo + hi) / 2}:{a} {hi}:0",
                                    f"pl {lo}:{a} {hi}:{a}"]))
    # left of, inside (breakpoints included) and right of the support, and 0
    x = data.draw(st.one_of(frac(0, 16, 16).map(lambda u: u * lo),
                            frac(0, 16, 16).map(lambda u: lo + u * (hi - lo)),
                            frac(1, 32, 16).map(lambda u: hi + u), st.just(F(0))))
    return {"problem": "halfline-initial", "g0": g0, "alpha": data.draw(alphas),
            "t": data.draw(frac(0, 64, 16)), "x": x, "bits": data.draw(bits)}


@SWEEP
@given(st.data())
def test_halfline_boundary(data):
    check(halfline_boundary_cfg(data, alpha))


@SWEEP
@given(st.data())
def test_halfline_force(data):
    check(halfline_force_cfg(data, alpha))


@SWEEP
@given(st.data())
def test_halfline_initial(data):
    check(halfline_initial_cfg(data, alpha), initial_oracle)


@SWEEP
@given(st.data())
def test_halfline_tiny_alpha(data):
    # 4 pi alpha below 2^-68, a draw of its own, since the shared one must
    # solve on the interval: the initial data solves within 2^-n of the
    # oracle, and the boundary and force problems within 2^-n or exit 3
    tiny = st.sampled_from([F(1, 2 ** 72), F(1, 2 ** 80), F(1, 2 ** 100)])
    kind = data.draw(st.sampled_from(["boundary", "force", "initial"]))
    if kind == "initial":
        check(halfline_initial_cfg(data, tiny), initial_oracle)
    else:
        check((halfline_boundary_cfg if kind == "boundary" else halfline_force_cfg)(data, tiny))


@SWEEP
@given(st.data())
def test_neumann(data):
    a = data.draw(amplitude)
    force = data.draw(st.sampled_from([f"pl 0:{a} 1/2:1 1:{-a}", f"poly {a} 1 -1",
                                       "counting 5 1 2 3 4"]))
    check({"problem": "neumann", "force": force, "t": data.draw(frac(0, 16, 16)),
           "bits": data.draw(st.integers(2, 48))})
