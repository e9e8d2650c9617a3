"""Regenerate refs.json: reference values for every candidate configuration.

    python3 bench/make_refs.py

Needs mpmath, which the benchmark itself does not.  Values come from closed
forms (trig, sine and sph modes, the polynomial half-line boundary profile)
or from tanh-sinh quadrature of the problem's integral representation, split
at every breakpoint, at 60 significant digits.  That is far more than the
2^-(n+24) the checks need at the largest precision the workloads request
(n = 64).  Where a closed form exists beside the quadrature, both are
computed and must agree.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402

mp.mp.dps = 60
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def q(x) -> mp.mpf:
    f = Fraction(x)
    return mp.mpf(f.numerator) / f.denominator


def pl_points(spec: str) -> list[tuple[mp.mpf, mp.mpf]]:
    kind, *pairs = spec.split()
    assert kind == "pl"
    return [(q(a), q(b)) for a, b in (p.split(":") for p in pairs)]


def pl_eval(pts, x):
    for (a, ya), (b, yb) in zip(pts, pts[1:]):
        if a <= x <= b:
            return ya + (yb - ya) * (x - a) / (b - a)
    return mp.mpf(0)


def quad_split(f, lo, hi, cuts):
    nodes = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return mp.quad(f, nodes)


def disk(cfg) -> mp.mpf:
    r, th, g = q(cfg["r"]), q(cfg["theta"]), cfg["g"]
    if g.startswith("trig"):
        out = mp.mpf(0)
        for term in g[4:].split(","):
            name, c = (s.strip() for s in term.split("="))
            if name == "const":
                out += q(c)
            else:
                k = int(name[3:])
                trig = mp.cos if name.startswith("cos") else mp.sin
                out += q(c) * r ** k * trig(k * mp.pi * th)
        return out
    pts = pl_points(g)

    def integrand(rho):
        kern = (1 - r * r) / (1 - 2 * r * mp.cos(mp.pi * (th - rho)) + r * r)
        return kern * pl_eval(pts, rho)

    return quad_split(integrand, 0, 2, [a for a, _ in pts] + [th]) / 2


def assoc_legendre(l: int, m: int, x: mp.mpf) -> mp.mpf:
    """P_l^m with the Condon-Shortley phase, by the upward recurrence."""
    pmm = (-1) ** m * mp.fac2(2 * m - 1) * (1 - x * x) ** (mp.mpf(m) / 2)
    if l == m:
        return pmm
    prev, cur = pmm, x * (2 * m + 1) * pmm
    for ll in range(m + 2, l + 1):
        prev, cur = cur, ((2 * ll - 1) * x * cur - (ll + m - 1) * prev) / (ll - m)
    return cur


def ball(cfg) -> mp.mpf:
    r, th, ph = q(cfg["r"]), q(cfg["theta"]), q(cfg["phi"])
    out = mp.mpf(0)
    for tok in cfg["g"].split()[1:]:
        l, m, c = tok.split(":")
        l, m, am = int(l), int(m), abs(int(m))
        norm = mp.sqrt((2 * l + 1) / (4 * mp.pi) * mp.factorial(l - am) / mp.factorial(l + am))
        y = norm * assoc_legendre(l, am, mp.cos(mp.pi * th))
        assert abs(assoc_legendre(l, am, mp.cos(mp.pi * th))
                   - mp.legenp(l, am, mp.cos(mp.pi * th))) < mp.mpf(10) ** -50
        if m > 0:
            y *= mp.sqrt(2) * mp.cos(m * mp.pi * ph)
        elif m < 0:
            y *= mp.sqrt(2) * mp.sin(am * mp.pi * ph)
        out += q(c) * r ** l * y
    return out


def interval(cfg) -> mp.mpf:
    t, x, g = q(cfg["t"]), q(cfg["x"]), cfg["g"]
    if g.startswith("sine"):
        modes = {int(k): q(c) for k, c in (p.split(":") for p in g.split()[1:])}
    else:
        pts = pl_points(g)
        cuts = [a for a, _ in pts]
        modes = {k: 2 * quad_split(lambda y: pl_eval(pts, y) * mp.sin(k * mp.pi * y),
                                   0, 1, cuts)
                 for k in range(1, 30)}
    return mp.fsum(c * mp.exp(-k * k * mp.pi ** 2 * t) * mp.sin(k * mp.pi * x)
                   for k, c in modes.items())


def halfline_boundary(cfg) -> mp.mpf:
    # h(s) = s, alpha = 1: u = t ((1 + 2 xi^2) erfc(xi) - 2 xi e^{-xi^2} / sqrt(pi))
    assert cfg["h"] == "poly 0 1"
    t, x = q(cfg["t"]), q(cfg["x"])
    xi = x / (2 * mp.sqrt(t))
    closed = t * ((1 + 2 * xi * xi) * mp.erfc(xi)
                  - 2 * xi * mp.exp(-xi * xi) / mp.sqrt(mp.pi))
    quad = mp.quad(lambda s: x / mp.sqrt(4 * mp.pi * (t - s) ** 3)
                   * mp.exp(-x * x / (4 * (t - s))) * s, [0, t])
    assert abs(closed - quad) < mp.mpf(10) ** -40, (cfg, closed, quad)
    return closed


def halfline_force(cfg) -> mp.mpf:
    # f_time = 1 and f_space = 1 on [0, y0]: the space integral is in erf form
    assert cfg["f_time"] == "poly 1"
    pts = pl_points(cfg["f_space"])
    assert len(pts) == 2 and pts[0] == (0, 1) and pts[1][1] == 1
    y0 = pts[1][0]
    t, x = q(cfg["t"]), q(cfg["x"])
    alpha = q(cfg.get("alpha", 1))

    def inner(s):
        c = mp.sqrt(4 * alpha * s)
        direct = mp.erf(x / c) - mp.erf((x - y0) / c)
        image = mp.erf((x + y0) / c) - mp.erf(x / c)
        return (direct - image) / 2

    return mp.quad(inner, [0, t])


def halfline_initial(cfg) -> mp.mpf:
    pts = pl_points(cfg["g0"])
    t, x = q(cfg["t"]), q(cfg["x"])
    c = 4 * t

    def integrand(y):
        kern = (mp.exp(-(x - y) ** 2 / c) - mp.exp(-(x + y) ** 2 / c)) / mp.sqrt(mp.pi * c)
        return kern * pl_eval(pts, y)

    return quad_split(integrand, pts[0][0], pts[-1][0], [a for a, _ in pts])


SOLVERS = {"disk": disk, "ball": ball, "interval": interval,
           "halfline-boundary": halfline_boundary,
           "halfline-force": halfline_force, "halfline-initial": halfline_initial}


def main() -> int:
    values = {}
    for cfg in inputs.all_reference_cfgs():
        values[inputs.ref_key(cfg)] = mp.nstr(SOLVERS[cfg["problem"]](cfg), 50)
    with open(OUT, "w", encoding="utf-8") as f:
        json.dump({"digits": 50, "values": dict(sorted(values.items()))}, f,
                  indent=1)
        f.write("\n")
    print(f"{len(values)} references written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
