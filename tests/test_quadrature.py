"""Tests for certified quadrature and the linear-times-trig closed forms."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from certheat import heat, laplace
from certheat.certified import (CertifiedValue, cos_pi_mul_cv, gauss_ladder, recip_pi_cv,
                                rotation_sum, sin_pi_mul_cv)
from certheat.errors import PreconditionError
from certheat.evaluable import (EvaluableFunction, TrigPoly, _log2_ceil, linear_pieces,
                                piecewise_linear_fn, sine_modes_fn, trig_poly_fn)
from certheat.hardness import CountingInstance, counting_integrand
from certheat.heat import IntervalHeatProblem, solve_interval
from certheat.laplace import DiskProblem, DiskReduction, solve_disk
from certheat.quadrature import (breakpoint_series, int_linear_cos_pi, int_linear_sin_pi,
                                 int_pl_trig_pi, integral_exact, integrate)

MP_PREC = 500  # mpmath bits for this module's tests (see conftest.py)


def to_mp(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / f.denominator


def assert_encloses(cv, ref, p):
    assert cv.err_fraction() <= Fraction(1, 2 ** p)
    assert abs(to_mp(cv.value_fraction()) - ref) <= to_mp(cv.err_fraction()) + mp.mpf(10) ** -30


def tent():
    return piecewise_linear_fn([(Fraction(0), Fraction(0)),
                                (Fraction(1, 2), Fraction(1)),
                                (Fraction(1), Fraction(0))])


def test_piecewise_linear_integral_is_exact():
    cv = integrate(tent(), 0, 1, 30)
    assert cv.value_fraction() == Fraction(1, 2)
    assert cv.err_fraction() == 0


def test_piecewise_linear_partial_range():
    # area under the tent on [1/4, 3/4]
    cv = integrate(tent(), Fraction(1, 4), Fraction(3, 4), 30)
    assert cv.value_fraction() == Fraction(3, 8)
    assert cv.err_fraction() == 0


def naive_midpoint_sum(fn, lo, hi):
    """Reference: list the clipped segments, one Fraction midpoint each."""
    a, b = fn.domain
    if fn.linear_segments is not None:
        w = (b - a) / fn.linear_segments
        nodes = [a + k * w for k in range(fn.linear_segments + 1)]
    else:
        nodes = [a for _, _, a, _ in fn.pieces] + [b]
    pts = [lo] + [x for x in nodes if lo < x < hi] + [hi]
    total = Fraction(0)
    for s, t in zip(pts, pts[1:]):
        total += fn.eval_exact((s + t) / 2) * (t - s)
    return total, len(pts) - 1


def counted(fn):
    """fn with a counter of exact evaluations, as calls[0]."""
    calls = [0]
    inner = fn.eval_exact

    def ev(x):
        calls[0] += 1
        return inner(x)

    fn.eval_exact = ev
    return fn, calls


def uniform_square(domain, segments):
    # a nonlinear function on a non-dyadic uniform grid: the midpoint sum is
    # still well defined, and exercises the index arithmetic off zero; it
    # integrates only once a test gives it a segment_sum
    return EvaluableFunction(domain=domain, sup_bound=Fraction(4),
                             eval_exact=lambda x: x * x, linear_segments=segments)


def test_uniform_grid_matches_naive_midpoint_sum():
    F = Fraction
    inst = CountingInstance((2, 3, 5, 7), 10)
    ranges = [(F(0), F(1)), (F(1, 7), F(6, 7)), (F(1, 32), F(3, 32)),   # full / off grid
              (F(3, 100), F(4, 100)), (F(1, 32), F(2, 32)),              # one cell
              (F(1, 32), F(33, 1000)), (F(0), F(1, 3)), (F(5, 7), F(1))]
    for lo, hi in ranges:
        # the counting integrand sums whole segments (half-cells) through
        # segment_sum, one verifier call per cell the run meets, and reads
        # clipped parts through eval_exact, one call each
        fn = counting_integrand(inst)
        want, segments = naive_midpoint_sum(fn, lo, hi)
        first, last = math.ceil(lo * fn.linear_segments), math.floor(hi * fn.linear_segments)
        whole = range(first, last) if first <= last else range(0)
        cells = len({j >> 1 for j in whole})
        before = fn.verifier_calls()
        assert integral_exact(fn, lo, hi) == want, (lo, hi)
        assert fn.verifier_calls() - before == segments - len(whole) + cells, (lo, hi)
        assert integrate(fn, lo, hi, 40).value_fraction() == \
            CertifiedValue.from_fraction(want, 42).value_fraction()


def test_uniform_grid_sums_segment_runs_in_one_call():
    # whole segments come from one segment_sum(first, last) call, indexed
    # from the domain's start; only the clipped parts evaluate a point
    F = Fraction
    for domain in ((F(1, 3), F(5, 3)), (F(-2, 5), F(7, 9))):
        fn, calls = counted(uniform_square(domain, 7))
        a, b = domain
        w = (b - a) / 7
        runs = []

        def segment_sum(first, last, a=a, w=w):
            runs.append((first, last))
            return sum(((a + (j + F(1, 2)) * w) ** 2 for j in range(first, last)), F(0))

        fn.segment_sum = segment_sum
        for lo, hi, clipped, run in ((a, b, 0, (0, 7)), (a + F(1, 11), b - F(1, 13), 2, (1, 6)),
                                     (a + w, a + 3 * w + F(1, 50), 1, (1, 3))):
            want, _ = naive_midpoint_sum(fn, lo, hi)
            calls[0] = 0
            runs.clear()
            assert integral_exact(fn, lo, hi) == want, (domain, lo, hi)
            assert calls[0] == clipped, (domain, lo, hi)
            assert runs == [run], (domain, lo, hi)


def test_breakpoint_grid_matches_naive_midpoint_sum():
    F = Fraction
    fn = piecewise_linear_fn([(F(0), F(1)), (F(1, 4), F(0)), (F(3, 4), F(2)), (F(1), F(1))])
    for lo, hi in ((F(0), F(1)), (F(1, 8), F(5, 6)), (F(1, 3), F(1, 2))):
        want, _ = naive_midpoint_sum(fn, lo, hi)
        assert integral_exact(fn, lo, hi) == want


def test_zero_width_range_on_the_uniform_grid():
    fn = counting_integrand(CountingInstance((1, 2), 3))
    for x in (Fraction(1, 8), Fraction(1, 3)):
        cv = integrate(fn, x, x, 20)
        assert cv.value_fraction() == 0 and cv.err_fraction() == 0
    assert fn.verifier_calls() == 0


def test_integrate_rejects_bad_ranges():
    with pytest.raises(PreconditionError):
        integrate(tent(), Fraction(3, 4), Fraction(1, 4), 10)
    with pytest.raises(PreconditionError):
        integrate(tent(), 0, 2, 10)


def test_zero_width_range():
    cv = integrate(tent(), Fraction(1, 3), Fraction(1, 3), 20)
    assert cv.value_fraction() == 0 and cv.err_fraction() == 0


def test_integrate_refuses_declared_modes():
    # declared modes are read off by the coefficient routes; no solver
    # integrates them, and they have no exact rational integral
    for fn in (trig_poly_fn(TrigPoly(sin_coeffs={1: Fraction(1)})),
               sine_modes_fn({1: Fraction(1)}, Fraction(1))):
        with pytest.raises(PreconditionError):
            integrate(fn, 0, 1, 10)


def test_int_linear_sin_pi_vs_mpmath():
    rng = random.Random(23)
    for _ in range(20):
        c0 = Fraction(rng.randrange(-8, 9), 4)
        c1 = Fraction(rng.randrange(-8, 9), 4)
        a = Fraction(rng.randrange(0, 100), 100)
        b = a + Fraction(rng.randrange(1, 100), 100)
        k = rng.randrange(0, 5)
        phase = Fraction(rng.randrange(-4, 5), 4)
        ref = mp.quad(lambda r: (to_mp(c0) + to_mp(c1) * r)
                      * mp.sin(mp.pi * (k * r + to_mp(phase))), [to_mp(a), to_mp(b)])
        cv = int_linear_sin_pi(c0, c1, a, b, k, phase, 30)
        assert_encloses(cv, ref, 30)


def test_int_linear_cos_pi_vs_mpmath():
    rng = random.Random(29)
    for _ in range(20):
        c0 = Fraction(rng.randrange(-8, 9), 4)
        c1 = Fraction(rng.randrange(-8, 9), 4)
        a = Fraction(-rng.randrange(0, 50), 100)
        b = a + Fraction(rng.randrange(1, 150), 100)
        k = rng.randrange(0, 5)
        phase = Fraction(rng.randrange(-4, 5), 4)
        ref = mp.quad(lambda r: (to_mp(c0) + to_mp(c1) * r)
                      * mp.cos(mp.pi * (k * r + to_mp(phase))), [to_mp(a), to_mp(b)])
        cv = int_linear_cos_pi(c0, c1, a, b, k, phase, 30)
        assert_encloses(cv, ref, 30)


@pytest.mark.parametrize("c", [2 ** 8, 2 ** 10, 2 ** 20])
@pytest.mark.parametrize("p", [30, 64])
def test_int_linear_trig_keeps_its_bound_at_large_coefficients(c, p):
    # the working scale grows with |c0| + |c1| max(|a|, |b|)
    a, b, phase = Fraction(1, 7), Fraction(5, 3), Fraction(1, 9)
    with mp.workdps(50):
        check_large_coefficients(c, p, a, b, phase)


def check_large_coefficients(c, p, a, b, phase):
    for k in (0, 1, 3):
        for c0, c1 in ((c, 0), (0, c), (-c, Fraction(c, 3))):
            def lin(r):
                return to_mp(Fraction(c0)) + to_mp(Fraction(c1)) * r
            arg = lambda r: mp.pi * (k * r + to_mp(phase))  # noqa: E731
            ref_s = mp.quad(lambda r: lin(r) * mp.sin(arg(r)), [to_mp(a), to_mp(b)])
            ref_c = mp.quad(lambda r: lin(r) * mp.cos(arg(r)), [to_mp(a), to_mp(b)])
            assert_encloses(int_linear_sin_pi(c0, c1, a, b, k, phase, p), ref_s, p)
            assert_encloses(int_linear_cos_pi(c0, c1, a, b, k, phase, p), ref_c, p)


def test_full_period_orthogonality():
    # sin(k pi rho) against cos(j pi rho) over [0,2] vanishes exactly up to
    # the certified error
    for k in range(1, 4):
        cv = int_linear_sin_pi(1, 0, 0, 2, k, 0, 40)
        assert abs(cv.value_fraction()) <= cv.err_fraction()
        cv = int_linear_cos_pi(1, 0, 0, 2, k, 0, 40)
        assert abs(cv.value_fraction()) <= cv.err_fraction()


def int_pl_trig_pi_hand_built_ends(pieces, k, phase, p):
    """The closed form with its points built by hand, k != 0: each end from
    its own piece, then the slope jumps between neighbouring pieces."""
    c0, c1, a, _ = pieces[0]
    ends = [(a, -(c0 + c1 * a), -c1)]
    c0, c1, _, b = pieces[-1]
    ends.append((b, c0 + c1 * b, c1))
    inner = [(y, 0, before - after) for (_, before, _, _), (_, after, y, _)
             in zip(pieces, pieces[1:]) if after != before]
    points = {}
    for rho, v, w in ends + inner:
        vw = points.setdefault((k * rho + phase) % 2, [Fraction(0), Fraction(0)])
        vw[0] += v
        vw[1] += w
    size = sum((abs(v) + abs(w) for v, w in points.values()), Fraction(0))
    pp = p + 6 + (_log2_ceil(size) if size > 1 else 0)
    vs = vc = ds = dc = CertifiedValue.zero()
    for x, (v, w) in points.items():
        if v or w:
            s, c = sin_pi_mul_cv(x, pp), cos_pi_mul_cv(x, pp)
            vs, vc = vs + c.mul_fraction(v, pp), vc + s.mul_fraction(v, pp)
            ds, dc = ds + s.mul_fraction(w, pp), dc + c.mul_fraction(w, pp)
    rp = recip_pi_cv(pp)
    rp2 = (rp * rp).rounded(pp + 4)
    ik, ik2 = Fraction(1, k), Fraction(1, k * k)
    sin_int = (ds * rp2).mul_fraction(ik2, pp) - (vs * rp).mul_fraction(ik, pp)
    cos_int = (dc * rp2).mul_fraction(ik2, pp) + (vc * rp).mul_fraction(ik, pp)
    return sin_int.rounded(p + 4), cos_int.rounded(p + 4)


def test_int_pl_trig_pi_matches_hand_built_ends():
    # the jump list gives the same terms in the same order as the ends and
    # slope jumps built piece by piece, so every field agrees; collinear
    # nodes (no jump) and data that is periodic on [0, 2] included
    F = Fraction
    rng = random.Random(71)
    datas = [[(F(0), F(1, 3)), (F(1, 2), F(1)), (F(3, 2), F(-1)), (F(2), F(1, 3))],
             [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(0))]]
    for _ in range(10):
        a = F(rng.randrange(-6, 6), 3)
        xs = sorted({a + F(rng.randrange(1, 60), 30) for _ in range(rng.randrange(1, 6))} | {a})
        datas.append([(x, F(rng.randrange(-20, 21), rng.randrange(1, 7))) for x in xs])
    for nodes in datas:
        pieces = linear_pieces(piecewise_linear_fn(nodes))
        for k in (-3, -1, 1, 2, 5, 17, 64):
            for phase in (F(0), F(1, 3)):
                for got, want in zip(int_pl_trig_pi(pieces, k, phase, 40),
                                     int_pl_trig_pi_hand_built_ends(pieces, k, phase, 40)):
                    assert (got.m, got.s, got.en, got.es) == (want.m, want.s, want.en, want.es)


# ---------------------------------------------------------------------------
# the breakpoint series: one integer pass per kind of term


def per_term_series(decay, cos_terms, sin_terms, W):
    """The breakpoint series term by term: one rotation per term, rounded,
    scaled by its coefficient and added as a certified value."""
    rp = recip_pi_cv(W + 4)
    re = im = CertifiedValue.zero()
    for terms, power, part, factor in ((cos_terms, 2, 0, -(rp * rp)), (sin_terms, 1, 1, rp)):
        if terms:
            w = [(v // k ** power, e // k ** power + 2) for k, (v, e) in enumerate(decay, 1)]
            acc = other = CertifiedValue.zero()
            for t, c in terms:
                sums = rotation_sum([(t, 1)], w, W)
                acc = acc + sums[part].mul_fraction(c, W)
                other = other + sums[1 - part].mul_fraction(c, W)
            re = re + (acc * factor).rounded(W)
            im = im - (other * factor).rounded(W)
    return re, im


def _powers(r, K, W):
    out, rk = [], 1 << W
    for k in range(1, K + 1):
        rk = rk * r.numerator // r.denominator
        out.append((rk, k))
    return out


def test_breakpoint_series_matches_the_per_term_reference():
    # seeded geometric and Gaussian decays, angles and non-dyadic
    # coefficients, either kind empty or not: both parts agree with the
    # per-term sum within the two bounds together
    F = Fraction
    rng = random.Random(2024)
    for case in range(300):
        W = rng.choice([24, 60, 100])
        K = rng.choice([0, 1, 7, 40])
        if case % 2:
            decay = _powers(F(rng.randrange(1, 100), 100), K, W)
        else:
            decay = gauss_ladder(F(rng.randrange(1, 64), 256), K, W)
        cos_terms, sin_terms = ([(F(rng.randrange(-400, 400), rng.randrange(1, 60)),
                                  F(rng.randrange(-90, 91), rng.randrange(1, 40)))
                                 for _ in range(rng.randrange(4))] for _ in range(2))
        got = breakpoint_series(decay, cos_terms, sin_terms, W)
        want = per_term_series(decay, cos_terms, sin_terms, W)
        for g, w in zip(got, want):
            assert abs(g.value_fraction() - w.value_fraction()) \
                <= g.err_fraction() + w.err_fraction(), (case, W, K)
            assert g.err_fraction() <= F(1, 1 << (W - 12)), (case, W, K)


def breakpoint_probes():
    """(solve, n) on seeded disk pl data, a seam gap, reduction data and
    interval data with end jumps."""
    F = Fraction
    rng = random.Random(1729)
    probes = []
    disks = [piecewise_linear_fn([(F(0), F(0)), (F(1, 2), F(1)), (F(2), F(1, 1 << 20))])]
    for _ in range(3):
        xs = sorted({F(rng.randrange(1, 64), 32) for _ in range(5)} - {2})
        nodes = [(F(0), F(1, 3)), *((x, F(rng.randrange(-40, 41), rng.randrange(1, 9)))
                                    for x in xs), (F(2), F(1, 3))]
        disks.append(piecewise_linear_fn(nodes))
    h = piecewise_linear_fn([(F(0), F(1, 5)), (F(1, 3), F(1)), (F(1), F(-1, 7))])
    count = counting_integrand(CountingInstance((3, 5, 2, 7), 9))
    for r0, th0, prof in ((F(1, 2), F(1, 5), h), (F(9, 10), F(3, 4), h),
                          (F(1, 2), F(1, 2), count)):
        disks.append(DiskReduction(r0, th0, prof))
    for g in disks:
        p = DiskProblem(g, F(9, 10))
        for _ in range(4):
            r, th = F(rng.randrange(0, 91), 100), F(rng.randrange(0, 96), 48)
            n = rng.choice([12, 24, 40])
            probes.append((lambda p=p, r=r, th=th, n=n: solve_disk(p, r, th, n), n))
    for _ in range(4):
        xs = sorted({F(rng.randrange(1, 32), 16) for _ in range(4)} - {2})
        nodes = [(x, F(rng.randrange(-30, 31), rng.randrange(1, 7))) for x in [F(0), *xs, F(2)]]
        p = IntervalHeatProblem(F(2), F(1), piecewise_linear_fn(nodes), F(1, 256))
        for _ in range(4):
            t, x = F(rng.randrange(1, 65), 256), F(rng.randrange(0, 33), 16)
            n = rng.choice([12, 24, 48])
            probes.append((lambda p=p, t=t, x=x, n=n: solve_interval(p, t, x, n), n))
    return probes


def test_breakpoint_series_solves_match_the_per_term_reference(monkeypatch):
    # whole solves give the same value with either series, each within 2^-n
    probes = breakpoint_probes()
    got = [solve() for solve, _ in probes]
    monkeypatch.setattr(laplace, "breakpoint_series", per_term_series)
    monkeypatch.setattr(heat, "breakpoint_series", per_term_series)
    for (solve, n), u in zip(probes, got):
        ref = solve()
        assert (u.m, u.s) == (ref.m, ref.s)
        assert max(u.err_fraction(), ref.err_fraction()) <= Fraction(1, 2 ** n)
