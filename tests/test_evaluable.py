"""Tests for the evaluable-function wrappers."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certheat.evaluable import (TrigPoly, _log2_ceil, constant_fn, linear_pieces,
                                piecewise_linear_fn, pl_jumps, polynomial_fn,
                                sine_modes_fn, trig_poly_fn)
from certheat.hardness import CountingInstance, counting_integrand
from certheat.quadrature import integral_exact

MP_PREC = 500  # mpmath bits for this module's tests (see conftest.py)


def to_mp(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / f.denominator


def test_trig_poly_eval_vs_mpmath():
    tp = TrigPoly(const=Fraction(1, 3),
                  sin_coeffs={1: Fraction(1, 2), 3: Fraction(-2, 7)},
                  cos_coeffs={2: Fraction(5, 4)})
    rng = random.Random(11)
    for _ in range(25):
        rho = Fraction(rng.randrange(0, 2000), 1000)
        for p in (12, 30):
            cv = tp.eval_cv(rho, p)
            ref = (mp.mpf(1) / 3 + mp.sin(mp.pi * to_mp(rho)) / 2
                   - mp.mpf(2) / 7 * mp.sin(3 * mp.pi * to_mp(rho))
                   + mp.mpf(5) / 4 * mp.cos(2 * mp.pi * to_mp(rho)))
            assert cv.err_fraction() <= Fraction(1, 2 ** p)
            assert abs(to_mp(cv.value_fraction()) - ref) <= to_mp(cv.err_fraction()) + mp.mpf(10) ** -30


def test_trig_poly_bounds():
    tp = TrigPoly(const=Fraction(-1), sin_coeffs={2: Fraction(3)}, cos_coeffs={5: Fraction(-1, 2)})
    assert tp.degree() == 5
    assert tp.coeff_l1() == Fraction(7, 2)
    assert tp.sup_bound() == Fraction(9, 2)


def test_sine_modes_exact_boundary_zeros():
    fn = sine_modes_fn({1: Fraction(2), 4: Fraction(-1, 3)}, Fraction(1))
    for x in (Fraction(0), Fraction(1)):
        cv = fn.eval_cv(x, 40)
        assert cv.value_fraction() == 0
        assert cv.err_fraction() == 0


def test_sine_modes_vs_mpmath():
    L = Fraction(3, 2)
    fn = sine_modes_fn({2: Fraction(1, 2), 3: Fraction(-1)}, L)
    rng = random.Random(5)
    for _ in range(20):
        x = Fraction(rng.randrange(0, 1500), 1000)
        cv = fn.eval_cv(x, 25)
        ref = mp.sin(2 * mp.pi * to_mp(x / L)) / 2 - mp.sin(3 * mp.pi * to_mp(x / L))
        assert cv.err_fraction() <= Fraction(1, 2 ** 25)
        assert abs(to_mp(cv.value_fraction()) - ref) <= to_mp(cv.err_fraction()) + mp.mpf(10) ** -30


def test_piecewise_linear_exact_interpolation():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))]
    fn = piecewise_linear_fn(pts)
    assert fn.eval_exact(Fraction(1, 4)) == Fraction(1, 2)
    assert fn.eval_exact(Fraction(1, 2)) == 1
    assert fn.eval_exact(Fraction(7, 8)) == Fraction(1, 4)
    assert fn.sup_bound == 1
    with pytest.raises(ValueError):
        fn.eval_exact(Fraction(3, 2))


def test_piecewise_linear_rejects_bad_nodes():
    with pytest.raises(ValueError):
        piecewise_linear_fn([(Fraction(0), Fraction(1))])
    with pytest.raises(ValueError):
        piecewise_linear_fn([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))])


def test_polynomial_matches_fraction_horner():
    cs = [Fraction(1), Fraction(-2), Fraction(0), Fraction(1, 3)]
    fn = polynomial_fn(cs, (Fraction(-1), Fraction(2)))
    rng = random.Random(3)
    for _ in range(30):
        x = Fraction(rng.randrange(-1000, 2001), 1000)
        want = sum(c * x ** i for i, c in enumerate(cs))
        assert fn.eval_exact(x) == want
    assert fn.sup_bound >= max(abs(fn.eval_exact(Fraction(v, 100))) for v in range(-100, 201))


def test_constant_fn():
    fn = constant_fn(Fraction(5, 7), (Fraction(0), Fraction(1)))
    assert fn.eval_exact(Fraction(1, 3)) == Fraction(5, 7)
    assert fn.sup_bound == Fraction(5, 7)


def test_public_eval_contract():
    # eval_cv(x, n) encloses f(x) with an error of at most 2^-n
    fn = piecewise_linear_fn([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 3))])
    cv = fn.eval_cv(Fraction(1, 2), 8)
    assert cv.err_fraction() <= Fraction(1, 2 ** 8)
    assert abs(cv.value_fraction() - Fraction(1, 6)) <= cv.err_fraction()


def pl_value(pts, x):
    (xa, ya), (xb, yb) = next(seg for seg in zip(pts, pts[1:]) if seg[0][0] <= x <= seg[1][0])
    return ya + (yb - ya) * (x - xa) / (xb - xa)


def _vocabulary(a):
    """(spec parser, spec, mpmath oracle at mpf x) over the config vocabulary."""
    from certheat import cli

    A, pi = to_mp(a), mp.pi
    tent = [(0, 0), (mp.mpf(1) / 2, A), (2, 0)]
    return [
        (cli.parse_boundary_fn, f"cos 3 {a}", lambda x: A * mp.cos(3 * pi * x)),
        (cli.parse_boundary_fn, f"sin 1 {a}", lambda x: A * mp.sin(pi * x)),
        (cli.parse_boundary_fn, f"trig const={a}, cos1={a}, sin3={-a}",
         lambda x: A + A * mp.cos(pi * x) - A * mp.sin(3 * pi * x)),
        (cli.parse_boundary_fn, f"const {a}", lambda x: A),
        (cli.parse_boundary_fn, f"pl 0:0 1/2:{a} 2:0", lambda x: pl_value(tent, x)),
        (lambda spec: cli.parse_interval_fn(spec, Fraction(2)), f"sine 1:{a} 3:{-a}",
         lambda x: A * mp.sin(pi * x / 2) - A * mp.sin(3 * pi * x / 2)),
        (cli.parse_profile, f"poly 0 {a} 1", lambda x: A * x + x * x),
        (cli.parse_profile, f"sinhalf {a}", lambda x: A * mp.sin(pi * x / 2)),
    ]


@pytest.mark.parametrize("a", [Fraction(1), Fraction(-3, 7), Fraction(10 ** 3),
                               Fraction(10 ** 8), Fraction(-10 ** 8, 3)])
def test_vocabulary_eval_keeps_the_contract_at_large_amplitudes(a):
    # each evaluator certifies 2^-n whatever its coefficients
    xs = [Fraction(0), Fraction(5, 16), Fraction(3, 4), Fraction(11, 8), Fraction(2)]
    for parse, spec, oracle in _vocabulary(a):
        fn = parse(spec)
        for x in xs:
            for n in (4, 12, 30):
                cv = fn.eval_cv(x, n)
                assert cv.err_fraction() <= Fraction(1, 2 ** n), (spec, x, n)
                assert abs(to_mp(cv.value_fraction()) - oracle(to_mp(x))) \
                    <= to_mp(cv.err_fraction()) + mp.mpf(10) ** -30, (spec, x, n)


def trapezoids(fn, xs):
    """Integral of fn over [xs[0], xs[-1]] if it is linear between nodes xs."""
    return sum(((fn.eval_exact(a) + fn.eval_exact(b)) / 2 * (b - a)
                for a, b in zip(xs, xs[1:])), Fraction(0))


def test_pieces_clip_to_sub_ranges():
    F = Fraction
    fn = piecewise_linear_fn([(F(0), F(1)), (F(1, 4), F(0)), (F(3, 4), F(2)), (F(1), F(1))])
    assert [a for _, _, a, _ in fn.pieces] + [fn.pieces[-1][3]] == [F(0), F(1, 4), F(3, 4), F(1)]
    assert integral_exact(fn, F(0), F(1)) == trapezoids(fn, [F(0), F(1, 4), F(3, 4), F(1)])
    assert integral_exact(fn, F(1, 8), F(1, 2)) == trapezoids(fn, [F(1, 8), F(1, 4), F(1, 2)])
    # a uniform grid declared only through a segment count: its pieces read
    # off the grid, but without a segment_sum it does not integrate
    fn.pieces, fn.linear_segments = None, 4
    assert [a for _, _, a, _ in linear_pieces(fn)] == [F(k, 4) for k in range(4)]
    assert integral_exact(fn, F(0), F(1)) is None


def test_linear_pieces_from_breakpoints():
    F = Fraction
    fn = piecewise_linear_fn([(F(0), F(1)), (F(1, 4), F(0)), (F(3, 4), F(2)), (F(1), F(1))])
    assert linear_pieces(fn) == [(F(1), F(-4), F(0), F(1, 4)),
                                 (F(-1), F(4), F(1, 4), F(3, 4)),
                                 (F(5), F(-4), F(3, 4), F(1))]


def test_linear_pieces_from_segment_grid():
    # one item of weight 1, target 1: cell [1/2, 1] carries a unit tent
    F = Fraction
    fn = counting_integrand(CountingInstance((1,), 1))
    assert fn.pieces is None and fn.linear_segments == 4
    assert linear_pieces(fn) == [(F(0), F(0), F(0), F(1, 4)),
                                 (F(0), F(0), F(1, 4), F(1, 2)),
                                 (F(-2), F(4), F(1, 2), F(3, 4)),
                                 (F(4), F(-4), F(3, 4), F(1))]


def test_linear_pieces_from_affine_polynomial():
    F = Fraction
    assert linear_pieces(polynomial_fn([F(1), F(1, 2)], (F(0), F(2)))) == \
        [(F(1), F(1, 2), F(0), F(2))]
    assert linear_pieces(constant_fn(F(5, 7), (F(1), F(3)))) == \
        [(F(5, 7), F(0), F(1), F(3))]


def test_linear_pieces_none_without_linear_form():
    F = Fraction
    assert linear_pieces(polynomial_fn([F(0), F(0), F(1)], (F(0), F(1)))) is None
    assert linear_pieces(sine_modes_fn({1: F(1)}, F(1))) is None
    assert linear_pieces(trig_poly_fn(TrigPoly(cos_coeffs={2: F(1)}))) is None


small_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def pl_data(draw):
    xs = sorted(draw(st.sets(small_fractions, min_size=2, max_size=7)))
    ys = draw(st.lists(small_fractions, min_size=len(xs), max_size=len(xs)))
    if len(xs) > 2 and draw(st.booleans()):  # the second node on the first line
        ys[1] = ys[0] + (ys[2] - ys[0]) * (xs[1] - xs[0]) / (xs[2] - xs[0])
    return piecewise_linear_fn(list(zip(xs, ys)))


@st.composite
def affine_data(draw):
    lo, width = draw(small_fractions), draw(small_fractions.filter(lambda w: w > 0))
    return polynomial_fn(draw(st.lists(small_fractions, max_size=2)), (lo, lo + width))


@st.composite
def counting_grid_data(draw):
    weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    return counting_integrand(CountingInstance(tuple(weights), draw(st.integers(1, 12))))


@example(piecewise_linear_fn([(Fraction(0), Fraction(1)), (Fraction(1, 4), Fraction(0)),
                              (Fraction(1, 2), Fraction(1))]))
@given(st.one_of(pl_data(), affine_data(), counting_grid_data()))
@settings(deadline=None)
def test_jumps_sum_back_to_the_data(fn):
    # the data, zero outside its pieces, is the sum of J + D (x - y) over
    # the points y <= x of its jump list, at the nodes and between them;
    # past the last point the slopes cancel and so do the values
    pieces = linear_pieces(fn)
    jumps = pl_jumps(pieces)
    nodes = [a for _, _, a, _ in pieces] + [pieces[-1][3]]
    assert [y for y, _, _ in jumps] == nodes

    def summed(x, upto):
        return sum((J + D * (x - y) for y, J, D in jumps if upto(y, x)), Fraction(0))

    for a, b in zip(nodes, nodes[1:]):
        for x in (a, (2 * a + b) / 3, (a + b) / 2):
            assert summed(x, lambda y, x: y <= x) == fn.eval_exact(x)
    end = nodes[-1]
    assert summed(end, lambda y, x: y < x) == fn.eval_exact(end)  # from the left
    assert sum(D for _, _, D in jumps) == 0
    assert sum((J - D * y for y, J, D in jumps), Fraction(0)) == 0


def log2_ceil_by_definition(f: Fraction) -> int:
    """Smallest j with f <= 2^j, stepping through Fraction powers of two."""
    j = 0
    while Fraction(2) ** j < f:
        j += 1
    while Fraction(2) ** (j - 1) >= f:
        j -= 1
    return j


positive_ints = st.integers(1, 1 << 200)
powers_of_two = st.integers(-200, 200).map(lambda e: Fraction(2) ** e)
near_powers_of_two = st.tuples(st.integers(-200, 200), st.sampled_from([-1, 1])).map(
    lambda t: Fraction(2) ** t[0] * (1 + Fraction(t[1], 1 << 90)))


@example(Fraction(1, 1 << 70))            # below 2^-64
@example(Fraction((1 << 70) + 1, 3))      # above 2^64
@example(7)                               # an int counts as a fraction
@given(st.one_of(st.builds(Fraction, positive_ints, positive_ints), powers_of_two,
                 near_powers_of_two))
def test_log2_ceil_matches_the_fraction_definition(f):
    assert _log2_ceil(f) == log2_ceil_by_definition(f)


def test_log2_ceil_refuses_nonpositive_values():
    for f in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError):
            _log2_ceil(f)
