"""Counting integrand, count recovery, and the three solver pipelines.

Oracles: itertools subset enumeration for counts, the closed-form area
count * 4^{-n_vars}, and exact rational quadrature of the integrand.
"""

import itertools
import random
from fractions import Fraction

import mpmath as mp
import pytest

import certheat.hardness as hardness
from certheat.certified import CertifiedValue
from certheat.errors import ConfigError, InsufficientPrecision, PreconditionError
from certheat.hardness import (CSV_HEADER, CountingInstance, PIPELINES,
                               brute_force_count, counting_integrand,
                               measure_blowup, pipeline_disk, precision_for,
                               random_instance, recover_count, render_csv)
from certheat.heat import hardness_initial_interval
from certheat.laplace import DiskProblem, hardness_boundary_disk, solve_disk
from certheat.quadrature import integral_exact, integrate

INST_ONE = CountingInstance((1,), 1)           # count 1
INST_PAIR = CountingInstance((1, 2), 3)        # count 1, only the full set
INST_NONE = CountingInstance((2, 2), 3)        # odd target, even sums: count 0
INST_TWO = CountingInstance((2, 3, 5, 7), 10)  # {3,7} and {2,3,5}: count 2


def exact_integral(inst: CountingInstance) -> Fraction:
    """Closed-form area of the counting integrand: count * 4^-n_vars."""
    return brute_force_count(inst) * Fraction(1, 4 ** inst.n_vars)


def to_mp(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / f.denominator


def enumerate_count(weights, target):
    hits = 0
    for k in range(len(weights) + 1):
        for combo in itertools.combinations(weights, k):
            if sum(combo) == target:
                hits += 1
    return hits


def test_counts_match_enumeration():
    for inst in (INST_ONE, INST_PAIR, INST_NONE, INST_TWO):
        assert brute_force_count(inst) == enumerate_count(inst.weights, inst.target)
    assert brute_force_count(INST_ONE) == 1
    assert brute_force_count(INST_PAIR) == 1
    assert brute_force_count(INST_NONE) == 0
    assert brute_force_count(INST_TWO) == 2


def test_exact_areas_frozen():
    assert exact_integral(INST_ONE) == Fraction(1, 4)
    assert exact_integral(INST_PAIR) == Fraction(1, 16)
    assert exact_integral(INST_NONE) == 0
    assert exact_integral(INST_TWO) == Fraction(2, 256)


def test_instance_validation():
    with pytest.raises(PreconditionError):
        CountingInstance((), 1)
    with pytest.raises(PreconditionError):
        CountingInstance((1, 0), 1)
    with pytest.raises(PreconditionError):
        CountingInstance((1, 2), 0)


def naive_accepts(inst, assignment):
    return sum(w for i, w in enumerate(inst.weights) if assignment >> i & 1) == inst.target


def test_accepts_matches_a_per_bit_sum():
    # two tables: every assignment at n_vars <= 12, so the high-bit table
    # _rest holds 1 to 16 entries; past 2^n_vars the verifier raises
    rng = random.Random(47)
    for nv in range(1, 13):
        for _ in range(3):
            inst = random_instance(rng, nv, max_weight=9)
            assert len(inst._low) == 2 ** min(nv, 8)
            assert len(inst._rest) == 2 ** max(0, nv - 8)
            for a in range(1 << nv):
                assert inst.accepts(a) == naive_accepts(inst, a), (inst, a)
            for a in (1 << nv, (1 << nv) + 1, 1 << (nv + 8)):
                with pytest.raises(IndexError):
                    inst.accepts(a)


def test_accepts_matches_a_per_bit_sum_on_seeded_instances():
    rng = random.Random(53)
    for nv in (8, 14, 16, 17, 24):
        inst = random_instance(rng, nv)
        for a in [0, (1 << nv) - 1] + [rng.randrange(1 << nv) for _ in range(2000)]:
            assert inst.accepts(a) == naive_accepts(inst, a), (inst, a)
        # the target's own subset is accepted whatever byte its bits fall in
        mask = rng.randrange(1, 1 << nv)
        hit = CountingInstance(inst.weights, sum(
            w for i, w in enumerate(inst.weights) if mask >> i & 1))
        assert hit.accepts(mask)


def test_integrand_cell_geometry():
    # accepted cell of INST_PAIR is the last quarter, center 7/8, height 1/2
    fn = counting_integrand(INST_PAIR)
    assert fn.linear_segments == 2 ** (INST_PAIR.n_vars + 1)
    assert fn.sup_bound == Fraction(1, 2)
    assert fn.eval_exact(Fraction(7, 8)) == Fraction(1, 2)
    assert fn.eval_exact(Fraction(3, 4)) == 0
    assert fn.eval_exact(Fraction(1)) == 0        # clamp onto the last cell edge
    assert fn.eval_exact(Fraction(13, 16)) == Fraction(1, 4)
    assert fn.eval_exact(Fraction(1, 3)) == 0     # rejected cell
    cv = fn.eval_cv(Fraction(15, 16), 24)
    assert abs(cv.value_fraction() - Fraction(1, 4)) <= cv.err_fraction()


def test_integrand_quadrature_recovers_exact_area():
    for inst in (INST_ONE, INST_PAIR, INST_NONE, INST_TWO):
        fn = counting_integrand(inst)
        v = integrate(fn, 0, 1, 30)
        assert v.value_fraction() == exact_integral(inst)
        assert v.err_fraction() <= Fraction(1, 2 ** 30)


def test_one_verifier_call_per_evaluation():
    # off a cell edge each evaluation verifies its cell once; on an edge,
    # where every tent is 0, none
    fn = counting_integrand(INST_TWO)
    pts = [Fraction(k, 29) for k in range(1, 29)]
    for x in pts:
        fn.eval_exact(x)
    assert fn.verifier_calls() == len(pts)
    fn.eval_cv(Fraction(1, 3), 20)
    assert fn.verifier_calls() == len(pts) + 1
    cells = 2 ** INST_TWO.n_vars
    for k in range(cells + 1):
        assert fn.eval_exact(Fraction(k, cells)) == 0
        assert fn.eval_cv(Fraction(k, cells), 20).value_fraction() == 0
    assert fn.verifier_calls() == len(pts) + 1


def test_segment_sum_is_the_sum_of_midpoint_values():
    # over a run of half-cell indices, the integrand gives the exact sum of
    # its values at those half-cells' midpoints, one verifier call per cell
    # the run meets (both halves of a cell share its verdict), none for the
    # empty run
    rng = random.Random(47)
    for nv in (1, 2, 4, 7, 10):
        inst = random_instance(rng, nv)
        fn = counting_integrand(inst)
        segments = fn.linear_segments
        assert segments == 2 ** (nv + 1)
        half = segments // 2
        for first, last in ((0, segments), (1, segments - 1), (1, half + 1),
                            (half - 1, segments), (1, 2), (2, 3), (1, 4),
                            (3, 3), (4, 4), (segments, segments)):
            want = sum((fn.eval_exact(Fraction(2 * j + 1, 2 * segments))
                        for j in range(first, last)), Fraction(0))
            before = fn.verifier_calls()
            assert fn.segment_sum(first, last) == want, (nv, first, last)
            cells = len({j >> 1 for j in range(first, last)})
            assert fn.verifier_calls() - before == cells, (nv, first, last)
        accepted = fn.segment_sum(0, segments) * 2 ** nv
        assert accepted == 2 * brute_force_count(inst) > 0, nv


def test_recover_count_examples():
    v = CertifiedValue.from_fraction(Fraction(1, 16), 40)
    assert recover_count(v, INST_PAIR) == 1
    assert recover_count(CertifiedValue.from_fraction(Fraction(0), 40), INST_PAIR) == 0
    # a slightly perturbed value still snaps to the right integer
    v2 = CertifiedValue.from_fraction(Fraction(1, 16) + Fraction(1, 300), 40)
    assert recover_count(v2, INST_PAIR) == 1


def test_recover_count_rejects_coarse_values():
    # error equal to one bump area cannot separate adjacent counts
    coarse = CertifiedValue(1, 4, 1, 2 * INST_PAIR.n_vars)
    assert coarse.err_fraction() == Fraction(1, 16)
    with pytest.raises(InsufficientPrecision):
        recover_count(coarse, INST_PAIR)


def test_pipelines_agree_small_sizes():
    rng = random.Random(7)
    for nv in range(1, 7):
        inst = random_instance(rng, nv)
        expect = enumerate_count(inst.weights, inst.target)
        n = precision_for(inst)
        for name, pipe in PIPELINES.items():
            v = pipe(inst, n)
            assert v.err_fraction() < Fraction(1, 2 * 4 ** nv), (name, nv)
            assert recover_count(v, inst) == expect, (name, nv)


def test_pipelines_agree_medium_sizes():
    rng = random.Random(21)
    for nv in (8, 10):
        inst = random_instance(rng, nv)
        expect = brute_force_count(inst)
        for name, pipe in PIPELINES.items():
            v = pipe(inst, precision_for(inst))
            assert recover_count(v, inst) == expect, (name, nv)


def test_reduction_values_are_exact_counts():
    # the disk point value is half the exact area; the interval point value
    # is the exact area of its profile over the 1/sqrt(4 pi t0) factor
    rng = random.Random(41)
    for nv in range(4, 11):
        inst = random_instance(rng, nv)
        area = exact_integral(inst)
        n = precision_for(inst)
        h = counting_integrand(inst)
        disk = hardness_boundary_disk(Fraction(1, 2), Fraction(1, 2), h).hardness
        u = disk.certified_point_value(n)
        assert u.value_fraction() == area / 2 and u.err_fraction() == 0, nv
        red = hardness_initial_interval(Fraction(1, 4), Fraction(1, 2), h).hardness
        assert red.profile is h
        assert integral_exact(red.profile, Fraction(0), Fraction(1)) == area
        v = red.certified_point_value(n)
        assert abs(to_mp(v.value_fraction()) - to_mp(area) / mp.sqrt(mp.pi)) \
            <= to_mp(v.err_fraction())


def test_pipelines_visit_every_cell_once(monkeypatch):
    # the paper's hardness: each pipeline verifies every assignment
    # 0 .. 2^n_vars - 1 exactly once, no cell skipped and none verified
    # twice; the disk closure's h(0) and h(1) lie on cell edges and its
    # bridge is linear, so they cost none.  The integrand's counter must
    # equal the real calls of the verifier
    built = []
    orig = hardness.counting_integrand
    orig_accepts = CountingInstance.accepts
    seen = []

    def capture(inst):
        built.append(orig(inst))
        return built[-1]

    def accepts(self, assignment):
        seen.append(assignment)
        return orig_accepts(self, assignment)

    monkeypatch.setattr(hardness, "counting_integrand", capture)
    monkeypatch.setattr(CountingInstance, "accepts", accepts)
    rng = random.Random(43)
    for nv in (3, 6, 9):
        inst = random_instance(rng, nv)
        every = list(range(2 ** nv))
        for name, pipe in PIPELINES.items():
            built.clear()
            seen.clear()
            pipe(inst, precision_for(inst))
            calls = sum(fn.verifier_calls() for fn in built)
            assert sorted(seen) == every, (name, nv)
            assert calls == len(seen), (name, nv, calls, len(seen))


def test_disk_pipeline_against_full_series_solve():
    # independent route: run the whole boundary-series solver at the marked
    # point instead of the mean-value shortcut
    h = counting_integrand(INST_PAIR)
    g = hardness_boundary_disk(Fraction(1, 2), Fraction(1, 2), h)
    u = solve_disk(DiskProblem(g, Fraction(1, 2)), Fraction(1, 2), Fraction(1, 2), 12)
    target = exact_integral(INST_PAIR) / 2
    assert abs(u.value_fraction() - target) <= Fraction(1, 2 ** 12)
    shortcut = pipeline_disk(INST_PAIR, 12)
    assert abs(shortcut.value_fraction() - 2 * u.value_fraction()) \
        <= shortcut.err_fraction() + 2 * u.err_fraction()


@pytest.mark.parametrize("nv", range(4, 11))
def test_disk_series_solve_verifies_each_cell_once(nv):
    # the series route reads gtilde's pieces (one verdict per cell) and then
    # takes its area off their jump list; reading the area first takes it
    # from h's run sum instead, and the two give the same bits.  Twice the
    # marked point value recovers the count, within 2^-n at precision_for
    inst = random_instance(random.Random(5), nv)
    n = precision_for(inst)
    area = brute_force_count(inst) * Fraction(1, 4 ** nv)
    solves = []
    for area_first in (False, True):
        h = counting_integrand(inst)
        g = hardness_boundary_disk(Fraction(1, 2), Fraction(1, 2), h)
        if area_first:
            assert g.hardness.area == area and h.verifier_calls() == 2 ** nv
        u = solve_disk(DiskProblem(g, Fraction(1, 2)), Fraction(1, 2), Fraction(1, 2), n)
        assert g.hardness.area == area
        solves.append((u.value_fraction(), u.err_fraction(), h.verifier_calls()))
    assert solves[0][:2] == solves[1][:2]
    assert solves[0][2] == 2 ** nv and solves[1][2] == 2 ** (nv + 1)
    assert solves[0][1] <= Fraction(1, 2 ** n)
    assert abs(solves[0][0] - area / 2) <= solves[0][1]
    assert recover_count(u.mul_exact(2), inst) == brute_force_count(inst)


def test_measure_blowup_records_and_csv():
    fam = [INST_ONE, CountingInstance(tuple(range(1, 26)), 5), INST_TWO]
    recs = measure_blowup(fam, "neumann", repeats=1)
    assert [r.ok for r in recs] == [True, False, True]
    assert recs[0].count == 1 and recs[2].count == 2
    assert recs[1].value is None and recs[1].count is None
    assert recs[0].precision_bits == precision_for(INST_ONE)
    text = render_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "pipeline,n_vars,precision_bits,wall_ms,value,count,ok"
    assert lines[1].startswith("neumann,1,8,") and lines[1].endswith(",1/4,1,true")
    assert lines[2].endswith(",,,false")


def test_measure_blowup_empty_family_and_bad_pipeline():
    assert render_csv(measure_blowup([], "disk")) == CSV_HEADER + "\n"
    with pytest.raises(ConfigError):
        measure_blowup([INST_ONE], "sphere")


def test_measure_blowup_interleaves_repeats_across_the_family(monkeypatch):
    calls = []

    def recording(inst, n):
        calls.append(inst.n_vars)
        if inst.n_vars == 2:
            raise InsufficientPrecision("fails on its first run")
        return PIPELINES["neumann"](inst, n)

    monkeypatch.setitem(PIPELINES, "recording", recording)
    fam = [INST_ONE, INST_PAIR, INST_TWO]
    recs = measure_blowup(fam, "recording", repeats=3)
    # one run of every size per round; a size that failed is not run again
    assert calls == [1, 2, 4, 1, 4, 1, 4]
    assert [(r.n_vars, r.ok, r.count) for r in recs] == [(1, True, 1), (2, False, None),
                                                         (4, True, 2)]
    assert recs[1].error == "fails on its first run" and recs[1].wall_ms == 0.0


def test_counting_instance_is_an_immutable_value():
    inst = CountingInstance((2, 3, 5, 7), 10)
    assert inst == INST_TWO and hash(inst) == hash(INST_TWO)
    assert inst != CountingInstance((2, 3, 5, 7), 12) and inst != (2, 3, 5, 7)
    assert repr(inst) == "CountingInstance(weights=(2, 3, 5, 7), target=10)"
    for name in ("weights", "target", "_low", "_rest"):
        with pytest.raises(AttributeError):
            setattr(inst, name, getattr(inst, name))
        with pytest.raises(AttributeError):
            delattr(inst, name)
    assert inst.accepts(0b1010) and not inst.accepts(0b0011)


def test_max_vars_env_cap():
    # instances of more than hardness.MAX_VARS = 24 items are refused, and the
    # benchmark records them as failed; 24 items still build an integrand
    assert hardness.MAX_VARS == 24
    rng = random.Random(3)
    big = random_instance(rng, 25)
    with pytest.raises(PreconditionError):
        counting_integrand(big)
    recs = measure_blowup([big], "neumann", repeats=1)
    assert len(recs) == 1 and not recs[0].ok
    # it builds no verifier tables, so no assignment of it is verified
    assert big._low == big._rest == ()
    with pytest.raises(IndexError):
        big.accepts(0)
    fn = counting_integrand(random_instance(rng, 24))
    assert fn.linear_segments == 2 ** 25 and fn.verifier_calls() == 0


def test_random_instance_properties():
    rng = random.Random(11)
    for nv in (1, 3, 6, 9):
        inst = random_instance(rng, nv)
        assert inst.n_vars == nv
        assert all(w >= 1 for w in inst.weights)
        assert brute_force_count(inst) >= 1   # target realized by construction
    a = random_instance(random.Random(5), 6)
    b = random_instance(random.Random(5), 6)
    assert a == b
