"""Finite-field oracle tests.

The multiplicity test is checked against trial division by linear
factors, the locus comparison against hand-verified counts over small
fields, the byte-map scan against the set-based scan it replaced and
the per-point reference scan, and the packed divisibility test of its
lanes against remainders.
"""

import concurrent.futures
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import edit_oracle_maps
from disckit import oracle
from disckit import (
    GF,
    QQ,
    BudgetError,
    ChartId,
    DisckitError,
    ParameterError,
    UniPoly,
    UnsupportedRingError,
    coeffs_mod,
    dimension_growth_check,
    has_root_of_multiplicity,
    verify_discriminant_locus,
)


def poly_over(p, coeffs):
    return UniPoly(GF(p), "t", coeffs)


def max_rational_multiplicity(p, f):
    """Largest multiplicity among the roots lying in F_p, by trial division."""
    best = 0
    for a in range(p):
        lin = poly_over(p, [-a, 1])
        g, m = f, 0
        while g.degree >= 1:
            q, r = divmod(g, lin)
            if not r.is_zero():
                break
            g, m = q, m + 1
        best = max(best, m)
    return best


def monic_irreducibles(p, max_deg):
    """All monic irreducibles of degree <= max_deg <= 3 over F_p.

    Degree 2 and 3 polynomials are irreducible exactly when they have
    no rational root, so trial evaluation suffices.
    """
    out = []
    for a in range(p):
        out.append(poly_over(p, [-a, 1]))
    if max_deg >= 2:
        for c0 in range(p):
            for c1 in range(p):
                f = poly_over(p, [c0, c1, 1])
                if all(not f.evaluate(GF(p).element(a)).is_zero() for a in range(p)):
                    out.append(f)
    if max_deg >= 3:
        for c0 in range(1, p):
            for c1 in range(p):
                for c2 in range(p):
                    f = poly_over(p, [c0, c1, c2, 1])
                    if all(not f.evaluate(GF(p).element(a)).is_zero() for a in range(p)):
                        out.append(f)
    return out


# ----- multiplicity test -----------------------------------------------------

def test_multiplicity_on_factored_polynomials():
    t = poly_over(11, [0, 1])
    one = poly_over(11, [1])
    f = (t - 3 * one) ** 2 * (t - 5 * one)  # double root at 3
    assert has_root_of_multiplicity(f, 1)
    assert has_root_of_multiplicity(f, 2)
    assert not has_root_of_multiplicity(f, 3)
    g = (t - 2 * one) ** 3
    assert has_root_of_multiplicity(g, 3)
    assert not has_root_of_multiplicity(g, 4)
    # separable cubic: only simple roots
    h = t * (t - one) * (t - 2 * one)
    assert has_root_of_multiplicity(h, 1)
    assert not has_root_of_multiplicity(h, 2)


def test_multiplicity_matches_planted_factorizations():
    """Plant products of distinct irreducibles with known exponents.

    Distinct irreducibles have disjoint root sets and each is
    separable, so the largest root multiplicity over the closure is
    exactly the largest planted exponent.  No gcd is involved in the
    construction, so this is an independent check of the oracle.
    """
    rng = random.Random(20260815)
    for p in (7, 11):
        pool = monic_irreducibles(p, 2)
        for _ in range(30):
            factors = rng.sample(pool, rng.randrange(1, 4))
            f = poly_over(p, [rng.randrange(1, p)])
            exponents = []
            for pi in factors:
                e = rng.randrange(1, 4)
                if f.degree + e * pi.degree >= p:
                    continue
                exponents.append(e)
                f = f * pi**e
            if not exponents:
                continue
            top = max(exponents)
            for m in range(1, top + 2):
                assert has_root_of_multiplicity(f, m) == (m <= top), (p, str(f), m)


def test_multiplicity_counts_roots_in_the_closure():
    # t^2 + 1 is irreducible over F_7, so its roots live in F_49:
    # invisible to trial division yet real for the oracle
    f = poly_over(7, [1, 0, 1])
    assert max_rational_multiplicity(7, f) == 0
    assert has_root_of_multiplicity(f, 1)
    assert not has_root_of_multiplicity(f, 2)
    g = f * f  # double roots at +-i, still no rational root
    assert max_rational_multiplicity(7, g) == 0
    assert has_root_of_multiplicity(g, 2)
    assert not has_root_of_multiplicity(g, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("coeffs", [[0, 0, 1], [0, 0, 1, 1]], ids=["t^2", "t^2(t+1)"])
def test_multiplicity_up_to_and_past_the_degree(coeffs, m):
    # every root lies in F_7, so trial division gives the answer
    f = poly_over(7, coeffs)
    assert max_rational_multiplicity(7, f) == 2
    assert has_root_of_multiplicity(f, m) == (m <= 2)


def test_a_multiplicity_above_the_degree_runs_no_gcd(monkeypatch):
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("no gcd is needed past the degree")

    monkeypatch.setattr(oracle, "_gcd_mod", refuse)
    assert not has_root_of_multiplicity(poly_over(7, [0, 0, 1]), 10**12)
    assert not oracle._has_mult_root_ints([0, 0, 1], 3, 7)
    assert calls == []


def test_rational_multiplicity_is_a_lower_bound():
    rng = random.Random(7)
    for p in (7, 11):
        for _ in range(40):
            deg = rng.randrange(1, p)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = poly_over(p, coeffs)
            seen = max_rational_multiplicity(p, f)
            for m in range(1, seen + 1):
                assert has_root_of_multiplicity(f, m)


def test_multiplicity_rejects_bad_inputs():
    f = UniPoly(QQ, "t", [1, 1])
    with pytest.raises(UnsupportedRingError):
        has_root_of_multiplicity(f, 1)
    g = poly_over(5, [1, 0, 0, 0, 0, 1])  # degree 5 = p
    with pytest.raises(ParameterError):
        has_root_of_multiplicity(g, 1)
    h = poly_over(5, [1, 1])
    with pytest.raises(ParameterError):
        has_root_of_multiplicity(h, 0)
    with pytest.raises(ParameterError):
        has_root_of_multiplicity(poly_over(5, []), 1)
    with pytest.raises(ParameterError):
        oracle._has_mult_root_ints([0, 5], 2, 5)  # zero mod 5


def test_coeffs_mod():
    from disckit import ZZ

    f = UniPoly(ZZ, "t", [10, -1, 7])
    assert coeffs_mod(f, 7) == [3, 6]  # leading 7 dies mod 7
    assert coeffs_mod(f, 5) == [0, 4, 2]
    with pytest.raises(ParameterError):
        coeffs_mod(f, 6)
    g = UniPoly(QQ, "t", [Fraction(1, 2), Fraction(-3, 4), Fraction(14, 3)])
    assert coeffs_mod(g, 7) == [4, 1]  # 1/2 = 4 and -3/4 = 1 mod 7; 14/3 dies
    assert coeffs_mod(g, 5) == [3, 3, 3]
    with pytest.raises(ParameterError):
        coeffs_mod(g, 2)  # 2 divides a denominator
    with pytest.raises(ParameterError):
        coeffs_mod(g, 3)


# ----- exhaustive locus comparison -------------------------------------------

def test_verify_level_one_quadratics():
    rep = verify_discriminant_locus(2, 1, 5)
    # double roots of monic quadratics are exactly (t-a)^2: five of them
    assert rep.ideal_zero_count == 5
    assert rep.mult_root_count == 5
    assert rep.mismatches == ()
    assert rep.chart == ChartId(2, 0)
    assert (rep.d, rep.l, rep.q) == (2, 1, 5)


def test_verify_level_one_cubics():
    rep = verify_discriminant_locus(3, 1, 7)
    # (t-a)^2(t-b) hits each multiple-root cubic once: q^2 points
    assert rep.ideal_zero_count == 49
    assert rep.mult_root_count == 49
    assert rep.mismatches == ()


def test_verify_top_level_counts_q_points():
    # a root of multiplicity d forces f = (t-a)^d: exactly q forms
    for (d, q) in [(3, 7), (4, 7)]:
        rep = verify_discriminant_locus(d, d - 1, q)
        assert rep.ideal_zero_count == q
        assert rep.mult_root_count == q
        assert rep.mismatches == ()


def test_verify_impossible_multiplicity_is_empty():
    rep = verify_discriminant_locus(2, 2, 5)
    assert rep.ideal_zero_count == 0
    assert rep.mult_root_count == 0
    assert rep.mismatches == ()


def test_verify_quartic_level_two_is_sound_but_not_complete():
    rep = verify_discriminant_locus(4, 2, 7)
    assert rep.ideal_zero_count == 91
    assert rep.mult_root_count == 49
    assert rep.soundness_mismatches == ()
    assert len(rep.completeness_mismatches) == 42
    assert rep.mismatches == rep.completeness_mismatches
    assert list(rep.mismatches) == sorted(rep.mismatches)
    # every mismatch is a coefficient tuple of the right shape
    for point in rep.mismatches:
        assert len(point) == 4 and all(0 <= x < 7 for x in point)


# (q, d, l, |Z|, |M|): M has q^(d-l) points for l < d; the Z counts at d = 6
# and at q = 11, 13 are pinned from the scan itself, as regression values.
@pytest.mark.parametrize("q, d, l, zeros, multiple", [
    (7, 1, 1, 0, 0),
    (7, 2, 1, 7, 7), (7, 2, 2, 0, 0),
    (7, 3, 1, 49, 49), (7, 3, 2, 7, 7), (7, 3, 3, 0, 0),
    (7, 4, 1, 343, 343), (7, 4, 2, 91, 49), (7, 4, 3, 7, 7), (7, 4, 4, 0, 0),
    (7, 5, 1, 2401, 2401), (7, 5, 2, 511, 343), (7, 5, 3, 133, 49), (7, 5, 4, 7, 7),
    (7, 5, 5, 0, 0),
    (11, 1, 1, 0, 0),
    (11, 2, 1, 11, 11), (11, 2, 2, 0, 0),
    (11, 3, 1, 121, 121), (11, 3, 2, 11, 11), (11, 3, 3, 0, 0),
    (11, 4, 1, 1331, 1331), (11, 4, 2, 231, 121), (11, 4, 3, 11, 11), (11, 4, 4, 0, 0),
    (11, 5, 1, 14641, 14641), (11, 5, 2, 2431, 1331), (11, 5, 3, 561, 121), (11, 5, 4, 11, 11),
    (11, 5, 5, 0, 0),
    (13, 1, 1, 0, 0),
    (13, 2, 1, 13, 13), (13, 2, 2, 0, 0),
    (13, 3, 1, 169, 169), (13, 3, 2, 13, 13), (13, 3, 3, 0, 0),
    (13, 4, 1, 2197, 2197), (13, 4, 2, 325, 169), (13, 4, 3, 13, 13), (13, 4, 4, 0, 0),
    (13, 5, 1, 28561, 28561), (13, 5, 2, 4069, 2197), (13, 5, 3, 637, 169), (13, 5, 4, 13, 13),
    (13, 5, 5, 0, 0),
    (7, 6, 1, 16807, 16807), (7, 6, 2, 4081, 2401), (7, 6, 3, 973, 343), (7, 6, 4, 343, 49),
    (7, 6, 5, 7, 7), (7, 6, 6, 0, 0),
    *[pytest.param(11, 6, l, zeros, multiple, marks=pytest.mark.slow) for l, zeros, multiple in [
        (1, 161051, 161051), (2, 25641, 14641), (3, 4191, 1331), (4, 1001, 121), (5, 11, 11),
        (6, 0, 0),
    ]],
])
def test_the_ideal_zero_set_contains_the_multiple_root_locus(q, d, l, zeros, multiple):
    """M is inside Z everywhere over F_q, and Z is larger only at 2 <= l <= d-2."""
    assert multiple == (q ** (d - l) if l < d else 0)
    rep = verify_discriminant_locus(d, l, q)
    assert (rep.ideal_zero_count, rep.mult_root_count) == (zeros, multiple)
    assert rep.soundness_mismatches == ()
    assert len(rep.completeness_mismatches) == zeros - multiple


def test_mismatch_directions_partition_the_union():
    for (d, l, q) in [(4, 2, 5), (3, 1, 5)]:
        rep = verify_discriminant_locus(d, l, q)
        assert set(rep.soundness_mismatches).isdisjoint(rep.completeness_mismatches)
        assert rep.mismatches == tuple(
            sorted(rep.soundness_mismatches + rep.completeness_mismatches)
        )
        balanced = rep.ideal_zero_count - len(rep.completeness_mismatches)
        assert balanced == rep.mult_root_count - len(rep.soundness_mismatches)


def test_verify_chart_parameter():
    base = verify_discriminant_locus(2, 1, 5)
    explicit = verify_discriminant_locus(2, 1, 5, chart=ChartId(2, 0))
    assert base == explicit
    with pytest.raises(ParameterError):
        verify_discriminant_locus(2, 1, 5, chart=ChartId(0, 0))
    with pytest.raises(ParameterError):
        verify_discriminant_locus(2, 1, 5, chart=ChartId(1, 0))


def test_verify_parameter_gates():
    with pytest.raises(ParameterError):
        verify_discriminant_locus(2, 0, 5)  # level too low
    with pytest.raises(ParameterError):
        verify_discriminant_locus(2, 3, 5)  # level above degree
    with pytest.raises(ParameterError):
        verify_discriminant_locus(3, 1, 3)  # q must exceed d
    with pytest.raises(ParameterError):
        verify_discriminant_locus(2, 1, 6)  # composite modulus


def test_verify_budget():
    with pytest.raises(BudgetError):
        verify_discriminant_locus(3, 1, 7, budget=100)
    # exactly at the budget is fine
    rep = verify_discriminant_locus(3, 1, 7, budget=343)
    assert rep.ideal_zero_count == 49


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_refused_before_compiling(budget, monkeypatch):
    def no_compile(*args):
        raise AssertionError("compiled the generators")

    monkeypatch.setattr(oracle, "_compile_gens", no_compile)
    with pytest.raises(ParameterError, match="at least 1"):
        verify_discriminant_locus(2, 1, 5, budget=budget)
    with pytest.raises(ParameterError, match="at least 1"):
        dimension_growth_check(2, 1, 5, 7, budget=budget)


def test_worker_count_does_not_change_the_report(monkeypatch):
    baseline = verify_discriminant_locus(4, 2, 7)
    # the scan is far too small to repay a pool: let every worker count start one
    monkeypatch.setattr(oracle, "_POOL_WORK", 1)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setenv("DISCKIT_THREADS", "3")
    assert verify_discriminant_locus(4, 2, 7) == baseline
    monkeypatch.setenv("DISCKIT_THREADS", "16")
    assert verify_discriminant_locus(4, 2, 7) == baseline
    assert pools == [3, 4]


def test_a_pooled_scan_builds_its_tables_once(monkeypatch):
    """The fiber plan, the power table and the irreducible sieve are built
    once, in the calling process, and handed to every chunk; the report is
    unchanged."""
    baseline = verify_discriminant_locus(4, 2, 7)
    monkeypatch.setattr(oracle, "_POOL_WORK", 1)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("DISCKIT_THREADS", "3")
    caller = os.getpid()
    calls = []

    def counting(name):
        real = getattr(oracle, name)

        def build(*args):
            # a forked worker inherits this wrapper; building there fails the scan
            assert os.getpid() == caller, f"{name} was rebuilt in a worker"
            calls.append(name)
            return real(*args)

        return build

    for name in ("_fiber_plan", "_monic_irreducibles", "_power_table"):
        monkeypatch.setattr(oracle, name, counting(name))
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    report = verify_discriminant_locus(4, 2, 7)
    assert pools == [3]
    assert sorted(calls) == ["_fiber_plan", "_monic_irreducibles", "_power_table"]
    assert repr(report) == repr(baseline)


def test_small_scans_start_no_pool(monkeypatch):
    cases = [(4, 2, 7), (3, 1, 47), (5, 1, 7)]
    baseline = [verify_discriminant_locus(*case) for case in cases]

    def no_pool(*args, **kwargs):
        raise AssertionError("started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("DISCKIT_THREADS", "4")
    assert [verify_discriminant_locus(*case) for case in cases] == baseline


def test_chunk_plan_is_capped_at_the_cpu_count(monkeypatch):
    big = 10**6 * oracle._POOL_WORK
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    plan = oracle._plan_chunks(101, 100000, big)
    assert len(plan) == 4
    assert [x for chunk in plan for x in chunk] == list(range(101))
    assert max(map(len, plan)) - min(map(len, plan)) <= 1
    assert len(oracle._plan_chunks(3, 100000, big)) == 3  # q caps it too
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert oracle._plan_chunks(101, 100000, big) == [range(101)]
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    assert oracle._plan_chunks(101, 1, big) == [range(101)]


def test_chunk_plan_is_capped_by_the_predicted_work(monkeypatch):
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 8)
    work = oracle._POOL_WORK
    assert oracle._plan_chunks(101, 8, work - 1) == [range(101)]
    assert oracle._plan_chunks(101, 8, 0) == [range(101)]
    assert len(oracle._plan_chunks(101, 8, 3 * work)) == 3
    assert len(oracle._plan_chunks(101, 8, 3 * work - 1)) == 2
    assert len(oracle._plan_chunks(101, 2, 3 * work)) == 2


def test_worker_count_validation(monkeypatch):
    monkeypatch.setenv("DISCKIT_THREADS", "zero")
    with pytest.raises(ParameterError):
        verify_discriminant_locus(2, 1, 5)
    monkeypatch.setenv("DISCKIT_THREADS", "0")
    with pytest.raises(ParameterError):
        verify_discriminant_locus(2, 1, 5)


# ----- fiberwise scan against the per-point reference ---------------------------

REFERENCE_GRID = [
    (d, l, q)
    for d in range(1, 6)
    for q in (2, 3, 5, 7, 11, 13)
    if d < q and q**d <= 2 * 10**5
    for l in range(1, d + 1)
]


def _halves(q):
    return [range(q // 2), range(q // 2, q)]


def _multiple_root_points(d, m, q, first_coords):
    """M as a set of point tuples, enumerated as the scan did before its byte maps.

    h runs over the monic irreducibles with m * deg h <= d, and g over
    the monic forms of degree d - m * deg h whose product h^m * g has
    u_0 in first_coords.
    """
    points = set()
    for k, of_degree in enumerate(oracle._monic_irreducibles(d // m, q), start=1):
        r = d - m * k
        for h in of_degree:
            hm = [1]
            for _ in range(m):
                hm = oracle._mul_mod(hm, h, q)
            if r == 0:
                if hm[0] in first_coords:
                    points.add(tuple(hm[:-1]))
                continue
            if hm[0]:
                inv = pow(hm[0], -1, q)
                lows = [u0 * inv % q for u0 in first_coords]
            else:
                lows = range(q) if 0 in first_coords else ()
            offsets = [[g0 * c for c in hm] for g0 in lows]
            for mid in itertools.product(range(q), repeat=r - 1):
                base = oracle._mul_mod(hm, [0, *mid, 1], q)
                tail = tuple(base[len(hm):d])
                for offset in offsets:
                    points.add(tuple([(a + b) % q for a, b in zip(base, offset)]) + tail)
    return points


def _row_major(d, q, first_coords):
    """The points with u_0 in first_coords, in the order of the oracle's byte maps."""
    return itertools.product(first_coords, *[range(q)] * (d - 1))


def _scan_chunk_sets(args):
    """The set-based scan that the byte maps replaced: Z streamed against the set M.

    Z's points are read off the byte maps of oracle._IdealZeros, M is
    _multiple_root_points, and every point in one of them only is
    re-tested per point, as oracle._scan_chunk does.
    """
    d, l, q, compiled, first_coords = args
    plan, powers, _factors = oracle._scan_tables(d, l, q, compiled)
    zeros = oracle._IdealZeros(d, q, compiled, plan, powers)
    marks = b"".join(zeros.marks(first_coords))
    multiple = _multiple_root_points(d, l + 1, q, first_coords)
    mult_root_count = len(multiple)
    ideal_zero_count = 0
    complete_miss = []
    for point, byte in zip(_row_major(d, q, first_coords), marks):
        if byte:
            ideal_zero_count += 1
            if point in multiple:
                multiple.remove(point)
            else:
                complete_miss.append(point)
    sound_miss = sorted(multiple)
    for points, fast in ((sound_miss, (False, True)), (complete_miss, (True, False))):
        for point in points:
            assert oracle._classify(point, compiled, l + 1, q, powers) == fast, point
    return ideal_zero_count, mult_root_count, sound_miss, complete_miss


def _assert_scans_agree(d, l, q, compiled, chunk):
    """The byte-map scan against the set-based scan and the per-point scan."""
    args = (d, l, q, compiled, chunk)
    fast = oracle._scan_chunk(args)
    assert fast == _scan_chunk_sets(args)
    assert fast == oracle._scan_chunk_brute(args)
    return fast


def test_compiling_a_chart_of_another_variable_order_raises(monkeypatch):
    """The check survives `python -O`: it raises DisckitError, not AssertionError."""
    real = oracle.discriminant_ideal
    monkeypatch.setattr(oracle, "discriminant_ideal", lambda d, l, chart: real(d, l, ChartId(0, 0)))
    with pytest.raises(DisckitError, match="is not over u0..u2"):
        oracle._compile_gens(3, 1, 5)


def test_reference_grid_covers_the_edge_cases():
    assert len(REFERENCE_GRID) == 54
    assert any(d == 1 for d, _, _ in REFERENCE_GRID)
    # at l = d a generator is a nonzero constant, so no fiber has a zero
    compiled = oracle._compile_gens(3, 3, 5)
    assert any(len(t) == 1 and not any(t[0][0]) for t in compiled)
    assert (4, 2, 13) in REFERENCE_GRID  # has completeness mismatches
    assert oracle._scan_chunk((4, 2, 13, oracle._compile_gens(4, 2, 13), range(13)))[3]


# fields larger than one block of 64 lanes: several blocks, a partial last one
MULTI_BLOCK_GRID = [(2, l, q) for q in (67, 131) for l in (1, 2)]


@pytest.mark.parametrize(
    "d,l,q",
    [
        pytest.param(d, l, q, marks=pytest.mark.slow) if (d, q) == (5, 11) else (d, l, q)
        for d, l, q in REFERENCE_GRID
    ] + MULTI_BLOCK_GRID,
)
def test_fiberwise_scan_matches_the_brute_force(d, l, q, monkeypatch):
    if (d, l, q) in MULTI_BLOCK_GRID:
        monkeypatch.setattr(oracle, "_LANES", 64)
    compiled = oracle._compile_gens(d, l, q)
    halves = [_assert_scans_agree(d, l, q, compiled, c) for c in _halves(q)]
    # the scans run over first_coords in order, so on range(q) they return
    # the two halves' counts added and their lists concatenated
    whole = tuple(a + b for a, b in zip(*halves))
    assert _assert_scans_agree(d, l, q, compiled, range(q)) == whole


# cases whose chunks the blocks below cut into runs of u_0 values: M is
# single points at (2, 1) and (3, 2), lines over g_0 at (3, 1) and (4, 2),
# over g_1 at (4, 1) and over g_2 at (5, 1)
BLOCK_CASES = [(2, 1, 13), (2, 2, 5), (3, 1, 7), (3, 2, 7), (3, 3, 5), (4, 1, 5), (4, 2, 7),
               (4, 3, 5), (5, 1, 7)]


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("d,l,q", BLOCK_CASES, ids=["-".join(map(str, c)) for c in BLOCK_CASES])
def test_blocks_that_cut_the_first_coordinate_match_the_references(d, l, q, rows, monkeypatch):
    width = q ** (d - 1)
    # every block size from rows * width to just below the next row walks rows values at a time
    monkeypatch.setattr(oracle, "_BLOCK", rows * width + width - 1)
    walked = []
    real = oracle._multiple_root_marks

    def recording(*args):
        marks = real(*args)
        coords = args[2]
        walked.append(coords)
        assert len(marks) == len(coords) * width
        on = {point for point, byte in zip(_row_major(d, q, coords), marks) if byte}
        assert on == _multiple_root_points(d, l + 1, q, coords)
        return marks

    monkeypatch.setattr(oracle, "_multiple_root_marks", recording)
    compiled = oracle._compile_gens(d, l, q)
    for chunk in [range(q)] + _halves(q):
        walked.clear()
        _assert_scans_agree(d, l, q, compiled, chunk)
        assert walked == [chunk[i:i + rows] for i in range(0, len(chunk), rows)]


def test_block_size_does_not_depend_on_the_worker_count(monkeypatch):
    """A chunk walks blocks of _BLOCK // q^(d-1) values of u_0 (at least one),
    whatever the number of chunks."""
    monkeypatch.setattr(oracle, "_BLOCK", 2 * 7**2)
    walked = []
    real = oracle._multiple_root_marks

    def recording(*args):
        walked.append(args[2])
        return real(*args)

    monkeypatch.setattr(oracle, "_multiple_root_marks", recording)
    compiled = oracle._compile_gens(3, 1, 7)
    for workers in (1, 2, 3):
        walked.clear()
        for chunk in oracle._plan_chunks(7, workers, 10**9):
            oracle._scan_chunk((3, 1, 7, compiled, chunk))
        assert {len(coords) for coords in walked} <= {1, 2}
        assert [u0 for coords in walked for u0 in coords] == list(range(7))


# The child's peak resident set: on Linux its ru_maxrss starts at the size of
# the process it was started from (exec records the old address space's peak),
# so it reads its own VmHWM there.
_PEAK_PROBE = """
import resource, sys
from disckit import verify_discriminant_locus
r = verify_discriminant_locus(4, 1, 97, budget=10**9)
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS
print(r.ideal_zero_count, r.mult_root_count, len(r.mismatches), peak)
"""


@pytest.mark.slow
def test_a_large_scan_holds_one_block_of_bytes_not_sets_of_points():
    """verify(4, 1, 97) with one worker peaks under 48 MiB in a fresh process
    (119 MiB when Z and M were sets of its 912 673 points)."""
    src = Path(oracle.__file__).resolve().parents[1]
    env = dict(os.environ, DISCKIT_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _PEAK_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=600)
    zeros, multiple, mismatches, peak = map(int, out.stdout.split())
    assert (zeros, multiple, mismatches) == (912673, 912673, 0)
    assert peak < 48 * 2**20


def _bump_one_coefficient(compiled, q):
    exps, c = compiled[0][1]
    bent = [list(terms) for terms in compiled]
    bent[0][1] = (exps, (c + 1) % q)
    return bent


def _every_coefficient_top(compiled, q):
    # coefficients of q - 1 push the lane values towards their bound 2^W
    return [[(exps, q - 1) for exps, _ in terms] for terms in compiled]


@pytest.mark.parametrize(
    "d,l,q,bend",
    [
        pytest.param(3, 1, 7, _bump_one_coefficient, id="3-1-7"),
        pytest.param(4, 2, 7, _bump_one_coefficient, id="4-2-7"),
        pytest.param(2, 1, 131, _every_coefficient_top, id="2-1-131-top"),
        # on the grid a generator sums more monomials than u_{d-1} has powers
        pytest.param(3, 1, 13, _every_coefficient_top, id="3-1-13-top"),
        pytest.param(4, 2, 7, _every_coefficient_top, id="4-2-7-top"),
        pytest.param(3, 1, 47, _every_coefficient_top, id="3-1-47-top",
                     marks=pytest.mark.slow),
    ],
)
def test_fiberwise_scan_matches_the_brute_force_on_perturbed_generators(d, l, q, bend):
    bent = bend(oracle._compile_gens(d, l, q), q)
    for chunk in [range(q)] + _halves(q):
        fast = oracle._scan_chunk((d, l, q, bent, chunk))
        assert fast == oracle._scan_chunk_brute((d, l, q, bent, chunk))
    _zeros, _multiple, sound, complete = oracle._scan_chunk((d, l, q, bent, range(q)))
    assert sound and complete  # both mismatch directions occur


def _lane_zeros(lanes, values):
    """The values that the packed test finds divisible, one value per lane."""
    out = []
    for start in range(0, len(values), oracle._LANES):
        part = values[start:start + oracle._LANES]
        block = lanes.block(range(len(part)), [list(part)])
        marks = lanes.zeros([([0], [1])], block)
        assert len(marks) == len(part) and set(marks) <= {0, lanes.mark}
        out += [v for v, byte in zip(part, marks) if byte]
    return out


# (top, terms): terms = top + 1 powers of one variable, or on the grid
# (top + 1)^2 > top + 1 monomials in two
@pytest.mark.parametrize("top,terms", [(0, 1), (3, 4), (2, 9)], ids=["0", "3", "2-grid"])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_packed_divisibility_matches_the_remainder(q, top, terms):
    lanes = oracle._Lanes(q, terms)
    assert 2**lanes.width > terms * (q - 1) ** 2
    values = range(2**lanes.width)
    assert _lane_zeros(lanes, values) == [v for v in values if v % q == 0]


def test_packed_divisibility_next_to_the_lane_bound():
    q = 3163
    for terms in (5, 25):  # five powers of one variable, or 5 x 5 monomials
        lanes = oracle._Lanes(q, terms)
        bound = 2**lanes.width
        assert bound > terms * (q - 1) ** 2
        below = range(bound - 200, bound)
        assert _lane_zeros(lanes, below) == [v for v in below if v % q == 0]
        multiples = range((bound - 1) // q * q - 150 * q, bound, q)
        assert _lane_zeros(lanes, multiples) == list(multiples)
        shifted = range(multiples.start + 1, bound, q)
        assert _lane_zeros(lanes, shifted) == []


def test_grid_lane_width_counts_monomials_not_powers(monkeypatch):
    # nine monomials u_1^i u_2^j (i, j <= 2), so a lane sums up to nine
    # products where u_2 alone has three powers
    q = 7
    compiled = [[((0, i, j), q - 1) for i in range(3) for j in range(3)], [((1, 0, 0), 1)]]
    made = []
    real = oracle._Lanes.__init__

    def recording(self, q, terms):
        made.append(self)
        real(self, q, terms)

    monkeypatch.setattr(oracle._Lanes, "__init__", recording)
    for chunk in [range(q)] + _halves(q):
        fast = oracle._scan_chunk((3, 1, q, compiled, chunk))
        assert fast == oracle._scan_chunk_brute((3, 1, q, compiled, chunk))
    largest = max(
        (q - 1) * sum(pow(a, i, q) * pow(x, j, q) % q for i in range(3) for j in range(3))
        for a in range(q) for x in range(q)
    )
    assert largest >= 2 ** (3 * (q - 1) ** 2).bit_length()  # past a width from powers
    assert all(largest < 2**lanes.width for lanes in made)


def _marked_by_bits(lanes, flags, count):
    """The reference zero read: one byte per lane, lanes.mark where a bit is set."""
    out = bytearray(count)
    while flags:
        bit = flags & -flags
        out[bit.bit_length() // (8 * lanes.size)] = lanes.mark
        flags ^= bit
    return bytes(out)


@pytest.mark.parametrize("q,terms", [(2, 1), (7, 9), (47, 5), (47, 25), (3163, 5)])
def test_zero_lanes_are_read_off_their_own_bytes(q, terms):
    lanes = oracle._Lanes(q, terms)
    assert lanes.size * 8 >= lanes.n + lanes.width + 1
    rng = random.Random(q * terms)
    for count in (1, 7, 64, 2209):
        points = range(1000, 1000 + count)
        *_, high = lanes.block(points, [])
        # every lane's bit N is alone in its own byte, the i-th from byte N // 8 on
        raw = high.to_bytes(lanes.size * count, "little")
        hit = [j for j, byte in enumerate(raw) if byte]
        assert hit == [lanes.size * i + lanes.n // 8 for i in range(count)]
        assert {raw[j] for j in hit} == {lanes.mark}
        masks = [0, high] + [
            sum(1 << (8 * lanes.size * i + lanes.n) for i in range(count) if rng.random() < p)
            for p in (0.01, 0.5, 0.99)
        ]
        for flags in masks:
            assert flags & high == flags
            assert lanes.marked(flags, count) == _marked_by_bits(lanes, flags, count)
        assert lanes.marked(0, count) == bytes(count)
        assert lanes.marked(high, count) == bytes([lanes.mark]) * count


def _record_blocks(monkeypatch):
    """The lane count of every block that _Lanes.blocks builds from now on."""
    built = []
    real = oracle._Lanes.blocks

    def recording(self, k, monomials):
        assert k == 2  # the q x q grid at every d >= 3
        for block in real(self, k, monomials):
            built.append(len(block[0]))
            yield block

    monkeypatch.setattr(oracle._Lanes, "blocks", recording)
    return built


def _assert_whole_rows(built, q, cap, blocks):
    assert len(built) == blocks
    assert sum(built) == q * q
    assert all(lanes % q == 0 and lanes <= max(cap, q) for lanes in built)


# (_LANES, d, l, q, blocks): the q x q grid at a lowered lane cap that it
# fills exactly, that cuts it into runs of whole rows, or that lies below
# q, so that each block is one row
GRID_BLOCK_CASES = [
    (25, 3, 1, 5, 1),  # the 5 x 5 grid fills the 25 lanes exactly
    (24, 3, 1, 5, 2),  # 4 rows of 5 lanes, then 1
    (49, 4, 2, 7, 1),
    (48, 4, 2, 7, 2),  # 6 rows of 7 lanes, then 1
    (20, 3, 2, 7, 4),  # 2 rows, 2, 2, then 1
    (5, 3, 1, 11, 11),  # 5 < 11: one row of 11 lanes per block
    (4, 4, 2, 7, 7),
]


@pytest.mark.parametrize(
    "cap,d,l,q,blocks", GRID_BLOCK_CASES, ids=["-".join(map(str, c[:4])) for c in GRID_BLOCK_CASES]
)
def test_grid_blocks_of_whole_rows_match_the_brute_force(cap, d, l, q, blocks, monkeypatch):
    monkeypatch.setattr(oracle, "_LANES", cap)
    built = _record_blocks(monkeypatch)
    compiled = oracle._compile_gens(d, l, q)
    for chunk in [range(q)] + _halves(q):
        built.clear()
        args = (d, l, q, compiled, chunk)
        fast = oracle._scan_chunk(args)
        _assert_whole_rows(built, q, cap, blocks)
        assert fast == _scan_chunk_sets(args) == oracle._scan_chunk_brute(args)


# q^2 > 4096: the default cap holds 61 rows of 67 lanes, or 31 rows of 131
@pytest.mark.parametrize("q,blocks", [(67, 2), (131, 5)])
@pytest.mark.parametrize("l", [1, 2])
def test_wide_fields_split_the_grid_at_the_default_cap(l, q, blocks, monkeypatch):
    built = _record_blocks(monkeypatch)
    compiled = oracle._compile_gens(3, l, q)
    for chunk in (range(0, 1), range(q // 2, q // 2 + 2), range(q - 1, q)):
        built.clear()
        fast = oracle._scan_chunk((3, l, q, compiled, chunk))
        assert fast == oracle._scan_chunk_brute((3, l, q, compiled, chunk))
        _assert_whole_rows(built, q, oracle._LANES, blocks)


@pytest.mark.parametrize(
    "d,l,q,extra",
    [
        (3, 3, 5, []),
        (1, 1, 1000003, []),
        (3, 1, 7, [[((0, 0, 0), 3)]]),  # the constant 3 joins real generators
    ],
)
def test_a_nonzero_constant_generator_builds_no_block(d, l, q, extra, monkeypatch):
    compiled = oracle._compile_gens(d, l, q) + extra

    def no_block(*args):
        raise AssertionError("built a block of lanes")

    monkeypatch.setattr(oracle._Lanes, "block", no_block)
    args = (d, l, q, compiled, range(q))
    zeros, multiple, sound, complete = oracle._scan_chunk(args)
    assert (zeros, complete) == (0, [])
    # Z is empty, so every point of M is a soundness miss
    assert len(sound) == multiple == (q ** (d - l) if l < d else 0)
    if q**d <= 10**4:  # the references visit every point
        assert (zeros, multiple, sound, complete) == _scan_chunk_sets(args)
        assert (zeros, multiple, sound, complete) == oracle._scan_chunk_brute(args)


def test_fiberwise_disagreement_with_the_per_point_test_raises(monkeypatch):
    # t^3 + 1 has three simple roots over the closure of F_5
    edit_oracle_maps(monkeypatch, 3, 5, (1, 0, 0), True, maps=("M",))
    with pytest.raises(DisckitError, match=r"disagrees with the per-point test at \(1, 0, 0\)") as info:
        verify_discriminant_locus(3, 1, 5)
    assert info.value.exit_code == 5


def test_scan_chunk_contract(monkeypatch):
    """verify hands _scan_chunk (d, l, q, compiled, first_coords) and gets
    (ideal_zero_count, mult_root_count, sound_miss, complete_miss) back;
    the benchmark's tracer wraps _scan_chunk and relies on both shapes."""
    monkeypatch.setenv("DISCKIT_THREADS", "1")
    calls = []
    scan = oracle._scan_chunk

    def recording(args):
        calls.append(args)
        return scan(args)

    monkeypatch.setattr(oracle, "_scan_chunk", recording)
    verify_discriminant_locus(4, 2, 7)
    [(d, l, q, compiled, first_coords)] = calls
    assert (d, l, q, first_coords) == (4, 2, 7, range(7))
    assert compiled == oracle._compile_gens(4, 2, 7)
    result = scan(calls[0])
    assert type(result) is tuple and len(result) == 4
    zeros, multiple, sound, complete = result
    assert type(zeros) is int and type(multiple) is int
    assert type(sound) is list and type(complete) is list
    assert (zeros, multiple, len(sound), len(complete)) == (91, 49, 0, 42)


# ----- dimension growth -------------------------------------------------------

def test_growth_quadratic_discriminant_is_a_line():
    rep = dimension_growth_check(2, 1, 5, 11)
    assert (rep.count_q1, rep.count_q2) == (5, 11)
    assert rep.ratio == rep.expected == Fraction(11, 5)
    assert rep.within_tolerance
    assert rep.tolerance == 3


def test_growth_cubic_discriminant_is_a_surface():
    rep = dimension_growth_check(3, 1, 5, 11)
    assert (rep.count_q1, rep.count_q2) == (25, 121)
    assert rep.ratio == rep.expected == Fraction(121, 25)
    assert rep.within_tolerance


def test_growth_with_completeness_noise_stays_within_tolerance():
    rep = dimension_growth_check(4, 2, 5, 7)
    assert (rep.count_q1, rep.count_q2) == (45, 91)
    assert rep.ratio == Fraction(91, 45)
    assert rep.expected == Fraction(49, 25)
    assert rep.within_tolerance
    # the ratio is off the nose, so an exact-match tolerance rejects it
    strict = dimension_growth_check(4, 2, 5, 7, tolerance=1)
    assert not strict.within_tolerance


def test_growth_rejects_unordered_fields():
    with pytest.raises(ParameterError):
        dimension_growth_check(2, 1, 11, 5)
    with pytest.raises(ParameterError):
        dimension_growth_check(2, 1, 5, 5)


@pytest.mark.parametrize("tolerance", [0, -3])
def test_tolerance_below_one_is_refused_before_scanning(tolerance, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a field")

    monkeypatch.setattr(oracle, "verify_discriminant_locus", no_scan)
    with pytest.raises(ParameterError, match="at least 1"):
        dimension_growth_check(2, 1, 5, 7, tolerance=tolerance)


def test_verify_at_degree_one_builds_nothing_of_size_q():
    # at d = 1 no coordinate is substituted, so neither a q x (top+1)
    # power table nor a set of the first coordinates is needed
    tracemalloc.start()
    try:
        rep = verify_discriminant_locus(1, 1, 1000003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep.ideal_zero_count, rep.mult_root_count) == (0, 0)
    assert peak < 4 * 2**20


def test_growth_budget_propagates():
    with pytest.raises(BudgetError):
        dimension_growth_check(3, 1, 5, 11, budget=200)


@pytest.mark.parametrize(
    "q1,q2,budget,error,message",
    [
        (5, 7, 200, BudgetError, "7^3 points exceeds the budget 200"),
        (5, 7, 100, BudgetError, "5^3 points exceeds the budget 100"),
        (5, 9, 10**4, ParameterError, "9 is not prime"),
        (5, 6, 10**4, ParameterError, "6 is not prime"),
    ],
)
def test_growth_checks_both_fields_before_scanning_either(
    q1, q2, budget, error, message, monkeypatch
):
    def no_scan(args):
        raise AssertionError("scanned a field")

    monkeypatch.setattr(oracle, "_scan_chunk", no_scan)
    with pytest.raises(error, match=re.escape(message)):
        dimension_growth_check(3, 1, q1, q2, budget=budget)


# ----- the closed form of M -----------------------------------------------------

def omit_consistently(monkeypatch, d, l, q, extra=None):
    """Drop the least point of M from both M and Z, or add extra to both.

    Z and M then still agree, so the re-test of their symmetric difference
    sees nothing: only the closed-form count of M can catch the change.
    """
    point = min(_multiple_root_points(d, l + 1, q, range(q))) if extra is None else extra
    edit_oracle_maps(monkeypatch, d, q, point, extra is not None)


@pytest.mark.parametrize("d, l, q", [(2, 1, 5), (3, 1, 5), (3, 2, 7), (4, 2, 5)])
def test_multiple_root_count_is_held_to_its_closed_form(d, l, q, monkeypatch):
    assert verify_discriminant_locus(d, l, q).mult_root_count == q ** (d - l)
    omit_consistently(monkeypatch, d, l, q)
    with pytest.raises(DisckitError, match=rf"found {q ** (d - l) - 1} forms .* there are {q ** (d - l)}"):
        verify_discriminant_locus(d, l, q)


def test_no_multiple_root_form_at_level_d(monkeypatch):
    assert verify_discriminant_locus(3, 3, 5).mult_root_count == 0
    omit_consistently(monkeypatch, 3, 3, 5, extra=(1, 2, 3))
    with pytest.raises(DisckitError, match="found 1 forms .* there are 0"):
        verify_discriminant_locus(3, 3, 5)


def test_a_point_dropped_from_m_alone_raises(monkeypatch):
    least = min(_multiple_root_points(3, 2, 5, range(5)))
    edit_oracle_maps(monkeypatch, 3, 5, least, False, maps=("M",))
    with pytest.raises(DisckitError, match=re.escape(f"disagrees with the per-point test at {least}")):
        verify_discriminant_locus(3, 1, 5)


def test_growth_with_two_zero_counts_is_within_tolerance():
    rep = dimension_growth_check(2, 2, 3, 5)
    assert (rep.count_q1, rep.count_q2) == (0, 0)
    assert rep.ratio is None
    assert rep.within_tolerance
