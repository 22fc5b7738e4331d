"""Finite-field oracle tests.

The multiplicity test is checked against trial division by linear
factors, the locus comparison against hand-verified counts over small
fields, and the fiberwise scan against the per-point reference scan.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

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
    monkeypatch.setenv("DISCKIT_THREADS", "3")
    assert verify_discriminant_locus(4, 2, 7) == baseline
    monkeypatch.setenv("DISCKIT_THREADS", "16")
    assert verify_discriminant_locus(4, 2, 7) == baseline


def test_chunk_plan_is_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("DISCKIT_THREADS", "100000")
    plan = oracle._plan_chunks(101)
    assert len(plan) == 4
    assert [x for chunk in plan for x in chunk] == list(range(101))
    assert max(map(len, plan)) - min(map(len, plan)) <= 1
    assert len(oracle._plan_chunks(3)) == 3  # q caps it too
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert oracle._plan_chunks(101) == [range(101)]
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("DISCKIT_THREADS", "1")
    assert oracle._plan_chunks(101) == [range(101)]


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


def test_reference_grid_covers_the_edge_cases():
    assert len(REFERENCE_GRID) == 54
    assert any(d == 1 for d, _, _ in REFERENCE_GRID)
    # at l = d a generator is a nonzero constant, so no fiber has a zero
    compiled = oracle._compile_gens(3, 3, 5)
    assert any(len(t) == 1 and not any(t[0][0]) for t in compiled)
    assert (4, 2, 13) in REFERENCE_GRID  # has completeness mismatches
    assert oracle._scan_chunk((4, 2, 13, oracle._compile_gens(4, 2, 13), range(13)))[3]


@pytest.mark.parametrize(
    "d,l,q",
    [
        pytest.param(d, l, q, marks=pytest.mark.slow) if (d, q) == (5, 11) else (d, l, q)
        for d, l, q in REFERENCE_GRID
    ],
)
def test_fiberwise_scan_matches_the_brute_force(d, l, q):
    compiled = oracle._compile_gens(d, l, q)
    brute = [oracle._scan_chunk_brute((d, l, q, compiled, c)) for c in _halves(q)]
    for chunk, want in zip(_halves(q), brute):
        assert oracle._scan_chunk((d, l, q, compiled, chunk)) == want
    # the brute scan loops over first_coords in order, so on range(q) it
    # returns the two halves' counts added and their lists concatenated
    whole = tuple(a + b for a, b in zip(*brute))
    assert oracle._scan_chunk((d, l, q, compiled, range(q))) == whole


@pytest.mark.parametrize("d,l,q", [(3, 1, 7), (4, 2, 7)])
def test_fiberwise_scan_matches_the_brute_force_on_perturbed_generators(d, l, q):
    compiled = oracle._compile_gens(d, l, q)
    exps, c = compiled[0][1]
    bent = [list(terms) for terms in compiled]
    bent[0][1] = (exps, (c + 1) % q)
    for chunk in [range(q)] + _halves(q):
        fast = oracle._scan_chunk((d, l, q, bent, chunk))
        assert fast == oracle._scan_chunk_brute((d, l, q, bent, chunk))
    _zeros, _multiple, sound, complete = oracle._scan_chunk((d, l, q, bent, range(q)))
    assert sound and complete  # both mismatch directions occur


def test_fiberwise_disagreement_with_the_per_point_test_raises(monkeypatch):
    honest = oracle._multiple_root_points
    # t^3 + 1 has three simple roots over the closure of F_5
    monkeypatch.setattr(
        oracle, "_multiple_root_points", lambda *args: honest(*args) | {(1, 0, 0)}
    )
    with pytest.raises(DisckitError) as info:
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
