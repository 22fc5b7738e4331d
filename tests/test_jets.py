"""Jet map, incidence ideal, discriminant ideal, and chart tests."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from disckit import (
    GF,
    DisckitError,
    QQ,
    ZZ,
    ChartId,
    ParameterError,
    PolynomialRing,
    RingHom,
    SylvesterSpec,
    UniPoly,
    bezout_certificate,
    chart_consistency,
    chart_ring,
    discriminant_ideal,
    generic_section,
    homogeneous_classical_discriminant,
    incidence_ideal,
    rank_table,
    resultant,
    taylor_map,
)
from disckit import resultants
from disckit.jets import _discriminant_ideal_sylvester
from disckit.resultants import (
    MAX_SYMBOLIC_DEGREE,
    _generic_raw_discriminant,
    _generic_raw_discriminant_sylvester,
)
from disckit.rings import _Packed


def test_chart_id_validation():
    with pytest.raises(ParameterError):
        ChartId(0, 2)
    with pytest.raises(ParameterError):
        ChartId(-1, 0)
    with pytest.raises(ParameterError):
        chart_ring(3, ChartId(4, 0))
    with pytest.raises(ParameterError):
        chart_ring(0, ChartId(0, 0))


def test_chart_ring_names_skip_pinned_index():
    r = chart_ring(3, ChartId(3, 0))
    assert r.names == ("u0", "u1", "u2")
    r = chart_ring(3, ChartId(1, 0))
    assert r.names == ("u0", "u2", "u3")
    assert chart_ring(2, ChartId(0, 1), QQ).base == QQ


def test_generic_section_monic_chart():
    f = generic_section(3, ChartId(3, 0))
    ring = f.coeff_ring
    assert f.var == "t"
    assert f.degree == 3
    assert f.leading_coeff() == ring.one
    assert f.coefficient(0) == ring.variable("u0")
    assert f.coefficient(1) == ring.variable("u1")
    assert f.coefficient(2) == ring.variable("u2")


def test_generic_section_interior_pin_and_s_patch():
    f = generic_section(3, ChartId(1, 0))
    ring = f.coeff_ring
    assert str(f) == "u3*t^3 + u2*t^2 + t + u0"
    g = generic_section(3, ChartId(1, 1))
    gring = g.coeff_ring
    assert g.var == "s"
    # coefficient of s^(d-k) is u_k, with u_1 pinned to 1 at s^2
    assert g.coefficient(3) == gring.variable("u0")
    assert g.coefficient(2) == gring.one
    assert g.coefficient(1) == gring.variable("u2")
    assert g.coefficient(0) == gring.variable("u3")


def test_taylor_map_worked_example():
    comps = [str(c) for c in taylor_map(3, 2, ChartId(3, 0))]
    assert comps == [
        "t^3 + u2*t^2 + u1*t + u0",
        "3*t^2 + 2*u2*t + u1",
        "3*t + u2",
    ]


@pytest.mark.parametrize("chart", [ChartId(4, 0), ChartId(2, 0), ChartId(1, 1)])
def test_taylor_components_are_scaled_derivatives(chart):
    d, l = 4, 4
    f = generic_section(d, chart, QQ)
    deriv = f
    for j, comp in enumerate(taylor_map(d, l, chart)):
        scale = QQ.element(Fraction(1, math.factorial(j)))
        assert comp == deriv * scale
        deriv = deriv.derivative()


def test_taylor_map_prefix_property_and_bounds():
    full = taylor_map(3, 3, ChartId(3, 0))
    part = taylor_map(3, 1, ChartId(3, 0))
    assert part == full[:2]
    with pytest.raises(ParameterError):
        taylor_map(3, 4, ChartId(3, 0))
    with pytest.raises(ParameterError):
        taylor_map(3, -1, ChartId(3, 0))


def test_taylor_expansion_identity_at_points():
    # full-order components reconstruct f(t0 + e0) exactly
    rng = random.Random(5001)
    comps = taylor_map(3, 3, ChartId(3, 0))
    ring = comps[0].coeff_ring
    for _ in range(15):
        images = {name: QQ.element(rng.randint(-4, 4)) for name in ring.names}
        psi = RingHom(ring, QQ, images)
        t0 = QQ.element(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        e0 = QQ.element(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        f = comps[0].map_coefficients(psi)
        total = QQ.zero
        for j, comp in enumerate(comps):
            total = total + comp.map_coefficients(psi).evaluate(t0) * e0**j
        assert f.evaluate(t0 + e0) == total


def test_incidence_ideal_shape():
    gens = incidence_ideal(3, 2, ChartId(3, 0))
    assert gens.ring.names == ("u0", "u1", "u2", "t")
    assert len(gens.gens) == 3
    assert all(g.terms for g in gens.gens)  # nonzero
    # degree in t drops by one per derivative
    assert [g.degree_in("t") for g in gens.gens] == [3, 2, 1]


# (d, pinned coefficient, patch) -> (ring, generators f, f', ..., f^(d)),
# taken from the incidence ideal built term by term.
INCIDENCE_GENERATORS = {
    (1, 0, 0): ("ZZ[u1,t]", ["u1*t + 1", "u1"]),
    (1, 0, 1): ("ZZ[u1,s]", ["u1 + s", "1"]),
    (1, 1, 0): ("ZZ[u0,t]", ["u0 + t", "1"]),
    (1, 1, 1): ("ZZ[u0,s]", ["u0*s + 1", "u0"]),
    (2, 0, 0): ("ZZ[u1,u2,t]", ["u2*t^2 + u1*t + 1", "2*u2*t + u1", "2*u2"]),
    (2, 0, 1): ("ZZ[u1,u2,s]", ["u1*s + s^2 + u2", "u1 + 2*s", "2"]),
    (2, 1, 0): ("ZZ[u0,u2,t]", ["u2*t^2 + u0 + t", "2*u2*t + 1", "2*u2"]),
    (2, 1, 1): ("ZZ[u0,u2,s]", ["u0*s^2 + u2 + s", "2*u0*s + 1", "2*u0"]),
    (2, 2, 0): ("ZZ[u0,u1,t]", ["u1*t + t^2 + u0", "u1 + 2*t", "2"]),
    (2, 2, 1): ("ZZ[u0,u1,s]", ["u0*s^2 + u1*s + 1", "2*u0*s + u1", "2*u0"]),
    (3, 0, 0): ("ZZ[u1,u2,u3,t]",
                ["u3*t^3 + u2*t^2 + u1*t + 1", "3*u3*t^2 + 2*u2*t + u1", "6*u3*t + 2*u2", "6*u3"]),
    (3, 0, 1): ("ZZ[u1,u2,u3,s]",
                ["u1*s^2 + s^3 + u2*s + u3", "2*u1*s + 3*s^2 + u2", "2*u1 + 6*s", "6"]),
    (3, 1, 0): ("ZZ[u0,u2,u3,t]",
                ["u3*t^3 + u2*t^2 + u0 + t", "3*u3*t^2 + 2*u2*t + 1", "6*u3*t + 2*u2", "6*u3"]),
    (3, 1, 1): ("ZZ[u0,u2,u3,s]",
                ["u0*s^3 + u2*s + s^2 + u3", "3*u0*s^2 + u2 + 2*s", "6*u0*s + 2", "6*u0"]),
    (3, 2, 0): ("ZZ[u0,u1,u3,t]",
                ["u3*t^3 + u1*t + t^2 + u0", "3*u3*t^2 + u1 + 2*t", "6*u3*t + 2", "6*u3"]),
    (3, 2, 1): ("ZZ[u0,u1,u3,s]",
                ["u0*s^3 + u1*s^2 + u3 + s", "3*u0*s^2 + 2*u1*s + 1", "6*u0*s + 2*u1", "6*u0"]),
    (3, 3, 0): ("ZZ[u0,u1,u2,t]",
                ["u2*t^2 + t^3 + u1*t + u0", "2*u2*t + 3*t^2 + u1", "2*u2 + 6*t", "6"]),
    (3, 3, 1): ("ZZ[u0,u1,u2,s]",
                ["u0*s^3 + u1*s^2 + u2*s + 1", "3*u0*s^2 + 2*u1*s + u2", "6*u0*s + 2*u1", "6*u0"]),
}


@pytest.mark.parametrize("d, i, patch", sorted(INCIDENCE_GENERATORS))
def test_incidence_ideal_generators_on_every_chart(d, i, patch):
    ring, gens = INCIDENCE_GENERATORS[(d, i, patch)]
    for l in range(d + 1):
        ideal = incidence_ideal(d, l, ChartId(i, patch))
        assert str(ideal.ring) == ring
        assert [str(g) for g in ideal.gens] == gens[: l + 1]
        assert all(g.ring == ideal.ring for g in ideal.gens)


def test_incidence_ideal_vanishes_at_multiple_root():
    gens = incidence_ideal(2, 1, ChartId(2, 0))
    flat = gens.ring
    # (t - 1)^2 = t^2 - 2t + 1: u0 = 1, u1 = -2, double root t = 1
    at_point = RingHom(
        flat, ZZ, {"u0": ZZ.element(1), "u1": ZZ.element(-2), "t": ZZ.element(1)}
    )
    for g in gens.gens:
        assert at_point(flat.element(g)).is_zero()
    # simple root t = 1 of t^2 - 1: f vanishes, f' does not
    at_simple = RingHom(
        flat, ZZ, {"u0": ZZ.element(-1), "u1": ZZ.element(0), "t": ZZ.element(1)}
    )
    assert at_simple(flat.element(gens.gens[0])).is_zero()
    assert not at_simple(flat.element(gens.gens[1])).is_zero()


def test_discriminant_ideal_level1_quadratic():
    gens = discriminant_ideal(2, 1)
    assert gens.ring.names == ("u0", "u1")
    ring = gens.ring
    assert ring.element(gens.gens[0]) == 4 * ring.variable("u0") - ring.variable("u1") ** 2


def test_discriminant_ideal_level2_cubic_frozen_values():
    gens = discriminant_ideal(3, 2)
    ring = gens.ring
    u0, u1, u2 = (ring.variable(n) for n in ("u0", "u1", "u2"))
    P0 = (
        4 * u0 * u2**3
        - u1**2 * u2**2
        - 18 * u0 * u1 * u2
        + 4 * u1**3
        + 27 * u0**2
    )
    P1 = -12 * u2**2 + 36 * u1
    assert ring.element(gens.gens[0]) == P0
    assert ring.element(gens.gens[1]) == P1


def test_discriminant_ideal_level_bounds():
    with pytest.raises(ParameterError):
        discriminant_ideal(3, 0)
    with pytest.raises(ParameterError):
        discriminant_ideal(3, 4)
    assert len(discriminant_ideal(3, 3).gens) == 3


@pytest.mark.parametrize("d,l,chart", [(3, 2, ChartId(3, 0)), (4, 3, ChartId(4, 0)), (3, 2, ChartId(0, 0))])
def test_generators_match_scaled_taylor_resultants(d, l, chart):
    # P_j = Res(j! * comp_j, (j+1)! * comp_(j+1)) at declared degrees,
    # computed independently through the rational taylor components
    gens = discriminant_ideal(d, l, chart)
    comps = taylor_map(d, l, chart)
    zring = gens.ring
    qring = comps[0].coeff_ring
    to_q = RingHom(zring, qring)
    for j in range(l):
        fj = comps[j] * QQ.element(math.factorial(j))
        fj1 = comps[j + 1] * QQ.element(math.factorial(j + 1))
        expected = resultant(fj, fj1, SylvesterSpec(d - j, d - j - 1))
        assert to_q(zring.element(gens.gens[j])) == expected


def test_homogeneous_discriminant_degree_and_d2():
    for d in range(2, 6):
        h = homogeneous_classical_discriminant(d)
        assert h.total_degree() == 2 * d - 2
    h2 = homogeneous_classical_discriminant(2)
    ring = h2.ring
    y0, y1, y2 = (ring.variable(n) for n in ("y0", "y1", "y2"))
    assert ring.element(h2) == 4 * y0 * y2 - y1**2


def test_homogeneous_discriminant_cubic_value():
    h = homogeneous_classical_discriminant(3)
    ring = h.ring
    y0, y1, y2, y3 = (ring.variable(n) for n in ("y0", "y1", "y2", "y3"))
    expected = (
        27 * y0**2 * y3**2
        - 18 * y0 * y1 * y2 * y3
        + 4 * y0 * y2**3
        + 4 * y1**3 * y3
        - y1**2 * y2**2
    )
    assert ring.element(h) == expected


@pytest.mark.parametrize("d", [2, 3, 4])
def test_homogeneous_specializes_to_every_chart(d):
    h = homogeneous_classical_discriminant(d)
    yring = h.ring
    for i in range(d + 1):
        P0m = discriminant_ideal(d, 1, ChartId(i, 0)).gens[0]
        uring = P0m.ring
        P0 = uring.element(P0m)
        images = {
            f"y{k}": (uring.one if k == i else uring.variable(f"u{k}"))
            for k in range(d + 1)
        }
        spec = RingHom(yring, uring, images)(yring.element(h))
        if i == d:
            assert spec == P0
        else:
            assert spec * uring.variable(f"u{d}") == P0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cached_ideal_matches_sylvester_reference(d):
    for i in range(d + 1):
        for patch in (0, 1):
            chart = ChartId(i, patch)
            # the reference's level-l generators are a prefix of its level-d ones
            reference = _discriminant_ideal_sylvester(d, d, chart)
            for l in range(1, d + 1):
                cached = discriminant_ideal(d, l, chart)
                assert cached.ring == reference.ring
                assert cached.gens == reference.gens[:l]


def test_cached_ideal_matches_sylvester_reference_degree6():
    chart = ChartId(3, 1)
    assert discriminant_ideal(6, 6, chart) == _discriminant_ideal_sylvester(6, 6, chart)


@pytest.mark.parametrize("d, l", [(1, 1), (3, 2), (4, 4)])
def test_each_ladder_stops_at_the_last_derivative_it_uses(d, l, monkeypatch):
    """Up to f^(l) for the jets and the reference, up to f^(l-1) for the ideal."""
    chart = ChartId(d, 0)
    discriminant_ideal(d, l, chart)  # the memoized R_n are built before the count starts
    calls = []
    derivative = UniPoly.derivative

    def counted(f):
        calls.append(f)
        return derivative(f)

    monkeypatch.setattr(UniPoly, "derivative", counted)
    for build, taken in ((taylor_map, l), (incidence_ideal, l), (discriminant_ideal, l - 1),
                         (_discriminant_ideal_sylvester, l)):
        calls.clear()
        build(d, l, chart)
        assert len(calls) == taken, build.__name__


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_homogeneous_discriminant_matches_direct_sylvester_quotient(d):
    raw = _generic_raw_discriminant_sylvester(d)
    assert homogeneous_classical_discriminant(d) == raw.exact_div(raw.ring.variable(f"y{d}").value)


def test_cached_results_are_fresh_copies():
    chart = ChartId(2, 1)
    first = discriminant_ideal(4, 2, chart)
    first.gens[0].terms.clear()
    assert discriminant_ideal(4, 2, chart) == _discriminant_ideal_sylvester(4, 2, chart)
    h = homogeneous_classical_discriminant(4)
    expected = dict(h.terms)
    h.terms.clear()
    assert homogeneous_classical_discriminant(4).terms == expected
    # the generic R_4 itself survives both mutations
    assert discriminant_ideal(4, 1, ChartId(4, 0)) == _discriminant_ideal_sylvester(4, 1, ChartId(4, 0))


def test_generic_discriminant_memo_is_bounded_and_lazy():
    assert _generic_raw_discriminant.cache_info().maxsize == MAX_SYMBOLIC_DEGREE
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import disckit, disckit.jets as j, disckit.resultants as r; "
        "print(j._generic_raw_discriminant is r._generic_raw_discriminant, "
        "r._generic_raw_discriminant.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "0"]


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)]
)
def test_bezout_discriminant_matches_sylvester_reference(n):
    assert _generic_raw_discriminant(n) == _generic_raw_discriminant_sylvester(n)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_each_generator_is_a_combination_of_consecutive_derivatives(d):
    """P_j = U*f^(j) + V*f^(j+1) on every chart, so the generators vanish where f has
    a root of multiplicity j+2: U and V are the Bezout cofactors of the generic
    (a, a') of degree n = d-j, mapped by y_m -> coefficient m of f^(j)."""
    cofactors = {}
    for n in range(1, d + 1):
        ring = PolynomialRing(ZZ, tuple(f"y{m}" for m in range(n + 1)))
        a = UniPoly(ring, "t", [ring.variable(f"y{m}") for m in range(n + 1)])
        cofactors[n] = bezout_certificate(a, a.derivative())[:2]
    for chart in [ChartId(i, patch) for i in range(d + 1) for patch in (0, 1)]:
        deriv = generic_section(d, chart)
        for j, P in enumerate(discriminant_ideal(d, d, chart).gens):
            nxt = deriv.derivative()
            U, V = cofactors[d - j]
            images = {f"y{m}": deriv.coefficient(m) for m in range(d - j + 1)}
            hom = RingHom(U.coeff_ring, deriv.coeff_ring, images)
            combination = (U.map_coefficients(hom, deriv.var) * deriv
                           + V.map_coefficients(hom, deriv.var) * nxt)
            assert combination == UniPoly(deriv.coeff_ring, deriv.var, [P]), (chart, j)
            deriv = nxt


def _integer_sylvester_value(ys):
    n = len(ys) - 1
    a = UniPoly(ZZ, "t", ys)
    return resultant(a, a.derivative(), SylvesterSpec(n, n - 1)).value


def _evaluate(poly, ys):
    return sum(c * math.prod(y**e for y, e in zip(ys, exps)) for exps, c in poly.terms.items())


@pytest.mark.parametrize("n, terms", [(8, 5247), (9, 26059)])
def test_bezout_discriminant_past_the_sylvester_range(n, terms):
    raw = _generic_raw_discriminant(n)
    assert raw.ring.names == tuple(f"y{k}" for k in range(n + 1))
    assert len(raw.terms) == terms
    for exps in raw.terms:
        assert sum(exps) == 2 * n - 1
        assert sum(k * e for k, e in enumerate(exps)) == n * n
    # the sign: values at integer points against the integer Sylvester determinant
    rng = random.Random(8000 + n)
    for _ in range(3):
        ys = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        assert _evaluate(raw, ys) == _integer_sylvester_value(ys)


@pytest.mark.parametrize("bound", [1, 3])
def test_bezout_discriminant_too_narrow_width_raises(monkeypatch, bound):
    # bound 1 is too narrow for the entries, bound 3 only for the minors
    monkeypatch.setattr(resultants, "_Packed", lambda ring, true_bound: _Packed(ring, bound))
    with pytest.raises(DisckitError, match="overflow"):
        _generic_raw_discriminant.__wrapped__(6)


@pytest.mark.parametrize("key", [1, 4])
def test_bezout_discriminant_refuses_terms_off_the_gradings(monkeypatch, key):
    # n = 2: one inner variable y1 in a 3-bit field.  y1 leaves a
    # remainder in the weight; y1^4 gives e_0 = 3 - 4 < 0.
    monkeypatch.setattr(resultants, "_det_minors", lambda rows, arith: {key: 1})
    with pytest.raises(DisckitError, match="degree or its weight"):
        _generic_raw_discriminant.__wrapped__(2)


def test_symbolic_degree_cap_runs_no_determinant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a determinant ran above the cap")

    for name in ("_det_minors", "_bezout_matrix", "resultant"):
        monkeypatch.setattr(resultants, name, refuse)
    n = MAX_SYMBOLIC_DEGREE + 1
    for call in (
        lambda: discriminant_ideal(n, 1),
        lambda: discriminant_ideal(n, 1, ChartId(0, 1)),
        lambda: homogeneous_classical_discriminant(n),
        lambda: chart_consistency(n, 1, 0),
        lambda: _generic_raw_discriminant(n),
    ):
        with pytest.raises(ParameterError, match="exceeds the limit 9"):
            call()


def test_chart_consistency_frozen_relations():
    rows = chart_consistency(2, 1, 2)
    assert [(r.j, r.category, r.factor, r.direction, r.relabel_holds) for r in rows] == [
        (0, "cofactor", "u0", "q_over_p", True)
    ]
    rows = chart_consistency(3, 2, 3)
    assert [(r.j, r.category) for r in rows] == [(0, "cofactor"), (1, "relabel")]
    assert rows[0].factor == "u0" and rows[0].direction == "q_over_p"
    assert all(r.relabel_holds for r in rows)
    rows = chart_consistency(4, 3, 4)
    assert [(r.j, r.category) for r in rows] == [
        (0, "cofactor"),
        (1, "relabel"),
        (2, "relabel"),
    ]
    rows = chart_consistency(3, 1, 0)
    assert [(r.j, r.category, r.factor, r.direction) for r in rows] == [
        (0, "cofactor", "u3", "p_over_q")
    ]
    rows = chart_consistency(3, 2, 1)
    assert [(r.j, r.category) for r in rows] == [(0, "relabel"), (1, "relabel")]


def test_chart_consistency_vacuous_level():
    assert chart_consistency(3, 0, 3) == []
    assert chart_consistency(2, 0, 0) == []


def test_chart_consistency_never_unrelated_small_range():
    for d in (2, 3, 4):
        for i in range(d + 1):
            for l in range(1, d):
                for row in chart_consistency(d, l, i):
                    assert row.category != "unrelated"
                    assert row.relabel_holds


def test_rank_table_values_and_additivity():
    assert rank_table(3, 1) == {"rk_jet": 2, "rk_W": 4, "rk_Q": 2}
    assert rank_table(5, 0) == {"rk_jet": 1, "rk_W": 6, "rk_Q": 5}
    for d in range(1, 7):
        for k in range(d + 1):
            tbl = rank_table(d, k)
            assert tbl["rk_jet"] + tbl["rk_Q"] == tbl["rk_W"]
            assert tbl["rk_jet"] == k + 1
    with pytest.raises(ParameterError):
        rank_table(3, 4)
    with pytest.raises(ParameterError):
        rank_table(0, 0)


def test_homogeneous_discriminant_needs_degree_two():
    with pytest.raises(ParameterError, match="at least 2"):
        homogeneous_classical_discriminant(1)
