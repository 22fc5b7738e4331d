"""Stratification tests: worked families, verdicts, and field-point checks."""

import itertools
import random

import pytest

from disckit import (
    GF,
    QQ,
    ZZ,
    ExactDivisionError,
    ParameterError,
    PolynomialRing,
    RingHom,
    Stratum,
    UniPoly,
    classify_discriminant,
    discriminant,
    etale_verdict,
    is_unit_localized,
    main1_strata,
    parse_element,
    parse_poly,
    parse_ring,
    standard_etale_check,
)
from disckit import strata
from disckit.rings import MultiPoly
from disckit.strata import _eliminable


def strata_of(src: str, ring_text: str, degree=None):
    ring = parse_ring(ring_text)
    return main1_strata(parse_poly(src, ring, "t"), degree)


def test_linear_family_in_leading_coefficient():
    strata = strata_of("u*t^2 + t", "QQ[u]")
    assert strata == [
        Stratum(("u",), (), "u*t^2 + t", 2, "-u", "etale of degree 2"),
        Stratum((), ("u",), "t", 1, "1", "etale of degree 1"),
    ]


def test_two_parameter_family_full_tree():
    strata = strata_of("u*t^2 + v*t + 1", "ZZ[u,v]")
    assert strata == [
        Stratum(
            ("u", "-u*v^2 + 4*u^2"), (), "u*t^2 + v*t + 1", 2,
            "-u*v^2 + 4*u^2", "etale of degree 2",
        ),
        Stratum(
            ("u",), ("-u*v^2 + 4*u^2",), "u*t^2 + v*t + 1", 2,
            "-u*v^2 + 4*u^2", "ramified",
        ),
        Stratum(("v",), ("u",), "v*t + 1", 1, "v", "etale of degree 1"),
        Stratum((), ("u", "v"), "1", 0, None, "etale of degree 0"),
    ]


def test_generic_monic_quadratic_splits_in_two():
    strata = strata_of("t^2 + b*t + c", "QQ[b,c]")
    assert [s.verdict for s in strata] == ["etale of degree 2", "ramified"]
    assert strata[0].inverted == ("-b^2 + 4*c",)
    assert strata[1].quotiented == ("-b^2 + 4*c",)
    assert strata[0].discriminant == strata[1].discriminant == "-b^2 + 4*c"


def test_unsupported_integer_leading_coefficient():
    strata = strata_of("2*t + 1", "ZZ")
    assert strata[0] == Stratum(("2",), (), "2*t + 1", 1, "2", "etale of degree 1")
    assert strata[1].verdict.startswith("unsupported: cannot eliminate 2")
    assert strata[1].quotiented == ("2",)
    assert strata[1].discriminant is None


def test_unsupported_zero_residual():
    strata = strata_of("u*t + u", "QQ[u]")
    assert strata[1].verdict == "unsupported: residual polynomial is zero"
    assert strata[1].residual_poly == "0"


def as_tuples(strata):
    return [tuple(getattr(s, name) for name in s._fields) for s in strata]


def test_identically_zero_discriminant_is_ramified():
    # the perfect square has b = 0 on the whole base: one ramified stratum, nothing split
    assert as_tuples(strata_of("t^2 + 2*u*t + u^2", "QQ[u]")) == [
        ((), (), "t^2 + 2*u*t + u^2", 2, "0", "ramified"),
    ]
    # with the leading coefficient inverted, then eliminated down to the zero residual
    assert as_tuples(strata_of("u*(t+1)^2", "QQ[u,v]")) == [
        (("u",), (), "u*t^2 + 2*u*t + u", 2, "0", "ramified"),
        ((), ("u",), "0", 1, None, "unsupported: residual polynomial is zero"),
    ]


def test_constant_sections():
    assert strata_of("7", "QQ") == [Stratum((), (), "7", 0, None, "etale of degree 0")]
    strata = strata_of("u", "QQ[u]", 0)
    assert strata[0] == Stratum(("u",), (), "u", 0, None, "etale of degree 0")
    assert strata[1].verdict == "unsupported: residual polynomial is zero"


def test_declared_degree_above_actual_elides_empty_top_stratum():
    ring = parse_ring("QQ[u]")
    p = parse_poly("t + 1", ring, "t")
    assert main1_strata(p, 3) == main1_strata(p)


def test_degree_validation():
    ring = parse_ring("QQ")
    z = UniPoly.zero(QQ, "t")
    with pytest.raises(ParameterError):
        main1_strata(z)
    assert main1_strata(z, 2)[0].verdict == "unsupported: residual polynomial is zero"
    p = parse_poly("t^3", ring, "t")
    with pytest.raises(ParameterError):
        main1_strata(p, 2)
    with pytest.raises(ParameterError):
        main1_strata(z, -1)


def test_residual_degrees_strictly_decrease_along_descents():
    for src, rt in [
        ("u*t^2 + v*t + 1", "ZZ[u,v]"),
        ("u*t^3 + v*t^2 + t + 1", "QQ[u,v]"),
        ("u*t^2 + t", "QQ[u]"),
    ]:
        strata = strata_of(src, rt)
        # strata are emitted depth-first: within one run, a stratum whose
        # quotient chain strictly extends another's by a leading
        # coefficient has strictly smaller residual degree
        for s1, s2 in itertools.combinations(strata, 2):
            if set(s1.quotiented) < set(s2.quotiented) and s1.residual_poly != s2.residual_poly:
                assert s2.residual_degree < s1.residual_degree or s2.residual_degree == 0


def test_discriminant_field_recomputes_from_residual():
    for src, rt in [
        ("u*t^2 + v*t + 1", "ZZ[u,v]"),
        ("t^2 + b*t + c", "QQ[b,c]"),
        ("u*t^2 + t", "QQ[u]"),
        ("2*t + 1", "ZZ"),
    ]:
        ring = parse_ring(rt)
        for s in strata_of(src, rt):
            if s.discriminant is None:
                continue
            residual = parse_poly(s.residual_poly, ring, "t")
            again = discriminant(residual, s.residual_degree)
            assert str(again) == s.discriminant


@pytest.mark.parametrize("p", [2, 3, 7])
def test_strata_partition_and_verdicts_at_field_points(p):
    # every F_p point of the base lands in exactly one stratum, and the
    # stratum's verdict is the truth about the specialized polynomial
    field = GF(p)
    ring = PolynomialRing(field, ("u", "v"))
    P = parse_poly("u*t^2 + v*t + 1", ring, "t")
    strata = main1_strata(P)
    for a0 in range(p):
        for b0 in range(p):
            at = RingHom(ring, field, {"u": field.element(a0), "v": field.element(b0)})
            matches = []
            for s in strata:
                quo_ok = all(
                    at(parse_element(q, ring)).is_zero() for q in s.quotiented
                )
                inv_ok = all(
                    not at(parse_element(i, ring)).is_zero() for i in s.inverted
                )
                if quo_ok and inv_ok:
                    matches.append(s)
            assert len(matches) == 1, (a0, b0, matches)
            s = matches[0]
            res = parse_poly(s.residual_poly, ring, "t").map_coefficients(at)
            if s.verdict == "etale of degree 0":
                assert res.degree == 0
            elif s.verdict.startswith("etale of degree"):
                k = int(s.verdict.rsplit(" ", 1)[1])
                assert res.degree == k
                assert not discriminant(res, k).is_zero()
            elif s.verdict == "ramified":
                assert discriminant(res, s.residual_degree).is_zero()


# Families over QQ and ZZ, the last with a declared degree above the actual one.
REDUCED_FAMILIES = [
    ("u*v*t^2 + u*t", "QQ[u,v]", None),
    ("u*t^2 + v*t + 1", "QQ[u,v]", None),
    ("(u - v)*t^3 + u*t + 1/2*u", "QQ[u,v]", None),
    ("(a-3)*t^3 + b^2*t + 1", "ZZ[a,b]", None),
    ("u*t^2 + v*t + 1", "QQ[u,v]", 3),
]


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("src, rt, degree", REDUCED_FAMILIES)
def test_strata_partition_reduced_base_points(src, rt, degree, p):
    # every F_p point lies in exactly one stratum, and its verdict agrees
    # with the stratum's discriminant at the point: nonzero where etale
    # of degree k, zero where ramified
    base = parse_ring(rt)
    field = GF(p)
    ring = PolynomialRing(field, base.names)
    strata = main1_strata(parse_poly(src, base, "t"), degree)

    def read(exprs):
        return [parse_element(x, ring) for x in exprs]

    pieces = [(read(s.inverted), read(s.quotiented), s) for s in strata]
    for point in itertools.product(range(p), repeat=len(base.names)):
        at = RingHom(ring, field, {n: field.element(x) for n, x in zip(base.names, point)})
        matches = [
            s for inv, quo, s in pieces
            if all(not at(x).is_zero() for x in inv) and all(at(x).is_zero() for x in quo)
        ]
        assert len(matches) == 1, (point, matches)
        [s] = matches
        if s.discriminant is None:
            continue
        b = at(parse_element(s.discriminant, ring))
        if s.verdict == "ramified":
            assert b.is_zero(), (point, s)
        else:
            assert s.verdict == f"etale of degree {s.residual_degree}"
            assert not b.is_zero(), (point, s)


def test_stratum_count_is_degree_dependent_not_huge():
    strata = strata_of("a*t^3 + b*t^2 + t + 1", "QQ[a,b]")
    verdicts = [s.verdict for s in strata]
    assert verdicts.count("ramified") >= 1
    assert any(v == "etale of degree 3" for v in verdicts)
    assert any(v == "etale of degree 2" for v in verdicts)
    # descended twice: a then b, leaving t + 1
    tail = [s for s in strata if s.quotiented == ("a", "b")]
    assert len(tail) == 1 and tail[0].residual_degree == 1


# ----- verdicts and the textbook check ---------------------------------------

def test_etale_verdict_three_ways():
    ring = parse_ring("QQ")
    v, b = etale_verdict(parse_poly("t^2 + t + 1", ring, "t"))
    assert v == "etale" and b == QQ.element(3)
    v, b = etale_verdict(parse_poly("t^2 - 2*t + 1", ring, "t"))
    assert v == "ramified" and b.is_zero()
    zr = parse_ring("ZZ")
    v, b = etale_verdict(parse_poly("t^2 + t + 1", zr, "t"))
    assert v == "mixed" and b == ZZ.element(3)
    uring = parse_ring("ZZ[u]")
    v, b = etale_verdict(parse_poly("u*t^2 + t", uring, "t"), 2)
    assert v == "mixed" and str(b) == "-u"


def test_standard_etale_check_depends_on_base_ring():
    assert standard_etale_check(parse_poly("t^2 + t + 1", parse_ring("QQ"), "t"))
    assert not standard_etale_check(parse_poly("t^2 + t + 1", parse_ring("ZZ"), "t"))
    cring = parse_ring("ZZ[c]")
    assert standard_etale_check(parse_poly("t - c", cring, "t"))
    assert not standard_etale_check(parse_poly("2*t + 1", parse_ring("QQ"), "t"))
    assert not standard_etale_check(parse_poly("t^2 - 2*t + 1", parse_ring("QQ"), "t"))
    assert not standard_etale_check(parse_poly("5", parse_ring("QQ"), "t"))


def test_standard_etale_check_implies_etale_verdict():
    rng = random.Random(6001)
    from conftest import rand_unipoly

    for ring in (QQ, ZZ, GF(7)):
        for _ in range(30):
            f = rand_unipoly(rng, ring, 4, monic=True)
            if f.degree < 1:
                continue
            if standard_etale_check(f):
                assert etale_verdict(f)[0] == "etale"
                assert classify_discriminant(f)[0] == "separable"


# ----- elimination by substitution --------------------------------------------

# (base, variables, a, (v, ring without v, image -r/c of v) or None), taken
# from the elimination that built the image term by term.
ELIMINATIONS = [
    ("ZZ", "u", "u + 3", ("u", "ZZ", "-3")),
    ("ZZ", "u", "-u + 3", ("u", "ZZ", "3")),
    ("ZZ", "u,v", "u + 2*v - 5", ("u", "ZZ[v]", "-2*v + 5")),
    ("ZZ", "u,v", "-u + v^2 - 4*v + 1", ("u", "ZZ[v]", "v^2 - 4*v + 1")),
    ("ZZ", "u,v", "u^2 - v + 1", ("v", "ZZ[u]", "u^2 + 1")),
    ("ZZ", "u,v", "u*v + v + 1", None),
    ("QQ", "u", "1/2*u + 3", ("u", "QQ", "-6")),
    ("QQ", "u", "-3*u + 1/2", ("u", "QQ", "1/6")),
    ("QQ", "u,v", "1/2*u - 2/3*v + 1", ("u", "QQ[v]", "4/3*v - 2")),
    ("QQ", "u,v", "u^2 - 3*v + 1/5", ("v", "QQ[u]", "1/3*u^2 + 1/15")),
    ("Fp(7)", "u", "3*u + 2", ("u", "Fp(7)", "4")),
    ("Fp(7)", "u,v", "3*u + 5*v + 1", ("u", "Fp(7)[v]", "3*v + 2")),
    ("Fp(7)", "u,v", "v^2 + 3*u + 4", ("u", "Fp(7)[v]", "2*v^2 + 1")),
    ("Fp(7)", "u,v", "u^2 + 3*v", ("v", "Fp(7)[u]", "2*u^2")),
]


def _eliminable_by_hom(a):
    """The image of v that _eliminable used to build: r = a at v = 0 through a
    RingHom into a fresh ring without v, times -1/c."""
    ring = a.ring
    for name in ring.names:
        if a.value.degree_in(name) != 1:
            continue
        c = a.value.coefficient_of(name, 1).constant_raw()
        if c is None or not ring.base._is_unit(c):
            continue
        remaining = tuple(n for n in ring.names if n != name)
        smaller = PolynomialRing(ring.base, remaining) if remaining else ring.base
        r = RingHom(ring, smaller, {name: smaller.zero})(a)
        return name, smaller, r * ring.base._exact_div(ring.base.coerce(-1), c)
    return None


@pytest.mark.parametrize("base, names, src, expected", ELIMINATIONS)
def test_eliminable_image_of_linear_forms(base, names, src, expected):
    ring = parse_ring(f"{base}[{names}]")
    a = parse_element(src, ring)
    step = _eliminable(a)
    assert step == _eliminable_by_hom(a)
    if expected is None:
        assert step is None
        return
    name, smaller, image = step
    assert (name, str(smaller), str(image)) == expected
    assert image.ring == smaller
    # the substitution kills a
    hom = RingHom(ring, smaller, {name: image})
    assert hom(a).is_zero()


@pytest.mark.parametrize("src, rt, degree", REDUCED_FAMILIES)
def test_eliminable_matches_the_ring_hom_substitution_along_descents(src, rt, degree, monkeypatch):
    seen = []

    def checked(a):
        step = _eliminable(a)
        assert step == _eliminable_by_hom(a), a
        seen.append(step)
        return step

    monkeypatch.setattr(strata, "_eliminable", checked)
    main1_strata(parse_poly(src, parse_ring(rt), "t"), degree)
    assert seen


@pytest.mark.parametrize("src, rt, degree", REDUCED_FAMILIES)
def test_exact_div_range_test_agrees_with_the_packed_path_along_descents(src, rt, degree,
                                                                         monkeypatch):
    """Every exact division of a stratification, with and without the exponent-range test."""
    exact_div = MultiPoly.exact_div
    outcomes = []

    def checked(num, den):
        try:
            packed = num._exact_div_packed(den)
        except ExactDivisionError:
            packed = None
        try:
            quotient = exact_div(num, den)
        except ExactDivisionError:
            outcomes.append("refused" if packed is None else "wrongly refused")
            raise
        outcomes.append("divided" if quotient == packed else "wrong quotient")
        return quotient

    monkeypatch.setattr(MultiPoly, "exact_div", checked)
    main1_strata(parse_poly(src, parse_ring(rt), "t"), degree)
    assert set(outcomes) <= {"refused", "divided"}, outcomes
    assert outcomes


# ----- the top-level discriminant, reused or recomputed -------------------------

def test_a_padded_top_level_ignores_the_declared_degree_discriminant():
    P = parse_poly("u*t^2 + v*t + 1", parse_ring("QQ[u,v]"), "t")
    b3 = discriminant(P, 3)
    assert b3 != discriminant(P, 2)
    strata_list = main1_strata(P, 3, b3)
    assert strata_list == main1_strata(P, 3) == main1_strata(P)
    assert strata_list[0].discriminant == str(discriminant(P, 2))


# ----- localized unit test ----------------------------------------------------

def test_is_unit_localized():
    ring = PolynomialRing(ZZ, ("u",))
    u = ring.variable("u")
    assert is_unit_localized(u**3, [u])
    assert is_unit_localized(-u, [u])
    assert not is_unit_localized(3 * u**2, [u])
    qring = PolynomialRing(QQ, ("u",))
    qu = qring.variable("u")
    assert is_unit_localized(3 * qu**2, [qu])
    assert is_unit_localized(qu * (qu + 1), [qu, qu + 1])
    assert not is_unit_localized(qu + 1, [qu])
    assert not is_unit_localized(qring.zero, [qu])
    assert is_unit_localized(qring.element(5), [])
    assert not is_unit_localized(qu, [])
    assert not is_unit_localized(ZZ.element(6), [ZZ.element(2)])
    assert is_unit_localized(ZZ.element(8), [ZZ.element(2)])


@pytest.mark.parametrize("x, inverted", [("t", []), (ZZ.one, ["t"]), (ZZ.one, [ZZ.one, 2])],
                         ids=["x", "inverted", "second inverted"])
def test_is_unit_localized_refuses_what_is_not_a_ring_element(x, inverted):
    with pytest.raises(ParameterError, match="expected a ring element") as info:
        is_unit_localized(x, inverted)
    assert info.value.exit_code == 3


@pytest.mark.parametrize("inverted", [None, 5, "u", {ZZ.one}, iter([ZZ.one])],
                         ids=["None", "int", "str", "set", "iterator"])
def test_is_unit_localized_refuses_inverted_that_is_not_a_list_or_tuple(inverted):
    with pytest.raises(ParameterError, match="must be a list or tuple") as info:
        is_unit_localized(ZZ.one, inverted)
    assert info.value.exit_code == 3


@pytest.mark.xfail(
    reason="the exact-division sweep is sound, not complete: after inverting "
    "u*v it takes -u^3*v only to -u^2, so the empty ramified stratum "
    "{u*v != 0, -u^3*v = 0} is emitted",
    raises=AssertionError,
    strict=True,
)
def test_no_stratum_quotients_a_unit_of_its_localization():
    # over QQ, x is a unit once S is inverted iff x divides (prod S)^k,
    # k the total degree of x
    def divides(x, y):
        try:
            y.exact_div(x)
        except ExactDivisionError:
            return False
        return True

    ring = parse_ring("QQ[u,v]")
    for s in strata_of("u*v*t^2 + u*t", "QQ[u,v]"):
        product = ring.one
        for x in s.inverted:
            product = product * parse_element(x, ring)
        for x in (parse_element(e, ring) for e in s.quotiented):
            assert not divides(x, product ** x.value.total_degree()), (s, x)


def test_a_unit_among_the_inverted_elements_is_skipped():
    ring = PolynomialRing(QQ, ("u",))
    u = ring.variable("u")
    assert not is_unit_localized(u, (ring.element(2),))
    assert is_unit_localized(3 * u, (u, ring.element(2)))
