"""Univariate polynomial tests: arithmetic, calculus, division, printing."""

import random
from fractions import Fraction

import pytest

from disckit import (
    GF,
    MINUS_INFINITY,
    QQ,
    ZZ,
    ExactDivisionError,
    InputSyntaxError,
    ParameterError,
    PolynomialRing,
    RingHom,
    RingMismatchError,
    UniPoly,
    unipoly_gcd,
)
from disckit import unipoly
from disckit.parser import parse_poly
from conftest import SCALAR_RINGS, rand_element, rand_scalar, rand_unipoly


@pytest.mark.parametrize("bad", [True, False, 2.0, -1], ids=repr)
@pytest.mark.parametrize("ring", (ZZ, QQ, GF(7), PolynomialRing(ZZ, ("u",))), ids=str)
def test_an_exponent_must_be_a_nonnegative_int(ring, bad):
    t = UniPoly(ring, "t", [ring.zero, ring.one])
    with pytest.raises(ParameterError, match="exponent must be a nonnegative integer") as caught:
        (t + 1) ** bad
    assert caught.value.exit_code == 3


def test_degree_sentinel():
    z = UniPoly.zero(ZZ, "t")
    assert z.degree is MINUS_INFINITY
    assert z.is_zero()
    assert MINUS_INFINITY < 0
    assert MINUS_INFINITY < -(10**9)
    assert not MINUS_INFINITY < MINUS_INFINITY
    assert MINUS_INFINITY <= MINUS_INFINITY
    assert repr(MINUS_INFINITY) == "-infinity"
    assert max(MINUS_INFINITY, 3) == 3


def test_construction_trims_and_validates():
    p = UniPoly(ZZ, "t", [ZZ.element(1), ZZ.zero, ZZ.zero])
    assert p.degree == 0
    assert p == UniPoly.constant(ZZ, "t", ZZ.one)
    m = UniPoly.monomial(QQ, "x", 3)
    assert m.degree == 3 and str(m) == "x^3"
    ring = PolynomialRing(ZZ, ("t",))
    with pytest.raises(ParameterError):
        UniPoly.zero(ring, "t")  # main variable shadows a coefficient variable
    mixed = [ZZ.element(1), QQ.element(1)]
    with pytest.raises(RingMismatchError):
        UniPoly(ZZ, "t", mixed)


def test_coefficient_accessors():
    p = UniPoly(ZZ, "t", [ZZ.element(2), ZZ.element(-3), ZZ.element(1)])
    assert p.coefficient(0) == ZZ.element(2)
    assert p.coefficient(2) == ZZ.element(1)
    assert p.coefficient(7) == ZZ.zero
    assert p.leading_coeff() == ZZ.one
    assert p.is_monic()
    assert not UniPoly.zero(ZZ, "t").is_monic()


@pytest.mark.parametrize(
    "ring", (ZZ, QQ, GF(7), PolynomialRing(ZZ, ("u", "v")), PolynomialRing(QQ, ("u",))), ids=str
)
def test_coefficient_and_leading_coeff_agree_with_coeffs(ring):
    rng = random.Random(1301)
    polys = [UniPoly.zero(ring, "t")] + [rand_unipoly(rng, ring, 5) for _ in range(20)]
    for f in polys:
        n = len(f.coeffs)
        for k in range(-2, n + 3):  # RingElement equality compares the rings too
            assert f.coefficient(k) == (f.coeffs[k] if 0 <= k < n else ring.zero)
        assert f.leading_coeff() == (f.coeffs[-1] if n else ring.zero)


@pytest.mark.parametrize("ring", SCALAR_RINGS, ids=str)
def test_arithmetic_commutes_with_evaluation(ring):
    rng = random.Random(2001)
    for _ in range(25):
        f = rand_unipoly(rng, ring, 5)
        g = rand_unipoly(rng, ring, 5)
        x = rand_scalar(rng, ring)
        assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
        assert (f - g).evaluate(x) == f.evaluate(x) - g.evaluate(x)
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
        assert (-f).evaluate(x) == -f.evaluate(x)
        assert (f**2).evaluate(x) == f.evaluate(x) ** 2


def test_evaluate_coerces_plain_values():
    f = UniPoly(QQ, "t", [QQ.element(1), QQ.element(2)])
    assert f.evaluate(Fraction(1, 2)) == QQ.element(2)
    g = UniPoly(ZZ, "t", [ZZ.element(1), ZZ.element(1)])
    assert g.evaluate(4) == ZZ.element(5)


def test_degree_arithmetic_bounds():
    rng = random.Random(2002)
    for _ in range(25):
        f = rand_unipoly(rng, ZZ, 6, nonzero=True)
        g = rand_unipoly(rng, ZZ, 6, nonzero=True)
        assert (f * g).degree == f.degree + g.degree  # ZZ is a domain
        assert (f + g).degree <= max(f.degree, g.degree)


@pytest.mark.parametrize(
    "ring",
    (ZZ, QQ, GF(7), PolynomialRing(ZZ, ("u",))),
    ids=str,
)
def test_leibniz_rule(ring):
    rng = random.Random(2003)
    for _ in range(20):
        f = rand_unipoly(rng, ring, 4)
        g = rand_unipoly(rng, ring, 4)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        assert (f + g).derivative() == f.derivative() + g.derivative()


def test_derivative_basics():
    t = UniPoly.monomial(ZZ, "t", 1)
    f = t**3 - 2 * t
    assert f.derivative() == 3 * t**2 - 2
    assert UniPoly.constant(ZZ, "t", ZZ.element(5)).derivative().is_zero()
    # characteristic p kills the p-th power
    s = UniPoly.monomial(GF(5), "t", 5)
    assert s.derivative().is_zero()


@pytest.mark.parametrize("ring", (QQ, GF(7)), ids=str)
def test_divmod_contract(ring):
    rng = random.Random(2004)
    for _ in range(30):
        f = rand_unipoly(rng, ring, 6)
        g = rand_unipoly(rng, ring, 4, nonzero=True)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        assert f % g == r
        assert f // g == q


def test_divmod_needs_unit_leading_coefficient():
    t = UniPoly.monomial(ZZ, "t", 1)
    with pytest.raises(ExactDivisionError):
        divmod(t**2, 2 * t)
    # monic divisor over ZZ is fine
    q, r = divmod(t**2 + 3 * t + 5, t + 1)
    assert q == t + 2 and r == UniPoly.constant(ZZ, "t", ZZ.element(3))
    with pytest.raises(ExactDivisionError):
        divmod(t, UniPoly.zero(ZZ, "t"))


@pytest.mark.parametrize("ring", (QQ, GF(5), GF(31)), ids=str)
def test_gcd_divides_both_and_is_divided_by_common_factors(ring):
    rng = random.Random(2005)
    for _ in range(20):
        a = rand_unipoly(rng, ring, 3, nonzero=True)
        b = rand_unipoly(rng, ring, 3, nonzero=True)
        c = rand_unipoly(rng, ring, 2, nonzero=True)
        g = unipoly_gcd(a * c, b * c)
        assert (a * c % g).is_zero()
        assert (b * c % g).is_zero()
        # the planted common factor divides the gcd
        assert (g % c.monic()).is_zero() or (g % c.monic()).degree < c.monic().degree
        assert (g % c.monic()).is_zero()
        assert g.is_monic()


def test_gcd_edge_cases():
    t = UniPoly.monomial(QQ, "t", 1)
    f = 3 * t**2 - 3
    assert unipoly_gcd(f, UniPoly.zero(QQ, "t")) == f.monic()
    assert unipoly_gcd(UniPoly.zero(QQ, "t"), f) == f.monic()
    assert unipoly_gcd(UniPoly.zero(QQ, "t"), UniPoly.zero(QQ, "t")).is_zero()
    coprime = unipoly_gcd(t**2 + 1, t - 1)
    assert coprime.degree == 0 and coprime.is_monic()
    tz = UniPoly.monomial(ZZ, "t", 1)
    from disckit import UnsupportedRingError

    with pytest.raises(UnsupportedRingError):
        unipoly_gcd(tz, tz + 1)


def test_specialize_is_a_ring_map():
    src = PolynomialRing(ZZ, ("u",))
    hom = RingHom(src, ZZ, {"u": ZZ.element(4)})
    rng = random.Random(2006)
    for _ in range(20):
        f = rand_unipoly(rng, src, 4)
        g = rand_unipoly(rng, src, 4)
        fh, gh = f.map_coefficients(hom), g.map_coefficients(hom)
        assert (f + g).map_coefficients(hom) == fh + gh
        assert (f * g).map_coefficients(hom) == fh * gh


def test_specialize_can_drop_degree_and_rename():
    src = PolynomialRing(ZZ, ("u",))
    u = src.variable("u")
    t = UniPoly.monomial(src, "t", 1)
    f = UniPoly.constant(src, "t", u) * t**2 + t  # u*t^2 + t
    kill_u = RingHom(src, ZZ, {"u": ZZ.zero})
    image = f.map_coefficients(kill_u)
    assert image.degree == 1
    assert image == UniPoly.monomial(ZZ, "t", 1)
    renamed = f.map_coefficients(RingHom(src, src), var="s")
    assert renamed.var == "s" and renamed.degree == 2
    reduce2 = RingHom(ZZ, GF(2))
    g = UniPoly(ZZ, "t", [ZZ.element(3), ZZ.element(2), ZZ.element(1)])
    h = g.map_coefficients(reduce2)
    assert h == UniPoly(GF(2), "t", [GF(2).one, GF(2).zero, GF(2).one])


def test_monic_normalization():
    f = UniPoly(QQ, "t", [QQ.element(2), QQ.element(4)])
    m = f.monic()
    assert m.is_monic() and m * f.leading_coeff() == f
    g = UniPoly(ZZ, "t", [ZZ.element(1), ZZ.element(-1)])
    assert g.monic() == -g  # lc -1 is a unit of ZZ
    with pytest.raises(ExactDivisionError):
        UniPoly(ZZ, "t", [ZZ.one, ZZ.element(2)]).monic()
    with pytest.raises(ExactDivisionError):
        UniPoly.zero(QQ, "t").monic()


def test_printing_known_forms():
    t = UniPoly.monomial(ZZ, "t", 1)
    assert str(t**2 - 3 * t + 2) == "t^2 - 3*t + 2"
    assert str(UniPoly.zero(ZZ, "t")) == "0"
    assert str(UniPoly.constant(ZZ, "t", ZZ.element(-7))) == "-7"
    assert str(-t) == "-t"
    assert str(-(t**2)) == "-t^2"
    assert str(2 * t**3 - t) == "2*t^3 - t"
    q = UniPoly.monomial(QQ, "x", 1)
    assert str(q * Fraction(1, 2) + Fraction(3, 4)) == "1/2*x + 3/4"


def test_printing_parenthesizes_composite_coefficients():
    ring = PolynomialRing(ZZ, ("u0", "u1"))
    u0, u1 = ring.variable("u0"), ring.variable("u1")
    t = UniPoly.monomial(ring, "t", 1)
    p = UniPoly.constant(ring, "t", u1 + 2) * t**2 - UniPoly.constant(ring, "t", u0)
    assert str(p) == "(u1 + 2)*t^2 - u0"
    single = UniPoly.constant(ring, "t", 3 * u0) * t
    assert str(single) == "3*u0*t"
    neg = UniPoly.constant(ring, "t", -u0) * t + 1
    assert str(neg) == "-u0*t + 1"


def test_equality_and_hash():
    a = UniPoly(ZZ, "t", [ZZ.element(1), ZZ.element(2)])
    b = UniPoly(ZZ, "t", [ZZ.element(1), ZZ.element(2), ZZ.zero])
    assert a == b and hash(a) == hash(b)
    assert a != UniPoly(ZZ, "s", [ZZ.element(1), ZZ.element(2)])
    assert a != UniPoly(QQ, "t", [QQ.element(1), QQ.element(2)])


def test_map_coefficients_var_collision_guard():
    src = PolynomialRing(ZZ, ("s",))
    f = UniPoly.monomial(src, "t", 2)
    with pytest.raises(ParameterError):
        f.map_coefficients(RingHom(src, src), var="s")


@pytest.mark.parametrize("build", [
    lambda: UniPoly(ZZ, "", [0, 1]),
    lambda: UniPoly(ZZ, "x+1", [0, 2]),
    lambda: UniPoly(ZZ, 5, [0, 1]),
    lambda: UniPoly.monomial(ZZ, "t", 1).map_coefficients(RingHom(ZZ, GF(2)), "1t"),
    lambda: UniPoly.monomial(ZZ, "t", 1).map_coefficients(RingHom(ZZ, GF(2)), ""),
], ids=["empty", "x+1", "int", "map to 1t", "map to empty"])
def test_the_main_variable_must_be_a_name(build):
    with pytest.raises(ParameterError, match="bad variable name") as caught:
        build()
    assert caught.value.exit_code == 3


def test_subtraction_from_a_constant_negates_the_difference():
    t = UniPoly.monomial(ZZ, "t", 1)
    f = 2 * t**2 - t + 5
    assert 1 - f == -(f - 1)


def test_minus_infinity_orders_and_absorbs():
    assert not MINUS_INFINITY >= 0
    assert MINUS_INFINITY >= MINUS_INFINITY
    assert MINUS_INFINITY + 3 is MINUS_INFINITY


def test_mixed_lines_and_rings_are_refused():
    t = UniPoly.monomial(ZZ, "t", 1)
    f = t**2 + 1
    with pytest.raises(RingMismatchError):
        unipoly_gcd(f, UniPoly.monomial(ZZ, "s", 1))
    with pytest.raises(RingMismatchError):
        f.evaluate(QQ.one)
    with pytest.raises(RingMismatchError):
        f.map_coefficients(RingHom(QQ, QQ))


def test_monomial_and_power_refuse_a_degree_outside_zero_to_the_limit():
    with pytest.raises(ParameterError, match="must be nonnegative"):
        UniPoly.monomial(ZZ, "t", -1)
    with pytest.raises(ParameterError, match="degree 10001 exceeds the limit 10000"):
        UniPoly.monomial(ZZ, "t", 10**4 + 1)
    t5000 = UniPoly.monomial(ZZ, "t", 5000)
    with pytest.raises(ParameterError, match="degree 15000 exceeds the limit 10000"):
        t5000 ** 3
    assert UniPoly.monomial(ZZ, "t", 10**4).degree == 10**4
    assert (t5000**2).degree == 10**4
    assert UniPoly.constant(ZZ, "t", 2) ** 20000 == UniPoly.constant(ZZ, "t", 2**20000)
    assert (UniPoly.zero(ZZ, "t") ** 10**6).is_zero()


def test_a_coefficient_degree_counts_toward_the_limit_before_any_work(monkeypatch):
    """The degree of a power or a monomial includes that of its coefficients in ZZ[u]."""
    ring = PolynomialRing(ZZ, ("u",))
    u = ring.variable("u")

    def fail(*args):
        raise AssertionError("unipoly._pow ran")

    monkeypatch.setattr(unipoly, "_pow", fail)
    with pytest.raises(ParameterError, match="degree 15003 exceeds the limit 10000") as caught:
        UniPoly(ring, "t", [0, u**5000]) ** 3
    assert caught.value.exit_code == 3
    with pytest.raises(ParameterError, match="degree 10001 exceeds the limit 10000"):
        UniPoly.monomial(ring, "t", 5001, u**5000)
    assert UniPoly.monomial(ring, "t", 5000, u**5000).coefficient(5000) == u**5000


@pytest.mark.parametrize("hom", ["hom", None, ZZ], ids=repr)
def test_map_coefficients_refuses_what_is_not_a_ring_map(hom):
    with pytest.raises(ParameterError, match="expected a ring map") as info:
        UniPoly(ZZ, "t", [1, 2]).map_coefficients(hom)
    assert info.value.exit_code == 3


@pytest.mark.parametrize("c", ["junk", 1.5, GF(7).element(3)], ids=repr)
def test_a_monomial_exponent_past_the_limit_is_refused_before_its_coefficient_is_read(c):
    """The degree error comes first, whatever c is, as unipoly.MAX_DEGREE bounds k alone."""
    with pytest.raises(ParameterError, match="degree 10001 exceeds the limit 10000"):
        UniPoly.monomial(ZZ, "t", unipoly.MAX_DEGREE + 1, c)


@pytest.mark.parametrize("ring", [PolynomialRing(ZZ, ("u",)), PolynomialRing(GF(7), ("u", "v")), QQ],
                         ids=str)
def test_a_power_and_the_parser_agree_on_the_degree_limit(ring):
    """UniPoly ** n refuses exactly the powers parse_poly refuses, with the same degree."""
    coeffs = ["u^{a}", "u^{a}*v"] if "v" in getattr(ring, "names", ()) else ["u^{a}", "2"]
    if ring == QQ:
        coeffs = ["3", "1/2"]
    for coeff in coeffs:
        for a in (0, 1, 1999, 3333, 4999):
            for k, n in [(1, 2), (1, 3), (2, 2), (3000, 3), (2001, 5)]:
                src = f"({coeff.format(a=a)}*t^{k} + 1)"
                base = parse_poly(src, ring, "t")
                try:
                    expected = parse_poly(f"{src}^{n}", ring, "t")
                except InputSyntaxError as exc:
                    degree = str(exc).split(" exceeds")[0]
                    with pytest.raises(ParameterError, match=f"^{degree} exceeds the limit 10000$"):
                        base**n
                else:
                    assert base**n == expected
