"""Ring tower tests: axioms, coercion, exact division, and printing."""

import random
from fractions import Fraction

import pytest

from disckit import (
    GF,
    QQ,
    ZZ,
    ExactDivisionError,
    MultiPoly,
    ParameterError,
    PolynomialRing,
    PrimeField,
    RingElement,
    RingHom,
    RingMismatchError,
    UniPoly,
    UnsupportedRingError,
)
from conftest import SCALAR_RINGS, rand_element, rand_scalar

ALL_RINGS = SCALAR_RINGS + (
    PolynomialRing(ZZ, ("u", "v")),
    PolynomialRing(QQ, ("a",)),
    PolynomialRing(GF(7), ("x", "y")),
)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_ring_axioms(ring):
    rng = random.Random(1001)
    for _ in range(40):
        a = rand_element(rng, ring)
        b = rand_element(rng, ring)
        c = rand_element(rng, ring)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero == a
        assert a * ring.one == a
        assert a + (-a) == ring.zero
        assert a - b == a + (-b)
        assert a * ring.zero == ring.zero


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_power_matches_repeated_product(ring):
    rng = random.Random(1002)
    for _ in range(10):
        a = rand_element(rng, ring)
        acc = ring.one
        for k in range(5):
            assert a**k == acc
            acc = acc * a
    assert ring.zero**0 == ring.one


def test_integer_coercion_in_mixed_arithmetic():
    u = PolynomialRing(ZZ, ("u",)).variable("u")
    assert 2 * u + 1 == u + u + 1
    assert (u + 3) - 3 == u
    assert 1 - u == -(u - 1)
    assert QQ.element(Fraction(1, 2)) + Fraction(1, 2) == QQ.one
    assert GF(7).element(5) + 4 == GF(7).element(2)
    f7 = GF(7)
    assert f7.element(-1) == f7.element(6)


def test_cross_ring_arithmetic_rejected():
    with pytest.raises(RingMismatchError):
        ZZ.element(1) + QQ.element(1)
    with pytest.raises(RingMismatchError):
        GF(5).element(1) * GF(7).element(1)
    r1 = PolynomialRing(ZZ, ("u",))
    r2 = PolynomialRing(ZZ, ("v",))
    with pytest.raises(RingMismatchError):
        r1.variable("u") + r2.variable("v")


def test_rational_into_zz_rejected():
    with pytest.raises((RingMismatchError, UnsupportedRingError, ParameterError, TypeError, ValueError)):
        ZZ.element(Fraction(1, 2))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_exact_division_inverts_multiplication(ring):
    rng = random.Random(1003)
    hits = 0
    while hits < 25:
        a = rand_element(rng, ring)
        b = rand_element(rng, ring)
        if b.is_zero():
            continue
        hits += 1
        assert (a * b).exact_div(b) == a


def test_exact_division_failures():
    with pytest.raises(ExactDivisionError):
        ZZ.element(3).exact_div(ZZ.element(2))
    ring = PolynomialRing(ZZ, ("u", "v"))
    with pytest.raises(ExactDivisionError):
        ring.variable("u").exact_div(ring.variable("v"))
    with pytest.raises(ExactDivisionError):
        (ring.variable("u") + 1).exact_div(ring.element(2))
    with pytest.raises(ExactDivisionError):
        ZZ.one.exact_div(ZZ.zero)


def test_exact_division_multivariate_random():
    ring = PolynomialRing(ZZ, ("u", "v"))
    rng = random.Random(1004)
    for _ in range(30):
        a = rand_element(rng, ring)
        b = rand_element(rng, ring)
        if b.is_zero():
            continue
        prod = a * b
        assert prod.exact_div(b) == a
        # a*b + 1 is never divisible by a nonunit b that divides a*b
        if not b.is_unit():
            with pytest.raises(ExactDivisionError):
                (prod + 1).exact_div(b)


def test_units_and_nilpotents():
    assert ZZ.element(1).is_unit() and ZZ.element(-1).is_unit()
    assert not ZZ.element(2).is_unit() and not ZZ.element(0).is_unit()
    assert QQ.element(Fraction(-3, 7)).is_unit()
    assert not QQ.zero.is_unit()
    assert GF(5).element(4).is_unit() and not GF(5).zero.is_unit()
    ring = PolynomialRing(ZZ, ("u",))
    assert ring.element(-1).is_unit()
    assert not ring.element(2).is_unit()
    assert not ring.variable("u").is_unit()
    assert not (ring.variable("u") + 1).is_unit()
    qring = PolynomialRing(QQ, ("a",))
    assert qring.element(Fraction(2, 3)).is_unit()
    # integral domains: only zero is nilpotent, so the zero test decides it
    for ring in ALL_RINGS:
        assert ring.zero.is_zero()
        assert not ring.one.is_zero()


def test_prime_field_constructor_validation():
    for bad in (0, 1, 4, 6, 9, 100, -7):
        with pytest.raises(ParameterError):
            GF(bad)
    assert GF(2).p == 2
    assert GF(7) is GF(7)
    assert PrimeField(11) == GF(11)


def test_polynomial_ring_validation():
    with pytest.raises(ParameterError):
        PolynomialRing(ZZ, ())
    with pytest.raises(ParameterError):
        PolynomialRing(ZZ, ("u", "u"))
    with pytest.raises(ParameterError):
        PolynomialRing(ZZ, ("2bad",))
    with pytest.raises(ParameterError):
        PolynomialRing(ZZ, ("u-v",))
    inner = PolynomialRing(ZZ, ("u",))
    with pytest.raises(UnsupportedRingError):
        PolynomialRing(inner, ("v",))
    with pytest.raises(ParameterError):
        PolynomialRing(ZZ, ("u",)).variable("w")


def test_ring_equality_is_structural():
    assert PolynomialRing(ZZ, ("u", "v")) == PolynomialRing(ZZ, ("u", "v"))
    assert PolynomialRing(ZZ, ("u", "v")) != PolynomialRing(ZZ, ("v", "u"))
    assert PolynomialRing(ZZ, ("u",)) != PolynomialRing(QQ, ("u",))
    assert hash(GF(13)) == hash(GF(13))
    assert ZZ != QQ


def test_elements_hashable_and_usable_as_keys():
    ring = PolynomialRing(ZZ, ("u",))
    u = ring.variable("u")
    seen = {u**2 + 1: "a", u: "b"}
    assert seen[ring.variable("u") ** 2 + 1] == "a"
    assert hash(ZZ.element(5)) == hash(ZZ.element(5))


def test_multipoly_product_matches_naive_convolution():
    ring = PolynomialRing(ZZ, ("u", "v"))
    rng = random.Random(1005)

    def naive_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
        terms = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly(ring, {e: c for e, c in terms.items() if c})

    for _ in range(25):
        a = rand_element(rng, ring)
        b = rand_element(rng, ring)
        assert (a * b).value == naive_mul(a.value, b.value)


def test_multipoly_degree_queries():
    ring = PolynomialRing(ZZ, ("u", "v"))
    u, v = ring.variable("u"), ring.variable("v")
    p = (u**2 * v - 3 * v**2 + 5).value
    assert p.total_degree() == 3
    assert p.degree_in("u") == 2
    assert p.degree_in("v") == 2
    assert p.coefficient_of("u", 2) == (v).value
    assert p.coefficient_of("u", 0) == (-3 * v**2 + 5).value
    assert ring.zero.value.total_degree() is None


def test_printing_graded_lex_descending():
    ring = PolynomialRing(ZZ, ("u0", "u1"))
    u0, u1 = ring.variable("u0"), ring.variable("u1")
    assert str(4 * u0 - u1**2) == "-u1^2 + 4*u0"
    assert str(u0 * u1 + u0**2) == "u0^2 + u0*u1"
    assert str(ring.zero) == "0"
    assert str(ring.one) == "1"
    assert str(-ring.one) == "-1"
    assert str(u0 - u0) == "0"
    assert str(2 * u0**3 * u1) == "2*u0^3*u1"
    assert str(-u0 + 1) == "-u0 + 1"


def test_scalar_printing():
    assert str(ZZ.element(-17)) == "-17"
    assert str(QQ.element(Fraction(3, 4))) == "3/4"
    assert str(QQ.element(Fraction(-2, 1))) == "-2"
    assert str(GF(7).element(12)) == "5"


@pytest.mark.parametrize("ring", ALL_RINGS + (GF(2),), ids=str)
def test_raw_value_owns_its_zero_test_and_its_printing(ring):
    rng = random.Random(1003)
    samples = [ring.zero, ring.one, -ring.one]
    samples += [rand_element(rng, ring) for _ in range(8)]
    if isinstance(ring, PrimeField):
        samples.append(ring.element(ring.p - 1))
    scalar = ring.base if isinstance(ring, PolynomialRing) else ring
    if scalar == QQ:
        samples += [ring.element(Fraction(-1, 2)), ring.element(Fraction(5, 3))]
    if isinstance(ring, PolynomialRing):
        x = ring.variable(ring.names[0])
        samples += [x**2 - 3 * x + 1, -x + 2, x * (x - 1)]
    for x in samples:
        assert (not x.value) == x.is_zero() == (x == ring.zero) == (not x)
        assert str(x) == str(x.value)


def test_one_term_rule_on_polynomial_coefficients():
    def show(base, coeff):
        ring = PolynomialRing(base, ("u",))
        return str(UniPoly(ring, "t", [ring.one, ring.zero, coeff(ring.variable("u"))]))

    assert show(ZZ, lambda u: u) == "u*t^2 + 1"
    assert show(ZZ, lambda u: -u) == "-u*t^2 + 1"
    assert show(QQ, lambda u: Fraction(-1, 2) * u) == "-1/2*u*t^2 + 1"
    assert show(ZZ, lambda u: u**2 - 3) == "(u^2 - 3)*t^2 + 1"
    assert show(GF(7), lambda u: 6 * u) == "6*u*t^2 + 1"
    assert show(GF(7), lambda u: -u) == "6*u*t^2 + 1"
    ring = PolynomialRing(ZZ, ("u",))
    assert str(UniPoly.constant(ring, "t", ring.variable("u") - 1)) == "u - 1"


def test_hom_legality_matrix():
    RingHom(ZZ, QQ)
    RingHom(ZZ, GF(7))
    RingHom(QQ, QQ)
    RingHom(QQ, GF(5))
    RingHom(GF(5), GF(5))
    with pytest.raises(UnsupportedRingError):
        RingHom(QQ, ZZ)
    with pytest.raises(UnsupportedRingError):
        RingHom(GF(5), GF(7))
    with pytest.raises(UnsupportedRingError):
        RingHom(GF(5), QQ)


def test_hom_is_a_ring_map():
    src = PolynomialRing(ZZ, ("u", "v"))
    dst = PolynomialRing(QQ, ("v",))
    hom = RingHom(src, dst, {"u": dst.variable("v") ** 2 - 1})
    rng = random.Random(1006)
    assert hom(src.one) == dst.one
    assert hom(src.zero) == dst.zero
    for _ in range(25):
        a = rand_element(rng, src)
        b = rand_element(rng, src)
        assert hom(a + b) == hom(a) + hom(b)
        assert hom(a * b) == hom(a) * hom(b)
        assert hom(-a) == -hom(a)


def _hom_term_by_term(hom, x):
    """Reference image: map each term on its own and add the results."""
    acc = hom.codomain.zero
    images = [hom._images[name] for name in hom.domain.names]
    for exps, coeff in sorted(x.value.terms.items()):
        term = hom.codomain.element(coeff)
        for img, e in zip(images, exps):
            term = term * img**e
        acc = acc + term
    return acc


@pytest.mark.parametrize(
    "src_base,dst_base", [(ZZ, ZZ), (QQ, QQ), (GF(7), GF(7)), (ZZ, QQ), (ZZ, GF(7))], ids=str
)
def test_hom_matches_term_by_term_evaluation(src_base, dst_base):
    rng = random.Random(1007)
    src = PolynomialRing(src_base, ("u", "v", "w"))
    dst = PolynomialRing(dst_base, ("a", "b"))
    for _ in range(20):
        images = {name: rand_element(rng, dst, terms=2, max_exp=2) for name in src.names}
        to_poly = RingHom(src, dst, images)
        to_scalar = RingHom(src, dst_base, {name: rand_scalar(rng, dst_base) for name in src.names})
        for _ in range(5):
            x = rand_element(rng, src, terms=6, max_exp=4)
            assert to_poly(x) == _hom_term_by_term(to_poly, x)
            assert to_scalar(x) == _hom_term_by_term(to_scalar, x)


def test_hom_default_images_and_errors():
    src = PolynomialRing(ZZ, ("u", "v"))
    dst = PolynomialRing(ZZ, ("v", "w"))
    hom = RingHom(src, dst, {"u": dst.variable("w")})
    assert hom(src.variable("v")) == dst.variable("v")
    with pytest.raises(ParameterError):
        RingHom(src, dst, {})  # u has no same-named default in dst
    with pytest.raises(ParameterError):
        RingHom(src, dst, {"u": dst.variable("w"), "zz": dst.one})
    other = PolynomialRing(ZZ, ("q",))
    with pytest.raises(RingMismatchError):
        RingHom(src, dst, {"u": other.variable("q")})
    with pytest.raises(RingMismatchError):
        hom(other.variable("q"))


def test_hom_specializes_to_scalars():
    src = PolynomialRing(ZZ, ("u",))
    hom = RingHom(src, ZZ, {"u": ZZ.element(3)})
    p = src.variable("u") ** 2 + 2 * src.variable("u") - 1
    assert hom(p) == ZZ.element(14)
    reduce7 = RingHom(src, PolynomialRing(GF(7), ("u",)))
    assert reduce7(src.element(10) * src.variable("u")) == PolynomialRing(GF(7), ("u",)).variable("u") * 3


def test_mod_p_semantics_wrap():
    f5 = GF(5)
    assert f5.element(7) == f5.element(2)
    assert f5.element(3) * f5.element(4) == f5.element(2)
    assert (f5.element(2) ** 4) == f5.element(1)
    inv = f5.one.exact_div(f5.element(3))
    assert inv * 3 == f5.one
