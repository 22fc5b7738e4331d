"""Ring tower tests: axioms, coercion, exact division, and printing."""

import math
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
    det_cofactor,
    det_fraction_free,
    discriminant_ideal,
    generic_section,
    parse_poly,
)
from disckit import rings, unipoly
from disckit.rings import Ring, from_integral, to_integral
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


@pytest.mark.parametrize("bad", [True, False, 2.0, -1], ids=repr)
@pytest.mark.parametrize("ring", (ZZ, QQ, GF(7), PolynomialRing(ZZ, ("u",))), ids=str)
def test_an_exponent_must_be_a_nonnegative_int(ring, bad):
    two = ring.one + ring.one
    with pytest.raises(ParameterError, match="exponent must be a nonnegative integer") as caught:
        two**bad
    assert caught.value.exit_code == 3



def test_a_polynomial_power_past_the_degree_limit_is_refused_before_any_work(monkeypatch):
    """n * total degree above MAX_DEGREE raises, as UniPoly.__pow__ and the parser do."""
    ring = PolynomialRing(ZZ, ("u", "v"))
    u, v = ring.variables()
    assert (u * v) ** 5000 == u**5000 * v**5000  # total degree 10^4, at the limit
    assert ring.zero ** 10**9 == ring.zero  # a constant or zero has degree 0 at any n
    assert (ring.one + 1) ** 20000 == ring.element(2**20000)
    assert unipoly.MAX_DEGREE == rings.MAX_DEGREE == 10**4

    def fail(self, a, n):
        raise AssertionError("Ring._pow ran")

    monkeypatch.setattr(Ring, "_pow", fail)
    for base, n, degree in [(u + 1, 10**4 + 1, 10**4 + 1), (u * v + 1, 5001, 10002),
                            (u + 1, 10**9, 10**9)]:
        with pytest.raises(ParameterError, match=f"degree {degree} exceeds the limit 10000") as caught:
            base**n
        assert caught.value.exit_code == 3


POW_RINGS = (
    ZZ, QQ, GF(2), GF(7),
    PolynomialRing(ZZ, ("x", "y")), PolynomialRing(QQ, ("u", "v")), PolynomialRing(GF(7), ("x",)),
)


@pytest.mark.parametrize("ring", POW_RINGS, ids=str)
def test_raw_power_matches_repeated_raw_product(ring):
    rng = random.Random(1003)
    for a in [ring.coerce(0)] + [rand_element(rng, ring).value for _ in range(6)]:
        acc = ring.coerce(1)
        for n in range(10):
            assert ring._pow(a, n) == acc
            acc = ring._mul(acc, a)


def test_one_square_and_multiply_loop_serves_ring_values_and_coefficient_lists(monkeypatch):
    """rings._power runs under the product and one it is given, which need not commute."""
    for n in range(12):
        assert rings._power("ab", n, lambda x, y: x + y, "") == "ab" * n
    calls = []
    real = rings._power

    def counted(a, n, mul, one):
        calls.append(n)
        return real(a, n, mul, one)

    monkeypatch.setattr(rings, "_power", counted)
    monkeypatch.setattr(unipoly, "_power", counted)
    ring = PolynomialRing(ZZ, ("u",))
    u = ring.variable("u")
    assert (u + 1) ** 3 == u * u * u + 3 * u * u + 3 * u + 1
    t = UniPoly.monomial(ZZ, "t", 1)
    assert (t + 1) ** 4 == UniPoly(ZZ, "t", [1, 4, 6, 4, 1])
    assert calls == [3, 4]


@pytest.mark.parametrize("ring", SCALAR_RINGS, ids=str)
def test_coerce_errors_are_shared_by_the_scalar_rings(ring):
    other = GF(3)
    for value, error, message in (
        (other.one, RingMismatchError, f"cannot coerce element of {other} into {ring}"),
        (True, ParameterError, "booleans are not ring values"),
        ("2", RingMismatchError, f"cannot coerce '2' into {ring}"),
    ):
        with pytest.raises(error) as caught:
            ring.coerce(value)
        assert type(caught.value) is error and str(caught.value) == message
    assert "coerce" not in vars(type(ring))


@pytest.mark.parametrize("ring", (ZZ, QQ), ids=str)
def test_a_number_prints_its_sign_and_the_str_of_its_absolute_value(ring):
    values = [0, 1, -1, 7, -12, 10**30, -(10**30)]
    if ring == QQ:
        values += [Fraction(3, 4), Fraction(-3, 4), Fraction(-(10**20), 7), Fraction(6, 3),
                   Fraction(-6, 4)]
    for value in values:
        a = ring.coerce(value)
        assert ring._sign_mag(a) == ((-1 if a < 0 else 1), str(abs(a)))


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


@pytest.mark.parametrize("names", ["ab", "u0", "u", ""])
def test_a_str_of_variable_names_is_refused(names):
    """A str is not read one character at a time: "ab" is not the names a and b."""
    with pytest.raises(ParameterError, match="as a sequence, not the str") as caught:
        PolynomialRing(ZZ, names)
    assert caught.value.exit_code == 3
    if names:
        assert PolynomialRing(ZZ, [names]).names == (names,)


def test_variable_looks_up_its_index_without_scanning_the_names():
    calls = []

    class CountingNames(tuple):
        def index(self, *args):
            calls.append("index")
            return super().index(*args)

        def __contains__(self, name):
            calls.append("in")
            return super().__contains__(name)

        def __iter__(self):
            calls.append("iter")
            return super().__iter__()

    ring = PolynomialRing(ZZ, [f"a{i}" for i in range(50)])
    ring.names = CountingNames(ring.names)
    for i in (0, 17, 49):
        x = ring.variable(f"a{i}")
        assert x.value.terms == {(0,) * i + (1,) + (0,) * (49 - i): 1}
    assert calls == []
    with pytest.raises(ParameterError, match="has no variable 'b'"):
        ring.variable("b")


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


@pytest.mark.parametrize("query", [
    lambda p: p.degree_in("z"),
    lambda p: p.coefficient_of("z", 1),
], ids=["degree_in", "coefficient_of"])
def test_multipoly_queries_refuse_a_name_the_ring_lacks(query):
    ring = PolynomialRing(ZZ, ("a", "b"))
    p = ring.variable("a").value
    with pytest.raises(ParameterError, match=r"ZZ\[a,b\] has no variable 'z'; its variables are a, b"):
        query(p)
    with pytest.raises(ParameterError, match=r"ZZ\[a,b\] has no variable 'z'"):
        ring.variable("z")


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
    images = [hom.codomain.element(raw) for raw in hom._raw_images]
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
    """Also: an image given as a RingElement, a raw MultiPoly or a base-ring element, or
    left to default to the same-named variable, is read into one raw value in domain order."""
    rng = random.Random(1007)
    src = PolynomialRing(src_base, ("u", "v", "w"))
    dst = PolynomialRing(dst_base, ("a", "w"))
    w = dst.variable("w")
    for _ in range(20):
        images = {name: rand_element(rng, dst, terms=2, max_exp=2) for name in src.names}
        to_poly = RingHom(src, dst, images)
        to_scalar = RingHom(src, dst_base, {name: rand_scalar(rng, dst_base) for name in src.names})
        c = rand_scalar(rng, dst_base)
        forms = [
            {"u": images["u"], "v": dst.element(c), "w": w},
            {"u": images["u"].value, "v": dst.coerce(c), "w": w.value},
            {"u": images["u"], "v": c, "w": w},
            {"u": images["u"].value, "v": c},
        ]
        homs = [RingHom(src, dst, form) for form in forms]
        for hom in homs:
            assert hom._raw_images == [images["u"].value, dst.coerce(c), w.value]
        for _ in range(5):
            x = rand_element(rng, src, terms=6, max_exp=4)
            assert to_poly(x) == _hom_term_by_term(to_poly, x)
            assert to_scalar(x) == _hom_term_by_term(to_scalar, x)
            assert [hom(x) for hom in homs] == [_hom_term_by_term(homs[0], x)] * len(homs)


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


def test_modulus_names_the_int_path():
    assert ZZ.modulus == 0
    assert QQ.modulus is None
    assert GF(7).modulus == 7 and PrimeField(11).modulus == 11
    for base in (ZZ, QQ, GF(7)):
        assert PolynomialRing(base, ("u",)).modulus is None


def test_to_integral_scales_by_the_lcm_of_the_denominators():
    assert to_integral([Fraction(1, 2), Fraction(-2, 3), Fraction(0)], QQ) == (ZZ, [3, -4, 0], 6)
    assert to_integral([Fraction(5)], QQ) == (ZZ, [5], 1)
    assert to_integral([], QQ) == (ZZ, [], 1)


QQ_UV = PolynomialRing(QQ, ("u", "v"))


def _boundary_cases(ring):
    """Lists of raw values of ring: empty, zeros, integral, shared and large coprime denominators."""
    big = [2**61 - 1, 2**89 - 1, 2**107 - 1]  # Mersenne primes
    scalars = [
        [], [Fraction(0)], [Fraction(0), Fraction(0)], [Fraction(3), Fraction(-7)],
        [Fraction(1, 2), Fraction(1, 3), Fraction(0)], [Fraction(5, 6), Fraction(-7, 4)],
        [Fraction(1, q) for q in big] + [Fraction(-(2**200) + 1, big[0])],
    ]
    if ring == QQ:
        return scalars
    u, v = ring.variables()
    zero = ring.zero.value
    polys = [[], [zero], [zero, zero], [(3 * u - 7 * v).value, ring.one.value]]
    for values in scalars[4:]:
        polys.append([(c * u**k * v + 1).value for k, c in enumerate(values)] + [zero])
        polys.append([sum((c * u**k for k, c in enumerate(values)), v).value])
    return polys


def test_to_integral_reads_the_rings_own_twin(monkeypatch):
    """QQ[vars] builds its ZZ[vars] twin once, with itself; to_integral builds no ring."""
    ring = PolynomialRing(QQ, ("u", "v"))
    assert ring._twin == PolynomialRing(ZZ, ("u", "v"))
    built = []
    init = PolynomialRing.__init__
    monkeypatch.setattr(PolynomialRing, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    values = [(ring.variable("u") * Fraction(1, 2) + 1).value, ring.element(Fraction(2, 3)).value]
    assert to_integral(values, ring)[0] is ring._twin
    assert to_integral(values, ring)[0] is ring._twin
    assert built == []
    for base in (ZZ, GF(7)):
        assert PolynomialRing(base, ("u", "v"))._twin is None


@pytest.mark.parametrize("ring", (QQ, QQ_UV), ids=str)
def test_the_rational_boundary_round_trips(ring):
    twin_ring = ZZ if ring == QQ else PolynomialRing(ZZ, ("u", "v"))
    for values in _boundary_cases(ring):
        twin, ints, s = to_integral(values, ring)
        assert twin == twin_ring
        if ring == QQ:
            assert all(type(x) is int for x in ints)
            coeffs = [[x] for x in values]
        else:
            assert all(x.ring == twin_ring for x in ints)
            assert all(type(c) is int for x in ints for c in x.terms.values())
            coeffs = [list(x.terms.values()) for x in values]
        # s is the least one scale that clears every value
        assert s == math.lcm(*(c.denominator for cs in coeffs for c in cs))
        assert from_integral(ints, s, ring) == values
        assert all(type(x) is type(y) for x, y in zip(from_integral(ints, s, ring), values))


@pytest.mark.parametrize("ring", (QQ, QQ_UV), ids=str)
def test_from_integral_divides_by_the_given_integer(ring):
    twin, ints, s = to_integral([ring.element(Fraction(1, 2)).value, ring.zero.value], ring)
    assert s == 2
    assert from_integral(ints, 6, ring) == [ring.element(Fraction(1, 6)).value, ring.zero.value]
    assert from_integral(ints, -1, ring) == [ring.element(-1).value, ring.zero.value]
    assert from_integral([], 5, ring) == []
    x = ring.element(4).value if ring == QQ else (4 * twin.variable("u")).value
    want = ring.element(Fraction(2, 3)) * (1 if ring == QQ else ring.variable("u"))
    assert from_integral([x], 6, ring) == [want.value]


def test_mod_p_semantics_wrap():
    f5 = GF(5)
    assert f5.element(7) == f5.element(2)
    assert f5.element(3) * f5.element(4) == f5.element(2)
    assert (f5.element(2) ** 4) == f5.element(1)
    inv = f5.one.exact_div(f5.element(3))
    assert inv * 3 == f5.one


def test_zero_polynomial_has_degree_zero_in_each_variable():
    assert PolynomialRing(QQ, ("u",)).zero.value.degree_in("u") == 0


def test_comparing_with_a_string_is_false_not_an_error():
    assert (ZZ.one == "1") is False


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: RingHom(ZZ, QQ, {"u": 1}), ParameterError),
        (lambda: PrimeField(7.0), ParameterError),
        (lambda: PolynomialRing(QQ, ("u",)).coerce(PolynomialRing(QQ, ("v",)).variable("v").value),
         RingMismatchError),
        (lambda: QQ.one.exact_div(0), ExactDivisionError),
        (lambda: GF(7).one.exact_div(0), ExactDivisionError),
    ],
    ids=["scalar-domain-images", "float-characteristic", "foreign-polynomial",
         "QQ-by-zero", "Fp-by-zero"],
)
def test_refusals_raise_their_error_class(call, error):
    with pytest.raises(error):
        call()


WRONG_TYPES = {
    # each call has a second fault that a later check would report: the type check runs first
    "det_fraction_free": (lambda: det_fraction_free([[1, 2]], "ZZ"), UnsupportedRingError),
    "det_cofactor": (lambda: det_cofactor([[1, 2]], "ZZ"), UnsupportedRingError),
    "UniPoly": (lambda: UniPoly("ZZ", "1t", [1]), UnsupportedRingError),
    "parse_poly": (lambda: parse_poly("t+", "ZZ", "t"), UnsupportedRingError),
    "RingHom codomain": (lambda: RingHom(ZZ, "QQ"), UnsupportedRingError),
    "RingHom domain": (lambda: RingHom("ZZ", QQ, {"u": 1}), UnsupportedRingError),
    "PolynomialRing base": (lambda: PolynomialRing("ZZ", "u"), UnsupportedRingError),
    "discriminant_ideal": (lambda: discriminant_ideal(0, 1, (2, 0)), ParameterError),
    "generic_section": (lambda: generic_section(0, (2, 0)), ParameterError),
}


@pytest.mark.parametrize("name", WRONG_TYPES)
def test_a_ring_or_chart_of_the_wrong_type_exits_3_before_any_work(name):
    call, error = WRONG_TYPES[name]
    with pytest.raises(error, match="unsupported ring|must be a ChartId") as info:
        call()
    assert info.value.exit_code == 3
