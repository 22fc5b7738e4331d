"""Expression parser tests: grammar, positions, rings, round trips."""

import functools
import random
import time
from fractions import Fraction

import pytest

from disckit import (
    GF,
    QQ,
    ZZ,
    InputSyntaxError,
    ParameterError,
    PolynomialRing,
    UniPoly,
    parse_element,
    parse_poly,
    parse_ring,
)
from disckit.parser import _parse_poly, _ReferenceParser
from conftest import rand_element, rand_unipoly


def T(ring=ZZ):
    return UniPoly.monomial(ring, "t", 1)


@pytest.mark.parametrize(
    "src,expected",
    [
        ("t^2 - 3*t + 2", T() ** 2 - 3 * T() + 2),
        ("2 - t", -T() + 2),
        ("-t^2", -(T() ** 2)),
        ("(t - 1)*(t + 1)", T() ** 2 - 1),
        ("t*t*t", T() ** 3),
        ("- -t", T()),
        ("-(t - 2)", -T() + 2),
        ("7", UniPoly.constant(ZZ, "t", ZZ.element(7))),
        ("0", UniPoly.zero(ZZ, "t")),
        ("t^2^3", UniPoly.monomial(ZZ, "t", 8)),
        ("2^3^2", UniPoly.constant(ZZ, "t", ZZ.element(512))),
        ("  t  +  1 ", T() + 1),
        ("t^1", T()),
        ("(((t)))", T()),
        # the nesting bound counts depth, not parentheses
        (" + ".join(["(" * 100 + "t" + ")" * 100] * 3), 3 * T()),
    ],
)
def test_accepted_expressions_over_zz(src, expected):
    assert parse_poly(src, ZZ, "t") == expected


@pytest.mark.parametrize("count", [0, 1, 2, 5000, 5001])
def test_a_run_of_unary_minus_negates_by_its_parity(count):
    # a run is counted, not recursed into, and binds looser than '^'
    sign = -1 if count % 2 else 1
    minus = "-" * count
    assert parse_poly(minus + "t", ZZ, "t") == sign * T()
    assert parse_poly(minus + "t^2", ZZ, "t") == sign * T() ** 2
    assert parse_poly("1 + " + minus + "(t - 2)^3", ZZ, "t") == 1 + sign * (T() - 2) ** 3
    assert parse_poly("t*" + minus + "2", ZZ, "t") == sign * 2 * T()


def test_rational_literals():
    f = parse_poly("1/2*t + 3/4", QQ, "t")
    assert f == T(QQ) * Fraction(1, 2) + Fraction(3, 4)
    assert parse_poly("6/3", QQ, "t") == UniPoly.constant(QQ, "t", QQ.element(2))
    # over a prime field the slash is modular division
    assert parse_poly("1/2", GF(7), "t") == UniPoly.constant(GF(7), "t", GF(7).element(4))


def test_fraction_errors_are_positioned():
    with pytest.raises(InputSyntaxError):
        parse_poly("1/2", ZZ, "t")
    with pytest.raises(InputSyntaxError):
        parse_poly("1/0", QQ, "t")
    with pytest.raises(InputSyntaxError):
        parse_poly("3/7", GF(7), "t")


@pytest.mark.parametrize(
    "src",
    [
        "t t",
        "2t",
        "()",
        "t +",
        "(t",
        "t)",
        "t^-1",
        "t^(2)",
        "t^t",
        "/3",
        "t//2",
        "",
        "   ",
        "t$",
        "t & 1",
        "t^10000001",
        "t^200000",
        "t^6000*t^6000",
        "(t^5000)^3",
        "(t^2 + 1)^5001",
        "(2^9999)^9999",
        "2^2^2^2^2^2",
        "x + 1",
        "3.5",
    ],
)
def test_rejected_expressions(src):
    with pytest.raises(InputSyntaxError):
        parse_poly(src, ZZ, "t")


def test_error_positions_and_caret():
    with pytest.raises(InputSyntaxError) as info:
        parse_poly("t + x", ZZ, "t")
    err = info.value
    assert err.line == 1 and err.column == 5
    caret = err.caret_diagnostic()
    lines = caret.splitlines()
    assert "t + x" in lines[-2]
    assert lines[-1].rstrip().endswith("^")
    assert lines[-1].index("^") == lines[-2].index("x")


def test_error_position_on_later_line():
    with pytest.raises(InputSyntaxError) as info:
        parse_poly("t +\n 2 $", ZZ, "t")
    assert info.value.line == 2
    assert info.value.column == 4


def test_unknown_variable_message_lists_known_ones():
    ring = PolynomialRing(ZZ, ("b", "c"))
    with pytest.raises(InputSyntaxError) as info:
        parse_poly("b*t + q", ring, "t")
    assert "q" in str(info.value)
    assert "b" in str(info.value) and "c" in str(info.value)


def test_implicit_multiplication_message():
    with pytest.raises(InputSyntaxError) as info:
        parse_poly("2 t", ZZ, "t")
    assert "*" in str(info.value)


def test_coefficient_variables_parse():
    ring = PolynomialRing(ZZ, ("b", "c"))
    f = parse_poly("t^2 + b*t + c", ring, "t")
    assert f.degree == 2
    assert f.coefficient(1) == ring.variable("b")
    assert f.coefficient(0) == ring.variable("c")
    g = parse_poly("(b + c)^2", ring, "t")
    assert g.coefficient(0) == (ring.variable("b") + ring.variable("c")) ** 2


def test_parse_poly_without_main_var_gives_ring_element():
    ring = PolynomialRing(ZZ, ("u0", "u1"))
    e = parse_poly("4*u0 - u1^2", ring)
    assert e == 4 * ring.variable("u0") - ring.variable("u1") ** 2
    with pytest.raises(ParameterError):
        parse_poly("4", ZZ)


def test_main_var_collision_rejected():
    ring = PolynomialRing(ZZ, ("t", "u"))
    with pytest.raises(ParameterError):
        parse_poly("t + u", ring, "t")


def test_parse_element():
    ring = PolynomialRing(QQ, ("a",))
    e = parse_element("a^2 - 1/3", ring)
    assert e == ring.variable("a") ** 2 - Fraction(1, 3)
    assert parse_element("-5", ZZ) == ZZ.element(-5)


@pytest.mark.parametrize(
    "text,check",
    [
        ("ZZ", lambda r: r is ZZ or r == ZZ),
        ("QQ", lambda r: r == QQ),
        ("Fp(31)", lambda r: r == GF(31)),
        ("ZZ[u0,u1]", lambda r: r == PolynomialRing(ZZ, ("u0", "u1"))),
        ("QQ[u]", lambda r: r == PolynomialRing(QQ, ("u",))),
        ("Fp(5)[a, b]", lambda r: r == PolynomialRing(GF(5), ("a", "b"))),
        (" ZZ [ u ] ", lambda r: r == PolynomialRing(ZZ, ("u",))),
    ],
)
def test_parse_ring_accepts(text, check):
    assert check(parse_ring(text))


@pytest.mark.parametrize(
    "text",
    ["", "Fp(4)", "Fp()", "fp(5)", "GF(7)", "ZZ[]", "ZZ[u;v]", "QQ[u][v]", "RR", "ZZ[", "Fp(-3)"],
)
def test_parse_ring_rejects(text):
    with pytest.raises(ParameterError):
        parse_ring(text)


@pytest.mark.parametrize(
    "ring",
    (ZZ, QQ, GF(13), PolynomialRing(QQ, ("a", "b")), PolynomialRing(GF(5), ("u",))),
    ids=str,
)
def test_round_trip_unipoly(ring):
    rng = random.Random(3001)
    for _ in range(40):
        f = rand_unipoly(rng, ring, 5)
        assert parse_poly(str(f), ring, "t") == f


def test_round_trip_ring_element():
    ring = PolynomialRing(ZZ, ("u", "v", "w"))
    rng = random.Random(3002)
    for _ in range(40):
        e = rand_element(rng, ring, terms=4, max_exp=3)
        assert parse_element(str(e), ring) == e
        assert parse_poly(str(e), ring) == e


def test_parsing_is_deterministic():
    ring = PolynomialRing(ZZ, ("b", "c"))
    a = parse_poly("t^3 - (b - 1)*t + c^2", ring, "t")
    b = parse_poly("t^3 - (b - 1)*t + c^2", ring, "t")
    assert a == b and str(a) == str(b)


@pytest.mark.parametrize(
    "src, ring, column, message",
    [
        ("t^200000", ZZ, 3, "exponent exceeds the limit 10000"),
        ("t^9000 * t^2000", ZZ, 8, "degree 11000 exceeds the limit 10000"),
        ("(u^4000*t)^2 * t^2001", PolynomialRing(QQ, ("u",)), 14, "degree 10003 exceeds the limit 10000"),
        ("(t + u)^10001", PolynomialRing(GF(7), ("u",)), 9, "exponent exceeds the limit 10000"),
        ("(3^9999)^20", ZZ, 9, "coefficients over 100000 bits"),
    ],
)
def test_degree_bound_fails_fast_at_the_operator(src, ring, column, message):
    start = time.perf_counter()
    with pytest.raises(InputSyntaxError) as info:
        parse_poly(src, ring, "t")
    assert time.perf_counter() - start < 1.0
    err = info.value
    assert message in str(err) and (err.line, err.column) == (1, column)
    assert err.caret_diagnostic().splitlines()[-1].index("^") == column + 1


def test_integer_literals_are_bounded_in_digits():
    big = "1" + "0" * 4300
    with pytest.raises(InputSyntaxError) as info:
        parse_poly("t - " + big, ZZ, "t")
    err = info.value
    assert "literal of 4301 digits" in str(err) and (err.line, err.column) == (1, 5)
    assert parse_poly(big[:-1], ZZ, "t").coefficient(0).value == 10**4299
    with pytest.raises(ParameterError):
        parse_ring(f"Fp({big})")


def test_degree_bound_is_inclusive():
    value = parse_poly("t^5000 * t^5000", ZZ, "t")
    assert value.degree == 10000
    ring = PolynomialRing(ZZ, ("u",))
    assert parse_poly("u^9999 * t", ring, "t").degree == 1
    assert parse_element("(u^100)^100", ring) == ring.variable("u") ** 10000


def test_a_prime_past_the_supported_bound_is_refused():
    with pytest.raises(ParameterError, match="exceeds the supported bound"):
        parse_ring("Fp(2147483648)")



@pytest.mark.parametrize(
    "parse", [parse_poly, functools.partial(_parse_poly, _ReferenceParser)],
    ids=["parse_poly", "reference"],
)
@pytest.mark.parametrize(
    "src, message",
    [
        ("t + * 2", "expected a number, variable, or '(', found '*'"),
        ("t )", "unexpected ')'"),
        ("(t", "expected ')', found end of input"),
        ("t 2", "unexpected number '2'; use '*' for multiplication"),
        ("t x", "unexpected identifier 'x'; use '*' for multiplication"),
    ],
)
def test_messages_quote_only_numbers_and_names(parse, src, message):
    with pytest.raises(InputSyntaxError) as info:
        parse(src, ZZ, "t")
    assert str(info.value) == message
