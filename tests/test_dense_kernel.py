"""The dense univariate kernel against the schoolbook product it replaced.

UniPoly arithmetic, the parser and the oracle run on raw coefficient
lists (unipoly._mul and friends).  Over ZZ and Fp products of operands
with at least _KRONECKER_MIN coefficients go through Kronecker
substitution, and over QQ they clear denominators first, unless one
operand has one term: then it scales the other, and a monomial's power is
a shift of its coefficient's power.  Every product is compared with
_mul_reference, the schoolbook product on RingElement wrappers, at
lengths on both sides of the threshold, with zero and one-term operands,
monomial powers and interior zeros.  The Fp remainder on plain ints,
_rem_mod, is compared with _divmod.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from disckit import GF, QQ, ZZ, PolynomialRing, PrimeField, UniPoly, parse_poly, unipoly
from disckit.unipoly import _KRONECKER_MIN, _kronecker, _mul_reference
from conftest import rand_element

P31 = 2**31 - 1
RINGS = (
    ZZ, QQ, GF(2), GF(7), GF(P31),
    PolynomialRing(ZZ, ("a", "b")), PolynomialRing(QQ, ("u", "v")),
)
LENGTHS = range(1, _KRONECKER_MIN + 9)


def rand_coeff(rng, ring):
    """A random raw coefficient, zero about one time in four."""
    if rng.random() < 0.25:
        return ring.coerce(0)
    if ring == ZZ:
        return rng.randint(-(2**200), 2**200) if rng.random() < 0.5 else rng.randint(-9, 9)
    if ring == QQ:
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
    if isinstance(ring, PrimeField):
        return rng.randrange(ring.p)
    return rand_element(rng, ring, terms=2, max_exp=2).value


def rand_poly(rng, ring, length):
    """A polynomial with exactly `length` coefficients (zero for length 0)."""
    coeffs = [rand_coeff(rng, ring) for _ in range(length)]
    while length and not coeffs[-1]:
        coeffs[-1] = rand_coeff(rng, ring)
    return UniPoly(ring, "t", coeffs)


def one_term(rng, ring, k):
    lead = rand_poly(rng, ring, 1).coeffs[0]
    return UniPoly.monomial(ring, "t", k, lead)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_product_matches_the_schoolbook_reference(ring):
    rng = random.Random(8001)
    top = LENGTHS[-1]
    for la in LENGTHS:
        for lb in sorted({1, la, top, rng.choice(LENGTHS)}):
            f, g = rand_poly(rng, ring, la), rand_poly(rng, ring, lb)
            assert f * g == _mul_reference(f, g) == g * f
        f = rand_poly(rng, ring, la)
        assert f * f == _mul_reference(f, f)
        assert f**2 == _mul_reference(f, f)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_zero_and_one_term_operands(ring):
    rng = random.Random(8002)
    zero = UniPoly.zero(ring, "t")
    for length in (1, _KRONECKER_MIN - 1, _KRONECKER_MIN, _KRONECKER_MIN + 8):
        f = rand_poly(rng, ring, length)
        assert (f * zero).is_zero() and (zero * f).is_zero()
        assert _mul_reference(f, zero).is_zero()
        for k in (0, 1, 5):
            m = one_term(rng, ring, k)
            assert f * m == _mul_reference(f, m) == m * f
            want = UniPoly.constant(ring, "t", 1)
            for n in range(6):  # a monomial's power is a shift of its coefficient's
                assert m**n == want
                want = _mul_reference(want, m)
        assert f**0 == UniPoly.constant(ring, "t", 1)
        assert f**1 == f
    assert zero**0 == UniPoly.constant(ring, "t", 1)
    assert (zero**3).is_zero()


def test_one_term_products_over_qq_clear_no_fractions(monkeypatch):
    def no_clearing(*args):
        raise AssertionError("cleared fractions")

    monkeypatch.setattr(unipoly, "to_integral", no_clearing)
    f = parse_poly("1/2*t^3 - 3/4*t^8 + (5/6*t)^3 - 7", QQ, "t")
    assert f.coeffs == tuple(QQ.element(c) for c in (
        -7, 0, 0, Fraction(1, 2) + Fraction(125, 216), 0, 0, 0, 0, Fraction(-3, 4)))
    with pytest.raises(AssertionError, match="cleared fractions"):
        parse_poly("(1/2*t + 1/3)*(t - 1/5)", QQ, "t")


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64, 200])
def test_kronecker_slots_at_power_of_two_coefficients(bits):
    """Coefficients at +-(2^bits - 1) and -2^bits put products at a slot edge."""
    rng = random.Random(bits)
    for n in (_KRONECKER_MIN, _KRONECKER_MIN + 3):
        values = [2**bits - 1, -(2**bits - 1), -(2**bits)]
        a = [rng.choice(values) for _ in range(n)]
        b = [rng.choice(values) for _ in range(n + 2)]
        for x, y in ((a, b), (a, a), ([2**bits - 1] * n, [2**bits - 1] * n),
                     ([-(2**bits)] * n, [-(2**bits)] * n)):
            out = [0] * (len(x) + len(y) - 1)
            for i, c in enumerate(x):
                for j, d in enumerate(y):
                    out[i + j] += c * d
            assert _kronecker(x, y) == out


@pytest.mark.parametrize("n", range(_KRONECKER_MIN - 3, 2 * _KRONECKER_MIN + 4))
def test_alternating_signs_through_kronecker(n):
    f = parse_poly(f"(t - 1)^{n}", ZZ, "t")
    assert [c.value for c in f.coeffs] == [(-1) ** (n - k) * comb(n, k) for k in range(n + 1)]
    g = parse_poly(f"(t - 1)^{n} * (t + 1)^{n}", ZZ, "t")
    assert g == parse_poly(f"(t^2 - 1)^{n}", ZZ, "t")


def test_large_power_over_a_prime_field_is_fast_and_exact():
    start = time.perf_counter()
    f = parse_poly("(t+1)^9000", GF(P31), "t")
    assert time.perf_counter() - start < 1.0
    assert f.degree == 9000
    for k in random.Random(8003).sample(range(9001), 40) + [0, 1, 4500, 8999, 9000]:
        assert f.coeffs[k].value == comb(9000, k) % P31


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_divmod_by_a_unit_leading_coefficient(ring):
    rng = random.Random(8004)
    for la in (0, 1, 3, _KRONECKER_MIN + 2):
        for lb in (1, 2, 4):
            f = rand_poly(rng, ring, la)
            g = rand_poly(rng, ring, lb - 1) + UniPoly.monomial(ring, "t", lb - 1, -1)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


@pytest.mark.parametrize("ring", (GF(2), GF(7), GF(P31)), ids=str)
def test_the_int_remainder_over_fp_matches_divmod(ring):
    rng = random.Random(8006)
    for la in (0, 1, 2, 3, 6, _KRONECKER_MIN + 2):
        for lb in (1, 2, 3, 5):
            f, g = rand_poly(rng, ring, la), rand_poly(rng, ring, lb)
            a, b = f._raw, g._raw
            saved = list(a), list(b)
            assert unipoly._rem_mod(a, b, ring.p) == unipoly._divmod(a, b, ring)[1]
            assert (a, b) == saved  # the operands are left as they were


@pytest.mark.slow
@pytest.mark.parametrize("ring", (ZZ, GF(P31)), ids=str)
def test_long_products_match_the_schoolbook_reference(ring):
    rng = random.Random(8005)
    for la, lb in ((300, 300), (257, 600), (700, 40)):
        f, g = rand_poly(rng, ring, la), rand_poly(rng, ring, lb)
        assert f * g == _mul_reference(f, g)
    f = rand_poly(rng, ring, 400)
    assert f**2 == _mul_reference(f, f)
