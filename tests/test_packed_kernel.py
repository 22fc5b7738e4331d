"""The determinant kernels against the slow paths they replaced.

det_fraction_free eliminates on plain values: Bareiss on ints over ZZ
and, after clearing row denominators, over QQ; Gaussian elimination mod
p over Fp; Bareiss on packed-monomial dicts of ints over ZZ[vars] and
Fp[vars], QQ[vars] again through cleared rows.  Each is compared with
the RingElement Bareiss kept as _det_fraction_free_reference, and up to
n = 6 with the division-free cofactor expansion.  MultiPoly.exact_div
runs in the packed kernel (over QQ[vars] after clearing denominators)
and is checked against multiplication, which does not use it.
"""

import random
from fractions import Fraction

import pytest

from disckit import (
    GF,
    QQ,
    ZZ,
    ExactDivisionError,
    PolynomialRing,
    SylvesterSpec,
    UniPoly,
    UnsupportedRingError,
    det_cofactor,
    det_fraction_free,
    resultant,
    sylvester_matrix,
)
from disckit.resultants import _det_fraction_free_reference
from disckit import rings
from disckit.rings import _Packed, _exponent_range_within
from conftest import rand_element, rand_unipoly

BASES = (ZZ, QQ, GF(7))
SCALARS = BASES + (GF(2), GF(2147483647))
POLY_RINGS = tuple(PolynomialRing(base, ("x", "y")) for base in SCALARS)
RINGS = SCALARS + POLY_RINGS


def max_size(ring):
    """Sizes up to the largest Sylvester matrix of the interactive workload."""
    return 8 if isinstance(ring, PolynomialRing) else 18


def check_det(m, ring):
    fast = det_fraction_free(m, ring)
    assert fast == _det_fraction_free_reference(m, ring)
    if len(m) <= 6:
        assert fast == det_cofactor(m, ring)
    return fast


def rand_nonzero(rng, ring):
    while True:
        x = rand_element(rng, ring, terms=2, max_exp=2)
        if not x.is_zero():
            return x


def rand_matrix(rng, ring, n):
    """Random n x n matrix with zero entries and, now and then, a zero column."""
    rows = [
        [ring.zero if rng.random() < 0.3 else rand_element(rng, ring, terms=2, max_exp=2)
         for _ in range(n)]
        for _ in range(n)
    ]
    if rng.random() < 0.2:
        col = rng.randrange(n)
        for row in rows:
            row[col] = ring.zero
    return rows


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_det_matches_both_references(ring):
    rng = random.Random(7001)
    for n in range(1, max_size(ring) + 1):
        for _ in range(10 if n <= 6 else 3):
            check_det(rand_matrix(rng, ring, n), ring)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_det_with_a_row_swap_at_every_step(ring):
    """Row i < n-1 starts at column i+1 and the last row at column 0.

    Every elimination step finds its pivot only in the last row, so the
    determinant carries the sign of n - 1 swaps.
    """
    rng = random.Random(7005)
    for n in range(2, max_size(ring) + 1):
        m = [
            [ring.zero] * (i + 1) + [rand_nonzero(rng, ring)]
            + [rand_element(rng, ring, terms=2, max_exp=2) for _ in range(n - i - 2)]
            for i in range(n - 1)
        ]
        last = [rand_element(rng, ring, terms=2, max_exp=2) for _ in range(n - 1)]
        m.append([rand_nonzero(rng, ring)] + last)
        assert not check_det(m, ring).is_zero()


def test_rational_rows_with_coprime_denominators():
    """Every entry has its own prime denominator, so each row's scale is
    the product of its row's primes; an all-zero row has scale 1."""
    n = max_size(QQ)
    primes = [p for p in range(2, 3000) if all(p % f for f in range(2, int(p**0.5) + 1))]
    rng = random.Random(7006)
    m = [
        [QQ.element(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), primes[i * n + j]))
         for j in range(n)]
        for i in range(n)
    ]
    assert not check_det(m, QQ).is_zero()
    for i in (0, n // 2, n - 1):
        assert check_det(m[:i] + [[QQ.zero] * n] + m[i + 1:], QQ).is_zero()


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_resultant_with_declared_degrees_above_actual(ring):
    rng = random.Random(7002)
    for _ in range(6):
        F = rand_unipoly(rng, ring, 3, nonzero=True)
        G = rand_unipoly(rng, ring, 2, nonzero=True)
        spec = SylvesterSpec(F.degree + rng.randint(0, 2), G.degree + rng.randint(1, 2))
        matrix = sylvester_matrix(F, G, spec)
        fast = resultant(F, G, spec)
        assert fast == _det_fraction_free_reference(matrix, ring)
        if len(matrix) <= 6:
            assert fast == det_cofactor(matrix, ring)


def test_exponents_at_the_top_of_a_field():
    """Degrees that need every bit of the chosen width.

    Row 0 carries x^4 and the other rows are constants, so the bound is
    2 * 4 = 8 = 0b1000 and the last elimination step forms x^8: a width
    one bit narrower would carry it into the neighbouring field.
    """
    ring = PolynomialRing(ZZ, ("w", "x", "y"))
    w, x, y = ring.variables()
    m = [
        [x**4, x**4 + y**4, w**4 + x**3 * y],
        [ring.one, ring.element(2), ring.element(3)],
        [ring.element(5), ring.element(7), ring.element(11)],
    ]
    det = det_fraction_free(m, ring)
    assert det == _det_fraction_free_reference(m, ring) == det_cofactor(m, ring)
    product = x**8 * y**7 + w**16 - y**15
    for divisor in (x**8, y**7 - w**3, w**16 - x, x**4 * y**4 + 1):
        assert (product * divisor).exact_div(divisor) == product


@pytest.mark.parametrize("ring", POLY_RINGS, ids=str)
def test_exact_div_inverts_multiplication(ring):
    rng = random.Random(7003)
    hits = 0
    while hits < 40:
        a = rand_element(rng, ring, terms=4, max_exp=rng.choice((1, 3, 4, 7, 8)))
        b = rand_element(rng, ring, terms=3, max_exp=rng.choice((1, 2, 4, 8)))
        if b.is_zero():
            continue
        hits += 1
        assert (a * b).exact_div(b) == a


@pytest.mark.parametrize("base", BASES, ids=str)
def test_exact_div_failures(base):
    ring = PolynomialRing(base, ("u", "v"))
    u, v = ring.variables()
    for num, den in ((u, v), (ring.one, v), (u**8, u * v), (u**3 * v, u**4), (u**2 + v, u + v)):
        with pytest.raises(ExactDivisionError):
            num.exact_div(den)
    with pytest.raises(ExactDivisionError):
        u.exact_div(ring.zero)
    if base == ZZ:
        with pytest.raises(ExactDivisionError):
            (u + 1).exact_div(ring.element(2))
    else:
        assert (u + 1).exact_div(ring.element(2)) * 2 == u + 1


def division_outcome(divide, divisor):
    try:
        return divide(divisor)
    except ExactDivisionError:
        return "inexact"


@pytest.mark.parametrize("ring", POLY_RINGS + (PolynomialRing(GF(7), ("a", "b", "c")),), ids=str)
def test_exponent_range_test_agrees_with_the_packed_path(ring):
    """exact_div refuses by exponent ranges only divisions the kernel refuses."""
    rng = random.Random(7005)
    refused = 0
    for _ in range(60):
        b = rand_nonzero(rng, ring).value
        a = rand_element(rng, ring, terms=4, max_exp=rng.choice((1, 3, 6))).value
        for num in (a, a._mul(b)):
            got = division_outcome(num.exact_div, b)
            assert got == division_outcome(num._exact_div_packed, b), (num, b)
            refused += bool(num.terms) and not _exponent_range_within(b.terms, num.terms)
    assert refused > 10


@pytest.mark.parametrize("base", BASES, ids=str)
def test_exponent_range_refusals_pack_nothing(base, monkeypatch):
    ring = PolynomialRing(base, ("u", "v"))
    u, v = ring.variables()

    def no_packing(*args):
        raise AssertionError("the packed kernel ran")

    monkeypatch.setattr(rings, "_Packed", no_packing)
    monkeypatch.setattr(rings, "to_integral", no_packing)
    # highest exponents: v, u^4 and u^2 exceed; lowest: u*v and u exceed
    for num, den in ((u, v), (u**3 * v, u**4), (u * v + 1, u**2), (u + v, u * v), (v + 1, u + v)):
        with pytest.raises(ExactDivisionError, match="exponent range"):
            num.exact_div(den)


def test_exact_div_with_remainder_terms_that_cancel_only_mod_p():
    """The kernel keeps Fp remainder terms unreduced until they leave the heap.

    Dividing (4x + 5y)(x + 3y) by x + 3y over GF(7) leaves -14 at y^2
    after the second quotient term: 0 mod 7 but not 0 as an integer.
    Read as a nonzero term it would fail the monomial test (x does not
    divide y^2) and the exact division would raise.
    """
    ring = PolynomialRing(GF(7), ("x", "y"))
    x, y = ring.variables()
    divisor, quotient = x + 3 * y, 4 * x + 5 * y
    assert (quotient * divisor).exact_div(divisor) == quotient


def test_rational_exact_div_by_gauss_lemma():
    """Divisors with integer content or rational coefficients over QQ[vars].

    Both operands are scaled to ZZ[vars] and the divisor is made
    primitive; the quotient must still be the rational one, and a
    division that is inexact over QQ must still raise.
    """
    ring = PolynomialRing(QQ, ("x", "y"))
    x, y = ring.variables()

    def q(n, d):
        return ring.element(Fraction(n, d))

    exact = (
        (6 * x + 4 * y, q(1, 3) * x + q(1, 2)),
        (q(1, 2) * x + q(3, 5) * y, q(7, 4) * x - y),
        (4 * x + 6, q(1, 2)),
        (q(1, 3) * y**2 - 10, 15 * x**3 * y + q(1, 3)),
    )
    for divisor, quotient in exact:
        assert (quotient * divisor).exact_div(divisor) == quotient
    inexact = (
        (2 * x + 4, 4 * x + 6),
        (x + 1, 2 * x + 4 * y),
        (x**2 + q(1, 3) * y, q(6, 5) * x + 2),
        (q(1, 2) * x * y, q(1, 3) * x**2),
    )
    for num, den in inexact:
        with pytest.raises(ExactDivisionError):
            num.exact_div(den)


def test_packed_kernel_refuses_rational_coefficients():
    with pytest.raises(UnsupportedRingError):
        _Packed(PolynomialRing(QQ, ("x", "y")), 4)


def test_resultants_over_three_variables():
    ring = PolynomialRing(GF(7), ("a", "b", "c"))
    rng = random.Random(7004)
    for _ in range(5):
        F = rand_unipoly(rng, ring, 3, nonzero=True)
        G = rand_unipoly(rng, ring, 3, nonzero=True)
        matrix = sylvester_matrix(F, G)
        assert resultant(F, G) == _det_fraction_free_reference(matrix, ring)
    t = UniPoly.monomial(ring, "t", 1)
    assert resultant(t**2, t**2).is_zero()
