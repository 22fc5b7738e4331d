"""The packed-monomial kernel against the slow paths it replaced.

det_fraction_free runs Bareiss on raw values (packed-monomial dicts over
polynomial rings); it is compared with the RingElement Bareiss kept as
_det_fraction_free_reference and with the division-free cofactor
expansion.  MultiPoly.exact_div runs in the same kernel and is checked
against multiplication, which does not use it.
"""

import random

import pytest

from disckit import (
    GF,
    QQ,
    ZZ,
    ExactDivisionError,
    PolynomialRing,
    SylvesterSpec,
    UniPoly,
    det_cofactor,
    det_fraction_free,
    resultant,
    sylvester_matrix,
)
from disckit.resultants import _det_fraction_free_reference
from conftest import rand_element, rand_unipoly

SCALARS = (ZZ, QQ, GF(7))
RINGS = SCALARS + tuple(PolynomialRing(base, ("x", "y")) for base in SCALARS)


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
    for n in range(1, 7):
        for _ in range(10):
            m = rand_matrix(rng, ring, n)
            fast = det_fraction_free(m, ring)
            assert fast == _det_fraction_free_reference(m, ring) == det_cofactor(m, ring)


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


@pytest.mark.parametrize("ring", RINGS[3:], ids=str)
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


@pytest.mark.parametrize("base", SCALARS, ids=str)
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
