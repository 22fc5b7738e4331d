"""Resultants and discriminants against SymPy, when SymPy is installed.

SymPy is not a dependency: the module is skipped without it.  With the
declared degrees equal to the actual ones, the raw Sylvester determinant
is SymPy's resultant, and the raw discriminant Res(P, P') is
(-1)^(d(d-1)/2) * lc(P) times SymPy's discriminant.  Degrees reach 9 and
9, a Sylvester matrix of size 18.
"""

import random
from fractions import Fraction

import pytest

from disckit import GF, QQ, ZZ, discriminant, homogeneous_classical_discriminant, resultant
from conftest import rand_unipoly

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


def to_sympy(P):
    return sum(sympy.Rational(Fraction(c.value)) * T**k for k, c in enumerate(P.coeffs))


def sympy_resultant(F, G, **options):
    """sympy.resultant, called with the higher degree first.

    SymPy 1.14 returns Res(G, F) for deg F < deg G, which differs from
    Res(F, G) by (-1)^(deg F * deg G); Res(F, G) = (-1)^(mn) Res(G, F).
    """
    if F.degree >= G.degree:
        return sympy.resultant(to_sympy(F), to_sympy(G), T, **options)
    sign = (-1) ** (F.degree * G.degree)
    return sign * sympy.resultant(to_sympy(G), to_sympy(F), T, **options)


def from_sympy(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


@pytest.mark.parametrize("ring", (ZZ, QQ), ids=str)
def test_resultant_and_discriminant_match_sympy(ring):
    rng = random.Random(8001)
    checked = 0
    while checked < 25:
        F = rand_unipoly(rng, ring, 9, nonzero=True)
        G = rand_unipoly(rng, ring, 9, nonzero=True)
        if F.degree < 2 or G.degree < 1:
            continue
        checked += 1
        ours = Fraction(resultant(F, G).value)
        assert ours == from_sympy(sympy_resultant(F, G))
        d = F.degree
        expected = (-1) ** (d * (d - 1) // 2) * Fraction(F.leading_coeff().value)
        expected *= from_sympy(sympy.discriminant(to_sympy(F), T))
        assert Fraction(discriminant(F).value) == expected


@pytest.mark.parametrize("p", (7, 10007))
def test_resultant_over_a_prime_field_matches_sympy(p):
    ring = GF(p)
    rng = random.Random(8002)
    for _ in range(25):
        F = rand_unipoly(rng, ring, 9, nonzero=True)
        G = rand_unipoly(rng, ring, 9, nonzero=True)
        assert resultant(F, G).value == int(sympy_resultant(F, G, modulus=p)) % p


@pytest.mark.parametrize("d", range(2, 7))
def test_homogeneous_discriminant_matches_sympy_up_to_sign(d):
    ours = homogeneous_classical_discriminant(d)
    ys = sympy.symbols(f"y0:{d + 1}")
    generic = sum(ys[k] * T**k for k in range(d + 1))
    theirs = sympy.Poly(sympy.discriminant(generic, T), *ys).as_dict()
    theirs = {exps: int(c) for exps, c in theirs.items()}
    sign = (-1) ** (d * (d - 1) // 2)
    assert ours.terms == {exps: sign * c for exps, c in theirs.items()}
