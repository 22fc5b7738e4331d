"""Resultant and discriminant tests: layout, determinants, identities."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from disckit import (
    GF,
    QQ,
    ZZ,
    ParameterError,
    PolynomialRing,
    RingElement,
    RingHom,
    RingMismatchError,
    SylvesterSpec,
    UniPoly,
    bezout_certificate,
    classify_discriminant,
    coeffs_mod,
    det_cofactor,
    det_fraction_free,
    discriminant,
    etale_verdict,
    has_root_of_multiplicity,
    main1_strata,
    resultant,
    standard_etale_check,
    sylvester_matrix,
    unipoly_gcd,
)
from disckit import resultants
from disckit.parser import MAX_DEGREE
from disckit.resultants import _det_packed, declared_degree
from disckit.rings import from_integral, to_integral
from conftest import rand_element, rand_scalar, rand_unipoly


def sylvester_det(F, G, spec=None):  # the reference resultant is held to
    return det_fraction_free(sylvester_matrix(F, G, spec), F.coeff_ring)


def T(ring=ZZ, var="t"):
    return UniPoly.monomial(ring, var, 1)


# ----- matrix layout ---------------------------------------------------------

def test_sylvester_layout_two_linears():
    ring = PolynomialRing(ZZ, ("a", "b", "c", "d"))
    a, b, c, d = ring.variables()
    t = T(ring)
    F = UniPoly.constant(ring, "t", a) * t + UniPoly.constant(ring, "t", b)
    G = UniPoly.constant(ring, "t", c) * t + UniPoly.constant(ring, "t", d)
    M = sylvester_matrix(F, G)
    assert [[str(x) for x in row] for row in M] == [["a", "b"], ["c", "d"]]
    assert resultant(F, G) == a * d - b * c


def test_sylvester_layout_quadratic_linear():
    t = T()
    F = t**2 - 1
    G = 2 * t
    M = sylvester_matrix(F, G, SylvesterSpec(2, 1))
    values = [[int(x.value) for x in row] for row in M]
    assert values == [
        [1, 0, -1],
        [2, 0, 0],
        [0, 2, 0],
    ]
    assert resultant(F, G, SylvesterSpec(2, 1)) == ZZ.element(-4)


def test_two_monic_linears():
    t = T()
    assert resultant(t - 2, t - 5) == ZZ.element(-3)


@pytest.mark.parametrize("ring", (ZZ, GF(7), QQ, PolynomialRing(ZZ, ("a",))), ids=str)
def test_declared_degree_padding_laws(ring):
    # Res_{m+k,n} = (-1)^(n*k) * lc(G)^k * Res_{m,n}
    # Res_{m,n+k} = lc(F)^k * Res_{m,n}
    rng = random.Random(4014)
    for _ in range(30):
        F = rand_unipoly(rng, ring, 3, nonzero=True)
        G = rand_unipoly(rng, ring, 3, nonzero=True)
        m, n = F.degree, G.degree
        if m + n == 0:
            continue
        k = rng.randint(1, 2)
        base = resultant(F, G)
        first = resultant(F, G, SylvesterSpec(m + k, n))
        assert first == base * G.leading_coeff() ** k * (-1) ** (n * k)
        assert first == sylvester_det(F, G, SylvesterSpec(m + k, n))
        second = resultant(F, G, SylvesterSpec(m, n + k))
        assert second == base * F.leading_coeff() ** k
        assert second == sylvester_det(F, G, SylvesterSpec(m, n + k))


def test_padding_comes_off_before_the_sylvester_matrix_over_a_polynomial_ring(monkeypatch):
    ring = PolynomialRing(ZZ, ("a",))
    a = ring.variable("a")
    F = T(ring) + UniPoly.constant(ring, "t", a)  # t + a
    G = 2 * T(ring) - 1
    base = -1 - 2 * a
    assert resultant(F, G) == base
    assert resultant(F, G, SylvesterSpec(3, 1)) == sylvester_det(F, G, SylvesterSpec(3, 1))
    assert resultant(G, F, SylvesterSpec(1, 3)) == sylvester_det(G, F, SylvesterSpec(1, 3))
    sizes = []
    real = resultants._sylvester_rows

    def recording(F, G, m, n):
        rows = real(F, G, m, n)
        sizes.append(len(rows))
        return rows

    monkeypatch.setattr(resultants, "_sylvester_rows", recording)
    # Res_{400,1}(F, G) = (-1)^(1*399) * 2^399 * Res_{1,1}(F, G)
    assert resultant(F, G, SylvesterSpec(400, 1)) == -(2**399) * base
    # Res_{1,400}(G, F) = lc(G)^399 * Res_{1,1}(G, F), and Res_{1,1}(G, F) = -Res_{1,1}(F, G)
    assert resultant(G, F, SylvesterSpec(1, 400)) == -(2**399) * base
    assert sizes == [2, 2]


def test_declared_degree_below_actual_rejected():
    t = T()
    with pytest.raises(ParameterError):
        sylvester_matrix(t**3, t, SylvesterSpec(2, 1))
    with pytest.raises(ParameterError):
        resultant(t, t**2, SylvesterSpec(1, 1))


def test_declared_degree_is_bounded():
    t = T()
    assert declared_degree(t, MAX_DEGREE, "f") == MAX_DEGREE
    with pytest.raises(ParameterError, match="exceeds the limit"):
        declared_degree(t, MAX_DEGREE + 1, "f")
    with pytest.raises(ParameterError, match="exceeds the limit"):
        sylvester_matrix(t, t, SylvesterSpec(1, MAX_DEGREE + 1))


def test_zero_polynomial_needs_declared_degree():
    t = T()
    z = UniPoly.zero(ZZ, "t")
    with pytest.raises(ParameterError):
        resultant(z, t)
    assert resultant(z, t, SylvesterSpec(1, 1)).is_zero()
    assert resultant(t + 1, z, SylvesterSpec(1, 2)).is_zero()


def test_mixed_rings_rejected():
    with pytest.raises(RingMismatchError):
        resultant(T(ZZ), T(QQ))
    with pytest.raises(RingMismatchError):
        resultant(T(ZZ, "t"), T(ZZ, "s"))


def test_degenerate_specs():
    t = T()
    # m = 0, n = 1: one row of constants
    c = UniPoly.constant(ZZ, "t", ZZ.element(5))
    assert resultant(c, t - 2, SylvesterSpec(0, 1)) == ZZ.element(5)
    assert resultant(t - 2, c, SylvesterSpec(1, 0)) == ZZ.element(5)
    with pytest.raises(ParameterError):
        SylvesterSpec(-1, 2)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"], ids=repr)
def test_a_declared_degree_must_be_an_int(bad):
    t = T()
    P = t + 1
    spec = SimpleNamespace(m=bad, n=1)  # a stand-in that reaches declared_degree itself
    calls = [
        lambda: SylvesterSpec(bad, 1),
        lambda: SylvesterSpec(1, bad),
        lambda: declared_degree(P, bad, "f"),
        lambda: sylvester_matrix(P, t, spec),
        lambda: resultant(P, t, spec),
        lambda: bezout_certificate(P, t, spec),
        lambda: discriminant(P, bad),
        lambda: classify_discriminant(P, bad),
        lambda: etale_verdict(P, bad),
        lambda: main1_strata(P, bad),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="must be (an integer|integers)") as caught:
            call()
        assert caught.value.exit_code == 3


# ----- determinant engines ---------------------------------------------------

def test_det_known_values():
    m = [[ZZ.element(v) for v in row] for row in [[2, 0, 1], [1, 3, 2], [1, 1, 0]]]
    assert det_fraction_free(m, ZZ) == ZZ.element(-6)
    assert det_cofactor(m, ZZ) == ZZ.element(-6)
    ident = [[ZZ.one if i == j else ZZ.zero for j in range(4)] for i in range(4)]
    assert det_fraction_free(ident, ZZ) == ZZ.one
    swapped = [ident[1], ident[0], ident[2], ident[3]]
    assert det_fraction_free(swapped, ZZ) == -ZZ.one


def test_det_singular_and_zero_column():
    rows = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    m = [[ZZ.element(v) for v in row] for row in rows]
    assert det_fraction_free(m, ZZ).is_zero()
    zc = [[ZZ.zero, ZZ.one], [ZZ.zero, ZZ.element(3)]]
    assert det_fraction_free(zc, ZZ).is_zero()


@pytest.mark.parametrize("ring", (ZZ, GF(7), QQ), ids=str)
def test_det_engines_agree_random(ring):
    rng = random.Random(4001)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[rand_scalar(rng, ring) for _ in range(n)] for _ in range(n)]
        assert det_fraction_free(m, ring) == det_cofactor(m, ring)


def test_det_engines_agree_symbolic():
    ring = PolynomialRing(ZZ, ("u", "v"))
    rng = random.Random(4002)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = [[rand_element(rng, ring, terms=2, max_exp=1) for _ in range(n)] for _ in range(n)]
        assert det_fraction_free(m, ring) == det_cofactor(m, ring)


def test_det_multilinear_in_rows():
    rng = random.Random(4003)
    for _ in range(20):
        rows = [[rand_scalar(rng, ZZ) for _ in range(3)] for _ in range(3)]
        c = rng.randint(-4, 4)
        scaled = [list(rows[0]), [x * c for x in rows[1]], list(rows[2])]
        assert det_fraction_free(scaled, ZZ) == det_fraction_free(rows, ZZ) * c


def test_empty_matrix_determinant_is_one():
    assert det_fraction_free([], ZZ) == ZZ.one
    assert det_cofactor([], ZZ) == ZZ.one


def test_cofactor_expansion_is_capped():
    def identity(n):
        return [[ZZ.one if i == j else ZZ.zero for j in range(n)] for i in range(n)]

    size = resultants.MAX_COFACTOR_SIZE
    assert size == 8
    assert det_cofactor(identity(size), ZZ) == ZZ.one
    with pytest.raises(ParameterError, match="exceeds the limit 8") as info:
        det_cofactor(identity(size + 1), ZZ)
    assert info.value.exit_code == 3


SQUARE_RINGS = (ZZ, GF(7), PolynomialRing(ZZ, ("a",)))
NOT_SQUARE = {
    "2x3": [[1, 2, 3], [4, 5, 6]],
    "3x2": [[1, 2], [3, 4], [5, 6]],
    "ragged": [[1, 2], [3]],
}


@pytest.mark.parametrize("det", (det_fraction_free, det_cofactor), ids=lambda f: f.__name__)
@pytest.mark.parametrize("ring", SQUARE_RINGS, ids=str)
@pytest.mark.parametrize("rows", NOT_SQUARE.values(), ids=NOT_SQUARE.keys())
def test_a_matrix_that_is_not_square_is_refused_before_an_entry_is_read(rows, ring, det,
                                                                       monkeypatch):
    matrix = [[ring.element(v) for v in row] for row in rows]

    def fail(value):
        raise AssertionError("an entry was read")

    monkeypatch.setattr(ring, "coerce", fail)
    with pytest.raises(ParameterError, match="needs a square matrix") as caught:
        det(matrix, ring)
    assert caught.value.exit_code == 3


@pytest.mark.parametrize("det", (det_fraction_free, det_cofactor), ids=lambda f: f.__name__)
@pytest.mark.parametrize("ring", SQUARE_RINGS, ids=str)
def test_the_empty_matrix_is_square_over_every_ring(ring, det):
    assert det([], ring) == ring.one


@pytest.mark.parametrize("ring", (ZZ, QQ, GF(7), PolynomialRing(ZZ, ("a",))), ids=str)
def test_det_cofactor_reads_its_entries_as_det_fraction_free_does(ring):
    """Ints are coerced into ring, and the determinant is always a RingElement of ring."""
    for rows in ([[5]], [[1, 2], [3, 4]], [[0, 2, 1], [1, 0, 3], [4, 1, 0]]):
        for matrix in (rows, [[ring.element(v) for v in row] for row in rows]):
            value = det_cofactor(matrix, ring)
            assert type(value) is RingElement and value.ring == ring
            assert value == det_fraction_free(matrix, ring)
    for det in (det_fraction_free, det_cofactor):
        with pytest.raises(RingMismatchError):
            det([[GF(3).element(1)]], ring)
        if ring == QQ:
            with pytest.raises(RingMismatchError):
                det([[ZZ.element(5)]], ring)


# ----- matrices of constants over polynomial rings -----------------------------

CONSTANT_RINGS = (
    PolynomialRing(ZZ, ("x",)),
    PolynomialRing(QQ, ("u", "v")),
    PolynomialRing(GF(7), ("x",)),
)


def _det_packed_reference(rows, ring):
    """_det_packed on the raw rows, over QQ[vars] on rows scaled to ZZ[vars]."""
    if ring.base != QQ:
        return _det_packed(rows)
    cleared = [to_integral(row, ring) for row in rows]
    det = _det_packed([row for _, row, _ in cleared])
    return from_integral([det], math.prod(s for _, _, s in cleared), ring)[0]


@pytest.mark.parametrize("ring", CONSTANT_RINGS, ids=str)
def test_constant_matrices_take_the_scalar_path(ring, monkeypatch):
    rng = random.Random(4004)
    cases = []
    for n in range(1, 7):
        for _ in range(6):
            cases.append([[ring.element(rand_scalar(rng, ring.base).value) for _ in range(n)]
                          for _ in range(n)])
    singular = [[ring.element(v) for v in row] for row in ([1, 2, 3], [2, 4, 6], [0, 1, 5])]
    cases.append(singular)
    P = UniPoly(ring, "t", [2, 6, 6])  # 6*t^2 + 6*t + 2
    cases.append(sylvester_matrix(P, P.derivative(), SylvesterSpec(2, 1)))
    want = [_det_packed_reference([[x.value for x in row] for row in m], ring) for m in cases]
    assert want[-2].is_zero()

    def no_packed(rows):
        raise AssertionError("a constant matrix took the packed path")

    monkeypatch.setattr(resultants, "_det_packed", no_packed)
    got = [det_fraction_free(m, ring) for m in cases]
    assert [g.value for g in got] == want
    assert all(g.ring == ring for g in got)
    assert str(got[-1]) == str(discriminant(UniPoly(ring.base, "t", [2, 6, 6])))
    assert discriminant(P) == got[-1]


def test_a_matrix_with_one_variable_entry_takes_the_packed_path(monkeypatch):
    ring = PolynomialRing(ZZ, ("x",))
    x = ring.variable("x")
    m = [[ring.element(2), ring.element(1)], [ring.element(3), x]]
    calls = []
    real = resultants._det_packed
    monkeypatch.setattr(resultants, "_det_packed", lambda rows: calls.append(1) or real(rows))
    assert det_fraction_free(m, ring) == 2 * x - 3
    assert calls == [1]


# ----- remainder sequences against the Sylvester reference ----------------------

SCALAR_RESULTANT_RINGS = (ZZ, QQ, GF(2), GF(7), GF(2**31 - 1)) + CONSTANT_RINGS


def _no_matrix(*args):
    raise AssertionError("a scalar resultant built a matrix")


def _scalar_poly(rng, ring, terms):
    """A polynomial with `terms` random scalar (or constant) coefficients; 0 for none."""
    base = getattr(ring, "base", ring)
    return UniPoly(ring, "t", [rand_scalar(rng, base) for _ in range(terms)])


@pytest.mark.parametrize("ring", SCALAR_RESULTANT_RINGS, ids=str)
def test_remainder_sequences_equal_the_sylvester_reference(ring, monkeypatch):
    # every padding from 0 to 2 on each side, on zero, constant and dense operands
    rng = random.Random(4015)
    cases = []
    for _ in range(30):
        F = _scalar_poly(rng, ring, rng.randint(0, 6))
        G = _scalar_poly(rng, ring, rng.randint(0, 6))
        for k in range(3):
            for l in range(3):
                cases.append((F, G, SylvesterSpec((F.degree if F else 0) + k,
                                                  (G.degree if G else 0) + l)))
    zero, three = UniPoly.zero(ring, "t"), UniPoly.constant(ring, "t", 3)
    edges = [
        (zero, three, SylvesterSpec(2, 0)),
        (three, zero, SylvesterSpec(0, 2)),
        (zero, zero, SylvesterSpec(0, 0)),
        (zero, zero, SylvesterSpec(1, 0)),
        (three, three, SylvesterSpec(0, 0)),
    ]
    cases += edges
    want = [sylvester_det(F, G, spec) for F, G, spec in cases]
    assert [str(w) for w in want[-5:]] == [str(ring.element(v)) for v in (9, 9, 1, 0, 1)]
    for name in ("_sylvester_rows", "_det_int", "_det_mod", "_det_packed"):
        monkeypatch.setattr(resultants, name, _no_matrix)
    got = [resultant(F, G, spec) for F, G, spec in cases]
    assert got == want
    assert [str(g) for g in got] == [str(w) for w in want]
    assert all(g.ring == ring for g in got)


def _dense_poly(rng, ring, degree):
    """Coefficients in [-9, 9] and a leading coefficient in [1, 9]."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
    return UniPoly(ring, "t", coeffs)


def test_degree_200_over_zz_reduces_to_the_value_over_gf_p(monkeypatch):
    rng = random.Random(4016)
    p = 2**31 - 1  # divides neither leading coefficient, both in [1, 9]
    F, G = _dense_poly(rng, ZZ, 200), _dense_poly(rng, ZZ, 200)
    to_p = RingHom(ZZ, GF(p))
    monkeypatch.setattr(resultants, "_sylvester_rows", _no_matrix)
    value = resultant(F, G).value
    assert value
    assert value % p == resultant(F.map_coefficients(to_p), G.map_coefficients(to_p)).value


def test_degree_200_root_product_formula_over_zz(monkeypatch):
    # Res(prod (t - r_i), G) = prod G(r_i) for the monic first operand
    rng = random.Random(4017)
    roots = [rng.randint(-1, 1) for _ in range(200)]  # F's coefficients reach 2^67
    F = UniPoly.constant(ZZ, "t", 1)
    for r in roots:
        F = F * (T() - r)
    G = _dense_poly(rng, ZZ, 200)
    monkeypatch.setattr(resultants, "_sylvester_rows", _no_matrix)
    assert resultant(F, G).value == math.prod(G.evaluate(r).value for r in roots)


@pytest.mark.slow
@pytest.mark.parametrize("ring", (ZZ, GF(2**31 - 1)), ids=str)
def test_degree_60_remainder_sequences_equal_bareiss(ring):
    rng = random.Random(4018)
    F, G = _dense_poly(rng, ring, 60), _dense_poly(rng, ring, 60)
    assert resultant(F, G) == sylvester_det(F, G)
    assert discriminant(F) == sylvester_det(F, F.derivative())


# ----- resultant identities --------------------------------------------------

@pytest.mark.parametrize("ring", (ZZ, QQ, GF(7), GF(31)), ids=str)
def test_sign_symmetry(ring):
    rng = random.Random(4004)
    for _ in range(30):
        F = rand_unipoly(rng, ring, 4, nonzero=True)
        G = rand_unipoly(rng, ring, 4, nonzero=True)
        m, n = F.degree, G.degree
        lhs = resultant(F, G)
        rhs = resultant(G, F)
        assert lhs == rhs if (m * n) % 2 == 0 else lhs == -rhs


@pytest.mark.parametrize("ring", (ZZ, GF(31)), ids=str)
def test_multiplicativity_in_first_argument(ring):
    rng = random.Random(4005)
    for _ in range(25):
        F1 = rand_unipoly(rng, ring, 3, nonzero=True)
        F2 = rand_unipoly(rng, ring, 3, nonzero=True)
        G = rand_unipoly(rng, ring, 3, nonzero=True)
        whole = resultant(F1 * F2, G)
        parts = resultant(F1, G) * resultant(F2, G)
        assert whole == parts


@pytest.mark.parametrize("ring", (QQ, GF(31)), ids=str)
def test_resultant_zero_iff_common_root(ring):
    rng = random.Random(4006)
    for _ in range(40):
        F = rand_unipoly(rng, ring, 4, nonzero=True)
        G = rand_unipoly(rng, ring, 4, nonzero=True)
        if F.degree + G.degree == 0:
            continue
        gcd = unipoly_gcd(F, G)
        assert resultant(F, G).is_zero() == (gcd.degree >= 1)


def test_resultant_zero_on_planted_common_factor():
    rng = random.Random(4007)
    t = T(QQ)
    for _ in range(20):
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        F = (t - alpha) * rand_unipoly(rng, QQ, 3, nonzero=True)
        G = (t - alpha) * rand_unipoly(rng, QQ, 3, nonzero=True)
        assert resultant(F, G).is_zero()


def test_root_product_formula():
    rng = random.Random(4008)
    t = T(QQ)
    for _ in range(15):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        alphas = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        betas = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        a = Fraction(rng.choice([1, 2, 3, -2]))
        b = Fraction(rng.choice([1, 2, -3]))
        F = UniPoly.constant(QQ, "t", QQ.element(a))
        for al in alphas:
            F = F * (t - al)
        G = UniPoly.constant(QQ, "t", QQ.element(b))
        for be in betas:
            G = G * (t - be)
        expected = a**n * b**m
        for al in alphas:
            for be in betas:
                expected *= al - be
        assert resultant(F, G) == QQ.element(expected)


def test_evaluation_form_against_roots_of_g():
    # Res(F, G) = lc(G)^deg F * prod F(beta_j) up to the sign swap
    rng = random.Random(4009)
    t = T(QQ)
    for _ in range(15):
        F = rand_unipoly(rng, QQ, 3, nonzero=True)
        betas = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        G = UniPoly.constant(QQ, "t", QQ.element(2))
        for be in betas:
            G = G * (t - be)
        m, n = F.degree, G.degree
        if m == 0:
            continue
        prod = Fraction(2) ** m
        for be in betas:
            prod *= F.evaluate(be).value
        assert resultant(G, F) == QQ.element(prod)
        lhs = resultant(F, G)
        assert lhs == QQ.element(prod * (-1) ** (m * n))


def test_specialization_commutes_with_resultant():
    base = PolynomialRing(ZZ, ("u",))
    rng = random.Random(4010)
    for _ in range(20):
        F = rand_unipoly(rng, base, 3, monic=True)
        G = rand_unipoly(rng, base, 3, monic=True)
        k = rng.randint(-5, 5)
        psi = RingHom(base, ZZ, {"u": ZZ.element(k)})
        spec_res = psi(resultant(F, G))
        res_spec = resultant(F.map_coefficients(psi), G.map_coefficients(psi))
        assert spec_res == res_spec


def test_specialization_needs_declared_degrees_when_lc_dies():
    base = PolynomialRing(ZZ, ("u",))
    u = base.variable("u")
    t = T(base)
    F = UniPoly.constant(base, "t", u) * t**2 + t  # u*t^2 + t
    G = t - 1
    kill = RingHom(base, ZZ, {"u": ZZ.zero})
    symbolic = resultant(F, G, SylvesterSpec(2, 1))
    # the formal 2x1 spec keeps the matrix shape, so the identity holds
    assert kill(symbolic) == resultant(
        F.map_coefficients(kill), G.map_coefficients(kill), SylvesterSpec(2, 1)
    )


# ----- bezout certificate ----------------------------------------------------

@pytest.mark.parametrize("ring", (ZZ, QQ, GF(7), GF(2147483647)), ids=str)
def test_bezout_identity_random(ring):
    rng = random.Random(4011)
    for _ in range(25):
        F = rand_unipoly(rng, ring, 4, nonzero=True)
        G = rand_unipoly(rng, ring, 4, nonzero=True)
        if F.degree + G.degree == 0:
            continue
        U, V, r = bezout_certificate(F, G)
        assert U * F + V * G == UniPoly.constant(ring, "t", r)
        assert r == resultant(F, G)
        assert U.degree < max(G.degree, 1) or U.is_zero()
        assert V.degree < max(F.degree, 1) or V.is_zero()


def test_bezout_identity_symbolic():
    base = PolynomialRing(ZZ, ("b", "c"))
    b, c = base.variables()
    t = T(base)
    P = t**2 + UniPoly.constant(base, "t", b) * t + UniPoly.constant(base, "t", c)
    U, V, r = bezout_certificate(P, P.derivative(), SylvesterSpec(2, 1))
    assert U * P + V * P.derivative() == UniPoly.constant(base, "t", r)
    assert r == 4 * c - b**2


BEZOUT_RINGS = (ZZ, QQ, GF(7), PolynomialRing(ZZ, ("a",)), PolynomialRing(QQ, ("u", "v")))


@pytest.mark.parametrize("ring", BEZOUT_RINGS, ids=str)
def test_bezout_certificate_at_every_padding(ring):
    rng = random.Random(4012)
    t = T(ring)
    zero = UniPoly.zero(ring, "t")
    three = UniPoly.constant(ring, "t", 3)
    operands = [zero, three, t - 1] + [rand_unipoly(rng, ring, 3, nonzero=True) for _ in range(4)]
    for F in operands:
        for G in operands:
            for k in range(3):
                for l in range(3):
                    m, n = max(F.degree, 0) + k, max(G.degree, 0) + l
                    if m + n == 0:
                        continue
                    spec = SylvesterSpec(m, n)
                    U, V, r = bezout_certificate(F, G, spec)
                    assert r == sylvester_det(F, G, spec)
                    assert U * F + V * G == UniPoly.constant(ring, "t", r)
                    assert U.degree < max(n, 1) and V.degree < m


def test_bezout_certificate_takes_r_from_resultant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate built a RingElement matrix")

    monkeypatch.setattr(resultants, "sylvester_matrix", refuse)
    monkeypatch.setattr(resultants, "det_fraction_free", refuse)
    seen = []
    real = resultants.resultant
    monkeypatch.setattr(resultants, "resultant", lambda *args: seen.append(args) or real(*args))
    t = T()
    spec = SylvesterSpec(3, 1)
    U, V, r = bezout_certificate(t**2 + 1, t - 2, spec)
    assert seen == [(t**2 + 1, t - 2, spec)]
    assert r == real(t**2 + 1, t - 2, spec) == -5
    assert U * (t**2 + 1) + V * (t - 2) == UniPoly.constant(ZZ, "t", -5)


def test_bezout_empty_matrix_rejected():
    c = UniPoly.constant(ZZ, "t", ZZ.element(3))
    with pytest.raises(ParameterError):
        bezout_certificate(c, c, SylvesterSpec(0, 0))


# ----- discriminants ---------------------------------------------------------

def test_quadratic_discriminant_convention():
    base = PolynomialRing(ZZ, ("b", "c"))
    b, c = base.variables()
    t = T(base)
    P = t**2 + UniPoly.constant(base, "t", b) * t + UniPoly.constant(base, "t", c)
    assert discriminant(P) == 4 * c - b**2


def test_depressed_cubic_discriminant():
    base = PolynomialRing(ZZ, ("p", "q"))
    p, q = base.variables()
    t = T(base)
    P = t**3 + UniPoly.constant(base, "t", p) * t + UniPoly.constant(base, "t", q)
    assert discriminant(P) == 4 * p**3 + 27 * q**2


def test_discriminant_small_cases():
    t = T()
    assert discriminant(t - 9) == ZZ.one
    assert discriminant(t**2 + t + 1) == ZZ.element(3)
    assert discriminant((t - 1) * (t - 1)).is_zero()
    assert discriminant(t**2 - 1) == ZZ.element(-4)
    with pytest.raises(ParameterError):
        discriminant(UniPoly.constant(ZZ, "t", ZZ.element(2)))


def test_discriminant_with_declared_degree():
    base = PolynomialRing(ZZ, ("u",))
    u = base.variable("u")
    t = T(base)
    P = UniPoly.constant(base, "t", u) * t**2 + t
    assert discriminant(P, 2) == -u
    # at the actual degree the same polynomial is separable linear-like
    killed = P.map_coefficients(RingHom(base, ZZ, {"u": ZZ.zero}))
    assert discriminant(killed, 2).is_zero()
    assert discriminant(killed, 1) == ZZ.one


def test_discriminant_detects_multiple_roots_over_qq():
    rng = random.Random(4012)
    t = T(QQ)
    for _ in range(25):
        f = rand_unipoly(rng, QQ, 4, monic=True)
        if f.degree < 1:
            continue
        disc = discriminant(f)
        has_sq = unipoly_gcd(f, f.derivative()).degree >= 1
        assert disc.is_zero() == has_sq
    doubled = (t - 3) ** 2 * (t + 1)
    assert discriminant(doubled).is_zero()


def test_classify_discriminant_verdicts():
    t = T(QQ)
    verdict, value = classify_discriminant(t**2 + t + 1)
    assert verdict == "separable" and value == QQ.element(3)
    tz = T()
    verdict, value = classify_discriminant(tz**2 + tz + 1)
    assert verdict == "neither" and value == ZZ.element(3)
    verdict, value = classify_discriminant((tz - 1) * (tz - 1))
    assert verdict == "inseparable" and value.is_zero()
    verdict, value = classify_discriminant(tz - 5)
    assert verdict == "separable" and value == ZZ.one


def test_discriminant_specialization_consistency():
    base = PolynomialRing(ZZ, ("a", "b"))
    rng = random.Random(4013)
    for _ in range(20):
        P = rand_unipoly(rng, base, 3, monic=True)
        if P.degree < 1:
            continue
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        psi = RingHom(base, ZZ, {"a": ZZ.element(x), "b": ZZ.element(y)})
        assert psi(discriminant(P)) == discriminant(P.map_coefficients(psi), P.degree)



# ----- discriminants by the generic map, and the routes around it ----------------

GENERIC_MAP_RINGS = (
    PolynomialRing(ZZ, ("a", "b")),
    PolynomialRing(QQ, ("u", "v")),
    PolynomialRing(GF(7), ("a", "b")),
    PolynomialRing(GF(3), ("a", "b")),
)


def _refuse(*args):
    raise AssertionError("the discriminant took the wrong route")


def _symbolic_poly(rng, ring, d):
    """Actual degree d, one-term coefficients but one, which gains a term in the first variable."""
    x = ring.variables()[0]
    coeffs = [rand_element(rng, ring, terms=1, max_exp=2) for _ in range(d + 1)]
    coeffs[rng.randrange(d)] += x
    if coeffs[-1].is_zero():
        coeffs[-1] = ring.one
    return UniPoly(ring, "t", coeffs)


def _dense_coefficients(ring, d, shift):
    """t^d plus coefficients (a + b + k)^2 + shift*a, of four to six terms: the map would expand too far."""
    a, b = ring.variables()
    lower = [(a + b + k) ** 2 + shift * a for k in range(1, d + 1)]
    return UniPoly(ring, "t", lower + [ring.one])


def _depressed_cubic(ring):
    """t^3 + a*t + b: over Fp(3) its derivative is the constant a."""
    a, b = ring.variables()
    t = T(ring)
    return t**3 + UniPoly.constant(ring, "t", a) * t + UniPoly.constant(ring, "t", b)


def _reference(P, d):
    return sylvester_det(P, P.derivative(), SylvesterSpec(d, d - 1))


def _assert_route(cases, monkeypatch, refused):
    """discriminant equals the reference, in value, ring and str, with the names in refused patched to raise."""
    want = [_reference(P, d) for P, d in cases]
    for name in refused:
        monkeypatch.setattr(resultants, name, _refuse)
    got = [discriminant(P, d) for P, d in cases]
    assert got == want
    assert [str(g) for g in got] == [str(w) for w in want]
    assert all(g.ring == P.coeff_ring for g, (P, _) in zip(got, cases))


@pytest.mark.parametrize("ring", GENERIC_MAP_RINGS, ids=str)
def test_discriminants_up_to_the_cutoff_map_the_generic_one(ring, monkeypatch):
    rng = random.Random(4021)
    degrees = range(1, resultants.MAPPED_DISCRIMINANT_CUTOFF + 1)
    cases = [(_symbolic_poly(rng, ring, d), d) for d in degrees for _ in range(4)]
    cases.append((_depressed_cubic(ring), 3))
    a, b = ring.variables()
    two_terms = [a + 1, a + 2, b - 1, b - 2, ring.one]
    cases.append((UniPoly(ring, "t", two_terms), 4))  # 36.5 term products per term of R_4
    assert all(resultants._map_pays(P._raw, d) for P, d in cases)
    _assert_route(cases, monkeypatch, ("_sylvester_rows", "_det_packed"))


@pytest.mark.parametrize("ring", GENERIC_MAP_RINGS, ids=str)
def test_coefficients_past_the_expansion_bound_keep_bareiss(ring, monkeypatch):
    cases = [(_dense_coefficients(ring, d, shift), d) for d in (3, 4) for shift in (1, 2)]
    assert not any(resultants._map_pays(P._raw, d) for P, d in cases)
    _assert_route(cases, monkeypatch, ("_generic_discriminant_image",))


@pytest.mark.parametrize("ring", GENERIC_MAP_RINGS, ids=str)
def test_padded_constant_and_larger_discriminants_keep_their_routes(ring, monkeypatch):
    rng = random.Random(4022)
    a, b = ring.variables()
    cases = []
    for d in range(1, resultants.MAPPED_DISCRIMINANT_CUTOFF + 1):
        P = _symbolic_poly(rng, ring, d)
        cases += [(P, d + 1), (P, d + 2)]
        constant = _scalar_poly(rng, ring, d + 1)
        if constant.degree >= 1:
            cases += [(constant, constant.degree + pad) for pad in range(3)]
    cases.append((UniPoly(ring, "t", [b, a, 0]), 2))  # a vanishing leading coefficient
    if ring.base == GF(7):
        cases.append((UniPoly(ring, "t", [b, a, 7 * a]), 2))  # 7*a vanishes too
    cases.append((_depressed_cubic(ring), 4))
    top = resultants.MAPPED_DISCRIMINANT_CUTOFF + 1
    t = T(ring)
    cases.append((t**top + UniPoly.constant(ring, "t", a) * t + UniPoly.constant(ring, "t", b), top))
    _assert_route(cases, monkeypatch, ("_generic_raw_discriminant",))


@pytest.mark.slow
@pytest.mark.parametrize("ring", GENERIC_MAP_RINGS, ids=str)
def test_the_generic_map_equals_bareiss_above_the_cutoff(ring):
    rng = random.Random(4023)
    for d in (7, 8):
        assert d > resultants.MAPPED_DISCRIMINANT_CUTOFF
        P = _symbolic_poly(rng, ring, d)
        assert resultants._generic_discriminant_image(P, d) == discriminant(P)


# ----- the trace form of the finite free algebra A[t]/P ----------------------------

def _trace_form_discriminant(Q):
    """det Tr(t^(i+j)) on A[t]/Q for monic Q, times (-1)^(d(d-1)/2).

    Tr(t^k) is the power sum p_k of the roots of Q, given by Newton's
    identities: with Q = t^d + c_(d-1) t^(d-1) + ... + c_0,
    p_k = -(c_(d-1) p_(k-1) + ... + c_(d-m) p_(k-m)) - [k <= d] k c_(d-k),
    m = min(k-1, d).  Nothing here is a Sylvester or Bezout matrix or a
    remainder sequence, and for monic Q this is Res_{d,d-1}(Q, Q').
    """
    ring, d, c = Q.coeff_ring, Q.degree, Q.coeffs
    assert c[-1] == ring.one
    p = [ring.element(d)]
    for k in range(1, 2 * d - 1):
        total = k * c[d - k] if k <= d else ring.zero
        for i in range(1, min(k - 1, d) + 1):
            total = total + c[d - i] * p[k - i]
        p.append(-total)
    det = det_cofactor([[p[i + j] for j in range(d)] for i in range(d)], ring)
    return -det if d * (d - 1) // 2 % 2 else det


TRACE_FORM_RINGS = (ZZ, QQ, GF(7), PolynomialRing(ZZ, ("a", "b")), PolynomialRing(QQ, ("u", "v")))


def _unit(rng, ring):
    base = getattr(ring, "base", ring)
    if base == ZZ:
        return ring.element(rng.choice([-1, 1]))
    while True:
        lc = ring.element(rand_scalar(rng, base).value)
        if not lc.is_zero():
            return lc


@pytest.mark.parametrize("ring", TRACE_FORM_RINGS, ids=str)
def test_discriminant_is_the_trace_form_of_the_free_algebra(ring):
    rng = random.Random(4024)
    for d in range(1, resultants.MAPPED_DISCRIMINANT_CUTOFF + 1):
        for _ in range(2):
            # coefficients of degree at most 1 in each variable keep the power sums small
            lower = [rand_element(rng, ring, terms=2, max_exp=1) for _ in range(d)]
            Q = UniPoly(ring, "t", lower + [ring.one])
            want = _trace_form_discriminant(Q)
            assert discriminant(Q) == want
            # P = lc * Q with lc a unit: Res_{d,d-1}(P, P') = lc^(2d-1) Res_{d,d-1}(Q, Q')
            lc = _unit(rng, ring)
            assert discriminant(Q * lc) == lc ** (2 * d - 1) * want


def test_mapped_discriminants_leave_the_memo_intact():
    from disckit import ChartId, discriminant_ideal
    from disckit.jets import _discriminant_ideal_sylvester

    rng = random.Random(4025)
    for ring in GENERIC_MAP_RINGS[:2]:
        for d in range(2, 7):
            P = _symbolic_poly(rng, ring, d)
            assert resultants._map_pays(P._raw, d)
            discriminant(P).value.terms.clear()
    for d in range(2, 7):
        assert resultants._generic_raw_discriminant(d) == resultants._generic_raw_discriminant_sylvester(d)
    for chart in (ChartId(4, 0), ChartId(1, 1)):
        assert discriminant_ideal(4, 2, chart) == _discriminant_ideal_sylvester(4, 2, chart)


class _NotAPolynomial:
    """A stand-in for a UniPoly: reading any attribute of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name} of an argument that is not a UniPoly")


_T = UniPoly.monomial(ZZ, "t", 1)
POLY_ENTRY_POINTS = {
    "resultant": lambda x: resultant(x, x),
    "resultant second": lambda x: resultant(_T, x),
    "sylvester_matrix": lambda x: sylvester_matrix(x, _T),
    "bezout_certificate": lambda x: bezout_certificate(_T, x),
    "has_root_of_multiplicity": lambda x: has_root_of_multiplicity(x, 2),
    "unipoly_gcd": lambda x: unipoly_gcd(x, x),
    "unipoly_gcd second": lambda x: unipoly_gcd(UniPoly.monomial(QQ, "t", 1), x),
    "discriminant": lambda x: discriminant(x),
    "classify_discriminant": lambda x: classify_discriminant(x),
    "etale_verdict": lambda x: etale_verdict(x),
    "main1_strata": lambda x: main1_strata(x),
    "declared_degree": lambda x: declared_degree(x, None, "f"),
    "standard_etale_check": lambda x: standard_etale_check(x),
    "coeffs_mod": lambda x: coeffs_mod(x, 7),
}


@pytest.mark.parametrize("name", POLY_ENTRY_POINTS)
@pytest.mark.parametrize("bad", ["t", 3, _NotAPolynomial()], ids=["str", "int", "probe"])
def test_a_polynomial_of_the_wrong_type_exits_3_before_it_is_read(name, bad):
    with pytest.raises(ParameterError, match="expected a univariate polynomial") as info:
        POLY_ENTRY_POINTS[name](bad)
    assert info.value.exit_code == 3
