"""End-to-end acceptance checks.

Each numbered test is one acceptance criterion with its own time
budget; the terminal summary prints one pass/fail line per criterion
(see conftest).  Criterion 7 carries a documented limitation: the
literal integer-factor claim is recorded as a strict expected failure,
and the true cross-patch relation table is golden-filed instead.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from disckit import (
    GF,
    QQ,
    ZZ,
    ChartId,
    PolynomialRing,
    RingHom,
    UniPoly,
    chart_consistency,
    complex_table,
    dimension_growth_check,
    discriminant,
    discriminant_ideal,
    h_ext_jet,
    h_ext_jet_dual,
    homogeneous_classical_discriminant,
    rank_jet,
    rank_table,
    resultant,
    unipoly_gcd,
    verify_discriminant_locus,
)
from disckit.cli import main

GOLDEN = Path(__file__).parent / "golden"
ARTIFACTS = Path(__file__).parent.parent / "artifacts"


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def rand_field_scalar(rng, ring):
    if ring is QQ:
        return Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
    return rng.randrange(ring.p)


def rand_field_unit(rng, ring):
    while True:
        c = rand_field_scalar(rng, ring)
        if c:
            return c


def rand_field_poly(rng, ring, lo=1, hi=6):
    deg = rng.randrange(lo, hi + 1)
    coeffs = [rand_field_scalar(rng, ring) for _ in range(deg)]
    coeffs.append(rand_field_unit(rng, ring))
    return UniPoly(ring, "t", coeffs)


def from_roots(ring, roots, lead):
    f = UniPoly(ring, "t", [lead])
    for r in roots:
        f = f * UniPoly(ring, "t", [-r, 1])
    return f


def test_criterion_01_resultant_property_battery():
    rng = random.Random(101)
    rings = [QQ, GF(5), GF(7), GF(31), GF(97)]
    with budget(30):
        # 500 random pairs: sign symmetry, vanishing iff common root,
        # and multiplicativity on every fifth pair
        for idx in range(500):
            ring = rings[idx % 5]
            f = rand_field_poly(rng, ring)
            g = rand_field_poly(rng, ring)
            if idx % 4 == 0:
                common = UniPoly(ring, "t", [rand_field_scalar(rng, ring), 1])
                f, g = f * common, g * common
            m, n = f.degree, g.degree
            r_fg = resultant(f, g)
            r_gf = resultant(g, f)
            sign = -1 if (m * n) % 2 else 1
            assert r_fg == r_gf * sign
            has_common = unipoly_gcd(f, g).degree >= 1
            assert r_fg.is_zero() == has_common
            if idx % 5 == 0:
                h = rand_field_poly(rng, ring, hi=3)
                assert resultant(f * h, g) == resultant(f, g) * resultant(h, g)
        # 200 split pairs: the root-product formula
        for idx in range(200):
            ring = rings[idx % 5]
            alphas = [rand_field_scalar(rng, ring) for _ in range(rng.randrange(1, 5))]
            betas = [rand_field_scalar(rng, ring) for _ in range(rng.randrange(1, 5))]
            a, b = rand_field_unit(rng, ring), rand_field_unit(rng, ring)
            f, g = from_roots(ring, alphas, a), from_roots(ring, betas, b)
            m, n = len(alphas), len(betas)
            expected = ring.element(a) ** n * ring.element(b) ** m
            for alpha in alphas:
                for beta in betas:
                    expected = expected * (ring.element(alpha) - ring.element(beta))
            assert resultant(f, g) == expected


def test_criterion_02_symbolic_discriminants():
    with budget(1):
        Rbc = PolynomialRing(ZZ, ("b", "c"))
        b, c = Rbc.variable("b"), Rbc.variable("c")
        quad = UniPoly(Rbc, "t", [c, b, 1])
        assert discriminant(quad) == c * 4 - b**2
        Rpq = PolynomialRing(ZZ, ("p", "q"))
        p, q = Rpq.variable("p"), Rpq.variable("q")
        cubic = UniPoly(Rpq, "t", [q, p, Rpq.zero, 1])
        assert discriminant(cubic) == p**3 * 4 + q**2 * 27


def test_criterion_03_specialization_equivariance():
    rng = random.Random(303)
    Ru = PolynomialRing(ZZ, ("u",))
    u = Ru.variable("u")
    with budget(10):
        for _ in range(300):
            deg = rng.randrange(2, 6)
            coeffs = [
                Ru.element(rng.randrange(-3, 4)) + u * rng.randrange(-3, 4)
                for _ in range(deg)
            ]
            coeffs.append(Ru.one)
            P = UniPoly(Ru, "t", coeffs)
            disc = discriminant(P)
            psi = RingHom(Ru, ZZ, {"u": rng.randrange(-9, 10)})
            specialized = P.map_coefficients(psi)
            assert specialized.degree == deg  # monic, so degree survives
            assert discriminant(specialized) == psi(disc)


PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_criterion_04_reduction_mod_p_detects_separability():
    rng = random.Random(404)
    with budget(20):
        for _ in range(100):
            deg = rng.randrange(2, 6)
            coeffs = [rng.randrange(-20, 21) for _ in range(deg)] + [1]
            P = UniPoly(ZZ, "t", coeffs)
            disc_value = discriminant(P).value
            for p in PRIMES_TO_97:
                if p <= deg:
                    continue
                reduction = RingHom(ZZ, GF(p))
                Pbar = P.map_coefficients(reduction)
                gcd = unipoly_gcd(Pbar, Pbar.derivative())
                assert (disc_value % p == 0) == (gcd.degree >= 1)


def test_criterion_05_strata_golden_bytes(capsys):
    with budget(1):
        code = main(["etale", "u*t^2 + t", "--ring", "QQ[u]", "--strata",
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / "etale_strata_json.golden").read_text()
        strata = json.loads(out)["payload"]["strata"]
        assert len(strata) == 2


def test_criterion_06_jet_ideal_generators():
    with budget(1):
        ideal = discriminant_ideal(2, 1, ChartId(2, 0))
        R = ideal.ring
        u0, u1 = R.variable("u0"), R.variable("u1")
        assert R.element(ideal.gens[0]) == u0 * 4 - u1**2
        ideal = discriminant_ideal(3, 2, ChartId(3, 0))
        R = ideal.ring
        u1, u2 = R.variable("u1"), R.variable("u2")
        assert R.element(ideal.gens[1]) == u1 * 36 - u2**2 * 12
        hom = homogeneous_classical_discriminant(2)
        H = hom.ring
        y0, y1, y2 = (H.variable(n) for n in ("y0", "y1", "y2"))
        assert H.element(hom) == y0 * y2 * 4 - y1**2


def test_criterion_07_cross_patch_relation_table():
    with budget(30):
        expected = json.loads((GOLDEN / "chart_relations.json").read_text())
        actual = []
        for d in range(2, 5):
            for l in range(1, d):
                for rel in chart_consistency(d, l, d):
                    actual.append({
                        "d": d, "l": l, "j": rel.j,
                        "category": rel.category,
                        "factor": rel.factor,
                        "direction": rel.direction,
                        "relabel_holds": rel.relabel_holds,
                    })
        assert actual == expected


@pytest.mark.xfail(
    reason="the two patches do not differ by an integer constant: the j = 0 "
    "generators differ by the cofactor u0 and the j >= 1 generators are "
    "exchanged only by the relabeling u_k -> u_{d-k}; the true relation "
    "table is golden-filed by the companion test",
    strict=True,
)
def test_criterion_07x_literal_integer_factor_claim():
    with budget(30):
        for d in range(2, 5):
            for l in range(1, d):
                for rel in chart_consistency(d, l, d):
                    assert rel.category == "integer"


def test_criterion_08_level_one_locus_equivalence():
    with budget(60):
        for (d, q) in [(2, 5), (2, 7), (3, 5), (3, 7), (4, 7), (4, 11)]:
            report = verify_discriminant_locus(d, 1, q)
            assert report.soundness_mismatches == (), (d, q)
            assert report.completeness_mismatches == (), (d, q)
            assert report.mismatches == ()
            assert report.ideal_zero_count == report.mult_root_count


def test_criterion_09_higher_level_soundness():
    configs = [(3, 2, 5), (3, 2, 7), (4, 2, 7), (4, 3, 7)]
    records = []
    with budget(120):
        for (d, l, q) in configs:
            report = verify_discriminant_locus(d, l, q)
            assert report.soundness_mismatches == (), (d, l, q)
            records.append({
                "d": d, "l": l, "q": q,
                "ideal_zero_count": report.ideal_zero_count,
                "mult_root_count": report.mult_root_count,
                "completeness_mismatches": [list(p) for p in
                                            report.completeness_mismatches],
            })
    ARTIFACTS.mkdir(exist_ok=True)
    out = ARTIFACTS / "completeness_mismatches.json"
    out.write_text(json.dumps(records, indent=2) + "\n")
    assert out.exists()


def test_criterion_10_dimension_growth():
    with budget(60):
        for (d, l) in [(2, 1), (3, 2), (3, 1)]:
            report = dimension_growth_check(d, l, 5, 11)
            assert report.within_tolerance, (d, l)
            assert report.tolerance == 3
        # top-level loci are the q binomial translates, on the nose
        for (d, l) in [(2, 1), (3, 2)]:
            report = dimension_growth_check(d, l, 5, 11)
            assert report.count_q1 == 5 and report.count_q2 == 11


def test_criterion_11_rank_identities():
    with budget(1):
        for l in range(0, 21):
            assert rank_jet(l, 1) == l + 1
        for d in range(1, 21):
            for k in range(0, d + 1):
                table = rank_table(d, k)
                assert table["rk_W"] == d + 1
                assert table["rk_jet"] == k + 1
                assert table["rk_jet"] + table["rk_Q"] == table["rk_W"]


def test_criterion_12_dimension_values_and_vanishing():
    with budget(5):
        assert h_ext_jet(1, 3, 1, 1, 0) == 6
        assert h_ext_jet(1, 3, 1, 2, 0) == 5
        assert h_ext_jet_dual(1, 3, 1, 2, 1) == 3
        for N in (1, 2, 3):
            for d in range(2, 7):
                for k in range(1, d):
                    for j in range(1, rank_jet(k, N) + 1):
                        for i in range(1, N + 1):
                            assert h_ext_jet(N, d, k, j, i) == 0
                        for i in range(0, N):
                            assert h_ext_jet_dual(N, d, k, j, i) == 0
        assert [t.module_dim for t in complex_table(1, 4, 1)] == [1, 4, 5]
