"""The single-term path of RingHom against the general loop.

When every variable image is zero or one term c_m * x^(a_m), RingHom
selects each term's output exponents, with a fix-up for each image
weight that selection cannot give (RingHom._map_single_terms); any other
map multiplies out powers of the images (RingHom._map_general), which
stays as the reference.  These tests compare the two paths on the jet
maps of every chart, on the chart relabelling, on zero, constant,
scaled, factorial, shared, product and higher-degree images, on
exponents past one byte, on a one-variable codomain and over ZZ, QQ and
Fp, and pin which callers take which path and that a coordinate map
(every image zero, a constant or c * x_k, no x_k hit twice) needs no
fix-up.
"""

import math
import random
from fractions import Fraction

import pytest

from disckit import (
    GF,
    QQ,
    ZZ,
    ChartId,
    ParameterError,
    PolynomialRing,
    RingHom,
    UniPoly,
    UnsupportedRingError,
    chart_consistency,
    discriminant_ideal,
    generic_section,
    incidence_ideal,
    main1_strata,
)
from disckit import strata
from disckit.resultants import _generic_raw_discriminant
from disckit.rings import _Packed

from conftest import rand_element, rand_scalar


def both_paths(hom, x):
    """(fast image, general image) of x for a map whose images are single terms or zero.

    The fast image is the one __call__ returns, from the single-term path.
    """
    assert hom._plan is not None
    raw = hom.domain.coerce(x)
    fast = hom._map_single_terms(raw)
    assert hom(x) == fast
    return fast, hom._map_general(raw)


def fixups(hom):
    """The fix-ups (m, k, w) of hom's single-term plan."""
    pick, scaled, added, zeros = hom._plan
    return added


def is_coordinate(hom):
    """Whether every image is zero, a constant or c * x_k, with no x_k hit twice.

    Read off the images, not the plan; a coordinate map must have no fix-up.
    """
    images = [raw.terms for raw in hom._raw_images]
    targets = [exps.index(1) for terms in images for exps in terms if sum(exps) == 1]
    coordinate = (all(len(terms) <= 1 and all(sum(exps) <= 1 for exps in terms) for terms in images)
                  and len(targets) == len(set(targets)))
    assert not (coordinate and fixups(hom))
    return coordinate


def charts(d):
    return [ChartId(i, patch) for i in range(d + 1) for patch in (0, 1)]


def jet_maps(d, chart):
    """(R_{d-j}, the map y_m -> coefficient m of f^(j)) for j = 0..d-1, as discriminant_ideal builds them."""
    f = generic_section(d, chart, ZZ)
    deriv = f
    for j in range(d):
        generic = _generic_raw_discriminant(d - j)
        images = {f"y{m}": deriv.coefficient(m) for m in range(d - j + 1)}
        yield generic, RingHom(generic.ring, f.coeff_ring, images)
        deriv = deriv.derivative()


def check_jet_maps(d, chart):
    gens = discriminant_ideal(d, d, chart).gens
    for j, (generic, hom) in enumerate(jet_maps(d, chart)):
        assert is_coordinate(hom)
        fast, slow = both_paths(hom, generic)
        assert fast == slow, (d, chart, j)
        assert fast.value == gens[j]


@pytest.mark.parametrize("d", range(1, 8))
def test_jet_maps_agree_on_every_chart_and_level(d):
    for chart in charts(d):
        check_jet_maps(d, chart)


@pytest.mark.slow
@pytest.mark.parametrize(
    "d,i,patch", [(8, 0, 0), (8, 3, 1), (8, 8, 0), (9, 2, 0), (9, 5, 1), (9, 9, 1)]
)
def test_jet_maps_agree_on_sampled_charts_of_degree_8_and_9(d, i, patch):
    check_jet_maps(d, ChartId(i, patch))


@pytest.mark.parametrize("d", range(1, 8))
def test_relabel_maps_agree(d):
    """The map u_k -> u_{d-k} of chart_consistency, on every generator of every pinning."""
    for i in range(d + 1):
        mirrored = discriminant_ideal(d, d, ChartId(d - i, 0))
        target = discriminant_ideal(d, 1, ChartId(i, 1)).ring
        relabel = RingHom(
            mirrored.ring,
            target,
            {f"u{k}": target.variable(f"u{d - k}") for k in range(d + 1) if k != d - i},
        )
        assert is_coordinate(relabel)
        for g in mirrored.gens:
            fast, slow = both_paths(relabel, g)
            assert fast == slow


def test_zero_images_drop_their_terms():
    src = PolynomialRing(ZZ, ("u", "v", "w"))
    u, v, w = src.variables()
    x = 3 * u**2 * v - u * w + 5 * v**3 - w**2 + 7 * v + 1
    dst = PolynomialRing(ZZ, ("v", "w"))
    hom = RingHom(src, dst, {"u": 0})
    fast, slow = both_paths(hom, x)
    assert fast == slow
    assert str(fast) == "5*v^3 - w^2 + 7*v + 1"
    fast, slow = both_paths(RingHom(src, dst, {"u": 0, "v": 0, "w": 0}), x)
    assert fast == slow == dst.one
    fast, slow = both_paths(RingHom(src, dst, {"u": 0, "v": 0, "w": 0}), x - 1)
    assert fast == slow == dst.zero


def test_images_that_vanish_in_fp():
    src = PolynomialRing(ZZ, ("u", "v"))
    u, v = src.variables()
    dst = PolynomialRing(GF(7), ("u", "v"))
    x = u**3 * v + 2 * u * v**2 + 14 * v**4 + 3 * v + 4
    # 7 and 7*u coerce to zero in Fp(7); 14*v^4 has a coefficient that does too
    for images in ({"u": 7}, {"u": dst.variable("u") * 7}):
        hom = RingHom(src, dst, images)
        assert not hom._raw_images[0]
        fast, slow = both_paths(hom, x)
        assert fast == slow
        assert str(fast) == "3*v + 4"
    fast, slow = both_paths(RingHom(src, dst), x)
    assert fast == slow
    assert str(fast) == "u^3*v + 2*u*v^2 + 3*v + 4"
    # a sum that cancels only mod 7
    fast, slow = both_paths(RingHom(src, dst, {"u": dst.variable("v")}), 3 * u * v + 4 * v**2)
    assert fast == slow == dst.zero


def test_factorial_coefficients():
    src = PolynomialRing(ZZ, tuple(f"y{m}" for m in range(6)))
    dst = PolynomialRing(ZZ, ("a", "b", "c"))
    a, b, c = dst.variables()
    images = {"y0": 1, "y1": 2 * a, "y2": math.factorial(5) * b, "y3": -math.factorial(7) * c,
              "y4": math.factorial(9), "y5": math.factorial(4) * a}
    hom = RingHom(src, dst, images)
    rng = random.Random(1201)
    for _ in range(20):
        x = rand_element(rng, src, terms=8, max_exp=6)
        fast, slow = both_paths(hom, x)
        assert fast == slow


@pytest.mark.parametrize(
    "src_base,dst_base",
    [(ZZ, ZZ), (QQ, QQ), (GF(7), GF(7)), (ZZ, QQ), (ZZ, GF(7)), (QQ, GF(11)), (ZZ, GF(2))],
    ids=str,
)
@pytest.mark.parametrize("ncod", [1, 2, 3])
def test_random_single_term_images(src_base, dst_base, ncod):
    """Zero images and images of any weight: shared targets, products like a*b,
    weights of 2 and more, and exponents past one byte."""
    rng = random.Random(1202 + ncod)
    src = PolynomialRing(src_base, ("u", "v", "w"))
    dst = PolynomialRing(dst_base, tuple("abc"[:ncod]))
    fixed_up = 0
    for _ in range(30):
        images = {}
        for name in src.names:
            term = dst.zero
            if rng.random() > 0.15:
                term = dst.element(rand_scalar(rng, dst_base).value)
                for var in dst.variables():
                    term = term * var ** rng.choice([0, 0, 1, 1, 2, 3, 130])
            images[name] = term
        hom = RingHom(src, dst, images)
        fixed_up += bool(fixups(hom))
        for _ in range(5):
            x = rand_element(rng, src, terms=6, max_exp=5)
            fast, slow = both_paths(hom, x)
            assert fast == slow
    assert fixed_up >= 10


def test_zero_constant_and_scaled_images_are_coordinate_maps():
    src = PolynomialRing(ZZ, ("u", "v", "w", "x"))
    u, v, w, x = src.variables()
    dst = PolynomialRing(ZZ, ("a", "b", "c"))
    a, b, c = dst.variables()
    hom = RingHom(src, dst, {"u": 0, "v": 5, "w": -3 * c, "x": a})
    assert is_coordinate(hom)
    f = 2 * u * v - v**2 * w + 7 * v * x**3 + w**2 * x - 4 * u**3 + 1
    fast, slow = both_paths(hom, f)
    assert fast == slow
    assert str(fast) == "35*a^3 + 9*a*c^2 + 75*c + 1"
    fast, slow = both_paths(hom, f - 1 - 7 * v * x**3 - w**2 * x + v**2 * w)
    assert fast == slow == dst.zero
    assert both_paths(hom, src.zero) == (dst.zero, dst.zero)


@pytest.mark.parametrize("images,expected,coordinate", [
    (lambda a: {"u": a, "v": 3}, "3*a^2 - 6*a + 10", True),
    (lambda a: {"u": 2 * a, "v": -1}, "-4*a^2 + 4*a + 2", True),
    (lambda a: {"u": 0, "v": a}, "a^2 + 1", True),
    (lambda a: {"u": 2, "v": 5}, "26", True),
    (lambda a: {"u": a, "v": a}, "a^3 - a^2 + 1", False),
    (lambda a: {"u": 3 * a**2, "v": a}, "9*a^5 - 6*a^3 + a^2 + 1", False),
], ids=["identity", "scaled", "zero", "constants", "shared", "squared"])
def test_a_codomain_with_one_variable(images, expected, coordinate):
    """select must give a 1-tuple: itemgetter of one index would give a bare int."""
    src = PolynomialRing(ZZ, ("u", "v"))
    u, v = src.variables()
    dst = PolynomialRing(ZZ, ("a",))
    hom = RingHom(src, dst, images(dst.variable("a")))
    assert is_coordinate(hom) == coordinate
    fast, slow = both_paths(hom, u**2 * v - 2 * u * v + v**2 + 1)
    assert fast == slow
    assert str(fast) == expected
    assert all(type(e) is tuple and len(e) == 1 for e in fast.value.terms)


@pytest.mark.parametrize(
    "src_base,dst_base",
    [(ZZ, ZZ), (QQ, QQ), (GF(7), GF(7)), (ZZ, QQ), (ZZ, GF(7)), (QQ, GF(11)), (ZZ, GF(2))],
    ids=str,
)
@pytest.mark.parametrize("ncod", [1, 2, 4])
def test_random_coordinate_images(src_base, dst_base, ncod):
    """Each variable goes to zero, a constant or a scaled codomain variable, none hit twice."""
    rng = random.Random(1203 + ncod)
    src = PolynomialRing(src_base, ("u", "v", "w", "x"))
    dst = PolynomialRing(dst_base, tuple("abcd"[:ncod]))
    for _ in range(30):
        free = list(dst.variables())
        rng.shuffle(free)
        images = {}
        for name in src.names:
            scale = rand_scalar(rng, dst_base).value
            kind = rng.choice(["zero", "constant", "variable", "variable"])
            if kind == "variable" and free:
                images[name] = free.pop() * scale
            else:
                images[name] = 0 if kind == "zero" else scale
        hom = RingHom(src, dst, images)
        assert is_coordinate(hom)
        for _ in range(5):
            x = rand_element(rng, src, terms=6, max_exp=5)
            fast, slow = both_paths(hom, x)
            assert fast == slow


def test_exponents_past_one_byte():
    """An output exponent over 127, from a weight-50 fix-up and a selected exponent."""
    src = PolynomialRing(ZZ, ("u", "v"))
    dst = PolynomialRing(ZZ, ("a", "b"))
    a, b = dst.variables()
    u, v = src.variables()
    hom = RingHom(src, dst, {"u": a**50 * b, "v": 2 * a})
    x = u**3 * v**9 + u**2 - v**200
    fast, slow = both_paths(hom, x)
    assert fast == slow
    assert fast.value.degree_in("a") == 200


@pytest.mark.parametrize("nvars,bound", [(1, 0), (3, 5), (10, 17), (4, 64), (4, 127), (3, 128), (2, 1000)])
def test_packed_round_trip(nvars, bound):
    """Both unpackings of _Packed.unpack, byte-wide (width 8) or not, invert _key."""
    rng = random.Random(nvars * 1000 + bound)
    layout = _Packed(PolynomialRing(ZZ, tuple(f"x{k}" for k in range(nvars))), bound)
    vectors = {tuple(rng.randint(0, bound) for _ in range(nvars)) for _ in range(50)}
    packed = {layout._key(exps): i for i, exps in enumerate(sorted(vectors))}
    assert layout.unpack(packed).terms == {exps: i for i, exps in enumerate(sorted(vectors))}
    assert all(layout._key(layout._exponents(key)) == key for key in packed)


def test_non_invertible_denominator_still_raises():
    src = PolynomialRing(QQ, ("u",))
    dst = PolynomialRing(GF(7), ("u",))
    hom = RingHom(src, dst)
    assert is_coordinate(hom)
    x = src.variable("u") * Fraction(1, 7) + 1
    with pytest.raises(ParameterError):
        hom(x)
    for path in (hom._map_single_terms, hom._map_general):
        with pytest.raises(ParameterError):
            path(x.value)
    # each input term is coerced, also one that meets a zero image
    with pytest.raises(ParameterError):
        RingHom(src, dst, {"u": 0})(x)
    with pytest.raises(ParameterError):
        RingHom(src, dst, {"u": 0})(src.variable("u") * Fraction(1, 7))
    with pytest.raises(ParameterError):
        RingHom(src, dst, {"u": Fraction(3, 14)})
    with pytest.raises(UnsupportedRingError):
        RingHom(src, PolynomialRing(ZZ, ("u",)))


def test_the_memoised_generic_discriminant_is_not_changed():
    generic = _generic_raw_discriminant(6)
    before = dict(generic.terms)
    gens = discriminant_ideal(6, 6, ChartId(2, 1)).gens
    assert generic.terms == before
    assert all(g.terms is not generic.terms for g in gens)
    assert _generic_raw_discriminant(6) is generic


PATHS = ("_map_single_terms", "_map_general")


def only_path(monkeypatch, keep):
    """Make every RingHom path but keep raise; return the maps that take keep."""
    calls = []
    taken = getattr(RingHom, keep)

    def record(self, raw):
        calls.append(self)
        return taken(self, raw)

    def fail(self, raw):
        raise AssertionError(f"a path other than {keep} was taken")

    for name in PATHS:
        monkeypatch.setattr(RingHom, name, record if name == keep else fail)
    return calls


def test_jet_and_chart_maps_are_coordinate_maps(monkeypatch):
    calls = only_path(monkeypatch, "_map_single_terms")
    assert len(discriminant_ideal(5, 5, ChartId(2, 1)).gens) == 5
    assert len(chart_consistency(4, 4, 1)) == 4
    assert len(incidence_ideal(4, 2, ChartId(0, 1)).gens) == 3
    assert calls and all(map(is_coordinate, calls))
    ring = PolynomialRing(QQ, ("u", "v"))
    u, v = ring.variables()
    name, smaller, image = strata._eliminable(u + 3 * v**2 - v)
    assert (name, str(smaller), str(image)) == ("u", "QQ[v]", "-3*v^2 + v")


def test_shared_and_higher_degree_images_take_fix_ups(monkeypatch):
    src = PolynomialRing(ZZ, ("u", "v"))
    u, v = src.variables()
    dst = PolynomialRing(ZZ, ("w", "z"))
    w, z = dst.variables()
    x = 3 * u**2 * v - u * v**2 + 5 * v - 1
    shared = RingHom(src, dst, {"u": w, "v": w})  # u, v -> w: not injective
    square = RingHom(src, dst, {"u": 2 * w**2, "v": z})  # an image of degree 2
    twice = RingHom(src, dst, {"u": -2 * w**2 * z**3, "v": z})  # two fix-ups of one scaled image
    product = RingHom(src, dst, {"u": w * z, "v": 3})  # a product image picks w and z from u
    homs = [shared, square, twice, product]
    assert not any(map(is_coordinate, homs))
    assert [bool(fixups(hom)) for hom in homs] == [True, True, True, False]
    expected = [hom._map_general(x.value) for hom in homs]
    calls = only_path(monkeypatch, "_map_single_terms")
    assert [hom(x) for hom in homs] == expected
    assert [str(e) for e in expected] == [
        "2*w^3 + 5*w - 1", "12*w^4*z - 2*w^2*z^2 + 5*z - 1", "12*w^4*z^7 + 2*w^2*z^5 + 5*z - 1",
        "9*w^2*z^2 - 9*w*z + 14",
    ]
    assert calls == homs


def test_strata_substitution_of_a_sum_takes_the_general_loop(monkeypatch):
    calls = only_path(monkeypatch, "_map_general")
    ring = PolynomialRing(QQ, ("u", "v"))
    u, v = ring.variables()
    # the leading coefficient u + v + 1 is eliminated by u -> -v - 1, a two-term image
    P = UniPoly(ring, "t", [ring.one, u * v, u + v + 1])
    assert main1_strata(P)
    assert calls
