"""Jet evaluation maps and discriminant ideals for degree-d forms on the line.

A degree-d form is written in one of 2(d+1) affine charts.  Chart
(i horizontal, 0) pins the coefficient of t^i to 1:

    f(t) = u_0 + u_1 t + ... + 1*t^i + ... + u_d t^d

over the integer polynomial ring in the remaining u's.  Chart (i, 1)
is the same section written at infinity, in the coordinate s:

    g(s) = u_0 s^d + u_1 s^(d-1) + ... + 1*s^(d-i) + ... + u_d.

The order-l jet of the section along the zero locus is recorded by the
truncated Taylor components f, f'/1!, ..., f^(l)/l!.  The discriminant
ideal at level l is generated by the resultants

    P_j = Res_{d-j, d-j-1}(f^(j), f^(j+1)),   j = 0, ..., l-1,

each taken at the declared (not actual) degrees, so the generators
stay meaningful when leading u's vanish.

Determinants commute with ring maps, so no generator needs its own
determinant.  P_j on any chart is the image of the generic raw
discriminant R_{d-j} = Res_{d-j, d-j-1}(a, a') of
a = y_0 + y_1 t + ... + y_{d-j} t^(d-j) under y_m -> coefficient m of
f^(j).  R_n is built once per degree from the graded Bezout matrix and
kept in the memo of resultants (resultants._generic_raw_discriminant,
capped at resultants.MAX_SYMBOLIC_DEGREE = 9, which also bounds d
here); resultants.discriminant maps the same memo over every
polynomial ring.  On every chart each coefficient of f^(j) is a
constant or an integer times one u_k, no u_k twice, so RingHom maps
it as a coordinate map: each term of R_{d-j} maps to one term, its
exponents selected from the term's own with no fix-up and its
coefficient multiplied by powers of the constants, with no polynomial
product.  The relabelling of chart_consistency and the inclusion of
incidence_ideal are coordinate maps too (RingHom describes its two
paths).  The per-chart Sylvester determinants are kept as the reference
the cached path is tested against.

The images are memoized too, one map per chart and level per process:
discriminant_ideal keeps the generators of each (d, l, chart) with
d <= MEMO_MAX_DEGREE = 6 in an LRU of MEMO_SIZE = 256 entries, which
holds all 224 such keys (about 4.2 MiB), and every call returns copies
of the memoized generators, so a caller may mutate what it gets.  Above
d = 6 every call maps afresh.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ExactDivisionError, ParameterError, Record, check_int
from .rings import QQ, ZZ, MultiPoly, PolynomialRing, Ring, RingHom
from .resultants import (
    SylvesterSpec,
    _generic_discriminant_image,
    _generic_raw_discriminant,
    resultant,
)
from .unipoly import UniPoly


class ChartId(Record):
    """Affine chart label: which coefficient is pinned, and which patch."""

    _fields = ("dehom_section", "affine_chart")

    def _check(self):
        check_int(self.dehom_section, "the pinned coefficient index")
        chart = self.affine_chart
        if type(chart) is not int or chart not in (0, 1):  # a bool is refused too
            raise ParameterError(f"affine chart must be 0 or 1, got {chart!r}")
        if self.dehom_section < 0:
            raise ParameterError("the pinned coefficient index must be nonnegative")


class IdealGens(Record):
    _fields = ("ring", "gens")


def _check_chart(d: int, chart: ChartId):
    if not isinstance(chart, ChartId):
        raise ParameterError(f"a chart must be a ChartId, got {chart!r}")
    check_int(d, "the form degree")
    if d < 1:
        raise ParameterError(f"the form degree must be at least 1, got {d}")
    if chart.dehom_section > d:
        raise ParameterError(
            f"chart pins coefficient {chart.dehom_section}, but the degree is {d}"
        )


def chart_ring(d: int, chart: ChartId, base: Ring = ZZ) -> PolynomialRing:
    """Coefficient ring of the chart: u_0..u_d with the pinned index omitted."""
    _check_chart(d, chart)
    names = tuple(f"u{k}" for k in range(d + 1) if k != chart.dehom_section)
    return PolynomialRing(base, names)


def generic_section(d: int, chart: ChartId, base: Ring = ZZ) -> UniPoly:
    """The universal section of the chart, as a polynomial in t or s."""
    ring = chart_ring(d, chart, base)
    i = chart.dehom_section
    var = "t" if chart.affine_chart == 0 else "s"
    coeffs = [1 if k == i else ring.variable(f"u{k}") for k in range(d + 1)]
    if chart.affine_chart == 1:
        # in the s-patch the coefficient of s^(d-k) is u_k
        coeffs.reverse()
    return UniPoly(ring, var, coeffs)


def _check_jet_order(d: int, l: int, chart: ChartId):
    _check_chart(d, chart)
    check_int(l, "the jet order")
    if not 0 <= l <= d:
        raise ParameterError(f"jet order must satisfy 0 <= l <= d, got l={l}, d={d}")


def _derivatives(f: UniPoly, count: int) -> list[UniPoly]:
    """[f, f', ..., f^(count-1)] for count >= 1, with no derivative past the last."""
    ladder = [f]
    while len(ladder) < count:
        ladder.append(ladder[-1].derivative())
    return ladder


def taylor_map(d: int, l: int, chart: ChartId) -> tuple[UniPoly, ...]:
    """Truncated Taylor components [f, f'/1!, ..., f^(l)/l!] over QQ."""
    _check_jet_order(d, l, chart)
    ladder = _derivatives(generic_section(d, chart, QQ), l + 1)
    return tuple(deriv * Fraction(1, math.factorial(j)) for j, deriv in enumerate(ladder))


def incidence_ideal(d: int, l: int, chart: ChartId) -> IdealGens:
    """Generators (f, f', ..., f^(l)) in the flat ring ZZ[u..., t]."""
    _check_jet_order(d, l, chart)
    f = generic_section(d, chart, ZZ)
    flat = PolynomialRing(ZZ, f.coeff_ring.names + (f.var,))
    include = RingHom(f.coeff_ring, flat)
    t = flat.variable(f.var)
    gens = [sum((include(c) * t**k for k, c in enumerate(deriv.coeffs)), flat.zero).value
            for deriv in _derivatives(f, l + 1)]
    return IdealGens(flat, tuple(gens))


def _check_level(d: int, l: int):
    check_int(d, "the form degree")
    check_int(l, "the level")
    if not 1 <= l <= d:
        raise ParameterError(f"level must satisfy 1 <= l <= d, got l={l}, d={d}")


# The largest degree whose chart ideals are memoized, and the memo's
# bound (see the module docstring).  A generator has at most 246 terms
# up to d = 6, but one R_9 image alone is about 4 MiB.
MEMO_MAX_DEGREE = 6
MEMO_SIZE = 256


@functools.lru_cache(maxsize=MEMO_SIZE)
def _chart_ideal(d: int, l: int, chart: ChartId) -> tuple[PolynomialRing, tuple[MultiPoly, ...]]:
    """(chart ring, raw P_0..P_{l-1}) for checked arguments; never hand the raw ones out."""
    f = generic_section(d, chart, ZZ)
    gens = [_generic_discriminant_image(deriv, d - j).value
            for j, deriv in enumerate(_derivatives(f, l))]
    return f.coeff_ring, tuple(gens)


def discriminant_ideal(d: int, l: int, chart: ChartId | None = None) -> IdealGens:
    """Resultant generators P_0, ..., P_{l-1} over the chart ring.

    P_j is the raw Sylvester determinant of (f^(j), f^(j+1)) at the
    declared degrees (d-j, d-j-1).  It is computed as the image of the
    memoized generic R_{d-j} (see the module docstring) under
    y_m -> coefficient m of f^(j), so the determinant runs once per
    degree, not once per chart and level.  For d <= MEMO_MAX_DEGREE the
    images are memoized too, per (d, l, chart) in an LRU of MEMO_SIZE
    entries, and every call returns copies of the memoized generators;
    above it every call maps afresh.  The arguments are checked before
    the memo is read.

    The generators' common zeros contain the forms with a root of
    multiplicity at least l+1, as P_j = U*f^(j) + V*f^(j+1) (see
    resultants.bezout_certificate), and can be more: over F_7 at d = 4,
    l = 2, 91 monic forms against 49.
    """
    if chart is None:
        check_int(d, "the form degree")
        chart = ChartId(d, 0)
    _check_chart(d, chart)
    _check_level(d, l)
    if d > MEMO_MAX_DEGREE:
        return IdealGens(*_chart_ideal.__wrapped__(d, l, chart))
    ring, gens = _chart_ideal(d, l, chart)
    return IdealGens(ring, tuple([MultiPoly(ring, dict(g.terms)) for g in gens]))


def _discriminant_ideal_sylvester(d: int, l: int, chart: ChartId) -> IdealGens:
    """Reference for discriminant_ideal: one Sylvester determinant per generator."""
    _check_chart(d, chart)
    _check_level(d, l)
    f = generic_section(d, chart, ZZ)
    ladder = _derivatives(f, l + 1)
    gens = [resultant(ladder[j], ladder[j + 1], SylvesterSpec(d - j, d - j - 1)).value
            for j in range(l)]
    return IdealGens(f.coeff_ring, tuple(gens))


def homogeneous_classical_discriminant(d: int) -> MultiPoly:
    """Classical discriminant of the generic form, over ZZ[y_0..y_d].

    The memoized raw determinant R_d = Res_{d,d-1}(a, a') of the generic
    polynomial a = y_0 + y_1 t + ... + y_d t^d (see the module
    docstring) always carries the leading coefficient y_d as an exact
    factor; the quotient R_d / y_d, a fresh polynomial on every call, is
    the irreducible classical discriminant with the sign fixed so that
    d = 2 gives 4*y0*y2 - y1^2.
    """
    check_int(d, "the form degree")
    if d < 2:
        raise ParameterError(f"the form degree must be at least 2, got {d}")
    raw = _generic_raw_discriminant(d)
    return raw.exact_div(raw.ring.variable(f"y{d}").value)


class ChartRelation(Record):
    """How one level generator in patch 1 relates to its patch-0 mate.

    category is one of:
      "integer"   Q_j = c * P_j for a nonzero integer c (sign folded in)
      "cofactor"  Q_j = h * P_j or P_j = h * Q_j with h a nonconstant
                  polynomial; factor holds h and direction says which way
      "relabel"   no divisibility either way, but Q_j equals the patch-0
                  generator of the opposite pinning i -> d-i after the
                  variable relabeling u_k -> u_{d-k}
      "unrelated" none of the above (never observed; would be a bug)
    """

    _fields = ("j", "category", "factor", "direction", "relabel_holds")


def _try_exact_div(num: MultiPoly, den: MultiPoly) -> MultiPoly | None:
    try:
        return num.exact_div(den)
    except ExactDivisionError:
        return None


def chart_consistency(d: int, l: int, i: int) -> list[ChartRelation]:
    """Compare level generators across the two patches of pinning i.

    Q_j comes from chart (i, 1) and P_j from chart (i, 0).  The naive
    expectation that Q_j and P_j agree up to an integer constant fails
    in general: already at j = 0 the patch-1 generator picks up the
    cofactor u_0, and for j >= 1 the two are not associates at all but
    are exchanged by the relabeling u_k -> u_{d-k} against the opposite
    pinning d-i.  The returned table records, per j, which of the three
    relations actually holds.  Level 0 has no generators to compare, so
    the report is empty.
    """
    _check_chart(d, ChartId(i, 0))
    check_int(l, "the level")
    if l == 0:
        return []
    P = discriminant_ideal(d, l, ChartId(i, 0)).gens
    Q = discriminant_ideal(d, l, ChartId(i, 1)).gens
    mirrored = discriminant_ideal(d, l, ChartId(d - i, 0))
    target_ring = Q[0].ring
    relabel = RingHom(
        mirrored.ring,
        target_ring,
        {f"u{k}": target_ring.variable(f"u{d - k}") for k in range(d + 1) if k != d - i},
    )
    mirrored_images = [relabel(g).value for g in mirrored.gens]

    rows = []
    for j in range(l):
        qj, pj = Q[j], P[j]
        relabel_ok = mirrored_images[j] == qj
        if (quotient := _try_exact_div(qj, pj)) is not None:
            category = "cofactor" if quotient.constant_raw() is None else "integer"
            factor, direction = str(quotient), "q_over_p"
        elif (quotient := _try_exact_div(pj, qj)) is not None:
            category, factor, direction = "cofactor", str(quotient), "p_over_q"
        else:
            category = "relabel" if relabel_ok else "unrelated"
            factor = direction = None
        rows.append(ChartRelation(j, category, factor, direction, relabel_ok))
    return rows
