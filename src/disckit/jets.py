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
determinant.  With a = y_0 + y_1 t + ... + y_n t^n over ZZ[y_0..y_n],
the generic raw discriminant R_n = Res_{n, n-1}(a, a') is computed on
first use and kept in a least-recently-used memo of eight entries (room
for R_1..R_8; nothing is computed at import).  P_j on any chart is the
image of R_{d-j} under y_m -> coefficient m of f^(j), which on every
chart is a constant or an integer multiple of one u_k.  The per-chart
Sylvester determinant is kept as the reference the cached path is
tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ExactDivisionError, ParameterError
from .rings import QQ, ZZ, MultiPoly, PolynomialRing, Ring, RingHom
from .resultants import SylvesterSpec, resultant
from .unipoly import UniPoly


@dataclass(frozen=True)
class ChartId:
    """Affine chart label: which coefficient is pinned, and which patch."""

    dehom_section: int
    affine_chart: int

    def __post_init__(self):
        if self.affine_chart not in (0, 1):
            raise ParameterError(f"affine chart must be 0 or 1, got {self.affine_chart}")
        if self.dehom_section < 0:
            raise ParameterError("the pinned coefficient index must be nonnegative")


@dataclass(frozen=True)
class IdealGens:
    ring: Ring
    gens: tuple[MultiPoly, ...]


def _check_chart(d: int, chart: ChartId):
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
    _check_chart(d, chart)
    ring = chart_ring(d, chart, base)
    i = chart.dehom_section
    var = "t" if chart.affine_chart == 0 else "s"
    coeffs = []
    for k in range(d + 1):
        if k == i:
            coeffs.append(ring.one)
        else:
            coeffs.append(ring.variable(f"u{k}"))
    if chart.affine_chart == 1:
        # in the s-patch the coefficient of s^(d-k) is u_k
        coeffs.reverse()
    return UniPoly(ring, var, coeffs)


def _check_jet_order(d: int, l: int, chart: ChartId):
    _check_chart(d, chart)
    if not 0 <= l <= d:
        raise ParameterError(f"jet order must satisfy 0 <= l <= d, got l={l}, d={d}")


def taylor_map(d: int, l: int, chart: ChartId) -> tuple[UniPoly, ...]:
    """Truncated Taylor components [f, f'/1!, ..., f^(l)/l!] over QQ."""
    _check_jet_order(d, l, chart)
    f = generic_section(d, chart, QQ)
    components = []
    deriv = f
    for j in range(l + 1):
        scale = QQ.element(1).exact_div(QQ.element(math.factorial(j)))
        components.append(deriv * scale)
        deriv = deriv.derivative()
    return tuple(components)


def _flatten(poly: UniPoly, flat: PolynomialRing) -> MultiPoly:
    src = poly.coeff_ring
    positions = [flat.names.index(name) for name in src.names]
    main_pos = flat.names.index(poly.var)
    width = len(flat.names)
    terms: dict = {}
    for k, c in enumerate(poly.coeffs):
        if c.is_zero():
            continue
        for exps, coeff in c.value.terms.items():
            e = [0] * width
            for idx, x in zip(positions, exps):
                e[idx] = x
            e[main_pos] += k
            terms[tuple(e)] = coeff
    return MultiPoly(flat, terms)


def incidence_ideal(d: int, l: int, chart: ChartId) -> IdealGens:
    """Generators (f, f', ..., f^(l)) in the flat ring ZZ[u..., t]."""
    _check_jet_order(d, l, chart)
    f = generic_section(d, chart, ZZ)
    flat = PolynomialRing(ZZ, f.coeff_ring.names + (f.var,))
    gens = []
    deriv = f
    for _ in range(l + 1):
        gens.append(_flatten(deriv, flat))
        deriv = deriv.derivative()
    return IdealGens(flat, tuple(gens))


@functools.lru_cache(maxsize=8)
def _generic_raw_discriminant(n: int) -> MultiPoly:
    """R_n = Res_{n,n-1}(a, a') for a = y_0 + y_1 t + ... + y_n t^n.

    The result is shared by every caller through the memo, and
    MultiPoly.terms is a mutable dict: callers map or divide it into a
    fresh polynomial and never hand it out as is.
    """
    ring = PolynomialRing(ZZ, tuple(f"y{k}" for k in range(n + 1)))
    a = UniPoly(ring, "t", ring.variables())
    return resultant(a, a.derivative(), SylvesterSpec(n, n - 1)).value


def _check_level(d: int, l: int):
    if not 1 <= l <= d:
        raise ParameterError(f"level must satisfy 1 <= l <= d, got l={l}, d={d}")


def discriminant_ideal(d: int, l: int, chart: ChartId | None = None) -> IdealGens:
    """Resultant generators P_0, ..., P_{l-1} over the chart ring.

    P_j is the raw Sylvester determinant of (f^(j), f^(j+1)) at the
    declared degrees (d-j, d-j-1).  It is computed as the image of the
    memoized generic R_{d-j} (see the module docstring) under
    y_m -> coefficient m of f^(j), so the determinant runs once per
    degree, not once per chart and level; every call returns freshly
    built generators.
    """
    chart = chart if chart is not None else ChartId(d, 0)
    _check_chart(d, chart)
    _check_level(d, l)
    f = generic_section(d, chart, ZZ)
    gens = []
    deriv = f
    for j in range(l):
        generic = _generic_raw_discriminant(d - j)
        images = {f"y{m}": deriv.coefficient(m) for m in range(d - j + 1)}
        gens.append(RingHom(generic.ring, f.coeff_ring, images)(generic).value)
        deriv = deriv.derivative()
    return IdealGens(f.coeff_ring, tuple(gens))


def _discriminant_ideal_sylvester(d: int, l: int, chart: ChartId) -> IdealGens:
    """Reference for discriminant_ideal: one Sylvester determinant per generator."""
    _check_chart(d, chart)
    _check_level(d, l)
    f = generic_section(d, chart, ZZ)
    gens = []
    deriv = f
    for j in range(l):
        nxt = deriv.derivative()
        value = resultant(deriv, nxt, SylvesterSpec(d - j, d - j - 1))
        gens.append(value.value)
        deriv = nxt
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
    if d < 2:
        raise ParameterError(f"the form degree must be at least 2, got {d}")
    raw = _generic_raw_discriminant(d)
    return raw.exact_div(raw.ring.variable(f"y{d}").value)


@dataclass(frozen=True)
class ChartRelation:
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

    j: int
    category: str
    factor: str | None
    direction: str | None
    relabel_holds: bool


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
    mirrored_images = [relabel(mirrored.ring.element(g)).value for g in mirrored.gens]

    rows = []
    for j in range(l):
        qj, pj = Q[j], P[j]
        relabel_ok = mirrored_images[j] == qj
        quotient = _try_exact_div(qj, pj)
        if quotient is not None:
            c = quotient.constant_raw()
            if c is not None:
                rows.append(ChartRelation(j, "integer", str(quotient), "q_over_p", relabel_ok))
            else:
                rows.append(ChartRelation(j, "cofactor", str(quotient), "q_over_p", relabel_ok))
            continue
        quotient = _try_exact_div(pj, qj)
        if quotient is not None:
            rows.append(ChartRelation(j, "cofactor", str(quotient), "p_over_q", relabel_ok))
            continue
        if relabel_ok:
            rows.append(ChartRelation(j, "relabel", None, None, True))
        else:
            rows.append(ChartRelation(j, "unrelated", None, None, False))
    return rows
