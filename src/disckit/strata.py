"""Stratification of a base ring by the etale locus of a finite cover.

Given P in A[t] of declared degree d, the spectrum of A breaks into
locally closed strata on which Spec(A[t]/P) -> Spec A is finite etale
of a known degree, or visibly ramified.  main1_strata loops over
the degrees, one leading coefficient at a time:

  * let a be the (declared) leading coefficient; where a is invertible
    the cover has rank d and its discriminant b decides etale (b a
    unit) versus ramified (b = 0), splitting the stratum along b when
    neither holds;
  * where a vanishes the degree drops, so the loop continues with a
    eliminated.  Elimination is by substitution and only applies
    when a is linear in some variable with a unit coefficient; other
    shapes (an integer like 2, a quadric like u^2) would need genuine
    quotient-ring arithmetic and are reported as unsupported strata
    rather than guessed at.

Localizations are tracked as lists of inverted elements; unit tests in
the localized ring are performed by exact-division sweeps, which are
sound (never claim a non-unit is a unit) but not complete: after
inverting u*v the sweep takes -u^3*v only to -u^2 and misses that it
is a unit, so the empty stratum that quotients it is still emitted.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .errors import ExactDivisionError, Record
from .rings import MultiPoly, PolynomialRing, Ring, RingElement, RingHom, check_element
from .resultants import classify_discriminant, declared_degree, discriminant
from .unipoly import UniPoly, check_unipoly


class Stratum(Record):
    """One locally closed piece of the base, with its verdict.

    inverted and quotiented are printed expressions: the stratum is the
    locus where every quotiented element vanishes and every inverted
    element is invertible.  Expressions arising after a substitution
    step are written in the surviving variables, which keep their
    meaning in the original base.
    """

    _fields = ("inverted", "quotiented", "residual_poly", "residual_degree", "discriminant",
               "verdict")


def is_unit_localized(x: RingElement, inverted: Sequence[RingElement]) -> bool:
    """Is x a unit once every element of inverted has an inverse?

    Sweeps exact divisions by the inverted elements until none applies,
    then asks the base ring.  Each successful division strictly shrinks
    the value (in degree, then in leading-coefficient size), so the
    sweep terminates.  Sound, not complete: True means x is a unit, but
    False may miss one (see the module docstring).
    """
    check_element(x, *inverted)
    if x.is_zero():
        return False
    value = x
    progressing = True
    while progressing:
        progressing = False
        for s in inverted:
            if s.is_unit():
                continue
            try:
                value = value.exact_div(s)
                progressing = True
            except ExactDivisionError:
                pass
    return value.is_unit()


_ETALE_VERDICTS = {"separable": "etale", "inseparable": "ramified", "neither": "mixed"}


def etale_verdict(P: UniPoly, degree: int | None = None) -> tuple[str, RingElement]:
    """Verdict for the generic level, before any stratification.

    Returns (verdict, b) with b the declared-degree discriminant and
    the verdict of classify_discriminant in the language of covers:
    "etale" (b a unit), "ramified" (b zero: the coefficient rings are
    integral domains, so zero is the only nilpotent), or "mixed" (the
    base splits along b).
    """
    verdict, b = classify_discriminant(P, degree)
    return _ETALE_VERDICTS[verdict], b


def standard_etale_check(P: UniPoly) -> bool:
    """True when A[t]/(P) is standard etale over A on the nose.

    The textbook presentation asks for a monic P whose discriminant is
    a unit; both conditions depend on the coefficient ring (t^2 + t + 1
    passes over QQ but not over ZZ, where 3 is not invertible).
    """
    check_unipoly(P)
    if not isinstance(P.degree, int) or P.degree < 1:
        return False
    if not P.is_monic():
        return False
    verdict, _ = classify_discriminant(P)
    return verdict == "separable"


def _eliminable(a: RingElement):
    """A substitution killing a, if a is linear in some variable.

    Looks for a = c*v + r with c a unit of the base ring and r free of
    v; returns (v, smaller, image of v) with image = -r/c in smaller,
    the ring without v (the scalar base when v was the last variable),
    or None when no variable qualifies.  The image is built term by
    term: each term of r, its slot of v dropped, times -1/c.
    """
    ring = a.ring
    if not isinstance(ring, PolynomialRing):
        return None
    poly: MultiPoly = a.value
    base = ring.base
    for i, name in enumerate(ring.names):
        if poly.degree_in(name) != 1:
            continue
        c = poly.coefficient_of(name, 1).constant_raw()
        if c is None or not base._is_unit(c):
            continue
        scale = base._exact_div(base.coerce(-1), c)
        image = {e[:i] + e[i + 1:]: base._mul(x, scale)
                 for e, x in poly.terms.items() if not e[i]}
        smaller = _without(ring, name)
        if smaller is base:
            return name, base, RingElement(base, image.get((), base.coerce(0)))
        return name, smaller, RingElement(smaller, MultiPoly(smaller, image))
    return None


@functools.lru_cache(maxsize=64)
def _without(ring: PolynomialRing, name: str) -> Ring:
    """ring without the variable name: the scalar base when name was the last one."""
    remaining = tuple(n for n in ring.names if n != name)
    return PolynomialRing(ring.base, remaining) if remaining else ring.base


def main1_strata(
    P: UniPoly, degree: int | None = None, b: RingElement | None = None
) -> list[Stratum]:
    """Full etale/ramified stratification of the base of P.

    The declared degree follows resultants.declared_degree: it defaults
    to the actual degree and must be given for the zero polynomial.
    A caller that already holds b = discriminant(P, degree) may pass it;
    it is used only when the declared degree is the actual one, since a
    padded top level works at the actual degree.

    No inversion survives an elimination, which works on the closed
    complement of a: each stratum inverts at most its level's a and b.
    """
    d = declared_degree(P, degree, "the polynomial")
    if d != P.degree:
        b = None
    quotiented: tuple[str, ...] = ()
    out: list[Stratum] = []
    while not P.is_zero():
        d = P.degree  # identically-zero top coefficients contribute no strata
        a = P.coefficient(d)
        if a.is_unit():
            return out + _level(P, d, (), quotiented, b)
        out += _level(P, d, (a,), quotiented, b)
        step = _eliminable(a)
        if step is None:
            out.append(Stratum((), quotiented + (str(a),), str(P), d, None,
                               f"unsupported: cannot eliminate {a} by substitution"))
            return out
        name, smaller, image = step
        P = P.map_coefficients(RingHom(a.ring, smaller, {name: image}))
        quotiented += (str(a),)
        d, b = max(d - 1, 0), None
    out.append(Stratum((), quotiented, str(P), d, None, "unsupported: residual polynomial is zero"))
    return out


def _level(P: UniPoly, d: int, inverted: tuple[RingElement, ...], quotiented: tuple[str, ...],
           b: RingElement | None) -> list[Stratum]:
    """The strata of P at its degree d, on the locus where every element of
    inverted is a unit; b is discriminant(P, d) when the caller has it.
    A constant P has no discriminant and is etale of degree 0."""
    inv, poly = tuple(map(str, inverted)), str(P)
    if d == 0:
        return [Stratum(inv, quotiented, poly, 0, None, "etale of degree 0")]
    if b is None:
        b = discriminant(P, d)
    disc = str(b)
    if is_unit_localized(b, inverted):
        return [Stratum(inv, quotiented, poly, d, disc, f"etale of degree {d}")]
    if b.is_zero():
        return [Stratum(inv, quotiented, poly, d, disc, "ramified")]
    return [
        Stratum(inv + (disc,), quotiented, poly, d, disc, f"etale of degree {d}"),
        Stratum(inv, quotiented + (disc,), poly, d, disc, "ramified"),
    ]
