"""Stratification of a base ring by the etale locus of a finite cover.

Given P in A[t] of declared degree d, the spectrum of A breaks into
locally closed strata on which Spec(A[t]/P) -> Spec A is finite etale
of a known degree, or visibly ramified.  Each level of the recursion
works on one declared degree:

  * let a be the (declared) leading coefficient; where a is invertible
    the cover has rank d and its discriminant b decides etale (b a
    unit) versus ramified (b = 0), splitting the stratum along b when
    neither holds;
  * where a vanishes the degree drops, so the recursion continues with
    a eliminated.  Elimination is by substitution and only applies
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

from dataclasses import dataclass
from typing import Sequence

from .errors import ExactDivisionError
from .rings import MultiPoly, PolynomialRing, RingElement, RingHom
from .resultants import classify_discriminant, declared_degree, discriminant
from .unipoly import UniPoly


@dataclass(frozen=True)
class Stratum:
    """One locally closed piece of the base, with its verdict.

    inverted and quotiented are printed expressions: the stratum is the
    locus where every quotiented element vanishes and every inverted
    element is invertible.  Expressions arising after a substitution
    step are written in the surviving variables, which keep their
    meaning in the original base.
    """

    inverted: tuple[str, ...]
    quotiented: tuple[str, ...]
    residual_poly: str
    residual_degree: int
    discriminant: str | None
    verdict: str


def is_unit_localized(x: RingElement, inverted: Sequence[RingElement]) -> bool:
    """Is x a unit once every element of inverted has an inverse?

    Sweeps exact divisions by the inverted elements until none applies,
    then asks the base ring.  Each successful division strictly shrinks
    the value (in degree, then in leading-coefficient size), so the
    sweep terminates.  Sound, not complete: True means x is a unit, but
    False may miss one (see the module docstring).
    """
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
    if not isinstance(P.degree, int) or P.degree < 1:
        return False
    if not P.is_monic():
        return False
    verdict, _ = classify_discriminant(P)
    return verdict == "separable"


def _eliminable(a: RingElement):
    """A substitution killing a, if a is linear in some variable.

    Looks for a = c*v + r with c a unit of the base ring and r free of
    v; returns (v, image of v) with image = -r/c in the ring without
    v, or None when no variable qualifies.
    """
    ring = a.ring
    if not isinstance(ring, PolynomialRing):
        return None
    poly: MultiPoly = a.value
    base = ring.base
    for idx, name in enumerate(ring.names):
        if poly.degree_in(name) != 1:
            continue
        c = poly.coefficient_of(name, 1).constant_raw()
        if c is None or not base._is_unit(c):
            continue
        rest = poly.coefficient_of(name, 0)
        remaining = ring.names[:idx] + ring.names[idx + 1:]
        if remaining:
            smaller: object = PolynomialRing(base, remaining)
            terms = {}
            for exps, coeff in rest.terms.items():
                cut = exps[:idx] + exps[idx + 1:]
                terms[cut] = base._exact_div(base._neg(coeff), c)
            image = smaller.element(MultiPoly(smaller, terms))
        else:
            smaller = base
            const = rest.constant_raw()
            image = smaller.element(base._exact_div(base._neg(const), c))
        return name, smaller, image
    return None


def main1_strata(P: UniPoly, degree: int | None = None) -> list[Stratum]:
    """Full etale/ramified stratification of the base of P.

    The declared degree follows resultants.declared_degree: it defaults
    to the actual degree and must be given for the zero polynomial.
    """
    return _strata(P, declared_degree(P, degree, "the polynomial"), (), ())


def _strata(
    P: UniPoly,
    d: int,
    inv_report: tuple[str, ...],
    quo_report: tuple[str, ...],
) -> list[Stratum]:
    # No inversion survives a descent: descents happen on the closed
    # complement of every previously inverted element, so the live
    # localization visible here is always trivial.  Inverted elements
    # accumulate only on the leaf strata cut out by _split_on_discriminant.
    if P.is_zero():
        return [
            Stratum(inv_report, quo_report, str(P), d, None,
                    "unsupported: residual polynomial is zero")
        ]
    d = P.degree  # identically-zero top coefficients contribute no strata
    if d == 0:
        c = P.coefficient(0)
        if c.is_unit():
            return [Stratum(inv_report, quo_report, str(P), 0, None, "etale of degree 0")]
        out = [
            Stratum(inv_report + (str(c),), quo_report, str(P), 0, None,
                    "etale of degree 0")
        ]
        out.extend(_descend(P, 0, c, inv_report, quo_report))
        return out

    a = P.coefficient(d)
    if a.is_unit():
        return _split_on_discriminant(P, d, inv_report, quo_report, ())
    out = _split_on_discriminant(
        P, d, inv_report + (str(a),), quo_report, (a,)
    )
    out.extend(_descend(P, d, a, inv_report, quo_report))
    return out


def _split_on_discriminant(
    P: UniPoly,
    d: int,
    inv_report: tuple[str, ...],
    quo_report: tuple[str, ...],
    inv_live: tuple[RingElement, ...],
) -> list[Stratum]:
    b = discriminant(P, d)
    if is_unit_localized(b, inv_live):
        return [Stratum(inv_report, quo_report, str(P), d, str(b), f"etale of degree {d}")]
    if b.is_zero():
        return [Stratum(inv_report, quo_report, str(P), d, str(b), "ramified")]
    return [
        Stratum(inv_report + (str(b),), quo_report, str(P), d, str(b),
                f"etale of degree {d}"),
        Stratum(inv_report, quo_report + (str(b),), str(P), d, str(b), "ramified"),
    ]


def _descend(
    P: UniPoly,
    d: int,
    a: RingElement,
    inv_report: tuple[str, ...],
    quo_report: tuple[str, ...],
) -> list[Stratum]:
    step = _eliminable(a)
    if step is None:
        return [
            Stratum(inv_report, quo_report + (str(a),), str(P), d, None,
                    f"unsupported: cannot eliminate {a} by substitution")
        ]
    name, smaller, image = step
    hom = RingHom(a.ring, smaller, {name: image})
    new_P = P.map_coefficients(hom)
    return _strata(
        new_P,
        max(d - 1, 0),
        inv_report,
        quo_report + (str(a),),
    )
