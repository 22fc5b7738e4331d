"""Brute-force verification of discriminant loci over small prime fields.

The level-l discriminant ideal on the monic chart claims to cut out
the forms with a root of multiplicity at least l+1.  Over a prime
field F_q that claim is finitely checkable: enumerate all q^d monic
forms, evaluate the resultant generators at each, and compare against
a multiplicity test that knows nothing about resultants (a gcd chain
of derivatives).  Mismatch points are returned in sorted order, split
by direction, so a failure is reproducible and attributable.

Set DISCKIT_THREADS=n to spread the enumeration over n worker
processes (capped at the CPU count and at q); chunks are merged in
coefficient order, so reports are byte-identical whatever the worker
count.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetError, ParameterError, UnsupportedRingError
from .jets import ChartId, discriminant_ideal
from .rings import GF, PrimeField
from .unipoly import UniPoly

DEFAULT_BUDGET = 10_000_000


# ----- plain-list polynomial helpers over F_p -------------------------------

def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _deriv_mod(coeffs: list[int], p: int) -> list[int]:
    return _trim([(k * coeffs[k]) % p for k in range(1, len(coeffs))])


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        r = list(a)
        while len(r) - 1 >= db and r:
            shift = len(r) - 1 - db
            factor = (r[-1] * inv) % p
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - factor * c) % p
            _trim(r)
        a, b = b, r
    return a


def coeffs_mod(P: UniPoly, p: int) -> list[int]:
    """Ascending coefficient list of P reduced mod p.

    Integer and residue coefficients reduce as integers; a rational a/b
    reduces to a * b^-1 mod p, and a denominator divisible by p raises
    ParameterError.
    """
    field = GF(p)  # validates the modulus
    return _trim([field.coerce(c.value) for c in P.coeffs])


def _has_mult_root_ints(coeffs: list[int], m: int, p: int) -> bool:
    """Multiplicity test on a plain coefficient list (ascending, mod p)."""
    if m < 1:
        raise ParameterError(f"the multiplicity must be at least 1, got {m}")
    f = _trim([c % p for c in coeffs])
    if len(f) - 1 >= p:
        raise ParameterError(
            f"the multiplicity test needs p > deg f, got p={p}, deg={len(f) - 1}"
        )
    g = f
    current = f
    for _ in range(m - 1):
        current = _deriv_mod(current, p)
        g = _gcd_mod(g, current, p)
    return len(g) - 1 >= 1


def has_root_of_multiplicity(f: UniPoly, m: int) -> bool:
    """Does f have a root of multiplicity >= m in the algebraic closure?

    f must have prime-field coefficients.  Tests whether
    gcd(f, f', ..., f^(m-1)) has positive degree, which requires the
    characteristic to exceed deg f so the derivative chain is faithful.
    """
    ring = f.coeff_ring
    if not isinstance(ring, PrimeField):
        raise UnsupportedRingError(
            f"the multiplicity oracle works over prime fields, got {ring}"
        )
    return _has_mult_root_ints([int(c.value) for c in f.coeffs], m, ring.p)


# ----- compiled generator evaluation ---------------------------------------

def _compile_gens(d: int, l: int, q: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """Discriminant-ideal generators on the monic chart, reduced mod q.

    Each generator becomes a list of (exponent vector, coefficient)
    pairs over the variables u_0..u_{d-1} in that order.
    """
    ideal = discriminant_ideal(d, l, ChartId(d, 0))
    assert ideal.ring.names == tuple(f"u{k}" for k in range(d))
    compiled = []
    for gen in ideal.gens:
        terms = []
        for exps, c in sorted(gen.terms.items()):
            cq = c % q
            if cq:
                terms.append((exps, cq))
        compiled.append(terms)
    return compiled


def _eval_terms(terms, point: tuple[int, ...], q: int) -> int:
    total = 0
    for exps, c in terms:
        v = c
        for x, e in zip(point, exps):
            if e:
                v = v * pow(x, e, q) % q
        total = (total + v) % q
    return total


Point = tuple[int, ...]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one exhaustive locus comparison over F_q.

    Mismatch entries are coefficient tuples (u_0, ..., u_{d-1}) of
    monic forms, sorted lexicographically.  soundness_mismatches are
    the points with a multiple-enough root that the ideal misses;
    completeness_mismatches are points where the ideal vanishes without
    the required root; mismatches is their union.
    """

    d: int
    l: int
    q: int
    chart: ChartId
    ideal_zero_count: int
    mult_root_count: int
    mismatches: tuple[Point, ...]
    soundness_mismatches: tuple[Point, ...]
    completeness_mismatches: tuple[Point, ...]


def _scan_chunk(args) -> tuple[int, int, list[Point], list[Point]]:
    d, l, q, compiled, first_coords = args
    ideal_zero_count = 0
    mult_root_count = 0
    sound_miss: list[Point] = []
    complete_miss: list[Point] = []
    m = l + 1
    for u0 in first_coords:
        for rest in itertools.product(range(q), repeat=d - 1):
            point = (u0,) + rest
            ideal_zero = all(_eval_terms(terms, point, q) == 0 for terms in compiled)
            f = list(point) + [1]
            mult_root = _has_mult_root_ints(f, m, q)
            if ideal_zero:
                ideal_zero_count += 1
            if mult_root:
                mult_root_count += 1
            if mult_root and not ideal_zero:
                sound_miss.append(point)
            elif ideal_zero and not mult_root:
                complete_miss.append(point)
    return ideal_zero_count, mult_root_count, sound_miss, complete_miss


def _thread_count() -> int:
    raw = os.environ.get("DISCKIT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ParameterError(f"DISCKIT_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ParameterError(f"DISCKIT_THREADS must be at least 1, got {n}")
    return n


def _plan_chunks(q: int) -> list[range]:
    """Split the first coordinate range(q) into one contiguous chunk per worker.

    The worker count is DISCKIT_THREADS capped by q and by the CPU
    count, so no setting asks for more processes than the machine has
    cores.  Chunk sizes differ by at most one.  Starts no process.
    """
    workers = min(_thread_count(), q, os.cpu_count() or 1)
    bounds = [q * k // workers for k in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def verify_discriminant_locus(
    d: int,
    l: int,
    q: int,
    chart: ChartId | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Compare V(discriminant ideal) with the multiple-root locus over F_q.

    Enumerates every monic degree-d form over F_q (the chart pinning
    the leading coefficient), so q^d must fit the budget and q must be
    a prime exceeding d.  Only the monic chart (d, 0) is enumerable for
    now; passing any other chart is an error.
    """
    if chart is not None and chart != ChartId(d, 0):
        raise ParameterError(
            f"only the monic chart ({d}, 0) is enumerated, got {chart}"
        )
    if not 1 <= l <= d:
        raise ParameterError(f"level must satisfy 1 <= l <= d, got l={l}, d={d}")
    GF(q)
    if q <= d:
        raise ParameterError(f"the field size must exceed the degree, got q={q}, d={d}")
    total = q**d
    if total > budget:
        raise BudgetError(
            f"enumerating q^d = {q}^{d} = {total} points exceeds the budget {budget}"
        )
    plan = _plan_chunks(q)
    compiled = _compile_gens(d, l, q)
    chunks = [(d, l, q, compiled, first_coords) for first_coords in plan]
    if len(chunks) == 1:
        results = [_scan_chunk(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_scan_chunk, chunks))
    ideal_zero_count = sum(r[0] for r in results)
    mult_root_count = sum(r[1] for r in results)
    sound_miss: list[Point] = []
    complete_miss: list[Point] = []
    for r in results:
        sound_miss.extend(r[2])
        complete_miss.extend(r[3])
    sound_miss.sort()
    complete_miss.sort()
    return VerifyReport(
        d,
        l,
        q,
        ChartId(d, 0),
        ideal_zero_count,
        mult_root_count,
        tuple(sorted(sound_miss + complete_miss)),
        tuple(sound_miss),
        tuple(complete_miss),
    )


@dataclass(frozen=True)
class GrowthReport:
    """Point-count growth comparison across two field sizes.

    ratio is the observed count_q2/count_q1 (None when count_q1 = 0);
    expected is (q2/q1)^(d-l), the growth a (d-l)-dimensional locus
    would show.
    """

    d: int
    l: int
    q1: int
    q2: int
    count_q1: int
    count_q2: int
    ratio: Fraction | None
    expected: Fraction
    tolerance: int
    within_tolerance: bool


def dimension_growth_check(
    d: int,
    l: int,
    q1: int,
    q2: int,
    budget: int = DEFAULT_BUDGET,
    tolerance: int = 3,
) -> GrowthReport:
    """Point-count growth test for the dimension of the discriminant locus.

    A variety of dimension d - l should scale its F_q point count like
    q^(d-l); the check compares count(q2)/count(q1) with (q2/q1)^(d-l)
    up to the given multiplicative tolerance, using exact integer
    cross-multiplication so a zero count is handled honestly.
    """
    if q2 <= q1:
        raise ParameterError(f"the second field must be larger, got q1={q1}, q2={q2}")
    r1 = verify_discriminant_locus(d, l, q1, budget=budget)
    r2 = verify_discriminant_locus(d, l, q2, budget=budget)
    c1, c2 = r1.ideal_zero_count, r2.ideal_zero_count
    expected = Fraction(q2, q1) ** (d - l)
    observed = Fraction(c2, c1) if c1 else None
    if c1 == 0 and c2 == 0:
        within = True
    elif c1 == 0 or c2 == 0:
        within = False
    else:
        # c2/c1 <= tol*expected  and  expected <= tol*(c2/c1)
        lhs_ok = c2 * expected.denominator <= tolerance * expected.numerator * c1
        rhs_ok = expected.numerator * c1 <= tolerance * c2 * expected.denominator
        within = lhs_ok and rhs_ok
    return GrowthReport(d, l, q1, q2, c1, c2, observed, expected, tolerance, within)
