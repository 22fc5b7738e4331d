"""Finite-field verification of discriminant loci over small prime fields.

The level-l discriminant ideal on the monic chart claims to cut out
the forms with a root of multiplicity at least m = l+1.  Over a prime
field F_q that claim is finitely checkable.  Two point sets are built
independently of each other:

* Z, the zero set of the generators, fiber by fiber: fix every
  coefficient but the last, specialise the generators to univariate
  polynomials in u_{d-1}, and read the zeros off the roots in F_q of
  their gcd, found as gcd(G, x^q - x).
* M, the forms with a root of multiplicity >= m in the algebraic
  closure, enumerated directly as the products h^m * g with h monic
  irreducible; over the perfect field F_q these are exactly those forms.

Every point of the symmetric difference of Z and M is tested again with
the per-point predicates (evaluating the generators, and a gcd chain of
derivatives that knows nothing about resultants); a disagreement raises
DisckitError.  The work is about q^(d-1) fibers rather than q^d points.
Mismatch points are returned in sorted order, split by direction, so a
failure is reproducible and attributable.

Set DISCKIT_THREADS=n to spread the scan over n worker processes
(capped at the CPU count and at q); chunks are merged in coefficient
order, so reports are byte-identical whatever the worker count.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetError, DisckitError, ParameterError, UnsupportedRingError
from .jets import ChartId, _check_level, discriminant_ideal
from .rings import GF, PrimeField
from .unipoly import UniPoly, _deriv_mod, _gcd_mod, _mul_mod, _trim

DEFAULT_BUDGET = 10_000_000


def coeffs_mod(P: UniPoly, p: int) -> list[int]:
    """Ascending coefficient list of P reduced mod p.

    Integer and residue coefficients reduce as integers; a rational a/b
    reduces to a * b^-1 mod p, and a denominator divisible by p raises
    ParameterError.
    """
    field = GF(p)  # validates the modulus
    return _trim([field.coerce(c) for c in P._raw])


def _has_mult_root_ints(coeffs: list[int], m: int, p: int) -> bool:
    """Multiplicity test on a plain coefficient list (ascending, mod p)."""
    if m < 1:
        raise ParameterError(f"the multiplicity must be at least 1, got {m}")
    f = _trim([c % p for c in coeffs])
    if not f:
        raise ParameterError("the multiplicity test needs a nonzero polynomial")
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
    The zero polynomial has no such answer and raises ParameterError.
    """
    ring = f.coeff_ring
    if not isinstance(ring, PrimeField):
        raise UnsupportedRingError(
            f"the multiplicity oracle works over prime fields, got {ring}"
        )
    return _has_mult_root_ints(f._raw, m, ring.p)


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


def _classify(point: Point, compiled, m: int, q: int) -> tuple[bool, bool]:
    """(the generators vanish, a root of multiplicity >= m) at one point."""
    ideal_zero = all(_eval_terms(terms, point, q) == 0 for terms in compiled)
    return ideal_zero, _has_mult_root_ints(list(point) + [1], m, q)


def _scan_chunk_brute(args) -> tuple[int, int, list[Point], list[Point]]:
    """Reference scan: classify each of the points one at a time."""
    d, l, q, compiled, first_coords = args
    ideal_zero_count = 0
    mult_root_count = 0
    sound_miss: list[Point] = []
    complete_miss: list[Point] = []
    for u0 in first_coords:
        for rest in itertools.product(range(q), repeat=d - 1):
            point = (u0,) + rest
            ideal_zero, mult_root = _classify(point, compiled, l + 1, q)
            if ideal_zero:
                ideal_zero_count += 1
            if mult_root:
                mult_root_count += 1
            if mult_root and not ideal_zero:
                sound_miss.append(point)
            elif ideal_zero and not mult_root:
                complete_miss.append(point)
    return ideal_zero_count, mult_root_count, sound_miss, complete_miss


def _xq_minus_x_mod(g: list[int], q: int) -> list[int]:
    """x^q - x reduced mod g (deg g >= 2) by square-and-multiply.

    Products are accumulated as plain integers and reduced once, by the
    monic multiple of g, at each step.
    """
    inv = pow(g[-1], -1, q)
    n = len(g) - 1
    low = [c * inv % q for c in g[:-1]]
    xq = [1]
    for bit in bin(q)[2:]:
        r = [0] * (2 * len(xq) - 1)
        for i, a in enumerate(xq):
            if a:
                for j, b in enumerate(xq):
                    r[i + j] += a * b
        if bit == "1":
            r.insert(0, 0)
        for k in range(len(r) - 1, n - 1, -1):
            c = r[k] % q
            if c:
                for i, b in enumerate(low):
                    r[k - n + i] -= c * b
        xq = [c % q for c in r[:n]]
    xq[1] = (xq[1] - 1) % q
    return _trim(xq)


def _roots_mod(polys: list[list[int]], q: int):
    """Common roots in F_q of plain coefficient lists, or None if all are 0."""
    g: list[int] = []
    for f in polys:
        g = _gcd_mod(g, f, q)
        if len(g) == 1:
            return ()
    if not g:
        return None
    if len(g) > 2:
        # gcd(g, x^q - x) is the product of the distinct linear factors of g
        g = _gcd_mod(g, _xq_minus_x_mod(g, q), q)
    if len(g) == 1:
        return ()
    if len(g) == 2:
        return ((-g[0] * pow(g[1], -1, q)) % q,)
    roots = []
    for x in range(q):
        acc = 0
        for c in reversed(g):
            acc = (acc * x + c) % q
        if acc == 0:
            roots.append(x)
    return tuple(roots)


def _fiber_plan(compiled, d: int):
    """Maps that specialise the generators one coordinate at a time.

    The generators are flattened into one coefficient vector over keys
    (generator, e_0, ..., e_{d-1}).  The map of level k sends each key
    to its exponent of u_k and to the index of the key with that
    exponent dropped, so substituting u_k = a is one pass of
    multiply-adds.  Returns the maps of u_0..u_{d-2} and the final keys
    (generator, e_{d-1}).
    """
    keys = [(g,) + exps for g, terms in enumerate(compiled) for exps, _ in terms]
    levels = []
    for _ in range(d - 1):
        shorter = sorted({key[:1] + key[2:] for key in keys})
        index = {key: j for j, key in enumerate(shorter)}
        levels.append((len(shorter), [(key[1], index[key[:1] + key[2:]]) for key in keys]))
        keys = shorter
    return levels, keys


def _ideal_zero_points(d: int, q: int, compiled, first_coords):
    """Z: yields the points with u_0 in first_coords where every generator vanishes."""
    levels, last_keys = _fiber_plan(compiled, d)
    widths = [0] * len(compiled)
    for g, e in last_keys:
        widths[g] = e + 1

    def solve(vec: list[int], prefix: Point):
        polys = [[0] * w for w in widths]
        for c, (g, e) in zip(vec, last_keys):
            polys[g][e] = c
        roots = _roots_mod([_trim(f) for f in polys], q)
        return (prefix + (r,) for r in (range(q) if roots is None else roots))

    def descend(k: int, vec: list[int], prefix: Point, coords):
        size, moves = levels[k]
        for a in coords:
            pw = powers[a]
            out = [0] * size
            for c, (e, j) in zip(vec, moves):
                if c:
                    out[j] += c * pw[e]
            sub = [c % q for c in out]
            if k + 1 < len(levels):
                yield from descend(k + 1, sub, prefix + (a,), range(q))
            else:
                yield from solve(sub, prefix + (a,))

    vec = [c for terms in compiled for _, c in terms]
    if levels:
        top = max((e for terms in compiled for exps, _ in terms for e in exps), default=0)
        powers = [[pow(a, e, q) for e in range(top + 1)] for a in range(q)]
        yield from descend(0, vec, (), first_coords)
    else:  # d = 1: solve for u_0 itself and keep the roots in first_coords
        yield from (point for point in solve(vec, ()) if point[0] in first_coords)


def _monic_irreducibles(top: int, q: int) -> list[list[list[int]]]:
    """Monic irreducibles over F_q of degree 1..top, by sieving out products.

    A reducible monic of degree k has a monic irreducible factor of
    degree i <= k/2 times a monic cofactor of degree k - i.
    """
    by_degree: list[list[list[int]]] = []
    for k in range(1, top + 1):
        reducible = set()
        for i in range(1, k // 2 + 1):
            for a in by_degree[i - 1]:
                for low in itertools.product(range(q), repeat=k - i):
                    reducible.add(tuple(_mul_mod(a, [*low, 1], q)))
        by_degree.append([[*low, 1] for low in itertools.product(range(q), repeat=k)
                          if (*low, 1) not in reducible])
    return by_degree


def _multiple_root_points(d: int, m: int, q: int, first_coords) -> set[Point]:
    """M: the points with u_0 in first_coords of the forms h^m * g.

    h runs over monic irreducibles with m * deg h <= d and g over monic
    forms of degree d - m * deg h; only the constant terms of g that
    give u_0 = h(0)^m g(0) in first_coords are enumerated.
    """
    points: set[Point] = set()
    for k, irreducibles in enumerate(_monic_irreducibles(d // m, q), start=1):
        r = d - m * k
        for h in irreducibles:
            hm = [1]
            for _ in range(m):
                hm = _mul_mod(hm, h, q)
            if r == 0:
                if hm[0] in first_coords:
                    points.add(tuple(hm[:-1]))
                continue
            if hm[0]:
                inv = pow(hm[0], -1, q)
                lows = [u0 * inv % q for u0 in first_coords]
            else:
                lows = range(q) if 0 in first_coords else ()
            for mid in itertools.product(range(q), repeat=r - 1):
                for g0 in lows:
                    points.add(tuple(_mul_mod(hm, [g0, *mid, 1], q)[:-1]))
    return points


def _scan_chunk(args) -> tuple[int, int, list[Point], list[Point]]:
    """Counts and mismatches for the points whose u_0 is in first_coords.

    first_coords is a range (one chunk of _plan_chunks), so membership
    tests on it are O(1) and need no set.

    Z and M are built independently (see the module docstring).  Z is
    streamed against the set M, so only M and the mismatches are held.
    Each point in exactly one of them is checked again with the
    per-point predicates, and a disagreement raises DisckitError.
    """
    d, l, q, compiled, first_coords = args
    multiple = _multiple_root_points(d, l + 1, q, first_coords)
    mult_root_count = len(multiple)
    ideal_zero_count = 0
    complete_miss: list[Point] = []
    for point in _ideal_zero_points(d, q, compiled, first_coords):
        ideal_zero_count += 1
        if point in multiple:
            multiple.remove(point)
        else:
            complete_miss.append(point)
    sound_miss = sorted(multiple)
    complete_miss.sort()
    for points, fast in ((sound_miss, (False, True)), (complete_miss, (True, False))):
        for point in points:
            slow = _classify(point, compiled, l + 1, q)
            if slow != fast:
                raise DisckitError(
                    f"the fiberwise scan over F_{q} disagrees with the per-point test at "
                    f"{point}: (ideal zero, multiple root) is {fast} fiberwise, "
                    f"{slow} per point"
                )
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

    Covers every monic degree-d form over F_q (the chart pinning the
    leading coefficient): the generators' zeros are solved fiber by
    fiber, the multiple-root forms are enumerated as h^m * g, and each
    point in one set but not the other is re-tested on its own.  q^d
    must fit the budget (at least 1) and q must be a prime exceeding d.
    Only the monic chart (d, 0) is enumerable for now; passing any other
    chart is an error.
    """
    if budget < 1:
        raise ParameterError(f"the budget must be at least 1, got {budget}")
    if chart is not None and chart != ChartId(d, 0):
        raise ParameterError(
            f"only the monic chart ({d}, 0) is enumerated, got {chart}"
        )
    _check_level(d, l)
    GF(q)
    if q <= d:
        raise ParameterError(f"the field size must exceed the degree, got q={q}, d={d}")
    # q >= 2, so q^d > budget once d >= budget.bit_length(); below that
    # q^d has at most 31*d bits and is cheap to compare
    if d >= budget.bit_length() or q**d > budget:
        raise BudgetError(f"enumerating q^d = {q}^{d} points exceeds the budget {budget}")
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
    up to the given multiplicative tolerance (at least 1), using exact
    integer cross-multiplication so a zero count is handled honestly.
    """
    if tolerance < 1:
        raise ParameterError(f"the tolerance must be at least 1, got {tolerance}")
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
