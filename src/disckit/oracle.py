"""Finite-field verification of discriminant loci over small prime fields.

The zero set Z of the level-l discriminant ideal on the monic chart
contains the locus M of forms with a root of multiplicity at least
m = l+1, since each generator is U*f^(j) + V*f^(j+1) for polynomials U
and V; Z can be larger (over F_7 at d = 4, l = 2 it has 91 points
against 49).  Over a prime field F_q both sets are finite, so the
containment and the difference are checkable.  Both sets are byte maps
over the points in row-major order (u_0 slowest), one byte per point,
built independently of each other, one block of whole u_0 values at a
time (_BLOCK points):

* Z, the zero set of the generators, fiber by fiber: fix every
  coefficient but the last two, specialise the generators to
  polynomials in u_{d-2} and u_{d-1}, and evaluate them at every point
  of the grid F_q x F_q at once.  The values at the q^2 points sit in
  the lanes of packed ints, in row-major order and in blocks of whole
  rows of up to _LANES (4096) lanes: a multiply-add per monomial sums a
  generator in every lane, and two masks and an add test all lanes for
  divisibility by q (Lemire's test, see _Lanes).  The test leaves one
  byte per lane, so a fiber's slice of Z is one slice of bytes.  At
  degree 2 only u_1 shares the lanes.  A generator that is a nonzero
  constant mod q leaves Z empty, and nothing is scanned.
* M, the forms with a root of multiplicity >= m in the algebraic
  closure, enumerated directly as the products h^m * g with h monic
  irreducible; over the perfect field F_q these are exactly those forms.
  Their bytes are set by index, a line of them at a time.

Each slice of Z is compared with the same slice of M by one ==, and
points are built only where the two differ.  Every point of the
symmetric difference is tested again with the per-point predicates
(evaluating the generators, and a gcd chain of derivatives that knows
nothing about resultants); a disagreement raises DisckitError.  Z costs
q^d lane evaluations spread over q^(d-2) fibers (q at degree 2), and the
memory beyond the lanes is one block's byte map, whatever |Z| and |M|
are.  Mismatch points are returned in sorted order, split by direction,
so a failure is reproducible and attributable.

Set DISCKIT_THREADS=n to spread the scan over n worker processes
(capped at the CPU count, at q and by the predicted work, so a scan too
small to repay a pool starts none); chunks are merged in coefficient
order, so reports are byte-identical whatever the worker count.  The
process-pool machinery (concurrent.futures, multiprocessing) is imported
only when a scan starts a pool, so importing disckit does not load it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from fractions import Fraction
from operator import getitem

from .errors import (
    BudgetError,
    DisckitError,
    ParameterError,
    Record,
    UnsupportedRingError,
    check_int,
)
from .jets import ChartId, _check_level, discriminant_ideal
from .rings import GF, PrimeField
from .unipoly import UniPoly, _deriv_mod, _gcd_mod, _mul_mod, _trim, check_unipoly

DEFAULT_BUDGET = 10_000_000


def coeffs_mod(P: UniPoly, p: int) -> list[int]:
    """Ascending coefficient list of P reduced mod p.

    Integer and residue coefficients reduce as integers; a rational a/b
    reduces to a * b^-1 mod p, and a denominator divisible by p raises
    ParameterError.
    """
    check_unipoly(P)
    ring = GF(p)  # validates the modulus
    return _trim([ring.coerce(c) for c in P._raw])


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
    if m > len(f) - 1:  # no root is more multiple than the degree
        return False
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
    check_unipoly(f)
    check_int(m, "the multiplicity")
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
    if ideal.ring.names != tuple(f"u{k}" for k in range(d)):
        raise DisckitError(f"the monic chart ring {ideal.ring} is not over u0..u{d - 1}")
    compiled = []
    for gen in ideal.gens:
        terms = []
        for exps, c in sorted(gen.terms.items()):
            cq = c % q
            if cq:
                terms.append((exps, cq))
        compiled.append(terms)
    return compiled


def _power_table(q: int, compiled) -> list[list[int]]:
    """powers[a][e] = a^e mod q, for a in F_q and e up to the generators' largest exponent.

    Empty when no generator has a variable: no power is read then, and a
    large q (possible only at d = 1) builds nothing of size q.
    """
    top = max((e for terms in compiled for exps, _ in terms for e in exps), default=0)
    if not top:
        return []
    powers = []
    for a in range(q):
        row = [1]
        for _ in range(top):
            row.append(row[-1] * a % q)
        powers.append(row)
    return powers


Point = tuple[int, ...]


def _eval_terms(terms, rows: list[list[int]], q: int) -> int:
    """A generator's value mod q at a point, rows[t] its u_t's row of _power_table."""
    total = 0
    for exps, c in terms:
        total += c * math.prod(map(getitem, rows, exps))
    return total % q


class VerifyReport(Record):
    """Outcome of one exhaustive locus comparison over F_q.

    Mismatch entries are coefficient tuples (u_0, ..., u_{d-1}) of
    monic forms, sorted lexicographically.  soundness_mismatches are
    the points with a multiple-enough root that the ideal misses;
    completeness_mismatches are points where the ideal vanishes without
    the required root; mismatches is their union.
    """

    _fields = ("d", "l", "q", "chart", "ideal_zero_count", "mult_root_count", "mismatches",
               "soundness_mismatches", "completeness_mismatches")


def _classify(point: Point, compiled, m: int, q: int, powers) -> tuple[bool, bool]:
    """(the generators vanish, a root of multiplicity >= m) at one point.

    powers is _power_table(q, compiled).
    """
    rows = [powers[x] for x in point] if powers else []
    ideal_zero = all(_eval_terms(terms, rows, q) == 0 for terms in compiled)
    return ideal_zero, _has_mult_root_ints(list(point) + [1], m, q)


def _scan_chunk_brute(args) -> tuple[int, int, list[Point], list[Point]]:
    """Reference scan: classify each of the points one at a time."""
    d, l, q, compiled, first_coords = args
    powers = _power_table(q, compiled)
    ideal_zero_count = 0
    mult_root_count = 0
    sound_miss: list[Point] = []
    complete_miss: list[Point] = []
    for u0 in first_coords:
        for rest in itertools.product(range(q), repeat=d - 1):
            point = (u0,) + rest
            ideal_zero, mult_root = _classify(point, compiled, l + 1, q, powers)
            if ideal_zero:
                ideal_zero_count += 1
            if mult_root:
                mult_root_count += 1
            if mult_root and not ideal_zero:
                sound_miss.append(point)
            elif ideal_zero and not mult_root:
                complete_miss.append(point)
    return ideal_zero_count, mult_root_count, sound_miss, complete_miss


_LANES = 4096


class _Lanes:
    """Packed evaluation over F_q of sums of monomials at many points at once.

    A block holds whole rows of a grid (up to _LANES points, or one row),
    each point in a lane of S bits of one int, and per monomial a column
    c * sum_i (its value at point i, mod q) 2^(S i).  With coefficients
    below q, a sum of at most T monomials (T = terms) is below 2^W at every
    point, W the bit length of T(q-1)^2, and is summed exactly in its
    lane.  Its zero test mod q is Lemire, Kaser and Kurz's divisibility
    test (Faster Remainder by Direct Computation, 2019):
    with N = 2W and c = ceil(2^N/q), q divides v < 2^W iff (v*c mod 2^N) < c.
    A sum's lanes hold v_i*c < 2^(N+W); adding 2^N - c to each lane's low N
    bits sets its bit N exactly when v_i is not divisible by q.  S is
    N + W + 1 rounded up to whole bytes, so no lane carries into the next
    and each lane's bit N sits in a byte of its own: the zero lanes are read
    off one slice of the bytes of the flags.
    """

    def __init__(self, q: int, terms: int):
        self.width = (terms * (q - 1) ** 2).bit_length()
        self.n = 2 * self.width
        self.size = (self.n + self.width + 8) // 8  # S / 8, the bytes of a lane
        self.mark = 1 << self.n % 8  # the byte of a lane whose bit N is set
        self.c = -(-(1 << self.n) // q)
        self.q = q

    def _spread(self, values: list[int]) -> int:
        """sum_i values[i] 2^(S i), for values below 2^S."""
        size = self.size
        if max(values) < 256:  # one byte each, placed by one slice assignment
            lanes = bytearray(size * len(values))
            lanes[::size] = bytes(values)
            return int.from_bytes(lanes, "little")
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")

    def block(self, points: range, table):
        """(points, columns, low, add, high) for lanes holding table[m][i] in column m."""
        columns = [self.c * self._spread(row) for row in table]
        ones = self._spread([1] * len(points))
        full = 1 << self.n
        return points, columns, (full - 1) * ones, (full - self.c) * ones, full * ones

    def blocks(self, k: int, monomials: list[tuple[int, ...]]):
        """The blocks of the monomials in k variables over F_q^k.

        Lane n holds the point whose k base-q digits are n, so F_q^k is in
        row-major order.  A block is a run of whole rows of q^(k-1) lanes:
        as many rows as fit in _LANES, but at least one.  Its column m
        holds monomials[m], built one at a time.
        """
        q = self.q
        inner = q ** (k - 1)
        rows = max(1, _LANES // inner)
        for start in range(0, q, rows):
            axes = [range(q)[start:start + rows]] + [range(q)] * (k - 1)
            table = (self._monomial(axes, exps) for exps in monomials)
            yield self.block(range(start * inner, axes[0].stop * inner), table)

    def _monomial(self, axes: list[range], exps: tuple[int, ...]) -> list[int]:
        """The values mod q of prod x_t^exps[t] over the grid of the axes, row-major."""
        q = self.q
        values = [1]
        for axis, e in zip(axes, exps):
            powers = [pow(x, e, q) for x in axis]
            values = [v * p % q for v in values for p in powers]
        return values

    def zeros(self, polys: list[tuple[list[int], list[int]]], block) -> bytes:
        """The byte map of the block's lanes where every polynomial vanishes mod q.

        Byte i is self.mark when every polynomial vanishes at lane i, and 0
        otherwise.  Each polynomial is a pair (column indices,
        coefficients) of equal lengths.
        """
        points, columns, low, add, high = block
        flags = 0
        for cols, coeffs in polys:
            value = 0
            for m, c in zip(cols, coeffs):
                if c:
                    value += c * columns[m]
            flags |= ((value & low) + add) & high
            if flags == high:
                break
        return self.marked(high ^ flags, len(points))

    def marked(self, flags: int, count: int) -> bytes:
        """One byte per lane of count: self.mark where the lane's bit N, its
        only possible bit, is set in flags, and 0 elsewhere."""
        return flags.to_bytes(self.size * count, "little")[self.n // 8::self.size]


def _fiber_plan(compiled, depth: int):
    """Maps that specialise the generators one coordinate at a time.

    The generators are flattened into one coefficient vector over keys
    (generator, e_0, ..., e_{d-1}).  The map of level j sends each key
    to its exponent of u_j and to the index of the key with that
    exponent dropped, so substituting u_j = a is one pass of
    multiply-adds.  Returns the maps of u_0..u_{depth-1} and the final
    keys (generator, e_depth, ..., e_{d-1}).
    """
    keys = [(g,) + exps for g, terms in enumerate(compiled) for exps, _ in terms]
    levels = []
    for _ in range(depth):
        shorter = sorted({key[:1] + key[2:] for key in keys})
        index = {key: j for j, key in enumerate(shorter)}
        levels.append((len(shorter), [(key[1], index[key[:1] + key[2:]]) for key in keys]))
        keys = shorter
    return levels, keys


def _fibers(levels, powers, q: int, vec: list[int], coords, depth: int = 0):
    """Yields vec specialised at every prefix (u_0, ..., u_{len(levels)-1}).

    Each level of _fiber_plan substitutes one more coordinate, the first
    over coords and the others over range(q), so the prefixes come in
    row-major order.  Not a closure: a recursive one is a reference cycle
    that keeps the caller's lanes until gc runs.
    """
    size, moves = levels[depth]
    for a in coords:
        pw = powers[a]
        out = [0] * size
        for c, (e, j) in zip(vec, moves):
            if c:
                out[j] += c * pw[e]
        sub = [c % q for c in out]
        if depth + 1 < len(levels):
            yield from _fibers(levels, powers, q, sub, range(q), depth + 1)
        else:
            yield sub


def _lane_coords(d: int) -> int:
    """k, the number of last coordinates that share the lanes in _IdealZeros."""
    return 2 if d >= 3 else 1


class _IdealZeros:
    """Z of one chunk as byte maps, one per fiber and block of lanes.

    The last k = _lane_coords(d) coordinates share the lanes, and plan is
    _fiber_plan(compiled, d - k).  Each fiber over u_0..u_{d-k-1}
    specialises the generators to polynomials in the last k coordinates
    and evaluates them at every point of F_q^k at once on packed lanes
    (see _Lanes), in blocks built once per chunk.  At d = 1 the plan has
    no level, but no scan gets that far: the only level is l = d, whose
    generator is the nonzero constant 1.
    """

    def __init__(self, d: int, q: int, compiled, plan, powers):
        # a nonzero constant generator vanishes nowhere: no lane is built,
        # and mark is any nonzero byte
        self.blocks, self.mark = [], 1
        if any(len(terms) == 1 and not any(terms[0][0]) for terms in compiled):
            return
        levels, last_keys = plan
        monomials = sorted({key[1:] for key in last_keys})
        column = {exps: m for m, exps in enumerate(monomials)}
        # last_keys are sorted by generator, so each generator's keys are one slice
        self.slices, start = [], 0
        for _, group in itertools.groupby(last_keys, key=lambda key: key[0]):
            cols = [column[key[1:]] for key in group]
            self.slices.append((cols, start, start + len(cols)))
            start += len(cols)
        self.lanes = _Lanes(q, max((len(cols) for cols, _, _ in self.slices), default=0))
        self.blocks = list(self.lanes.blocks(_lane_coords(d), monomials))
        self.mark = self.lanes.mark
        self.levels, self.powers, self.q = levels, powers, q
        self.vec = [c for terms in compiled for _, c in terms]

    def marks(self, coords: range):
        """Yields the byte maps of Z (see _Lanes.zeros) over the points with
        u_0 in coords, in row-major order; none when Z is empty."""
        if not self.blocks:
            return
        for sub in _fibers(self.levels, self.powers, self.q, self.vec, coords):
            polys = [(cols, sub[lo:hi]) for cols, lo, hi in self.slices]
            for block in self.blocks:
                yield self.lanes.zeros(polys, block)


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


def _multiple_root_marks(d: int, q: int, coords: range, factors, mark: int) -> bytearray:
    """M as a byte map over the points with u_0 in coords, in row-major order.

    Byte i is mark when the i-th point (see _point) is a form h^m * g,
    h^m in factors and g monic of degree r = d - m deg h, and 0
    elsewhere.  At r = 0 that is the one point h^m.  Otherwise the points
    lie on lines: g's coefficient g_{r-1} runs over F_q for each choice of
    g_0..g_{r-2} whose u_0 = h(0)^m g_0 is in coords, and at r = 1, where
    g_{r-1} is g_0, over those g_0 alone.  So a line's length does not
    depend on the block.  Along a line the last m deg h + 1 coordinates
    move by multiples of h^m, and its indices take one list pass per
    moved coordinate, the wrap mod q read off a table.
    """
    width = q ** (d - 1)
    out = bytearray(len(coords) * width)
    weights = [q ** (d - 1 - j) for j in range(d)]
    shift = coords.start * width
    wraps = None
    for hm in factors:
        r = d + 1 - len(hm)
        if r == 0:
            if hm[0] in coords:
                out[sum(c * w for c, w in zip(hm, weights)) - shift] = mark
            continue
        if wraps is None:  # the first line: wraps[j][x] is (x mod q) times u_j's weight
            wraps = [[x % q * w for x in range(2 * q - 1)] for w in weights]
        if hm[0]:
            inv = pow(hm[0], -1, q)
            lows = [u0 * inv % q for u0 in coords]
        else:
            lows = range(q) if 0 in coords else ()
        line = lows if r == 1 else range(q)
        moves = [[s * c % q for s in line] for c in hm]
        for g in itertools.product(lows, *[range(q)] * (r - 2)) if r > 1 else [()]:
            base = _mul_mod(hm, [*g, 0, 1], q)
            index = [sum(b * w for b, w in zip(base[:r - 1], weights)) - shift] * len(line)
            for j, move in enumerate(moves, r - 1):
                wrap = wraps[j][base[j]:base[j] + q]
                index = [i + wrap[s] for i, s in zip(index, move)]
            for i in index:
                out[i] = mark
    return out


def _scan_tables(d: int, l: int, q: int, compiled):
    """What every chunk of one scan shares: (plan, powers, factors).

    plan is Z's _fiber_plan, powers the _power_table that Z's fibers and
    the per-point re-test read, and factors M's h^m (m = l + 1) for the
    monic irreducibles h with m * deg h <= d.
    """
    m = l + 1
    factors = []
    for of_degree in _monic_irreducibles(d // m, q):
        for h in of_degree:
            hm = h
            for _ in range(m - 1):
                hm = _mul_mod(hm, h, q)
            factors.append(hm)
    return _fiber_plan(compiled, d - _lane_coords(d)), _power_table(q, compiled), factors


# Points per block of whole u_0 values (at least one value): M's byte map
# of one block is the largest thing a scan holds beyond its lanes.
_BLOCK = 1 << 22


def _point(coords: range, q: int, d: int, index: int) -> Point:
    """The point at index in the row-major order of the points with u_0 in coords."""
    digits = []
    for _ in range(d - 1):
        index, x = divmod(index, q)
        digits.append(x)
    return (coords[index], *reversed(digits))


def _positions(marks, mark: int, start: int = 0):
    """Yields the indices from start on where marks holds the byte mark."""
    i = marks.find(mark, start)
    while i >= 0:
        yield i
        i = marks.find(mark, i + 1)


def _scan_chunk(args, tables=None) -> tuple[int, int, list[Point], list[Point]]:
    """Counts and mismatches for the points whose u_0 is in first_coords.

    first_coords is a range (one chunk of _plan_chunks), so membership
    tests on it are O(1) and need no set.  tables is _scan_tables of the
    scan, built here when not given.

    Z and M are built independently (see the module docstring), as byte
    maps over one block of whole u_0 values at a time.  Each of Z's
    slices is compared with M's by one ==, and points are built only
    where they differ, found from the XOR of the two slices.  Each such
    point is checked again with the per-point predicates, and a
    disagreement raises DisckitError.  Points come in row-major order,
    so both lists are sorted.
    """
    d, l, q, compiled, first_coords = args
    plan, powers, factors = tables or _scan_tables(d, l, q, compiled)
    zeros = _IdealZeros(d, q, compiled, plan, powers)
    mark = zeros.mark
    rows = max(1, _BLOCK // q ** (d - 1))
    ideal_zero_count = mult_root_count = 0
    sound_miss: list[Point] = []
    complete_miss: list[Point] = []
    for start in range(0, len(first_coords), rows):
        coords = first_coords[start:start + rows]
        multiple = _multiple_root_marks(d, q, coords, factors, mark)
        mult_root_count += multiple.count(mark)
        offset = 0
        for ours in zeros.marks(coords):
            stop = offset + len(ours)
            theirs = multiple[offset:stop]
            ideal_zero_count += ours.count(mark)
            if ours != theirs:
                diff = int.from_bytes(ours, "little") ^ int.from_bytes(theirs, "little")
                for i in _positions(diff.to_bytes(stop - offset, "little"), mark):
                    misses = complete_miss if ours[i] else sound_miss
                    misses.append(_point(coords, q, d, offset + i))
            offset = stop
        # past Z's last byte map (all of the block when a generator is a
        # nonzero constant) Z is empty, so every point of M there is a miss
        sound_miss.extend(_point(coords, q, d, i) for i in _positions(multiple, mark, offset))
    for points, fast in ((sound_miss, (False, True)), (complete_miss, (True, False))):
        for point in points:
            slow = _classify(point, compiled, l + 1, q, powers)
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


# The least predicted work per worker process, counted as q^d points times
# the generators' terms.  On a shared 2-CPU host a forced pool of two lost
# to one worker up to 1.75e6 in every set of runs (15-23 ms alone, 30-44 ms
# on two).  From 4.5e6 to 3e7 it won in some sets (75 -> 56 ms at 4.5e6)
# and lost in others (62 -> 75 ms), alike on u_{d-1} rows and on the grid;
# at 4.7e7 it won (613 -> 352 ms).
_POOL_WORK = 2_000_000


def _plan_chunks(q: int, threads: int, work: int) -> list[range]:
    """Split the first coordinate range(q) into one contiguous chunk per worker.

    The worker count is threads capped by q, by the CPU count and by the
    predicted work (one worker per _POOL_WORK), so no setting asks for
    more processes than the machine has cores, and a scan too small to
    repay a pool gets one chunk.  Chunk sizes differ by at most one.
    Starts no process.
    """
    workers = min(threads, q, max(1, work // _POOL_WORK))
    if workers > 1:  # os.cpu_count reads the system each call
        workers = min(workers, os.cpu_count() or 1)
    bounds = [q * k // workers for k in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _check_scan(d: int, l: int, q: int, budget: int) -> None:
    """Refuse a scan of F_q before any work: budget >= 1, a valid level,
    q a prime exceeding d, and q^d within the budget."""
    check_int(budget, "the budget")
    if budget < 1:
        raise ParameterError(f"the budget must be at least 1, got {budget}")
    _check_level(d, l)
    GF(q)
    if q <= d:
        raise ParameterError(f"the field size must exceed the degree, got q={q}, d={d}")
    # q >= 2, so q^d > budget once d >= budget.bit_length(); below that
    # q^d has at most 31*d bits and is cheap to compare
    if d >= budget.bit_length() or q**d > budget:
        raise BudgetError(f"enumerating q^d = {q}^{d} points exceeds the budget {budget}")


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
    point in one set but not the other is re-tested on its own.  The
    count of multiple-root forms is held to its closed form, q^(d-l)
    (none at l = d); any other count raises DisckitError.  q^d must fit
    the budget (at least 1) and q must be a prime exceeding d.
    Only the monic chart (d, 0) is enumerable for now; passing any other
    chart is an error.
    """
    if chart is not None and chart != ChartId(d, 0):
        raise ParameterError(
            f"only the monic chart ({d}, 0) is enumerated, got {chart}"
        )
    _check_scan(d, l, q, budget)
    threads = _thread_count()
    compiled = _compile_gens(d, l, q)
    plan = _plan_chunks(q, threads, q**d * sum(map(len, compiled)))
    chunks = [(d, l, q, compiled, first_coords) for first_coords in plan]
    if len(chunks) == 1:
        results = [_scan_chunk(chunks[0])]
    else:
        # loaded here, not at import: it pulls in multiprocessing, socket,
        # pickle, logging and subprocess, which no other path needs
        from concurrent.futures import ProcessPoolExecutor

        scan = functools.partial(_scan_chunk, tables=_scan_tables(d, l, q, compiled))
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(scan, chunks))
    ideal_zero_count = sum(r[0] for r in results)
    mult_root_count = sum(r[1] for r in results)
    # The monic forms of degree d over F_q with a root of multiplicity at
    # least l + 1 number q^(d - l) for l < d, and none at l = d.
    expected = q ** (d - l) if l < d else 0
    if mult_root_count != expected:
        raise DisckitError(
            f"the scan over F_{q} found {mult_root_count} forms with a root of multiplicity "
            f">= {l + 1}, but there are {expected}"
        )
    sound_miss: list[Point] = []
    complete_miss: list[Point] = []
    for r in results:  # each chunk's lists are sorted, and chunks cover ascending u_0
        sound_miss.extend(r[2])
        complete_miss.extend(r[3])
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


class GrowthReport(Record):
    """Point-count growth comparison across two field sizes.

    ratio is the observed count_q2/count_q1 (None when count_q1 = 0);
    expected is (q2/q1)^(d-l), the growth a (d-l)-dimensional locus
    would show.
    """

    _fields = ("d", "l", "q1", "q2", "count_q1", "count_q2", "ratio", "expected",
               "tolerance", "within_tolerance")


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
    up to the given multiplicative tolerance (at least 1), comparing the
    Fractions exactly; with a zero count it holds only if both are zero.
    Both fields pass the checks of verify_discriminant_locus before
    either is scanned.
    """
    check_int(tolerance, "the tolerance")
    if tolerance < 1:
        raise ParameterError(f"the tolerance must be at least 1, got {tolerance}")
    if q2 <= q1:
        raise ParameterError(f"the second field must be larger, got q1={q1}, q2={q2}")
    for q in (q1, q2):
        _check_scan(d, l, q, budget)
    r1 = verify_discriminant_locus(d, l, q1, budget=budget)
    r2 = verify_discriminant_locus(d, l, q2, budget=budget)
    c1, c2 = r1.ideal_zero_count, r2.ideal_zero_count
    expected = Fraction(q2, q1) ** (d - l)
    observed = Fraction(c2, c1) if c1 else None
    if c1 and c2:
        within = observed <= tolerance * expected and expected <= tolerance * observed
    else:
        within = c1 == c2
    return GrowthReport(d, l, q1, q2, c1, c2, observed, expected, tolerance, within)
