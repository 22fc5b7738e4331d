"""Sylvester matrices, resultants, and discriminants with declared degrees.

The resultant here is always the raw Sylvester determinant for a pair
of *declared* degrees (m, n).  Declared degrees may exceed the actual
degrees (padding with zero rows is legitimate and meaningful: it
multiplies the resultant by a power of the other leading coefficient),
but never fall below them.  Keeping the declared degree first-class is
what lets symbolic leading coefficients specialize to zero without
changing the matrix shape.

That determinant is the value, not the method.  resultant strips the
padding first by its two laws, then works at the actual degrees: over
Fp by the Euclidean remainder sequence, over ZZ by the subresultant PRS
with every division checked, over QQ by the ZZ sequence on operands
cleared of their denominators, and over a polynomial ring whose operands
have constant coefficients by its base ring's sequence.  Other
polynomial-ring operands reach a Sylvester matrix, under packed
Bareiss; a discriminant of small degree does not call resultant at all
(below).  The determinant at the declared degrees stays as
det_fraction_free of sylvester_matrix, which the tests hold resultant to.

The discriminant of P at declared degree d is the raw determinant
Res_{d,d-1}(P, P'), with no content or sign normalization: for
t^2 + b*t + c it is 4c - b^2.  Determinants commute with ring maps, so
one symbolic determinant per degree serves every polynomial ring: with
a = y_0 + y_1 t + ... + y_n t^n over ZZ[y_0..y_n], the generic raw
discriminant R_n = Res_{n,n-1}(a, a') is computed on first use and
kept in a least-recently-used memo of MAX_SYMBOLIC_DEGREE = 9 entries
(room for R_1..R_9; nothing is computed at import).  discriminant maps
R_d by y_m -> coefficient m of P when the coefficients are polynomials,
d is the actual degree, at most MAPPED_DISCRIMINANT_CUTOFF, and the map
expands few enough terms (MAX_MAP_EXPANSION); the jet discriminant
ideals of jets map the same memo into every chart.

R_n is not taken from its (2n-1) x (2n-1) Sylvester matrix but from
the graded Bezout matrix (Gelfand, Kapranov and Zelevinsky,
Discriminants, Resultants and Multidimensional Determinants, ch. 12):
the n x n Bezout matrix of (a, a') at y_0 = y_n = 1, whose determinant
is (-1)^(n(n-1)/2) R_n there, is expanded over memoised minors with no
division, and y_0 and y_n are restored in each monomial from the two
gradings of R_n (degree 2n-1, weight n^2); R_1 = y_1 is written down.
Degrees above 9 raise ParameterError before any matrix is built.  The
generic Sylvester determinant, _generic_raw_discriminant_sylvester, is
the reference the memoized R_n is tested against.
"""

from __future__ import annotations

import functools
from itertools import combinations
from math import prod

from .errors import DisckitError, ExactDivisionError, ParameterError, Record, RingMismatchError
from .rings import (
    ZZ,
    MultiPoly,
    PolynomialRing,
    RationalRing,
    Ring,
    RingElement,
    RingHom,
    _Packed,
    check_ring,
    from_integral,
    to_integral,
)
from .unipoly import MAX_DEGREE, UniPoly, _rem_mod, _trim, check_unipoly


class SylvesterSpec(Record):
    """Declared degrees (m for the first polynomial, n for the second)."""

    _fields = ("m", "n")

    def _check(self):
        m, n = self.m, self.n
        if type(m) is not int or type(n) is not int:  # a bool is refused too
            raise ParameterError(f"declared degrees must be integers, got {self}")
        if m < 0 or n < 0:
            raise ParameterError(f"declared degrees must be nonnegative, got {self}")


def declared_degree(poly: UniPoly, declared: int | None, which: str) -> int:
    """The degree poly is taken at: declared, or else its actual degree.

    The one rule for declared degrees, shared by the resultants,
    discriminants, strata and the command line: the zero polynomial
    needs one, and it is an int (not a bool), never negative, below the
    actual degree, nor above unipoly.MAX_DEGREE, the bound on every parsed
    degree (a declared degree sizes sylvester_matrix before any entry exists).
    """
    check_unipoly(poly)
    if declared is None:
        if poly.is_zero():
            raise ParameterError(
                f"{which} is the zero polynomial; pass its declared degree"
            )
        return poly.degree
    if type(declared) is not int:  # a bool is refused too
        raise ParameterError(f"the declared degree of {which} must be an integer, got {declared!r}")
    if poly.degree > declared:
        raise ParameterError(
            f"declared degree {declared} of {which} is below its actual degree {poly.degree}"
        )
    if declared < 0:
        raise ParameterError(f"the declared degree of {which} must be nonnegative, got {declared}")
    if declared > MAX_DEGREE:
        raise ParameterError(
            f"declared degree {declared} of {which} exceeds the limit {MAX_DEGREE}"
        )
    return declared


def sylvester_matrix(
    F: UniPoly, G: UniPoly, spec: SylvesterSpec | None = None
) -> list[list[RingElement]]:
    """The (m+n) x (m+n) Sylvester matrix of F and G.

    The first n rows carry the coefficients of F from degree m down to
    0, row i shifted right by i columns; the remaining m rows carry G
    the same way.
    """
    rows = _sylvester_rows(F, G, *_declared_pair(F, G, spec))
    ring = F.coeff_ring
    return [[RingElement(ring, x) for x in row] for row in rows]


def _declared_pair(F: UniPoly, G: UniPoly, spec: SylvesterSpec | None) -> tuple[int, int]:
    """The declared degrees (m, n) of a resultant's operands, which share one line."""
    check_unipoly(F, G)
    if F.coeff_ring != G.coeff_ring or F.var != G.var:
        raise RingMismatchError("resultant arguments live in different polynomial rings")
    m = declared_degree(F, spec.m if spec else None, "the first polynomial")
    n = declared_degree(G, spec.n if spec else None, "the second polynomial")
    return m, n


def _sylvester_rows(F: UniPoly, G: UniPoly, m: int, n: int) -> list[list]:
    """The rows of sylvester_matrix at degrees (m, n), each at least its operand's
    actual degree, as raw values read off the raw coefficient lists."""
    zero = F.coeff_ring.coerce(0)
    size = m + n
    rows = []
    for poly, deg, count in ((F, m, n), (G, n, m)):
        raw = poly._raw
        top = [zero] * (deg + 1 - len(raw)) + raw[::-1]
        for i in range(count):
            rows.append([zero] * i + top + [zero] * (size - deg - 1 - i))
    return rows


def det_fraction_free(matrix: list[list[RingElement]], ring: Ring) -> RingElement:
    """Determinant by elimination on plain values; the matrix is unwrapped once.

    - ZZ: Bareiss on Python ints; every division is checked to be exact.
    - Fp: Gaussian elimination mod p, one inverse per pivot.
    - ZZ[vars], Fp[vars]: Bareiss on packed-monomial dicts of ints
      (rings._Packed) at a width that holds every intermediate.
    - QQ and QQ[vars]: rings.to_integral scales row i into ZZ or ZZ[vars]
      by s_i, the lcm of its denominators (1 for an all-zero row); the
      determinant of the scaled rows there is divided by the product of
      the s_i (rings.from_integral).
    - A matrix of constants over a polynomial ring takes the path of
      its base ring, and its determinant is wrapped as a constant.

    No Fraction arithmetic runs inside an elimination.  Only the
    determinant is wrapped again.  Before any work, a ring that is not a
    Ring raises UnsupportedRingError, a matrix that is not square ParameterError.
    """
    return RingElement(ring, _det_raw(_square_raw(matrix, ring), ring))


def _square_raw(matrix: list[list], ring: Ring) -> list[list]:
    """The raw entries in ring of a square matrix; a bad ring or any other shape raises first."""
    check_ring(ring)
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        lengths = sorted({len(row) for row in matrix})
        raise ParameterError(f"a determinant needs a square matrix, got {n} rows "
                             f"of {lengths} entries")
    return [[ring.coerce(x) for x in row] for row in matrix]


def _det_raw(rows: list[list], ring: Ring):
    """The raw determinant of det_fraction_free, on raw values of ring; the rows are consumed."""
    if not rows:
        return ring.coerce(1)
    p = ring.modulus
    if p is not None:
        return _det_mod(rows, p) if p else _det_int(rows)
    if isinstance(ring, PolynomialRing):
        constants = []
        for row in rows:
            if (values := _constants(row)) is None:
                break
            constants.append(values)
        else:
            return ring._const(_det_raw(constants, ring.base))
        if ring.base.modulus is not None:
            return _det_packed(rows)
    cleared = [to_integral(row, ring) for row in rows]
    det = _det_raw([row for _, row, _ in cleared], cleared[0][0])
    return from_integral([det], prod(s for _, _, s in cleared), ring)[0]


def _constants(values: list[MultiPoly]) -> list | None:
    """The base values when every entry is a constant, else None (at the first that is not)."""
    out = []
    for x in values:
        c = x.constant_raw()
        if c is None:
            return None
        out.append(c)
    return out


def _det_int(rows: list[list[int]]) -> int:
    """Bareiss on ints, in place; a division that leaves a remainder raises."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        row_k = rows[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = rows[i]
            head = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row_i[j] - head * row_k[j], prev)
                if r:
                    raise ExactDivisionError(f"inexact Bareiss division by {prev}")
                row_i[j] = q
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Gaussian elimination mod the prime p, in place."""
    n = len(rows)
    det = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        row_k = rows[k]
        pivot = row_k[k]
        det = det * pivot % p
        inverse = pow(pivot, -1, p)
        for i in range(k + 1, n):
            row_i = rows[i]
            factor = row_i[k] * inverse % p
            if factor:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] - factor * row_k[j]) % p
    return det


def _det_packed(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Bareiss on packed-monomial dicts over ZZ[vars] or Fp[vars].

    Every intermediate of the elimination is a product of two minors,
    so its total degree is at most twice the sum over the rows of the
    largest entry degree in the row; that bound sets the packed width.
    """
    n = len(rows)
    ring = rows[0][0].ring
    bound = 2 * sum(max((x.total_degree() or 0) for x in row) for row in rows)
    arith = _Packed(ring, bound)
    work = [[arith.pack(x) for x in row] for row in rows]
    mul_sub, exact_div = arith.mul_sub, arith.exact_div
    sign = 1
    prev = None
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if work[r][k]), None)
        if pivot_row is None:
            return MultiPoly(ring, {})
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        row_k = work[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = work[i]
            head = row_i[k]
            for j in range(k + 1, n):
                value = mul_sub(pivot, row_i[j], head, row_k[j])
                row_i[j] = exact_div(value, prev) if prev is not None and value else value
        prev = pivot
    det = arith.unpack(work[n - 1][n - 1])
    return det if sign > 0 else det._neg()


def _det_minors(rows: list[list[dict]], arith: _Packed) -> dict:
    """Division-free Laplace expansion of a determinant of packed ZZ[vars] dicts.

    The minor on rows 0..r and the column set S (a bit mask of r + 1
    columns) is expanded along row r into entries of that row times the
    memoised minors of rows 0..r-1 on S minus one column.  Only two
    levels of minors are alive at a time; an n x n matrix takes about
    n * 2^(n-1) packed products and no division, so no coefficient grows
    beyond the minors themselves.

    The packed width is arith's (rings._Packed), over ZZ.  No entry and
    no minor may set a guard bit: every stored exponent stays at or
    below the cap, so a monomial product never carries into the next
    field, and a width chosen too small raises DisckitError.
    """
    for row in rows:
        for x in row:
            arith.check_width(x)
    n = len(rows)
    prev = {0: {0: 1}}
    for r, row in enumerate(rows):
        negated = [{e: -c for e, c in x.items()} for x in row]
        level = {}
        for cols in combinations(range(n), r + 1):
            mask = sum(1 << j for j in cols)
            acc: dict = {}
            get = acc.get
            for p, j in enumerate(cols):
                minor = prev.get(mask ^ (1 << j))
                entry = row[j] if (r + p) % 2 == 0 else negated[j]
                if not minor or not entry:
                    continue
                for e1, c1 in entry.items():
                    for e2, c2 in minor.items():
                        e = e1 + e2
                        acc[e] = get(e, 0) + c1 * c2
            acc = {e: c for e, c in acc.items() if c}
            if acc:
                arith.check_width(acc)
                level[mask] = acc
        prev = level
    return prev.get((1 << n) - 1, {})


def _det_fraction_free_reference(matrix: list[list[RingElement]], ring: Ring) -> RingElement:
    """Bareiss on RingElement wrappers; the reference det_fraction_free is tested against."""
    n = len(matrix)
    if n == 0:
        return ring.one
    work = [list(row) for row in matrix]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if not work[r][k].is_zero()), None)
        if pivot_row is None:
            return ring.zero
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pivot = work[k][k]
        divide = not prev.is_one()
        for i in range(k + 1, n):
            row_i = work[i]
            head = row_i[k]
            for j in range(k + 1, n):
                value = pivot * row_i[j] - head * work[k][j]
                row_i[j] = value.exact_div(prev) if divide else value
            row_i[k] = ring.zero
        prev = pivot
    det = work[n - 1][n - 1]
    return det if sign > 0 else -det


# The largest matrix det_cofactor expands: an n x n expansion takes n! products.
MAX_COFACTOR_SIZE = 8


def det_cofactor(matrix: list[list[RingElement]], ring: Ring) -> RingElement:
    """Division-free cofactor expansion; exponential, for cross-checks only.

    The entries are read as det_fraction_free reads them.  A matrix of
    more than MAX_COFACTOR_SIZE rows raises ParameterError.
    """
    n = len(matrix)
    if n > MAX_COFACTOR_SIZE:
        raise ParameterError(
            f"cofactor expansion of a {n} x {n} matrix exceeds the limit {MAX_COFACTOR_SIZE}"
        )
    return RingElement(ring, _cofactor_raw(_square_raw(matrix, ring), ring))


def _cofactor_raw(rows: list[list], ring: Ring):
    """The raw determinant of det_cofactor, expanded along the first column."""
    total = ring.coerce(0) if rows else ring.coerce(1)
    for i, row in enumerate(rows):
        if not row[0]:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        term = ring._mul(row[0], _cofactor_raw(minor, ring))
        total = ring._add(total, term) if i % 2 == 0 else ring._sub(total, term)
    return total


def resultant(F: UniPoly, G: UniPoly, spec: SylvesterSpec | None = None) -> RingElement:
    """Raw Sylvester determinant of (F, G) at the declared degrees (m, n).

    The padding comes off first, in every ring.  A zero polynomial gives
    a zero row, unless the other side has no rows: Res_{m,0}(0, g0) is
    g0^m.  Otherwise, with a = deg F and b = deg G,

        Res_{a+k,b}(F, G) = (-1)^(b*k) * lc(G)^k * Res_{a,b}(F, G),
        Res_{a,b+k}(F, G) = lc(F)^k * Res_{a,b}(F, G),

    and padding on both sides leaves a zero first column.
    Res_{a,b} is then a remainder sequence on the raw coefficient lists
    when the coefficients are scalars, or constants of a polynomial ring
    (_resultant_scalar); any other polynomial ring runs packed Bareiss on
    the (a+b) x (a+b) Sylvester matrix.  det_fraction_free of
    sylvester_matrix, at the declared degrees, is what this is tested against.
    """
    m, n = _declared_pair(F, G, spec)
    ring = F.coeff_ring
    f, g = F._raw, G._raw
    if m + n == 0:
        return ring.one
    if not f:
        return G.coefficient(0) ** m if n == 0 else ring.zero
    if not g:
        return F.coefficient(0) ** n if m == 0 else ring.zero
    k, l = m - len(f) + 1, n - len(g) + 1
    if k and l:
        return ring.zero
    if ring.modulus is not None or isinstance(ring, RationalRing):
        value = _resultant_scalar(f, g, ring)
    else:
        cf = _constants(f)
        cg = _constants(g) if cf is not None else None
        if cg is None:
            value = _det_raw(_sylvester_rows(F, G, len(f) - 1, len(g) - 1), ring)
        else:
            value = ring._const(_resultant_scalar(cf, cg, ring.base))
    if k:
        value = ring._mul(value, ring._pow(g[-1], k))
        value = ring._neg(value) if n * k % 2 else value
    elif l:
        value = ring._mul(value, ring._pow(f[-1], l))
    return RingElement(ring, value)


def _resultant_scalar(f: list, g: list, ring: Ring):
    """The raw Res_{deg f, deg g} of two nonzero raw lists over ZZ, QQ or Fp.

    Over QQ, with s*F and t*G scaled into ZZ by rings.to_integral,
    Res(F, G) = Res(s*F, t*G) / (s^deg G * t^deg F).
    """
    p = ring.modulus
    if p is not None:
        return _resultant_mod(f, g, p) if p else _resultant_int(f, g)
    (_, f, s), (_, g, t) = to_integral(f, ring), to_integral(g, ring)
    return from_integral([_resultant_int(f, g)], s ** (len(g) - 1) * t ** (len(f) - 1), ring)[0]


def _resultant_mod(a: list[int], b: list[int], p: int) -> int:
    """Res(A, B) over F_p at the actual degrees, by the Euclidean recurrence

        Res(A, B) = (-1)^(deg A * deg B) * lc(B)^(deg A - deg R) * Res(B, R)

    for R = A mod B, down to Res(A, c) = c^deg A for a constant c.
    """
    res = 1
    while len(b) > 1:
        r = _rem_mod(a, b, p)
        if not r:
            return 0
        da, db = len(a) - 1, len(b) - 1
        if da & db & 1:
            res = -res
        res = res * pow(b[-1], da - len(r) + 1, p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def _resultant_int(a: list[int], b: list[int]) -> int:
    """Res(A, B) over ZZ at the actual degrees, by the subresultant PRS.

    Collins' and Brown-Traub's sequence in the form of Cohen's Algorithm
    3.3.7, without the content: each pseudo-remainder is divided by
    g * h^delta, and the last nonzero subresultant is lc(B)^deg A / h^(deg A - 1).
    Every division goes through ZZ._exact_div, which raises
    ExactDivisionError on a remainder.
    """
    exact = ZZ._exact_div
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) & (len(b) - 1) & 1:
            sign = -1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        d = g * h**delta
        a, b = b, r if d == 1 else [exact(x, d) for x in r]
        g = a[-1]
        if delta:
            h = exact(g**delta, h ** (delta - 1))
    da = len(a) - 1
    return sign * exact(b[0] ** da, h ** max(da - 1, 0))


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lc(B)^(deg A - deg B + 1) * A by B, on ints, trimmed."""
    lc = b[-1]
    db = len(b) - 1
    r = list(a)
    steps = len(a) - db
    while len(r) > db:
        c = r.pop()
        shift = len(r) - db
        r[:shift] = [lc * x for x in r[:shift]]
        r[shift:] = [lc * x - c * y for x, y in zip(r[shift:], b)]
        steps -= 1
        _trim(r)
    if steps and r:
        scale = lc**steps
        r = [scale * x for x in r]
    return r


def bezout_certificate(
    F: UniPoly, G: UniPoly, spec: SylvesterSpec | None = None
) -> tuple[UniPoly, UniPoly, RingElement]:
    """Cofactors (U, V, r) with U*F + V*G = r, r = resultant(F, G, spec).

    U and V come from the cofactor expansion of the Sylvester matrix
    along its last column (the classical proof that the resultant lies
    in the ideal (F, G)), each minor a determinant of raw rows
    (_det_raw), so the identity holds over any coefficient ring and can
    be re-verified independently by multiplying out.
    """
    m, n = _declared_pair(F, G, spec)
    size = m + n
    if size == 0:
        raise ParameterError(
            "the empty Sylvester matrix carries no cofactor identity"
        )
    ring = F.coeff_ring
    rows = _sylvester_rows(F, G, m, n)
    cofactors = []
    for k in range(size):
        value = _det_raw([row[:-1] for i, row in enumerate(rows) if i != k], ring)
        cofactors.append(value if (k + size - 1) % 2 == 0 else ring._neg(value))
    U = UniPoly(ring, F.var, [cofactors[n - 1 - e] for e in range(n)])
    V = UniPoly(ring, F.var, [cofactors[size - 1 - e] for e in range(m)])
    return U, V, resultant(F, G, spec)


MAX_SYMBOLIC_DEGREE = 9


@functools.lru_cache(maxsize=MAX_SYMBOLIC_DEGREE)
def _generic_raw_discriminant(n: int) -> MultiPoly:
    """R_n = Res_{n,n-1}(a, a') for a = y_0 + y_1 t + ... + y_n t^n.

    For n >= 2 it is read off the n x n Bezout matrix of (a, a') at
    y_0 = y_n = 1, over ZZ[y_1..y_{n-1}]: its determinant, expanded over
    memoised minors with no division (_det_minors), is
    (-1)^(n(n-1)/2) R_n at y_0 = y_n = 1.  R_n is homogeneous of degree
    2n-1 and isobaric of weight n^2 (y_k has weight k), so each monomial
    gets back e_n = (n^2 - sum k e_k) / n and e_0 = 2n-1 - sum e_k - e_n;
    a remainder or a negative exponent raises DisckitError.  R_1 is
    Res_{1,0}(a, y_1) = y_1; _generic_raw_discriminant_sylvester is the
    reference for every n.

    n is capped at MAX_SYMBOLIC_DEGREE (R_9 has 26 059 terms and takes
    about 1.5 s; R_10 has 133 881 and takes about 20 s and 350 MiB):
    above it ParameterError is raised before any matrix is built.

    The result is shared by every caller through the memo, and
    MultiPoly.terms is a mutable dict: callers map or divide it into a
    fresh polynomial and never hand it out as is.
    """
    if n > MAX_SYMBOLIC_DEGREE:
        raise ParameterError(
            f"the generic discriminant of degree {n} exceeds the limit {MAX_SYMBOLIC_DEGREE}"
        )
    ring = PolynomialRing(ZZ, tuple(f"y{k}" for k in range(n + 1)))
    if n == 1:
        return MultiPoly(ring, {(0, 1): 1})
    inner = PolynomialRing(ZZ, tuple(f"y{k}" for k in range(1, n)))
    arith = _Packed(inner, 2 * n - 1)
    det = _det_minors(_bezout_matrix(n, arith), arith)
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    terms = {}
    for key, c in det.items():
        exps = arith._exponents(key)
        e_n, rest = divmod(n * n - sum(k * e for k, e in enumerate(exps, 1)), n)
        e_0 = 2 * n - 1 - sum(exps) - e_n
        if rest or e_n < 0 or e_0 < 0:
            raise DisckitError(f"a term of R_{n} breaks its degree or its weight")
        terms[(e_0,) + exps + (e_n,)] = sign * c
    return MultiPoly(ring, terms)


def _bezout_matrix(n: int, arith: _Packed) -> list[list[dict]]:
    """The n x n Bezout matrix of (a, a') at y_0 = y_n = 1, as packed dicts.

    With F the coefficients of a and G those of a' padded with one zero,
    B[i][j] = sum over k <= min(i, n-1-j) of
    F[j+k+1] G[i-k] - F[i-k] G[j+k+1].
    Each F[k] and G[k] is one packed monomial times an integer.
    """
    unit = [arith._key(tuple(int(k == m) for k in range(1, n))) for m in range(1, n)]
    F = [(0, 1)] + [(key, 1) for key in unit] + [(0, 1)]
    G = [(key, k) for k, key in enumerate(unit, 1)] + [(0, n), (0, 0)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry: dict = {}
            for k in range(min(i, n - 1 - j) + 1):
                for (fe, fc), (ge, gc), s in (
                    (F[j + k + 1], G[i - k], 1),
                    (F[i - k], G[j + k + 1], -1),
                ):
                    e = fe + ge
                    entry[e] = entry.get(e, 0) + s * fc * gc
            row.append({e: c for e, c in entry.items() if c})
        rows.append(row)
    return rows


def _generic_raw_discriminant_sylvester(n: int) -> MultiPoly:
    """Reference for _generic_raw_discriminant: the (2n-1) x (2n-1) Sylvester determinant."""
    ring = PolynomialRing(ZZ, tuple(f"y{k}" for k in range(n + 1)))
    a = UniPoly(ring, "t", ring.variables())
    return resultant(a, a.derivative(), SylvesterSpec(n, n - 1)).value


def _generic_discriminant_image(P: UniPoly, d: int) -> RingElement:
    """Res_{d,d-1}(P, P') as the image of R_d under y_m -> coefficient m of P,
    d the actual degree of P, so that P._raw holds the d + 1 images.

    R_d is a polynomial identity over ZZ, so the map is right over every
    coefficient ring, also when P' loses degree in characteristic p.
    Over QQ[vars] the coefficients are scaled by one s to s*P over ZZ[vars]
    (rings.to_integral), so the map runs on ints, and R_d is homogeneous
    of degree 2d-1: the image is divided back by s^(2d-1) (from_integral).
    The image is a fresh polynomial; the memoized R_d is never handed out.
    """
    generic = _generic_raw_discriminant(d)
    ring = P.coeff_ring
    if not isinstance(ring.base, RationalRing):
        return RingHom(generic.ring, ring, dict(zip(generic.ring.names, P._raw)))(generic)
    twin, images, s = to_integral(P._raw, ring)
    image = RingHom(generic.ring, twin, dict(zip(generic.ring.names, images)))(generic)
    return RingElement(ring, from_integral([image.value], s ** (2 * d - 1), ring)[0])


# The largest degree discriminant maps R_d for.  One discriminant cold, in
# a fresh process over ZZ[a,b] with the build of R_d included (2-core
# host, CPython 3.11): at d = 6 the map takes 7-12 ms against 16-22 ms
# for packed Bareiss; at d = 7 it takes 33 ms against 42 ms with one-term
# coefficients but 55 ms against 48 ms with some two-term ones.
MAPPED_DISCRIMINANT_CUTOFF = 6

# The most term products per term of R_d that the map may expand.  A term
# y_0^e_0 ... y_d^e_d of R_d multiplies out to at most prod |c_m|^e_m
# terms, |c_m| the terms of coefficient m of P; measured against packed
# Bareiss over ZZ[a,b] and QQ[a,b] for d = 2..7, the map wins up to about
# 45 per term of R_d and loses from about 130.
MAX_MAP_EXPANSION = 64


def _map_pays(raw: list[MultiPoly], d: int) -> bool:
    """Whether R_d mapped into P (raw coefficients, actual degree d) beats packed Bareiss.

    One-term coefficients map each term of R_d to one term, so the map
    pays as soon as one coefficient is not a constant; otherwise the
    expansion bound of MAX_MAP_EXPANSION decides.
    """
    sizes = [len(c.terms) for c in raw]
    if max(sizes) <= 1:
        return _constants(raw) is None
    generic = _generic_raw_discriminant(d)
    budget = MAX_MAP_EXPANSION * len(generic.terms)
    for exps in generic.terms:
        budget -= prod(map(pow, sizes, exps))
        if budget < 0:
            return False
    return True


def discriminant(P: UniPoly, degree: int | None = None) -> RingElement:
    """Raw discriminant Res_{d,d-1}(P, P') at declared degree d >= 1.

    Over a polynomial ring, when d is the actual degree and at most
    MAPPED_DISCRIMINANT_CUTOFF, some coefficient is not a constant and
    the map stays within MAX_MAP_EXPANSION (_map_pays), this is the
    memoized generic R_d under y_m -> coefficient m of P
    (_generic_discriminant_image), and no determinant runs.  Every other
    input is resultant(P, P') at (d, d-1): a padded P by the padding
    laws, scalar or constant coefficients by a remainder sequence, and a
    larger d or larger coefficients by packed Bareiss.
    """
    d = declared_degree(P, degree, "the polynomial")
    if d < 1:
        raise ParameterError(f"the discriminant needs declared degree >= 1, got {d}")
    if (
        d == P.degree
        and d <= MAPPED_DISCRIMINANT_CUTOFF
        and isinstance(P.coeff_ring, PolynomialRing)
        and _map_pays(P._raw, d)
    ):
        return _generic_discriminant_image(P, d)
    return resultant(P, P.derivative(), SylvesterSpec(d, d - 1))


def classify_discriminant(P: UniPoly, degree: int | None = None) -> tuple[str, RingElement]:
    """Separability verdict from the discriminant.

    Returns (verdict, value) where the verdict is "separable" when the
    discriminant is a unit, "inseparable" when it is zero, and
    "neither" otherwise (the base then splits into the locus where the
    value is inverted and the locus where it vanishes).  Every supported
    coefficient ring is an integral domain, so zero is its only
    nilpotent and the test for "inseparable" is the test for zero.
    """
    value = discriminant(P, degree)
    if value.is_unit():
        return "separable", value
    if value.is_zero():
        return "inseparable", value
    return "neither", value
