"""Sylvester matrices, resultants, and discriminants with declared degrees.

The resultant here is always the raw Sylvester determinant for a pair
of *declared* degrees (m, n).  Declared degrees may exceed the actual
degrees (padding with zero rows is legitimate and meaningful: it
multiplies the resultant by a power of the other leading coefficient),
but never fall below them.  Keeping the declared degree first-class is
what lets symbolic leading coefficients specialize to zero without
changing the matrix shape.

The discriminant of P at declared degree d is the raw determinant
Res_{d,d-1}(P, P'), with no content or sign normalization: for
t^2 + b*t + c it is 4c - b^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .errors import ExactDivisionError, ParameterError, RingMismatchError
from .rings import (
    IntegerRing,
    MultiPoly,
    PrimeField,
    RationalRing,
    Ring,
    RingElement,
    _Packed,
    clear_denominators,
)
from .unipoly import MAX_DEGREE, UniPoly


@dataclass(frozen=True)
class SylvesterSpec:
    """Declared degrees (m for the first polynomial, n for the second)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ParameterError(f"declared degrees must be nonnegative, got {self}")


def declared_degree(poly: UniPoly, declared: int | None, which: str) -> int:
    """The degree poly is taken at: declared, or else its actual degree.

    The one rule for declared degrees, shared by the resultants,
    discriminants, strata and the command line: the zero polynomial
    needs one, and it is never negative, below the actual degree, nor
    above unipoly.MAX_DEGREE, the bound on every parsed degree (a
    declared degree sizes the Sylvester matrix before any entry exists).
    """
    if declared is None:
        if poly.is_zero():
            raise ParameterError(
                f"{which} is the zero polynomial; pass its declared degree"
            )
        return poly.degree
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
    ring = F.coeff_ring
    return [[RingElement(ring, x) for x in row] for row in _sylvester_rows(F, G, spec)]


def _sylvester_rows(F: UniPoly, G: UniPoly, spec: SylvesterSpec | None) -> list[list]:
    """The rows of sylvester_matrix as raw values, read off the raw coefficient lists."""
    if F.coeff_ring != G.coeff_ring or F.var != G.var:
        raise RingMismatchError("resultant arguments live in different polynomial rings")
    m = declared_degree(F, spec.m if spec else None, "the first polynomial")
    n = declared_degree(G, spec.n if spec else None, "the second polynomial")
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
    - QQ: row i is multiplied by s_i, the lcm of its entries'
      denominators (1 for an all-zero row); the integer determinant of
      the scaled rows is divided by the product of the s_i.
    - Fp: Gaussian elimination mod p, one inverse per pivot.
    - ZZ[vars], Fp[vars]: Bareiss on packed-monomial dicts of ints
      (rings._Packed) at a width that holds every intermediate.
    - QQ[vars]: each row scaled to ZZ[vars] by rings.clear_denominators,
      then the ZZ[vars] path; each coefficient of the determinant is
      divided by the product of the scales.

    No Fraction arithmetic runs inside an elimination.  Only the
    determinant is wrapped again.
    """
    return _det_raw([[ring.coerce(x) for x in row] for row in matrix], ring)


def _det_raw(rows: list[list], ring: Ring) -> RingElement:
    """det_fraction_free on raw values of ring; the rows are consumed."""
    if not rows:
        return ring.one
    if isinstance(ring, IntegerRing):
        return RingElement(ring, _det_int(rows))
    if isinstance(ring, RationalRing):
        scales = [lcm(*(x.denominator for x in row)) for row in rows]
        scaled = [
            [x.numerator * (s // x.denominator) for x in row] for row, s in zip(rows, scales)
        ]
        return RingElement(ring, Fraction(_det_int(scaled), prod(scales)))
    if isinstance(ring, PrimeField):
        return RingElement(ring, _det_mod(rows, ring.p))
    if isinstance(ring.base, RationalRing):
        cleared = [clear_denominators(row) for row in rows]
        det = _det_packed([row for row, _ in cleared]).terms
        total = prod(s for _, s in cleared)
        return RingElement(ring, MultiPoly(ring, {e: Fraction(c, total) for e, c in det.items()}))
    return RingElement(ring, _det_packed(rows))


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
        pivot_row = None
        for r in range(k, n):
            if not work[r][k].is_zero():
                pivot_row = r
                break
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


def det_cofactor(matrix: list[list[RingElement]], ring: Ring) -> RingElement:
    """Division-free cofactor expansion; exponential, for cross-checks only."""
    n = len(matrix)
    if n == 0:
        return ring.one
    if n == 1:
        return matrix[0][0]
    total = ring.zero
    for i in range(n):
        head = matrix[i][0]
        if head.is_zero():
            continue
        minor = [row[1:] for r, row in enumerate(matrix) if r != i]
        term = head * det_cofactor(minor, ring)
        total = total + term if i % 2 == 0 else total - term
    return total


def resultant(F: UniPoly, G: UniPoly, spec: SylvesterSpec | None = None) -> RingElement:
    """Raw Sylvester determinant of (F, G) at the declared degrees."""
    return _det_raw(_sylvester_rows(F, G, spec), F.coeff_ring)


def bezout_certificate(
    F: UniPoly, G: UniPoly, spec: SylvesterSpec | None = None
) -> tuple[UniPoly, UniPoly, RingElement]:
    """Cofactors (U, V, r) with U*F + V*G = r, r the resultant.

    U and V come from the cofactor expansion of the Sylvester matrix
    along its last column (the classical proof that the resultant lies
    in the ideal (F, G)), so the identity holds over any coefficient
    ring and can be re-verified independently by multiplying out.
    """
    matrix = sylvester_matrix(F, G, spec)
    size = len(matrix)
    if size == 0:
        raise ParameterError(
            "the empty Sylvester matrix carries no cofactor identity"
        )
    ring = F.coeff_ring
    m = declared_degree(F, spec.m if spec else None, "the first polynomial")
    n = size - m
    cofactors = []
    for k in range(size):
        minor = [row[:-1] for i, row in enumerate(matrix) if i != k]
        value = det_fraction_free(minor, ring)
        cofactors.append(value if (k + size - 1) % 2 == 0 else -value)
    U = UniPoly(ring, F.var, [cofactors[n - 1 - e] for e in range(n)] if n else ())
    V = UniPoly(ring, F.var, [cofactors[n + m - 1 - e] for e in range(m)])
    return U, V, det_fraction_free(matrix, ring)


def discriminant(P: UniPoly, degree: int | None = None) -> RingElement:
    """Raw discriminant Res_{d,d-1}(P, P') at declared degree d >= 1."""
    d = declared_degree(P, degree, "the polynomial")
    if d < 1:
        raise ParameterError(f"the discriminant needs declared degree >= 1, got {d}")
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
