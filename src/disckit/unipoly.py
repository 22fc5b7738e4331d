"""Dense univariate polynomials over any supported coefficient ring.

A UniPoly stores coefficients ascending by exponent with trailing
zeros trimmed, so the zero polynomial has an empty coefficient tuple
and its degree is the MINUS_INFINITY sentinel rather than a fake
integer.  The coefficient ring may itself be a multivariate polynomial
ring, which is how towers like ZZ[u0,u1][t] are expressed.

All arithmetic runs in a private dense kernel on lists of raw
coefficient values (see rings): UniPoly unwraps its operands once, calls
the kernel and wraps the result once, and the parser and the oracle call
the kernel directly.  Over ZZ and Fp(p) the coefficients are plain ints,
and long products go through Kronecker substitution: each operand is
packed into one int, the two ints are multiplied once (CPython's
Karatsuba), and the product is unpacked.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import (
    ExactDivisionError,
    ParameterError,
    RingMismatchError,
    UnsupportedRingError,
)
from .rings import (
    IntegerRing,
    PolynomialRing,
    PrimeField,
    RationalRing,
    Ring,
    RingElement,
    RingHom,
    _join_terms,
    _signed_term,
)


class _MinusInfinity:
    """Degree of the zero polynomial; compares below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "-infinity"


MINUS_INFINITY = _MinusInfinity()

# The bound on every parsed degree and on every declared degree (see
# parser and resultants.declared_degree).
MAX_DEGREE = 10**4


# ----- the dense kernel on raw coefficient lists ------------------------------
#
# A raw list holds the raw values of the coefficients, ascending and
# trimmed: empty for zero, its last entry nonzero (raw values are falsy
# exactly when they are zero).  _trim trims its argument in place; no other
# kernel function mutates its arguments.
#
# Over ZZ and Fp(p) the entries are plain ints and the functions ending in
# _mod take a modulus p: the prime over Fp(p), where entries are residues
# in [0, p) and each output coefficient is reduced once, or 0 over ZZ,
# where nothing is reduced.  Over QQ, products clear denominators and run
# on the ZZ path; otherwise, over QQ and polynomial rings, the ring's raw
# operations are used.  Every supported ring is an integral domain, so a
# product of trimmed lists is trimmed.

# Products whose shorter operand has at least this many coefficients go
# through Kronecker substitution, shorter ones through the schoolbook loop:
# the crossover of the two on random ZZ and Fp(2^31 - 1) operands (timings
# in CHANGES.md).
_KRONECKER_MIN = 16


def _modulus(ring: Ring):
    """p over Fp(p), 0 over ZZ, None over the rings without an int path."""
    if isinstance(ring, PrimeField):
        return ring.p
    return 0 if isinstance(ring, IntegerRing) else None


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """Unreduced product of two nonempty int lists by Kronecker substitution.

    Every output coefficient is below h = 2^(w-1) in absolute value, for
    a slot width w of whole bytes.  A list packs into one int as
    sum(c_i 2^(w i)) by writing each c_i + h into its slot and subtracting
    the packed offsets; the product of the two packed ints gets the offsets
    added back, so that every slot holds c_k + h in [0, 2^w) and no slot
    borrows from its neighbour, and is read back slot by slot.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    k = bound.bit_length() // 8 + 1
    h = 1 << (8 * k - 1)
    half = bytes(k - 1) + b"\x80"  # h as one little-endian slot

    def pack(c):
        slots = b"".join([(x + h).to_bytes(k, "little") for x in c])
        return int.from_bytes(slots, "little") - int.from_bytes(half * len(c), "little")

    n = len(a) + len(b) - 1
    packed = pack(a)
    product = packed * (packed if b is a else pack(b))
    raw = (product + int.from_bytes(half * n, "little")).to_bytes(k * n, "little")
    view = memoryview(raw)
    return [int.from_bytes(view[i:i + k], "little") - h for i in range(0, k * n, k)]


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    if min(len(a), len(b)) >= _KRONECKER_MIN:
        out = _kronecker(a, b)
    else:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
    return [c % p for c in out] if p else out


def _deriv_mod(a: list[int], p: int) -> list[int]:
    if p:
        return _trim([k * c % p for k, c in enumerate(a[1:], 1)])
    return [k * c for k, c in enumerate(a[1:], 1)]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """A greatest common divisor over F_p (p prime), not made monic.

    The remainder loop of _divmod on plain ints, inlined: the oracle calls
    this on tiny lists, where ring dispatch and a call per step would cost
    more than the arithmetic.
    """
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        r = list(a)
        while len(r) > db:
            shift = len(r) - 1 - db
            c = r[-1] * inv % p
            for i, y in enumerate(b, shift):
                r[i] = (r[i] - c * y) % p
            _trim(r)
        a, b = b, r
    return a


def _add(a: list, b: list, ring: Ring) -> list:
    if len(a) < len(b):
        a, b = b, a
    p = _modulus(ring)
    if p is None:
        add = ring._add
        head = [add(x, y) for x, y in zip(a, b)]
    elif p:
        head = [(x + y) % p for x, y in zip(a, b)]
    else:
        head = [x + y for x, y in zip(a, b)]
    return _trim(head + a[len(b):])


def _neg(a: list, ring: Ring) -> list:
    p = _modulus(ring)
    if p is None:
        return [ring._neg(x) for x in a]
    return [p - x if x else 0 for x in a] if p else [-x for x in a]


def _sub(a: list, b: list, ring: Ring) -> list:
    return _add(a, _neg(b, ring), ring)


def _mul(a: list, b: list, ring: Ring) -> list:
    """Product on the int path over ZZ and Fp, through ZZ over QQ, else schoolbook."""
    p = _modulus(ring)
    if p is not None:
        return _mul_mod(a, b, p)
    if not a or not b:
        return []
    if isinstance(ring, RationalRing):
        # a*b = (s*a)(t*b)/(s*t) for s, t the lcms of the denominators
        s = lcm(*(x.denominator for x in a))
        t = lcm(*(x.denominator for x in b))
        st = s * t
        ints = _mul_mod([x.numerator * (s // x.denominator) for x in a],
                        [x.numerator * (t // x.denominator) for x in b], 0)
        return [Fraction(c, st) for c in ints]
    add, mul = ring._add, ring._mul
    out = [ring.coerce(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] = add(out[j], mul(x, y))
    return out


def _pow(a: list, n: int, ring: Ring) -> list:
    """a^n by square-and-multiply; a^0 = 1, also for a = 0."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else _mul(result, a, ring)
        n >>= 1
        if n:
            a = _mul(a, a, ring)
    return [ring.coerce(1)] if result is None else result


def _deriv(a: list, ring: Ring) -> list:
    p = _modulus(ring)
    if p is not None:
        return _deriv_mod(a, p)
    mul, coerce = ring._mul, ring.coerce
    return _trim([mul(c, coerce(k)) for k, c in enumerate(a[1:], 1)])


def _monic(a: list, ring: Ring) -> list:
    """a divided by its leading coefficient, which is a unit."""
    mul, inv = ring._mul, ring._exact_div(ring.coerce(1), a[-1])
    return [mul(x, inv) for x in a]


def _divmod(a: list, b: list, ring: Ring) -> tuple[list, list]:
    """Quotient and remainder; b needs a unit leading coefficient."""
    if not b:
        raise ExactDivisionError("polynomial division by zero")
    if not ring._is_unit(b[-1]):
        raise ExactDivisionError("polynomial division requires a unit leading coefficient")
    add, mul = ring._add, ring._mul
    inv = ring._exact_div(ring.coerce(1), b[-1])
    db = len(b) - 1
    r = list(a)
    q = [ring.coerce(0)] * max(len(r) - db, 0)
    while len(r) > db:
        shift = len(r) - 1 - db
        c = mul(r[-1], inv)
        q[shift] = c
        minus_c = ring._neg(c)
        for i, y in enumerate(b, shift):
            r[i] = add(r[i], mul(minus_c, y))
        _trim(r)
    return q, r


def _evaluate(a: list, x, ring: Ring):
    """Horner evaluation of a raw list at a raw point."""
    add, mul = ring._add, ring._mul
    acc = ring.coerce(0)
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


# ----- UniPoly ------------------------------------------------------------------

class UniPoly:
    """Immutable dense polynomial in one variable.

    The raw coefficient list lives in _raw and is never mutated; coeffs
    wraps it in RingElements on first use.
    """

    __slots__ = ("coeff_ring", "var", "_raw", "_coeffs")

    def __init__(self, coeff_ring: Ring, var: str, coeffs: Iterable = ()):
        if isinstance(coeff_ring, PolynomialRing) and var in coeff_ring.names:
            raise ParameterError(
                f"main variable {var!r} collides with a coefficient variable"
            )
        raw = [c.value if isinstance(c, RingElement) and c.ring == coeff_ring
               else coeff_ring.coerce(c)
               for c in coeffs]
        self.coeff_ring = coeff_ring
        self.var = var
        self._raw = _trim(raw)
        self._coeffs = None

    @classmethod
    def _of(cls, coeff_ring: Ring, var: str, raw: list) -> "UniPoly":
        """Wrap a trimmed raw list without checking it."""
        poly = object.__new__(cls)
        poly.coeff_ring = coeff_ring
        poly.var = var
        poly._raw = raw
        poly._coeffs = None
        return poly

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, coeff_ring: Ring, var: str) -> "UniPoly":
        return cls(coeff_ring, var, ())

    @classmethod
    def constant(cls, coeff_ring: Ring, var: str, c) -> "UniPoly":
        return cls(coeff_ring, var, (c,))

    @classmethod
    def monomial(cls, coeff_ring: Ring, var: str, k: int, c=1) -> "UniPoly":
        if k < 0:
            raise ParameterError("monomial exponent must be nonnegative")
        return cls(coeff_ring, var, (0,) * k + (c,))

    # queries --------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[RingElement, ...]:
        if self._coeffs is None:
            ring = self.coeff_ring
            self._coeffs = tuple(RingElement(ring, c) for c in self._raw)
        return self._coeffs

    @property
    def degree(self):
        return len(self._raw) - 1 if self._raw else MINUS_INFINITY

    def is_zero(self) -> bool:
        return not self._raw

    def coefficient(self, k: int) -> RingElement:
        if 0 <= k < len(self._raw):
            return self.coeffs[k]
        return self.coeff_ring.zero

    def leading_coeff(self) -> RingElement:
        return self.coeffs[-1] if self._raw else self.coeff_ring.zero

    def is_monic(self) -> bool:
        return bool(self._raw) and self.coeff_ring._is_one(self._raw[-1])

    # arithmetic -----------------------------------------------------------

    def _lift(self, other) -> list:
        """The raw list of other, a UniPoly on the same line or a constant."""
        if isinstance(other, UniPoly):
            if other.coeff_ring != self.coeff_ring or other.var != self.var:
                raise RingMismatchError(
                    f"polynomials in {self.coeff_ring}[{self.var}] and "
                    f"{other.coeff_ring}[{other.var}] do not mix"
                )
            return other._raw
        return _trim([self.coeff_ring.coerce(other)])

    def _new(self, raw: list) -> "UniPoly":
        return UniPoly._of(self.coeff_ring, self.var, raw)

    def __add__(self, other):
        return self._new(_add(self._raw, self._lift(other), self.coeff_ring))

    __radd__ = __add__

    def __neg__(self):
        return self._new(_neg(self._raw, self.coeff_ring))

    def __sub__(self, other):
        return self._new(_sub(self._raw, self._lift(other), self.coeff_ring))

    def __rsub__(self, other):
        return self._new(_sub(self._lift(other), self._raw, self.coeff_ring))

    def __mul__(self, other):
        return self._new(_mul(self._raw, self._lift(other), self.coeff_ring))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ParameterError(f"exponent must be a nonnegative integer, got {n!r}")
        return self._new(_pow(self._raw, n, self.coeff_ring))

    def __divmod__(self, other):
        """Division with remainder; the divisor needs a unit leading coefficient."""
        quo, rem = _divmod(self._raw, self._lift(other), self.coeff_ring)
        return self._new(quo), self._new(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and other.coeff_ring == self.coeff_ring
            and other.var == self.var
            and other._raw == self._raw
        )

    def __hash__(self):
        return hash((self.coeff_ring, self.var, tuple(self._raw)))

    def __bool__(self):
        return bool(self._raw)

    # calculus and maps ------------------------------------------------------

    def derivative(self) -> "UniPoly":
        return self._new(_deriv(self._raw, self.coeff_ring))

    def evaluate(self, point) -> RingElement:
        """Horner evaluation at a point of the coefficient ring."""
        pt = point if isinstance(point, RingElement) else self.coeff_ring.element(point)
        if pt.ring != self.coeff_ring:
            raise RingMismatchError(f"evaluation point lives in {pt.ring}, not {self.coeff_ring}")
        return RingElement(self.coeff_ring, _evaluate(self._raw, pt.value, self.coeff_ring))

    def map_coefficients(self, hom: RingHom, var: str | None = None) -> "UniPoly":
        """Apply a coefficient-ring map; the main variable is carried along."""
        if hom.domain != self.coeff_ring:
            raise RingMismatchError(
                f"map domain {hom.domain} does not match coefficient ring {self.coeff_ring}"
            )
        return UniPoly(hom.codomain, var or self.var, [hom(c) for c in self._raw])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ExactDivisionError("the zero polynomial cannot be made monic")
        if not self.coeff_ring._is_unit(self._raw[-1]):
            raise ExactDivisionError("leading coefficient is not a unit")
        return self._new(_monic(self._raw, self.coeff_ring))

    # printing ---------------------------------------------------------------

    def __str__(self):
        raw = self._raw
        if len(raw) < 2:
            return str(raw[0]) if raw else "0"
        ring, var = self.coeff_ring, self.var
        monos = ["", var] + [f"{var}^{k}" for k in range(2, len(raw))]
        return _join_terms([_signed_term(ring, c, m) for c, m in zip(raw, monos) if c][::-1])

    __repr__ = __str__


def _mul_reference(f: UniPoly, g: UniPoly) -> UniPoly:
    """The schoolbook product on RingElement wrappers that the kernel replaced.

    Kept as the reference of the kernel tests.
    """
    ring = f.coeff_ring
    if f.is_zero() or g.is_zero():
        return UniPoly.zero(ring, f.var)
    out = [ring.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return UniPoly(ring, f.var, out)


def unipoly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor over a field (QQ or a prime field)."""
    if f.coeff_ring != g.coeff_ring or f.var != g.var:
        raise RingMismatchError("gcd arguments live in different polynomial rings")
    ring = f.coeff_ring
    if not isinstance(ring, (RationalRing, PrimeField)):
        raise UnsupportedRingError(
            f"gcd needs field coefficients, got {ring}"
        )
    a, b = f._raw, g._raw
    while b:
        a, b = b, _divmod(a, b, ring)[1]
    return f._new(_monic(a, ring) if a else a)
