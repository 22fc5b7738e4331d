"""Exact arithmetic over a small tower of coefficient rings.

Supported rings: the integers ZZ, the rationals QQ, prime fields
Fp(p), and multivariate polynomial rings over any of those three.
Polynomial rings never nest; a tower such as A[u][t] is expressed as a
univariate polynomial (see unipoly) whose coefficients live in the flat
ring A[u].

Raw element values by ring:

    ZZ        Python int (arbitrary precision)
    QQ        fractions.Fraction (reduced, positive denominator)
    Fp(p)     int residue in [0, p)
    R[u,...]  MultiPoly (sparse exponent-vector map, no zero terms)

A raw value is falsy exactly when it is zero, and str() prints it;
no ring method repeats either.  Every supported ring is an integral
domain, so zero is also the only nilpotent.

Ring.coerce checks a RingElement's ring and refuses a bool, and ZZ, QQ
and Fp(p) supply only _coerce for plain values (PolynomialRing.coerce also
embeds its base ring).  _power is the one square-and-multiply loop,
under a given product and one: Ring._pow runs it on raw values and
unipoly._pow on raw coefficient lists, while ZZ and QQ take a**n and
Fp(p) takes pow(a, n, p).

Ring.modulus names the rings with a plain-int path (0 on ZZ, p on Fp(p),
None otherwise), and every int kernel dispatches on it; QQ and QQ[vars]
reach them through to_integral and come back through from_integral.

Everything is immutable and every operation is a pure function, so
values can be shared freely between threads.

The heavy symbolic work (Bareiss determinants and exact division) runs
in a private packed-monomial kernel, _Packed, on dicts from one int per
exponent vector to an int coefficient (a residue over Fp); MultiPoly is
converted at the boundary, and QQ[vars] is first scaled to ZZ[vars].
RingHom maps whose variable images are single terms or zero send each
input term to at most one output term, its exponents selected from the
plain tuple with a fix-up for each image weight that selection cannot
give; every other map multiplies out powers of its images.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DisckitError,
    ExactDivisionError,
    ParameterError,
    RingMismatchError,
    UnsupportedRingError,
)

NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"  # ASCII only: the parser reads names by it too
_NAME_RE = re.compile(NAME_PATTERN + r"\Z")

_MAX_PRIME = 2**31

# The bound on every parsed or declared degree and on every power and UniPoly.monomial.
MAX_DEGREE = 10**4


def check_name(name: str) -> None:
    """Raise ParameterError unless name can be a variable of a polynomial."""
    if type(name) is not str or not _NAME_RE.match(name):
        raise ParameterError(f"bad variable name {name!r}")


def check_degree(degree: int) -> None:
    """Raise ParameterError for a power or monomial of total degree above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ParameterError(f"degree {degree} exceeds the limit {MAX_DEGREE}")


def check_ring(ring) -> None:
    """Raise UnsupportedRingError unless ring is a Ring."""
    if not isinstance(ring, Ring):
        raise UnsupportedRingError(f"unsupported ring {ring!r}")


def check_element(*values) -> None:
    """Raise ParameterError unless every argument is a RingElement."""
    if bad := [value for value in values if not isinstance(value, RingElement)]:
        raise ParameterError(f"expected a ring element, got {bad[0]!r}")


def _power(a, n: int, mul, one):
    """a^n for an int n >= 0 by square-and-multiply under the product mul; a^0 is one."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return one if result is None else result


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Ring:
    """Descriptor of a coefficient ring; subclasses implement raw-value ops.

    The raw-value protocol (underscore methods) operates on the plain
    Python values listed in the module docstring.  A subclass supplies
    _add, _neg, _mul and _is_unit; _coerce(value), the raw value of a
    plain Python value (RingMismatchError if it has none); _exact_div(a,
    b), a / b when b divides a exactly (ExactDivisionError otherwise);
    and _sign_mag(a), a (sign, magnitude string) pair for term printing,
    where residues and multi-term polynomials have sign +1 and a
    multi-term magnitude is parenthesised.  _sub, _pow and _is_one have
    defaults below.  The raw value itself answers two questions without
    its ring: it is falsy exactly when it is zero, and str() prints it.
    User code works with RingElement wrappers obtained from
    element()/zero/one.  modulus is 0 when raw values are plain ints
    (ZZ), p when they are residues mod the prime p (Fp(p)), and None
    when they are not ints.
    """

    modulus: int | None = None

    def element(self, value) -> "RingElement":
        return RingElement(self, self.coerce(value))

    @property
    def zero(self) -> "RingElement":
        return self.element(0)

    @property
    def one(self) -> "RingElement":
        return self.element(1)

    def coerce(self, value):
        """The raw value of value; a RingElement of another ring or a bool is refused."""
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatchError(f"cannot coerce element of {value.ring} into {self}")
            return value.value
        if isinstance(value, bool):
            raise ParameterError("booleans are not ring values")
        return self._coerce(value)

    # raw-value protocol -------------------------------------------------

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _pow(self, a, n: int):
        """a^n for an int n >= 0; a^0 is one, also for a = 0."""
        return _power(a, n, self._mul, self.coerce(1))

    def _is_one(self, a) -> bool:
        return a == 1


class _NumberRing(Ring):
    """ZZ and QQ, whose raw values are Python numbers; each is named by its class's name."""

    name: str

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _pow(self, a, n):
        return a**n

    def _sign_mag(self, a):
        n, den = a.numerator, a.denominator  # ints have both, so no Fraction arithmetic
        sign = -1 if n < 0 else 1
        mag = str(sign * n)
        return sign, mag if den == 1 else f"{mag}/{den}"

    def __eq__(self, other):
        return other.__class__ is self.__class__

    def __hash__(self):
        return hash(self.name)

    def __str__(self):
        return self.name

    __repr__ = __str__


class IntegerRing(_NumberRing):
    name = "ZZ"
    modulus = 0

    def _coerce(self, value):
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction) and value.denominator == 1:
            return value.numerator
        raise RingMismatchError(f"cannot coerce {value!r} into ZZ")

    def _is_unit(self, a):
        return a in (1, -1)

    def _exact_div(self, a, b):
        if b == 0:
            raise ExactDivisionError("division by zero in ZZ")
        q, r = divmod(a, b)
        if r:
            raise ExactDivisionError(f"{a} is not divisible by {b} in ZZ")
        return q


class RationalRing(_NumberRing):
    name = "QQ"

    def _coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise RingMismatchError(f"cannot coerce {value!r} into QQ")

    def _is_unit(self, a):
        return a != 0

    def _exact_div(self, a, b):
        if b == 0:
            raise ExactDivisionError("division by zero in QQ")
        return a / b


class PrimeField(Ring):
    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParameterError("field characteristic must be an integer")
        if p >= _MAX_PRIME:
            raise ParameterError(f"prime {p} exceeds the supported bound 2^31")
        if not _is_prime(p):
            raise ParameterError(f"{p} is not prime")
        self.p = self.modulus = p

    def _coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ParameterError(f"denominator {value.denominator} is not invertible mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        raise RingMismatchError(f"cannot coerce {value!r} into {self}")

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _pow(self, a, n):
        return pow(a, n, self.p)

    def _is_unit(self, a):
        return a != 0

    def _exact_div(self, a, b):
        if b == 0:
            raise ExactDivisionError(f"division by zero in {self}")
        return a * pow(b, -1, self.p) % self.p

    def _sign_mag(self, a):
        return 1, str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __str__(self):
        return f"Fp({self.p})"

    __repr__ = __str__


ZZ = IntegerRing()
QQ = RationalRing()


@functools.lru_cache(maxsize=64)
def GF(p: int) -> PrimeField:
    """The field F_p; recent fields are memoized, and fields compare by p."""
    return PrimeField(p)


class PolynomialRing(Ring):
    """Sparse multivariate polynomials over ZZ, QQ, or a prime field."""

    def __init__(self, base: Ring, names: Iterable[str]):
        if isinstance(base, PolynomialRing):
            raise UnsupportedRingError(
                "polynomial rings do not nest; flatten the variables instead"
            )
        check_ring(base)
        if isinstance(names, str):  # else "ab" would be read as the names a and b
            raise ParameterError(f"pass the variable names as a sequence, not the str {names!r}")
        names = tuple(names)
        if not names:
            raise ParameterError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate variable names in {names}")
        for name in names:
            check_name(name)
        self.base = base
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._twin = PolynomialRing(ZZ, names) if isinstance(base, RationalRing) else None

    def _position(self, name: str) -> int:
        """The index of the variable name in names; ParameterError if there is none."""
        i = self._index.get(name)
        if i is None:
            raise ParameterError(
                f"{self} has no variable {name!r}; its variables are {', '.join(self.names)}"
            )
        return i

    def variable(self, name: str) -> "RingElement":
        i = self._position(name)
        exps = (0,) * i + (1,) + (0,) * (len(self.names) - 1 - i)
        return RingElement(self, MultiPoly(self, {exps: self.base.coerce(1)}))

    def variables(self) -> tuple["RingElement", ...]:
        return tuple(self.variable(n) for n in self.names)

    def coerce(self, value):
        if isinstance(value, RingElement):
            if value.ring == self:
                return value.value
            if value.ring == self.base:
                return self._const(value.value)
            raise RingMismatchError(f"cannot coerce element of {value.ring} into {self}")
        if isinstance(value, MultiPoly):
            if value.ring != self:
                raise RingMismatchError(f"cannot coerce polynomial over {value.ring} into {self}")
            return value
        return self._const(self.base.coerce(value))

    def _const(self, raw_base) -> "MultiPoly":
        if not raw_base:
            return MultiPoly(self, {})
        zero_exps = (0,) * len(self.names)
        return MultiPoly(self, {zero_exps: raw_base})

    def _add(self, a, b):
        return a._add(b)

    def _neg(self, a):
        return a._neg()

    def _mul(self, a, b):
        return a._mul(b)

    def _is_one(self, a):
        c = a.constant_raw()
        return c is not None and self.base._is_one(c)

    def _is_unit(self, a):
        c = a.constant_raw()
        return c is not None and self.base._is_unit(c)

    def _exact_div(self, a, b):
        return a.exact_div(b)

    def _sign_mag(self, a):
        if len(a.terms) == 1:
            (exps, coeff), = a.terms.items()
            return _signed_term(self.base, coeff, _monomial_str(self.names, exps))
        return 1, f"({a})"

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.base == self.base
            and other.names == self.names
        )

    def __hash__(self):
        return hash(("Poly", self.base, self.names))

    def __str__(self):
        return f"{self.base}[{','.join(self.names)}]"

    __repr__ = __str__


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _monomial_str(names: tuple[str, ...], exps: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _signed_term(ring: Ring, coeff, mono: str) -> tuple[int, str]:
    """(sign, text) of the term coeff*mono; a magnitude of "1" is dropped."""
    sign, mag = ring._sign_mag(coeff)
    if not mono:
        return sign, mag
    return sign, mono if mag == "1" else f"{mag}*{mono}"


def _join_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Nonempty signed terms, leading term first, printed as a + b - c."""
    chunks = [f" + {term}" if sign > 0 else f" - {term}" for sign, term in terms]
    head = chunks[0][3:]
    chunks[0] = head if chunks[0][1] == "+" else f"-{head}"
    return "".join(chunks)


class MultiPoly:
    """Sparse multivariate polynomial; raw value type of PolynomialRing.

    Invariant: terms maps full-length exponent vectors to nonzero base
    coefficients.  Term order for printing and leading-term extraction
    is graded lexicographic on the declared variable order.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # construction helpers ------------------------------------------------

    def _new(self, terms: dict) -> "MultiPoly":
        return MultiPoly(self.ring, terms)

    # queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_raw(self):
        """Base coefficient if the polynomial is constant, else None."""
        if not self.terms:
            return self.ring.base.coerce(0)
        if len(self.terms) == 1:
            (exps, coeff), = self.terms.items()
            if not any(exps):
                return coeff
        return None

    def total_degree(self):
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.ring._position(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name**power, as a polynomial in the same ring."""
        i = self.ring._position(name)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == power:
                reduced = exps[:i] + (0,) + exps[i + 1:]
                out[reduced] = coeff
        return self._new(out)

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # arithmetic -----------------------------------------------------------

    def _add(self, other: "MultiPoly") -> "MultiPoly":
        base = self.ring.base
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = base._add(out.get(exps, 0), coeff) if exps in out else coeff
            if exps in out and not s:
                del out[exps]
            else:
                out[exps] = s
        return self._new(out)

    def _neg(self) -> "MultiPoly":
        base = self.ring.base
        return self._new({e: base._neg(c) for e, c in self.terms.items()})

    def _mul(self, other: "MultiPoly") -> "MultiPoly":
        base = self.ring.base
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                prod = base._mul(c1, c2)
                if e in out:
                    s = base._add(out[e], prod)
                    if not s:
                        del out[e]
                    else:
                        out[e] = s
                elif prod:
                    out[e] = prod
        return self._new(out)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Quotient self / divisor when the division is exact.

        A nonzero self = q * divisor has, in every variable, a highest
        exponent that is the sum of those of q and of the divisor, and so
        has a lowest one (exponents add over an integral domain).  So a
        divisor whose highest or lowest exponent in some variable exceeds
        self's raises ExactDivisionError at once; any other division runs
        in the packed kernel (_exact_div_packed).
        """
        if divisor.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if self.terms and not _exponent_range_within(divisor.terms, self.terms):
            raise ExactDivisionError("inexact polynomial division (exponent range)")
        return self._exact_div_packed(divisor)

    def _exact_div_packed(self, divisor: "MultiPoly") -> "MultiPoly":
        """exact_div without the exponent-range test, for a nonzero divisor.

        Runs in the packed-monomial kernel (see _Packed.exact_div) at the
        width of the largest exponent of either operand; raises
        ExactDivisionError as soon as a leading term fails to divide,
        which over an integral domain happens iff divisor does not
        divide self.

        Over QQ[vars] both operands are scaled by one integer to ZZ[vars]
        and the divisor is divided by its integer content g.  By Gauss's
        lemma the now primitive divisor leaves an integer quotient iff it
        leaves a rational one; that quotient divided by g is the answer.
        """
        if isinstance(self.ring.base, RationalRing):
            _, (num, den), _ = to_integral((self, divisor), self.ring)
            g = gcd(*den.terms.values())
            quotient = num._exact_div_packed(den._new({e: c // g for e, c in den.terms.items()}))
            return from_integral([quotient], g, self.ring)[0]
        bound = max(max(e) for e in itertools.chain(self.terms, divisor.terms))
        kernel = _Packed(self.ring, bound)
        return kernel.unpack(kernel.exact_div(kernel.pack(self), kernel.pack(divisor)))

    # comparisons ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # printing -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        base, names = self.ring.base, self.ring.names
        return _join_terms(_signed_term(base, coeff, _monomial_str(names, exps))
                           for exps, coeff in self.sorted_terms())

    __repr__ = __str__


def _exponent_range_within(inner: dict, outer: dict) -> bool:
    """Whether, in every variable, the lowest and the highest exponent of the
    nonempty term map inner are at most those of the nonempty outer."""
    for a, b in zip(zip(*inner), zip(*outer)):
        if max(a) > max(b) or min(a) > min(b):
            return False
    return True


def _nonzero(acc: dict, p: int | None) -> dict:
    """acc without its zero values; with p a prime, each value is reduced mod p first."""
    if p:
        return {k: r for k, v in acc.items() if (r := v % p)}
    return {k: v for k, v in acc.items() if v}


def to_integral(values: Sequence, ring: Ring) -> tuple[Ring, list, int]:
    """(twin, [s*x for x in values], s) for raw values of ring, QQ or QQ[vars]: twin is ZZ or
    the ring's own ZZ[vars], built with it, and s the lcm of every denominator (1 for none)."""
    if isinstance(ring, PolynomialRing):
        twin = ring._twin
        s = lcm(*(c.denominator for f in values for c in f.terms.values()))
        return twin, [MultiPoly(twin, {e: c.numerator * (s // c.denominator)
                                       for e, c in f.terms.items()}) for f in values], s
    s = lcm(*(x.denominator for x in values))
    return ZZ, [x.numerator * (s // x.denominator) for x in values], s


def from_integral(values: Sequence, s: int, ring: Ring) -> list:
    """[x / s for x in values] in ring, QQ or QQ[vars], for values over its twin (to_integral)."""
    if isinstance(ring, PolynomialRing):
        return [MultiPoly(ring, {e: Fraction(c, s) for e, c in f.terms.items()}) for f in values]
    return [Fraction(c, s) for c in values]


class _Packed:
    """Packed-monomial arithmetic in ZZ[vars] or Fp[vars] at one field width.

    An exponent vector (e_1, ..., e_k) is packed into one int of k fields
    of `width` bits, e_1 in the most significant field, so multiplying
    monomials is one int addition and int order is the lexicographic
    monomial order.  The top bit of each field is a guard bit that no
    exponent up to `cap` = 2^(width-1) - 1 reaches, and the width is
    chosen so that no exponent up to `bound`, the most the caller's
    computation meets, exceeds the cap.  Then d divides e iff
    ((e | G) - d) & G == G for the guard mask G: every field of e | G is
    at least its guard, so the subtraction borrows across no field, and a
    field keeps its guard iff e_i >= d_i.

    A packed value is a dict from packed monomials to nonzero ints:
    integers over ZZ, residues in [0, p) over Fp(p).  p is the base
    ring's modulus, 0 over ZZ.  QQ[vars], whose modulus is None, is
    refused; callers scale it to ZZ[vars] first (to_integral).
    """

    def __init__(self, ring: PolynomialRing, bound: int):
        if ring.base.modulus is None:
            raise UnsupportedRingError(f"the packed kernel needs ZZ or Fp coefficients, got {ring}")
        self.ring = ring
        self.p = ring.base.modulus
        nvars = len(ring.names)
        self.width = w = bound.bit_length() + 1
        self._mask = (1 << w) - 1
        self._shifts = range(w * (nvars - 1), -1, -w)
        self.cap = (1 << (w - 1)) - 1
        ones = self._key((1,) * nvars)
        self.guard = ones << (w - 1)
        self.caps = ones * self.cap

    def _key(self, exps) -> int:
        key = 0
        for x in exps:
            key = (key << self.width) | x
        return key

    def _exponents(self, key: int) -> tuple[int, ...]:
        return tuple([(key >> s) & self._mask for s in self._shifts])

    def pack(self, poly: MultiPoly) -> dict:
        return {self._key(exps): c for exps, c in poly.terms.items()}

    def unpack(self, packed: dict) -> MultiPoly:
        if self.width == 8:  # one field per byte: one C call per key
            n = len(self.ring.names)
            return MultiPoly(self.ring, {tuple(k.to_bytes(n, "big")): c for k, c in packed.items()})
        exponents = self._exponents
        return MultiPoly(self.ring, {exponents(key): c for key, c in packed.items()})

    def _field_max(self, packed: dict) -> int:
        """The packed vector of the largest exponent of each variable."""
        return self._key(map(max, zip(*map(self._exponents, packed))))

    def mul_sub(self, a: dict, b: dict, c: dict, d: dict) -> dict:
        """a*b - c*d.

        A product monomial that set a guard bit would mean the width was
        chosen too small; that raises DisckitError instead of carrying
        into the next field.
        """
        out: dict = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        for e1, c1 in c.items():
            for e2, c2 in d.items():
                e = e1 + e2
                out[e] = get(e, 0) - c1 * c2
        out = _nonzero(out, self.p)
        self.check_width(out)
        return out

    def check_width(self, packed: dict) -> None:
        """Raise DisckitError if a monomial of packed sets a guard bit."""
        guard = self.guard
        for e in packed:
            if e & guard:
                raise DisckitError(f"packed exponent overflow at field width {self.width}")

    def exact_div(self, a: dict, b: dict) -> dict:
        """a / b by leading-term cancellation, the leading terms off a heap.

        Every quotient term is checked against cap - (largest exponent
        of b) field by field, so no remainder term passes the cap; an
        exact quotient always passes, since each of its exponents is
        that of a minus that of b.  Over Fp a remainder term is reduced
        mod p only when it comes off the heap, and skipped if it is 0.
        """
        if not b:
            raise ExactDivisionError("division by zero polynomial")
        guard = self.guard
        qmax = (self.caps - self._field_max(b)) | guard
        lead = max(b)
        lc = b[lead]
        p = self.p
        inverse = None if not p else pow(lc, -1, p)
        rest = [(e, c) for e, c in b.items() if e != lead]
        rem = dict(a)
        heap = [-e for e in rem]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        out = {}
        while heap:
            e = -pop(heap)
            c = rem.pop(e, None)
            if c is None:  # cancelled after it was pushed
                continue
            if p:
                c %= p
                if not c:
                    continue
            if ((e | guard) - lead) & guard != guard:
                raise ExactDivisionError("inexact polynomial division (monomial)")
            d = e - lead
            if (qmax - d) & guard != guard:
                raise ExactDivisionError("inexact polynomial division (degree)")
            if not p:
                q, r = divmod(c, lc)
                if r:
                    raise ExactDivisionError("inexact polynomial division (coefficient)")
            else:
                q = c * inverse % p
            out[d] = q
            for be, bc in rest:
                k = d + be
                v = rem.get(k)
                if v is None:
                    rem[k] = -q * bc
                    push(heap, -k)
                else:
                    v -= q * bc
                    if v:
                        rem[k] = v
                    else:
                        del rem[k]
        return out


class RingElement:
    """Immutable wrapper pairing a ring descriptor with a raw value."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        self.ring = ring
        self.value = value

    def _coerce_other(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"ring mismatch: {self.ring} versus {other.ring}"
                )
            return other.value
        return self.ring.coerce(other)

    def __add__(self, other):
        return RingElement(self.ring, self.ring._add(self.value, self._coerce_other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return RingElement(self.ring, self.ring._sub(self.value, self._coerce_other(other)))

    def __rsub__(self, other):
        return RingElement(self.ring, self.ring._sub(self._coerce_other(other), self.value))

    def __mul__(self, other):
        return RingElement(self.ring, self.ring._mul(self.value, self._coerce_other(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.value))

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:  # a bool is refused too
            raise ParameterError(f"exponent must be a nonnegative integer, got {n!r}")
        if isinstance(self.ring, PolynomialRing):
            check_degree(n * (self.value.total_degree() or 0))  # 0 for a constant or zero, at any n
        return RingElement(self.ring, self.ring._pow(self.value, n))

    def exact_div(self, other) -> "RingElement":
        return RingElement(self.ring, self.ring._exact_div(self.value, self._coerce_other(other)))

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self.ring._is_one(self.value)

    def is_unit(self) -> bool:
        return self.ring._is_unit(self.value)

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return other.ring == self.ring and other.value == self.value
        try:
            return self.value == self.ring.coerce(other)
        except (RingMismatchError, ParameterError):
            return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def __bool__(self):
        return bool(self.value)

    def __str__(self):
        return str(self.value)

    __repr__ = __str__


def _single_term_plan(values: list, nvars: int):
    """(pick, scaled, fixups, zeros) for images y_m -> c_m * x^(a_m), each one term or zero.

    values holds the raw image of each y_m.  pick reads a term's output
    exponents off exps + (0,): x_k takes e_m from the first image m with
    weight 1 in x_k (the appended 0 when there is none).  fixups lists
    (m, k, w) for every other weight w of an image m in x_k, which adds
    w * e_m to x_k.  scaled lists (m, c_m) for c_m != 1.  zeros is None
    without a zero image, else a getter of the tuple of their exponents
    (the first read twice, so that one zero image gives a tuple too).
    """
    n = len(values)
    source = [n] * nvars
    scaled, fixups, zeros = [], [], []
    for m, value in enumerate(values):
        if not value:
            zeros.append(m)
            continue
        (exps, c), = value.terms.items()
        if c != 1:
            scaled.append((m, c))
        if sum(exps) == 1 and source[k := exps.index(1)] == n:  # c_m * x_k, the common case
            source[k] = m
        elif any(exps):
            for k, w in enumerate(exps):
                if w == 1 and source[k] == n:
                    source[k] = m
                elif w:
                    fixups.append((m, k, w))
    # itemgetter of one index returns the entry, not a 1-tuple: one variable takes a slice
    pick = operator.itemgetter(*source if nvars > 1 else [slice(source[0], source[0] + 1)])
    return pick, scaled, fixups, operator.itemgetter(*zeros, zeros[0]) if zeros else None


class RingHom:
    """Ring map described by a base-ring coercion plus variable images.

    The base map is inferred: ZZ embeds anywhere, QQ maps to QQ or to
    Fp (failing on non-invertible denominators), Fp maps only to the
    same Fp.  For a polynomial domain each variable needs an image in
    the codomain; omitted variables default to the same-named codomain
    variable when one exists.  Each image is read once, as a raw value of
    the codomain, into one list in the order of the domain's variables.

    __init__ picks one of two paths, and __call__ takes it.  When every
    image is zero or one term y_m -> c_m * x^(a_m), the term
    c * prod y_m^(e_m) has the one term c * prod c_m^(e_m) * x^(sum e_m a_m)
    as image, or none when it meets a zero image: _map_single_terms
    selects each term's output exponents by the plan of
    _single_term_plan and multiplies in the c_m^(e_m) with c_m != 1, with
    no polynomial product.  A coordinate map (every image zero, a constant
    or c_m * x_k, no x_k hit twice: a relabelling, an inclusion, a
    specialisation to constants, the jet maps of jets.discriminant_ideal)
    needs no fix-up, so its selection is one itemgetter.  Every other map,
    such as the strata substitution u -> -r/c, runs _map_general, which
    multiplies out cached powers of the images and is the reference the
    single-term path is tested against.
    """

    def __init__(self, domain: Ring, codomain: Ring, images: Mapping[str, object] | None = None):
        check_ring(domain)
        check_ring(codomain)
        self.domain = domain
        self.codomain = codomain
        self._raw_images = []
        if isinstance(domain, PolynomialRing):
            images = dict(images or {})
            for name in domain.names:
                if name in images:
                    self._raw_images.append(codomain.coerce(images.pop(name)))
                elif isinstance(codomain, PolynomialRing) and name in codomain.names:
                    self._raw_images.append(codomain.variable(name).value)
                else:
                    raise ParameterError(f"no image given for variable {name!r}")
            if images:
                raise ParameterError(f"images for unknown variables {sorted(images)}")
        elif images:
            raise ParameterError("variable images supplied for a scalar domain")
        self._scalar_domain = domain.base if isinstance(domain, PolynomialRing) else domain
        self._check_scalar_map()
        self._plan = None
        if self._raw_images and isinstance(codomain, PolynomialRing):
            if all(len(v.terms) <= 1 for v in self._raw_images):
                self._plan = _single_term_plan(self._raw_images, len(codomain.names))

    def _check_scalar_map(self):
        src, dst = self._scalar_domain, self.codomain
        dst_scalar = dst.base if isinstance(dst, PolynomialRing) else dst
        if isinstance(src, IntegerRing):
            return
        if isinstance(src, RationalRing) and isinstance(dst_scalar, (RationalRing, PrimeField)):
            return
        if isinstance(src, PrimeField) and src == dst_scalar:
            return
        raise UnsupportedRingError(f"no ring map from {src} into {dst_scalar}")

    def __call__(self, x) -> RingElement:
        """Image of x, by the path __init__ chose (see the class docstring)."""
        if isinstance(x, RingElement):
            if x.ring != self.domain:
                raise RingMismatchError(f"element of {x.ring} fed to a map from {self.domain}")
            raw = x.value
        else:
            raw = self.domain.coerce(x)
        if not isinstance(self.domain, PolynomialRing):
            return self.codomain.element(raw)
        if self._plan is not None:
            return self._map_single_terms(raw)
        return self._map_general(raw)

    def _map_single_terms(self, raw: MultiPoly) -> RingElement:
        """Image of raw by the plan of _single_term_plan; mod p once per output term.

        With fix-ups, one loop of steps (m, row, k, w) multiplies in the
        c_m^(e_m) and adds the fix-ups, reading each e_m once: the first
        fix-up of an image carries its row, a scaled image with none is a
        step of weight 0.
        """
        dst = self.codomain
        pick, scaled, fixups, zeros = self._plan
        p, power = dst.base.modulus, dst.base._pow
        rows = {m: [1, c] for m, c in scaled}  # rows[m][e] = c_m^e, grown on demand
        items = raw.terms.items()
        if self._scalar_domain != dst.base:
            items = [(exps, dst.base.coerce(c)) for exps, c in items]
        if zeros:  # after the coercion, so QQ -> Fp raises on a dropped term too
            items = [(exps, c) for exps, c in items if not any(zeros(exps))]
        acc: dict = {}
        if not fixups:
            rows = list(rows.items())
            for exps, c in items:
                for m, row in rows:
                    if e := exps[m]:
                        try:
                            c *= row[e]
                        except IndexError:
                            row += [power(row[1], i) for i in range(len(row), e + 1)]
                            c *= row[e]
                key = pick(exps + (0,))
                acc[key] = acc[key] + c if key in acc else c
        else:
            steps = [(m, rows.pop(m, None), k, w) for m, k, w in fixups]
            steps += [(m, row, 0, 0) for m, row in rows.items()]
            for exps, c in items:
                out = list(pick(exps + (0,)))
                for m, row, k, w in steps:
                    if e := exps[m]:
                        if row:
                            try:
                                c *= row[e]
                            except IndexError:
                                row += [power(row[1], i) for i in range(len(row), e + 1)]
                                c *= row[e]
                        out[k] += w * e
                key = tuple(out)
                acc[key] = acc[key] + c if key in acc else c
        return RingElement(dst, MultiPoly(dst, _nonzero(acc, p)))

    def _map_general(self, raw: MultiPoly) -> RingElement:
        """Image of raw, accumulated term by term into one raw dict.

        Each power of a variable image is computed once per call and
        reused by every term that needs it, so the cost is linear in the
        number of terms of raw times the size of their images.
        """
        dst = self.codomain
        poly_dst = isinstance(dst, PolynomialRing)
        scalar = dst.base if poly_dst else dst
        one = dst.coerce(1)
        images = self._raw_images
        powers = [[one, img] for img in images]  # powers[i][e] = images[i]**e
        acc: dict = {}
        for exps, coeff in raw.terms.items():
            c = scalar.coerce(coeff)
            if not c:
                continue
            mono = one
            for i, e in enumerate(exps):
                if e:
                    cached = powers[i]
                    while len(cached) <= e:
                        cached.append(dst._mul(cached[-1], images[i]))
                    mono = cached[e] if mono is one else dst._mul(mono, cached[e])
            mono_terms = mono.terms if poly_dst else {(): mono}
            for e, v in mono_terms.items():
                v = scalar._mul(c, v)
                acc[e] = scalar._add(acc[e], v) if e in acc else v
        acc = {e: v for e, v in acc.items() if v}
        if poly_dst:
            return RingElement(dst, MultiPoly(dst, acc))
        return RingElement(dst, acc.get((), scalar.coerce(0)))
