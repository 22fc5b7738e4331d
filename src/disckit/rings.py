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

Everything is immutable and every operation is a pure function, so
values can be shared freely between threads.

The heavy symbolic work (Bareiss determinants and exact division) runs
in a private packed-monomial kernel, _Packed, on dicts from one int per
exponent vector to an int coefficient (a residue over Fp); MultiPoly is
converted at the boundary, and QQ[vars] is first cleared to ZZ[vars].
"""

from __future__ import annotations

import functools
import heapq
import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    DisckitError,
    ExactDivisionError,
    ParameterError,
    RingMismatchError,
    UnsupportedRingError,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_MAX_PRIME = 2**31


def check_name(name: str) -> None:
    """Raise ParameterError unless name can be a variable of a polynomial."""
    if not _NAME_RE.match(name):
        raise ParameterError(f"bad variable name {name!r}")


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
    Python values listed in the module docstring.  The raw value itself
    answers two questions without its ring: it is falsy exactly when it
    is zero, and str() prints it.  User code works with RingElement
    wrappers obtained from element()/zero/one.
    """

    def element(self, value) -> "RingElement":
        return RingElement(self, self.coerce(value))

    @property
    def zero(self) -> "RingElement":
        return self.element(0)

    @property
    def one(self) -> "RingElement":
        return self.element(1)

    # raw-value protocol -------------------------------------------------

    def coerce(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _mul(self, a, b):
        raise NotImplementedError

    def _is_one(self, a) -> bool:
        raise NotImplementedError

    def _is_unit(self, a) -> bool:
        raise NotImplementedError

    def _exact_div(self, a, b):
        """a / b when b divides a exactly; ExactDivisionError otherwise."""
        raise NotImplementedError

    def _sign_mag(self, a) -> tuple[int, str]:
        """Split a into (sign, magnitude string) for term printing.

        Residues and multi-term polynomials have sign +1; a multi-term
        magnitude is parenthesised.
        """
        raise NotImplementedError


class _NumberRing(Ring):
    """Arithmetic shared by ZZ and QQ, whose raw values are Python numbers."""

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _is_one(self, a):
        return a == 1

    def _sign_mag(self, a):
        return (1 if a >= 0 else -1), str(abs(a))


class IntegerRing(_NumberRing):
    def coerce(self, value):
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatchError(f"cannot coerce element of {value.ring} into ZZ")
            return value.value
        if isinstance(value, bool):
            raise ParameterError("booleans are not ring values")
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

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __str__(self):
        return "ZZ"

    __repr__ = __str__


class RationalRing(_NumberRing):
    def coerce(self, value):
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatchError(f"cannot coerce element of {value.ring} into QQ")
            return value.value
        if isinstance(value, bool):
            raise ParameterError("booleans are not ring values")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise RingMismatchError(f"cannot coerce {value!r} into QQ")

    def _is_unit(self, a):
        return a != 0

    def _exact_div(self, a, b):
        if b == 0:
            raise ExactDivisionError("division by zero in QQ")
        return a / b

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("QQ")

    def __str__(self):
        return "QQ"

    __repr__ = __str__


class PrimeField(Ring):
    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParameterError("field characteristic must be an integer")
        if p >= _MAX_PRIME:
            raise ParameterError(f"prime {p} exceeds the supported bound 2^31")
        if not _is_prime(p):
            raise ParameterError(f"{p} is not prime")
        self.p = p

    def coerce(self, value):
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatchError(f"cannot coerce element of {value.ring} into {self}")
            return value.value
        if isinstance(value, bool):
            raise ParameterError("booleans are not ring values")
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

    def _is_one(self, a):
        return a == 1

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


@functools.lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


class PolynomialRing(Ring):
    """Sparse multivariate polynomials over ZZ, QQ, or a prime field."""

    def __init__(self, base: Ring, names: Iterable[str]):
        if isinstance(base, PolynomialRing):
            raise UnsupportedRingError(
                "polynomial rings do not nest; flatten the variables instead"
            )
        if not isinstance(base, Ring):
            raise UnsupportedRingError(f"unsupported base ring {base!r}")
        names = tuple(names)
        if not names:
            raise ParameterError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate variable names in {names}")
        for name in names:
            check_name(name)
        self.base = base
        self.names = names

    def variable(self, name: str) -> "RingElement":
        if name not in self.names:
            raise ParameterError(
                f"{self} has no variable {name!r}; its variables are {', '.join(self.names)}"
            )
        i = self.names.index(name)
        exps = tuple(1 if k == i else 0 for k in range(len(self.names)))
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

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

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
        i = self.ring.names.index(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name**power, as a polynomial in the same ring."""
        i = self.ring.names.index(name)
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
        if divisor.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if isinstance(self.ring.base, RationalRing):
            (num, den), _ = clear_denominators((self, divisor))
            g = gcd(*den.terms.values())
            quotient = num.exact_div(den._new({e: c // g for e, c in den.terms.items()}))
            return self._new({e: Fraction(c, g) for e, c in quotient.terms.items()})
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
        if self._hash is None:
            items = tuple(sorted(self.terms.items()))
            self._hash = hash((self.ring, items))
        return self._hash

    # printing -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        base, names = self.ring.base, self.ring.names
        return _join_terms(_signed_term(base, coeff, _monomial_str(names, exps))
                           for exps, coeff in self.sorted_terms())

    __repr__ = __str__


def clear_denominators(polys: Sequence[MultiPoly]) -> tuple[list[MultiPoly], int]:
    """([s*f for f in polys] in ZZ[vars], s) for polys over QQ[vars].

    s is the lcm of every coefficient denominator (1 if all polys are 0).
    """
    s = lcm(*(c.denominator for f in polys for c in f.terms.values()))
    twin = PolynomialRing(ZZ, polys[0].ring.names)
    cleared = [
        MultiPoly(twin, {e: c.numerator * (s // c.denominator) for e, c in f.terms.items()})
        for f in polys
    ]
    return cleared, s


class _Packed:
    """Packed-monomial arithmetic in ZZ[vars] or Fp[vars] at one field width.

    An exponent vector (e_1, ..., e_k) becomes one int of k fields of
    `width` bits, e_1 in the most significant field.  The top bit of each
    field is a guard bit that no exponent up to `cap` = 2^(width-1) - 1
    reaches, and the width is chosen so that no exponent met by the
    caller's computation exceeds the cap.  Then multiplying monomials is
    one int addition, int order is the lexicographic monomial order, and
    d divides e iff ((e | G) - d) & G == G for the guard mask G: every
    field of e | G is at least its guard, so the subtraction borrows
    across no field, and a field keeps its guard iff e_i >= d_i.

    A packed value is a dict from packed monomials to nonzero ints:
    integers over ZZ, residues in [0, p) over Fp(p).  QQ[vars] is
    refused; callers clear its denominators first (clear_denominators).
    """

    def __init__(self, ring: PolynomialRing, bound: int):
        if isinstance(ring.base, RationalRing):
            raise UnsupportedRingError(f"the packed kernel needs ZZ or Fp coefficients, got {ring}")
        self.ring = ring
        self.p = ring.base.p if isinstance(ring.base, PrimeField) else None
        self.width = w = bound.bit_length() + 1
        self.cap = (1 << (w - 1)) - 1
        self._mask = (1 << w) - 1
        self._shifts = range(w * (len(ring.names) - 1), -1, -w)
        ones = self._key((1,) * len(ring.names))
        self.guard = ones << (w - 1)
        self.caps = ones * self.cap

    def _key(self, exps) -> int:
        key = 0
        for x in exps:
            key = (key << self.width) | x
        return key

    def _exponents(self, key: int) -> tuple[int, ...]:
        return tuple((key >> s) & self._mask for s in self._shifts)

    def pack(self, poly: MultiPoly) -> dict:
        return {self._key(exps): c for exps, c in poly.terms.items()}

    def unpack(self, packed: dict) -> MultiPoly:
        return MultiPoly(self.ring, {self._exponents(key): c for key, c in packed.items()})

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
        p = self.p
        if p is None:
            out = {e: v for e, v in out.items() if v}
        else:
            out = {e: r for e, v in out.items() if (r := v % p)}
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
        inverse = None if p is None else pow(lc, -1, p)
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
            if p is not None:
                c %= p
                if not c:
                    continue
            if ((e | guard) - lead) & guard != guard:
                raise ExactDivisionError("inexact polynomial division (monomial)")
            d = e - lead
            if (qmax - d) & guard != guard:
                raise ExactDivisionError("inexact polynomial division (degree)")
            if p is None:
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
        if not isinstance(n, int) or n < 0:
            raise ParameterError(f"exponent must be a nonnegative integer, got {n!r}")
        result = self.ring.one
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

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


class RingHom:
    """Ring map described by a base-ring coercion plus variable images.

    The base map is inferred: ZZ embeds anywhere, QQ maps to QQ or to
    Fp (failing on non-invertible denominators), Fp maps only to the
    same Fp.  For a polynomial domain each variable needs an image in
    the codomain; omitted variables default to the same-named codomain
    variable when one exists.
    """

    def __init__(self, domain: Ring, codomain: Ring, images: Mapping[str, object] | None = None):
        self.domain = domain
        self.codomain = codomain
        self._images: dict[str, RingElement] = {}
        if isinstance(domain, PolynomialRing):
            images = dict(images or {})
            for name in domain.names:
                if name in images:
                    self._images[name] = codomain.element(images.pop(name))
                elif isinstance(codomain, PolynomialRing) and name in codomain.names:
                    self._images[name] = codomain.variable(name)
                else:
                    raise ParameterError(f"no image given for variable {name!r}")
            if images:
                raise ParameterError(f"images for unknown variables {sorted(images)}")
        elif images:
            raise ParameterError("variable images supplied for a scalar domain")
        self._scalar_domain = domain.base if isinstance(domain, PolynomialRing) else domain
        self._check_scalar_map()

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

    def _map_scalar(self, raw) -> RingElement:
        return self.codomain.element(raw)

    def __call__(self, x) -> RingElement:
        """Image of x, accumulated term by term into one raw dict.

        Each power of a variable image is computed once per call and
        reused by every term that needs it, so the cost is linear in the
        number of terms of x times the size of their images.
        """
        if isinstance(x, RingElement):
            if x.ring != self.domain:
                raise RingMismatchError(f"element of {x.ring} fed to a map from {self.domain}")
            raw = x.value
        else:
            raw = self.domain.coerce(x)
        if not isinstance(self.domain, PolynomialRing):
            return self._map_scalar(raw)
        dst = self.codomain
        poly_dst = isinstance(dst, PolynomialRing)
        scalar = dst.base if poly_dst else dst
        one = dst.coerce(1)
        images = [self._images[name].value for name in self.domain.names]
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
