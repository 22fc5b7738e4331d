"""Dense univariate polynomials over any supported coefficient ring.

A UniPoly stores coefficients ascending by exponent with trailing
zeros trimmed, so the zero polynomial has an empty coefficient tuple
and its degree is the MINUS_INFINITY sentinel rather than a fake
integer.  The coefficient ring may itself be a multivariate polynomial
ring, which is how towers like ZZ[u0,u1][t] are expressed.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    ExactDivisionError,
    ParameterError,
    RingMismatchError,
    UnsupportedRingError,
)
from .rings import PolynomialRing, PrimeField, RationalRing, Ring, RingElement, RingHom


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


class UniPoly:
    """Immutable dense polynomial in one variable."""

    __slots__ = ("coeff_ring", "var", "coeffs")

    def __init__(self, coeff_ring: Ring, var: str, coeffs: Iterable = ()):
        if isinstance(coeff_ring, PolynomialRing) and var in coeff_ring.names:
            raise ParameterError(
                f"main variable {var!r} collides with a coefficient variable"
            )
        elems = [c if isinstance(c, RingElement) and c.ring == coeff_ring
                 else coeff_ring.element(c)
                 for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        self.coeff_ring = coeff_ring
        self.var = var
        self.coeffs = tuple(elems)

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
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> RingElement:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.coeff_ring.zero

    def leading_coeff(self) -> RingElement:
        return self.coeffs[-1] if self.coeffs else self.coeff_ring.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    # arithmetic -----------------------------------------------------------

    def _same_line(self, other: "UniPoly"):
        if other.coeff_ring != self.coeff_ring or other.var != self.var:
            raise RingMismatchError(
                f"polynomials in {self.coeff_ring}[{self.var}] and "
                f"{other.coeff_ring}[{other.var}] do not mix"
            )

    def _lift(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            self._same_line(other)
            return other
        return UniPoly.constant(self.coeff_ring, self.var, other)

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            self.coeff_ring,
            self.var,
            [self.coefficient(k) + other.coefficient(k) for k in range(n)],
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.coeff_ring, self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.coeff_ring, self.var)
        out = [self.coeff_ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.coeff_ring, self.var, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ParameterError(f"exponent must be a nonnegative integer, got {n!r}")
        result = UniPoly.constant(self.coeff_ring, self.var, 1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __divmod__(self, other):
        """Division with remainder; the divisor needs a unit leading coefficient."""
        other = self._lift(other)
        if other.is_zero():
            raise ExactDivisionError("polynomial division by zero")
        lc = other.leading_coeff()
        if not lc.is_unit():
            raise ExactDivisionError(
                "polynomial division requires a unit leading coefficient"
            )
        quo = UniPoly.zero(self.coeff_ring, self.var)
        rem = self
        d = other.degree
        while (not rem.is_zero()) and rem.degree >= d:
            shift = rem.degree - d
            factor = rem.leading_coeff().exact_div(lc)
            mono = UniPoly.monomial(self.coeff_ring, self.var, shift, factor)
            quo = quo + mono
            rem = rem - mono * other
        return quo, rem

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and other.coeff_ring == self.coeff_ring
            and other.var == self.var
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.coeff_ring, self.var, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # calculus and maps ------------------------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(
            self.coeff_ring,
            self.var,
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))],
        )

    def evaluate(self, point) -> RingElement:
        """Horner evaluation at a point of the coefficient ring."""
        pt = point if isinstance(point, RingElement) else self.coeff_ring.element(point)
        if pt.ring != self.coeff_ring:
            raise RingMismatchError(f"evaluation point lives in {pt.ring}, not {self.coeff_ring}")
        acc = self.coeff_ring.zero
        for c in reversed(self.coeffs):
            acc = acc * pt + c
        return acc

    def map_coefficients(self, hom: RingHom, var: str | None = None) -> "UniPoly":
        """Apply a coefficient-ring map; the main variable is carried along."""
        if hom.domain != self.coeff_ring:
            raise RingMismatchError(
                f"map domain {hom.domain} does not match coefficient ring {self.coeff_ring}"
            )
        return UniPoly(hom.codomain, var or self.var, [hom(c) for c in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ExactDivisionError("the zero polynomial cannot be made monic")
        lc = self.leading_coeff()
        if not lc.is_unit():
            raise ExactDivisionError("leading coefficient is not a unit")
        return UniPoly(self.coeff_ring, self.var, [c.exact_div(lc) for c in self.coeffs])

    # printing ---------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        nonzero = [(k, c) for k, c in enumerate(self.coeffs) if not c.is_zero()]
        if len(nonzero) == 1 and nonzero[0][0] == 0:
            return str(nonzero[0][1])
        chunks = []
        for k, c in reversed(nonzero):
            sign, mag, _atomic = c.ring._sign_mag(c.value)
            if k == 0:
                term = mag
            else:
                var_pow = self.var if k == 1 else f"{self.var}^{k}"
                term = var_pow if mag == "1" else f"{mag}*{var_pow}"
            if not chunks:
                chunks.append(term if sign > 0 else f"-{term}")
            else:
                chunks.append(f" + {term}" if sign > 0 else f" - {term}")
        return "".join(chunks)

    __repr__ = __str__


def unipoly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor over a field (QQ or a prime field)."""
    if f.coeff_ring != g.coeff_ring or f.var != g.var:
        raise RingMismatchError("gcd arguments live in different polynomial rings")
    if not isinstance(f.coeff_ring, (RationalRing, PrimeField)):
        raise UnsupportedRingError(
            f"gcd needs field coefficients, got {f.coeff_ring}"
        )
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()
