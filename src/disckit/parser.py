"""Text input and output for polynomials and ring descriptors.

Grammar accepted by the polynomial parser (whitespace is free):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' exponent)?
    atom   := nat | nat '/' nat | var | '(' expr ')'

Exponents are nonnegative integer literals; a chain like x^2^3 folds
right-associatively to x^8.  Implicit multiplication (2t, 3(x+1)) is a
syntax error, as is '/' applied to anything but two integer literals.
All syntax errors carry a 1-based line and column.

Every intermediate value is bounded before it is built: no integer
literal may have more than MAX_DIGITS digits, no exponent and no total
degree (main variable included) may exceed MAX_DEGREE, and a power over
ZZ or QQ may not predict coefficients longer than _MAX_HEIGHT_BITS bits.
Degrees are checked from the operands before a product or a power is
computed, so an oversized input fails at once.  Expressions are evaluated
on the raw coefficient lists of the unipoly kernel; parse_poly wraps the
result in one UniPoly at the end.

Ring descriptors use the syntax ZZ, QQ, Fp(p), optionally followed by
a variable block: ZZ[b,c], Fp(7)[u0,u1].
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import InputSyntaxError, ParameterError, RingMismatchError
from .rings import GF, QQ, ZZ, PolynomialRing, PrimeField, Ring, RingElement, check_name
from .unipoly import MAX_DEGREE, UniPoly, _add, _mul, _neg, _pow, _sub, _trim

MAX_DIGITS = 4300  # CPython's default int-string limit
_MAX_HEIGHT_BITS = 10**5


def _degree(coeffs: list, ring: Ring) -> int:
    """Total degree of a parsed raw list, main variable included (0 for zero)."""
    if isinstance(ring, PolynomialRing):
        return max((k + (c.total_degree() or 0) for k, c in enumerate(coeffs)), default=0)
    return max(len(coeffs) - 1, 0)


def _height(coeffs: list, ring: Ring) -> int:
    """Bit length of the largest coefficient plus that of the term count.

    A power a^n has coefficients of at most n * _height(a) bits, since
    each is bounded by (terms * largest coefficient)^n.  Residues never
    grow, so over a prime field the height is 0.
    """
    if isinstance(getattr(ring, "base", ring), PrimeField):
        return 0
    if isinstance(ring, PolynomialRing):
        coeffs = [c for poly in coeffs for c in poly.terms.values()]
    bits = 0
    for c in coeffs:
        for part in (c.numerator, c.denominator):
            bits = max(bits, abs(part).bit_length())
    return bits + len(coeffs).bit_length()


class TokenKind(enum.Enum):
    NUMBER = "number"
    IDENT = "identifier"
    PLUS = "'+'"
    MINUS = "'-'"
    STAR = "'*'"
    SLASH = "'/'"
    CARET = "'^'"
    LPAREN = "'('"
    RPAREN = "')'"
    EOF = "end of input"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int


_SINGLE = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "^": TokenKind.CARET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
}


def tokenize(src: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j - i > MAX_DIGITS:
                raise InputSyntaxError(
                    f"integer literal of {j - i} digits exceeds the limit {MAX_DIGITS}",
                    line, col, src,
                )
            tokens.append(Token(TokenKind.NUMBER, src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token(TokenKind.IDENT, src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise InputSyntaxError(f"unexpected character {ch!r}", line, col, src)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


class _Parser:
    """Recursive-descent evaluator on the raw coefficient lists of unipoly.

    Every value is a raw list over ring, ascending in the main variable;
    without a main variable every value has at most one entry.  The
    scope maps variable names to values.
    """

    def __init__(self, src: str, ring: Ring, scope: dict):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.ring = ring
        self.scope = scope

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise InputSyntaxError(message, tok.line, tok.column, self.src)

    def expect(self, kind: TokenKind) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            self.fail(f"expected {kind.value}, found {self._describe(tok)}")
        return self.advance()

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind is TokenKind.EOF:
            return "end of input"
        return f"{tok.kind.value} {tok.text!r}" if tok.text else tok.kind.value

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind is not TokenKind.EOF:
            if tok.kind is TokenKind.SLASH:
                self.fail("'/' is only allowed between two integer literals", tok)
            if tok.kind in (TokenKind.NUMBER, TokenKind.IDENT, TokenKind.LPAREN):
                self.fail(
                    f"unexpected {self._describe(tok)}; use '*' for multiplication", tok
                )
            self.fail(f"unexpected {self._describe(tok)}", tok)
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance()
            rhs = self.term()
            value = (_add if op.kind is TokenKind.PLUS else _sub)(value, rhs, self.ring)
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind is TokenKind.STAR:
            op = self.advance()
            rhs = self.factor()
            self.check_degree(_degree(value, self.ring) + _degree(rhs, self.ring), op)
            value = _mul(value, rhs, self.ring)
        return value

    def factor(self):
        if self.peek().kind is TokenKind.MINUS:
            self.advance()
            return _neg(self.factor(), self.ring)
        value = self.atom()
        if self.peek().kind is TokenKind.CARET:
            op = self.advance()
            n = self.exponent()
            if n > 1:
                self.check_degree(n * _degree(value, self.ring), op)
                if n * _height(value, self.ring) > _MAX_HEIGHT_BITS:
                    self.fail(f"the power would have coefficients over {_MAX_HEIGHT_BITS} bits", op)
            value = _pow(value, n, self.ring)
        return value

    def check_degree(self, degree: int, op: Token):
        if degree > MAX_DEGREE:
            self.fail(f"degree {degree} exceeds the limit {MAX_DEGREE}", op)

    def exponent(self) -> int:
        parts = [self.nat(limit=True)]
        while self.peek().kind is TokenKind.CARET:
            self.advance()
            parts.append(self.nat(limit=True))
        acc = parts[-1]
        for x in reversed(parts[:-1]):
            if x > 1:
                if acc > 20 or x**acc > MAX_DEGREE:
                    self.fail(f"exponent exceeds the limit {MAX_DEGREE}", self.tokens[self.pos - 1])
                acc = x**acc
            else:
                acc = x**acc
        return acc

    def nat(self, limit: bool = False) -> int:
        tok = self.expect(TokenKind.NUMBER)
        value = int(tok.text)
        if limit and value > MAX_DEGREE:
            self.fail(f"exponent exceeds the limit {MAX_DEGREE}", tok)
        return value

    def atom(self):
        tok = self.peek()
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            num = int(tok.text)
            if self.peek().kind is TokenKind.SLASH:
                self.advance()
                den_tok = self.expect(TokenKind.NUMBER)
                den = int(den_tok.text)
                if den == 0:
                    self.fail("zero denominator", den_tok)
                return self.const(Fraction(num, den), tok)
            return self.const(num, tok)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            if tok.text not in self.scope:
                known = ", ".join(sorted(self.scope)) or "none"
                self.fail(f"unknown variable {tok.text!r} (known: {known})", tok)
            return self.scope[tok.text]
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            value = self.expr()
            self.expect(TokenKind.RPAREN)
            return value
        self.fail(f"expected a number, variable, or '(', found {self._describe(tok)}")

    def const(self, literal, tok: Token):
        try:
            return _trim([self.ring.coerce(literal)])
        except (RingMismatchError, ParameterError) as exc:
            self.fail(str(exc), tok)


def parse_poly(src: str, ring: Ring, main_var: str | None = None):
    """Parse src over ring.

    With main_var set, the result is a UniPoly in that variable whose
    coefficients live in ring (which may itself be a polynomial ring).
    With main_var omitted, ring must be a polynomial ring and the result
    is one of its elements.  Every identifier outside the declared
    variables is rejected with a positioned error.
    """
    if main_var is None:
        if not isinstance(ring, PolynomialRing):
            raise ParameterError(
                "a main variable is required when the ring has no variables"
            )
        return parse_element(src, ring)
    check_name(main_var)
    if isinstance(ring, PolynomialRing) and main_var in ring.names:
        raise ParameterError(
            f"main variable {main_var!r} collides with a coefficient variable"
        )
    scope = _ring_scope(ring)
    scope[main_var] = [ring.coerce(0), ring.coerce(1)]
    return UniPoly._of(ring, main_var, _Parser(src, ring, scope).parse())


def parse_element(src: str, ring: Ring) -> RingElement:
    """Parse src as an element of ring (variables allowed for polynomial rings)."""
    value = _Parser(src, ring, _ring_scope(ring)).parse()
    return RingElement(ring, value[0] if value else ring.coerce(0))


def _ring_scope(ring: Ring) -> dict:
    """The variables of a polynomial ring as one-entry raw lists."""
    if not isinstance(ring, PolynomialRing):
        return {}
    return {name: [ring.variable(name).value] for name in ring.names}


_RING_RE = re.compile(
    r"\s*(?:(ZZ|QQ)|Fp\(\s*([0-9]+)\s*\))\s*(?:\[([^\][]*)\])?\s*\Z"
)


def parse_ring(text: str) -> Ring:
    """Parse a ring descriptor: ZZ, QQ, Fp(p), or any of those with [vars]."""
    m = _RING_RE.match(text)
    if not m:
        raise ParameterError(
            f"bad ring descriptor {text!r}; expected ZZ, QQ, Fp(p), or R[v1,...]"
        )
    scalar_name, prime_text, var_block = m.groups()
    if scalar_name == "ZZ":
        base: Ring = ZZ
    elif scalar_name == "QQ":
        base = QQ
    elif len(prime_text) > MAX_DIGITS:
        raise ParameterError(f"the prime of Fp(p) has {len(prime_text)} digits, over {MAX_DIGITS}")
    else:
        base = GF(int(prime_text))
    if var_block is None:
        return base
    names = [v.strip() for v in var_block.split(",")]
    if names == [""]:
        raise ParameterError(f"empty variable block in ring descriptor {text!r}")
    return PolynomialRing(base, names)

