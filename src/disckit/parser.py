"""Text input and output for polynomials and ring descriptors.

Grammar accepted by the polynomial parser (whitespace is free):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' exponent)?
    atom   := nat | nat '/' nat | var | '(' expr ')'

A nat is a run of the ASCII digits 0-9 (not '²', '٣' or any other Unicode
digit), and a var is an ASCII name [A-Za-z_][A-Za-z0-9_]* (rings.NAME_PATTERN,
the rule of every variable name), so 'é' or the '²' of 't²' is an unexpected
character.  Exponents are nonnegative integer literals; a chain like x^2^3
folds right-associatively to x^8.  Implicit multiplication (2t, 3(x+1)) is a
syntax error, as is '/' applied to anything but two integer literals.
All syntax errors carry a 1-based line and column.

The source is cut into tokens by one compiled regex.  A token is a plain
tuple (kind, text, offset): the kind is the string messages name it by
("number", "'+'", ...), a module constant compared by identity, and the
offset the index of its first character; line and column are computed
from the offset only when an error is raised.

Every intermediate value is bounded before it is built: no integer
literal may have more than MAX_DIGITS digits, no exponent and no total
degree (main variable included) may exceed MAX_DEGREE, and a power over
ZZ or QQ may not predict coefficients longer than _MAX_HEIGHT_BITS bits.
Degrees are checked from the operands before a product or a power is
computed, so an oversized input fails at once.  The evaluators recurse
once per parenthesis, so a '(' nested more than _MAX_NESTING deep is a
syntax error at that '(' rather than a stack overflow.  A run of unary
minus signs is counted in a loop, not recursed into, and negates its
factor once if the count is odd.

The evaluator makes one pass over the tokens.  A term folds its numbers
and powers of its variables into one coefficient c and one power x^k of
the main variable x, with the ring's raw operations; only parenthesised
sums that are not a single term go through the list product and power of
the unipoly kernel.  A sum adds each term into one raw coefficient list
at index k, and parse_poly wraps that list in one UniPoly at the end.
The evaluator that built every intermediate value as a raw list is kept
as _ReferenceParser, which the tests hold the evaluator to.

Ring descriptors use the syntax ZZ, QQ, Fp(p), optionally followed by
a variable block: ZZ[b,c], Fp(7)[u0,u1].
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import InputSyntaxError, ParameterError, RingMismatchError
from .rings import GF, NAME_PATTERN, QQ, ZZ, PolynomialRing, Ring, RingElement, check_name, check_ring
from .unipoly import MAX_DEGREE, UniPoly, _add, _degree, _mul, _neg, _pow, _sub, _trim

MAX_DIGITS = 4300  # CPython's default int-string limit
_MAX_HEIGHT_BITS = 10**5
_MAX_NESTING = 100  # five frames a level, far inside the default limit of 1000


def _height(coeffs: list, ring: Ring) -> int:
    """Bit length of the largest coefficient plus that of the term count.

    A power a^n has coefficients of at most n * _height(a) bits, since
    each is bounded by (terms * largest coefficient)^n.  Residues never
    grow, so over a prime field (a nonzero modulus) the height is 0.
    """
    if getattr(ring, "base", ring).modulus:
        return 0
    if isinstance(ring, PolynomialRing):
        coeffs = [c for poly in coeffs for c in poly.terms.values()]
    bits = 0
    for c in coeffs:
        for part in (c.numerator, c.denominator):
            bits = max(bits, abs(part).bit_length())
    return bits + len(coeffs).bit_length()


def _monomial_height(c, k: int, ring: Ring) -> int:
    """_height of the raw list of c*x^k, without building the list."""
    if not c or getattr(ring, "base", ring).modulus:
        return 0
    if isinstance(ring, PolynomialRing):
        bits = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                   for x in c.terms.values())
        return bits + len(c.terms).bit_length()
    # the k zeros below c have denominator 1, which c's denominator matches
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length()) + (k + 1).bit_length()


_NUMBER, _IDENT, _EOF = "number", "identifier", "end of input"
_PLUS, _MINUS, _STAR, _SLASH, _CARET = "'+'", "'-'", "'*'", "'/'", "'^'"
_LPAREN, _RPAREN = "'('", "')'"

# One alternative per token kind, each its own group, so a match's lastindex
# names the kind (_KINDS).  Group 10 is any other character, an error.  The
# leading whitespace is skipped inside the match; tokenize stops the scan
# before trailing whitespace, so every match that starts also succeeds.
_SPACE = " \t\r\n"
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:([0-9]+)|(" + NAME_PATTERN + r")"
    r"|(\+)|(-)|(\*)|(/)|(\^)|(\()|(\))|([^ \t\r\n]))"
)
_KINDS = (None, _NUMBER, _IDENT, _PLUS, _MINUS, _STAR, _SLASH, _CARET, _LPAREN, _RPAREN)
_BAD = len(_KINDS)
_LASTINDEX = operator.attrgetter("lastindex")


def _syntax_error(src: str, message: str, offset: int) -> InputSyntaxError:
    """The error at src[offset], its 1-based line and column counted here."""
    line = src.count("\n", 0, offset) + 1
    column = offset - src.rfind("\n", 0, offset)
    return InputSyntaxError(message, line, column, src)


def tokenize(src: str) -> list[tuple]:
    """The (kind, text, offset) tokens of src, ending with an EOF token.

    Raises at the first character that starts no token, or at the first
    integer literal of more than MAX_DIGITS digits, whichever comes first.
    """
    matches = list(_TOKEN_RE.finditer(src, 0, len(src.rstrip(_SPACE))))
    groups = list(map(_LASTINDEX, matches))
    if _BAD in groups or len(src) > MAX_DIGITS:
        for m, g in zip(matches, groups):
            if g == _BAD:
                raise _syntax_error(src, f"unexpected character {m[g]!r}", m.start(g))
            if g == 1 and len(m[g]) > MAX_DIGITS:
                raise _syntax_error(
                    src, f"integer literal of {len(m[g])} digits exceeds the limit {MAX_DIGITS}",
                    m.start(g),
                )
    tokens = list(zip(map(_KINDS.__getitem__, groups),
                      map(re.Match.group, matches, groups),
                      map(re.Match.start, matches, groups)))
    tokens.append((_EOF, "", len(src)))
    return tokens


class _Evaluator:
    """Token handling shared by the evaluator and its reference.

    Subclasses build self.scope (name -> value of the variable) and define
    expr(), which returns the raw coefficient list of the expression.
    """

    def __init__(self, src: str, ring: Ring):
        check_ring(ring)
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def fail(self, message: str, tok: tuple | None = None):
        raise _syntax_error(self.src, message, (tok or self.tokens[self.pos])[2])

    def expect(self, kind: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] is not kind:
            self.fail(f"expected {kind}, found {self._describe(tok)}")
        self.pos += 1
        return tok

    @staticmethod
    def _describe(tok: tuple) -> str:
        kind, text, _ = tok
        return f"{kind} {text!r}" if kind is _NUMBER or kind is _IDENT else kind

    def parse(self) -> list:
        value = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] is not _EOF:
            if tok[0] is _SLASH:
                self.fail("'/' is only allowed between two integer literals", tok)
            if tok[0] in (_NUMBER, _IDENT, _LPAREN):
                self.fail(
                    f"unexpected {self._describe(tok)}; use '*' for multiplication", tok
                )
            self.fail(f"unexpected {self._describe(tok)}", tok)
        return value

    def unknown(self, tok: tuple):
        names = set(self.scope)
        if isinstance(self.ring, PolynomialRing):
            names.update(self.ring.names)
        known = ", ".join(sorted(names)) or "none"
        self.fail(f"unknown variable {tok[1]!r} (known: {known})", tok)

    def group_expr(self, tok: tuple) -> list:
        """The raw list of '(' expr ')', tok the '(' already consumed.

        A '(' nested more than _MAX_NESTING deep is an error at that '('.
        """
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail(f"parentheses nested more than {_MAX_NESTING} deep", tok)
        value = self.expr()
        self.expect(_RPAREN)
        self.depth -= 1
        return value

    def check_degree(self, degree: int, op: tuple):
        if degree > MAX_DEGREE:
            self.fail(f"degree {degree} exceeds the limit {MAX_DEGREE}", op)

    def check_height(self, bits: int, op: tuple):
        if bits > _MAX_HEIGHT_BITS:
            self.fail(f"the power would have coefficients over {_MAX_HEIGHT_BITS} bits", op)

    def exponent(self) -> int:
        parts = [self.nat()]
        while self.tokens[self.pos][0] is _CARET:
            self.pos += 1
            parts.append(self.nat())
        acc = parts[-1]
        for x in reversed(parts[:-1]):
            if x > 1 and (acc > 20 or x**acc > MAX_DEGREE):
                self.fail(f"exponent exceeds the limit {MAX_DEGREE}", self.tokens[self.pos - 1])
            acc = x**acc
        return acc

    def nat(self) -> int:
        tok = self.expect(_NUMBER)
        value = int(tok[1])
        if value > MAX_DEGREE:
            self.fail(f"exponent exceeds the limit {MAX_DEGREE}", tok)
        return value

    def number(self, tok: tuple):
        """The raw value of the literal tok, or of tok '/' nat; tok is consumed."""
        num = int(tok[1])
        if self.tokens[self.pos][0] is _SLASH:
            self.pos += 1
            den_tok = self.expect(_NUMBER)
            den = int(den_tok[1])
            if den == 0:
                self.fail("zero denominator", den_tok)
            num = Fraction(num, den)
        try:
            return self.ring.coerce(num)
        except (RingMismatchError, ParameterError) as exc:
            self.fail(str(exc), tok)


class _Parser(_Evaluator):
    """One-pass evaluator: each factor and term is folded to c*x^k*poly.

    A factor or a term is a tuple (c, k, deg, poly) for the value
    c * x^k * poly, x the main variable: c a raw value of the ring, k >= 0,
    and poly None (a monomial) or a raw list with at least two nonzero
    entries (a parenthesised sum, which enters as (one, 0, deg, list)).
    deg is the total degree of the value, kept alongside so that the
    bounds need no rescan; a zero value is always (zero, 0, 0, None).
    The scope holds the main variable and each ring variable the source
    has named so far: a ring variable is built at its first use, so a
    parse costs nothing for the variables it does not name.
    """

    def __init__(self, src: str, ring: Ring, main_var: str | None):
        super().__init__(src, ring)
        self.zero, self.one = ring.coerce(0), ring.coerce(1)
        self.polynomial = isinstance(ring, PolynomialRing)
        self.scope = {} if main_var is None else {main_var: (self.one, 1, 1, None)}

    def expr(self) -> list:
        tokens, ring, one = self.tokens, self.ring, self.one
        add = ring._add
        acc = {}  # exponent -> coefficient
        negate = False
        while True:
            c, k, _, poly = self.term()
            if c:
                if negate:
                    c = ring._neg(c)
                if poly is None:
                    terms = ((k, c),)
                elif c is one:
                    terms = enumerate(poly, k)
                else:
                    mul = ring._mul
                    terms = [(i, mul(c, x) if x else x) for i, x in enumerate(poly, k)]
                for i, x in terms:
                    y = acc.get(i)
                    acc[i] = x if y is None else add(y, x)
            kind = tokens[self.pos][0]
            if kind is _PLUS:
                negate = False
            elif kind is _MINUS:
                negate = True
            else:
                break
            self.pos += 1
        if not acc:
            return []
        coeffs = [self.zero] * (max(acc) + 1)
        for i, x in acc.items():
            coeffs[i] = x
        return _trim(coeffs)

    def term(self) -> tuple:
        c, k, deg, poly = self.factor()
        tokens = self.tokens
        while tokens[self.pos][0] is _STAR:
            op = tokens[self.pos]
            self.pos += 1
            c2, k2, deg2, poly2 = self.factor()
            deg += deg2
            self.check_degree(deg, op)
            if c2 is not self.one:
                c = c2 if c is self.one else self.ring._mul(c, c2)
            if not c:
                k, deg, poly = 0, 0, None
            else:
                k += k2
                if poly2 is not None:
                    poly = poly2 if poly is None else _mul(poly, poly2, self.ring)
        return c, k, deg, poly

    def factor(self) -> tuple:
        tokens = self.tokens
        start = self.pos
        while tokens[self.pos][0] is _MINUS:
            self.pos += 1
        negate = (self.pos - start) % 2
        tok = tokens[self.pos]
        kind = tok[0]
        self.pos += 1
        if kind is _IDENT:
            value = self.scope.get(tok[1])
            if value is None:
                value = self.variable(tok)
        elif kind is _NUMBER:
            c = self.number(tok)
            value = (c, 0, 0, None)
        elif kind is _LPAREN:
            value = self.group(tok)
        else:
            self.fail(f"expected a number, variable, or '(', found {self._describe(tok)}", tok)
        if tokens[self.pos][0] is _CARET:
            value = self.power(value)
        if negate:
            c, k, deg, poly = value
            return self.ring._neg(c), k, deg, poly
        return value

    def variable(self, tok: tuple) -> tuple:
        """The factor of the ring variable tok names, built and kept in the
        scope at its first use; any other name is an error."""
        name = tok[1]
        if not (self.polynomial and name in self.ring.names):
            self.unknown(tok)
        value = self.scope[name] = (self.ring.variable(name).value, 0, 1, None)
        return value

    def group(self, tok: tuple) -> tuple:
        """The value of '(' expr ')', tok the '(' already consumed, as a factor."""
        coeffs = self.group_expr(tok)
        if not coeffs:
            return self.zero, 0, 0, None
        if any(coeffs[:-1]):
            return self.one, 0, _degree(coeffs, self.ring), coeffs
        c, k = coeffs[-1], len(coeffs) - 1
        return c, k, k + (c.total_degree() if self.polynomial else 0), None

    def power(self, value: tuple) -> tuple:
        op = self.tokens[self.pos]
        self.pos += 1
        n = self.exponent()
        if n == 1:
            return value
        if n == 0:
            return self.one, 0, 0, None
        c, k, deg, poly = value
        self.check_degree(n * deg, op)
        if poly is None:
            self.check_height(n * _monomial_height(c, k, self.ring), op)
            return c if c is self.one else self.ring._pow(c, n), k * n, deg * n, None
        self.check_height(n * _height(poly, self.ring), op)
        return c, 0, deg * n, _pow(poly, n, self.ring)  # c is one (see group)


class _ReferenceParser(_Evaluator):
    """The evaluator the tests hold _Parser to.

    Every intermediate value is a raw list over ring, ascending in the
    main variable, built by the list operations of the unipoly kernel;
    without a main variable every value has at most one entry.  The
    scope maps variable names to values.  Degrees and heights are read
    off the operand lists before every product and power.
    """

    def __init__(self, src: str, ring: Ring, main_var: str | None):
        super().__init__(src, ring)
        scope = _ring_scope(ring)
        if main_var is not None:
            scope[main_var] = [ring.coerce(0), ring.coerce(1)]
        self.scope = scope

    def expr(self):
        value = self.term()
        while self.tokens[self.pos][0] in (_PLUS, _MINUS):
            op = self.tokens[self.pos]
            self.pos += 1
            rhs = self.term()
            value = (_add if op[0] is _PLUS else _sub)(value, rhs, self.ring)
        return value

    def term(self):
        value = self.factor()
        while self.tokens[self.pos][0] is _STAR:
            op = self.tokens[self.pos]
            self.pos += 1
            rhs = self.factor()
            self.check_degree(_degree(value, self.ring) + _degree(rhs, self.ring), op)
            value = _mul(value, rhs, self.ring)
        return value

    def factor(self):
        start = self.pos
        while self.tokens[self.pos][0] is _MINUS:
            self.pos += 1
        negate = (self.pos - start) % 2
        value = self.atom()
        if self.tokens[self.pos][0] is _CARET:
            op = self.tokens[self.pos]
            self.pos += 1
            n = self.exponent()
            if n > 1:
                self.check_degree(n * _degree(value, self.ring), op)
                self.check_height(n * _height(value, self.ring), op)
            value = _pow(value, n, self.ring)
        return _neg(value, self.ring) if negate else value

    def atom(self):
        tok = self.tokens[self.pos]
        if tok[0] is _NUMBER:
            self.pos += 1
            return _trim([self.number(tok)])
        if tok[0] is _IDENT:
            self.pos += 1
            if tok[1] not in self.scope:
                self.unknown(tok)
            return self.scope[tok[1]]
        if tok[0] is _LPAREN:
            self.pos += 1
            return self.group_expr(tok)
        self.fail(f"expected a number, variable, or '(', found {self._describe(tok)}")


def parse_poly(src: str, ring: Ring, main_var: str | None = None):
    """Parse src over ring.

    With main_var set, the result is a UniPoly in that variable whose
    coefficients live in ring (which may itself be a polynomial ring).
    With main_var omitted, ring must be a polynomial ring and the result
    is one of its elements.  Every identifier outside the declared
    variables is rejected with a positioned error.
    """
    return _parse_poly(_Parser, src, ring, main_var)


def parse_element(src: str, ring: Ring) -> RingElement:
    """Parse src as an element of ring (variables allowed for polynomial rings)."""
    return _parse_element(_Parser, src, ring)


def _parse_poly(evaluator: type[_Evaluator], src: str, ring: Ring, main_var: str | None):
    """parse_poly on the given evaluator class."""
    if main_var is None:
        if not isinstance(ring, PolynomialRing):
            raise ParameterError(
                "a main variable is required when the ring has no variables"
            )
        return _parse_element(evaluator, src, ring)
    check_name(main_var)
    if isinstance(ring, PolynomialRing) and main_var in ring.names:
        raise ParameterError(
            f"main variable {main_var!r} collides with a coefficient variable"
        )
    return UniPoly._of(ring, main_var, evaluator(src, ring, main_var).parse())


def _parse_element(evaluator: type[_Evaluator], src: str, ring: Ring) -> RingElement:
    """parse_element on the given evaluator class."""
    value = evaluator(src, ring, None).parse()
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
