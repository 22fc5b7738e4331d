"""Reference arithmetic for the benchmark's checks, independent of disckit.

Everything here is plain Python over ``fractions.Fraction``: Sylvester
matrices and their determinants by Gaussian elimination, an evaluator
for the polynomial text disckit prints, and the closed forms the checks
compare against.  Nothing imports disckit, so a defect in its
arithmetic cannot hide in the reference.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction


def derivative(coeffs: list) -> list:
    """Derivative of an ascending coefficient list."""
    return [k * c for k, c in enumerate(coeffs)][1:]


def determinant(rows: list[list]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if work[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            det = -det
        head = work[k][k]
        det *= head
        for r in range(k + 1, n):
            factor = work[r][k] / head
            if factor:
                row, top = work[r], work[k]
                for c in range(k, n):
                    row[c] -= factor * top[c]
    return det


def sylvester_det(f: list, g: list, m: int, n: int) -> Fraction:
    """Raw Sylvester determinant of ascending lists f, g at declared degrees m, n."""
    f, g = _padded(f, m), _padded(g, n)
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for k in range(m + 1):
            row[i + k] = f[m - k]
        rows.append(row)
    for j in range(m):
        row = [0] * size
        for k in range(n + 1):
            row[j + k] = g[n - k]
        rows.append(row)
    return determinant(rows)


def _padded(coeffs: list, degree: int) -> list:
    coeffs = list(coeffs)
    while len(coeffs) > degree + 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) > degree + 1:
        raise ValueError(f"declared degree {degree} is below the actual degree")
    return coeffs + [0] * (degree + 1 - len(coeffs))


def discriminant(coeffs: list, degree: int) -> Fraction:
    """Raw discriminant Res_{d,d-1}(P, P') at declared degree d."""
    return sylvester_det(coeffs, derivative(coeffs), degree, degree - 1)


# ----- evaluating printed polynomials --------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


@functools.lru_cache(maxsize=4096)
def _tokens(text: str) -> tuple:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize {text!r} at {pos}")
        number, name, sym = m.groups()
        out.append(("n", int(number)) if number else ("v", name) if name else ("s", sym))
        pos = m.end()
    out.append(("s", "$"))
    return tuple(out)


def evaluate(text: str, env: dict) -> Fraction | int:
    """Value of printed polynomial text with variables bound by env.

    Accepts sums, differences, products, quotients, unary minus,
    nonnegative integer powers and parentheses: everything disckit's
    printers emit.  Integers stay ints until a quotient needs a Fraction.
    """
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok

    def expr():
        value = term()
        while peek() in (("s", "+"), ("s", "-")):
            op = take()[1]
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        value = unary()
        while peek() in (("s", "*"), ("s", "/")):
            op = take()[1]
            rhs = unary()
            value = value * rhs if op == "*" else Fraction(value) / rhs
        return value

    def unary():
        if peek() == ("s", "-"):
            take()
            return -unary()
        return power()

    def power():
        base = atom()
        if peek() == ("s", "^"):
            take()
            kind, exp = take()
            if kind != "n":
                raise ValueError(f"bad exponent in {text!r}")
            return base**exp
        return base

    def atom():
        kind, val = take()
        if kind == "n":
            return val
        if kind == "v":
            return env[val]
        if (kind, val) == ("s", "("):
            value = expr()
            if take() != ("s", ")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return value
        raise ValueError(f"unexpected {val!r} in {text!r}")

    value = expr()
    if peek() != ("s", "$"):
        raise ValueError(f"trailing input in {text!r}")
    return value


def coefficients_in(text: str, var: str, degree: int, env: dict) -> list:
    """Ascending coefficients in var of printed text, the other variables bound.

    Evaluates at var = 0..degree and interpolates (Newton's divided
    differences), so it needs nothing but evaluate().
    """
    c = [Fraction(evaluate(text, {**env, var: x})) for x in range(degree + 1)]
    for j in range(1, degree + 1):
        for i in range(degree, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    coeffs = [c[degree]]  # Horner on the Newton form: c0 + (t-0)(c1 + (t-1)(c2 + ...))
    for k in range(degree - 1, -1, -1):
        shifted = [0] + coeffs
        coeffs = [shifted[m] - k * (coeffs[m] if m < len(coeffs) else 0)
                  for m in range(len(shifted))]
        coeffs[0] += c[k]
    return coeffs


# ----- closed forms ----------------------------------------------------------

def jet_section(d: int, i: int, patch: int, env: dict) -> list:
    """Ascending coefficients of the universal section of chart (i, patch) at env."""
    coeffs = [Fraction(1) if k == i else Fraction(env[f"u{k}"]) for k in range(d + 1)]
    return coeffs if patch == 0 else coeffs[::-1]


def jet_generators(d: int, l: int, i: int, patch: int, env: dict) -> list[Fraction]:
    """P_j = Res_{d-j,d-j-1}(f^(j), f^(j+1)) at env, for j < l."""
    f = jet_section(d, i, patch, env)
    out = []
    for j in range(l):
        nxt = derivative(f)
        out.append(sylvester_det(f, nxt, d - j, d - j - 1))
        f = nxt
    return out


def homogeneous_discriminant(d: int, env: dict) -> Fraction:
    """Res_{d,d-1}(a, a') / y_d for a = y_0 + ... + y_d t^d, at env (y_d != 0)."""
    a = [Fraction(env[f"y{k}"]) for k in range(d + 1)]
    return discriminant(a, d) / a[d]


def mult_root_count(d: int, l: int, q: int) -> int | None:
    """Monic degree-d forms over F_q with a root of multiplicity >= l+1.

    The count is q^(d-l) when l = 1 (the non-squarefree forms) or when
    2(l+1) > d (the multiple root is then unique, hence rational, and the
    form is (t-a)^(l+1) times any monic cofactor), and 0 when l >= d.
    None elsewhere.
    """
    if l >= d:
        return 0
    if l == 1 or 2 * (l + 1) > d:
        return q ** (d - l)
    return None


def complex_table(N: int, d: int, k: int) -> tuple[list[int], list[int]]:
    """Twists and ranks of the dual complex of the order-k jet bundle of O(d) on P^N."""
    r = math.comb(k + N, N)
    twists, dims = [0], [1]
    for j in range(1, r + 1):
        n = j * (d - k) - N - 1
        twists.append(-j)
        dims.append(math.comb(n + N, N) * math.comb(r, j) if n >= 0 else 0)
    return twists, dims
