"""The one-pass parser against the reference evaluator it replaced.

parser._Parser folds every term to c*x^k before any list product;
parser._ReferenceParser builds every intermediate value as a raw list.
On every input both must give the same raw coefficients (values and
types), or the same error: class, message, line and column.  Inputs come
from a seeded generator of sums, products, powers, exponent chains,
parentheses, fractions, unary minus, tabs and newlines, plus malformed
mutations of them; a few hundred run in tier-1 and thousands under the
slow marker.
"""

import functools
import random

import pytest

from disckit import GF, QQ, ZZ, DisckitError, PolynomialRing, cli
from disckit.parser import _Parser, _ReferenceParser, _parse_element, _parse_poly

ZZ_AB = PolynomialRing(ZZ, ("a", "b"))
QQ_UV = PolynomialRing(QQ, ("u", "v"))
# (ring, main variable); None parses with parse_element
CASES = (
    (ZZ, "t"),
    (QQ, "t"),
    (GF(7), "t"),
    (GF(2), "x"),
    (GF(10007), "t"),
    (ZZ_AB, "t"),
    (QQ_UV, "t"),
    (ZZ_AB, None),
    (QQ_UV, None),
    (ZZ, None),
)
SEPARATORS = (" + ", " - ", "+", "-", "\t+ ", "\n- ", " +\n", "\r\n+ ")


def outcome(evaluator, src, ring, var):
    """What one evaluator makes of src: raw values and types, or the error."""
    try:
        if var is None:
            value = _parse_element(evaluator, src, ring).value
            return "ok", value, type(value)
        raw = _parse_poly(evaluator, src, ring, var)._raw
        return "ok", raw, [type(c) for c in raw]
    except DisckitError as exc:
        return "error", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def assert_same(src, ring, var):
    fast = outcome(_Parser, src, ring, var)
    assert fast == outcome(_ReferenceParser, src, ring, var), (src, str(ring), var)
    return fast[0]


class Generator:
    """Seeded random expressions over the names of one case."""

    def __init__(self, rng, names):
        self.rng = rng
        self.names = names

    def number(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.06:
            return "0"
        if roll < 0.09:
            return str(rng.randint(10**20, 10**40))
        if roll < 0.15:
            return f"{rng.randint(0, 20)}/{rng.choice((1, 2, 3, 4, 7, 0, 14, 10007))}"
        return str(rng.randint(1, 12))

    def exponent(self, big=False):
        """An exponent or a chain; a sum gets at most its 4th power."""
        rng = self.rng
        roll = rng.random()
        if big and roll < 0.04:
            return str(rng.choice((3000, 5000, 9999, 10000, 10001, 200000)))
        if big and roll < 0.07:
            return rng.choice(("2^2^3", "3^2^2", "2^3^2^1", "2^2^2^2^2"))
        if roll < 0.3:
            return f"{rng.randint(0, 2)}^{rng.randint(0, 2)}"
        if roll < 0.35:
            return f"{rng.randint(0, 1)}^{rng.randint(0, 9)}^{rng.randint(0, 3)}"
        return str(rng.randint(0, 4))

    def atom(self, depth):
        rng = self.rng
        roll = rng.random()
        if roll < 0.35 or not self.names:
            return self.number()
        if roll < 0.8 or depth <= 0:
            return rng.choice(self.names)
        return "(" + self.expr(depth - 1) + ")"

    def factor(self, depth):
        rng = self.rng
        if rng.random() < 0.1:
            return "-" + rng.choice(("", " ", "-")) + self.factor(depth)
        atom = self.atom(depth)
        if rng.random() < 0.45:
            # only a bare number or variable takes a large exponent: a large
            # power of a sum is slow to evaluate, not interesting to parse
            big = not atom.startswith("(") and "/" not in atom
            return f"{atom}^{self.exponent(big)}"
        return atom

    def term(self, depth):
        count = self.rng.choice((1, 1, 2, 2, 3, 4))
        return self.rng.choice(("*", " * ", "\t*")).join(self.factor(depth) for _ in range(count))

    def expr(self, depth=2):
        rng = self.rng
        out = ("-" if rng.random() < 0.15 else "") + self.term(depth)
        for _ in range(rng.choice((0, 1, 2, 3, 5))):
            out += rng.choice(SEPARATORS) + self.term(depth)
        return out


MUTATION_CHARS = "+-*/^()0123456789tuvabx \t\n$é²_."


def mutate(rng, src):
    """src with one or two random edits: delete, insert, replace or cut."""
    for _ in range(rng.choice((1, 2))):
        i = rng.randrange(len(src) + 1)
        edit = rng.random()
        if edit < 0.3 and src:
            src = src[:i] + src[i + 1:]
        elif edit < 0.6:
            src = src[:i] + rng.choice(MUTATION_CHARS) + src[i:]
        elif edit < 0.9 and i < len(src):
            src = src[:i] + rng.choice(MUTATION_CHARS) + src[i + 1:]
        else:
            src = src[:i]
    return src


def names_of(ring, var):
    names = list(getattr(ring, "names", ()))
    return names + ([var] if var else [])


def run_generated(seed, count):
    kinds = {"ok": 0, "error": 0}
    for ring, var in CASES:
        rng = random.Random(f"{seed}-{ring}-{var}")
        gen = Generator(rng, names_of(ring, var))
        for _ in range(count):
            src = gen.expr()
            kinds[assert_same(src, ring, var)] += 1
            kinds[assert_same(mutate(rng, src), ring, var)] += 1
    return kinds


def test_generated_inputs_agree():
    kinds = run_generated(17, 25)
    # both branches are exercised, not only one of them
    assert kinds["ok"] > 150 and kinds["error"] > 150, kinds


@pytest.mark.slow
def test_many_generated_inputs_agree():
    kinds = run_generated(18, 300)
    assert kinds["ok"] > 2000 and kinds["error"] > 2000, kinds


@pytest.mark.parametrize(
    "src",
    [
        # folding: constants, powers of the main variable, zero factors
        "3*t^5 - 2*t^3 + 7*t - 1",
        "t*t*t - t^3",
        "2*t*3*t^2*(t + 1)",
        "0*t^5 + t",
        "t^2*0*t^6000*t^6000",
        "(t - t)^5*t^9000*t^9000",
        "0^0 + 0^1 + t^0 + (t + 1)^0",
        "-(t - 2)*-(t + 2)",
        "- - -t^2",
        "(t^3)^2*(2*t)^3",
        "(t^2 + t^3)^2*(t)",
        "((t^2)^2)^2 - t^8",
        "(t + 1)*(t - 1)*(t^2 + 1) - t^4",
        "1/2*t + 3/4 - 1/4*t^2",
        "6/3*t - 2*t",
        "2^3^2*t^1^5",
        "\t t ^ 2 \n + \r\n 1 ",
        # the bounds and the tokens they report
        "t^9000 * t^2000",
        "t^5000 * t^5000",
        "t^5000 * t^5001",
        "(t^5000)^2",
        "(t^5000)^3",
        "(t + 1)^10001",
        "t^200000",
        "t^10000001",
        "2^2^2^2^2^2",
        "1^2^99999",
        "0^5^3^2",
        "(3^9999)^20",
        "(3^9999)^10",
        "(3^9999*t + 1)^7",
        "(3^9999*t + 1)^6",
        # c*t^5000 with a 49991-bit c: squared, the term count tips the height bound
        "(2^9999*2^9999*2^9999*2^9999*2^9994*t^5000)^2",
        "(2^9999*2^9999*2^9999*2^9999*2^9980*t^5000)^2",
        "9999999^9999",
        "(2*t^9000)^1",
        "t^2^3^0",
        # syntax errors and their positions
        "t t", "2t", "()", "t +", "(t", "t)", "t^-1", "t^(2)", "t^t", "/3", "t//2",
        "", "   ", "\n\n", "t$", "t & 1", "x + 1", "3.5", "t^2 +* 3", "t^", "t +\n 2 $",
        "t²", "é + t", "t^²", "３*t", "1/0", "3/7", "4/2/2", "(1/2)/2", "t -\t\t-",
        # parentheses at the nesting bound of 100 and past it
        "(" * 100 + "t" + ")" * 100, "(" * 101 + "t" + ")" * 101, "(" * 10_000 + "t" + ")" * 10_000,
        "(" * 100 + "t", "t*" + "(t + " * 50 + "1" + ")" * 50 + "^2 + " + "(" * 101 + "1)",
        # runs of 0, 1, 2 and 5000 unary minus signs, before '^' and '('
        *(f"1 {op} {'-' * n}{operand}"
          for n in (0, 1, 2, 5000) for op in "+-*"
          for operand in ("t", "t^2", "(t - 3)", "(t - 3)^2", "2/3")),
        "-" * 5000, "-" * 5000 + ")", "- - -\t-\n-t^3", "-" * 5001 + "(t^2 + 1)^2*-t",
    ],
)
@pytest.mark.parametrize("ring", (ZZ, QQ, GF(7), ZZ_AB, QQ_UV), ids=str)
def test_edge_cases_agree(src, ring):
    assert_same(src, ring, "t")


@pytest.mark.parametrize(
    "src",
    ["a*b - 1", "(a + 2*b)^3", "a^2*b^2*a", "0*a", "a^5000*b^5000", "a^5000*b^5001",
     "(a*b)^5001", "a t", "t", "-a^0", "(a - a)^9999*b", "(9*a)^9999"],
)
def test_parse_element_cases_agree(src):
    assert_same(src, ZZ_AB, None)


def test_long_integer_literals_agree():
    big = "1" + "0" * 4300
    for src in (big, big[:-1], "t - " + big, "x" + big + " + $", "$ + " + big, big + " $"):
        assert_same(src, ZZ, "t")


def test_a_parse_builds_only_the_ring_variables_it_names(monkeypatch):
    ring = PolynomialRing(ZZ, [f"a{i}" for i in range(4000)])
    built = []
    variable = PolynomialRing.variable

    def counting(self, name):
        built.append(name)
        return variable(self, name)

    monkeypatch.setattr(PolynomialRing, "variable", counting)
    fast = outcome(_Parser, "a7*t + 1", ring, "t")
    assert built == ["a7"]
    built.clear()
    assert outcome(_Parser, "a7*t + a3 - a7^2 + a3*t", ring, "t")[0] == "ok"
    assert built == ["a7", "a3"]
    monkeypatch.undo()
    assert fast == outcome(_ReferenceParser, "a7*t + 1", ring, "t")
    for src in ("a7*t + a3999 - a0^2", "a7*t + b"):
        assert_same(src, ring, "t")


# ----- the command line with either evaluator -------------------------------------

reference_parse_poly = functools.partial(_parse_poly, _ReferenceParser)

CLI_REQUESTS = [
    ["resultant", "(2*t - 1)*(t^2 + 3)", "(t + 1)^3", "--ring", "ZZ"],
    ["resultant", "t^2 - 1/3*t + 5/2", "3/4*t - 1", "--ring", "QQ", "--deg-f", "3"],
    ["resultant", "(x - 3)^4 + x", "x^2 - 2", "--ring", "Fp(101)", "--var", "x"],
    ["resultant", "t^2 + b*t + c", "(2*t + b)*1", "--ring", "ZZ[b,c]", "--deg-g", "2"],
    ["resultant", "-t^3 + t*t", "t^2*t - 2^3", "--ring", "Fp(7)", "--deg-f", "4", "--deg-g", "3"],
    ["discriminant", "(a - 2)*t^3 + a*b*t - 5", "--ring", "ZZ[a,b]"],
    ["discriminant", "b^2*t^2 - 5*t + (3*a + b)", "--ring", "ZZ[a,b]", "--degree", "3"],
    ["discriminant", "(t - 1)^2*(t + 2)", "--ring", "QQ"],
    ["etale", "u*v*t^2 + u*t", "--ring", "QQ[u,v]", "--strata"],
    ["etale", "1/3*u*t^2 + (u - v)*t + 1", "--ring", "QQ[u,v]", "--strata", "--degree", "3"],
    ["etale", "t^3 + (2*v - 1)*t + u^2", "--ring", "QQ[u,v]", "--strata"],
    # the syntax-error shapes of the benchmark's malformed requests
    ["resultant", "t^2 +* 3", "t", "--ring", "ZZ"],
    ["resultant", "2t + 3", "t - 1", "--ring", "ZZ"],
    ["resultant", "t^", "t - 3", "--ring", "QQ"],
    ["discriminant", "t^2 + w*t + 4", "--ring", "ZZ[a,b]"],
    ["resultant", "t^2 + 1", "t - 1", "--ring", "ZZ", "--deg-f", "1"],
    # errors on later lines, after tabs, and at the bounds
    ["resultant", "t +\n\t2 $", "t", "--ring", "ZZ"],
    ["resultant", "t", "t^9000 * t^2000", "--ring", "ZZ"],
    ["discriminant", "(3^9999)^20*t", "--ring", "ZZ"],
    ["discriminant", "3/7*t^2 + 1", "--ring", "Fp(7)"],
    ["etale", "u*t^2 + v^200000", "--ring", "QQ[u,v]", "--strata"],
    ["resultant", "t", "(" * 101 + "t" + ")" * 101, "--ring", "ZZ"],
]


def cli_output(argv, capsys):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("argv", CLI_REQUESTS, ids=lambda argv: " ".join(argv[:2]))
def test_cli_bytes_are_the_same_with_the_reference_evaluator(argv, fmt, capsys, monkeypatch):
    argv = argv + ["--format", fmt]
    fast = cli_output(argv, capsys)
    monkeypatch.setattr(cli, "parse_poly", reference_parse_poly)
    assert cli_output(argv, capsys) == fast
    if fast[0] == 2 and fmt == "plain":
        assert fast[2].rstrip().endswith("^")  # the caret line

