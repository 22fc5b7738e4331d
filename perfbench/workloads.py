"""Inputs and output checks for the three workloads.

Every input is made from the seed here; nothing in this module imports
disckit.  A job is a plain dict, so it can be listed, shuffled and
compared without the package under test.

* ``symbolic`` builds discriminant ideals over ``ZZ[u...]``: every chart
  for d = 2..5, the two degree-6 ideals, the classical discriminants of
  degree 5 and 6, and the chart-consistency tables for d = 3..5.  The
  seed shuffles the job order and picks the spot-check points.
* ``oracle`` runs the finite-field brute force on four (d, l, q) cases
  that trade a large field against a large degree and level 1 against
  level 2.  The seed shuffles the case order.
* ``interactive`` is a closed loop of CLI requests on tiny inputs.  The
  seed makes every request; the mix of kinds and the parameter grids are
  fixed, so two seeds differ in coefficients and order, not in shape.

The checks compare each output with ``reference`` (exact Fraction
arithmetic and closed forms), and with output digests recorded in
``expected.json``.  Symbolic and oracle digests are keyed by job, so they
hold for every seed; interactive digests exist for DEFAULT_SEED only.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import reference

DEFAULT_SEED = 0
ORACLE_CASES = ((3, 1, 47), (3, 2, 47), (4, 2, 17), (5, 1, 7))
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def make_jobs(workload: str, seed: int) -> list[dict]:
    if workload == "symbolic":
        jobs = symbolic_jobs()
    elif workload == "oracle":
        jobs = [{"kind": "verify", "d": d, "l": l, "q": q} for d, l, q in ORACLE_CASES]
    elif workload == "interactive":
        return interactive_requests(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        job["key"] = job_key(job)
    random.Random(seed).shuffle(jobs)
    return jobs


def job_key(job: dict) -> str:
    fields = ("d", "l", "q", "i", "patch")
    return "/".join([job["kind"]] + [str(job[f]) for f in fields if f in job])


def symbolic_jobs() -> list[dict]:
    jobs = []
    for d in range(2, 6):
        for i in range(d + 1):
            for patch in (0, 1):
                jobs.append({"kind": "disc_ideal", "d": d, "l": d, "i": i, "patch": patch})
    jobs.append({"kind": "disc_ideal", "d": 6, "l": 1, "i": 6, "patch": 0})
    jobs.append({"kind": "disc_ideal", "d": 6, "l": 6, "i": 6, "patch": 0})
    jobs.append({"kind": "homogeneous", "d": 5})
    jobs.append({"kind": "homogeneous", "d": 6})
    for d in range(3, 6):
        for i in range(d + 1):
            jobs.append({"kind": "chart_consistency", "d": d, "l": d, "i": i})
    return jobs


# ----- interactive request generator ------------------------------------------

# (kind, family, requests per pass); the counts sum to 2000.  Each family
# cycles through its parameter grid, so the shape of the mix is the same
# for every seed.
MIX = (
    ("resultant_ZZ", "resultant", 400),
    ("resultant_QQ", "resultant", 200),
    ("resultant_Fp", "resultant", 200),
    ("discriminant", "discriminant", 260),
    ("etale", "etale", 240),
    ("dims", "dims", 160),
    ("disc_ideal", "disc_ideal", 240),
    ("verify", "verify", 200),
    ("malformed", "malformed", 100),
)
PRIMES = (11, 13, 101, 10007)


def interactive_requests(seed: int) -> list[dict]:
    """The seeded request list; half of each kind asks for --format json."""
    rng = random.Random(seed)
    requests = []
    for kind, family, count in MIX:
        make, grid = _FAMILIES[family]
        for k in range(count):
            req = make(rng, kind, grid[k % len(grid)])
            req.update(kind=kind, family=family, fmt="json" if k % 2 else "plain")
            req["argv"] += ["--format", req["fmt"]]
            requests.append(req)
    for rid, req in enumerate(requests):
        req["id"] = rid
    rng.shuffle(requests)
    return requests


def _nonzero(rng, ring: str):
    if ring == "QQ" and rng.random() < 0.4:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 7))
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _join_terms(terms: list[tuple[str, str]]) -> str:
    """Join (sign, magnitude) pairs into 'a + b - c' text."""
    out = ""
    for sign, mag in terms:
        if not out:
            out = mag if sign == "+" else f"-{mag}"
        else:
            out += f" {sign} {mag}"
    return out


def _term(coeff: str, var: str, k: int) -> tuple[str, str]:
    sign = "-" if coeff.startswith("-") else "+"
    mag = coeff.lstrip("-")
    mono = "" if k == 0 else var if k == 1 else f"{var}^{k}"
    if mono:
        mag = mono if mag == "1" else f"{mag}*{mono}"
    return sign, mag


def _scalar_poly(rng, ring: str, var: str, deg: int) -> str:
    """Expanded text of a degree-deg polynomial with scalar coefficients.

    The leading coefficient is positive: argparse would read a leading
    '-' as an option.
    """
    return _join_terms([_term(str(abs(c) if k == deg else c), var, k)
                        for k in range(deg, -1, -1)
                        if k == deg or rng.random() < 0.6
                        for c in [_nonzero(rng, ring)]])


def _univariate(rng, ring: str, var: str, deg: int) -> str:
    """Degree-deg text, expanded or as a product or power of factors."""
    style = rng.random()
    if deg >= 2 and style < 0.2:
        a = rng.randint(1, deg - 1)
        return f"({_scalar_poly(rng, ring, var, a)})*({_scalar_poly(rng, ring, var, deg - a)})"
    if deg >= 2 and style < 0.3:
        return f"({_scalar_poly(rng, ring, var, 1)})^{deg}"
    return _scalar_poly(rng, ring, var, deg)


def _make_resultant(rng, kind: str, cell):
    ring = kind.split("_")[1]
    df, dg = cell
    var = "t" if rng.random() < 0.8 else "x"
    f, g = _univariate(rng, ring, var, df), _univariate(rng, ring, var, dg)
    if ring == "Fp":
        ring = f"Fp({rng.choice(PRIMES)})"
    argv = ["resultant", f, g, "--ring", ring]
    if var != "t":
        argv += ["--var", var]
    roll = rng.random()
    if roll < 0.3:
        df, dg = df + rng.randint(0, 1), dg + rng.randint(0, 1)
        argv += ["--deg-f", str(df), "--deg-g", str(dg)]
    elif roll < 0.4:
        df += 1
        argv += ["--deg-f", str(df)]
    meta = {"ring": ring, "var": var, "f": f, "g": g, "deg_f": df, "deg_g": dg}
    return {"argv": argv, "expect_rc": 0, "meta": meta}


def _family_text(rng, forms, deg: int, symbolic_share: float, lead_share: float) -> str:
    """Degree-deg text in t whose coefficients are small polynomials from forms."""
    terms = []
    for k in range(deg, -1, -1):
        if k != deg and rng.random() < 0.3:
            continue
        if rng.random() < (lead_share if k == deg else symbolic_share):
            coeff = rng.choice(forms).format(c=rng.randint(2, 5), m=rng.randint(1, 5))
        else:
            coeff = str(rng.choice((1,) if k == deg else (-1, 1)) * rng.randint(1, 9))
        terms.append(_term(coeff, "t", k))
    return _join_terms(terms)


_AB_FORMS = ("{c}*a", "{c}*b", "a*b", "a^2", "b^2", "(a - {m})", "({c}*a + b)", "(a + {m}*b)")
_UV_FORMS = ("u", "v", "(u + {m})", "({c}*v - 1)", "1/{c}*u", "(u - v)", "u*v", "u^2")


def _make_family(command: str, ring: str, forms, symbolic_share, lead_share, pad_share):
    names = ring[3:-1].split(",")

    def make(rng, kind: str, deg: int):
        text = _family_text(rng, forms, deg, symbolic_share, lead_share)
        argv = [command, text, "--ring", ring] + (["--strata"] if command == "etale" else [])
        if rng.random() < pad_share:
            deg += 1
            argv += ["--degree", str(deg)]
        return {"argv": argv, "expect_rc": 0,
                "meta": {"text": text, "degree": deg, "vars": names}}

    return make


def _make_dims(rng, kind: str, cell):
    N, k, extra = cell
    d = k + N + 1 + extra
    argv = ["dims", "--N", str(N), "--d", str(d), "--k", str(k), "--table"]
    return {"argv": argv, "expect_rc": 0, "meta": {"N": N, "d": d, "k": k}}


def _make_disc_ideal(rng, kind: str, cell):
    d, l, i, patch = cell
    if i is None:
        argv = ["disc-ideal", "--d", str(d), "--l", "1", "--homogeneous"]
        return {"argv": argv, "expect_rc": 0, "meta": {"d": d, "homogeneous": True}}
    argv = ["disc-ideal", "--d", str(d), "--l", str(l)]
    if i != d or patch != 0 or rng.random() < 0.5:
        argv += ["--i", str(i), "--chart", str(patch)]
    return {"argv": argv, "expect_rc": 0,
            "meta": {"d": d, "l": l, "i": i, "patch": patch, "homogeneous": False}}


def _make_verify(rng, kind: str, cell):
    d, l, q, q2 = cell
    argv = ["verify", "--d", str(d), "--l", str(l), "--q", str(q)]
    if q2 is not None:
        argv += ["--q2", str(q2)]
    if rng.random() < 0.3:
        argv += ["--budget", str(rng.choice((10_000, 100_000)))]
    return {"argv": argv, "expect_rc": 0, "meta": {"d": d, "l": l, "q": q, "q2": q2}}


def _make_malformed(rng, kind: str, cell):
    template, rc = cell
    c = rng.randint(2, 9)
    return {"argv": [part.format(c=c) for part in template], "expect_rc": rc, "meta": {}}


# Each malformed request with the exit code the CLI documents for it.
_MALFORMED = (
    (["resultant", "t^2 +* {c}", "t", "--ring", "ZZ"], 2),
    (["resultant", "2t + {c}", "t - 1", "--ring", "ZZ"], 2),
    (["resultant", "t^", "t - {c}", "--ring", "QQ"], 2),
    (["discriminant", "t^2 + w*t + {c}", "--ring", "ZZ[a,b]"], 2),
    (["dims", "--N", "x", "--d", "4", "--k", "1"], 2),
    (["resultant", "t + {c}", "t - 1", "--ring", "ZZ[t"], 3),
    (["resultant", "t + {c}", "t - 1", "--ring", "Fp(8)"], 3),
    (["resultant", "t^2 + {c}", "t - 1", "--ring", "ZZ", "--deg-f", "1"], 3),
    (["dims", "--N", "2", "--d", "3", "--k", "1", "--table"], 3),
    (["disc-ideal", "--d", "3", "--l", "0"], 3),
    (["verify", "--d", "3", "--l", "1", "--q", "9"], 3),
    (["verify", "--d", "3", "--l", "1", "--q", "101", "--budget", "1000"], 4),
)

# family -> (request maker, parameter grid it cycles through)
_FAMILIES = {
    "resultant": (_make_resultant, [(m, n) for m in range(1, 9) for n in range(1, 9)]),
    "discriminant": (_make_family("discriminant", "ZZ[a,b]", _AB_FORMS, 0.3, 0.2, 0.2),
                     [2, 3, 4]),
    "etale": (_make_family("etale", "QQ[u,v]", _UV_FORMS, 0.5, 0.7, 0.15), [1, 2, 3]),
    "dims": (_make_dims, [(N, k, e) for N in (1, 2, 3) for k in (1, 2, 3) for e in range(4)]),
    "disc_ideal": (_make_disc_ideal,
                   [(d, l, i, patch) for d in (2, 3, 4) for l in range(1, d + 1)
                    for i in range(d + 1) for patch in (0, 1)]
                   + [(d, 1, None, 0) for d in (2, 3, 4)]),
    "verify": (_make_verify,
               [(2, l, q, None) for l in (1, 2) for q in (3, 5, 7, 11, 13)]
               + [(3, l, q, None) for l in (1, 2, 3) for q in (5, 7)]
               + [(2, 1, 3, 5), (2, 1, 5, 7), (2, 1, 3, 11), (2, 1, 5, 13)]),
    "malformed": (_make_malformed, list(_MALFORMED)),
}


# ----- digests -------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_text(workload: str, output) -> str:
    """Canonical text of one output, the thing digests and identity checks cover.

    For interactive requests that is the exit code and stdout; stderr
    carries diagnostics whose wording is not part of the output contract.
    """
    if workload == "interactive":
        rc, out, _err = output
        return f"{rc}\n{out}"
    return json.dumps(output, sort_keys=True)


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except FileNotFoundError:
        return {}


def expected_digest(expected: dict, workload: str, seed: int, job: dict) -> str | None:
    table = expected.get(workload, {})
    if workload == "interactive":
        if seed != expected.get("interactive_seed"):
            return None
        return table.get(str(job["id"]))
    return table.get(job["key"])


# ----- checks ---------------------------------------------------------------------

def check(workload: str, job: dict, output, seed: int, expected: dict) -> str | None:
    """None when output is right, else a one-line reason."""
    want = expected_digest(expected, workload, seed, job)
    if want is not None and digest(output_text(workload, output)) != want:
        return "output digest differs from the recorded one"
    rng = random.Random(f"{seed}:{job.get('key', job.get('id'))}")
    try:
        if workload == "interactive":
            return _check_request(job, output, rng)
        return _CHECKS[job["kind"]](job, output, rng)
    except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"


def _points(rng, names, lo=-50, hi=50, count=2) -> list[dict]:
    return [{n: rng.randint(lo, hi) for n in names} for _ in range(count)]


def _u_names(d: int) -> list[str]:
    return [f"u{k}" for k in range(d + 1)]


def _check_disc_ideal(job, out, rng):
    d, l, i, patch = job["d"], job["l"], job["i"], job["patch"]
    ring = "ZZ[" + ",".join(f"u{k}" for k in range(d + 1) if k != i) + "]"
    if out["ring"] != ring:
        return f"ring {out['ring']} is not {ring}"
    if len(out["gens"]) != l:
        return f"{len(out['gens'])} generators for level {l}"
    for env in _points(rng, _u_names(d)):
        want = reference.jet_generators(d, l, i, patch, env)
        got = [reference.evaluate(g, env) for g in out["gens"]]
        if got != want:
            return f"generators disagree with the Sylvester reference at {env}"
    return None


def _check_homogeneous(job, out, rng):
    d = job["d"]
    for env in _points(rng, [f"y{k}" for k in range(d + 1)]):
        env[f"y{d}"] = env[f"y{d}"] or 1
        if reference.evaluate(out["gens"][0], env) != reference.homogeneous_discriminant(d, env):
            return f"classical discriminant disagrees with the reference at {env}"
    return None


def _check_chart_consistency(job, out, rng):
    d, l, i = job["d"], job["l"], job["i"]
    rows = out["rows"]
    if [r["j"] for r in rows] != list(range(l)):
        return "rows do not cover every level"
    relabel_seen_false = set()
    for env in _points(rng, _u_names(d)):
        P = reference.jet_generators(d, l, i, 0, env)
        Q = reference.jet_generators(d, l, i, 1, env)
        mirror_env = {f"u{k}": env[f"u{d - k}"] for k in range(d + 1)}
        M = reference.jet_generators(d, l, d - i, 0, mirror_env)
        for r in rows:
            j, cat = r["j"], r["category"]
            if cat in ("integer", "cofactor"):
                h = reference.evaluate(r["factor"], env)
                if cat == "integer" and (h.denominator != 1 or not h):
                    return f"row {j}: factor {r['factor']} is not a nonzero integer"
                lhs, rhs = (Q[j], P[j]) if r["direction"] == "q_over_p" else (P[j], Q[j])
                if lhs != h * rhs:
                    return f"row {j}: {cat} relation fails at {env}"
            elif cat != "relabel" or not r["relabel_holds"]:
                return f"row {j}: category {cat!r} with relabel_holds={r['relabel_holds']}"
            if M[j] != Q[j]:
                if r["relabel_holds"]:
                    return f"row {j}: relabel identity fails at {env}"
                relabel_seen_false.add(j)
    for r in rows:
        if not r["relabel_holds"] and r["j"] not in relabel_seen_false:
            return f"row {r['j']}: relabel reported false but holds at every point"
    return None


def _check_verify_report(job, rep, rng):
    d, l, q = job["d"], job["l"], job["q"]
    if (rep["d"], rep["l"], rep["q"]) != (d, l, q):
        return "report is for another case"
    sound, complete = rep["soundness_mismatches"], rep["completeness_mismatches"]
    if sound:
        return f"{len(sound)} soundness mismatches"
    if sorted(sound + complete) != rep["mismatches"]:
        return "mismatches are not the sorted union of both directions"
    want = reference.mult_root_count(d, l, q)
    if want is not None and rep["mult_root_count"] != want:
        return f"mult_root_count {rep['mult_root_count']} != q^(d-l) = {want}"
    if l == 1 and rep["ideal_zero_count"] != q ** (d - 1):
        return f"ideal_zero_count {rep['ideal_zero_count']} != q^(d-1)"
    if rep["ideal_zero_count"] != rep["mult_root_count"] + len(complete) - len(sound):
        return "counts do not match the mismatch lists"
    return None


_CHECKS = {
    "disc_ideal": _check_disc_ideal,
    "homogeneous": _check_homogeneous,
    "chart_consistency": _check_chart_consistency,
    "verify": _check_verify_report,
}


# ----- interactive checks ------------------------------------------------------------

def parse_plain(text: str) -> dict:
    """Read the plain CLI rendering back into nested dicts and lists of strings."""
    lines = text.splitlines()
    top: dict = {}
    i = 0
    while i < len(lines):
        key, _, value = lines[i].partition(":")
        i += 1
        if value:
            top[key] = value[1:]
            continue
        block = []
        while i < len(lines) and lines[i].startswith("  "):
            block.append(lines[i][2:])
            i += 1
        if block and block[0].startswith("- "):
            items: list = []
            for line in block:
                k, sep, v = line[2:].partition(": ")
                if line.startswith("- "):
                    items.append({} if sep else line[2:])
                if sep:
                    items[-1][k] = v
            top[key] = items
        else:
            top[key] = dict(line.split(": ", 1) for line in block)
    return top


def _list(value) -> list[str]:
    if isinstance(value, list):
        return [str(x) for x in value]
    inner = value[1:-1]
    return inner.split(", ") if inner else []


def _points_list(value) -> list[list[int]]:
    """Points from JSON lists, plain '[a, b]' items, or a plain '[]'."""
    if isinstance(value, str):
        return []
    return [p if isinstance(p, list) else [int(x) for x in _list(p)] for p in value]


def _payload(req, stdout: str) -> dict:
    if req["fmt"] == "plain":
        return parse_plain(stdout)
    env = json.loads(stdout)
    head = (env["schema"], env["command"], env["status"], env["diagnostics"])
    if head != ("disckit/cli_result_v1", req["argv"][0], "ok", []):
        raise ValueError(f"malformed JSON envelope {head}")
    return env["payload"]


def _check_request(req, output, rng) -> str | None:
    rc, stdout, stderr = output
    if rc != req["expect_rc"]:
        return f"exit code {rc}, expected {req['expect_rc']}"
    if rc != 0:
        return "an error must write stderr only" if stdout or not stderr else None
    if stderr:
        return "a success wrote to stderr"
    return _REQUEST_CHECKS[req["family"]](req["meta"], _payload(req, stdout), rng)


def _check_resultant(meta, pay, rng):
    ring, var, m, n = meta["ring"], meta["var"], meta["deg_f"], meta["deg_g"]
    if (int(pay["deg_f"]), int(pay["deg_g"])) != (m, n):
        return f"declared degrees ({pay['deg_f']}, {pay['deg_g']}) are not ({m}, {n})"
    f = reference.coefficients_in(meta["f"], var, m, {})
    g = reference.coefficients_in(meta["g"], var, n, {})
    want = reference.sylvester_det(f, g, m, n)
    got = str(pay["resultant"])
    if ring.startswith("Fp"):
        p = int(ring[3:-1])
        ok = got.isdigit() and int(got) < p and int(got) == want % p
    else:
        ok = Fraction(got) == want
    return None if ok else f"resultant {got} is not the Sylvester reference {want}"


def _check_family(meta, pay, rng) -> str | None:
    """The echoed input, declared degree and discriminant of a discriminant/etale reply."""
    text, degree, names = meta["text"], meta["degree"], meta["vars"]
    if int(pay["degree"]) != degree:
        return f"declared degree {pay['degree']} is not {degree}"
    for env in _points(rng, names, -9, 9):
        coeffs = reference.coefficients_in(text, "t", degree, env)
        if reference.coefficients_in(str(pay["poly"]), "t", degree, env) != coeffs:
            return f"the echoed polynomial differs from the input at {env}"
        want = reference.discriminant(coeffs, degree)
        if reference.evaluate(str(pay["discriminant"]), env) != want:
            return f"discriminant disagrees with the Sylvester reference at {env}"
    return None


_CONSTANT = re.compile(r"-?\d+(/\d+)?")


def _check_discriminant(meta, pay, rng):
    problem = _check_family(meta, pay, rng)
    if problem:
        return problem
    disc, verdict = pay["discriminant"], pay["classification"]
    want = "inseparable" if disc == "0" else "separable" if disc in ("1", "-1") else "neither"
    return None if verdict == want else f"classification {verdict} for discriminant {disc}"


_STRATUM_VERDICT = re.compile(r"etale of degree \d+|ramified|unsupported: .+")


def _check_etale(meta, pay, rng):
    problem = _check_family(meta, pay, rng)
    if problem:
        return problem
    disc = pay["discriminant"]
    want = "ramified" if disc == "0" else "etale" if _CONSTANT.fullmatch(disc) else "mixed"
    if pay["verdict"] != want:
        return f"verdict {pay['verdict']} for discriminant {disc}"
    strata = pay.get("strata")
    if not strata:
        return "no strata"
    env = _points(rng, meta["vars"], -9, 9, 1)[0]
    for s in strata:
        if not _STRATUM_VERDICT.fullmatch(s["verdict"]):
            return f"stratum verdict {s['verdict']!r}"
        for expr in _list(s["inverted"]) + _list(s["quotiented"]):
            reference.evaluate(expr, env)
        if s["discriminant"] in (None, "null"):
            continue
        rd = int(s["residual_degree"])
        coeffs = reference.coefficients_in(s["residual_poly"], "t", rd, env)
        if reference.evaluate(s["discriminant"], env) != reference.discriminant(coeffs, rd):
            return f"stratum discriminant disagrees with its residual polynomial at {env}"
    return None


def _check_dims(meta, pay, rng):
    twists, dims = reference.complex_table(meta["N"], meta["d"], meta["k"])
    got = ([int(x) for x in _list(pay["twists"])], [int(x) for x in _list(pay["module_dims"])])
    return None if got == (twists, dims) else "complex table differs from the closed form"


def _check_disc_ideal_request(meta, pay, rng):
    gens = _list(pay["gens"])
    if meta["homogeneous"]:
        return _check_homogeneous(meta, {"gens": gens}, rng)
    return _check_disc_ideal(meta, {"ring": str(pay["ring"]), "gens": gens}, rng)


def _check_verify_request(meta, pay, rng):
    d, l, q, q2 = meta["d"], meta["l"], meta["q"], meta["q2"]
    if q2 is not None:
        if (int(pay["count_q1"]), int(pay["count_q2"])) != (q ** (d - 1), q2 ** (d - 1)):
            return "growth counts differ from q^(d-1)"
        if Fraction(str(pay["expected"])) != Fraction(q2, q) ** (d - l):
            return "expected growth differs from (q2/q1)^(d-l)"
        return None
    rep = {k: int(pay[k]) for k in ("d", "l", "q", "ideal_zero_count", "mult_root_count")}
    for k in ("mismatches", "soundness_mismatches", "completeness_mismatches"):
        rep[k] = _points_list(pay[k])
    return _check_verify_report(meta, rep, rng)


_REQUEST_CHECKS = {
    "resultant": _check_resultant,
    "discriminant": _check_discriminant,
    "etale": _check_etale,
    "dims": _check_dims,
    "disc_ideal": _check_disc_ideal_request,
    "verify": _check_verify_request,
}
