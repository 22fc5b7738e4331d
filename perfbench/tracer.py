"""Spans around disckit's layers, recorded from outside the package.

``Tracer.install`` replaces every module binding of each public function
in ``disckit.<layer>`` (so ``resultants.resultant`` and the copy
imported into ``jets`` are both wrapped), the ring arithmetic of
``RingElement`` and ``MultiPoly``, ``RingHom.__call__`` and the
arithmetic of ``UniPoly``, plus the two private oracle steps that
separate compiling the generators from scanning the points.  The source
is not edited.

Each call becomes a span (name, start, end, parent, request id), kept in
flat arrays in memory and written out by ``write``.  A layer is the
module a function is defined in; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from fractions import Fraction

LAYERS = ("rings", "unipoly", "resultants", "parser", "jets", "strata", "dims", "oracle", "cli")

# Class methods to wrap, with their span names.
_ADDSUB = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
METHODS = {
    ("rings", "RingElement"): {
        **{m: "rings.addsub" for m in _ADDSUB},
        "__mul__": "rings.mul", "__rmul__": "rings.mul",
        "__pow__": "rings.pow", "exact_div": "rings.exact_div",
    },
    ("rings", "MultiPoly"): {
        "_add": "rings.addsub", "_neg": "rings.addsub",
        "_mul": "rings.mul", "exact_div": "rings.exact_div",
    },
    ("rings", "RingHom"): {"__call__": "rings.hom"},
    ("unipoly", "UniPoly"): {
        **{m: "unipoly.arith" for m in _ADDSUB + ("__mul__", "__rmul__", "__pow__", "__divmod__")},
        "derivative": "unipoly.derivative", "evaluate": "unipoly.evaluate",
        "map_coefficients": "unipoly.map_coefficients", "monic": "unipoly.monic",
    },
}
# Module functions whose span name is not <layer>.<function>; the private
# ones listed here are wrapped although their names start with '_'.
RENAMED = {
    ("resultants", "det_fraction_free"): "resultants.det",
    ("oracle", "_compile_gens"): "oracle.compile",
    ("oracle", "_scan_chunk"): "oracle.scan",
}


def _size(x) -> tuple[int, int]:
    """(terms, largest coefficient bit length) of a ring value."""
    x = getattr(x, "value", x)
    coeffs = x.terms.values() if hasattr(x, "terms") else (x,)
    bits = 0
    for c in coeffs:
        if isinstance(c, Fraction):
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
        else:
            bits = max(bits, abs(int(c)).bit_length())
    return len(coeffs), bits


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.request = array.array("l")
        self.stack: list[int] = []
        self.current_request = -1
        self.counters = {
            "rings.peak_terms": 0, "rings.max_coeff_bits": 0, "resultants.max_matrix_dim": 0,
            "jets.gen_terms": 0, "oracle.points": 0, "oracle.mismatches": 0,
            "parser.chars": 0, "strata.emitted": 0,
        }

    # ----- installing ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layers of an imported disckit package in place."""
        wrapped: dict[int, object] = {}
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn)
                        and fn.__module__.startswith(package.__name__ + ".")):
                    continue
                layer = fn.__module__.rsplit(".", 1)[1]
                span = RENAMED.get((layer, fn.__name__))
                if span is None and (fn.__name__.startswith("_") or layer not in LAYERS):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(span or f"{layer}.{fn.__name__}", fn)
                setattr(mod, attr, wrapped[id(fn)])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
            originals = {m: vars(cls)[m] for m in methods}
            for method, span in methods.items():
                fn = originals[method]
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(span, fn)
                setattr(cls, method, wrapped[id(fn)])

    def wrap(self, span_name: str, fn):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        before = _BEFORE.get(span_name)
        after = _AFTER.get(span_name)
        stack, perf = self.stack, time.perf_counter
        name, start, end = self.name, self.start, self.end
        parent, request = self.parent, self.request

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            end.append(0.0)
            if before is not None:
                before(self, args)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # ----- counters ---------------------------------------------------------------

    def _bump(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def _peak(self, key: str, value: int) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def _parent_layer(self) -> str | None:
        """Layer of the span that called the one being entered."""
        if len(self.parent) == 0 or self.parent[-1] < 0:
            return None
        return self.names[self.name[self.parent[-1]]].split(".")[0]

    # ----- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        n = len(self.start)
        child = [0.0] * n
        name, start, end, parent = self.name, self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [s.split(".")[0] for s in self.names]
        k = len(self.names)
        self_s, incl_s, op_calls = [0.0] * k, [0.0] * k, [0] * k
        entry_calls = dict.fromkeys(LAYERS, 0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        jets_resultants = 0
        for i in range(n):
            nid, p = name[i], parent[i]
            dur = end[i] - start[i]
            self_s[nid] += dur - child[i]
            incl_s[nid] += dur
            layer_self[layer_of[nid]] += dur - child[i]
            pid = name[p] if p >= 0 else -1
            if pid != nid:
                op_calls[nid] += 1
            if p < 0 or layer_of[pid] != layer_of[nid]:
                entry_calls[layer_of[nid]] += 1
                if p >= 0 and layer_of[pid] == "jets" and self.names[nid] == "resultants.resultant":
                    jets_resultants += 1

        def by(table, span):
            nid = self._name_ids.get(span)
            return table[nid] if nid is not None else 0

        c = self.counters
        scan_s = by(incl_s, "oracle.scan")
        return {
            "rings.mul.calls": by(op_calls, "rings.mul"),
            "rings.mul.self_s": by(self_s, "rings.mul"),
            "rings.exact_div.calls": by(op_calls, "rings.exact_div"),
            "rings.exact_div.self_s": by(self_s, "rings.exact_div"),
            "rings.addsub.self_s": by(self_s, "rings.addsub"),
            "rings.peak_terms": c["rings.peak_terms"],
            "rings.max_coeff_bits": c["rings.max_coeff_bits"],
            "rings.hom.calls": by(op_calls, "rings.hom"),
            "rings.hom.self_s": by(self_s, "rings.hom"),
            "resultants.resultant.calls": by(op_calls, "resultants.resultant"),
            "resultants.det.calls": by(op_calls, "resultants.det"),
            "resultants.det.self_s": by(self_s, "resultants.det"),
            "resultants.max_matrix_dim": c["resultants.max_matrix_dim"],
            "jets.calls": entry_calls["jets"],
            "jets.self_s": layer_self["jets"],
            "jets.resultant_calls": jets_resultants,
            "jets.gen_terms": c["jets.gen_terms"],
            "oracle.points": c["oracle.points"],
            "oracle.compile_s": by(incl_s, "oracle.compile"),
            "oracle.scan_s": scan_s,
            "oracle.points_per_s": c["oracle.points"] / scan_s if scan_s else 0.0,
            "oracle.mismatches": c["oracle.mismatches"],
            "parser.calls": entry_calls["parser"],
            "parser.chars": c["parser.chars"],
            "parser.self_s": layer_self["parser"],
            "unipoly.self_s": layer_self["unipoly"],
            "strata.calls": entry_calls["strata"],
            "strata.self_s": layer_self["strata"],
            "strata.unit_tests": by(op_calls, "strata.is_unit_localized"),
            "strata.emitted": c["strata.emitted"],
            "dims.calls": entry_calls["dims"],
            "dims.self_s": layer_self["dims"],
            "cli.self_s": layer_self["cli"],
            "cli.render_s": by(incl_s, "cli.render"),
        }

    def write(self, path) -> None:
        """Write the spans as a JSON header line followed by the raw columns."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [["name", "H"], ["start", "d"], ["end", "d"],
                        ["parent", "l"], ["request", "l"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.start, self.end, self.parent, self.request):
                col.tofile(out)


def read_spans(path) -> list[tuple]:
    """Spans written by Tracer.write, as (name, start, end, parent, request) tuples."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        n = header["count"]
        cols = []
        for _, code in header["columns"]:
            col = array.array(code)
            col.fromfile(src, n)
            cols.append(col)
    names = header["names"]
    return [(names[a], b, c, d, e) for a, b, c, d, e in zip(*cols)]


# ----- counters taken at span boundaries ------------------------------------------

def _record_size(tracer: Tracer, args, result) -> None:
    terms, bits = _size(result)
    tracer._peak("rings.peak_terms", terms)
    tracer._peak("rings.max_coeff_bits", bits)


def _outer_parse(tracer: Tracer, args) -> None:
    if tracer._parent_layer() != "parser":
        tracer._bump("parser.chars", len(args[0]))


def _scan_points(tracer: Tracer, args) -> None:
    d, _l, q, _compiled, first_coords = args[0]
    tracer._bump("oracle.points", len(first_coords) * q ** (d - 1))


_BEFORE = {
    "resultants.det": lambda t, args: t._peak("resultants.max_matrix_dim", len(args[0])),
    "parser.parse_poly": _outer_parse,
    "parser.parse_element": _outer_parse,
    "parser.parse_ring": _outer_parse,
    "oracle.scan": _scan_points,
}
_AFTER = {
    "rings.mul": _record_size,
    "rings.exact_div": _record_size,
    "jets.discriminant_ideal": lambda t, a, r: t._bump(
        "jets.gen_terms", sum(len(g.terms) for g in r.gens)),
    "jets.homogeneous_classical_discriminant": lambda t, a, r: t._bump(
        "jets.gen_terms", len(r.terms)),
    "oracle.verify_discriminant_locus": lambda t, a, r: t._bump(
        "oracle.mismatches", len(r.mismatches)),
    "strata.main1_strata": lambda t, a, r: t._bump("strata.emitted", len(r)),
}
