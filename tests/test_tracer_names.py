"""Every disckit name the benchmark's tracer wraps still exists.

perfbench/tracer.py wraps classes, methods and module functions of the
package from outside it, so a rename or a deletion in disckit would only
show when a traced benchmark run fails.  This check reads the tracer's
tables statically: the tracer module is loaded by path and its tables
are inspected, but nothing is installed into this process.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("disckit_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer_module(layer):
    return importlib.import_module(f"disckit.{layer}")


def own_function(layer, name):
    """The function `name` defined in disckit.<layer>, or None."""
    fn = getattr(layer_module(layer), name, None)
    if inspect.isfunction(fn) and fn.__module__ == f"disckit.{layer}":
        return fn
    return None


def test_layers_are_modules(tracer):
    for layer in tracer.LAYERS:
        assert layer_module(layer).__name__ == f"disckit.{layer}"


def test_wrapped_methods_are_defined_on_their_classes(tracer):
    for (layer, cls_name), methods in tracer.METHODS.items():
        cls = getattr(layer_module(layer), cls_name)
        missing = [m for m in methods if not callable(vars(cls).get(m))]
        assert not missing, f"{layer}.{cls_name} lacks {missing}"


def test_renamed_functions_exist(tracer):
    for layer, name in tracer.RENAMED:
        assert own_function(layer, name) is not None, f"disckit.{layer}.{name}"


def span_names(tracer):
    """Span names the tracer hooks counters on or reads metrics from."""
    names = set(tracer._BEFORE) | set(tracer._AFTER)
    for node in ast.walk(ast.parse(TRACER_PATH.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "by" and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def test_span_names_resolve(tracer):
    method_spans = {span for methods in tracer.METHODS.values() for span in methods.values()}
    renamed_spans = set(tracer.RENAMED.values())
    names = span_names(tracer)
    assert {"cli.render", "strata.is_unit_localized", "oracle.scan"} <= names
    for span in names:
        if span in method_spans or span in renamed_spans:
            continue
        layer, name = span.split(".")
        assert layer in tracer.LAYERS and not name.startswith("_"), span
        assert own_function(layer, name) is not None, f"span {span} names no function"
