"""The North star's static promises, read from the source of every module.

disckit has no runtime dependencies, so every import is relative or names
a standard-library module; and its arithmetic is exact, so no float
literal and no call of float appears.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "disckit"


def test_no_runtime_dependencies_and_no_floats():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    breaches = []
    for path in modules:
        where = path.relative_to(SRC)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [] if node.level else [node.module]
            else:
                imported = []
            for name in imported:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    breaches.append(f"{where}:{node.lineno} imports {name}")
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                breaches.append(f"{where}:{node.lineno} has the float literal {node.value!r}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "float":
                breaches.append(f"{where}:{node.lineno} calls float")
    assert breaches == []
