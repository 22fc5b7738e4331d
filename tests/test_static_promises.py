"""The North star's static promises, read from the source of every module.

disckit has no runtime dependencies, so every import is relative or names
a standard-library module; its arithmetic is exact, so no float literal
and no call of float appears; and its one setting outside the command
line is DISCKIT_THREADS, the only environment variable it reads.  A
command loads no module that it does not run: the process-pool machinery
only when a scan starts a pool, json only for a JSON rendering, and
typing, dataclasses and inspect never.  Every disckit module is imported
at the top of the module that uses it, never inside a function, and
resultants, which jets builds on, imports nothing from jets.  resultants
and unipoly import nothing from fractions: a rational computation there
crosses to the integer kernels and back through rings.to_integral and
rings.from_integral, so neither module builds a Fraction.  Every
module-level import outside __init__ (whose imports are its re-exports)
is read somewhere as that import, not only as a local of the same name.
No module but rings names a path of RingHom (_map_single_terms,
_map_general), so every ring map goes through RingHom.__call__.  No module
has an assert statement: `python -O` strips them, so every check that
guards a result raises a DisckitError instead.  Every functools memo has
a finite bound, so a long-lived process does not grow with its inputs;
the two zero-argument parser builders of cli are the only exceptions.
"""

import ast
import os
import subprocess
import symtable
import sys
from pathlib import Path

from disckit.errors import Record

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


def _imports(tree: ast.AST):
    """(line, module, inside a function) for each import; a relative module keeps its dots."""
    nested = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        for name in names:
            yield node.lineno, name, id(node) in nested


def _is_disckit(name: str) -> bool:
    return name.startswith(".") or name.partition(".")[0] == "disckit"


def test_disckit_modules_are_imported_at_module_level_only():
    inside = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        inside += [(str(path.relative_to(SRC)), name)
                   for _, name, nested in _imports(tree) if nested]
    assert [name for _, name in inside if _is_disckit(name)] == []
    assert inside == [("cli.py", "json"), ("oracle.py", "concurrent.futures")]


def test_resultants_imports_nothing_from_jets():
    tree = ast.parse((SRC / "resultants.py").read_text(encoding="utf-8"))
    names = [name for _, name, _ in _imports(tree)]
    assert names and not [name for name in names if name in (".jets", "disckit.jets")]


def _fractions_imports(source: str) -> list[int]:
    """The lines of source that import fractions or a name from it."""
    return [line for line, name, _ in _imports(ast.parse(source)) if name == "fractions"]


def test_resultants_and_unipoly_import_nothing_from_fractions():
    for module in ("resultants.py", "unipoly.py"):
        assert _fractions_imports((SRC / module).read_text(encoding="utf-8")) == [], module


def test_the_fractions_census_sees_every_form_of_import():
    src = (
        "from fractions import Fraction\nfrom fractions import Fraction as F\n"
        "import fractions\nimport fractionsx\nfrom .fractions import x\n"
        "def f():\n    import fractions as q\n"
    )
    assert _fractions_imports(src) == [1, 2, 3, 7]


def test_the_import_census_sees_nested_and_relative_imports():
    src = (
        "import os\nfrom .rings import ZZ\n"
        "def f():\n    from .jets import x\n    import disckit.cli\n"
        "class C:\n    def g(self):\n        from .. import y\n"
    )
    assert list(_imports(ast.parse(src))) == [
        (1, "os", False), (2, ".rings", False), (4, ".jets", True),
        (5, "disckit.cli", True), (8, "..", True),
    ]


def _unused_imports(source: str, filename: str = "<source>") -> list[str]:
    """Module-level imported names that no scope reads as the module-level binding.

    symtable resolves every name by Python's own scoping rules: a read at
    module level, or a read in a function or class that resolves to the
    module's global, uses the import; a read of a function-local name of
    the same spelling does not.  Under `from __future__ import
    annotations` symtable skips annotations, so every name in an
    annotation (a string one parsed first) counts as a use.  __future__
    imports are exempt.
    """
    tree = ast.parse(source, filename)
    imported = [
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    while annotations:
        for node in ast.walk(annotations.pop()):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                annotations.append(ast.parse(node.value, mode="eval"))
    top = symtable.symtable(source, filename, "exec")
    tables = [top]
    while tables:
        table = tables.pop()
        read.update(sym.get_name() for sym in table.get_symbols()
                    if sym.is_referenced() and (table is top or sym.is_global()))
        tables += table.get_children()
    return [name for name in imported if name not in read]


def test_every_module_level_import_is_used():
    unused = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
        for name in _unused_imports(path.read_text(encoding="utf-8"), str(path))
    ]
    assert unused == []


def test_the_unused_import_census_sees_local_shadows():
    src = (
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from .rings import GF, ZZ, field\nfrom .x import a, b\n"
        "from .y import Q, R\n"
        "def f(a: ZZ) -> 'list[Q]':\n    field = GF(2)\n    return field, a\n"
        "class C:\n    def g(self):\n        return os.path, [regex for regex in ()]\n"
        "    def h(self):\n        def inner():\n            return b\n        return inner\n"
    )
    assert _unused_imports(src) == ["regex", "field", "a", "R"]


def _environment_reads(tree: ast.AST) -> list[tuple[int, str | None]]:
    """(line, name) for each read of the environment; name is None when
    the variable is not a string literal or the read is not one the
    census knows (os.environ[...], os.environ.get(...), os.getenv(...))."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def literal(node):
        ok = isinstance(node, ast.Constant) and isinstance(node.value, str)
        return node.value if ok else None

    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, None) for alias in node.names
                      if alias.name in ("environ", "environb", "getenv", "getenvb", "*")]
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            continue
        parent = parents.get(node)
        if node.attr in ("getenv", "getenvb"):
            args = parent.args if isinstance(parent, ast.Call) and parent.func is node else []
            reads.append((node.lineno, literal(args[0]) if args else None))
        elif node.attr in ("environ", "environb"):
            name = None
            if isinstance(parent, ast.Subscript) and parent.value is node:
                name = literal(parent.slice)
            elif isinstance(parent, ast.Attribute) and parent.attr == "get":
                call = parents.get(parent)
                if isinstance(call, ast.Call) and call.func is parent and call.args:
                    name = literal(call.args[0])
            reads.append((node.lineno, name))
    return sorted(reads, key=lambda read: (read[0], read[1] or ""))


def test_the_only_environment_variable_read_is_disckit_threads():
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        reads += [(str(path.relative_to(SRC)), name) for _, name in _environment_reads(tree)]
    assert reads == [("oracle.py", "DISCKIT_THREADS")]


def test_the_environment_census_sees_every_form_of_read():
    src = (
        "import os\nfrom os import environ\n"
        "os.environ['A']; os.environ.get('B', '1'); os.getenv('C')\n"
        "os.environ.get(name); dict(os.environ); os.getenv(f'D{x}')\n"
    )
    assert _environment_reads(ast.parse(src)) == [
        (2, None), (3, "A"), (3, "B"), (3, "C"), (4, None), (4, None), (4, None)
    ]


def _asserts(tree: ast.AST) -> list[int]:
    """The lines of the assert statements in tree."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_no_module_has_an_assert_statement():
    found = [f"{path.relative_to(SRC)}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _asserts(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == []


def test_the_assert_census_sees_asserts_at_every_depth():
    src = (
        "assert x\nclass C:\n    def f(self):\n        assert self, 'msg'\n"
        "        y = 'assert z'\n        return self.assert_ok(y)\n"
    )
    assert _asserts(ast.parse(src)) == [1, 4]


def _lru_maxsize_is_none(call: ast.Call) -> bool:
    """Does a call of lru_cache pass maxsize=None? Without one, the bound is 128."""
    given = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return any(isinstance(arg, ast.Constant) and arg.value is None for arg in given)


def _unbounded_caches(tree: ast.AST) -> list[str]:
    """The functions memoized with no bound, and the lines of any other unbounded memo."""
    decorated = {id(dec): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for dec in fn.decorator_list}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            unbounded = name == "lru_cache" and _lru_maxsize_is_none(node)
        elif isinstance(node, ast.Attribute):
            unbounded = (node.attr == "cache" and isinstance(node.value, ast.Name)
                         and node.value.id == "functools")
        elif isinstance(node, ast.ImportFrom):
            unbounded = node.module == "functools" and any(a.name == "cache" for a in node.names)
        else:
            unbounded = False
        if unbounded:
            found.append(decorated.get(id(node), f"line {node.lineno}"))
    return sorted(found)


def test_every_memo_is_bounded_but_the_parser_builders():
    found = [(str(path.relative_to(SRC)), name) for path in sorted(SRC.rglob("*.py"))
             for name in _unbounded_caches(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == [("cli.py", "_format_parser"), ("cli.py", "build_parser")]


def test_the_memo_census_sees_every_form_of_unbounded_cache():
    src = (
        "import functools\nfrom functools import lru_cache, cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
        "@lru_cache(None)\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef d(): pass\n"
        "@lru_cache\ndef e(): pass\n"
        "@lru_cache(typed=True)\ndef g(): pass\n"
        "f = functools.lru_cache(maxsize=None)(len)\n"
    )
    assert _unbounded_caches(ast.parse(src)) == ["a", "b", "c", "line 15", "line 2"]


MAP_PATHS = ("_map_single_terms", "_map_general")


def _map_path_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each name, attribute, import or string constant that is a RingHom path."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in MAP_PATHS:
            found.append((node.lineno, name))
    return sorted(found)


def test_only_rings_names_a_ring_map_path():
    """Every map goes through RingHom.__call__, the one name the benchmark's tracer wraps."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names += [(str(path.relative_to(SRC)), name) for _, name in _map_path_names(tree)]
    assert {name for _, name in names} == set(MAP_PATHS)
    assert {where for where, _ in names} == {"rings.py"}


def test_the_map_path_census_sees_names_attributes_imports_and_strings():
    src = (
        "hom._map_general(raw)\nfrom .rings import _map_single_terms\n"
        "getattr(hom, '_map_single_terms')\nf = _map_general\n"
        "'a _map_general in a sentence'\nhom._map_monomial(raw)\n"
    )
    assert _map_path_names(ast.parse(src)) == [
        (1, "_map_general"), (2, "_map_single_terms"), (3, "_map_single_terms"), (4, "_map_general")
    ]


def _fresh_python(code: str, **env: str) -> str:
    """stdout of code run by a fresh `python -S` that imports disckit from SRC."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_importing_disckit_loads_no_pool_machinery_and_no_typing():
    loaded = _fresh_python(
        "import sys\n"
        "import disckit, disckit.cli\n"
        "print('\\n'.join(sys.modules))\n"
    ).split()
    assert sorted(name for name in loaded if name.partition(".")[0] == "disckit") == [
        "disckit", "disckit.cli", "disckit.dims", "disckit.errors", "disckit.jets",
        "disckit.oracle", "disckit.parser", "disckit.resultants", "disckit.rings",
        "disckit.strata", "disckit.unipoly",
    ]
    heavy = [name for name in loaded
             if name == "typing" or name.partition(".")[0] in ("concurrent", "multiprocessing")]
    assert heavy == []


def test_importing_disckit_loads_no_dataclasses_and_no_inspect():
    """The records are plain classes (errors.Record), so no dataclasses closure loads."""
    loaded = _fresh_python(
        "import sys\n"
        "import disckit, disckit.cli\n"
        "print('\\n'.join(sys.modules))\n"
    ).split()
    assert [name for name in ("dataclasses", "inspect", "ast", "dis", "json")
            if name in loaded] == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_takes_records_init_and_stays_immutable():
    """A record names its fields once, in _fields, and overrides none of Record's machinery."""
    records = {cls.__name__: cls for cls in _subclasses(Record)
               if cls.__module__.partition(".")[0] == "disckit"}
    assert sorted(records) == [
        "ChartId", "ChartRelation", "ComplexTerm", "DimReport", "GrowthReport",
        "IdealGens", "Stratum", "SylvesterSpec", "VerifyReport",
    ]
    for cls in records.values():
        assert not {"__init__", "__setattr__", "__delattr__", "__hash__"} & vars(cls).keys(), cls
    assert not hasattr(Record, "_set")


def test_only_a_json_rendering_loads_json():
    loaded = _fresh_python(
        "import sys\n"
        "from disckit import cli\n"
        "print(cli.render('dims', 'plain', 'ok', {'a': 1}), end='')\n"
        "print('json' in sys.modules)\n"
        "print(cli.render('dims', 'json', 'ok', {'a': 1}), end='')\n"
        "print('json' in sys.modules)\n"
    )
    assert loaded.splitlines()[0] == "a: 1"
    assert loaded.splitlines()[1] == "False"
    assert loaded.splitlines()[-1] == "True"


def test_a_pooled_scan_in_a_fresh_process_matches_one_process(monkeypatch):
    """The pool's import runs the first time a scan starts a pool."""
    monkeypatch.delenv("DISCKIT_THREADS", raising=False)
    from disckit import oracle

    baseline = repr(oracle.verify_discriminant_locus(4, 2, 7))
    pooled = _fresh_python(
        "import sys\n"
        "from disckit import oracle\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "oracle._POOL_WORK = 1\n"
        "oracle.os.cpu_count = lambda: 2\n"
        "print(repr(oracle.verify_discriminant_locus(4, 2, 7)))\n"
        "assert 'concurrent.futures.process' in sys.modules\n",
        DISCKIT_THREADS="2",
    )
    assert pooled.strip() == baseline
