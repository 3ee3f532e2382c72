"""No module-level name in `src/score/` exists only for the tests.

Every module-level function and class of the package is referenced in the
package outside its own definition, or is a name the benchmark under
scorebench/ imports or probes. A helper that only a test calls belongs in
the tests. Both trees are parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_bench_api import SCOREBENCH, _probe_table

SRC = Path(__file__).resolve().parents[1] / "src" / "score"


def _benchmark_names() -> set[tuple[str, str]]:
    """(module, name) of each package name scorebench/ imports or probes."""
    names = set()
    for path in sorted(SCOREBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "score":
                names.update((node.module.removeprefix("score."), alias.name) for alias in node.names)
    names.update((module.removeprefix("score."), attr) for module, attr in _probe_table("FUNCTIONS").values())
    names.update((module.removeprefix("score."), cls) for module, cls, _ in _probe_table("METHODS").values())
    return names


def _used_names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_module_level_function_and_class_has_a_caller_outside_the_tests():
    defined = []  # (module, name)
    used = set()  # names used by a top-level statement other than their own definition
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text("utf-8")).body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = statement.name
                defined.append((path.stem, own))
            used |= _used_names(statement) - {own}
    assert len(defined) > 100
    benchmark = _benchmark_names()
    unused = [f"{module}.{name}" for module, name in defined if name not in used and (module, name) not in benchmark]
    assert unused == []


def test_only_the_cache_module_imports_sqlite3():
    """The cache file's format is decided in one module: `score/cache.py`."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "sqlite3" for module in modules):
                importers.append(path.name)
    assert sorted(set(importers)) == ["cache.py"]
