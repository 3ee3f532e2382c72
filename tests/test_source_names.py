"""No module-level name in `src/score/` exists only for the tests.

Every module-level function and class of the package is referenced in the
package outside its own definition, or is a name the benchmark under
scorebench/ imports or probes. A helper that only a test calls belongs in
the tests. Both trees are parsed, not imported.
"""

from __future__ import annotations

import ast
import importlib
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


def test_only_the_jsonio_module_decodes_json():
    """Every JSON input (a file, an HTTP body, a model reply) is decoded by
    `jsonio.parse_json`, by one set of rules: no other module calls
    `json.loads`, `json.load`, `json.JSONDecoder` or a `.json()` method, or
    imports a decoder from `json`."""
    decoders = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json":
                used = {node.attr}
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                used = {"json()"} if node.func.attr == "json" else set()
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                used = {alias.name for alias in node.names}
            else:
                continue
            decoders.update((path.name, name) for name in used & {"loads", "load", "JSONDecoder", "json()"})
    assert {name for name, _ in decoders} == {"jsonio.py"}
    assert ("jsonio.py", "JSONDecoder") in decoders


def _references(node: ast.AST, where: str, names: set[str]):
    """(innermost enclosing definition, name) of each use of one of `names` below `node`."""
    for child in ast.iter_child_nodes(node):
        inner = f"{where}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
        name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
        if name in names:
            yield inner, name
        yield from _references(child, inner, names)


def test_only_the_one_stage_file_rule_reads_writes_or_computes_a_stage_output():
    """`cli._stage_outputs` alone uses `Project.load_stage`, `Project.save_stage`
    and `evaluator.stage_outputs`, so every command reads, computes and keeps
    stage files by the same rule. `evaluator.run_comparison` also calls
    `stage_outputs`, for the summaries its caller did not pass; `score
    compare` passes every one."""
    names = {"load_stage", "save_stage", "stage_outputs"}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        used.update(_references(ast.parse(path.read_text("utf-8")), path.stem, names))
    assert used == {("cli._stage_outputs", name) for name in names} | {("evaluator.run_comparison", "stage_outputs")}


def _frozen_dataclasses() -> list[tuple[str, str]]:
    """(module, class) of each class of the package declared `@dataclass(frozen=True, ...)`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Call)
                and getattr(d.func, "id", None) == "dataclass"
                and any(k.arg == "frozen" and getattr(k.value, "value", False) is True for k in d.keywords)
                for d in node.decorator_list
            ):
                found.append((path.stem, node.name))
    return found


def test_every_frozen_record_is_slotted():
    """A frozen dataclass declares `slots=True`, so that its instances carry
    no `__dict__`: a run makes several of these records per episode.
    `tracker.ItemTimeline` is the one exception: its `_standing`, a
    `functools.cached_property`, is kept in the instance `__dict__`."""
    found = _frozen_dataclasses()
    assert len(found) > 20 and ("tracker", "ItemTimeline") in found
    for module, name in found:
        cls = getattr(importlib.import_module(f"score.{module}"), name)
        # __dictoffset__ is where an instance keeps its __dict__; 0 when it has none
        if (module, name) == ("tracker", "ItemTimeline"):
            assert cls.__dictoffset__ != 0 and "_standing" in vars(cls)
        else:
            assert "__slots__" in vars(cls) and cls.__dictoffset__ == 0, f"{module}.{name}"


def test_only_the_gateway_renders_a_prompt_and_no_class_narrows_a_reply_error():
    """Every structured reply is asked for by `LlmGateway.complete_parsed`,
    which fills in its template: no module but `gateway.py` calls
    `prompts.render` (under any name it is imported as) or a `.template(...)`
    method. No class of the package subclasses GatewayReplyError, so a reply
    unusable twice is one error, whose message names its template."""
    renderers, subclasses = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        module_names, render_names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if node.module in (None, "score") and alias.name == "prompts":
                        module_names.add(alias.asname or alias.name)
                    elif (node.module or "").split(".")[-1] == "prompts" and alias.name == "render":
                        render_names.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in render_names:
                    renderers.add((path.name, "render"))
                elif isinstance(func, ast.Attribute) and func.attr == "template":
                    renderers.add((path.name, "template"))
                elif isinstance(func, ast.Attribute) and func.attr == "render":
                    if getattr(func.value, "id", None) in module_names:
                        renderers.add((path.name, "render"))
            elif isinstance(node, ast.ClassDef):
                bases = {base.id if isinstance(base, ast.Name) else getattr(base, "attr", None) for base in node.bases}
                if "GatewayReplyError" in bases:
                    subclasses.append(f"{path.stem}.{node.name}")
    assert renderers == {("gateway.py", "render"), ("gateway.py", "template")}
    assert subclasses == []
