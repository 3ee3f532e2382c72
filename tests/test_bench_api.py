"""The package names the benchmark under scorebench/ imports, probes or calls.

The tier-1 suite does not collect scorebench/tests, so without this guard a
module move or a rename could break the benchmark unnoticed. The checks
only read scorebench/: the probe tables are parsed, not imported.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from score import cli, gateway, jsonio
from score.index import build_index
from score.retrieval import RetrievalConfig

SCOREBENCH = Path(__file__).resolve().parents[1] / "scorebench"


def _probe_table(name: str) -> dict:
    tree = ast.parse((SCOREBENCH / "probes.py").read_text("utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return ast.literal_eval(value)


def test_every_score_name_the_benchmark_imports_resolves():
    imported = []
    for path in sorted(SCOREBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "score":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    submodule = f"{node.module}.{alias.name}"
                    resolves = hasattr(module, alias.name) or importlib.util.find_spec(submodule)
                    assert resolves, f"{path.name}: {submodule}"
                    imported.append(submodule)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "score":
                        importlib.import_module(alias.name)
                        imported.append(alias.name)
    assert "score.cli" in imported


def test_every_probed_function_and_method_resolves():
    functions, methods = _probe_table("FUNCTIONS"), _probe_table("METHODS")
    assert functions and methods
    for span, (module_name, attr) in functions.items():
        assert callable(getattr(importlib.import_module(module_name), attr)), span
    for span, (module_name, cls_name, attr) in methods.items():
        # the probes replace the attribute in the class's own namespace
        assert attr in vars(getattr(importlib.import_module(module_name), cls_name)), span


def test_the_cli_retrieval_and_io_names_the_workloads_call_resolve(tmp_path):
    assert callable(cli.main)
    project = cli.Project(tmp_path)
    assert project.config_path == tmp_path / "config.json"
    assert project.dir("reports") == tmp_path / "reports"
    config = RetrievalConfig()
    assert config.pool >= config.top_n
    rows = [("a", "summary", "s", 0, np.array([1.0, 0.0])), ("b", "summary", "t", 0, np.array([0.0, 1.0]))]
    index = build_index(2, rows)
    hits = index.search_top_n(np.array([1.0, 1.0]), n=2, filter=lambda entry: entry.story_id == "t")
    assert [hit.entry_id for hit in hits] == ["b"]
    for function in (jsonio.atomic_write, jsonio.canonical_bytes, gateway.default_transport):
        assert callable(function)
