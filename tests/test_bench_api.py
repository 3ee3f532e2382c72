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

from score import cli, evaluator, fuzz, gateway, jsonio, retrieval, summarize
from score import index as score_index
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
    index = score_index.build_index(2, rows)
    hits = index.search_top_n(np.array([1.0, 1.0]), n=2, filter=lambda entry: entry.story_id == "t")
    assert [hit.entry_id for hit in hits] == ["b"]
    for function in (jsonio.atomic_write, jsonio.canonical_bytes, gateway.default_transport):
        assert callable(function)


def test_the_score_functions_the_workloads_call_run_with_their_argument_shapes(tmp_path):
    # ask-corpus: summaries, records and one saved and loaded corpus-wide index
    stories, truth = fuzz.generate_corpus(fuzz.FuzzSpec(seed=7, n_stories=2))
    gold = truth.to_gold()
    gw = gateway.LlmGateway(gateway.GatewayConfig())
    records, rows = {}, []
    for story in stories:
        items = list(story.key_items)
        for episode in story.episodes:
            summary = summarize.summarize_episode(episode, items, gw, story_id=story.story_id)
            doc = summarize.build_retrieval_document(summary)
            records[doc.doc_id] = retrieval.SummaryRecord(
                entry_id=doc.doc_id,
                story_id=story.story_id,
                episode_index=episode.index,
                sentiment=summary.sentiment.value,
                text=doc.text,
            )
            rows.append((doc.doc_id, "summary", story.story_id, episode.index, doc.text))
    vectors = gw.embed([row[4] for row in rows])
    built = score_index.build_index(gw.config.embed_dim, [(*row[:4], vector) for row, vector in zip(rows, vectors)])
    base = tmp_path / "ask-index" / "corpus"
    built.save(base)
    loaded = score_index.FlatIndex.load(base)
    assert len(loaded) == len(rows)
    for entry, row in zip(loaded.entries, rows):
        assert (entry.entry_id, entry.story_id) == (row[0], row[2]) and entry.embedding.shape == (gw.config.embed_dim,)

    config = retrieval.RetrievalConfig()
    for gq in gold.qa[:4]:
        bundle = retrieval.retrieve_for_query(gq.question, loaded, records, config, gw, restrict_story=gq.story_id)
        assert all(e.story_id == gq.story_id for e in bundle.selected)
        answer = evaluator.answer_query(gq.question, bundle, gw, story_id=gq.story_id)
        assert isinstance(evaluator.grade_answer(answer, gq).correct, bool)

    # mock-corpus and remote-latency: one pipeline run, checked against the ground truth
    pipeline = evaluator.PipelineConfig(gateway=gw.config, retrieval=config)
    result = evaluator.run_pipeline(stories, gw, pipeline, gold)
    reported = {story_id: errors for story_id, (_, errors) in result.states.items()}
    detection = fuzz.score_detection(reported, truth)
    assert detection.precision == 1.0 and detection.recall == 1.0
    assert result.report.to_dict()["complex_qa"] == result.report.complex_qa
