import _thread
import contextlib
import hashlib
import json
import logging
import os
import threading

import pytest

from score import prompts as prompt_templates
from score.cli import main
from score.evaluator import FACETS
from score.gateway import GatewayConfig, hashed_embedding
from score.lexicon import alias_pattern
from score.story import parse_story


@pytest.fixture
def project(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(project, *argv):
    return main(["--project", str(project), *argv])


def test_fuzz_then_track_prints_perfect_detection(project, capsys):
    assert run(project, "fuzz", "--seed", "7", "--stories", "8", "--rate", "0.3") == 0
    assert run(project, "track") == 0
    out = capsys.readouterr().out
    assert "precision=1.000 recall=1.000 f1=1.000" in out


def test_project_layout_is_created(project):
    run(project, "fuzz", "--seed", "1", "--stories", "2")
    for name in ("stories", "summaries", "states", "index", "cache", "reports", "prompts"):
        assert (project / name).is_dir()
    assert (project / "config.json").exists()
    assert (project / "prompts" / "summarize.txt").exists()


def test_full_pipeline_and_report(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "4")
    assert run(project, "summarize") == 0
    assert run(project, "track") == 0
    assert run(project, "index") == 0
    assert run(project, "evaluate") == 0
    out = capsys.readouterr().out
    assert "consistency" in out and "report written" in out

    run_id = next(
        line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("run ")
    )
    assert run(project, "report", run_id) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_id"] == run_id
    assert set(payload["metrics"]) >= {"consistency", "coherence", "item_status", "complex_qa"}

    assert run(project, "report", run_id, "--markdown") == 0
    assert "| metric |" in capsys.readouterr().out


def test_ask_before_index_exits_2(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "ask", "where is the sword?") == 2
    assert "index not built" in capsys.readouterr().err


def test_ask_returns_qa_json(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    run(project, "summarize")
    run(project, "index")
    capsys.readouterr()
    truth = json.loads((project / "ground_truth.json").read_text())
    question = truth["qa"][0]["question"]
    story_id = truth["qa"][0]["story_id"]
    assert run(project, "ask", question, "--story", story_id) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["question"] == question
    assert isinstance(payload["answer"], str) and payload["answer"]
    assert all(ref[0] == story_id for ref in payload["supporting_episodes"])


def test_evaluate_ablate_recorded_in_report(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    assert run(project, "evaluate", "--ablate", "sentiment,tracking") == 0
    out = capsys.readouterr().out
    assert "disabled modules: sentiment, tracking" in out or "disabled modules: tracking, sentiment" in out
    report_path = next((project / "reports").glob("*.json"))
    payload = json.loads(report_path.read_text())
    assert sorted(payload["disabled_modules"]) == ["sentiment", "tracking"]
    assert payload["config"]["ablations"]["sentiment"] is False


def test_evaluate_single_episode(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    capsys.readouterr()
    story_id = json.loads((project / "ground_truth.json").read_text())["stories"][0]["story_id"]
    assert run(project, "evaluate", "--episode", f"{story_id}#0") == 0
    out = capsys.readouterr().out
    assert "1 evaluation(s)" in out


def test_unknown_ablation_is_usage_error(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "evaluate", "--ablate", "nonsense") == 1
    assert "unknown ablation" in capsys.readouterr().err


def test_usage_error_exit_code_1(project, capsys):
    assert main(["--project", str(project), "definitely-not-a-command"]) == 1


def test_broken_config_file_exits_2(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    (project / "config.json").write_text('{"gateway": {"no_such_field": 1}}')
    assert run(project, "track") == 2
    assert "config.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, named, expected",
    [
        ("[1, 2]", "config.json", "must hold a JSON object"),
        ('{"gateway": []}', "gateway", "must be an object"),
        ('{"gateway": {"max_parallel": "4"}}', "gateway.max_parallel", "must be an integer"),
        ('{"retrieval": {"top_n": "5"}}', "retrieval.top_n", "must be an integer"),
        ('{"retrieval": {"top_n": true}}', "retrieval.top_n", "must be an integer"),
        ('{"retrieval": {"sentiment_tolerance": false}}', "retrieval.sentiment_tolerance", "must be a number"),
        ('{"retrieval": {"filter_queries": 1}}', "retrieval.filter_queries", "must be true or false"),
        ('{"granularity": 5}', "granularity", "must be a string"),
    ],
    ids=[
        "top-level-list", "section-list", "max_parallel-string", "top_n-string", "top_n-bool",
        "tolerance-bool", "filter_queries-integer", "granularity-integer",
    ],
)
def test_config_of_the_wrong_shape_or_type_exits_2_naming_the_field(project, capsys, config, named, expected):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    capsys.readouterr()
    (project / "config.json").write_text(config)
    assert run(project, "track") == 2
    err = capsys.readouterr().err
    assert f"{named} {expected}" in err or f"{named}: {expected}" in err
    assert "Traceback" not in err


def test_config_accepts_an_integer_where_a_number_is_expected(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["gateway"]["timeout"] = 10
    config["retrieval"]["sentiment_tolerance"] = 1
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    assert run(project, "track") == 0


def test_ingest_validates_and_copies(project, tmp_path, capsys):
    doc = {
        "story_id": "mine",
        "title": "Mine",
        "genre": "drama",
        "key_items": [{"item_id": "ring", "names": ["ring"]}],
        "episodes": [{"index": 0, "text": "The ring gleamed."}],
    }
    source = tmp_path / "story.json"
    source.write_text(json.dumps(doc))
    assert run(project, "ingest", str(source)) == 0
    stored = project / "stories" / "mine.json"
    assert stored.exists()
    assert parse_story(stored.read_bytes()).story_id == "mine"


def test_ingest_rejects_duplicate_story_id(project, tmp_path, capsys):
    base = {
        "story_id": "dup",
        "title": "One",
        "genre": "drama",
        "key_items": [],
        "episodes": [{"index": 0, "text": "a."}],
    }
    first = tmp_path / "a.json"
    first.write_text(json.dumps(base))
    second = tmp_path / "b.json"
    second.write_text(json.dumps({**base, "title": "Two"}))
    assert run(project, "ingest", str(first)) == 0
    assert run(project, "ingest", str(second)) == 2
    assert "duplicate story_id" in capsys.readouterr().err


def test_ingest_invalid_story_exits_2(project, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"story_id": "x"')
    assert run(project, "ingest", str(bad)) == 2


def test_idempotent_reruns_do_not_rewrite(project):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    run(project, "track")
    states = sorted((project / "states").glob("*.json"))
    stamps = [(p, p.stat().st_mtime_ns) for p in states]
    os.sync() if hasattr(os, "sync") else None
    run(project, "track")
    for path, stamp in stamps:
        assert path.stat().st_mtime_ns == stamp, f"{path} was rewritten"


def test_summarize_skips_existing_without_force(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    run(project, "summarize")
    capsys.readouterr()
    run(project, "summarize")
    assert "3 already present" in capsys.readouterr().out
    run(project, "summarize", "--force")
    assert "summarized 3" in capsys.readouterr().out


def _truncated(raw: bytes) -> bytes:
    return raw[: len(raw) // 2]


def _json_edit(change):
    def mutate(raw: bytes) -> bytes:
        value = json.loads(raw)
        change(value)
        return json.dumps(value).encode()

    return mutate


def _first_record(records: dict) -> dict:
    return records[sorted(records)[0]]


def _repeat_first_entry_id(meta: dict) -> None:
    meta["entries"][1]["entry_id"] = meta["entries"][0]["entry_id"]


@pytest.mark.parametrize(
    "name, mutate",
    [
        ("summary.meta.json", _truncated),
        ("summary.meta.json", lambda raw: b"[]"),
        ("summary.meta.json", _json_edit(lambda meta: meta.pop("entries"))),
        ("summary.meta.json", _json_edit(lambda meta: meta["entries"][0].pop("kind"))),
        ("summary.meta.json", _json_edit(lambda meta: meta.update(entries=["e"] * len(meta["entries"])))),
        ("summary.meta.json", _json_edit(_repeat_first_entry_id)),
        ("summary.records.json", _truncated),
        ("summary.records.json", lambda raw: b"[]"),
        ("summary.records.json", _json_edit(lambda records: _first_record(records).pop("text"))),
        ("summary.records.json", _json_edit(lambda records: records.update({sorted(records)[0]: ["x"]}))),
    ],
    ids=[
        "meta-truncated",
        "meta-not-an-object",
        "meta-without-entries",
        "meta-entry-without-kind",
        "meta-entries-not-objects",
        "meta-duplicate-entry-id",
        "records-truncated",
        "records-not-an-object",
        "record-without-text",
        "record-not-an-object",
    ],
)
def test_corrupt_index_file_exits_2_naming_it(project, capsys, name, mutate):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    run(project, "index")
    path = project / "index" / name
    path.write_bytes(mutate(path.read_bytes()))
    capsys.readouterr()
    assert run(project, "ask", "where is the sword?") == 2
    assert name in capsys.readouterr().err


def _drop_last_summary(raw: bytes) -> bytes:
    value = json.loads(raw)
    value["summaries"].pop()
    return json.dumps(value).encode()


_BAD_SUMMARIES = pytest.mark.parametrize(
    "mutate", [_truncated, lambda raw: b"{}", _drop_last_summary], ids=["truncated", "empty-object", "one-short"]
)


@_BAD_SUMMARIES
def test_corrupt_summaries_file_exits_2_naming_it(project, capsys, mutate):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    path = sorted((project / "summaries").glob("*.json"))[0]
    path.write_bytes(mutate(path.read_bytes()))
    capsys.readouterr()
    for granularity in ("summary", "chunk"):
        assert run(project, "index", "--granularity", granularity) == 2
        assert path.name in capsys.readouterr().err


@_BAD_SUMMARIES
def test_summarize_rewrites_a_corrupt_summaries_file(project, capsys, mutate):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    path = sorted((project / "summaries").glob("*.json"))[0]
    good = path.read_bytes()
    path.write_bytes(mutate(good))
    capsys.readouterr()
    assert run(project, "summarize") == 0
    assert "summarized 1 story(ies), 1 already present" in capsys.readouterr().out
    assert path.read_bytes() == good
    assert run(project, "index") == 0


def test_a_write_the_os_refuses_exits_2_naming_the_file_and_leaves_no_temp_file(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    target = project / "index" / "summary.vec"
    target.mkdir(parents=True)
    capsys.readouterr()
    assert run(project, "index") == 2
    assert str(target) in capsys.readouterr().err
    assert target.is_dir()
    assert sorted(p.name for p in target.parent.iterdir()) == ["summary.vec"]


@pytest.mark.parametrize("plain_file", ["prompts", "project"])
def test_a_project_directory_the_os_refuses_exits_2_naming_it(project, capsys, plain_file):
    root = project / "proj"
    root.mkdir()
    target = root / "prompts" if plain_file == "prompts" else root / "not-a-directory"
    target.write_text("a plain file", "utf-8")
    if plain_file == "project":
        root = target
    assert main(["--project", str(root), "fuzz", "--seed", "3", "--stories", "2"]) == 2
    err = capsys.readouterr().err
    assert f"{target}: cannot be made a directory" in err and "Traceback" not in err
    assert target.read_text("utf-8") == "a plain file"


def test_lock_file_blocks_concurrent_runs(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    lock = project / ".score.lock"
    lock.write_text("12345")
    assert run(project, "track") == 2
    assert "locked" in capsys.readouterr().err
    lock.unlink()
    assert run(project, "track") == 0


def test_lock_released_after_command(project):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert not (project / ".score.lock").exists()


def test_replay_cache_miss_exits_4(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "--cache-mode", "replay", "summarize") == 4
    assert "replay cache miss" in capsys.readouterr().err


def test_compare_baseline_writes_paired_report(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    assert run(project, "compare", "--baseline") == 0
    out = capsys.readouterr().out
    assert "delta=" in out
    compare_path = next((project / "reports").glob("*.compare.json"))
    payload = json.loads(compare_path.read_text())
    assert payload["kind"] == "comparison"
    assert payload["config_b"]["ablations"]["tracking"] is False
    assert payload["deltas"]["complex_qa"] is not None


def test_compare_single_ablation(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    assert run(project, "compare", "--ablate", "retrieval") == 0
    compare_path = next((project / "reports").glob("*.compare.json"))
    payload = json.loads(compare_path.read_text())
    assert payload["config_b"]["ablations"]["retrieval"] is False
    assert payload["config_b"]["ablations"]["tracking"] is True
    # removing retrieval can only hurt question answering
    assert payload["deltas"]["complex_qa"] >= 0


def test_compare_in_replay_mode_is_byte_stable(project):
    run(project, "fuzz", "--seed", "5", "--stories", "3")
    assert run(project, "--cache-mode", "record", "compare", "--baseline") == 0
    assert run(project, "--cache-mode", "replay", "compare", "--baseline") == 0
    # the recording and the replay write one report: cache_mode is not part of the run id
    replay_reports = {p: p.read_bytes() for p in (project / "reports").glob("*.compare.json")}
    assert len(replay_reports) == 1
    for path in replay_reports:
        path.unlink()
    assert run(project, "--cache-mode", "replay", "compare", "--baseline") == 0
    for path, content in replay_reports.items():
        assert path.read_bytes() == content


def test_run_id_does_not_depend_on_how_requests_are_sent(project):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    assert run(project, "--cache-mode", "record", "evaluate") == 0
    (report,) = (project / "reports").glob("*.json")
    written = report.read_bytes()
    assert run(project, "--cache-mode", "replay", "evaluate") == 0
    for max_parallel in (1, 4):
        config = json.loads((project / "config.json").read_text("utf-8"))
        config["gateway"]["max_parallel"] = max_parallel
        (project / "config.json").write_text(json.dumps(config), "utf-8")
        assert run(project, "evaluate") == 0
    assert list((project / "reports").glob("*.json")) == [report]
    assert report.read_bytes() == written


def test_client_error_ends_evaluate_with_exit_3_after_one_request(project, monkeypatch, capsys):
    import requests

    sent = []

    class Reply:
        status_code = 401
        text = "invalid api key"

    def post(url, **kwargs):
        sent.append(url)
        return Reply()

    monkeypatch.setattr(requests, "post", post)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["gateway"]["max_parallel"] = 1
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    capsys.readouterr()
    assert run(project, "--backend", "remote", "--base-url", "http://fake.local/v1", "evaluate") == 3
    assert "HTTP 401" in capsys.readouterr().err
    assert len(sent) == 1


def test_unknown_granularity_in_config_is_usage_error_for_index(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["granularity"] = "paragraph"
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    assert run(project, "index") == 1
    assert "unknown granularity 'paragraph'" in capsys.readouterr().err
    assert run(project, "ask", "where is the sword?") == 1
    assert "unknown granularity 'paragraph'" in capsys.readouterr().err


def test_chunk_granularity_index_and_ask(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    assert run(project, "index", "--granularity", "chunk") == 0
    capsys.readouterr()
    assert run(project, "ask", "what happened to the crown?", "--granularity", "chunk") == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload["answer"], str)


def test_corpus_manifest_limits_and_orders_loading(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "4")
    names = sorted(p.name for p in (project / "stories").glob("*.json"))
    manifest = {"files": names[:2]}
    (project / "stories" / "corpus.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(project, "track") == 0
    assert "tracked 2 story(ies)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "manifest",
    ["[]", '{"files": ["missing.json"]}', '{"stories": []}', '{"files": [3]}', '{"files": "a.json"}'],
    ids=["list", "names-a-missing-file", "without-files", "file-not-a-string", "files-not-a-list"],
)
def test_corrupt_corpus_manifest_exits_2_naming_it(project, capsys, manifest):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    (project / "stories" / "corpus.json").write_text(manifest, "utf-8")
    capsys.readouterr()
    assert run(project, "track") == 2
    assert "corpus.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [_truncated, lambda raw: b'{"stories": []}', lambda raw: b'{"stories": [{"items": []}], "qa": []}'],
    ids=["truncated", "without-qa", "story-without-id"],
)
def test_corrupt_ground_truth_exits_2_naming_it(project, capsys, mutate):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    path = project / "ground_truth.json"
    path.write_bytes(mutate(path.read_bytes()))
    capsys.readouterr()
    assert run(project, "track") == 2
    assert "ground_truth.json" in capsys.readouterr().err


def test_outputs_conform_to_declared_schemas(project):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    run(project, "track")
    for path in (project / "states").glob("*.json"):
        payload = json.loads(path.read_text())
        assert set(payload) == {"story_id", "inputs", "timelines", "errors"}
        for tl in payload["timelines"]:
            assert set(tl) == {"item_id", "observations"}
            for obs in tl["observations"]:
                assert set(obs) == {"episode", "state", "explained", "evidence"}
                assert obs["state"] in ("active", "lost", "destroyed")
    for path in (project / "summaries").glob("*.json"):
        payload = json.loads(path.read_text())
        assert set(payload) == {"story_id", "inputs", "summaries"}
        for summary in payload["summaries"]:
            assert summary["synopsis"]
            assert 0.0 <= summary["sentiment"] <= 1.0


def test_track_sends_the_project_extract_states_override(project, monkeypatch):
    from score import gateway as gateway_module

    sent = []

    def transport(url, body, timeout, headers):
        sent.append(body["messages"][0]["content"])
        return {"choices": [{"message": {"content": "[]"}}]}

    monkeypatch.setattr(gateway_module, "default_transport", transport)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    (project / "prompts" / "extract_states.txt").write_text("PROJECT EXTRACT $items_json $episode_text", "utf-8")
    assert run(project, "--backend", "remote", "--base-url", "http://fake.local/v1", "track") == 0
    assert sent and all(prompt.startswith("PROJECT EXTRACT [") for prompt in sent)


# how each bundled template but `repair` begins -> a reply its parser accepts
_REPLIES = {
    "You are tracking": "[]",
    "Summarize": json.dumps({"synopsis": "s"}),
    "Rate the emotional tone": "0.5",
    "Evaluate": json.dumps({"facet_scores": dict.fromkeys(FACETS, 3)}),
    "Answer": json.dumps({"answer": "a"}),
}


@pytest.mark.parametrize("name", list(prompt_templates.TEMPLATE_FIELDS))
def test_every_project_prompt_override_reaches_the_model_through_evaluate(project, monkeypatch, name):
    from score import gateway as gateway_module

    marker = f"PROJECT OVERRIDE {name}\n"
    sent = []
    spoiled = []  # for `repair`: the one structured request answered with text no parser accepts
    lock = threading.Lock()

    def reply(prompt):
        prompt = prompt.removeprefix(marker)
        if prompt.startswith("Your previous reply"):
            return reply(prompt.split("The original request was:\n\n", 1)[1])
        (answer,) = (answer for first, answer in _REPLIES.items() if prompt.startswith(first))
        return answer

    def transport(url, body, timeout, headers):
        if url.endswith("/embeddings"):
            vectors = [hashed_embedding(text, 256).tolist() for text in body["input"]]
            return {"data": [{"index": i, "embedding": vector} for i, vector in enumerate(vectors)]}
        prompt = body["messages"][0]["content"]
        with lock:
            sent.append(prompt)
            spoil = name == "repair" and not spoiled and not prompt.startswith("Rate the emotional tone")
            if spoil:
                spoiled.append(prompt)
        return {"choices": [{"message": {"content": "not json" if spoil else reply(prompt)}}]}

    monkeypatch.setattr(gateway_module, "default_transport", transport)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    (project / "prompts" / f"{name}.txt").write_text(marker + prompt_templates.load(name), "utf-8")
    assert run(project, "--backend", "remote", "--base-url", "http://fake.local/v1", "evaluate") == 0
    assert any(prompt.startswith(marker) for prompt in sent)


def test_unreadable_cache_entry_in_replay_exits_2(project, capsys):
    import sqlite3

    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "--cache-mode", "record", "evaluate") == 0
    with contextlib.closing(sqlite3.connect(project / "cache" / "cache.sqlite3")) as db, db:
        (key,) = db.execute("SELECT min(key) FROM entries").fetchone()
        db.execute("UPDATE entries SET record = substr(record, 1, 10) WHERE key = ?", (key,))
    capsys.readouterr()
    assert run(project, "--cache-mode", "replay", "evaluate") == 2
    err = capsys.readouterr().err
    assert "cache.sqlite3" in err and key in err


@pytest.mark.parametrize("mode", ["record", "replay"])
def test_cache_file_that_is_not_a_database_exits_2_naming_it(project, capsys, mode):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    (project / "cache" / "cache.sqlite3").write_text("not a database\n" * 100, "utf-8")
    capsys.readouterr()
    assert run(project, "--cache-mode", mode, "evaluate") == 2
    assert f"{project / 'cache' / 'cache.sqlite3'}: not a usable cache file" in capsys.readouterr().err


@pytest.mark.parametrize("version", [0, 2], ids=["unstamped", "another-number"])
def test_a_cache_file_of_another_format_is_refused_in_replay_and_record(project, capsys, version):
    import sqlite3

    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "--cache-mode", "record", "evaluate") == 0
    path = project / "cache" / "cache.sqlite3"
    with contextlib.closing(sqlite3.connect(path)) as db:
        db.execute(f"PRAGMA user_version = {version}")
    before = path.read_bytes()
    capsys.readouterr()
    assert run(project, "--cache-mode", "replay", "evaluate") == 4
    assert f"{path}: recorded by another version of score: record it again" in capsys.readouterr().err
    assert run(project, "--cache-mode", "record", "evaluate") == 2
    assert f"error: {path}: recorded by another version of score" in capsys.readouterr().err
    assert sorted(p.name for p in path.parent.iterdir()) == ["cache.sqlite3"]
    assert path.read_bytes() == before


def test_replay_of_a_recorded_evaluate_leaves_the_cache_file_alone(project):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "--cache-mode", "record", "evaluate") == 0
    cache = project / "cache"
    before = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert list(before) == ["cache.sqlite3"]
    assert run(project, "--cache-mode", "replay", "evaluate") == 0
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == before


def test_lock_left_by_a_dead_process_is_reported_stale(project, capsys):
    import socket
    import subprocess
    import sys

    run(project, "fuzz", "--seed", "1", "--stories", "1")
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # its PID now names no running process
    lock = project / ".score.lock"
    lock.write_text(f"{child.pid} {socket.gethostname()}")
    assert run(project, "track") == 2
    err = capsys.readouterr().err
    assert "stale lock" in err and str(child.pid) in err and str(lock) in err
    assert lock.exists()  # reported, not removed


def test_lock_of_a_running_process_is_not_called_stale(project, capsys):
    run(project, "fuzz", "--seed", "1", "--stories", "1")
    lock = project / ".score.lock"
    lock.write_text(str(os.getppid()))  # this test's parent process is running
    assert run(project, "track") == 2
    err = capsys.readouterr().err
    assert "locked by another process" in err and "stale" not in err
    lock.unlink()


def test_lock_file_names_this_process(project):
    import socket

    from score.cli import Project

    with Project(project).lock():
        assert (project / ".score.lock").read_text() == f"{os.getpid()} {socket.gethostname()}"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_stdout_closed_by_its_reader_exits_0_without_a_traceback(project, unbuffered):
    """`score evaluate | head -1`: the reader is gone before the summary lines are flushed."""
    import subprocess
    import sys

    import score

    run(project, "fuzz", "--seed", "3", "--stories", "2")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(score.__file__)), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "score.cli", "--project", str(project), "evaluate"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    stderr = child.stderr.decode()
    assert child.returncode == 0, stderr
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
    assert list((project / "reports").glob("*.json"))


def _remote_stage_run(project, monkeypatch, max_parallel, capsys):
    from score import gateway as gateway_module
    from test_concurrency import StoryModel

    monkeypatch.setattr(gateway_module, "default_transport", StoryModel(latency_s=0.001))
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["gateway"]["max_parallel"] = max_parallel
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    remote = ("--backend", "remote", "--base-url", "http://fake.local/v1")
    _remove_stage_files(project)
    # a summaries file made from what a remote `summarize` uses, which it skips
    manifest = project / "stories" / "corpus.json"
    manifest.write_text(json.dumps({"files": [sorted((project / "stories").glob("*.json"))[0].name]}), "utf-8")
    assert run(project, *remote, "summarize") == 0
    manifest.unlink()
    capsys.readouterr()
    assert run(project, *remote, "track") == 0
    assert run(project, *remote, "summarize") == 0
    out = capsys.readouterr().out
    files = {
        path.relative_to(project): path.read_bytes()
        for name in ("summaries", "states")
        for path in (project / name).glob("*.json")
    }
    return out, files


def test_remote_track_and_summarize_write_the_same_bytes_at_any_max_parallel(project, monkeypatch, capsys):
    run(project, "fuzz", "--seed", "5", "--stories", "4")
    serial = _remote_stage_run(project, monkeypatch, 1, capsys)
    parallel = _remote_stage_run(project, monkeypatch, 4, capsys)
    assert parallel == serial
    assert "summarized 3 story(ies), 1 already present" in serial[0]
    assert len(serial[1]) == 8


def test_ctrl_c_during_a_remote_evaluate_exits_130_without_a_traceback(project, monkeypatch, capsys):
    from score import gateway as gateway_module
    from test_concurrency import StoryModel

    model = StoryModel(latency_s=0)
    interrupted_at = 5

    def transport(url, body, timeout, headers):
        reply = model(url, body, timeout, headers)
        if model.calls == interrupted_at:
            _thread.interrupt_main()  # a Ctrl-C while the request is on the wire
        return reply

    monkeypatch.setattr(gateway_module, "default_transport", transport)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["gateway"]["max_parallel"] = 1  # requests run on the main thread, where the interrupt lands
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    capsys.readouterr()
    try:
        code = run(project, "--backend", "remote", "--base-url", "http://fake.local/v1", "evaluate")
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    err = capsys.readouterr().err
    assert err.strip() == "interrupted" and "Traceback" not in err
    assert not (project / ".score.lock").exists()
    assert model.calls == interrupted_at  # no request started after the interrupt
    assert not list((project / "reports").glob("*.json"))


def _recorded_evaluate(root, monkeypatch, transport):
    """`evaluate` of a fresh or existing 2-story project in record mode over `transport`."""
    from score import gateway as gateway_module

    monkeypatch.setattr(gateway_module, "default_transport", transport)
    if not root.exists():
        assert run(root, "fuzz", "--seed", "5", "--stories", "2") == 0
        config = json.loads((root / "config.json").read_text("utf-8"))
        config["gateway"].update(
            backend="remote", base_url="http://fake.local/v1", model_name="m", cache_mode="record", max_parallel=1
        )
        (root / "config.json").write_text(json.dumps(config), "utf-8")
    return run(root, "evaluate")


def test_a_summary_rejected_twice_is_not_recorded_so_the_next_record_run_recovers(tmp_path, monkeypatch, capsys):
    from test_concurrency import StoryModel

    model = StoryModel(latency_s=0)
    page = []  # the prompts answered with an error page: the first summary, then its repair

    def gateway_error_page(url, body, timeout, headers):
        prompt = body.get("messages", [{}])[0].get("content", "")
        if len(page) < 2 and prompt.startswith(("Summarize", "Your previous reply")[len(page)]):
            page.append(prompt)
            return {"choices": [{"message": {"content": "<html>502 Bad Gateway</html>"}}]}
        return model(url, body, timeout, headers)

    root = tmp_path / "proj"
    assert _recorded_evaluate(root, monkeypatch, gateway_error_page) == 3
    assert "unusable summary reply" in capsys.readouterr().err
    assert len(page) == 2
    assert _recorded_evaluate(root, monkeypatch, model) == 0
    assert _recorded_evaluate(tmp_path / "clean", monkeypatch, StoryModel(latency_s=0)) == 0
    (report,) = (root / "reports").glob("*.json")
    (clean,) = (tmp_path / "clean" / "reports").glob("*.json")
    assert report.name == clean.name and report.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize(
    "damage", [lambda vec: vec[:10], lambda vec: [float("nan"), *vec[1:]]], ids=["short", "not-finite"]
)
def test_an_embedding_reply_of_bad_vectors_is_not_recorded_so_the_next_record_run_recovers(
    tmp_path, monkeypatch, capsys, damage
):
    from test_concurrency import StoryModel

    model = StoryModel(latency_s=0)

    def bad_vectors(url, body, timeout, headers):
        reply = model(url, body, timeout, headers)
        if url.endswith("/embeddings"):
            reply = {"data": [{**row, "embedding": damage(row["embedding"])} for row in reply["data"]]}
        return reply

    root = tmp_path / "proj"
    assert _recorded_evaluate(root, monkeypatch, bad_vectors) == 3
    assert "gateway error: the embedding of texts[0]" in capsys.readouterr().err
    assert _recorded_evaluate(root, monkeypatch, model) == 0
    assert _recorded_evaluate(tmp_path / "clean", monkeypatch, StoryModel(latency_s=0)) == 0
    (report,) = (root / "reports").glob("*.json")
    (clean,) = (tmp_path / "clean" / "reports").glob("*.json")
    assert report.name == clean.name and report.read_bytes() == clean.read_bytes()


# a `record` evaluate in a child process whose transport ends the process at request `k`
_RECORD_UNTIL_CRASH = """
import os, sys, threading
from score import cli, gateway
from test_concurrency import StoryModel

model, lock, sent = StoryModel(latency_s=0), threading.Lock(), []

def transport(url, body, timeout, headers):
    with lock:
        sent.append(url)
        if len(sent) == {k}:
            os._exit(9)
    return model(url, body, timeout, headers)

gateway.default_transport = transport
sys.exit(cli.main(["--project", {root!r}, "evaluate"]))
"""


@pytest.mark.parametrize("k", [1, 30, 69])
def test_a_record_run_cut_short_at_any_request_leaves_a_cache_the_next_run_completes(tmp_path, monkeypatch, k):
    import subprocess
    import sys

    from test_concurrency import StoryModel

    import score

    assert _recorded_evaluate(tmp_path / "clean", monkeypatch, StoryModel(latency_s=0)) == 0
    (clean,) = (tmp_path / "clean" / "reports").glob("*.json")
    root = tmp_path / "proj"
    assert run(root, "fuzz", "--seed", "5", "--stories", "2") == 0
    config = json.loads((root / "config.json").read_text("utf-8"))
    config["gateway"].update(
        backend="remote", base_url="http://fake.local/v1", model_name="m", cache_mode="record", max_parallel=4
    )
    (root / "config.json").write_text(json.dumps(config), "utf-8")
    paths = [os.path.dirname(os.path.dirname(score.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = _RECORD_UNTIL_CRASH.format(k=k, root=str(root))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 9, child.stderr  # the process ended at request k
    assert not list((root / "reports").glob("*.json"))
    (root / ".score.lock").unlink()  # the lock of the dead process
    assert _recorded_evaluate(root, monkeypatch, StoryModel(latency_s=0)) == 0
    (report,) = (root / "reports").glob("*.json")
    assert report.name == clean.name and report.read_bytes() == clean.read_bytes()
    report.unlink()
    assert run(root, "--cache-mode", "replay", "evaluate") == 0
    assert report.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize("manifest", [None, ["fuzz-3-0000.json"]], ids=["one-episode", "manifest-subset"])
def test_item_status_counts_only_the_gold_items_of_the_stories_the_run_tracked(project, capsys, manifest):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    if manifest:
        (project / "stories" / "corpus.json").write_text(json.dumps({"files": manifest}), "utf-8")
        argv = ()
    else:
        argv = ("--episode", "fuzz-3-0000#0")
    capsys.readouterr()
    assert run(project, "evaluate", *argv) == 0
    (report,) = (project / "reports").glob("*.json")
    metrics = json.loads(report.read_text("utf-8"))["metrics"]
    assert list(metrics["per_story"]) == ["fuzz-3-0000"]
    assert metrics["item_status"] == metrics["per_story"]["fuzz-3-0000"]["item_status"] == 100.0
    assert "item_status: 100.00" in capsys.readouterr().out


def test_evaluate_of_an_episode_the_story_lacks_exits_2_before_any_request(project, monkeypatch, capsys):
    from score import gateway as gateway_module
    from test_concurrency import StoryModel

    model = StoryModel(latency_s=0)
    monkeypatch.setattr(gateway_module, "default_transport", model)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    capsys.readouterr()
    remote = ("--backend", "remote", "--base-url", "http://fake.local/v1")
    assert run(project, *remote, "evaluate", "--episode", "fuzz-3-0000#99") == 2
    assert "episode 99 not in story 'fuzz-3-0000'" in capsys.readouterr().err
    assert model.calls == 0
    assert not list((project / "reports").glob("*.json"))


def test_evaluate_of_one_episode_sends_one_evaluation_and_no_answer(project, monkeypatch, capsys):
    from score import gateway as gateway_module
    from test_concurrency import BodyLog

    model = BodyLog()
    monkeypatch.setattr(gateway_module, "default_transport", model)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    remote = ("--backend", "remote", "--base-url", "http://fake.local/v1")
    capsys.readouterr()
    assert run(project, *remote, "evaluate", "--episode", "fuzz-3-0000#0") == 0
    assert "1 evaluation(s), 0 question(s)" in capsys.readouterr().out
    prompts = [json.loads(body.split(" ", 1)[1])["messages"][0]["content"] for body in model.bodies if "/chat/" in body]
    assert sum(p.startswith("Evaluate") for p in prompts) == 1
    assert sum(p.startswith("Answer") for p in prompts) == 0
    assert sum("/embeddings " in body for body in model.bodies) == 1  # the story's documents, no questions
    episode_chat, episode_texts = _chat_requests(model.bodies), _embedded_texts(model.bodies)
    (report_path,) = (project / "reports").glob("*.json")
    report = json.loads(report_path.read_text("utf-8"))
    (evaluation,) = report["evaluations"]
    assert (evaluation["story_id"], evaluation["episode_index"]) == ("fuzz-3-0000", 0)
    assert report["qa"] == []
    facet_average = sum(evaluation["facet_scores"].values()) / len(FACETS)
    assert report["metrics"]["coherence"] == (facet_average - 1.0) / 4.0 * 100.0
    assert report["metrics"]["per_story"]["fuzz-3-0000"]["coherence"] == report["metrics"]["coherence"]

    # its requests are a subset of a full run's, so the full run's recording serves it: each
    # chat request, and each text it embeds, which has a cache entry of its own; the stage
    # files each run keeps are removed, so that every request is sent or read from the cache
    report_path.unlink()
    _remove_stage_files(project)
    model.bodies.clear()
    assert run(project, *remote, "--cache-mode", "record", "evaluate") == 0
    assert episode_chat <= _chat_requests(model.bodies)
    assert episode_texts <= _embedded_texts(model.bodies)
    (full_path,) = (project / "reports").glob("*.json")
    full = json.loads(full_path.read_text("utf-8"))
    full_path.unlink()
    _remove_stage_files(project)
    model.bodies.clear()
    assert run(project, *remote, "--cache-mode", "replay", "evaluate", "--episode", "fuzz-3-0000#0") == 0
    assert model.bodies == []
    (replayed,) = (project / "reports").glob("*.json")
    assert json.loads(replayed.read_text("utf-8"))["evaluations"] == [full["evaluations"][0]] == [evaluation]


def _remove_stage_files(root) -> None:
    for stage in ("states", "summaries"):
        for path in (root / stage).glob("*.json"):
            path.unlink()


def _chat_requests(bodies: list[str]) -> set[str]:
    return {body for body in bodies if "/chat/" in body}


def _embedded_texts(bodies: list[str]) -> set[str]:
    """Every text sent to `/embeddings` in the logged request `bodies`."""
    return {
        text for body in bodies if "/embeddings " in body for text in json.loads(body.split(" ", 1)[1])["input"]
    }


def test_evaluate_embeds_no_document_that_index_already_embedded(project, monkeypatch, capsys):
    from score import gateway as gateway_module
    from test_concurrency import BodyLog

    model = BodyLog()
    monkeypatch.setattr(gateway_module, "default_transport", model)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    record = ("--backend", "remote", "--base-url", "http://fake.local/v1", "--cache-mode", "record")
    assert run(project, *record, "summarize") == 0
    assert run(project, *record, "index", "--granularity", "summary") == 0
    indexed = _embedded_texts(model.bodies)
    records = json.loads((project / "index" / "summary.records.json").read_text("utf-8"))
    assert indexed == {record["text"] for record in records.values()}
    model.bodies.clear()
    assert run(project, *record, "evaluate") == 0
    questions = {qa["question"] for qa in json.loads((project / "ground_truth.json").read_text("utf-8"))["qa"]}
    # the documents are cache hits, so only the questions are sent
    assert _embedded_texts(model.bodies) == questions
    assert not any('"content": "Summarize' in body for body in model.bodies)  # `summarize` recorded them


def test_summarize_after_an_edit_of_the_sentiment_template_asks_for_new_tones(project, monkeypatch):
    from score import gateway as gateway_module
    from test_concurrency import BodyLog

    model = BodyLog()
    monkeypatch.setattr(gateway_module, "default_transport", model)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    record = ("--backend", "remote", "--base-url", "http://fake.local/v1", "--cache-mode", "record")

    def tones():
        return [
            summary["sentiment"]
            for path in sorted((project / "summaries").glob("*.json"))
            for summary in json.loads(path.read_text("utf-8"))["summaries"]
        ]

    assert run(project, *record, "summarize") == 0
    before = tones()
    # the model rates the text it finds between the template's markers, so
    # three more positive words there raise every tone
    edit = "A joyful, hopeful, bright day."
    template = project / "prompts" / "sentiment.txt"
    template.write_text(template.read_text("utf-8").replace("$text", f"$text {edit}"), "utf-8")
    model.bodies.clear()
    assert run(project, *record, "summarize") == 0
    after = tones()
    assert len(after) == len(before) and all(new > old for new, old in zip(after, before))
    # the summary requests are cache hits; each distinct episode text is asked for its tone again
    sent = _chat_requests(model.bodies)
    assert len(sent) == 16 and all(edit in body for body in sent)


def test_compare_rejects_baseline_together_with_ablate(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    capsys.readouterr()
    assert run(project, "compare", "--baseline", "--ablate", "sentiment") == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not list((project / "reports").glob("*.json"))


# config.json as `Project.ensure` wrote it while the retrieval config still
# had `candidate_pool` and `sentiment_filter_enabled`: every field at its default
_CONFIG_WITH_RETIRED_FIELDS = """{
  "gateway": {
    "backend": "mock",
    "base_url": "",
    "cache_mode": "off",
    "embed_batch_limit": 256,
    "embed_dim": 256,
    "embed_model_name": "",
    "max_parallel": 4,
    "max_retries": 3,
    "model_name": "mock-small",
    "timeout": 30.0
  },
  "granularity": "summary",
  "retrieval": {
    "candidate_pool": 0,
    "context_char_budget": 12000,
    "exclude_self": true,
    "filter_queries": true,
    "sentiment_filter_enabled": true,
    "sentiment_tolerance": 0.3,
    "top_n": 5
  }
}
"""


def test_a_config_with_the_retired_fields_at_their_old_defaults_changes_no_report_byte(tmp_path, caplog):
    caplog.set_level(logging.DEBUG)
    reports = {}
    for name in ("today", "retired"):
        root = str(tmp_path / name)
        assert main(["--project", root, "fuzz", "--seed", "3", "--stories", "2"]) == 0
        if name == "retired":
            (tmp_path / name / "config.json").write_text(_CONFIG_WITH_RETIRED_FIELDS, "utf-8")
        assert main(["--project", root, "evaluate"]) == 0
        assert main(["--project", root, "compare", "--baseline"]) == 0
        reports[name] = {path.name: path.read_bytes() for path in (tmp_path / name / "reports").glob("*.json")}
    assert len(reports["today"]) == 2
    assert reports["retired"] == reports["today"]
    assert not [record for record in caplog.records if record.levelno >= logging.WARNING]


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("sentiment_filter_enabled", False, ("retired config field", "--ablate sentiment", "retrieval.filter_queries")),
        ("sentiment_filter_enabled", 1, ("retired config field", "--ablate sentiment")),
        ("candidate_pool", 40, ("retired config field", "no result depended on it; delete it")),
        ("candidate_pool", False, ("retired config field", "no result depended on it")),
        ("no_such_field", 0, ("unknown config field",)),
    ],
    ids=["filter-off", "filter-integer", "pool-40", "pool-bool", "unknown"],
)
def test_a_retired_config_field_at_another_value_exits_2_naming_what_replaced_it(
    project, capsys, field, value, expected
):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["retrieval"][field] = value
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    capsys.readouterr()
    assert run(project, "evaluate") == 2
    err = capsys.readouterr().err
    assert f"config.json: $.retrieval.{field}: {expected[0]}" in err
    assert all(part in err for part in expected)
    assert "Traceback" not in err


def test_the_config_ensure_writes_names_only_config_fields_and_loads_without_a_log_record(project, caplog):
    from dataclasses import fields

    from score.project import Project
    from score.retrieval import RetrievalConfig

    Project(project).ensure()
    written = json.loads((project / "config.json").read_text("utf-8"))
    assert set(written["retrieval"]) == {f.name for f in fields(RetrievalConfig)}
    assert set(written["gateway"]) == {f.name for f in fields(GatewayConfig)}
    caplog.set_level(logging.DEBUG)
    assert Project(project).load_config() == (GatewayConfig(), RetrievalConfig(), "summary")
    assert caplog.records == []


# ---------------------------------------------------------------------------
# stage files record what they were made from
# ---------------------------------------------------------------------------

REMOTE = ("--backend", "remote", "--base-url", "http://fake.local/v1")


def _body_log(monkeypatch):
    from score import gateway as gateway_module
    from test_concurrency import BodyLog

    model = BodyLog()
    monkeypatch.setattr(gateway_module, "default_transport", model)
    return model


def _prompts(model) -> list[str]:
    """The prompt of every chat request `model` was sent."""
    return [json.loads(body.split(" ", 1)[1])["messages"][0]["content"] for body in model.bodies if "/chat/" in body]


def _sent(model, start: str) -> int:
    return sum(prompt.startswith(start) for prompt in _prompts(model))


def _inputs(project, stage: str) -> dict:
    return {path.name: json.loads(path.read_text("utf-8")).get("inputs") for path in (project / stage).glob("*.json")}


def test_a_mock_summaries_file_is_summarized_again_by_a_remote_summarize_and_refused_by_a_remote_index(
    project, monkeypatch, capsys
):
    model = _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "summarize") == 0
    capsys.readouterr()
    assert run(project, *REMOTE, "index") == 2
    assert "not built for: fuzz-3-0000, fuzz-3-0001 (run `score summarize`)" in capsys.readouterr().err
    assert model.bodies == []
    assert run(project, *REMOTE, "summarize") == 0
    assert "summarized 2 story(ies), 0 already present" in capsys.readouterr().out
    assert _sent(model, "Summarize") > 0
    assert run(project, *REMOTE, "index") == 0
    assert run(project, "index") == 2  # and now the mock backend asks for its own


def test_an_edit_of_the_summarize_template_makes_summarize_redo_the_file(project, monkeypatch, capsys):
    model = _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, *REMOTE, "summarize") == 0
    before = _inputs(project, "summaries")
    template = project / "prompts" / "summarize.txt"
    template.write_text(template.read_text("utf-8") + "Be brief.\n", "utf-8")
    model.bodies.clear()
    capsys.readouterr()
    assert run(project, *REMOTE, "summarize") == 0
    assert "summarized 2 story(ies), 0 already present" in capsys.readouterr().out
    summaries = [prompt for prompt in _prompts(model) if prompt.startswith("Summarize")]
    assert summaries and all(prompt.endswith("Be brief.\n") for prompt in summaries)
    after = _inputs(project, "summaries")
    assert set(after) == set(before) and all(after[name] != before[name] for name in before)
    assert run(project, *REMOTE, "summarize") == 0
    assert "summarized 0 story(ies), 2 already present" in capsys.readouterr().out


def test_a_states_file_made_under_another_model_is_computed_again_by_track_and_by_evaluate(project, monkeypatch):
    model = _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, *REMOTE, "--model", "m1", "track") == 0
    made_by_m1 = _inputs(project, "states")

    def tracking_requests(name, command):
        model.bodies.clear()
        assert run(project, *REMOTE, "--model", name, command) == 0
        return _sent(model, "You are tracking")

    assert tracking_requests("m1", "evaluate") == 0
    assert tracking_requests("m2", "evaluate") > 0
    made_by_m2 = _inputs(project, "states")  # a remote evaluate keeps the states it computed
    assert set(made_by_m2) == set(made_by_m1) and all(made_by_m2[n] != made_by_m1[n] for n in made_by_m1)
    assert tracking_requests("m2", "track") == 0
    assert tracking_requests("m1", "track") > 0
    assert _inputs(project, "states") == made_by_m1


def test_evaluate_after_track_and_summarize_sends_no_stage_request_and_writes_the_same_report(
    project, tmp_path, monkeypatch
):
    model = _body_log(monkeypatch)
    fresh = tmp_path / "fresh"
    for root in (fresh, project):
        assert run(root, "fuzz", "--seed", "5", "--stories", "4") == 0
    assert run(fresh, *REMOTE, "evaluate") == 0
    assert run(project, *REMOTE, "track") == 0
    assert run(project, *REMOTE, "summarize") == 0
    model.bodies.clear()
    assert run(project, *REMOTE, "evaluate") == 0
    assert _sent(model, "You are tracking") == _sent(model, "Summarize") == 0
    questions = {qa["question"] for qa in json.loads((project / "ground_truth.json").read_text("utf-8"))["qa"]}
    tones = [prompt for prompt in _prompts(model) if prompt.startswith("Rate the emotional tone")]
    assert tones and all(prompt.split("Text:\n", 1)[1].split("\n\n", 1)[0] in questions for prompt in tones)
    (report,) = (project / "reports").glob("*.json")
    assert report.read_bytes() == (fresh / "reports" / report.name).read_bytes()


def test_evaluate_warns_of_a_damaged_summaries_file_only_when_it_reads_summaries(project, caplog):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    path = sorted((project / "summaries").glob("*.json"))[0]
    path.write_bytes(_truncated(path.read_bytes()))
    assert run(project, "evaluate", "--ablate", "summary") == 0
    assert not [r for r in caplog.records if path.name in r.getMessage()]
    assert run(project, "evaluate") == 0
    assert [r for r in caplog.records if path.name in r.getMessage() and "computing it again" in r.getMessage()]


@pytest.mark.parametrize("command", [("track",), ("summarize",), ("index",), ("evaluate",), ("compare", "--baseline")])
def test_a_command_serializes_each_story_once(project, monkeypatch, command):
    from score import project as project_module

    run(project, "fuzz", "--seed", "3", "--stories", "3")
    run(project, "summarize")
    serialized = []
    real = project_module.serialize_story
    monkeypatch.setattr(project_module, "serialize_story", lambda story: serialized.append(story.story_id) or real(story))
    assert run(project, *command) == 0
    assert sorted(serialized) == ["fuzz-3-0000", "fuzz-3-0001", "fuzz-3-0002"]


def _stage_files(root) -> dict:
    """The bytes of every stage file under `root`, by its path below `root`."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for stage in ("states", "summaries")
        for path in sorted((root / stage).glob("*.json"))
    }


def test_a_second_remote_evaluate_sends_no_extraction_or_summary_and_rewrites_no_stage_file(project, monkeypatch):
    from score.project import Project

    model = _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, *REMOTE, "evaluate") == 0
    assert _sent(model, "You are tracking") > 0 and _sent(model, "Summarize") > 0
    (report,) = (project / "reports").glob("*.json")
    first = report.read_bytes()
    saved = []
    monkeypatch.setattr(Project, "save_stage", lambda self, stage, story, *_: saved.append((stage, story.story_id)))
    model.bodies.clear()
    assert run(project, *REMOTE, "evaluate") == 0
    assert _sent(model, "You are tracking") == _sent(model, "Summarize") == 0
    assert saved == []  # every stage file matched, so none is written again
    assert report.read_bytes() == first


def _story_files(root) -> list[dict]:
    """The story files under `root`, in file name order."""
    return [json.loads(path.read_text("utf-8")) for path in sorted((root / "stories").glob("*.json"))]


def _named(story: dict) -> set[str]:
    """The distinct episode texts of a story file in which an alias of one of
    its key items occurs, in any case, even inside a longer word."""
    patterns = [alias_pattern(item["names"], whole_words=False) for item in story["key_items"]]
    return {ep["text"] for ep in story["episodes"] if any(p.search(ep["text"]) for p in patterns)}


def test_compare_after_evaluate_sends_only_what_the_stage_files_do_not_cover(project, tmp_path, monkeypatch):
    model = _body_log(monkeypatch)
    fresh = tmp_path / "fresh"
    for root in (fresh, project):
        assert run(root, "fuzz", "--seed", "5", "--stories", "3") == 0
    assert run(fresh, *REMOTE, "compare", "--baseline") == 0
    assert run(project, *REMOTE, "evaluate") == 0
    written = _stage_files(project)
    stories = _story_files(project)
    (project / "states" / f"{stories[0]['story_id']}.json").unlink()
    (project / "summaries" / f"{stories[1]['story_id']}.json").unlink()
    model.bodies.clear()
    assert run(project, *REMOTE, "compare", "--baseline") == 0
    # one extraction per distinct episode text that names a key item of the story without
    # states, one summary per distinct episode text of the story without summaries (the memo
    # answers a repeated text); the baseline's tones, evaluations and answers are the rest
    assert _sent(model, "You are tracking") == len(_named(stories[0]))
    assert _sent(model, "Summarize") == len({ep["text"] for ep in stories[1]["episodes"]})
    assert _stage_files(project) == written
    (report,) = (project / "reports").glob("*.compare.json")
    assert report.read_bytes() == (fresh / "reports" / report.name).read_bytes()


def test_the_stage_files_a_remote_evaluate_writes_are_those_track_and_summarize_write(
    project, tmp_path, monkeypatch
):
    _body_log(monkeypatch)
    staged = tmp_path / "staged"
    for root in (staged, project):
        assert run(root, "fuzz", "--seed", "5", "--stories", "3") == 0
    assert run(staged, *REMOTE, "track") == 0
    assert run(staged, *REMOTE, "summarize") == 0
    assert run(project, *REMOTE, "evaluate") == 0
    assert len(_stage_files(project)) == 6
    assert _stage_files(project) == _stage_files(staged)


@pytest.mark.parametrize("backend", [REMOTE, ("--backend", "mock")], ids=["remote", "mock"])
def test_only_a_remote_evaluate_or_compare_writes_stage_files(project, monkeypatch, backend):
    _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    for command in (("evaluate",), ("compare", "--baseline")):
        _remove_stage_files(project)
        assert run(project, *backend, *command) == 0
        assert len(_stage_files(project)) == (4 if backend == REMOTE else 0), command


def test_an_evaluate_without_summarization_writes_no_summaries_file(project, monkeypatch):
    model = _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, *REMOTE, "evaluate", "--ablate", "summary") == 0
    assert list(_stage_files(project)) == ["states/fuzz-3-0000.json", "states/fuzz-3-0001.json"]
    model.bodies.clear()
    assert run(project, *REMOTE, "evaluate") == 0  # summarizes, and reads the states the first run kept
    assert _sent(model, "You are tracking") == 0 and _sent(model, "Summarize") > 0
    assert len(_stage_files(project)) == 4


def _files_digest(root, stage: str) -> str:
    """One SHA-256 over the names and bytes of every `stage` file under `root`."""
    h = hashlib.sha256()
    for path in sorted((root / stage).glob("*.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# taken from the code before an episode that names no key item went without an
# extraction request; the stories are `fuzz --seed 5 --stories 3`
TRACKED_STATES_SHA256 = "3a7357045b94aa60e277b2f0aa8bab7ab99a16f7963ce9a5a49d944c63a9f99a"
COMPARED_REPORT_SHA256 = "0ad237326b201936dab28a11439df7d8033b93dc0dd77d80eb18a41a35ca1f64"


def test_a_remote_track_sends_no_extraction_for_an_episode_that_names_no_key_item(project, monkeypatch):
    model = _body_log(monkeypatch)
    assert run(project, "fuzz", "--seed", "5", "--stories", "3") == 0
    assert run(project, *REMOTE, "track") == 0
    stories = _story_files(project)
    named = [_named(story) for story in stories]
    assert all(texts < {ep["text"] for ep in story["episodes"]} for story, texts in zip(stories, named))
    assert _sent(model, "You are tracking") == sum(map(len, named))
    assert _files_digest(project, "states") == TRACKED_STATES_SHA256


def test_a_remote_compare_extracts_each_episode_once(project, monkeypatch):
    from score import evaluator

    _body_log(monkeypatch)
    extracted = []
    extract = evaluator.extract_item_statuses
    monkeypatch.setattr(
        evaluator, "extract_item_statuses", lambda ep, items, gw: extracted.append(ep) or extract(ep, items, gw)
    )
    assert run(project, "fuzz", "--seed", "5", "--stories", "3") == 0
    assert run(project, *REMOTE, "compare", "--baseline") == 0
    stories = _story_files(project)
    # side b, the baseline, tracks with the states side a made
    assert len(extracted) == sum(len(story["episodes"]) for story in stories) == 28
    (report,) = (project / "reports").glob("*.compare.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == COMPARED_REPORT_SHA256


def test_verbose_evaluate_logs_the_gateway_counters(project, monkeypatch, caplog):
    model = _body_log(monkeypatch)
    caplog.set_level(logging.INFO)  # restored after the test; each main call sets the level its -v asks for
    assert run(project, "fuzz", "--seed", "5", "--stories", "2") == 0  # without -v: WARNING
    assert run(project, *REMOTE, "-v", "evaluate") == 0
    (line,) = [r.getMessage() for r in caplog.records if r.name == "score.gateway" and r.levelno == logging.INFO]
    assert line.startswith(f"gateway totals: {model.calls} transport calls, 0 retries, ")
    assert model.calls == len(model.bodies) > 0
    caplog.clear()
    assert run(project, "-v", "evaluate") == 0  # the mock backend with cache off counts nothing
    assert not [r for r in caplog.records if r.name == "score.gateway"]
    assert run(project, *REMOTE, "evaluate") == 0  # without -v, no INFO line
    assert not [r for r in caplog.records if r.levelno < logging.WARNING]
