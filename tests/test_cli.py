import _thread
import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import threading

import pytest

from score import prompts as prompt_templates
from score.cache import FORMAT
from score.cli import main
from score.evaluator import FACETS, Ablations
from score.gateway import GatewayConfig, hashed_embedding
from score.jsonio import JSON_TYPES, canonical_bytes, canonical_dumps
from score.lexicon import alias_pattern
from score.project import CONFIG_SHAPE, METRIC_NAMES
from score.story import ItemState, parse_story
from score.tracker import ItemObservation, ItemTimeline, detect_story_errors, error_to_dict


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


def _markdown_report(project, capsys, pattern) -> tuple[dict, list[str]]:
    """The stored report matching `pattern` and the lines `score report --markdown` prints for it."""
    payload = json.loads(next((project / "reports").glob(pattern)).read_text("utf-8"))
    capsys.readouterr()
    assert run(project, "report", payload["run_id"], "--markdown") == 0
    return payload, capsys.readouterr().out.splitlines()


def _shown(value) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def test_report_markdown_of_a_comparison_has_a_b_and_delta_columns(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "compare", "--baseline") == 0
    payload, lines = _markdown_report(project, capsys, "*.compare.json")
    assert lines[:4] == [f"# Run {payload['run_id']}", "", "| metric | a | b | delta |", "|---|---|---|---|"]
    assert lines[4:] == [
        f"| {name} | {_shown(payload['metrics_a'][name])} | {_shown(payload['metrics_b'][name])} | "
        f"{_shown(payload['deltas'][name])} |"
        for name in METRIC_NAMES
    ]
    assert payload["deltas"]["consistency"] is not None  # a delta is printed, not only n/a


def test_report_markdown_of_an_ablated_run_names_its_disabled_modules(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "evaluate", "--ablate", "summary") == 0
    payload, lines = _markdown_report(project, capsys, "*.json")
    assert lines[:4] == [f"# Run {payload['run_id']}", "", "| metric | value |", "|---|---|"]
    assert lines[4:-5] == [f"| {name} | {_shown(payload['metrics'][name])} |" for name in METRIC_NAMES]
    assert lines[-5:] == [
        "", "Disabled modules: summary", "",
        f"Evaluations: {len(payload['evaluations'])}", f"Questions: {len(payload['qa'])}",
    ]


def test_reports_are_written_compact_printed_indented_and_an_indented_report_still_loads(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "evaluate") == 0
    assert run(project, "compare", "--baseline") == 0
    reports = sorted((project / "reports").glob("*.json"))
    assert len(reports) == 2
    for path in reports:
        payload = json.loads(path.read_bytes())
        assert path.read_bytes() == canonical_bytes(payload, indent=None)  # one line
        capsys.readouterr()
        assert run(project, "report", payload["run_id"]) == 0
        printed = capsys.readouterr().out
        assert printed == canonical_dumps(payload, indent=2) + "\n"
        path.write_bytes(canonical_bytes(payload, indent=2))  # as reports were written before
        assert run(project, "report", payload["run_id"]) == 0
        assert capsys.readouterr().out == printed


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


def test_ablate_takes_the_name_of_each_ablations_field(project, capsys, monkeypatch):
    names = [f.name for f in dataclasses.fields(Ablations)]
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    with pytest.raises(SystemExit):
        run(project, "evaluate", "--help")
    assert f"comma-separated modules to disable: {','.join(names)}" in capsys.readouterr().out
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "evaluate", "--ablate", ",".join(reversed(names))) == 0
    payload = json.loads(next((project / "reports").glob("*.json")).read_text("utf-8"))
    assert payload["disabled_modules"] == names  # in field order
    assert payload["config"]["ablations"] == dataclasses.asdict(Ablations.baseline()) == dict.fromkeys(names, False)


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["evaluate", "--episode", "nohash"], 1, "--episode expects STORY#INDEX, got 'nohash'"),
        (["evaluate", "--episode", "nosuch#0"], 2, "story 'nosuch' not in corpus"),
        (["ask", "where is the sword?", "--story", "nosuch"], 2, "story 'nosuch' not in index"),
    ],
    ids=["episode-without-hash", "episode-of-no-story", "ask-of-no-story"],
)
def test_a_command_naming_no_episode_or_story_of_the_project_exits_with_its_code(project, capsys, argv, code, expected):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "index")
    capsys.readouterr()
    assert run(project, *argv) == code
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err
    assert not list((project / "reports").glob("*.json"))


def test_a_manifest_that_lists_two_files_of_one_story_exits_2(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    stories = project / "stories"
    (stories / "copy.json").write_bytes((stories / "fuzz-3-0000.json").read_bytes())
    (stories / "corpus.json").write_text(json.dumps({"files": ["fuzz-3-0000.json", "copy.json"]}), "utf-8")
    capsys.readouterr()
    assert run(project, "track") == 2
    assert "duplicate story_id in corpus" in capsys.readouterr().err


def test_a_project_without_stories_exits_2(project, capsys):
    assert run(project, "track") == 2
    assert "no stories ingested" in capsys.readouterr().err


def test_evaluate_of_an_ingested_project_without_ground_truth_reports_no_gold_metric(project, tmp_path, capsys):
    source = tmp_path / "source"
    run(source, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "ingest", *map(str, sorted((source / "stories").glob("*.json")))) == 0
    assert not (project / "ground_truth.json").exists()
    capsys.readouterr()
    assert run(project, "evaluate") == 0
    assert "item_status: n/a" in capsys.readouterr().out
    (report,) = (project / "reports").glob("*.json")
    metrics = json.loads(report.read_text("utf-8"))["metrics"]
    assert metrics["item_status"] is None and metrics["complex_qa"] is None
    assert metrics["consistency"] is not None and metrics["coherence"] is not None


def test_usage_error_exit_code_1(project, capsys):
    assert main(["--project", str(project), "definitely-not-a-command"]) == 1


def test_broken_config_file_exits_2(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    (project / "config.json").write_text('{"gateway": {"no_such_field": 1}}')
    assert run(project, "track") == 2
    assert "config.json" in capsys.readouterr().err


# a JSON value of another type than each config field's
_WRONG_TYPED = {str: 5, int: "5", float: "0.5", bool: 1}
# id -> (config, named, expected): one wrong-typed value for each field of every section of
# CONFIG_SHAPE, so that a field added later is covered too, and a granularity `index` does not build
_GENERATED_CONFIG_CASES = {
    f"{section[:-1]}.{field[:-1]}-wrong-type": (
        json.dumps({section[:-1]: {field[:-1]: _WRONG_TYPED[kind]}}),
        f"config.json: $.{section[:-1]}.{field[:-1]}",
        f"must be {JSON_TYPES[kind]}",
    )
    for section, fields in CONFIG_SHAPE.items()
    if type(fields) is dict
    for field, kind in fields.items()
}
_GENERATED_CONFIG_CASES["granularity-unknown"] = (
    '{"granularity": "paragraph"}', "config.json: $.granularity", 'must be one of "summary", "chunk"'
)


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
        ('{"granularty": "chunk"}', "config.json: $.granularty", "unknown config field"),
        ('{"retreival": {"top_n": 1}}', "config.json: $.retreival", "unknown config field"),
        *_GENERATED_CONFIG_CASES.values(),
    ],
    ids=[
        "top-level-list", "section-list", "max_parallel-string", "top_n-string", "top_n-bool",
        "tolerance-bool", "filter_queries-integer", "granularity-integer", "misspelt-field", "misspelt-section",
        *_GENERATED_CONFIG_CASES,
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


@pytest.mark.parametrize(
    "section, values, expected",
    [
        ("gateway", {"backend": "local"}, "backend: must be one of ('remote', 'mock'), got 'local'"),
        ("gateway", {"backend": "remote", "base_url": ""}, "base_url: required for the remote backend"),
        ("gateway", {"cache_mode": "write"}, "cache_mode: must be one of ('off', 'record', 'replay'), got 'write'"),
        ("gateway", {"embed_dim": 0}, "embed_dim: must be positive"),
        ("gateway", {"max_parallel": 0}, "max_parallel: must be positive"),
        ("gateway", {"max_retries": -1}, "max_retries: must be >= 0"),
        ("gateway", {"embed_batch_limit": 0}, "embed_batch_limit: must be positive"),
        ("gateway", {"timeout": 0}, "timeout: must be in (0, 86400] seconds, got 0"),
        ("gateway", {"timeout": -2.5}, "timeout: must be in (0, 86400] seconds, got -2.5"),
        ("gateway", {"timeout": float("nan")}, "timeout: must be in (0, 86400] seconds, got nan"),
        ("gateway", {"timeout": float("inf")}, "timeout: must be in (0, 86400] seconds, got inf"),
        ("gateway", {"timeout": 1e10}, "timeout: must be in (0, 86400] seconds, got 10000000000.0"),
        (
            "gateway",
            {"backend": "remote", "base_url": "http://127.0.0.1:9/v1", "timeout": 0},
            "timeout: must be in (0, 86400] seconds, got 0",
        ),
        ("retrieval", {"top_n": 0}, "top_n: must be positive"),
        ("retrieval", {"sentiment_tolerance": 1.5}, "sentiment_tolerance: must be in [0, 1]"),
        ("retrieval", {"sentiment_tolerance": float("nan")}, "sentiment_tolerance: must be in [0, 1]"),
        ("retrieval", {"context_char_budget": 0}, "context_char_budget: must be positive"),
    ],
    ids=[
        "backend", "base_url", "cache_mode", "embed_dim", "max_parallel", "max_retries", "embed_batch_limit",
        "timeout-0", "timeout-negative", "timeout-nan", "timeout-inf", "timeout-1e10", "timeout-0-remote",
        "top_n", "sentiment_tolerance", "sentiment_tolerance-nan", "context_char_budget",
    ],
)
def test_a_config_value_out_of_range_exits_2_naming_it(project, capsys, section, values, expected):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    capsys.readouterr()
    (project / "config.json").write_text(json.dumps({section: values}), "utf-8")  # NaN and Infinity as JSON reads them
    assert run(project, "track") == 2
    err = capsys.readouterr().err
    assert f"config.json: $.{section}.{expected}" in err
    assert "Traceback" not in err


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


def test_ingest_refuses_the_story_id_of_the_manifest(project, tmp_path, capsys):
    # a story saved as stories/corpus.json would be read as the manifest by every later command
    source = tmp_path / "story.json"
    source.write_text(
        json.dumps({"story_id": "corpus", "title": "C", "genre": "drama", "episodes": [{"index": 0, "text": "a."}]})
    )
    capsys.readouterr()
    assert run(project, "ingest", str(source)) == 2
    assert f"{source}: $.story_id: must not be 'corpus'" in capsys.readouterr().err
    assert not (project / "stories" / "corpus.json").exists()


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
        ("summary.records.json", _json_edit(lambda records: records.pop(sorted(records)[0]))),
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
        "record-left-out",
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


@pytest.mark.parametrize("name", ["summary.vec", "summary.meta.json", "summary.records.json"])
def test_an_index_file_that_cannot_be_read_exits_2_naming_it(project, capsys, name):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "index")
    path = project / "index" / name
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert run(project, "ask", "where is the sword?") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Is a directory" in err and "Traceback" not in err


def _write_the_older_index_layout(project, relabel=None):
    """Rewrite `index/summary.*.json` as the code wrote them before each index
    fact had one file: each record also names its entry's story and episode
    (the story `relabel` maps it to, when given), and `.meta.json` also holds
    the `.vec` header's dimension, count and format version."""
    from score.index import _HEADER
    from score.jsonio import canonical_bytes

    index_dir = project / "index"
    _, version, dim, count, _ = _HEADER.unpack_from((index_dir / "summary.vec").read_bytes())
    meta = json.loads((index_dir / "summary.meta.json").read_bytes())
    records = json.loads((index_dir / "summary.records.json").read_bytes())
    for entry in meta["entries"]:
        story_id = (relabel or {}).get(entry["story_id"], entry["story_id"])
        records[entry["entry_id"]].update(story_id=story_id, episode_index=entry["episode_index"])
    meta.update(dim=dim, count=count, format_version=version)
    (index_dir / "summary.meta.json").write_bytes(canonical_bytes(meta))
    (index_dir / "summary.records.json").write_bytes(canonical_bytes(records))


def _asked(project, capsys, *argv) -> str:
    capsys.readouterr()
    assert run(project, "ask", "What happened to the lantern?", *argv) == 0
    return capsys.readouterr().out


def test_ask_answers_the_same_bytes_from_index_files_of_the_older_layout(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    run(project, "summarize")
    run(project, "index")
    index_dir = project / "index"
    meta = json.loads((index_dir / "summary.meta.json").read_bytes())
    records = json.loads((index_dir / "summary.records.json").read_bytes())
    assert meta.keys() == {"entries"}
    assert all(record.keys() == {"sentiment", "text"} for record in records.values())
    stories = ((), ("--story", "fuzz-3-0000"))
    fresh = [_asked(project, capsys, *story) for story in stories]
    _write_the_older_index_layout(project)
    assert [_asked(project, capsys, *story) for story in stories] == fresh
    # `index` writes the files in today's layout again and leaves the vectors alone
    vec = (index_dir / "summary.vec").stat().st_mtime_ns
    assert run(project, "index") == 0
    assert json.loads((index_dir / "summary.meta.json").read_bytes()) == meta
    assert json.loads((index_dir / "summary.records.json").read_bytes()) == records
    assert (index_dir / "summary.vec").stat().st_mtime_ns == vec


def test_ask_takes_each_record_story_from_its_meta_entry_not_from_an_older_record(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    run(project, "summarize")
    run(project, "index")
    fresh = _asked(project, capsys, "--story", "fuzz-3-0000")
    # an older record that names another story than its entry is not read
    _write_the_older_index_layout(project, relabel={"fuzz-3-0000": "fuzz-3-0001"})
    assert _asked(project, capsys, "--story", "fuzz-3-0000") == fresh
    supporting = json.loads(fresh)["supporting_episodes"]
    assert supporting and all(story == "fuzz-3-0000" for story, _ in supporting)


def _observation(episode: int, state: str) -> dict:
    return {"episode": episode, "state": state, "explained": False, "evidence": None}


def _with_errors(payload: dict) -> dict:
    """A states file's object with the errors its timelines show, as a states
    file of the older layout held them."""
    timelines = {
        tl["item_id"]: ItemTimeline(
            tl["item_id"],
            tuple(
                ItemObservation(tl["item_id"], o["episode"], ItemState(o["state"]), explained=o["explained"])
                for o in tl["observations"]
            ),
        )
        for tl in payload["timelines"]
    }
    return {**payload, "errors": [error_to_dict(e) for e in detect_story_errors(timelines)]}


def _ghost_timeline(payload: dict) -> None:
    observations = [_observation(0, "active"), _observation(1, "lost"), _observation(2, "active")]
    payload["timelines"].append({"item_id": "ghost", "observations": observations})


def _ghost_interaction(payload: dict) -> None:
    summary = next(summary for summary in payload["summaries"] if summary["interactions"])
    summary["interactions"].append(dict(summary["interactions"][0], item_id="ghost"))


@pytest.mark.parametrize(
    "stage, command, tamper",
    [
        ("states", "track", _ghost_timeline),
        ("states", "track", lambda payload: payload["timelines"][0]["observations"].append(_observation(40, "active"))),
        ("summaries", "summarize", _ghost_interaction),
    ],
    ids=["timeline-of-an-undeclared-item", "observation-after-the-last-episode", "interaction-of-an-undeclared-item"],
)
def test_a_stage_file_naming_an_item_or_episode_its_story_lacks_is_computed_again(
    project, caplog, capsys, stage, command, tamper
):
    run(project, "fuzz", "--seed", "3", "--stories", "2")  # fuzz-3-0000: episodes 0-5, items scepter and horn
    assert run(project, command) == 0
    path = project / stage / "fuzz-3-0000.json"
    good = path.read_bytes()
    payload = json.loads(good)
    tamper(payload)
    path.write_text(json.dumps(_with_errors(payload) if stage == "states" else payload), "utf-8")
    capsys.readouterr()
    caplog.set_level(logging.WARNING)
    assert run(project, command) == 0
    warning = f"{path}: does not hold the {stage} of story 'fuzz-3-0000'; computing it again"
    assert [r for r in caplog.records if r.getMessage() == warning]
    assert path.read_bytes() == good
    if stage == "states":
        assert "precision=1.000" in capsys.readouterr().out


def _drop_last_summary(raw: bytes) -> bytes:
    value = json.loads(raw)
    value["summaries"].pop()
    return json.dumps(value).encode()


_BAD_SUMMARIES = pytest.mark.parametrize(
    "mutate", [_truncated, lambda raw: b"{}", _drop_last_summary], ids=["truncated", "empty-object", "one-short"]
)


@_BAD_SUMMARIES
def test_index_warns_of_a_corrupt_summaries_file_and_summarizes_again(project, caplog, mutate):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    path = sorted((project / "summaries").glob("*.json"))[0]
    good = path.read_bytes()
    for granularity in ("summary", "chunk"):
        path.write_bytes(mutate(good))
        caplog.clear()
        assert run(project, "index", "--granularity", granularity) == 0
        assert [r for r in caplog.records if path.name in r.getMessage() and "computing it again" in r.getMessage()]
        assert path.read_bytes() == good


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


def test_unknown_granularity_in_config_exits_2_naming_it(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["granularity"] = "paragraph"
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    capsys.readouterr()
    expected = 'config.json: $.granularity: must be one of "summary", "chunk", got "paragraph"'
    assert run(project, "index") == 2
    assert expected in capsys.readouterr().err
    assert run(project, "ask", "where is the sword?") == 2
    assert expected in capsys.readouterr().err


def test_chunk_granularity_index_and_ask(project, capsys):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    assert run(project, "index", "--granularity", "chunk") == 0
    capsys.readouterr()
    assert run(project, "ask", "what happened to the crown?", "--granularity", "chunk") == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload["answer"], str)


def test_an_episode_longer_than_a_chunk_is_indexed_asked_and_left_out_chunk_by_chunk(project, tmp_path, capsys):
    from score.chunking import DEFAULT_MAX_CHARS
    from score.gateway import LlmGateway
    from score.project import Project
    from score.retrieval import RetrievalConfig, retrieve_related

    long_text = " ".join(f"Mira carried the lantern past milestone {k} on the long road." for k in range(60))
    assert len(long_text) > DEFAULT_MAX_CHARS  # no fuzz episode is this long
    texts = [long_text, "The lantern shattered on the stone floor.", "Mira mended the lantern by the fire."]
    source = tmp_path / "long-story.json"
    source.write_text(
        json.dumps(
            {
                "story_id": "long",
                "title": "Long",
                "genre": "drama",
                "key_items": [{"item_id": "lantern", "names": ["lantern"]}],
                "episodes": [{"index": i, "text": text} for i, text in enumerate(texts)],
            }
        ),
        "utf-8",
    )
    assert run(project, "ingest", str(source)) == 0
    assert run(project, "index", "--granularity", "chunk") == 0
    entries = json.loads((project / "index" / "chunk.meta.json").read_text("utf-8"))["entries"]
    chunks = [e["entry_id"] for e in entries if e["episode_index"] == 0]
    assert len(chunks) > 1 and chunks == [f"long#0#c{k}" for k in range(len(chunks))]
    capsys.readouterr()
    assert run(project, "ask", "Where did Mira carry the lantern?", "--granularity", "chunk") == 0
    assert isinstance(json.loads(capsys.readouterr().out)["answer"], str)

    index, records = Project(project).load_index("chunk")
    gateway = LlmGateway(GatewayConfig())
    config = RetrievalConfig(top_n=len(index), context_char_budget=10**6)  # room for every entry
    kept = retrieve_related(long_text, None, index, records, config, gateway)
    left_out = retrieve_related(long_text, None, index, records, config, gateway, exclude_ref=("long", 0))
    assert kept.episode_refs().count(("long", 0)) == len(chunks)
    assert sorted(left_out.episode_refs()) == [("long", 1), ("long", 2)]


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


# the keys of a stage file at each level: the file holds its story's output and
# `inputs`, and nothing its name, its position or its timelines give
_STAGE_KEYS = {
    "states": {"inputs", "timelines"},
    "timeline": {"item_id", "observations"},
    "observation": {"episode", "state", "explained", "evidence"},
    "summaries": {"inputs", "summaries"},
    "summary": {
        "synopsis", "plot_points", "actions", "interactions", "relationships", "emotional_changes", "sentiment"
    },
    "action": {"character", "description"},
    "interaction": {"item_id", "actor", "description", "implied_state"},
}


def test_outputs_conform_to_declared_schemas(project, monkeypatch):
    """Every stage file the stage commands and a remote `evaluate` write holds exactly the keys of its layout."""
    _body_log(monkeypatch)
    remote = project / "remote"
    for root in (project, remote):
        run(root, "fuzz", "--seed", "3", "--stories", "2")
    run(project, "summarize")
    run(project, "track")
    assert run(remote, *REMOTE, "evaluate") == 0
    for root in (project, remote):
        files = {name: json.loads(data) for name, data in _stage_files(root).items()}
        assert len(files) == 4
        for name, payload in files.items():
            stage = name.split("/")[0]
            assert set(payload) == _STAGE_KEYS[stage], name
            for tl in payload.get("timelines", ()):
                assert set(tl) == _STAGE_KEYS["timeline"]
                for obs in tl["observations"]:
                    assert set(obs) == _STAGE_KEYS["observation"]
                    assert obs["state"] in ("active", "lost", "destroyed")
            for summary in payload.get("summaries", ()):
                assert set(summary) == _STAGE_KEYS["summary"]
                assert summary["synopsis"] and 0.0 <= summary["sentiment"] <= 1.0
                assert all(set(action) == _STAGE_KEYS["action"] for action in summary["actions"])
                assert all(set(inter) == _STAGE_KEYS["interaction"] for inter in summary["interactions"])
    # the mock summaries hold actions and interactions, so their keys were checked
    summaries = [s for data in _stage_files(project).values() for s in json.loads(data).get("summaries", ())]
    assert any(s["actions"] for s in summaries) and any(s["interactions"] for s in summaries)


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


@pytest.mark.parametrize(
    "reply, expected",
    [
        ({"choices": []}, "malformed chat reply"),
        ({"choices": [{"message": {"content": 5}}]}, "chat reply content is not a string"),
    ],
    ids=["no-choice", "content-not-a-string"],
)
def test_a_chat_reply_of_another_shape_exits_3(project, monkeypatch, capsys, reply, expected):
    from score import gateway as gateway_module

    monkeypatch.setattr(gateway_module, "default_transport", lambda url, body, timeout, headers: reply)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    capsys.readouterr()
    assert run(project, "--backend", "remote", "--base-url", "http://fake.local/v1", "track") == 3
    err = capsys.readouterr().err
    assert f"gateway error: {expected}" in err and "Traceback" not in err


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
        db.execute("UPDATE entries SET response = x'ff' WHERE key = ?", (key,))  # one byte: no reply of any op
    capsys.readouterr()
    assert run(project, "--cache-mode", "replay", "evaluate") == 2
    err = capsys.readouterr().err
    assert "cache.sqlite3" in err and key in err


@pytest.mark.parametrize("length", [-8, 8], ids=["one-component-short", "one-component-long"])
def test_a_stored_vector_of_the_wrong_byte_length_exits_3_naming_the_embedding(project, capsys, length):
    import sqlite3

    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "--cache-mode", "record", "evaluate") == 0
    with contextlib.closing(sqlite3.connect(project / "cache" / "cache.sqlite3")) as db, db:
        vectors = db.execute("SELECT key, response FROM entries WHERE typeof(response) = 'blob'").fetchall()
        assert vectors and {len(vector) for _, vector in vectors} == {8 * 256}
        for key, vector in vectors:
            db.execute("UPDATE entries SET response = ? WHERE key = ?", ((vector + bytes(8))[: 8 * 256 + length], key))
    capsys.readouterr()
    assert run(project, "--cache-mode", "replay", "evaluate") == 3
    expected = f"gateway error: embedding 0 has dimension ({256 + length // 8},), expected (256,)"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["record", "replay"])
def test_cache_file_that_is_not_a_database_exits_2_naming_it(project, capsys, mode):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    (project / "cache" / "cache.sqlite3").write_text("not a database\n" * 100, "utf-8")
    capsys.readouterr()
    assert run(project, "--cache-mode", mode, "evaluate") == 2
    assert f"{project / 'cache' / 'cache.sqlite3'}: not a usable cache file" in capsys.readouterr().err


@pytest.mark.parametrize("version", [0, 1, FORMAT + 1], ids=["unstamped", "format-1", "another-number"])
def test_a_cache_file_of_another_format_is_refused_in_replay_and_record(project, capsys, version):
    import sqlite3

    from test_gateway import to_format_1

    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "--cache-mode", "record", "evaluate") == 0
    path = project / "cache" / "cache.sqlite3"
    if version == 1:  # the layout of one JSON record per entry, which this recording had before format 2
        to_format_1(path.parent)
    else:
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


def _recorded_evaluate(root, monkeypatch, transport, *flags):
    """`evaluate` of a fresh or existing 2-story project in record mode, or as
    command-line `flags` say, over `transport`."""
    from score import gateway as gateway_module

    monkeypatch.setattr(gateway_module, "default_transport", transport)
    if not root.exists():
        assert run(root, "fuzz", "--seed", "5", "--stories", "2") == 0
        config = json.loads((root / "config.json").read_text("utf-8"))
        config["gateway"].update(
            backend="remote", base_url="http://fake.local/v1", model_name="m", cache_mode="record", max_parallel=1
        )
        (root / "config.json").write_text(json.dumps(config), "utf-8")
    return run(root, *flags, "evaluate")


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
    assert "unusable summarize reply" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("candidate_pool", 0),
        ("candidate_pool", 40),
        ("candidate_pool", False),
        ("sentiment_filter_enabled", True),
        ("sentiment_filter_enabled", False),
        ("sentiment_filter_enabled", 1),
        ("no_such_field", 0),
    ],
    ids=[
        "pool-old-default", "pool-40", "pool-bool", "filter-old-default", "filter-off", "filter-integer", "unknown",
    ],
)
def test_a_retired_config_field_exits_2_as_an_unknown_field_at_any_value(project, capsys, field, value):
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    today = json.loads((project / "config.json").read_text("utf-8"))
    config = json.loads(_CONFIG_WITH_RETIRED_FIELDS)
    retired = {name: config["retrieval"].pop(name) for name in ("candidate_pool", "sentiment_filter_enabled")}
    assert config == today
    config["retrieval"][field] = value
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    capsys.readouterr()
    assert run(project, "evaluate") == 2
    err = capsys.readouterr().err
    assert f"config.json: $.retrieval.{field}: unknown config field" in err
    assert "Traceback" not in err
    assert not list((project / "reports").glob("*.json"))
    if json.dumps(value) != json.dumps(retired.get(field)):
        return
    # an older project's config.json, where each retired field is at this default, loads once their lines go
    text = _CONFIG_WITH_RETIRED_FIELDS
    (project / "config.json").write_text(text, "utf-8")
    assert run(project, "evaluate") == 2
    assert "config.json: $.retrieval.candidate_pool: unknown config field" in capsys.readouterr().err
    for name, old in retired.items():
        text = text.replace(f'    "{name}": {json.dumps(old)},\n', "")
    (project / "config.json").write_text(text, "utf-8")
    assert run(project, "evaluate") == 0


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


def test_a_mock_summaries_file_is_summarized_again_by_a_remote_summarize_and_summarized_again_by_a_remote_index(
    project, monkeypatch, capsys
):
    model = _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, "summarize") == 0
    made_by_mock = _inputs(project, "summaries")
    capsys.readouterr()
    assert run(project, *REMOTE, "summarize") == 0
    assert "summarized 2 story(ies), 0 already present" in capsys.readouterr().out
    summary_requests = _sent(model, "Summarize")
    assert summary_requests > 0
    assert run(project, "index") == 0  # the mock backend summarizes again for its own
    assert _inputs(project, "summaries") == made_by_mock
    model.bodies.clear()
    assert run(project, *REMOTE, "index") == 0
    assert _sent(model, "Summarize") == summary_requests and any("/embeddings " in body for body in model.bodies)
    made_by_remote = _inputs(project, "summaries")
    assert set(made_by_remote) == set(made_by_mock) and all(made_by_remote[n] != made_by_mock[n] for n in made_by_mock)


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


def _older_layout(stage: str, story_id: str, payload: dict) -> dict:
    """A stage file's object in the older layout, which also held the story id,
    a states file's errors, and each summary's, action's and interaction's episode."""
    if stage == "states":
        return {**_with_errors(payload), "story_id": story_id}
    summaries = [
        {
            **summary,
            "story_id": story_id,
            "episode_index": i,
            "actions": [{**action, "episode_index": i} for action in summary["actions"]],
            "interactions": [{**inter, "episode_index": i} for inter in summary["interactions"]],
        }
        for i, summary in enumerate(payload["summaries"])
    ]
    return {**payload, "story_id": story_id, "summaries": summaries}


def test_stage_files_of_the_older_layout_match_and_are_not_written_again(project, caplog):
    run(project, "fuzz", "--seed", "3", "--stories", "3")
    assert run(project, "evaluate") == 0
    (report,) = (project / "reports").glob("*.json")
    first = report.read_bytes()
    written = _stage_files(project)
    untouched = 10**18  # a modification time no write leaves
    for name, data in written.items():
        path = project / name
        path.write_bytes(canonical_bytes(_older_layout(path.parent.name, path.stem, json.loads(data)), indent=None))
        os.utime(path, ns=(untouched, untouched))
    older = _stage_files(project)
    assert len(older) == 6 and all(older[name] != written[name] for name in written)
    report.unlink()
    caplog.set_level(logging.WARNING)
    assert run(project, "evaluate") == 0
    assert report.read_bytes() == first
    assert _stage_files(project) == older
    assert all((project / name).stat().st_mtime_ns == untouched for name in older)
    assert not [r for r in caplog.records if "computing it again" in r.getMessage()]


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
def test_an_evaluate_or_compare_writes_stage_files_on_every_backend(project, monkeypatch, backend):
    _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    for command in (("evaluate",), ("compare", "--baseline")):
        _remove_stage_files(project)
        assert run(project, *backend, *command) == 0
        assert len(_stage_files(project)) == 4, command


def test_an_evaluate_without_summarization_writes_no_summaries_file(project, monkeypatch):
    model = _body_log(monkeypatch)
    run(project, "fuzz", "--seed", "3", "--stories", "2")
    assert run(project, *REMOTE, "evaluate", "--ablate", "summary") == 0
    assert list(_stage_files(project)) == ["states/fuzz-3-0000.json", "states/fuzz-3-0001.json"]
    model.bodies.clear()
    assert run(project, *REMOTE, "evaluate") == 0  # summarizes, and reads the states the first run kept
    assert _sent(model, "You are tracking") == 0 and _sent(model, "Summarize") > 0
    assert len(_stage_files(project)) == 4


# the stage files each command reads
_STAGES_READ = {"track": ("states",), "summarize": ("summaries",), "index": ("summaries",)}


@pytest.mark.parametrize("backend", [REMOTE, ("--backend", "mock")], ids=["remote", "mock"])
@pytest.mark.parametrize(
    "command",
    [("track",), ("summarize",), ("index",), ("evaluate",), ("compare", "--baseline")],
    ids=["track", "summarize", "index", "evaluate", "compare"],
)
def test_a_command_reads_each_matching_stage_file_and_computes_and_keeps_the_rest(
    project, monkeypatch, caplog, backend, command
):
    from score import cli

    model = _body_log(monkeypatch)
    stages = _STAGES_READ.get(command[0], ("states", "summaries"))
    run(project, "fuzz", "--seed", "3", "--stories", "4")

    def stage_files_made(*model_flag):
        for stage_command in ("track", "summarize"):
            assert run(project, *backend, *model_flag, stage_command) == 0
        return _stage_files(project)

    stale = stage_files_made("--model", "another")
    matching = stage_files_made()
    stories = _story_files(project)
    ids = [story["story_id"] for story in stories]
    untouched = 10**18  # a modification time no write leaves
    for stage in stages:
        os.utime(project / stage / f"{ids[0]}.json", ns=(untouched, untouched))
        (project / stage / f"{ids[1]}.json").write_bytes(stale[f"{stage}/{ids[1]}.json"])
        truncated = project / stage / f"{ids[2]}.json"
        truncated.write_bytes(_truncated(truncated.read_bytes()))
        (project / stage / f"{ids[3]}.json").unlink()
    computed = []
    compute = cli.stage_outputs

    def stage_outputs(todo, gateway, stage):
        computed.append((stage, [story.story_id for story in todo]))
        return compute(todo, gateway, stage)

    monkeypatch.setattr(cli, "stage_outputs", stage_outputs)
    model.bodies.clear()
    caplog.set_level(logging.WARNING)
    assert run(project, *backend, *command) == 0
    assert computed == [(stage, ids[1:]) for stage in stages]
    for stage in stages:
        assert (project / stage / f"{ids[0]}.json").stat().st_mtime_ns == untouched
        assert [r for r in caplog.records if f"{stage}/{ids[2]}.json: does not load" in r.getMessage()]
    assert _stage_files(project) == matching
    # on the remote backend, one stage request per distinct episode text of the three stories computed
    extractions = set().union(*map(_named, stories[1:])) if "states" in stages else set()
    summaries = {ep["text"] for story in stories[1:] for ep in story["episodes"]} if "summaries" in stages else set()
    remote = backend == REMOTE
    assert (_sent(model, "You are tracking"), _sent(model, "Summarize")) == (
        (len(extractions), len(summaries)) if remote else (0, 0)
    )


def _files_digest(root, stage: str) -> str:
    """One SHA-256 over the names and bytes of every `stage` file under `root`."""
    h = hashlib.sha256()
    for path in sorted((root / stage).glob("*.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "commands",
    [
        [(("evaluate",), 0)],
        [
            (("index", "--granularity", "chunk"), 0),
            (("track",), 0),
            (("summarize",), 0),
            (("index",), 0),
            (("evaluate",), 0),
        ],
        [
            (("ask", "Where is the sword?"), 2),
            (("compare", "--baseline"), 0),
            (("evaluate", "--ablate", "summary"), 0),
            (("summarize", "--force"), 0),
            (("evaluate",), 0),
        ],
    ],
    ids=["evaluate-alone", "stage-by-stage", "ask-compare-ablate-force"],
)
def test_the_order_of_commands_changes_no_stage_file_or_report(tmp_path, capsys, commands):
    """Each sequence leaves the `states/`, `summaries/` and `evaluate` report
    bytes that `evaluate` alone leaves; `ask` before `index` exits 2."""

    def project_after(root, commands):
        assert run(root, "fuzz", "--seed", "11", "--stories", "6") == 0
        for argv, code in commands:
            assert run(root, *argv) == code, argv
            assert code == 0 or "index not built" in capsys.readouterr().err
        return {stage: _files_digest(root, stage) for stage in ("states", "summaries")}

    alone = project_after(tmp_path / "alone", [(("evaluate",), 0)])
    assert all(len(list((tmp_path / "alone" / stage).glob("*.json"))) == 6 for stage in alone)
    (report,) = (tmp_path / "alone" / "reports").glob("*.json")
    assert project_after(tmp_path / "ordered", commands) == alone
    assert (tmp_path / "ordered" / "reports" / report.name).read_bytes() == report.read_bytes()


# the stories are `fuzz --seed 5 --stories 3`. The states digest was taken from the code
# before an episode that names no key item went without an extraction request, with each
# file re-encoded compact (`canonical_bytes(json.loads(...), indent=None)`), as stage files
# are now written, and its `story_id` and `errors` deleted, as a states file no longer
# holds them. The summaries digest is of the files a remote `summarize` writes. The
# comparison digest is of the compact report: `canonical_bytes(json.loads(...), indent=None)`
# of the indented report the code wrote before reports were compact gives the same bytes.
TRACKED_STATES_SHA256 = "e808fe379e32b6838890496669aff01d0cf1acdff56b9b51eb521d553121e75f"
TRACKED_SUMMARIES_SHA256 = "8aa422d4c417f5e7d62ebd237fb3cb3ba44f28d19243fc334f8d5cb681c56349"
COMPARED_REPORT_SHA256 = "e6de1082916978412e5af58c05faff5c27f2e332807320e515479162bb8b5a59"


def test_a_remote_track_sends_no_extraction_for_an_episode_that_names_no_key_item(project, monkeypatch):
    model = _body_log(monkeypatch)
    assert run(project, "fuzz", "--seed", "5", "--stories", "3") == 0
    assert run(project, *REMOTE, "track") == 0
    stories = _story_files(project)
    named = [_named(story) for story in stories]
    assert all(texts < {ep["text"] for ep in story["episodes"]} for story, texts in zip(stories, named))
    assert _sent(model, "You are tracking") == sum(map(len, named))
    assert _files_digest(project, "states") == TRACKED_STATES_SHA256


def test_a_remote_summarize_writes_the_pinned_summaries_files(project, monkeypatch):
    _body_log(monkeypatch)
    assert run(project, "fuzz", "--seed", "5", "--stories", "3") == 0
    assert run(project, *REMOTE, "summarize") == 0
    assert _files_digest(project, "summaries") == TRACKED_SUMMARIES_SHA256


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


@pytest.mark.parametrize("mode", ["off", "record"])
def test_a_chat_reply_holding_a_lone_surrogate_exits_3_and_the_next_run_recovers(tmp_path, monkeypatch, capsys, mode):
    from test_concurrency import StoryModel

    model = StoryModel(latency_s=0)
    spoiled = []

    def half_an_emoji(url, body, timeout, headers):
        reply = model(url, body, timeout, headers)
        if not spoiled and body.get("messages", [{}])[0]["content"].startswith("Summarize"):
            content = reply["choices"][0]["message"]["content"]
            spoiled.append(body)
            # what a JSON body carrying "\ud83d", the first half of an emoji, decodes to
            reply = {"choices": [{"message": {"content": content.replace('"synopsis": "', '"synopsis": "\ud83d', 1)}}]}
        return reply

    root = tmp_path / "proj"
    assert _recorded_evaluate(root, monkeypatch, half_an_emoji, "--cache-mode", mode) == 3
    err = capsys.readouterr().err
    assert "gateway error: chat reply content holds a lone surrogate at position 14" in err
    assert "Traceback" not in err and len(spoiled) == 1
    assert not list((root / "summaries").glob("*.json")) and not list((root / "reports").glob("*.json"))
    sent = []
    healthy = lambda url, body, timeout, headers: sent.append(body) or model(url, body, timeout, headers)  # noqa: E731
    assert _recorded_evaluate(root, monkeypatch, healthy, "--cache-mode", "record") == 0
    assert spoiled[0] in sent  # nothing was kept of the refused reply
    assert _recorded_evaluate(tmp_path / "clean", monkeypatch, StoryModel(latency_s=0)) == 0
    (report,) = (root / "reports").glob("*.json")
    (clean,) = (tmp_path / "clean" / "reports").glob("*.json")
    assert report.name == clean.name and report.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize("mode", ["off", "record"])
def test_a_structured_reply_escaping_a_lone_surrogate_gets_one_repair_prompt(tmp_path, monkeypatch, capsys, mode):
    from test_concurrency import StoryModel

    model = StoryModel(latency_s=0)
    spoiled, repairs = [], []

    def transport(url, body, timeout, headers):
        # the first summary reply's synopsis starts with the six ASCII characters
        # `\ud83d`, a JSON escape of half an emoji; its repair prompt gets the clean reply
        prompt = body.get("messages", [{}])[0].get("content", "")
        if prompt.startswith("Your previous reply"):
            repairs.append(prompt)
            return model(url, {**body, "messages": [{"role": "user", "content": spoiled[0]}]}, timeout, headers)
        reply = model(url, body, timeout, headers)
        if not spoiled and prompt.startswith("Summarize"):
            spoiled.append(prompt)
            content = reply["choices"][0]["message"]["content"].replace('"synopsis": "', '"synopsis": "\\ud83d', 1)
            reply = {"choices": [{"message": {"content": content}}]}
        return reply

    root = tmp_path / "proj"
    assert _recorded_evaluate(root, monkeypatch, transport, "--cache-mode", mode) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len(spoiled) == len(repairs) == 1
    assert '"synopsis": "\\ud83d' in repairs[0]  # the rejected reply goes back as the ASCII escape it was
    assert _recorded_evaluate(tmp_path / "clean", monkeypatch, StoryModel(latency_s=0)) == 0
    (report,) = (root / "reports").glob("*.json")
    (clean,) = (tmp_path / "clean" / "reports").glob("*.json")
    assert report.name == clean.name and report.read_bytes() == clean.read_bytes()
    if mode == "record":  # the rejected reply and its repair were both kept, and a replay asks for both
        for path in [report, *(root / "summaries").glob("*.json")]:
            path.unlink()
        assert _recorded_evaluate(root, monkeypatch, None, "--cache-mode", "replay") == 0
        assert report.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize("mode", ["replay", "record"])
def test_a_kept_completion_that_is_not_utf8_is_one_unreadable_entry(tmp_path, monkeypatch, capsys, caplog, mode):
    import sqlite3

    from test_concurrency import StoryModel

    root = tmp_path / "proj"
    assert _recorded_evaluate(root, monkeypatch, StoryModel(latency_s=0)) == 0
    (report,) = (root / "reports").glob("*.json")
    recorded = report.read_bytes()
    with contextlib.closing(sqlite3.connect(root / "cache" / "cache.sqlite3")) as db, db:
        (key,) = db.execute(
            "SELECT min(key) FROM entries WHERE instr(request, '\"content\":\"Evaluate') > 0"
        ).fetchone()
        db.execute("UPDATE entries SET response = CAST(x'ff41' AS TEXT) WHERE key = ?", (key,))
    report.unlink()
    capsys.readouterr()
    model = StoryModel(latency_s=0)
    code = _recorded_evaluate(root, monkeypatch, model, "--cache-mode", mode)
    if mode == "replay":
        assert code == 2
        assert f"unreadable cache entry {key} in {root / 'cache' / 'cache.sqlite3'}" in capsys.readouterr().err
        assert model.calls == 0
    else:
        assert code == 0
        assert f"unreadable cache entry {key} in" in caplog.text
        assert model.calls == 1  # only the entry that could not be read is asked again
        assert report.read_bytes() == recorded


def test_a_reply_body_nested_deeper_than_the_decoder_recurses_exits_3(project, monkeypatch, capsys):
    import requests

    body = requests.Response()
    body.status_code, body._content = 200, b"[" * 100_000
    monkeypatch.setattr(requests, "post", lambda url, **kwargs: body)
    assert run(project, "fuzz", "--seed", "5", "--stories", "1") == 0
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["gateway"]["max_retries"] = 0
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    capsys.readouterr()
    assert run(project, *REMOTE, "evaluate") == 3
    err = capsys.readouterr().err
    assert "returned non-JSON body (nested too deeply)" in err and "Traceback" not in err


def test_a_base_url_the_transport_cannot_parse_exits_3(project, monkeypatch, capsys):
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)  # so that the request goes nowhere: the host fails to parse
    assert run(project, "fuzz", "--seed", "5", "--stories", "1") == 0
    config = json.loads((project / "config.json").read_text("utf-8"))
    config["gateway"].update(backend="remote", base_url="http://" + "a" * 70 + ".example/v1", max_retries=0)
    (project / "config.json").write_text(json.dumps(config), "utf-8")
    capsys.readouterr()
    assert run(project, "track") == 3
    err = capsys.readouterr().err
    assert "gateway error: " in err and "label empty or too long" in err and "Traceback" not in err
