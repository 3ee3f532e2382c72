"""Every damaged project file ends in an exit code, never in a traceback.

One mock project is built per module: three fuzz stories with a manifest,
summaries, states, both index granularities, a recorded `evaluate` and a
comparison report. The property mutates one file of one kind, runs each command that
reads that kind through `cli.main`, and puts the project back. The fixed
tests after it pin one case of each kind of damage that used to end in a
traceback, or in a message that did not name the file.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from score.cli import main

QUESTION = "where is the sword?"
REMOTE = ("--backend", "remote", "--base-url", "http://fake.local/v1")
LOCK = b"12345 another-host"
COMPARE = ["compare", "--ablate", "retrieval"]


def run(root: Path, *argv: str) -> tuple[int, str]:
    """Exit code and standard error of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--project", str(root), *argv])
    return code, err.getvalue()


@dataclass(repr=False)  # a failing example's report shows no file bytes
class Built:
    root: Path
    dirs: set[Path]  # every directory of the project as built
    files: dict[Path, bytes]  # and every file
    readers: dict[str, tuple[list[str], list[list[str]]]]  # kind -> (its files, the commands that read them)


def _restore(built: Built) -> None:
    """Put back every file of the built project, and remove every other file and directory."""
    for path in sorted(built.root.rglob("*"), reverse=True):  # children before their directory
        if path.is_dir() and path not in built.dirs:
            shutil.rmtree(path)
        elif path.is_file() and path not in built.files:
            path.unlink()
    for path, data in built.files.items():
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)


def _stories(root: Path) -> list[Path]:
    return sorted(p for p in (root / "stories").glob("*.json") if p.name != "corpus.json")


def _report(root: Path, comparison: bool) -> Path:
    (path,) = (p for p in (root / "reports").glob("*.json") if p.name.endswith(".compare.json") == comparison)
    return path


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> Built:
    root = tmp_path_factory.mktemp("damaged") / "project"
    for argv in (
        ["fuzz", "--seed", "3", "--stories", "3"],
        ["summarize"],
        ["track"],
        ["index", "--granularity", "summary"],
        ["index", "--granularity", "chunk"],
        ["--cache-mode", "record", "evaluate"],
        COMPARE,
    ):
        assert run(root, *argv)[0] == 0, argv
    stories = [p.name for p in _stories(root)]
    (root / "stories" / "corpus.json").write_text(json.dumps({"files": stories}), "utf-8")
    report, compare = _report(root, comparison=False), _report(root, comparison=True)
    report_id, compare_id = report.name.split(".")[0], compare.name.split(".")[0]
    readers = {
        "config": (["config.json"], [["track"], ["ask", QUESTION]]),
        "story": ([f"stories/{stories[0]}"], [["track"], ["evaluate"]]),
        "manifest": (["stories/corpus.json"], [["track"], ["evaluate"]]),
        "ground truth": (["ground_truth.json"], [["track"], ["evaluate"]]),
        "states": ([f"states/{stories[0]}"], [["track"], ["evaluate"], COMPARE]),
        "summaries": ([f"summaries/{stories[0]}"], [["index"], ["summarize"], ["evaluate"], COMPARE]),
        "index": (["index/summary.meta.json", "index/summary.records.json", "index/summary.vec"], [["ask", QUESTION]]),
        "report": ([f"reports/{report.name}"], [["report", report_id], ["report", report_id, "--markdown"]]),
        "compare report": ([f"reports/{compare.name}"], [["report", compare_id], ["report", compare_id, "--markdown"]]),
        "lock": ([".score.lock"], [["track"]]),
        "cache": (["cache/cache.sqlite3"], [["--cache-mode", "replay", "evaluate"]]),
    }
    everything = list(root.rglob("*"))
    dirs = {p for p in everything if p.is_dir()}
    return Built(root, dirs, {p: p.read_bytes() for p in everything if p.is_file()}, readers)


@pytest.fixture
def project(built):
    yield built.root
    _restore(built)


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

# bytes no UTF-8 text holds there; the last is the UTF-8 form of the lone surrogate U+D800
_UNDECODABLE = [b"\x80", b"\xc3", b"\xfe", b"\xff", b"\xed\xa0\x80"]
_DEEP = 100_000  # list levels, far more than the JSON decoder recurses
_RETYPED = [None, True, 0, 1.5, "x", [], {}]


def _paths(value, path=()):
    """The path of every value inside `value`, its own included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, (*path, key))


def _at(value, path: tuple):
    return functools.reduce(lambda inner, key: inner[key], path, value)


def _edited(raw: bytes, path: tuple, change) -> bytes:
    """`raw` with `change(parent, key)` applied where `path` leads."""
    value = json.loads(raw)
    change(_at(value, path[:-1]), path[-1])
    return json.dumps(value).encode()


@functools.lru_cache(maxsize=None)
def _mutations(raw: bytes) -> st.SearchStrategy[bytes]:
    """Every damage the property applies to a file that holds `raw`."""
    size = len(raw)
    found = [
        st.integers(0, size - 1).map(lambda n: raw[:n]),
        st.sampled_from([b"[]", b"{}", b"null"]),
        st.tuples(st.integers(0, size - 1), st.integers(1, 255)).map(
            lambda t: raw[: t[0]] + bytes([raw[t[0]] ^ t[1]]) + raw[t[0] + 1 :]
        ),
        st.tuples(st.integers(0, size), st.sampled_from(_UNDECODABLE)).map(lambda t: raw[: t[0]] + t[1] + raw[t[0] :]),
        st.just(b"[" * _DEEP + raw + b"]" * _DEEP),
    ]
    try:
        value = json.loads(raw)
    except ValueError:  # the index vectors, the cache and the lock
        return st.one_of(found)
    paths = list(_paths(value))[1:]
    keys = [p for p in paths if isinstance(p[-1], str)]
    lists = [p for p in paths if isinstance(_at(value, p), list) and _at(value, p)]
    found.append(st.sampled_from(keys).map(lambda p: _edited(raw, p, lambda parent, key: parent.pop(key))))
    found.append(
        st.tuples(st.sampled_from(paths), st.sampled_from(_RETYPED)).map(
            lambda t: _edited(raw, t[0], lambda parent, key: parent.__setitem__(key, t[1]))
        )
    )
    if lists:
        found.append(
            st.sampled_from(lists).map(lambda p: _edited(raw, p, lambda parent, key: parent[key].pop()))
        )
    return st.one_of(found)


# every kind `built.readers` names
KINDS = [
    "config", "story", "manifest", "ground truth", "states", "summaries", "index", "report", "compare report", "lock",
    "cache",
]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_damaged_file_ends_in_an_exit_code_without_a_traceback(built, kind, data):
    names, commands = built.readers[kind]
    path = built.root / data.draw(st.sampled_from(names))
    damaged = data.draw(_mutations(LOCK if kind == "lock" else built.files[path]))
    try:
        path.write_bytes(damaged)
        for argv in commands:
            code, err = run(built.root, *argv)
            assert code in {0, 1, 2, 3, 4}, (argv, code, err)
            assert "Traceback" not in err, err
    finally:
        _restore(built)


# ---------------------------------------------------------------------------
# one fixed case of each kind of damage that ended in a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", [["track"], ["ask", QUESTION]])
def test_config_that_is_not_utf8_exits_2_naming_it(project, command):
    path = project / "config.json"
    path.write_bytes(b'{"granularity": "summ\xffary"}')
    code, err = run(project, *command)
    assert code == 2
    assert f"{path}: does not load" in err


@pytest.mark.parametrize("command", [["track"], ["ask", QUESTION]])
def test_config_nested_too_deeply_exits_2_naming_it(project, command):
    path = project / "config.json"
    path.write_bytes(b"[" * _DEEP + b"]" * _DEEP)
    code, err = run(project, *command)
    assert code == 2
    assert f"{path}: does not load (nested too deeply)" in err


def test_config_nested_about_as_deep_as_the_decoder_recurses_exits_2_naming_it(project):
    # near the recursion limit the decoder may succeed where the encoder that
    # shows the wrong value in the error message does not
    path = project / "config.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 150, limit + 10):
        path.write_bytes(b"[" * depth + b"]" * depth)
        code, err = run(project, "track")
        assert code == 2, depth
        assert f"{path}: " in err and "Traceback" not in err


def _edit_json(path: Path, change) -> None:
    value = json.loads(path.read_bytes())
    change(value)
    path.write_text(json.dumps(value), "utf-8")


@pytest.mark.parametrize(
    "command, change, where",
    [
        (["evaluate"], lambda gt: gt["qa"][0].update(answer=None), "$.qa[0].answer: must be a string, got null"),
        (
            ["track"],
            lambda gt: gt["stories"][0]["items"][0].update(item_id=None),
            "$.stories[0].items[0].item_id: must be a string, got null",
        ),
    ],
    ids=["answer-null", "item-id-null"],
)
def test_ground_truth_field_of_the_wrong_type_exits_2_naming_its_path(project, command, change, where):
    path = project / "ground_truth.json"
    _edit_json(path, change)
    code, err = run(project, *command)
    assert code == 2
    assert f"{path}: {where}" in err


@pytest.mark.parametrize("command", [["track"], ["evaluate"]])
def test_story_with_null_key_items_exits_2_naming_it(project, command):
    path = _stories(project)[0]
    _edit_json(path, lambda story: story.update(key_items=None))
    code, err = run(project, *command)
    assert code == 2
    assert f"{path}: $.key_items: must be a list, got null" in err


@pytest.mark.parametrize("alias", ["", " \t"], ids=["empty", "blank"])
@pytest.mark.parametrize("command", [["track"], ["evaluate"]])
def test_story_with_a_blank_alias_exits_2_naming_it(project, command, alias):
    path = _stories(project)[0]
    names = json.loads(path.read_bytes())["key_items"][0]["names"]
    _edit_json(path, lambda story: story["key_items"][0]["names"].append(alias))
    code, err = run(project, *command)
    assert code == 2
    assert f"{path}: $.key_items[0].names[{len(names)}]: must not be blank" in err


@pytest.mark.parametrize("markdown", [[], ["--markdown"]], ids=["json", "markdown"])
@pytest.mark.parametrize(
    "damage", [lambda raw: raw[: len(raw) // 2], lambda raw: b"\xff" + raw], ids=["truncated", "not-utf8"]
)
def test_stored_report_that_does_not_load_exits_2_naming_it(project, markdown, damage):
    path = _report(project, comparison=False)
    path.write_bytes(damage(path.read_bytes()))
    code, err = run(project, "report", path.name.split(".")[0], *markdown)
    assert code == 2
    assert f"{path}: does not load" in err


@pytest.mark.parametrize(
    "comparison, change, where",
    [
        (False, lambda report: report.pop("metrics"), "$.metrics: missing required field"),
        (
            False,
            lambda report: report["metrics"].update(consistency="high"),
            '$.metrics.consistency: must be a number or null, got "high"',
        ),
        (False, lambda report: report.update(disabled_modules=None), "$.disabled_modules: must be a list, got null"),
        (True, lambda report: report.update(deltas=None), "$.deltas: must be an object, got null"),
        (True, lambda report: report.pop("metrics_b"), "$.metrics_b: missing required field"),
    ],
    ids=["without-metrics", "metric-string", "disabled-null", "deltas-null", "compare-without-metrics_b"],
)
def test_stored_report_of_the_wrong_shape_exits_2_naming_its_path(project, comparison, change, where):
    path = _report(project, comparison)
    _edit_json(path, change)
    code, err = run(project, "report", path.name.split(".")[0], "--markdown")
    assert code == 2
    assert f"{path}: {where}" in err


# ---------------------------------------------------------------------------
# story and prompt files that are named in their errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda raw: raw[:48], "malformed JSON: "),
        (lambda raw: b"{}", "$.story_id: missing required field"),
    ],
    ids=["truncated", "empty-object"],
)
def test_story_error_names_the_file(project, damage, reason):
    path = _stories(project)[0]
    path.write_bytes(damage(path.read_bytes()))
    code, err = run(project, "track")
    assert code == 2
    assert f"{path}: {reason}" in err


@pytest.mark.parametrize(
    "name, command, change",
    [
        ("story", ["track"], lambda story: story.update(title="\ud800")),
        ("ground_truth.json", ["evaluate"], lambda gt: gt["qa"][0].update(question="\udc80")),
    ],
    ids=["story", "ground-truth"],
)
def test_lone_surrogate_escape_exits_2_naming_the_file(project, name, command, change):
    path = _stories(project)[0] if name == "story" else project / name
    _edit_json(path, change)  # json.dumps writes the lone surrogate as a \u escape
    code, err = run(project, *command)
    assert code == 2
    assert f"{path}: " in err and "surrogates not allowed" in err


@pytest.mark.parametrize("command", [["track"], ["evaluate"]])
def test_story_nested_too_deeply_exits_2_naming_it(project, command):
    path = _stories(project)[0]
    path.write_bytes(b"[" * _DEEP)
    code, err = run(project, *command)
    assert code == 2
    assert f"{path}: nested too deeply" in err


def test_story_holding_an_integer_longer_than_int_converts_exits_2_naming_it(project):
    path = _stories(project)[0]
    path.write_bytes(path.read_bytes().replace(b'"index": 0', b'"index": ' + b"1" * 5000, 1))
    code, err = run(project, "track")
    assert code == 2
    assert f"{path}: Exceeds the limit" in err


def test_states_file_nested_too_deeply_is_warned_about_and_made_again(project, caplog):
    path = project / "states" / _stories(project)[0].name
    made = path.read_bytes()
    path.write_bytes(b"[" * _DEEP + made + b"]" * _DEEP)
    assert run(project, "track")[0] == 0
    assert f"{path}: does not load (nested too deeply); computing it again" in caplog.text
    assert path.read_bytes() == made


def test_ground_truth_holding_an_encoded_surrogate_exits_2_naming_it(project):
    path = project / "ground_truth.json"
    raw = path.read_bytes()
    question = json.loads(raw)["qa"][0]["question"]
    path.write_bytes(raw.replace(question.encode(), question.encode() + b"\xed\xa0\xbd", 1))
    code, err = run(project, "evaluate")
    assert code == 2
    assert f"{path}: does not load (not valid UTF-8: invalid continuation byte" in err


@pytest.mark.parametrize("name", ["missing.json", "a-directory"])
def test_ingest_of_a_missing_path_or_a_directory_exits_2_naming_it(project, tmp_path, name):
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / name
    code, err = run(project, "ingest", str(path))
    assert code == 2
    assert f"{path}: does not load" in err


def _fake_transport(monkeypatch) -> list:
    from score import gateway as gateway_module

    sent = []

    def transport(url, body, timeout, headers):
        sent.append(body)
        return {"choices": [{"message": {"content": "[]"}}]}

    monkeypatch.setattr(gateway_module, "default_transport", transport)
    return sent


def test_prompt_override_that_is_not_utf8_exits_2_naming_it(project, monkeypatch):
    sent = _fake_transport(monkeypatch)
    path = project / "prompts" / "extract_states.txt"
    path.write_bytes(b"PROJECT EXTRACT \xff $items_json $episode_text")
    code, err = run(project, *REMOTE, "track")
    assert code == 2
    assert f"{path}: does not load" in err
    assert sent == []


def test_prompt_placeholder_error_names_the_template_file(project, monkeypatch):
    sent = _fake_transport(monkeypatch)
    path = project / "prompts" / "extract_states.txt"
    path.write_text("PROJECT EXTRACT $ $items_json $episode_text", "utf-8")
    code, err = run(project, *REMOTE, "track")
    assert code == 2
    assert f"{path}: does not load (prompt template placeholder error: Invalid placeholder" in err
    assert sent == []
