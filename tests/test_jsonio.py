import enum
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from score.errors import PersistenceError, ValidationError
from score.jsonio import _CHUNK, check, load_json, write_if_changed


class Color(str, enum.Enum):
    RED = "red"


SHAPE = {
    "name": str,
    "count?": int,
    "ratio": (float, None),
    "color": Color,
    "tags": [str],
    "inner": {"flag": bool},
    "ids?": ([str], None),
    "extent?": ({"lo": int}, str),
}
GOOD = {"name": "a", "ratio": 1, "color": "red", "tags": ["x"], "inner": {"flag": False}, "extra": [1]}


def test_a_value_of_the_shape_passes():
    check(GOOD, SHAPE)
    check({**GOOD, "count": 3, "ratio": None, "ids": None, "extent": {"lo": 0}}, SHAPE)
    check({**GOOD, "ratio": 2**1023}, SHAPE)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"name": 1}, "$.name: must be a string, got 1"),
        ({"count": True}, "$.count: must be an integer, got true"),
        ({"ratio": "1"}, '$.ratio: must be a number or null, got "1"'),
        ({"color": "blue"}, '$.color: must be one of "red", got "blue"'),
        ({"tags": ["x", None]}, "$.tags[1]: must be a string, got null"),
        ({"inner": {}}, "$.inner.flag: missing required field"),
        ({"inner": []}, "$.inner: must be an object, got []"),
        # an integer serves as a number only when a float can hold it
        ({"ratio": 10**400}, "$.ratio: must be a number or null, got 1" + "0" * 39),
        # a list or object that fails every alternative is named under the alternative of its type
        ({"ids": ["a", 5]}, "$.ids[1]: must be a string, got 5"),
        ({"ids": 5}, "$.ids: must be a list or null, got 5"),
        ({"extent": {"lo": "0"}}, '$.extent.lo: must be an integer, got "0"'),
        ({"extent": []}, "$.extent: must be an object or a string, got []"),
    ],
)
def test_the_first_wrong_value_is_named_by_its_json_path(change, message):
    with pytest.raises(ValidationError) as err:
        check({**GOOD, **change}, SHAPE)
    assert str(err.value) == message


def test_a_missing_required_field_is_named():
    with pytest.raises(ValidationError, match=r"^\$\.name: missing required field$"):
        check({k: v for k, v in GOOD.items() if k != "name"}, SHAPE)


def test_load_json_names_the_file_and_the_path(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"name": "a", "ratio": 0.5, "color": "red", "tags": [], "inner": {"flag": 1}}', "utf-8")
    with pytest.raises(PersistenceError) as err:
        load_json(path, SHAPE)
    assert str(err.value) == f"{path}: $.inner.flag: must be true or false, got 1"


def test_load_json_names_the_file_when_the_builder_rejects_a_value(tmp_path):
    path = tmp_path / "f.json"
    path.write_text("{}", "utf-8")

    def build(raw):
        raise ValidationError("value", "must be in [0, 1], got 2")

    with pytest.raises(PersistenceError, match=r"f\.json: value: must be in \[0, 1\], got 2$"):
        load_json(path, {}, build)


# ---------------------------------------------------------------------------
# write_if_changed with parts
# ---------------------------------------------------------------------------

_BOUNDARY = [_CHUNK - 1, _CHUNK, _CHUNK + 1]
_KINDS = ["missing", "equal", "one byte differs", "shorter", "longer"]


def _existing(content: bytes, kind: str, at: int, extra: bytes) -> bytes | None:
    """The file already at the path: `at` picks the changed byte or the shorter length."""
    if kind == "missing":
        return None
    if kind == "shorter" and content:
        return content[: at % len(content)]
    if kind == "longer":
        return content + extra
    if kind == "one byte differs" and content:
        at %= len(content)
        return content[:at] + bytes([content[at] ^ extra[0]]) + content[at + 1 :]
    return content  # "equal", and an empty content has no shorter or changed form


@settings(max_examples=60, deadline=None)
@given(
    size=st.one_of(st.integers(0, 64), st.sampled_from([*_BOUNDARY, 2 * _CHUNK + 1])),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.one_of(st.integers(0, 64), st.sampled_from([0, *_BOUNDARY])), max_size=4),
    kind=st.sampled_from(_KINDS),
    at=st.one_of(st.integers(0, 2 * _CHUNK), st.sampled_from(_BOUNDARY)),
    extra=st.binary(min_size=1, max_size=8).filter(lambda b: b[0]),
)
@example(size=2 * _CHUNK + 1, seed=0, cuts=[24], kind="one byte differs", at=_CHUNK - 1, extra=b"\x01")
@example(size=2 * _CHUNK + 1, seed=0, cuts=[24], kind="one byte differs", at=_CHUNK, extra=b"\x01")
@example(size=2 * _CHUNK + 1, seed=0, cuts=[24], kind="one byte differs", at=_CHUNK + 1, extra=b"\x01")
@example(size=2 * _CHUNK + 1, seed=0, cuts=[24], kind="one byte differs", at=2 * _CHUNK, extra=b"\x01")
def test_write_if_changed_with_parts_writes_exactly_when_the_bytes_differ(size, seed, cuts, kind, at, extra):
    content = random.Random(seed).randbytes(size)
    bounds = [0, *sorted(min(cut, size) for cut in cuts), size]
    parts = [content[a:b] for a, b in zip(bounds, bounds[1:])]
    existing = _existing(content, kind, at, extra)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "sub" / "f.bin"
        if existing is not None:
            path.parent.mkdir()
            path.write_bytes(existing)
            os.utime(path, ns=(1, 1))
        wrote = write_if_changed(path, *(memoryview(part) if i % 2 else part for i, part in enumerate(parts)))
        assert wrote == (existing != content)
        assert path.read_bytes() == content
        if not wrote:
            assert path.stat().st_mtime_ns == 1
        assert os.listdir(path.parent) == ["f.bin"]
        # one bytes argument, as every caller but FlatIndex.save passes
        assert write_if_changed(path, content) is False

