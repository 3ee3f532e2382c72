import enum

import pytest

from score.errors import PersistenceError, ValidationError
from score.jsonio import check, load_json


class Color(str, enum.Enum):
    RED = "red"


SHAPE = {"name": str, "count?": int, "ratio": (float, None), "color": Color, "tags": [str], "inner": {"flag": bool}}
GOOD = {"name": "a", "ratio": 1, "color": "red", "tags": ["x"], "inner": {"flag": False}, "extra": [1]}


def test_a_value_of_the_shape_passes():
    check(GOOD, SHAPE)
    check({**GOOD, "count": 3, "ratio": None}, SHAPE)


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
