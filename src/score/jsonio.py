"""Canonical JSON serialization, atomic file writes and the JSON shape check.

Every artifact this package writes (stories, states, summaries, reports,
cache entries) goes through `canonical_dumps` so that equal values always
produce byte-equal files. That is what makes replay runs comparable with
a plain byte diff.

Every JSON file it reads is checked against a declared shape (`check`)
before any field is used, so a damaged file ends in an error that names
the file and the JSON path of the first wrong value, such as
`$.qa[0].answer` (RFC 9535 notation). Each structured model reply is
checked the same way, against a shape declared beside its parser
(`gateway.extract_json_value`). A shape is one of:

- a JSON type: `str`, `int`, `float` (an integer that a float can hold
  also serves), `bool`, `dict` or `list`;
- an `Enum` subclass, for one of its values;
- `None`, for null;
- a tuple of alternative shapes; a list or object that fails them all is
  named at its first wrong part under the alternative of its type;
- `[item]`, a list whose every element has the shape `item`;
- `{field: shape}`, an object with those fields; a field written
  `"name?"` may be absent, and fields the shape does not name are ignored.
"""

from __future__ import annotations

import contextlib
import enum
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any

from .errors import PersistenceError, ValidationError

JSON_TYPES = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "true or false",
    dict: "an object",
    list: "a list",
    None: "null",
}

_CHUNK = 1 << 20  # bytes of an existing file that `write_if_changed` reads at a time


def canonical_dumps(obj: Any, *, indent: int | None = None) -> str:
    """Serialize with sorted keys and no trailing whitespace."""
    if indent is None:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=indent)


def canonical_bytes(obj: Any, *, indent: int | None = 2) -> bytes:
    """UTF-8 bytes of the canonical form, newline-terminated."""
    return (canonical_dumps(obj, indent=indent) + "\n").encode("utf-8")


def atomic_write(path: Path | str, *parts) -> None:
    """Write the bytes-like `parts`, in turn, to a temp file renamed over
    `path`, so readers never see a partial file. A write the OS refuses
    raises PersistenceError naming `path`, and leaves no temp file."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                for part in parts:
                    fh.write(part)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise PersistenceError(f"{path}: cannot be written ({e})") from None


def has_json_type(value: Any, expected: type) -> bool:
    """Whether JSON gave `value` the `expected` type; an integer a float can
    hold also serves as a number, but true and false serve as nothing but
    themselves."""
    if expected is float and type(value) is int:
        return abs(value) <= sys.float_info.max
    return isinstance(value, expected) and (expected is bool or not isinstance(value, bool))


def load_json_object(path: Path | str) -> dict:
    """The JSON object saved at `path`. A file that cannot be read, does not
    parse or holds another JSON value raises PersistenceError naming it."""
    path = Path(path)
    try:
        data = path.read_bytes()
        raw = json.loads(data)
        if b"\\u" in data:  # an escape can spell a lone surrogate, which no UTF-8 file can hold
            canonical_dumps(raw).encode("utf-8")
    except (OSError, ValueError) as e:  # JSONDecodeError and the Unicode errors are ValueErrors
        raise PersistenceError(f"{path}: does not load ({e})") from None
    if not isinstance(raw, dict):
        raise PersistenceError(f"{path}: must hold a JSON object, got {canonical_dumps(raw):.40}")
    return raw


def load_json(path: Path | str, shape: Any, build=None):
    """The JSON object saved at `path`, checked against `shape` and passed
    through `build` when given. Any failure, a `ValidationError` raised by
    `build` included, raises PersistenceError naming the file."""
    raw = load_json_object(path)
    try:
        check(raw, shape)
        return raw if build is None else build(raw)
    except ValidationError as e:
        raise PersistenceError(f"{path}: {e}") from None


def check(value: Any, shape: Any, where: str = "$") -> None:
    """ValidationError naming the JSON path, below `where`, of the first part
    of `value` that does not have `shape` (see the module docstring)."""
    try:
        _check(value, shape)
    except ValidationError as e:
        raise ValidationError(where + e.field, e.reason) from None


def _check(value: Any, shape: Any) -> None:
    # The ValidationError raised here holds the path below `value`; each
    # `check` of a member or an element prepends its step. One of a plain
    # JSON type matches on `type(item) is sub` without a call, which keeps
    # a large file cheap to check.
    if type(shape) is dict:
        if type(value) is not dict:
            raise _wrong(value, shape)
        for field, sub in shape.items():
            optional = field[-1] == "?"
            name = field[:-1] if optional else field
            if name not in value:
                if optional:
                    continue
                raise ValidationError(f".{name}", "missing required field")
            if type(value[name]) is not sub:
                check(value[name], sub, f".{name}")
    elif type(shape) is list:
        if type(value) is not list:
            raise _wrong(value, shape)
        (sub,) = shape
        for i, item in enumerate(value):
            if type(item) is not sub:
                check(item, sub, f"[{i}]")
    elif type(shape) is tuple:
        # null or a plain JSON type matches without the message of a failed alternative
        if value is None and None in shape or type(value) in shape:
            return
        for alternative in shape:
            with contextlib.suppress(ValidationError):
                return _check(value, alternative)
        # a list or object that an alternative expects is named at its first wrong part
        for alternative in shape:
            if type(alternative) is type(value) and type(value) in (dict, list):
                _check(value, alternative)
        raise _wrong(value, shape)
    elif shape is None:
        if value is not None:
            raise _wrong(value, shape)
    elif issubclass(shape, enum.Enum):
        try:
            shape(value)
        except ValueError:
            raise _wrong(value, shape) from None
    elif not has_json_type(value, shape):
        raise _wrong(value, shape)


def _wrong(value: Any, shape: Any) -> ValidationError:
    try:
        got = canonical_dumps(value)
    except RecursionError:  # nested deeper than the encoder recurses
        got = "a value nested too deeply to show"
    return ValidationError("", f"must be {_describe(shape)}, got {got:.40}")


def _describe(shape: Any) -> str:
    if type(shape) is tuple:
        return " or ".join(map(_describe, shape))
    if type(shape) in (dict, list):
        return JSON_TYPES[type(shape)]
    if shape is not None and issubclass(shape, enum.Enum):
        return "one of " + ", ".join(json.dumps(m.value) for m in shape)
    return JSON_TYPES[shape]


def write_if_changed(path: Path | str, *parts) -> bool:
    """Write the bytes-like `parts` only when the file does not already hold
    them; returns True if a write happened.

    Skipping identical writes keeps mtimes stable, which is what makes
    re-running commands on unchanged inputs a no-op. The check compares
    sizes, then reads the file at most `_CHUNK` bytes at a time against the
    parts, so it holds no copy of the file or of the parts. A file the OS
    refuses to read raises PersistenceError naming it.
    """
    path = Path(path)
    try:
        if _holds(path, [memoryview(part).cast("B") for part in parts]):
            return False
    except OSError as e:
        raise PersistenceError(f"{path}: cannot be read ({e})") from None
    atomic_write(path, *parts)
    return True


def _holds(path: Path, views: list[memoryview]) -> bool:
    """Whether the file at `path` holds exactly the concatenated `views`."""
    try:
        if path.stat().st_size != sum(map(len, views)):
            return False
    except FileNotFoundError:
        return False
    with open(path, "rb") as fh:
        for view in views:
            for start in range(0, len(view), _CHUNK):
                piece = view[start : start + _CHUNK]
                # bytes compare with memcmp; memoryviews compare byte by byte
                if fh.read(len(piece)) != bytes(piece):
                    return False
    return True
