"""Canonical JSON serialization and atomic file writes.

Every artifact this package writes (stories, states, summaries, reports,
cache entries) goes through `canonical_dumps` so that equal values always
produce byte-equal files. That is what makes replay runs comparable with
a plain byte diff.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .errors import PersistenceError

JSON_TYPES = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "true or false",
    dict: "an object",
    list: "a list",
}


def canonical_dumps(obj: Any, *, indent: int | None = None) -> str:
    """Serialize with sorted keys and no trailing whitespace."""
    if indent is None:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=indent)


def canonical_bytes(obj: Any, *, indent: int | None = 2) -> bytes:
    """UTF-8 bytes of the canonical form, newline-terminated."""
    return (canonical_dumps(obj, indent=indent) + "\n").encode("utf-8")


def atomic_write(path: Path | str, data: bytes) -> None:
    """Write via temp-file-then-rename so readers never see partial files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def has_json_type(value: Any, expected: type) -> bool:
    """Whether JSON gave `value` the `expected` type; an integer also serves
    as a number, but true and false serve as nothing but themselves."""
    ok = isinstance(value, expected) or (expected is float and isinstance(value, int))
    return ok and (expected is bool or not isinstance(value, bool))


def load_json_object(path: Path | str) -> dict:
    """The JSON object saved at `path`. A file that cannot be read, does not
    parse or holds another JSON value raises PersistenceError naming it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_bytes())
    except (OSError, ValueError) as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise PersistenceError(f"{path}: does not load ({e})") from None
    if not isinstance(raw, dict):
        raise PersistenceError(f"{path}: must hold a JSON object, got {canonical_dumps(raw):.40}")
    return raw


def require_fields(path: Path | str, where: str, value: Any, fields: dict[str, type]) -> None:
    """PersistenceError naming `path` and `where` unless `value` is an object
    with each of `fields` (name -> type), of that JSON type."""
    if not isinstance(value, dict):
        raise PersistenceError(f"{path}: {where} must be an object, got {canonical_dumps(value):.40}")
    for name, expected in fields.items():
        if name not in value:
            raise PersistenceError(f"{path}: {where} has no field {name!r}")
        if not has_json_type(value[name], expected):
            got = canonical_dumps(value[name])
            raise PersistenceError(f"{path}: {where}.{name} must be {JSON_TYPES[expected]}, got {got:.40}")


def write_if_changed(path: Path | str, data: bytes) -> bool:
    """Write only when content differs; returns True if a write happened.

    Skipping identical writes keeps mtimes stable, which is what makes
    re-running commands on unchanged inputs a no-op.
    """
    path = Path(path)
    if path.exists() and path.read_bytes() == data:
        return False
    atomic_write(path, data)
    return True
