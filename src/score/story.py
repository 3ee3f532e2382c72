"""Story data model and its canonical JSON persistence format.

A story is an ordered list of episodes plus the key items whose states get
tracked across them. Everything here is an immutable value object; the JSON
round trip is lossless and byte-stable. A story file is decoded by
`jsonio.parse_json`, as every JSON input is.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .errors import JsonParseError, StoryParseError, ValidationError
from .jsonio import canonical_bytes, check, parse_json

GENRES = ("science_fiction", "drama", "fantasy", "comedy", "other")


class ItemState(str, enum.Enum):
    """State of a key item at a given episode."""

    ACTIVE = "active"
    LOST = "lost"
    DESTROYED = "destroyed"


TERMINAL_STATES = frozenset({ItemState.LOST, ItemState.DESTROYED})


@dataclass(frozen=True, slots=True)
class Episode:
    """One narrative unit; `index` is the time coordinate of all tracking."""

    index: int
    text: str

    def __post_init__(self):
        if self.index < 0:
            raise ValidationError("index", f"must be >= 0, got {self.index}")
        if not self.text.strip():
            raise ValidationError("text", "must be non-empty after trimming")


@dataclass(frozen=True, slots=True)
class KeyItem:
    """A tracked object; `names` are its surface aliases in the text."""

    item_id: str
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.item_id:
            raise ValidationError("item_id", "must be non-empty")
        if not self.names:
            raise ValidationError("names", "must contain at least one alias")
        for j, name in enumerate(self.names):
            if not name.strip():  # a blank alias would match inside every sentence
                raise ValidationError(f"names[{j}]", f"must not be blank, got {name!r}")
        folded = [n.casefold() for n in self.names]
        if len(set(folded)) != len(folded):
            raise ValidationError("names", "duplicate alias after case-folding")


@dataclass(frozen=True, slots=True)
class CharacterAction:
    """One character action observed in an episode."""

    character: str
    description: str

    def __post_init__(self):
        if not self.description.strip():
            raise ValidationError("description", "must be non-empty")


@dataclass(frozen=True, slots=True)
class ItemInteraction:
    """One interaction with a key item; `implied_state` when the text commits to one."""

    item_id: str
    description: str
    actor: str | None = None
    implied_state: ItemState | None = None

    def __post_init__(self):
        if not self.item_id:
            raise ValidationError("item_id", "must be non-empty")


@dataclass(frozen=True, slots=True)
class Story:
    story_id: str
    title: str
    genre: str
    key_items: tuple[KeyItem, ...] = ()
    episodes: tuple[Episode, ...] = ()

    def __post_init__(self):
        if not self.story_id:
            raise ValidationError("story_id", "must be non-empty")
        if any(c in self.story_id for c in "/\\\0"):  # it names the story's files
            raise ValidationError("story_id", f"must not hold '/', '\\' or NUL, got {self.story_id!r}")
        if self.story_id == "corpus":  # stories/corpus.json is the manifest
            raise ValidationError("story_id", "must not be 'corpus', the name of the manifest stories/corpus.json")
        if self.genre not in GENRES:
            raise ValidationError("genre", f"must be one of {GENRES}, got {self.genre!r}")
        if not self.episodes:
            raise ValidationError("episodes", "must be non-empty")
        for pos, ep in enumerate(self.episodes):
            if ep.index != pos:
                raise ValidationError(
                    f"episodes[{pos}].index",
                    f"non-contiguous episode index (expected {pos}, got {ep.index})",
                )
        ids = [k.item_id for k in self.key_items]
        if len(set(ids)) != len(ids):
            raise ValidationError("key_items", "duplicate item_id")


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------


STORY_SHAPE = {
    "story_id": str,
    "title": str,
    "genre": str,
    "key_items?": [{"item_id": str, "names": [str]}],
    "episodes": [{"index": int, "text": str}],
}


def parse_story(data: bytes) -> Story:
    """Parse and validate a story document.

    Raises StoryParseError (with byte offset) for a document `parse_json`
    refuses and ValidationError (naming the field) for schema violations.
    """
    try:
        raw = parse_json(data)
    except JsonParseError as e:
        raise StoryParseError(e.reason, e.byte_offset) from None
    check(raw, STORY_SHAPE)
    return story_from_dict(raw)


def story_from_dict(raw: dict) -> Story:
    """The story `raw` holds; `raw` must have STORY_SHAPE."""
    key_items = [
        _built(f"$.key_items[{i}]", KeyItem, entry["item_id"], tuple(entry["names"]))
        for i, entry in enumerate(raw.get("key_items", []))
    ]
    episodes = [
        _built(f"$.episodes[{i}]", Episode, entry["index"], entry["text"]) for i, entry in enumerate(raw["episodes"])
    ]
    return _built("$", Story, raw["story_id"], raw["title"], raw["genre"], tuple(key_items), tuple(episodes))


def _built(where: str, cls, *args):
    """`cls(*args)`, its ValidationError re-raised with `where` before the field."""
    try:
        return cls(*args)
    except ValidationError as e:
        raise ValidationError(f"{where}.{e.field}", e.reason) from None


def story_to_dict(story: Story) -> dict:
    return {
        "story_id": story.story_id,
        "title": story.title,
        "genre": story.genre,
        "key_items": [{"item_id": k.item_id, "names": list(k.names)} for k in story.key_items],
        "episodes": [{"index": e.index, "text": e.text} for e in story.episodes],
    }


def key_items_json(items: list[KeyItem]) -> str:
    """The `items_json` of the `extract_states` and `summarize` prompts."""
    return json.dumps([{"item_id": k.item_id, "names": list(k.names)} for k in items], ensure_ascii=False)


def serialize_story(story: Story) -> bytes:
    """Canonical UTF-8 JSON; equal stories always serialize byte-identically."""
    return canonical_bytes(story_to_dict(story))
