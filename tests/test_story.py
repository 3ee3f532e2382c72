import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from score.errors import StoryParseError, ValidationError
from score.story import (
    Episode,
    KeyItem,
    Story,
    parse_story,
    serialize_story,
)


def doc(episodes=None, key_items=None, **extra):
    payload = {
        "story_id": "s1",
        "title": "Title",
        "genre": "drama",
        "key_items": key_items if key_items is not None else [],
        "episodes": episodes
        if episodes is not None
        else [{"index": i, "text": f"Episode text {i}."} for i in range(3)],
    }
    payload.update(extra)
    return json.dumps(payload).encode("utf-8")


def test_parse_minimal_valid_document():
    story = parse_story(doc())
    assert [e.index for e in story.episodes] == [0, 1, 2]
    assert story.genre == "drama"


def test_non_contiguous_episode_indices_rejected():
    with pytest.raises(ValidationError, match="non-contiguous episode index"):
        parse_story(doc(episodes=[{"index": 0, "text": "a."}, {"index": 2, "text": "b."}]))


def test_duplicate_alias_after_casefold_rejected():
    with pytest.raises(ValidationError, match="duplicate alias"):
        parse_story(doc(key_items=[{"item_id": "sword", "names": ["sword", "Sword"]}]))


def test_malformed_json_reports_byte_offset():
    bad = b'{"story_id": "s1", '
    with pytest.raises(StoryParseError) as err:
        parse_story(bad)
    assert err.value.byte_offset is not None
    assert "byte offset" in str(err.value)


def test_byte_offset_accounts_for_multibyte_prefix():
    # 'é' is two bytes in UTF-8; the reported offset is into the bytes
    bad = '{"story_id": "é", "title":}'.encode("utf-8")
    with pytest.raises(StoryParseError) as err:
        parse_story(bad)
    assert err.value.byte_offset == bad.index(b"}")


def test_schema_violation_names_the_field():
    with pytest.raises(ValidationError) as err:
        parse_story(doc(episodes=[{"index": 0}]))
    assert "episodes[0].text" in str(err.value)


def test_empty_episode_list_rejected():
    with pytest.raises(ValidationError, match="episodes"):
        parse_story(doc(episodes=[]))


def test_whitespace_only_episode_text_rejected():
    with pytest.raises(ValidationError, match="non-empty after trimming"):
        parse_story(doc(episodes=[{"index": 0, "text": "   \n "}]))


def test_unknown_genre_rejected():
    with pytest.raises(ValidationError, match="genre"):
        parse_story(doc(genre="noir"))


def test_bool_is_not_an_index():
    with pytest.raises(ValidationError, match="episodes\\[0\\].index"):
        parse_story(doc(episodes=[{"index": True, "text": "a."}]))


def test_round_trip_identity():
    story = parse_story(doc(key_items=[{"item_id": "sword", "names": ["sword", "blade"]}]))
    assert parse_story(serialize_story(story)) == story


def test_serialization_is_canonical():
    story = parse_story(doc())
    assert serialize_story(story) == serialize_story(story)
    # key order of the input document must not leak into the output
    shuffled = json.dumps(json.loads(doc().decode()), sort_keys=False).encode()
    assert serialize_story(parse_story(shuffled)) == serialize_story(story)


@settings(max_examples=100)
@given(
    texts=st.lists(
        st.text(min_size=1).filter(lambda s: s.strip()),
        min_size=1,
        max_size=4,
    )
)
def test_unicode_round_trip(texts):
    story = Story(
        story_id="u",
        title="Unicode",
        genre="other",
        episodes=tuple(Episode(index=i, text=t) for i, t in enumerate(texts)),
    )
    assert parse_story(serialize_story(story)) == story


def test_duplicate_item_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate item_id"):
        Story(
            story_id="s",
            title="t",
            genre="other",
            key_items=(KeyItem("x", ("a",)), KeyItem("x", ("b",))),
            episodes=(Episode(index=0, text="hello."),),
        )


def test_key_item_requires_alias():
    with pytest.raises(ValidationError, match="names"):
        KeyItem(item_id="x", names=())


@pytest.mark.parametrize("story_id", ["../outside", "/abs", "a\\b", "nul\u0000"])
def test_story_id_that_would_name_a_path_is_rejected(story_id):
    # the story id names the story's files under stories/, states/ and summaries/
    with pytest.raises(ValidationError, match="story_id"):
        parse_story(doc(story_id=story_id))
