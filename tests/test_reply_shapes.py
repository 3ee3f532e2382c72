"""Any JSON a model sends back parses or raises the error that starts the repair path.

The five reply parsers (extraction, summary, evaluation, answer and tone)
must turn every wrong shape into ValueError or ValidationError; anything
else would escape the repair and the CLI's exit-code mapping as a traceback.
A structured reply they accept holds no lone surrogate.
"""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from score.errors import ValidationError
from score.evaluator import FACETS, _parse_answer_reply, _parse_evaluation_reply
from score.gateway import parse_tone
from score.retrieval import ContextBundle, ContextEntry
from score.story import Episode, KeyItem
from score.summarize import _parse_summary_reply
from score.tracker import _parse_extraction_reply

# any code point, a lone surrogate included, which `json.dumps` writes as a \u escape; the halves
# of one emoji are drawn often, alone and as a pair
texts = st.text(st.characters(exclude_categories=()) | st.sampled_from("\ud83d\ude00"), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)

EPISODE = Episode(index=0, text="Mira carried the sword. The sword was lost.")
ITEMS = [KeyItem("sword", ("sword",))]
BUNDLE = ContextBundle(focus="query:where", selected=(ContextEntry("s", 0, 0.9, 0.5, "The sword was lost."),))


def _parses_or_asks_for_repair(parse, reply):
    text = json.dumps(reply)
    try:
        parse(text)
    except (ValueError, ValidationError):
        return
    # a reply that parses holds no lone surrogate, which no UTF-8 file or request body can hold
    json.dumps(json.loads(text), ensure_ascii=False).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["item_id", "state", "explained", "evidence"]), value=json_values)
def test_extraction_reply_of_any_shape(field, value):
    entry = {"item_id": "sword", "state": "lost", "explained": False, "evidence": [0, 4]}
    entry[field] = value
    _parses_or_asks_for_repair(lambda r: _parse_extraction_reply(r, EPISODE, ITEMS), [entry])


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(
        ["synopsis", "plot_points", "actions", "interactions", "relationships", "emotional_changes",
         "interactions.item_id", "interactions.actor", "interactions.description",
         "interactions.implied_state", "actions.character", "actions.description"]
    ),
    value=json_values,
)
def test_summary_reply_of_any_shape(field, value):
    reply = {
        "synopsis": "A fine day.",
        "plot_points": ["The sword was lost."],
        "actions": [{"character": "Mira", "description": "Mira searched."}],
        "interactions": [{"item_id": "sword", "actor": "Mira", "description": "Lost.", "implied_state": "lost"}],
        "relationships": [],
        "emotional_changes": [],
    }
    outer, _, inner = field.partition(".")
    if inner:
        reply[outer][0][inner] = value
    else:
        reply[outer] = value
    _parses_or_asks_for_repair(lambda r: _parse_summary_reply(r, ITEMS), reply)


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(["facet_scores", *FACETS, "rationale", "cited_error_indexes", "item_states"]),
    value=json_values,
)
def test_evaluation_reply_of_any_shape(field, value):
    reply = {
        "facet_scores": {name: 4 for name in FACETS},
        "rationale": "solid",
        "cited_error_indexes": [],
        "item_states": {"sword": "lost"},
    }
    if field in FACETS:
        reply["facet_scores"][field] = value
    else:
        reply[field] = value
    _parses_or_asks_for_repair(lambda r: _parse_evaluation_reply(r, []), reply)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["answer", "supporting_episode_ids", "supporting_episode_ids.0"]), value=json_values)
def test_answer_reply_of_any_shape(field, value):
    reply = {"answer": "lost", "supporting_episode_ids": ["s#0", "s#7"]}
    outer, _, inner = field.partition(".")
    if inner:
        reply[outer][int(inner)] = value
    else:
        reply[outer] = value
    _parses_or_asks_for_repair(lambda r: _parse_answer_reply(r, BUNDLE), reply)


@settings(max_examples=300, deadline=None)
@given(reply=json_values.map(json.dumps) | st.text())  # a tone reply is plain text, a JSON value's or any
def test_tone_reply_of_any_shape(reply):
    try:
        parse_tone(reply)
    except ValueError:
        pass


def _parsers():
    return [
        lambda r: _parse_extraction_reply(r, EPISODE, ITEMS),
        lambda r: _parse_summary_reply(r, ITEMS),
        lambda r: _parse_evaluation_reply(r, []),
        lambda r: _parse_answer_reply(r, BUNDLE),
        parse_tone,
    ]


@pytest.mark.parametrize("reply", [[], {}, None, 5, "text"])
def test_top_level_wrong_shapes_ask_for_repair(reply):
    for parse in _parsers():
        _parses_or_asks_for_repair(parse, reply)


@pytest.mark.parametrize("bracket", ["[", '{"answer": '])
def test_a_reply_nested_deeper_than_the_decoder_recurses_asks_for_repair(bracket):
    reply = bracket * 100_000
    for parse in _parsers():
        with pytest.raises((ValueError, ValidationError)):
            parse(reply)


def test_a_reply_nested_about_as_deep_as_the_decoder_recurses_asks_for_repair():
    # near the recursion limit the decoder may succeed where the encoder that
    # shows the wrong value in the error message does not
    limit = sys.getrecursionlimit()
    for depth in range(limit - 150, limit + 10):
        nested = "[" * depth + "]" * depth
        for reply in (nested, '{"answer": "a", "supporting_episode_ids": ' + nested + "}"):
            for parse in _parsers():
                with pytest.raises((ValueError, ValidationError)):
                    parse(reply)
