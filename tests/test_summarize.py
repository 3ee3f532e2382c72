import pytest

from score import prompts
from score.errors import GatewayReplyError
from score.gateway import GatewayConfig, LlmGateway
from score.story import CharacterAction, Episode, ItemInteraction, ItemState, KeyItem
from score.summarize import (
    EpisodeSummary,
    build_retrieval_document,
    rule_summarize,
    summaries_from_dict,
    summaries_to_dict,
    summarize_episode,
    summary_from_dict,
    summary_to_dict,
)


def parse_items_section(text: str) -> list[ItemInteraction]:
    """The interactions of a retrieval document's ITEMS: section: the
    inverse of its layout, and the oracle of the round-trip tests."""
    interactions = []
    in_items = False
    for line in text.splitlines():
        if line == "ITEMS:":
            in_items = True
            continue
        if not in_items:
            continue
        if not line.startswith("- "):
            break
        item_id, actor_part, state_part, description = line[2:].split(" | ", 3)
        actor = actor_part.removeprefix("actor=")
        state = state_part.removeprefix("state=")
        interactions.append(
            ItemInteraction(
                item_id=item_id,
                description=description,
                actor=None if actor == "-" else actor,
                implied_state=None if state == "-" else ItemState(state),
            )
        )
    return interactions


GOLDEN_TEXT = (
    "The morning felt bright and hopeful. "
    "Mira carried the lantern through the gate. "
    "The lantern shattered on the stone floor. "
    "Mira trusted Bram on the long road."
)


@pytest.fixture
def golden_summary(mock_gateway):
    episode = Episode(index=2, text=GOLDEN_TEXT)
    return rule_summarize(episode, [KeyItem("lantern", ("lantern",))], mock_gateway, story_id="tale-1")


def test_golden_synopsis_is_first_two_sentences(golden_summary):
    assert golden_summary.synopsis == (
        "The morning felt bright and hopeful. Mira carried the lantern through the gate."
    )


def test_golden_actions_from_name_verb_pattern(golden_summary):
    assert [(a.character, a.description) for a in golden_summary.actions] == [
        ("Mira", "Mira carried the lantern through the gate."),
        ("Mira", "Mira trusted Bram on the long road."),
    ]
    assert golden_summary.episode_index == 2


def test_golden_interactions_with_state_lexicon(golden_summary):
    assert [(i.item_id, i.actor, i.implied_state) for i in golden_summary.interactions] == [
        ("lantern", "Mira", None),
        ("lantern", None, ItemState.DESTROYED),
    ]


def test_golden_plot_points_and_relationships(golden_summary):
    assert golden_summary.plot_points == ("The lantern shattered on the stone floor.",)
    assert golden_summary.relationships == ("Mira trusted Bram on the long road.",)
    assert golden_summary.emotional_changes == ("The morning felt bright and hopeful.",)


def test_golden_sentiment_from_lexicon(golden_summary):
    # two positive hits, zero negative: 0.5 + (2/3)/2
    assert golden_summary.sentiment.value == pytest.approx(0.5 + (2 / 3) / 2)


def test_no_item_mentions_means_no_interactions(mock_gateway):
    episode = Episode(index=0, text="Nothing about items here. Truly nothing.")
    summary = rule_summarize(episode, [KeyItem("sword", ("sword",))], mock_gateway, story_id="s")
    assert summary.interactions == ()


def test_interactions_reference_declared_items_only(mock_gateway, small_story):
    for episode in small_story.episodes:
        summary = summarize_episode(
            episode, list(small_story.key_items), mock_gateway, story_id=small_story.story_id
        )
        declared = {k.item_id for k in small_story.key_items}
        assert all(i.item_id in declared for i in summary.interactions)


def test_alias_matching_in_interactions(mock_gateway):
    episode = Episode(index=0, text="Toren raised the blade high above the crowd.")
    summary = rule_summarize(
        episode, [KeyItem("sword", ("sword", "blade"))], mock_gateway, story_id="s"
    )
    assert [i.item_id for i in summary.interactions] == ["sword"]


# ---------------------------------------------------------------------------
# retrieval documents
# ---------------------------------------------------------------------------


def test_document_layout_golden(golden_summary):
    doc = build_retrieval_document(golden_summary)
    assert doc.doc_id == "tale-1#2"
    assert doc.text == (
        "The morning felt bright and hopeful. Mira carried the lantern through the gate.\n"
        "ACTIONS:\n"
        "- Mira | Mira carried the lantern through the gate.\n"
        "- Mira | Mira trusted Bram on the long road.\n"
        "ITEMS:\n"
        "- lantern | actor=Mira | state=- | Mira carried the lantern through the gate.\n"
        "- lantern | actor=- | state=destroyed | The lantern shattered on the stone floor."
    )


def test_document_with_empty_lists_is_synopsis_plus_headers(mock_gateway):
    summary = EpisodeSummary(
        story_id="s",
        episode_index=0,
        synopsis="Just a synopsis.",
        plot_points=(),
        actions=(),
        interactions=(),
        relationships=(),
        emotional_changes=(),
        sentiment=mock_gateway.score_sentiment("neutral words"),
    )
    assert build_retrieval_document(summary).text == "Just a synopsis.\nACTIONS:\nITEMS:"


def test_action_order_is_preserved_not_sorted(mock_gateway):
    def with_actions(actions):
        return EpisodeSummary(
            story_id="s", episode_index=0, synopsis="Syn.",
            plot_points=(), actions=actions, interactions=(),
            relationships=(), emotional_changes=(),
            sentiment=mock_gateway.score_sentiment("x"),
        )

    first = CharacterAction("Zed", "Zed moved.")
    second = CharacterAction("Amy", "Amy spoke.")
    a = build_retrieval_document(with_actions((first, second)))
    b = build_retrieval_document(with_actions((second, first)))
    assert a.text != b.text


def test_items_section_round_trip(golden_summary):
    doc = build_retrieval_document(golden_summary)
    recovered = parse_items_section(doc.text)
    assert recovered == list(golden_summary.interactions)


def test_items_round_trip_with_pipe_in_description():
    interaction = ItemInteraction(
        item_id="sword", description="odd | text with pipes",
        actor="Mira", implied_state=ItemState.LOST,
    )
    summary = EpisodeSummary(
        story_id="s", episode_index=1, synopsis="Syn.", plot_points=(),
        actions=(), interactions=(interaction,), relationships=(),
        emotional_changes=(), sentiment=LlmGateway(GatewayConfig()).score_sentiment("x"),
    )
    doc = build_retrieval_document(summary)
    assert parse_items_section(doc.text) == [interaction]


# ---------------------------------------------------------------------------
# persistence round trip
# ---------------------------------------------------------------------------


def test_summary_dict_round_trip(golden_summary):
    raw = summary_to_dict(golden_summary)
    assert summary_from_dict(raw, golden_summary.story_id, golden_summary.episode_index) == golden_summary


def test_summaries_file_round_trip(mock_gateway, small_story):
    summaries = [
        summarize_episode(ep, list(small_story.key_items), mock_gateway, story_id=small_story.story_id)
        for ep in small_story.episodes
    ]
    assert summaries_from_dict(summaries_to_dict(summaries), small_story.story_id) == summaries


# ---------------------------------------------------------------------------
# remote backend path
# ---------------------------------------------------------------------------


def _remote(transport):
    return LlmGateway(
        GatewayConfig(backend="remote", base_url="http://fake.local", model_name="m"),
        transport=transport,
    )


class ScriptedTransport:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0
        self.prompts = []

    def __call__(self, url, body, timeout, headers):
        self.calls += 1
        if url.endswith("/chat/completions"):
            self.prompts.append(body["messages"][0]["content"])
            return {"choices": [{"message": {"content": self.replies.pop(0)}}]}
        raise AssertionError(f"unexpected url {url}")


VALID_REPLY = """
{"synopsis": "A fine day.", "plot_points": ["The sword broke."],
 "actions": [{"character": "Mira", "description": "Mira fought."}],
 "interactions": [{"item_id": "sword", "actor": "Mira", "description": "Sword broke.", "implied_state": "destroyed"},
                  {"item_id": "ghost", "actor": null, "description": "Not declared.", "implied_state": null}],
 "relationships": [], "emotional_changes": []}
"""


def test_llm_summarize_parses_and_drops_undeclared_items():
    gw = _remote(ScriptedTransport([VALID_REPLY, "0.5"]))
    episode = Episode(index=0, text="Mira fought. The sword broke.")
    summary = summarize_episode(episode, [KeyItem("sword", ("sword",))], gw, story_id="s")
    assert summary.synopsis == "A fine day."
    assert [i.item_id for i in summary.interactions] == ["sword"]
    assert summary.interactions[0].implied_state is ItemState.DESTROYED


def test_llm_summarize_repairs_once():
    transport = ScriptedTransport(["not json at all", VALID_REPLY, "0.5"])
    gw = _remote(transport)
    episode = Episode(index=0, text="Mira fought.")
    summary = summarize_episode(episode, [KeyItem("sword", ("sword",))], gw, story_id="s")
    assert summary.synopsis == "A fine day."
    assert transport.calls >= 2


def test_llm_summarize_fails_after_repair_with_raw_reply():
    transport = ScriptedTransport(["garbage one", "garbage two"])
    gw = _remote(transport)
    episode = Episode(index=0, text="Mira fought.")
    with pytest.raises(GatewayReplyError) as err:
        summarize_episode(episode, [], gw, story_id="s")
    assert err.value.raw_reply == "garbage two"


@pytest.mark.parametrize(
    "field, value",
    [
        ("interactions", '["a"]'),
        ("interactions", "5"),
        ("actions", '["Mira fought."]'),
        ("plot_points", '"The sword broke."'),
        ("relationships", '{"a": "b"}'),
        ("emotional_changes", "3"),
        # each of these used to be stored as text: a Python repr, "None" or "5"
        ("plot_points", '[{"a": 1}, 3]'),
        ("relationships", "[1]"),
        ("emotional_changes", "[null]"),
        ("actions", '[{"character": 5, "description": "Mira fought."}]'),
        ("actions", '[{"character": "Mira", "description": null}]'),
        ("interactions", '[{"item_id": "sword", "actor": 5, "description": "Sword broke."}]'),
        ("interactions", '[{"item_id": "sword", "description": ["Sword broke."]}]'),
        # an empty implied state used to read as none
        ("interactions", '[{"item_id": "sword", "description": "Sword broke.", "implied_state": ""}]'),
    ],
)
def test_llm_summarize_wrong_shape_ends_in_summary_error(field, value):
    # "interactions": ["a"] used to escape the repair path as an AttributeError
    bad = '{"synopsis": "A fine day.", "' + field + '": ' + value + "}"
    transport = ScriptedTransport([bad, bad])
    gw = _remote(transport)
    episode = Episode(index=0, text="Mira fought.")
    with pytest.raises(GatewayReplyError, match=field):
        summarize_episode(episode, [KeyItem("sword", ("sword",))], gw, story_id="s")
    assert transport.calls == 2  # the repair prompt was sent


def test_llm_summarize_null_lists_read_as_empty():
    reply = '{"synopsis": "A fine day.", "interactions": null, "actions": null, "plot_points": null}'
    gw = _remote(ScriptedTransport([reply, "0.5"]))
    summary = summarize_episode(Episode(index=0, text="Mira fought."), [], gw, story_id="s")
    assert summary.interactions == () and summary.actions == () and summary.plot_points == ()


@pytest.mark.parametrize(
    "replies, sent",
    [([VALID_REPLY, "0.5"], ["Summarize", "Rate"]), (["not json", VALID_REPLY, "0.5"], ["Summarize", "Your", "Rate"])],
    ids=["summary-tone", "summary-repair-tone"],
)
def test_an_episode_asks_for_its_tone_once_its_summary_is_accepted(replies, sent):
    transport = ScriptedTransport(replies)
    summary = summarize_episode(Episode(index=0, text="Mira fought."), [], _remote(transport), story_id="s")
    assert summary.sentiment.value == 0.5
    assert [prompt.split()[0] for prompt in transport.prompts] == sent
    assert transport.prompts[-1] == prompts.render(prompts.load("sentiment"), text="Mira fought.")


def test_an_episode_whose_summary_is_rejected_twice_asks_for_no_tone():
    transport = ScriptedTransport(["not json", "not json either"])
    with pytest.raises(GatewayReplyError):
        summarize_episode(Episode(index=0, text="Mira fought."), [], _remote(transport), story_id="s")
    assert [prompt.split()[0] for prompt in transport.prompts] == ["Summarize", "Your"]
