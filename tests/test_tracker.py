import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from score.errors import ContractError, ValidationError
from score.evaluator import stage_outputs
from score.gateway import GatewayConfig, LlmGateway
from score.story import Episode, ItemState, KeyItem, Story
from score.tracker import (
    ContinuityError,
    ItemObservation,
    ItemTimeline,
    correct_timeline,
    detect_continuity_errors,
    extract_item_statuses,
    record_observation,
    rule_extract,
    states_from_dict,
    states_to_dict,
)

A, L, D = ItemState.ACTIVE, ItemState.LOST, ItemState.DESTROYED


def obs(episode, state, explained=False, item="sword"):
    return ItemObservation(
        item_id=item,
        episode_index=episode,
        state=state,
        explained=explained,
    )


def timeline(*observations, item="sword"):
    tl = ItemTimeline(item_id=item)
    for o in observations:
        tl = record_observation(tl, o)
    return tl


def oracle_errors(sequence):
    """Direct transcription of the reappearance rule.

    sequence: list of (episode, state, explained) with one resolved state
    per episode, in episode order. An error is any position with state
    active and no explanation whose immediately preceding marked state is
    lost or destroyed.
    """
    errors = []
    for k in range(len(sequence)):
        ep_k, st_k, ex_k = sequence[k]
        if st_k is not A or ex_k:
            continue
        if k == 0:
            continue
        ep_j, st_j, _ = sequence[k - 1]
        if st_j in (L, D):
            errors.append((ep_j, st_j, ep_k))
    return errors


# ---------------------------------------------------------------------------
# detection vs the brute-force oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", range(0, 6))
def test_detection_matches_oracle_exhaustively(length):
    for states in itertools.product((A, L, D), repeat=length):
        seq = [(i, s, False) for i, s in enumerate(states)]
        tl = timeline(*(obs(i, s) for i, s, _ in seq))
        got = [(e.prior_episode, e.prior_state, e.reappearance_episode) for e in detect_continuity_errors(tl)]
        assert got == oracle_errors(seq), f"mismatch for {states}"


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.sampled_from([A, L, D]), st.booleans()),
        max_size=8,
    )
)
def test_detection_matches_oracle_with_explanations(entries):
    seq = [(i, s, ex) for i, (s, ex) in enumerate(entries)]
    tl = timeline(*(obs(i, s, explained=ex) for i, s, ex in seq))
    got = [(e.prior_episode, e.prior_state, e.reappearance_episode) for e in detect_continuity_errors(tl)]
    assert got == oracle_errors(seq)


def test_single_reappearance_flagged():
    errors = detect_continuity_errors(timeline(obs(0, A), obs(2, L), obs(5, A)))
    assert len(errors) == 1
    err = errors[0]
    assert (err.prior_episode, err.prior_state, err.reappearance_episode) == (2, L, 5)
    assert err.claimed_state is A and err.explanation_found is False


def test_all_active_is_clean():
    assert detect_continuity_errors(timeline(obs(0, A), obs(1, A), obs(2, A))) == []


def test_detection_keys_on_the_transition_not_every_mention():
    errors = detect_continuity_errors(timeline(obs(1, L), obs(3, A), obs(4, A)))
    assert [(e.prior_episode, e.reappearance_episode) for e in errors] == [(1, 3)]


def test_explained_reappearance_is_legal():
    assert detect_continuity_errors(timeline(obs(1, D), obs(4, A, explained=True))) == []


def test_terminal_to_terminal_transitions_are_legal():
    assert detect_continuity_errors(timeline(obs(0, L), obs(1, D), obs(2, L))) == []


def test_empty_timeline_yields_no_errors():
    assert detect_continuity_errors(ItemTimeline(item_id="sword")) == []


def test_last_observation_in_episode_wins():
    # same episode: a destroyed mention followed by an active one resolves active
    tl = timeline(obs(0, L), obs(2, D), obs(2, A))
    errors = detect_continuity_errors(tl)
    assert [(e.prior_episode, e.reappearance_episode) for e in errors] == [(0, 2)]
    assert errors[0].prior_state is L


# ---------------------------------------------------------------------------
# record_observation
# ---------------------------------------------------------------------------


def test_record_keeps_sorted_order():
    tl = timeline(obs(0, A), obs(5, L))
    tl = record_observation(tl, obs(3, A))
    assert [o.episode_index for o in tl.observations] == [0, 3, 5]


def test_record_is_pure():
    tl = timeline(obs(0, A))
    record_observation(tl, obs(1, L))
    assert len(tl.observations) == 1


def test_record_rejects_item_mismatch():
    with pytest.raises(ContractError):
        record_observation(ItemTimeline(item_id="sword"), obs(0, A, item="amulet"))


def test_thousand_random_insertions_match_sort_oracle():
    rng = random.Random(42)
    inputs = [obs(rng.randint(0, 40), rng.choice([A, L, D])) for _ in range(1000)]
    tl = ItemTimeline(item_id="sword")
    for o in inputs:
        tl = record_observation(tl, o)
    expected = sorted(inputs, key=lambda o: o.episode_index)  # stable
    assert list(tl.observations) == expected


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------


def test_correction_restores_prior_state():
    tl = timeline(obs(2, L), obs(5, A))
    errors = detect_continuity_errors(tl)
    fixed = correct_timeline(tl, errors)
    assert fixed.resolved_state_at(5) is L
    assert fixed.resolved_state_at(2) is L
    # audit trail: the claim is retained, suppressed
    kept = [o for o in fixed.observations if o.episode_index == 5]
    assert len(kept) == 1 and kept[0].suppressed and kept[0].state is A


def test_correction_without_errors_is_identity():
    tl = timeline(obs(0, A), obs(1, L))
    assert correct_timeline(tl, []) == tl


def test_correction_is_idempotent():
    tl = timeline(obs(0, A), obs(2, D), obs(4, A), obs(6, A))
    errors = detect_continuity_errors(tl)
    once = correct_timeline(tl, errors)
    twice = correct_timeline(once, errors)
    assert once == twice


def test_detection_is_a_fixpoint_under_correction():
    # detection reads raw observations, so correcting must not change the error set
    rng = random.Random(7)
    for _ in range(50):
        entries = [(i, rng.choice([A, L, D]), rng.random() < 0.2) for i in range(rng.randint(0, 8))]
        tl = timeline(*(obs(i, s, explained=ex) for i, s, ex in entries))
        errors = detect_continuity_errors(tl)
        assert detect_continuity_errors(correct_timeline(tl, errors)) == errors


def test_correction_rejects_foreign_errors():
    tl = timeline(obs(2, L), obs(5, A))
    err = ContinuityError(
        item_id="amulet", prior_episode=2, prior_state=L,
        reappearance_episode=5, claimed_state=A, explanation_found=False,
    )
    with pytest.raises(ContractError):
        correct_timeline(tl, [err])


# ---------------------------------------------------------------------------
# ContinuityError invariants
# ---------------------------------------------------------------------------


def test_continuity_error_requires_terminal_prior():
    with pytest.raises(ValidationError):
        ContinuityError("x", 0, A, 1, A, False)


def test_continuity_error_requires_active_claim():
    with pytest.raises(ValidationError):
        ContinuityError("x", 0, L, 1, D, False)


def test_continuity_error_requires_ordered_episodes():
    with pytest.raises(ValidationError):
        ContinuityError("x", 3, L, 3, A, False)


# ---------------------------------------------------------------------------
# extraction (rule backend)
# ---------------------------------------------------------------------------


def test_extracts_destroyed_from_verb_lexicon(mock_gateway):
    episode = Episode(index=0, text="The sword shattered on the stone.")
    out = extract_item_statuses(episode, [KeyItem("sword", ("sword",))], mock_gateway)
    assert len(out) == 1
    assert out[0].state is D


def test_no_mention_no_observation(mock_gateway):
    episode = Episode(index=0, text="Nothing relevant happens here.")
    assert extract_item_statuses(episode, [KeyItem("sword", ("sword",))], mock_gateway) == []


def test_alias_match_is_case_folded(mock_gateway):
    episode = Episode(index=0, text="Sword in hand, Mira pressed on.")
    out = extract_item_statuses(episode, [KeyItem("sword", ("sword",))], mock_gateway)
    assert len(out) == 1 and out[0].state is A


def test_alias_requires_word_boundary(mock_gateway):
    episode = Episode(index=0, text="The swordfish leapt from the water.")
    assert extract_item_statuses(episode, [KeyItem("sword", ("sword",))], mock_gateway) == []


def test_evidence_span_lies_within_text_and_covers_alias():
    episode = Episode(index=3, text="The morning was calm. The lantern was lost in the marsh. All slept.")
    out = rule_extract(episode, [KeyItem("lantern", ("lantern",))])
    (observation,) = out
    start, end = observation.evidence
    assert 0 <= start < end <= len(episode.text)
    assert "lantern" in episode.text[start:end]
    assert observation.state is L


def test_last_mention_wins_and_explanation_is_sticky():
    text = "The sword was lost in the marsh. The sword was repaired by the smith. Mira carried the sword once more."
    episode = Episode(index=1, text=text)
    (observation,) = rule_extract(episode, [KeyItem("sword", ("sword",))])
    assert observation.state is A  # last mention is the reintroduction
    assert observation.explained  # any mention carrying an explanation word marks it


def test_multiple_items_extracted_independently(mock_gateway):
    episode = Episode(index=0, text="The sword shattered. The amulet was lost in the river.")
    out = extract_item_statuses(
        episode,
        [KeyItem("sword", ("sword",)), KeyItem("amulet", ("amulet",))],
        mock_gateway,
    )
    states = {o.item_id: o.state for o in out}
    assert states == {"sword": D, "amulet": L}


# letters of both cases, non-ASCII ones among them (U+0130 folds to two
# characters), an apostrophe, a space and the sentence enders
_ALIAS_CHARS = "swordSWORDlanternLANTERNéÉßİıΣσς'"
_TEXT_CHARS = _ALIAS_CHARS + " .!?\n,"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_mention_gate_keeps_every_observation_of_the_rule_extractor(data):
    aliases = data.draw(
        st.lists(
            st.lists(st.text(_ALIAS_CHARS, min_size=1, max_size=7), min_size=1, max_size=3, unique_by=str.casefold),
            min_size=1, max_size=3,
        )
    )
    items = [KeyItem(f"item{k}", tuple(names)) for k, names in enumerate(aliases)]
    # an alias, in any case, or filler text between them
    piece = st.one_of(
        st.sampled_from([name for names in aliases for name in names]).flatmap(
            lambda name: st.sampled_from([name, name.upper(), name.lower(), name.swapcase()])
        ),
        st.text(_TEXT_CHARS, max_size=8),
    )
    text = "".join(data.draw(st.lists(piece, min_size=1, max_size=8)))
    assume(text.strip())  # an episode holds some text
    episode = Episode(index=2, text=text)
    observed = rule_extract(episode, items)
    assert extract_item_statuses(episode, items, LlmGateway(GatewayConfig(backend="mock"))) == observed
    # on the remote backend an alias that occurs as written, even inside a
    # longer word, is sent to the model, as is every episode the rule sees
    gw = _remote(["[]"])
    extract_item_statuses(episode, items, gw)
    if observed or any(name in text for names in aliases for name in names):
        assert gw._transport.calls == 1


# ---------------------------------------------------------------------------
# extraction (remote backend)
# ---------------------------------------------------------------------------


class ScriptedTransport:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def __call__(self, url, body, timeout, headers):
        self.calls += 1
        return {"choices": [{"message": {"content": self.replies.pop(0)}}]}


def _remote(replies):
    from score.gateway import GatewayConfig, LlmGateway

    return LlmGateway(
        GatewayConfig(backend="remote", base_url="http://fake.local", model_name="m"),
        transport=ScriptedTransport(replies),
    )


def test_llm_extraction_parses_valid_reply():
    reply = '[{"item_id": "sword", "state": "destroyed", "explained": false, "evidence": [0, 10]}]'
    gw = _remote([reply])
    episode = Episode(index=1, text="The sword shattered on the stone.")
    (observation,) = extract_item_statuses(episode, [KeyItem("sword", ("sword",))], gw)
    assert observation.state is D
    assert observation.evidence == (0, 10)


def test_llm_extraction_drops_undeclared_items():
    reply = '[{"item_id": "ghost", "state": "active", "explained": false, "evidence": null}]'
    gw = _remote([reply])
    episode = Episode(index=0, text="The sword rests here.")  # names the sword, so the reply is requested
    assert extract_item_statuses(episode, [KeyItem("sword", ("sword",))], gw) == []
    assert gw._transport.calls == 1


@pytest.mark.parametrize(
    "alias, text",
    [
        ("C++", "The C++ manual burned."),
        ("St.", "They sailed past St. Brendan."),
        ("sword", "Two swords hung on the wall."),
    ],
    ids=["ends-in-a-symbol", "ends-in-a-period", "plural"],
)
def test_llm_extraction_is_requested_for_a_mention_the_whole_word_matcher_misses(alias, text):
    reply = '[{"item_id": "x", "state": "lost", "explained": false, "evidence": null}]'
    gw = _remote([reply])
    episode = Episode(index=3, text=text)
    item = KeyItem("x", (alias,))
    assert rule_extract(episode, [item]) == []  # no whole-word match
    (observation,) = extract_item_statuses(episode, [item], gw)
    assert observation.state is L
    assert gw._transport.calls == 1


def test_llm_extraction_sends_no_request_for_an_episode_that_names_no_item():
    gw = _remote([])
    episode = Episode(index=3, text="The wind rose over the empty hills.")
    assert extract_item_statuses(episode, [KeyItem("sword", ("sword", "blade"))], gw) == []
    assert gw._transport.calls == 0


def test_llm_extraction_repairs_once_then_succeeds():
    good = '[{"item_id": "sword", "state": "lost", "explained": false, "evidence": null}]'
    gw = _remote(["not json", good])
    episode = Episode(index=0, text="The sword was lost.")
    (observation,) = extract_item_statuses(episode, [KeyItem("sword", ("sword",))], gw)
    assert observation.state is L
    assert gw._transport.calls == 2


def test_llm_extraction_fails_with_raw_reply_attached():
    from score.errors import GatewayReplyError

    gw = _remote(["junk one", "junk two"])
    episode = Episode(index=0, text="The sword was lost.")
    with pytest.raises(GatewayReplyError) as err:
        extract_item_statuses(episode, [KeyItem("sword", ("sword",))], gw)
    assert err.value.raw_reply == "junk two"


def test_llm_extraction_rejects_out_of_bounds_evidence():
    from score.errors import GatewayReplyError

    bad = '[{"item_id": "sword", "state": "active", "explained": false, "evidence": [0, 9999]}]'
    gw = _remote([bad, bad])
    episode = Episode(index=0, text="A short sword.")  # names the sword, so the reply is requested
    with pytest.raises(GatewayReplyError, match="evidence"):
        extract_item_statuses(episode, [KeyItem("sword", ("sword",))], gw)


def test_llm_extraction_and_repair_use_project_prompt_overrides(tmp_path):
    (tmp_path / "extract_states.txt").write_text("PROJECT EXTRACT $items_json | $episode_text", "utf-8")
    (tmp_path / "repair.txt").write_text("PROJECT REPAIR $raw_reply", "utf-8")
    good = '[{"item_id": "sword", "state": "lost", "explained": false, "evidence": null}]'
    seen = []

    def transport(url, body, timeout, headers):
        seen.append(body["messages"][0]["content"])
        return {"choices": [{"message": {"content": "not json" if len(seen) == 1 else good}}]}

    from score.gateway import GatewayConfig, LlmGateway

    gw = LlmGateway(
        GatewayConfig(backend="remote", base_url="http://fake.local", model_name="m"),
        transport=transport,
        prompts_root=tmp_path,
    )
    story = Story(
        story_id="s", title="t", genre="other",
        key_items=(KeyItem("sword", ("sword",)),),
        episodes=(Episode(index=0, text="The sword was lost."),),
    )
    timelines, _ = stage_outputs([story], gw, "states")["s"]
    assert timelines["sword"].observations[0].state is L
    assert seen[0].startswith("PROJECT EXTRACT [")
    assert seen[0].endswith("| The sword was lost.")
    assert seen[1] == "PROJECT REPAIR not json"


# ---------------------------------------------------------------------------
# states file round trip
# ---------------------------------------------------------------------------


def test_states_file_round_trip():
    tl = timeline(obs(0, A), obs(2, L), obs(5, A))
    errors = detect_continuity_errors(tl)
    timelines, loaded_errors = states_from_dict(states_to_dict(({"sword": tl}, errors)))
    assert [
        (o.episode_index, o.state, o.explained) for o in timelines["sword"].observations
    ] == [(o.episode_index, o.state, o.explained) for o in tl.observations]
    assert loaded_errors == errors


@pytest.mark.parametrize(
    "evidence",
    ["5", "[3]", '"0-10"', '{"start": 0}', "[null, 4]", "[0, 1e400]", '["3", 9, "junk"]', "[2.7, 9.9]", "[0, 4, 9]"],
)
def test_llm_extraction_wrong_shape_evidence_ends_in_extraction_error(evidence):
    # "evidence": 5 used to escape the repair path as a TypeError
    from score.errors import GatewayReplyError

    bad = '[{"item_id": "sword", "state": "lost", "explained": false, "evidence": ' + evidence + "}]"
    gw = _remote([bad, bad])
    episode = Episode(index=0, text="The sword was lost.")
    with pytest.raises(GatewayReplyError, match="evidence"):
        extract_item_statuses(episode, [KeyItem("sword", ("sword",))], gw)
    assert gw._transport.calls == 2  # the repair prompt was sent


@pytest.mark.parametrize("explained", ['"no"', "1", "null"])
def test_llm_extraction_explained_must_be_true_or_false(explained):
    # "explained": "no" used to read as True
    from score.errors import GatewayReplyError

    bad = '[{"item_id": "sword", "state": "lost", "explained": ' + explained + ', "evidence": null}]'
    gw = _remote([bad, bad])
    with pytest.raises(GatewayReplyError, match=r"\$\[0\]\.explained: must be true or false"):
        extract_item_statuses(Episode(index=0, text="The sword was lost."), [KeyItem("sword", ("sword",))], gw)
    assert gw._transport.calls == 2  # the repair prompt was sent


def test_llm_extraction_unhashable_item_id_is_dropped():
    reply = '[{"item_id": ["sword"], "state": "lost", "explained": false, "evidence": null}]'
    gw = _remote([reply])
    episode = Episode(index=0, text="The sword was lost.")
    assert extract_item_statuses(episode, [KeyItem("sword", ("sword",))], gw) == []
