import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from score.chunking import Chunk, segment
from score.errors import ContractError
from score.story import Episode


def reassemble(chunks: list[Chunk], overlap_chars: int) -> str:
    """Inverse of `segment` for one episode's chunk list: the oracle of the reconstruction tests."""
    if not chunks:
        return ""
    return chunks[0].text + "".join(chunk.text[overlap_chars:] for chunk in chunks[1:])


text_strategy = st.text(
    alphabet=st.sampled_from(list("abcdefg .!?\n")),
    min_size=1,
    max_size=1000,
).filter(lambda s: s.strip())


def test_short_text_is_a_single_chunk():
    episode = Episode(index=0, text="Short enough.")
    chunks = segment(episode, max_chars=100, overlap_chars=10)
    assert len(chunks) == 1
    assert chunks[0].text == episode.text
    assert chunks[0].char_range == (0, len(episode.text))


def test_overlap_must_be_smaller_than_max():
    episode = Episode(index=0, text="x" * 50)
    with pytest.raises(ContractError):
        segment(episode, max_chars=10, overlap_chars=10)


def test_chunks_slice_the_source_text():
    episode = Episode(index=2, text="word " * 500)
    for chunk in segment(episode, max_chars=120, overlap_chars=30, story_id="s"):
        start, end = chunk.char_range
        assert chunk.text == episode.text[start:end]
        assert chunk.story_id == "s" and chunk.episode_index == 2


def test_consecutive_chunks_overlap_exactly():
    episode = Episode(index=0, text="ab cd ef gh " * 100)
    overlap = 25
    chunks = segment(episode, max_chars=100, overlap_chars=overlap)
    assert len(chunks) > 1
    for prev, nxt in zip(chunks, chunks[1:]):
        assert nxt.char_range[0] == prev.char_range[1] - overlap


def test_coverage_is_complete():
    episode = Episode(index=0, text="coverage test text. " * 80)
    chunks = segment(episode, max_chars=90, overlap_chars=20)
    assert chunks[0].char_range[0] == 0
    assert chunks[-1].char_range[1] == len(episode.text)
    for prev, nxt in zip(chunks, chunks[1:]):
        assert nxt.char_range[0] <= prev.char_range[1]  # no gaps


@settings(max_examples=150)
@given(text=text_strategy, max_chars=st.integers(20, 80), overlap_frac=st.floats(0.0, 0.8))
def test_reconstruction_oracle(text, max_chars, overlap_frac):
    overlap = int(max_chars * overlap_frac)
    episode = Episode(index=0, text=text)
    chunks = segment(episode, max_chars=max_chars, overlap_chars=overlap)
    assert reassemble(chunks, overlap) == text


def test_reconstruction_at_ten_times_max_chars():
    episode = Episode(index=0, text="The quick brown fox. It jumped! Why?\n" * 100)
    max_chars = len(episode.text) // 10
    chunks = segment(episode, max_chars=max_chars, overlap_chars=max_chars // 5)
    assert reassemble(chunks, max_chars // 5) == episode.text


def test_prefers_sentence_boundary_within_lookback():
    # a period sits 10 chars before the hard limit; the split should land after it
    body = "a" * 85 + ". " + "b" * 100
    episode = Episode(index=0, text=body)
    chunks = segment(episode, max_chars=100, overlap_chars=0)
    assert chunks[0].text.endswith(".")
    assert chunks[0].char_range[1] == 86


def test_hard_split_when_no_boundary_in_window():
    episode = Episode(index=0, text="x" * 300)
    chunks = segment(episode, max_chars=100, overlap_chars=0)
    assert [c.char_range for c in chunks] == [(0, 100), (100, 200), (200, 300)]


def test_determinism():
    episode = Episode(index=0, text="deterministic input. " * 60)
    a = segment(episode, max_chars=100, overlap_chars=25)
    b = segment(episode, max_chars=100, overlap_chars=25)
    assert a == b


def test_sequence_numbers_are_contiguous():
    episode = Episode(index=0, text="s " * 400)
    chunks = segment(episode, max_chars=64, overlap_chars=16)
    assert [c.seq for c in chunks] == list(range(len(chunks)))
