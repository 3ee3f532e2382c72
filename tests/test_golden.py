"""Byte-identity of results across changes that must not alter them.

The hashes were taken from the code before exact search was screened with a
matrix product. A change that moves any report byte, search score bit or
ranking fails here; one that means to change results updates the hash and
says why.
"""

import hashlib

from score import fuzz, retrieval, summarize
from score.cli import _report_payload
from score.evaluator import PipelineConfig, run_pipeline
from score.gateway import GatewayConfig, LlmGateway
from score.index import build_index
from score.jsonio import canonical_bytes
from score.retrieval import RetrievalConfig

PIPELINE_REPORT_SHA256 = "84676524880cf3a60f777bc15083912dd49e197768ee4e76f9ba962dfe19525d"
CORPUS_SEARCH_SHA256 = "91ad6ed0d1a1de0c2c6a2154107dea0cd2d6e76be331f3a577c9bd964c67ad4e"


def test_run_pipeline_report_bytes():
    stories, truth = fuzz.generate_corpus(fuzz.FuzzSpec(seed=7, n_stories=12))
    gateway = LlmGateway(GatewayConfig(backend="mock"))
    config = PipelineConfig(gateway=gateway.config, retrieval=RetrievalConfig())
    result = run_pipeline(stories, gateway, config, truth.to_gold())
    payload = canonical_bytes(_report_payload(config, result))
    assert hashlib.sha256(payload).hexdigest() == PIPELINE_REPORT_SHA256


def _bundle_bytes(bundle) -> bytes:
    refs = [(e.story_id, e.episode_index, e.score.hex()) for e in bundle.selected]
    return (bundle.digest() + repr(refs)).encode()


def test_corpus_wide_search_and_retrieval_bits():
    # one index over every document of 40 stories (361 entries), so searches
    # screen with the matrix product; per-story pipeline indexes never do
    stories, truth = fuzz.generate_corpus(fuzz.FuzzSpec(seed=7, n_stories=40))
    gateway = LlmGateway(GatewayConfig(backend="mock"))
    records, rows = {}, []
    for story in stories:
        for episode in story.episodes:
            summary = summarize.summarize_episode(episode, list(story.key_items), gateway, story_id=story.story_id)
            doc = summarize.build_retrieval_document(summary)
            records[doc.doc_id] = retrieval.SummaryRecord(
                doc.doc_id, story.story_id, episode.index, summary.sentiment.value, doc.text
            )
            rows.append((doc.doc_id, "summary", story.story_id, episode.index, doc.text))
    vectors = gateway.embed([row[4] for row in rows])
    index = build_index(gateway.config.embed_dim, [(*row[:4], vec) for row, vec in zip(rows, vectors)])
    config = RetrievalConfig()

    h = hashlib.sha256()
    questions = gateway.embed([gq.question for gq in truth.qa])
    for gq, query in zip(truth.qa, questions):
        for n in (1, 5, 20, 60):
            for hit in index.search_top_n(query, n=n):
                h.update(f"{hit.entry_id} {hit.score.hex()}\n".encode())
        for restrict in (None, gq.story_id):
            bundle = retrieval.retrieve_for_query(
                gq.question, index, records, config, gateway, restrict_story=restrict
            )
            h.update(_bundle_bytes(bundle))
    for row, vec in zip(rows[::7], vectors[::7]):
        record = records[row[0]]
        bundle = retrieval.retrieve_related(
            record.text, gateway.score_sentiment(record.text), index, records, config, gateway,
            exclude_ref=(record.story_id, record.episode_index), query_vector=vec,
        )
        h.update(_bundle_bytes(bundle))
    assert len(index) == 361
    assert hashlib.sha256(h.digest()).hexdigest() == CORPUS_SEARCH_SHA256
