"""Byte-identity of results across changes that must not alter them.

The hashes were taken from the code before exact search was screened with a
matrix product, the `score index` files from the code before `index` and
`evaluate` shared one retrieval-index stage, and the wire hash (every
distinct request a fixed sequence of commands sends) from the code before
the stage commands and `evaluate` shared one set of stage functions. The
report hash was retaken three times: when the run id stopped covering the
gateway's sending-only fields and the dead `granularity` field, when the
retrieval config lost `candidate_pool` and `sentiment_filter_enabled`, and
when `embed_batch_limit` became a sending-only field. Each time its config
block (and with it the config digests) changed, and nothing else did. The wire
hash was retaken twice: when remote tone requests became `complete` requests
keyed by the chat body they send (the 48 `sentiment` keys of its 262 became
48 `complete` keys, and the other 214 stayed), and when an episode that names
none of its story's key items stopped asking for an extraction (262 keys
became 241, a strict subset: the 21 removed keys are exactly the extraction
requests, of 39, in whose episode text no alias of the story's items
occurs). A change that moves any report byte, search score bit or ranking
fails here; one that means to change results updates the hash and says why.
"""

import hashlib
import json
import sqlite3

from test_concurrency import StoryModel

from score import cli, fuzz, retrieval, summarize
from score.cache import CACHE_FILE
from score.cli import _report_payload
from score.evaluator import PipelineConfig, run_pipeline
from score.gateway import GatewayConfig, LlmGateway
from score.index import build_index
from score.jsonio import canonical_bytes
from score.retrieval import RetrievalConfig

PIPELINE_REPORT_SHA256 = "81e49dcb2691fe24848b847eefb138a5116a5ef46e7369a1c7c8dd31cb74e085"
CORPUS_SEARCH_SHA256 = "91ad6ed0d1a1de0c2c6a2154107dea0cd2d6e76be331f3a577c9bd964c67ad4e"
WIRE_REQUESTS_SHA256 = "e1fa5ddb1fc8b96066a235b5494c7a311a9a9707b4e9b7ca8e7958a99e0c6ff0"
INDEX_FILES_SHA256 = {
    "summary.vec": "2b1a9dd361e4c34bb1824a66920f0a04d28d742b0a54f615d342ee87e4ea888a",
    "summary.meta.json": "7fd73328472592bdc4f903a3b90fbd7f938c1029dd75c80a760b7c17bb7042e4",
    "summary.records.json": "6d9f181aebcc190f4a57e4524f4361c2196b7be51e5e78ed91318d2c4014e405",
    "chunk.vec": "df895701e04a8df5b85c35bab6af0e8916bebeb0c0cfb7846097aa53f22c5c80",
    "chunk.meta.json": "2b5ecb391609a302f3980075f2c6235d77387cc644649c1516cb524dab188d7e",
    "chunk.records.json": "7715b5529801e5794ad14d3d9d9b7e14eeec3d5531bc26ecc46c21867c115a2a",
}


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


def test_index_command_files(tmp_path):
    root = tmp_path / "proj"
    commands = (
        ["fuzz", "--seed", "7", "--stories", "6"],
        ["summarize"],
        ["index", "--granularity", "summary"],
        ["index", "--granularity", "chunk"],
    )
    for argv in commands:
        assert cli.main(["--project", str(root), *argv]) == 0
    written = {name: hashlib.sha256((root / "index" / name).read_bytes()).hexdigest() for name in INDEX_FILES_SHA256}
    assert written == INDEX_FILES_SHA256


def test_wire_requests_of_the_stage_commands_evaluate_and_compare(tmp_path, monkeypatch):
    # record mode keeps one cache row per distinct request, keyed by its digest
    from score import gateway as gateway_module

    monkeypatch.setattr(gateway_module, "default_transport", StoryModel(latency_s=0))
    root = tmp_path / "proj"
    assert cli.main(["--project", str(root), "fuzz", "--seed", "5", "--stories", "4"]) == 0
    config = json.loads((root / "config.json").read_text("utf-8"))
    config["gateway"].update(
        backend="remote", base_url="http://fake.local/v1", model_name="m", cache_mode="record", max_parallel=1
    )
    (root / "config.json").write_text(json.dumps(config), "utf-8")
    for argv in (["track"], ["summarize"], ["index"], ["evaluate"], ["compare", "--baseline"]):
        assert cli.main(["--project", str(root), *argv]) == 0, argv
    with sqlite3.connect(root / "cache" / CACHE_FILE) as db:
        keys = sorted(key for (key,) in db.execute("SELECT key FROM entries"))
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == WIRE_REQUESTS_SHA256
