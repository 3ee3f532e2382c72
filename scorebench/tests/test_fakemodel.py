"""The fake model answers every prompt the remote pipeline sends, parseably."""

import numpy as np

from score import evaluator, fuzz, prompts, retrieval
from score.gateway import GatewayConfig, LlmGateway, hashed_embedding

from fakemodel import FakeModel

CONFIG = GatewayConfig(backend="remote", base_url="http://127.0.0.1:9/v1", embed_dim=64)


def test_remote_pipeline_tracks_exactly_without_reprompts():
    stories, truth = fuzz.generate_corpus(fuzz.FuzzSpec(seed=5, n_stories=6, violation_rate=0.6))
    fake = FakeModel(latency_s=0.0, embed_dim=CONFIG.embed_dim)
    gateway = LlmGateway(CONFIG, transport=fake)
    pipeline = evaluator.PipelineConfig(gateway=CONFIG, retrieval=retrieval.RetrievalConfig())
    result = evaluator.run_pipeline(stories, gateway, pipeline, truth.to_gold())

    detection = fuzz.score_detection({sid: errors for sid, (_, errors) in result.states.items()}, truth)
    assert truth.total_planted() > 0
    assert (detection.precision, detection.recall) == (1.0, 1.0)
    assert fake.reprompts == 0
    assert fake.calls == gateway.stats.transport_calls > 0
    assert fake.prompt_chars > 0
    assert all(q.correct is not None for q in result.qa_results)


def test_embeddings_are_the_hashed_embedding():
    fake = FakeModel(latency_s=0.0, embed_dim=32)
    reply = fake("http://x/v1/embeddings", {"model": "m", "input": ["the sword", "a lantern"]}, 1.0, {})
    for row, text in zip(reply["data"], ["the sword", "a lantern"]):
        assert np.array_equal(np.asarray(row["embedding"]), hashed_embedding(text, 32))
    assert fake.prompt_chars == len("the sword") + len("a lantern")


def test_unknown_and_repair_prompts_are_counted_as_reprompts():
    fake = FakeModel(latency_s=0.0, embed_dim=8)
    repair = prompts.render(prompts.load("repair"), raw_reply="x", original_prompt="y")
    for prompt in ("hello", repair):
        fake("http://x/v1/chat/completions", {"messages": [{"role": "user", "content": prompt}]}, 1.0, {})
    sentiment = prompts.render(prompts.load("sentiment"), text="A bright and hopeful day.")
    reply = fake("http://x/v1/chat/completions", {"messages": [{"role": "user", "content": sentiment}]}, 1.0, {})
    assert 0.5 < float(reply["choices"][0]["message"]["content"]) <= 1.0
    assert fake.reprompts == 2
    assert fake.calls == 3
