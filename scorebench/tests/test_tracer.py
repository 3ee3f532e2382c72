"""Span structure, self time and per-layer counts of the traced run.

Run with `python3 -m pytest scorebench/tests`. No test reads a wall-clock
value: span times come from a counting clock, and only counts are compared
between traced runs.
"""

import itertools

import pytest

from score import evaluator, fuzz, retrieval
from score.gateway import GatewayConfig, LlmGateway
from score.index import FlatIndex

import probes
from fakemodel import FakeModel
from tracer import Tracer, layer_totals, merged, self_times


def ticking_tracer(run_id="run-1"):
    ticks = itertools.count()
    return Tracer(run_id, clock=lambda: float(next(ticks)))


def test_spans_record_parent_run_id_and_nesting():
    tracer = ticking_tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,) = by_name["outer"]
    assert outer.parent is None
    assert [s.parent for s in by_name["inner"]] == [outer.span_id, outer.span_id]
    (leaf,) = by_name["leaf"]
    assert leaf.parent == by_name["inner"][1].span_id
    assert {s.run_id for s in tracer.spans} == {"run-1"}
    for span in tracer.spans:
        parent = next((p for p in tracer.spans if p.span_id == span.parent), None)
        if parent is not None:
            assert parent.start <= span.start and span.end <= parent.end


def test_self_time_subtracts_children():
    tracer = ticking_tracer()
    with tracer.span("outer"):  # start 0
        with tracer.span("a"):  # 1 .. 2
            pass
        with tracer.span("b"):  # 3 .. 6
            with tracer.span("c"):  # 4 .. 5
                pass
    # outer ends at 7
    times = self_times(tracer.spans)
    selfs = {s.name: times[s.span_id] for s in tracer.spans}
    assert selfs == {"a": 1.0, "c": 1.0, "b": 2.0, "outer": 3.0}


def test_same_name_nesting_is_folded_into_the_outer_span():
    tracer = ticking_tracer()
    with tracer.span("embed"):
        with tracer.span("embed"):
            pass
        with tracer.span("embed"):
            pass
    with tracer.span("embed"):
        pass
    seconds, calls = layer_totals(tracer.spans)["embed"]
    assert calls == 2
    assert seconds == 5.0 + 1.0


def test_merged_keeps_parents_within_each_source():
    first, second = ticking_tracer(), ticking_tracer()
    for tracer in (first, second):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.count("things", 2)
    combined = merged("run-2", first, second)
    assert len({s.span_id for s in combined.spans}) == 4
    ids = {s.span_id: s for s in combined.spans}
    for span in combined.spans:
        if span.name == "inner":
            assert ids[span.parent].name == "outer"
    assert combined.counts["things"] == 4
    assert {s.run_id for s in combined.spans} == {"run-2"}


def test_probes_are_removed_after_the_block():
    before = (evaluator.run_pipeline, FlatIndex.search_top_n, vars(FlatIndex)["load"], LlmGateway.embed)
    with probes.installed(ticking_tracer()):
        assert evaluator.run_pipeline is not before[0]
        assert FlatIndex.search_top_n is not before[1]
    assert (evaluator.run_pipeline, FlatIndex.search_top_n, vars(FlatIndex)["load"], LlmGateway.embed) == before


def _traced_pipeline(backend: str) -> tuple[Tracer, dict]:
    stories, truth = fuzz.generate_corpus(fuzz.FuzzSpec(seed=11, n_stories=4))
    if backend == "mock":
        config = GatewayConfig()
        fake = None
    else:
        config = GatewayConfig(backend="remote", base_url="http://127.0.0.1:9/v1")
        fake = FakeModel(latency_s=0.0, embed_dim=config.embed_dim)
    tracer = ticking_tracer()
    gateway = LlmGateway(config, transport=tracer.wrap("gateway.transport", fake) if fake else None)
    pipeline = evaluator.PipelineConfig(gateway=config, retrieval=retrieval.RetrievalConfig())
    with probes.installed(tracer):
        with tracer.span("iteration"):
            evaluator.run_pipeline(stories, gateway, pipeline, truth.to_gold())
    return tracer, probes.layer_metrics(tracer, fake_busy_s=fake.busy_s if fake else 0.0)


@pytest.mark.parametrize("backend", ["mock", "remote"])
def test_per_layer_counts_repeat_exactly(backend):
    (tracer_a, first), (tracer_b, second) = _traced_pipeline(backend), _traced_pipeline(backend)
    counted = [name for name, unit in probes.PER_LAYER.items() if unit == "count"]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert [s.name for s in tracer_a.spans] == [s.name for s in tracer_b.spans]
    assert first["retrieval.retrieve_related.calls"] > 0
    assert set(first) == set(probes.PER_LAYER) - {"trace.overhead"}


def test_pipeline_spans_nest_under_run_pipeline():
    tracer, metrics = _traced_pipeline("remote")
    by_id = {s.span_id: s for s in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    for span in tracer.spans:
        if span.name in ("evaluator.evaluate_episode", "index.search_top_n", "gateway.transport"):
            assert "evaluator.run_pipeline" in ancestors(span)
        if span.name == "index.search_top_n":
            assert "retrieval.retrieve_related" in ancestors(span)
    assert metrics["gateway.max_in_flight"] == 1
    assert metrics["gateway.transport_calls"] == metrics["gateway.complete.calls"] + metrics[
        "gateway.score_sentiment.calls"
    ] + metrics["gateway.embed.calls"]

