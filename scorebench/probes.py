"""Spans around the package's public entry points, and the per-layer metrics.

Inside `with installed(tracer):` each probed function or method is replaced
by a traced wrapper, in its defining module and in every `score.*` module
that imported it by name; the originals are put back when the block ends. Nothing in
the package changes; spans are recorded only from outside, around the calls
the pipeline makes into each layer.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

from tracer import Tracer, layer_totals, self_times

# span name -> (defining module, attribute); module-level functions
FUNCTIONS = {
    "fuzz.generate_corpus": ("score.fuzz", "generate_corpus"),
    "tracker.story_timelines": ("score.tracker", "story_timelines"),
    "tracker.detect_story_errors": ("score.tracker", "detect_story_errors"),
    "tracker.correct_story_timelines": ("score.tracker", "correct_story_timelines"),
    "summarize.summarize_episode": ("score.summarize", "summarize_episode"),
    "summarize.build_retrieval_document": ("score.summarize", "build_retrieval_document"),
    "gateway.hashed_embedding": ("score.gateway", "hashed_embedding"),
    "index.build_index": ("score.index", "build_index"),
    "retrieval.retrieve_related": ("score.retrieval", "retrieve_related"),
    "retrieval.retrieve_for_query": ("score.retrieval", "retrieve_for_query"),
    "evaluator.evaluate_episode": ("score.evaluator", "evaluate_episode"),
    "evaluator.answer_query": ("score.evaluator", "answer_query"),
    "evaluator.grade_answer": ("score.evaluator", "grade_answer"),
    "evaluator.compute_metrics": ("score.evaluator", "compute_metrics"),
    "evaluator.run_pipeline": ("score.evaluator", "run_pipeline"),
    "jsonio.atomic_write": ("score.jsonio", "atomic_write"),
    "prompts.load": ("score.prompts", "load"),
}

# span name -> (module, class, method)
METHODS = {
    "index.search_top_n": ("score.index", "FlatIndex", "search_top_n"),
    "index.save": ("score.index", "FlatIndex", "save"),
    "index.load": ("score.index", "FlatIndex", "load"),
    "gateway.embed": ("score.gateway", "LlmGateway", "embed"),
    "gateway.complete": ("score.gateway", "LlmGateway", "complete"),
    "gateway.score_sentiment": ("score.gateway", "LlmGateway", "score_sentiment"),
    "cli.load_stories": ("score.cli", "Project", "load_stories"),
}

# per-layer metric name -> unit, as BENCHMARK.json lists them; the traced run reports every one
PER_LAYER = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text("utf-8"))["per_layer"]
}


# per-layer metrics that are plain counters kept by the hooks below
COUNTERS = (
    "gateway.embed.texts",
    "index.search_top_n.entries_scanned",
    "retrieval.filter_bypassed",
    "retrieval.truncated",
    "retrieval.empty_bundles",
)


def _seen_gateway(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observed[id(args[0])] = args[0]


def _after_embed(tracer: Tracer, args, kwargs, result) -> None:
    _seen_gateway(tracer, args, kwargs, result)
    # LlmGateway.embed splits large batches by calling itself; count texts once
    if tracer.open_names().count("gateway.embed") == 1:
        tracer.count("gateway.embed.texts", len(args[1]))


def _after_search(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("index.search_top_n.entries_scanned", len(args[0]))


def _after_build_index(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("index.entries_built", len(result))


def _after_retrieve(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("retrieval.filter_bypassed", int(result.sentiment_filter_bypassed))
    tracer.count("retrieval.truncated", int(result.truncated))
    tracer.count("retrieval.empty_bundles", int(not result.selected))


_AFTER = {
    "gateway.embed": _after_embed,
    "gateway.complete": _seen_gateway,
    "gateway.score_sentiment": _seen_gateway,
    "index.search_top_n": _after_search,
    "index.build_index": _after_build_index,
    "retrieval.retrieve_related": _after_retrieve,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Every probe records into `tracer` inside the block; the originals are back after it."""
    patched = []  # (owner, attribute, original value)
    for module_name, *_ in (*FUNCTIONS.values(), *METHODS.values()):
        importlib.import_module(module_name)
    modules = [m for name, m in list(sys.modules.items()) if name == "score" or name.startswith("score.")]
    for span_name, (module_name, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original, _AFTER.get(span_name))
        for module in modules:
            if vars(module).get(attr) is original:
                patched.append((module, attr, original))
                setattr(module, attr, wrapper)
    for span_name, (module_name, cls_name, attr) in METHODS.items():
        cls = getattr(sys.modules[module_name], cls_name)
        original = vars(cls)[attr]
        after = _AFTER.get(span_name)
        if isinstance(original, classmethod):
            wrapper = classmethod(tracer.wrap(span_name, original.__func__, after))
        else:
            wrapper = tracer.wrap(span_name, original, after)
        patched.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def gateway_stats(tracer: Tracer) -> list[dict]:
    """Counters of every gateway the traced code used."""
    return [asdict(gateway.stats) for gateway in tracer.observed.values()]


def layer_metrics(
    tracer: Tracer,
    *,
    extra_gateway_stats: list[dict] = (),
    fake_busy_s: float = 0.0,
    cli_import_s: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric except `trace.overhead`, from one tracer's spans and counts.

    `extra_gateway_stats` are counters of gateways in another process (the CLI).
    """
    totals = layer_totals(tracer.spans)
    counts = tracer.counts
    stats = gateway_stats(tracer) + list(extra_gateway_stats)

    def seconds(name):
        return totals.get(name, (0.0, 0))[0]

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    names = {s.span_id: s.name for s in tracer.spans}
    pipeline_self = sum(
        t for span_id, t in self_times(tracer.spans).items() if names[span_id] == "evaluator.run_pipeline"
    )
    units = counts["index.entries_built"] + calls("retrieval.retrieve_for_query")
    out = {name: counts[name] for name in COUNTERS}
    for name in PER_LAYER:
        if name.endswith(".s"):
            out[name] = seconds(name[: -len(".s")])
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
    out.update(
        {
            "gateway.embeds_per_unit": counts["gateway.embed.texts"] / units if units else 0.0,
            "gateway.transport_calls": sum(s["transport_calls"] for s in stats),
            "gateway.max_in_flight": max((s["max_in_flight"] for s in stats), default=0),
            "gateway.transport_wait_s": seconds("gateway.transport"),
            "gateway.cache_hits": sum(s["cache_hits"] for s in stats),
            "gateway.cache_misses": sum(s["cache_misses"] for s in stats),
            "fake_model.busy_s": fake_busy_s,
            "retrieval.searches_per_call": (
                calls("index.search_top_n") / calls("retrieval.retrieve_related")
                if calls("retrieval.retrieve_related")
                else 0.0
            ),
            "evaluator.run_pipeline.self_s": pipeline_self,
            "evaluator.run_pipeline.self_share": (
                pipeline_self / seconds("evaluator.run_pipeline") if seconds("evaluator.run_pipeline") else 0.0
            ),
            "cli.import_s": cli_import_s,
        }
    )
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
