"""Command-line entry point wiring the pipeline over a project directory.

This module parses the arguments, runs the commands and maps errors to exit
codes; `project.Project` reads every project file (see `score.project`).
Commands create what is missing, never write outside the root, and exit
with: 0 success (also when the reader of stdout closes the pipe early),
1 usage error, 2 validation error (every damaged file, named with the JSON
path of its first wrong value), 3 gateway/transport error, 4 replay cache
miss.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (
    ContractError,
    GatewayReplyError,
    PersistenceError,
    ScoreError,
    StoryParseError,
    TransportError,
    UncachedRequestError,
    ValidationError,
)
from .evaluator import (
    Ablations,
    PipelineConfig,
    answer_query,
    run_comparison,
    run_pipeline,
    stage_outputs,
)
from .fuzz import FuzzSpec, generate_corpus, score_detection, truth_to_dict
from .gateway import GatewayConfig, LlmGateway
from .jsonio import canonical_bytes, canonical_dumps, write_if_changed
from .project import METRIC_NAMES, Project, corpus_digest, load_story, make_dir, serialized_stories, stage_inputs
from .retrieval import RetrievalConfig, build_retrieval_index, records_to_dict, retrieval_units, retrieve_for_query
from .story import Story, serialize_story

logger = logging.getLogger(__name__)


class UsageError(ScoreError):
    """Bad command line; maps to exit code 1."""


# command-line flag -> the config field it overrides
_GATEWAY_FLAGS = {
    "backend": "backend", "model": "model_name", "cache_mode": "cache_mode", "base_url": "base_url",
    "embed_dim": "embed_dim",
}
_RETRIEVAL_FLAGS = {"top_n": "top_n", "tau": "sentiment_tolerance"}
# what `score index` builds and `score ask` searches
_GRANULARITIES = ("summary", "chunk")


def _load_config(project: Project, args) -> tuple[GatewayConfig, RetrievalConfig, str]:
    """The project's config, each value a flag was given for replaced by the flag's."""
    gateway_cfg, retrieval_cfg, granularity = project.load_config()
    granularity = getattr(args, "granularity", None) or granularity
    if granularity not in _GRANULARITIES:
        raise UsageError(f"unknown granularity {granularity!r}")

    def flagged(flags: dict[str, str]) -> dict:
        return {field: getattr(args, flag) for flag, field in flags.items() if getattr(args, flag, None) is not None}

    return (
        replace(gateway_cfg, **flagged(_GATEWAY_FLAGS)),
        replace(retrieval_cfg, **flagged(_RETRIEVAL_FLAGS)),
        granularity,
    )


def _gateway(project: Project, cfg: GatewayConfig) -> LlmGateway:
    return LlmGateway(cfg, cache_dir=project.dir("cache"), prompts_root=project.dir("prompts"))


def _parse_ablations(spec: str | None) -> Ablations:
    if not spec:
        return Ablations()
    valid = {"tracking", "summary", "retrieval", "sentiment"}
    disabled = {part.strip() for part in spec.split(",") if part.strip()}
    unknown = disabled - valid
    if unknown:
        raise UsageError(f"unknown ablation(s): {', '.join(sorted(unknown))}")
    return Ablations(**{name: name not in disabled for name in valid})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_ingest(project: Project, args) -> int:
    project.ensure()
    for file_name in args.files:
        project.add_story(load_story(Path(file_name)))
    print(f"ingested {len(args.files)} story file(s) into {project.dir('stories')}")
    return 0


def cmd_fuzz(project: Project, args) -> int:
    project.ensure()
    spec = FuzzSpec(
        seed=args.seed,
        n_stories=args.stories,
        violation_rate=args.rate,
        explained_rate=args.explained_rate,
        episodes_per_story=tuple(args.episodes),
        items_per_story=tuple(args.items),
    )
    stories, truth = generate_corpus(spec)
    for story in stories:
        write_if_changed(project.dir("stories") / f"{story.story_id}.json", serialize_story(story))
    write_if_changed(project.ground_truth_path, canonical_bytes(truth_to_dict(truth)))
    print(
        f"generated {len(stories)} stories, {truth.total_planted()} planted errors, "
        f"{len(truth.qa)} gold questions (seed={spec.seed})"
    )
    return 0


def _matching(project: Project, stage: str, stories: list[Story], gateway, serialized: dict[str, bytes]) -> dict:
    """The `stage` output ("states" or "summaries") of each story whose stage file matches, by
    story id; a file that does not load is left out with a warning, so its story is computed again.
    `serialized` holds the stories' `serialized_stories` bytes."""
    found = {}
    for story in stories:
        try:
            output = project.load_stage(stage, story, stage_inputs(stage, serialized[story.story_id], gateway))
        except PersistenceError as e:
            logger.warning("%s; computing it again", e)
            continue
        if output is not None:
            found[story.story_id] = output
    return found


def _save_computed(project: Project, stage: str, stories: list[Story], gateway, serialized, held, outputs) -> None:
    """Save the `stage` output in `outputs`, by story id, of each story that `held` (the outputs
    of matching stage files) lacks, recording the `stage_inputs` digest that `_matching` checks."""
    for story in stories:
        if story.story_id not in held:
            inputs = stage_inputs(stage, serialized[story.story_id], gateway)
            project.save_stage(stage, story, inputs, outputs[story.story_id])


def _keep_computed(project: Project, stories: list[Story], gateway, serialized, held: dict, outputs) -> None:
    """On the remote backend, save what `_save_computed` saves for each stage in `held` (a stage's
    `_matching` result), from `outputs`, a `PipelineResult` or `ComparisonReport`. A command that
    makes minimal summaries reads none, so only full-module outputs are saved; a mock stage file
    costs about what computing its output does, so the mock backend writes none."""
    if not gateway.is_mock:
        for stage, found in held.items():
            _save_computed(project, stage, stories, gateway, serialized, found, getattr(outputs, stage))


def _run_stage(project: Project, stage: str, stories: list[Story], gateway, *, force=False) -> tuple[dict, int]:
    """Every story's `stage` output by story id, computing and saving each one no matching stage
    file holds (with `force`, every one); and how many such files held one."""
    serialized = serialized_stories(stories)
    held = {} if force else _matching(project, stage, stories, gateway, serialized)
    made = stage_outputs([story for story in stories if story.story_id not in held], gateway, stage)
    _save_computed(project, stage, stories, gateway, serialized, held, made)
    return {**held, **made}, len(held)


def cmd_summarize(project: Project, args) -> int:
    project.ensure()
    gateway_cfg, _, _ = _load_config(project, args)
    stories = project.load_stories()
    with _gateway(project, gateway_cfg) as gateway:
        _, held = _run_stage(project, "summaries", stories, gateway, force=args.force)
    print(f"summarized {len(stories) - held} story(ies), {held} already present (use --force to redo)")
    return 0


def cmd_track(project: Project, args) -> int:
    project.ensure()
    gateway_cfg, _, _ = _load_config(project, args)
    stories = project.load_stories()
    with _gateway(project, gateway_cfg) as gateway:
        states, _ = _run_stage(project, "states", stories, gateway)
    reported = {story_id: errors for story_id, (_, errors) in states.items()}
    total_errors = sum(len(errors) for errors in reported.values())
    print(f"tracked {len(stories)} story(ies), {total_errors} continuity error(s) detected")
    truth, _ = project.load_gold()
    if truth is not None:
        score = score_detection(reported, truth)
        print(
            f"detection vs ground truth: precision={score.precision:.3f} "
            f"recall={score.recall:.3f} f1={score.f1:.3f}"
        )
    return 0


def cmd_index(project: Project, args) -> int:
    project.ensure()
    gateway_cfg, _, granularity = _load_config(project, args)
    stories = project.load_stories()
    with _gateway(project, gateway_cfg) as gateway:
        serialized = serialized_stories(stories)
        summaries = {
            s.story_id: project.load_stage("summaries", s, stage_inputs("summaries", serialized[s.story_id], gateway))
            for s in stories
        }
        missing = [story_id for story_id, built in summaries.items() if built is None]
        if missing:
            raise ValidationError("summaries", f"not built for: {', '.join(missing)} (run `score summarize`)")
        units = [unit for story in stories for unit in retrieval_units(story, summaries[story.story_id], granularity)]
        vectors = gateway.embed([record.text for _, record in units])
    index, records = build_retrieval_index(units, vectors, gateway_cfg.embed_dim)
    base = project.dir("index") / granularity
    index.save(base)
    write_if_changed(base.with_suffix(".records.json"), canonical_bytes(records_to_dict(records)))
    print(f"indexed {len(index)} {granularity} unit(s) -> {base}.vec")
    return 0


def _report_payload(config: PipelineConfig, result) -> dict:
    from .tracker import error_to_dict

    return {
        "config": config.to_dict(),
        "config_digest": config.digest(),
        "disabled_modules": config.ablations.disabled(),
        "facet_scale": {"min": 1, "max": 5, "rescale": "affine [1,5] -> [0,100]"},
        "metrics": result.report.to_dict(),
        "evaluations": [
            {
                "story_id": e.story_id,
                "episode_index": e.episode_index,
                "facet_scores": e.facet_scores,
                "rationale": e.rationale,
                "continuity_errors_cited": [error_to_dict(err) for err in e.continuity_errors_cited],
                "context_digest": e.context_digest,
                "item_states": {k: v.value for k, v in sorted(e.item_states.items())},
            }
            for e in result.evaluations
        ],
        "qa": [
            {
                "story_id": q.story_id,
                "question": q.question,
                "answer": q.answer,
                "supporting_episodes": [list(ref) for ref in q.supporting_episodes],
                "correct": q.correct,
            }
            for q in result.qa_results
        ],
    }


def cmd_evaluate(project: Project, args) -> int:
    project.ensure()
    gateway_cfg, retrieval_cfg, _ = _load_config(project, args)
    ablations = _parse_ablations(args.ablate)
    stories = project.load_stories()
    _, gold = project.load_gold()

    episode_filter = None
    if args.episode:
        story_id, sep, idx = args.episode.rpartition("#")
        if not sep or not idx.isdigit():
            raise UsageError(f"--episode expects STORY#INDEX, got {args.episode!r}")
        episode_filter = (story_id, int(idx))
        stories = [s for s in stories if s.story_id == story_id]
        if not stories:
            raise ValidationError("episode", f"story {story_id!r} not in corpus")
        if episode_filter[1] >= len(stories[0].episodes):
            raise ValidationError("episode", f"episode {episode_filter[1]} not in story {story_id!r}")

    config = PipelineConfig(gateway_cfg, retrieval_cfg, ablations)
    serialized = serialized_stories(stories)
    with _gateway(project, gateway_cfg) as gateway:
        used = ("states", "summaries") if ablations.summary else ("states",)
        made = {stage: _matching(project, stage, stories, gateway, serialized) for stage in used}
        result = run_pipeline(stories, gateway, config, gold, episode=episode_filter, **made)
        _keep_computed(project, stories, gateway, serialized, made, result)

    run_id = hashlib.sha256(
        (config.digest() + corpus_digest(serialized) + str(episode_filter)).encode()
    ).hexdigest()[:12]
    payload = _report_payload(config, result)
    payload["run_id"] = run_id
    target = project.dir("reports") / f"{run_id}.json"
    write_if_changed(target, canonical_bytes(payload))

    metrics = result.report
    print(f"run {run_id}: {len(result.evaluations)} evaluation(s), {len(result.qa_results)} question(s)")
    for name in METRIC_NAMES:
        value = getattr(metrics, name)
        print(f"  {name}: " + (f"{value:.2f}" if value is not None else "n/a"))
    if ablations.disabled():
        print(f"  disabled modules: {', '.join(ablations.disabled())}")
    print(f"report written to {target}")
    return 0


def cmd_ask(project: Project, args) -> int:
    project.ensure()
    gateway_cfg, retrieval_cfg, granularity = _load_config(project, args)
    index, records = project.load_index(granularity)
    if args.story and not any(r.story_id == args.story for r in records.values()):
        raise ValidationError("story", f"story {args.story!r} not in index")
    with _gateway(project, gateway_cfg) as gateway:
        bundle = retrieve_for_query(args.question, index, records, retrieval_cfg, gateway, restrict_story=args.story)
        result = answer_query(args.question, bundle, gateway)
    print(
        canonical_dumps(
            {
                "question": result.question,
                "answer": result.answer,
                "supporting_episodes": [list(ref) for ref in result.supporting_episodes],
                "correct": result.correct,
            },
            indent=2,
        )
    )
    return 0


def cmd_compare(project: Project, args) -> int:
    project.ensure()
    gateway_cfg, retrieval_cfg, _ = _load_config(project, args)
    stories = project.load_stories()
    _, gold = project.load_gold()

    config_a = PipelineConfig(gateway_cfg, retrieval_cfg)
    if args.baseline:
        ablations_b = Ablations.baseline()
    else:
        ablations_b = _parse_ablations(args.ablate)
    config_b = PipelineConfig(gateway_cfg, retrieval_cfg, ablations_b)

    serialized = serialized_stories(stories)
    with _gateway(project, gateway_cfg) as gateway:
        made = {stage: _matching(project, stage, stories, gateway, serialized) for stage in ("states", "summaries")}
        comparison = run_comparison(stories, gold, gateway, config_a, config_b, **made)
        # the comparison holds side a's outputs, and side a runs every module
        _keep_computed(project, stories, gateway, serialized, made, comparison)
    run_id = hashlib.sha256(
        (config_a.digest() + config_b.digest() + corpus_digest(serialized)).encode()
    ).hexdigest()[:12]
    payload = {
        "run_id": run_id,
        "kind": "comparison",
        "config_a": config_a.to_dict(),
        "config_b": config_b.to_dict(),
        "digest_collision": comparison.digest_collision,
        "metrics_a": comparison.report_a.to_dict(),
        "metrics_b": comparison.report_b.to_dict(),
        "deltas": comparison.deltas(),
    }
    target = project.dir("reports") / f"{run_id}.compare.json"
    write_if_changed(target, canonical_bytes(payload))

    print(f"comparison {run_id} (a=full, b={'baseline' if args.baseline else ablations_b.disabled() or 'full'})")
    for name, delta in comparison.deltas().items():
        a = getattr(comparison.report_a, name)
        b = getattr(comparison.report_b, name)
        fmt = lambda v: f"{v:.2f}" if v is not None else "n/a"
        print(f"  {name}: a={fmt(a)} b={fmt(b)} delta={fmt(delta)}")
    print(f"report written to {target}")
    return 0


def cmd_report(project: Project, args) -> int:
    payload, comparison = project.load_report(args.run_id)
    print(_render_markdown(payload, comparison) if args.markdown else canonical_dumps(payload, indent=2))
    return 0


def _render_markdown(payload: dict, comparison: bool) -> str:
    def fmt(value):
        return "n/a" if value is None else f"{value:.2f}"

    if comparison:
        columns = {"a": payload["metrics_a"], "b": payload["metrics_b"], "delta": payload["deltas"]}
    else:
        columns = {"value": payload["metrics"]}
    lines = [f"# Run {payload['run_id']}", "", f"| metric | {' | '.join(columns)} |", "|---" * (len(columns) + 1) + "|"]
    lines += [f"| {name} | {' | '.join(fmt(c[name]) for c in columns.values())} |" for name in METRIC_NAMES]
    if not comparison:
        if payload["disabled_modules"]:
            lines += ["", f"Disabled modules: {', '.join(payload['disabled_modules'])}"]
        lines += ["", f"Evaluations: {len(payload['evaluations'])}", f"Questions: {len(payload['qa'])}"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="score", description="Narrative-coherence engine over a project directory.")
    parser.add_argument("--project", default=".", help="project root (default: current directory)")
    parser.add_argument("--backend", choices=["mock", "remote"], help="override gateway backend")
    parser.add_argument("--model", help="override model name")
    parser.add_argument("--base-url", dest="base_url", help="override remote base URL")
    parser.add_argument("--cache-mode", dest="cache_mode", choices=["off", "record", "replay"])
    parser.add_argument("--embed-dim", dest="embed_dim", type=int, help="override embedding dimension")
    parser.add_argument("--top-n", dest="top_n", type=int, help="override retrieval top N")
    parser.add_argument("--tau", dest="tau", type=float, help="override sentiment tolerance")
    parser.add_argument("-v", "--verbose", action="store_true", help="INFO-level logging")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate story files and copy them into stories/")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fuzz", help="generate a synthetic corpus with ground truth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stories", type=int, default=10)
    p.add_argument("--rate", type=float, default=0.3, help="violation rate")
    p.add_argument("--explained-rate", type=float, default=0.2)
    p.add_argument("--episodes", type=int, nargs=2, default=[6, 12], metavar=("LO", "HI"))
    p.add_argument("--items", type=int, nargs=2, default=[2, 4], metavar=("LO", "HI"))
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("summarize", help="write per-episode summaries")
    p.add_argument("--force", action="store_true", help="re-summarize existing stories")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("track", help="extract item states, detect continuity errors")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("index", help="embed the summaries or chunks into the vector index")
    p.add_argument("--granularity", choices=_GRANULARITIES)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("evaluate", help="run the evaluation pipeline, write a report")
    p.add_argument("--episode", help="restrict to one episode, format STORY#INDEX")
    p.add_argument("--ablate", help="comma-separated modules to disable: tracking,summary,retrieval,sentiment")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ask", help="answer a question over the indexed corpus")
    p.add_argument("question")
    p.add_argument("--story", help="restrict retrieval to one story")
    p.add_argument("--granularity", choices=_GRANULARITIES)
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("compare", help="paired run: full pipeline vs baseline or ablation")
    side_b = p.add_mutually_exclusive_group()
    side_b.add_argument("--baseline", action="store_true", help="plain model: no tracking, summaries, or retrieval")
    side_b.add_argument("--ablate", help="modules to disable on side b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="render a stored report")
    p.add_argument("run_id")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1

    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING, format="%(levelname)s %(message)s")
    project = Project(root=Path(args.project))
    try:
        make_dir(project.root)  # the lock file lives here
        with project.lock():
            code = args.func(project, args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # the reader of stdout went away after the command's work was done;
        # stdout now goes nowhere, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except UncachedRequestError as e:
        print(f"replay cache miss: {e}", file=sys.stderr)
        return 4
    except (TransportError, GatewayReplyError) as e:
        print(f"gateway error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, StoryParseError, PersistenceError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # the command's `with` blocks have closed its gateway and released the lock
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
