"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, does one unit of
measured work per `run_once`, and checks the program's outputs as it goes:
`record(ok, what)` counts one operation, failed when a gate does not hold.
All of them are closed loops with one client in one process.
"""

from __future__ import annotations

import contextlib
import json
import threading
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from unittest import mock

import numpy as np

from score import cli, evaluator, fuzz, gateway as gateway_module, index, jsonio, retrieval, summarize
from score.gateway import GatewayConfig, LlmGateway

from fakemodel import FakeModel
from tracer import Tracer, spans_from_dicts

HERE = Path(__file__).resolve().parent

CORPUS_STORIES = 1000  # mock-corpus and ask-corpus: where superlinear terms show
REMOTE_STORIES = 20
# Each recording writes ~45 cache files per story, three recordings a run. A shared
# virtual disk slows down under sustained small-file writes, so 100 stories made
# set-up and replay times climb from run to run; 40 keep the writes small.
REPLAY_STORIES = 40
LATENCY_S = 0.005  # injected per fake-model call on remote-latency
# Never contacted: the transport is the fake model. Should anything bypass it, the
# request goes to the discard port of this machine and is refused there.
FAKE_BASE_URL = "http://127.0.0.1:9/v1"
FAKE_MODEL_NAME = "fake-model"
# Minimum questions per kind in one run. Story-restricted questions carry the
# gated p95, which needs many samples beyond it to be steady on a shared CPU;
# corpus-wide questions are slower and only their mean is gated.
ASK_MIN = {"story": 400, "corpus": 200}
ASK_BATCH = 60
ASK_ORACLE_SAMPLE = 8  # questions of each kind checked against the full-scan oracle
CLI_TIMEOUT_S = 150


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[94]


class CountingGateway(LlmGateway):
    """An LlmGateway that counts the requests its backend answers and their input characters.

    One request is one `complete`, one `score_sentiment`, or one batch of at
    most `embed_batch_limit` texts given to `embed` (`embed` splits larger
    batches by calling itself). These are the requests a remote backend
    would answer with one transport call each, so on the mock backend the
    count stands for the model calls the same work would make.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = 0
        self.input_chars = 0
        self._count_lock = threading.Lock()

    def _counted(self, chars: int) -> None:
        with self._count_lock:
            self.requests += 1
            self.input_chars += chars

    def complete(self, prompt, **kwargs):
        self._counted(len(prompt))
        return super().complete(prompt, **kwargs)

    def score_sentiment(self, text):
        self._counted(len(text))
        return super().score_sentiment(text)

    def embed(self, texts):
        if texts and len(texts) <= self.config.embed_batch_limit:
            self._counted(sum(len(t) for t in texts))
        return super().embed(texts)


class Workload:
    name = ""
    rss_from_children = False  # peak RSS of the CLI subprocess instead of this process
    injected_latency_ms = 0.0
    min_iterations = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.fake_busy_s = 0.0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[{self.name}] check failed: {what}", file=sys.stderr)

    def guarded(self, fn, *args) -> None:
        """Run one operation; an exception counts as a failed operation."""
        try:
            fn(*args)
        except Exception:
            self.record(False, traceback.format_exc())

    def setup(self, tracer: Tracer | None = None) -> None:
        raise NotImplementedError

    def run_once(self, tracer: Tracer | None = None) -> None:
        raise NotImplementedError

    def rewind(self) -> None:
        """Make the next run_once repeat the first unit of work (traced runs)."""

    def enough(self, elapsed: float, seconds: float, iterations: int) -> bool:
        return elapsed >= seconds and iterations >= self.min_iterations

    def verify(self) -> None:
        """Gates that run once, after the timed loop."""

    def metrics(self) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def sizes(self) -> dict[str, int]:
        raise NotImplementedError

    def info(self) -> dict:
        """Figures recorded in the run's metadata but not reported as metrics."""
        return {}

    def trace_extras(self) -> dict:
        """Keyword arguments for probes.layer_metrics that only this workload knows."""
        return {"fake_busy_s": self.fake_busy_s}


class _PipelineWorkload(Workload):
    """run_pipeline over a fuzz corpus; each run is checked against GroundTruth."""

    n_stories = 0

    def setup(self, tracer=None):
        self.stories, self.truth = fuzz.generate_corpus(fuzz.FuzzSpec(seed=self.seed, n_stories=self.n_stories))
        self.gold = self.truth.to_gold()
        self.episodes = sum(len(s.episodes) for s in self.stories)
        self.config = evaluator.PipelineConfig(gateway=self.gateway_config(), retrieval=retrieval.RetrievalConfig())
        self.walls: list[float] = []
        self.first_report = None

    def gateway_config(self) -> GatewayConfig:
        raise NotImplementedError

    def check(self, result, problems: list[str]) -> None:
        """One operation per pipeline run: failed when any of its gates does not hold."""
        reported = {story_id: errors for story_id, (_, errors) in result.states.items()}
        self.detection = fuzz.score_detection(reported, self.truth)
        if not (self.detection.precision == 1.0 and self.detection.recall == 1.0):
            problems.append(f"detection precision={self.detection.precision} recall={self.detection.recall}")
        report = result.report.to_dict()
        if self.first_report is None:
            self.first_report = report
        if report != self.first_report:
            problems.append("metrics differ between two runs of the same corpus")
        self.record(not problems, "; ".join(problems))

    def pipeline_metrics(self, calls: int, chars: int):
        """The end-to-end metrics of run_pipeline: calls and characters are those of one run."""
        return {
            "ms_per_op": (_ms(statistics.median(self.walls)) / self.episodes, "ms"),
            "model_calls_per_op": (calls / self.episodes, "calls/op"),
            "prompt_kchars_per_op": (chars / 1000 / self.episodes, "kchar/op"),
        }

    def info(self):
        return {
            "qa_accuracy_pct": self.qa_accuracy,
            "detection_precision": self.detection.precision,
            "detection_recall": self.detection.recall,
            "detection_f1": self.detection.f1,
        }

    def sizes(self):
        return {
            "stories": len(self.stories),
            "episodes": self.episodes,
            "questions": len(self.truth.qa),
            "index_entries": self.episodes,  # one summary document per episode, in per-story indexes
        }


class MockCorpus(_PipelineWorkload):
    """The CPU path: mock backend, cache off, 1,000 stories."""

    name = "mock-corpus"
    n_stories = CORPUS_STORIES
    # one pipeline run takes 8-12 s, so 10 s would time one or two of them depending
    # on the machine's speed; two in every run make every figure the same amount of work
    min_iterations = 2

    def gateway_config(self):
        return GatewayConfig()

    def run_once(self, tracer=None):
        gateway = CountingGateway(self.config.gateway)
        start = time.perf_counter()
        result = evaluator.run_pipeline(self.stories, gateway, self.config, self.gold)
        self.walls.append(time.perf_counter() - start)
        self.calls, self.chars = gateway.requests, gateway.input_chars
        self.qa_accuracy = result.report.complex_qa
        self.check(result, [])

    def metrics(self):
        return self.pipeline_metrics(self.calls, self.chars)


class RemoteLatency(_PipelineWorkload):
    """The latency path: remote backend against the fake model with a fixed per-call latency."""

    name = "remote-latency"
    n_stories = REMOTE_STORIES
    injected_latency_ms = _ms(LATENCY_S)

    def gateway_config(self):
        return GatewayConfig(backend="remote", base_url=FAKE_BASE_URL, model_name=FAKE_MODEL_NAME)

    def run_once(self, tracer=None):
        fake = FakeModel(latency_s=LATENCY_S, embed_dim=self.config.gateway.embed_dim)
        transport = tracer.wrap("gateway.transport", fake) if tracer else fake
        gateway = LlmGateway(self.config.gateway, transport=transport)
        start = time.perf_counter()
        result = evaluator.run_pipeline(self.stories, gateway, self.config, self.gold)
        self.walls.append(time.perf_counter() - start)
        self.calls = gateway.stats.transport_calls
        self.prompt_chars = fake.prompt_chars
        self.fake_busy_s = fake.busy_s
        self.qa_accuracy = result.report.complex_qa
        self.check(result, [f"{fake.reprompts} reply(ies) needed a reprompt"] if fake.reprompts else [])

    def metrics(self):
        return self.pipeline_metrics(self.calls, self.prompt_chars)


class AskCorpus(Workload):
    """Gold questions against one corpus-wide index, half restricted to the question's story."""

    name = "ask-corpus"

    def setup(self, tracer=None):
        stories, truth = fuzz.generate_corpus(fuzz.FuzzSpec(seed=self.seed, n_stories=CORPUS_STORIES))
        gateway = LlmGateway(GatewayConfig())
        self.records: dict[str, retrieval.SummaryRecord] = {}
        rows = []
        for story in stories:
            items = list(story.key_items)
            for episode in story.episodes:
                summary = summarize.summarize_episode(episode, items, gateway, story_id=story.story_id)
                doc = summarize.build_retrieval_document(summary)
                self.records[doc.doc_id] = retrieval.SummaryRecord(
                    entry_id=doc.doc_id,
                    story_id=story.story_id,
                    episode_index=episode.index,
                    sentiment=summary.sentiment.value,
                    text=doc.text,
                )
                rows.append((doc.doc_id, "summary", story.story_id, episode.index, doc.text))
        vectors = gateway.embed([row[4] for row in rows])
        built = index.build_index(
            gateway.config.embed_dim, [(*row[:4], vector) for row, vector in zip(rows, vectors)]
        )
        base = self.work_dir / "ask-index" / "corpus"
        built.save(base)
        self.index = index.FlatIndex.load(base)
        self.config = retrieval.RetrievalConfig()
        self.gateway_config = gateway.config

        order = list(truth.qa)
        random.Random(self.seed).shuffle(order)
        # two of every three questions are restricted to their own story, the third searches the corpus
        self.questions = [(gq, None if i % 3 == 2 else gq.story_id) for i, gq in enumerate(order)]
        self.n_stories = len(stories)
        self.n_episodes = len(self.records)
        self.cursor = 0
        self.latency = {"story": [], "corpus": []}
        self.graded: list[bool] = []
        self.requests = 0
        self.input_chars = 0

    def rewind(self):
        self.cursor = 0

    def run_once(self, tracer=None):
        gateway = CountingGateway(self.gateway_config)
        for _ in range(ASK_BATCH):
            gold, restrict = self.questions[self.cursor % len(self.questions)]
            self.cursor += 1
            start = time.perf_counter()
            bundle = retrieval.retrieve_for_query(
                gold.question, self.index, self.records, self.config, gateway, restrict_story=restrict
            )
            answer = evaluator.answer_query(gold.question, bundle, gateway, story_id=gold.story_id)
            graded = evaluator.grade_answer(answer, gold)
            self.latency["story" if restrict else "corpus"].append(time.perf_counter() - start)
            if len(self.graded) < sum(ASK_MIN.values()):
                self.graded.append(graded.correct)
            self.record(
                restrict is None or all(e.story_id == restrict for e in bundle.selected),
                f"bundle for a question restricted to {restrict} holds another story",
            )
        self.requests += gateway.requests
        self.input_chars += gateway.input_chars

    def enough(self, elapsed, seconds, iterations):
        return elapsed >= seconds and all(len(self.latency[kind]) >= n for kind, n in ASK_MIN.items())

    def verify(self):
        """Top-n of search_top_n equals a full scan sorted by (-score, entry_id)."""
        gateway = LlmGateway(self.gateway_config)
        entries = self.index.entries
        n = self.config.pool
        sample = [q for q in self.questions if q[1] is not None][:ASK_ORACLE_SAMPLE]
        sample += [q for q in self.questions if q[1] is None][:ASK_ORACLE_SAMPLE]
        vectors = gateway.embed([gold.question for gold, _ in sample])
        for (gold, restrict), query in zip(sample, vectors):
            allowed = None if restrict is None else (lambda e, sid=restrict: e.story_id == sid)
            got = [(h.entry_id, h.score) for h in self.index.search_top_n(query, n=n, filter=allowed)]
            unit = query / np.linalg.norm(query)
            oracle = sorted(
                ((float(np.dot(e.embedding, unit)), e.entry_id) for e in entries if allowed is None or allowed(e)),
                key=lambda t: (-t[0], t[1]),
            )[:n]
            self.record(
                [g[0] for g in got] == [o[1] for o in oracle]
                and all(abs(g[1] - o[0]) <= 1e-12 for g, o in zip(got, oracle)),
                f"search_top_n differs from the full-scan oracle for {gold.question!r} (story={restrict})",
            )

    def metrics(self):
        # A mean, not a median: one question's time is bimodal on a shared virtual CPU (the
        # same work runs ~1.35x slower while the CPU is contended), so the median jumps
        # between the two modes from run to run while the mean moves smoothly. Questions
        # alternate two story-restricted to one corpus-wide, so the mix is fixed.
        answered = self.latency["story"] + self.latency["corpus"]
        return {
            "ms_per_op": (_ms(statistics.fmean(answered)), "ms"),
            "model_calls_per_op": (self.requests / len(answered), "calls/op"),
            "prompt_kchars_per_op": (self.input_chars / 1000 / len(answered), "kchar/op"),
        }

    def info(self):
        # Not metrics: corpus-wide retrieval widens its candidate pool for 0-15 % of
        # questions depending on the seed, so its p95 jumps between one-search and
        # multi-search latency from seed to seed.
        story, corpus = self.latency["story"], self.latency["corpus"]
        return {
            # the same first questions on every run of a seed, however many were answered
            "qa_accuracy_pct": 100.0 * sum(self.graded) / len(self.graded),
            "ask_story_mean_ms": _ms(statistics.fmean(story)),
            "ask_story_p50_ms": _ms(statistics.median(story)),
            "ask_story_p95_ms": _ms(_p95(story)),
            "ask_corpus_mean_ms": _ms(statistics.fmean(corpus)),
            "ask_corpus_p50_ms": _ms(statistics.median(corpus)),
            "ask_corpus_p95_ms": _ms(_p95(corpus)),
            "ask_samples": {kind: len(values) for kind, values in self.latency.items()},
        }

    def sizes(self):
        return {
            "stories": self.n_stories,
            "episodes": self.n_episodes,
            "questions": len(self.questions),
            "index_entries": len(self.index),
            "questions_answered": self.cursor,
        }


class ReplayCli(Workload):
    """`score --backend remote --cache-mode replay evaluate` over a recorded fake-model run."""

    name = "replay-cli"
    rss_from_children = True
    min_iterations = 2  # two replays are compared byte for byte

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.setups = 0

    def setup(self, tracer=None):
        # each set-up records into a fresh project; the harness removes them all at exit
        self.setups += 1
        root = self.work_dir / f"replay-project-{self.setups}"
        _cli(root, "fuzz", "--seed", str(self.seed), "--stories", str(REPLAY_STORIES))
        self.project = cli.Project(root)
        raw = json.loads(self.project.config_path.read_text("utf-8"))
        raw["gateway"].update(backend="remote", base_url=FAKE_BASE_URL, model_name=FAKE_MODEL_NAME)
        jsonio.atomic_write(self.project.config_path, jsonio.canonical_bytes(raw))

        # record with the CLI itself; its gateway takes the module's default transport
        fake = FakeModel(latency_s=0.0, embed_dim=GatewayConfig(**raw["gateway"]).embed_dim)
        transport = tracer.wrap("gateway.transport", fake) if tracer else fake
        with mock.patch.object(gateway_module, "default_transport", transport):
            _cli(root, "--cache-mode", "record", "evaluate")
        (recorded,) = self.project.dir("reports").glob("*.json")
        report = json.loads(recorded.read_bytes())
        self.expected = {"evaluations": report["evaluations"], "qa": report["qa"]}
        self.fake_busy_s = fake.busy_s
        self.recorded_calls = fake.calls
        self.recorded_prompt_chars = fake.prompt_chars
        self.recorded_reprompts = fake.reprompts
        self.n_stories = len({e["story_id"] for e in report["evaluations"]})
        self.episodes = len(report["evaluations"])
        self.n_questions = len(report["qa"])
        self.walls: list[float] = []
        self.first_bytes = None
        self.qa_accuracy = None
        self.cli_run = {}

    def run_once(self, tracer=None):
        reports = self.project.dir("reports")
        for stale in reports.glob("*.json"):
            stale.unlink()  # the replay must write its report anew
        cli_args = ["--project", str(self.project.root), "--backend", "remote", "--cache-mode", "replay", "evaluate"]
        trace_out = self.work_dir / "cli-trace.json"
        if tracer:
            command = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), tracer.run_id, "--", *cli_args]
        else:
            command = [sys.executable, "-m", "score.cli", *cli_args]
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        self.walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            # exit 4 is a replay miss
            self.record(False, f"`score evaluate` exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return
        if tracer:
            self.cli_run = json.loads(trace_out.read_text("utf-8"))
            tracer.absorb(spans_from_dicts(self.cli_run["spans"]))
            tracer.counts.update(self.cli_run["counts"])
        (report_path,) = reports.glob("*.json")
        data = report_path.read_bytes()
        if self.first_bytes is None:
            self.first_bytes = data
            report = json.loads(data)
            self.qa_accuracy = report["metrics"]["complex_qa"]
            problems = []
            if {"evaluations": report["evaluations"], "qa": report["qa"]} != self.expected:
                problems.append("replay report differs from the recorded run")
            if self.recorded_reprompts:
                problems.append(f"the recording needed {self.recorded_reprompts} reprompt(s)")
            self.record(not problems, "; ".join(problems))
        else:
            self.record(data == self.first_bytes, "two replay reports are not byte-identical")

    def trace_extras(self):
        return {
            "fake_busy_s": self.fake_busy_s,
            "extra_gateway_stats": self.cli_run.get("gateway_stats", []),
            "cli_import_s": self.cli_run.get("import_s", 0.0),
        }

    def metrics(self):
        # calls and characters are those of the recorded run, the remote path's bill;
        # the timed replays answer the same requests from the cache
        return {
            "ms_per_op": (_ms(statistics.median(self.walls)) / self.episodes, "ms"),
            "model_calls_per_op": (self.recorded_calls / self.episodes, "calls/op"),
            "prompt_kchars_per_op": (self.recorded_prompt_chars / 1000 / self.episodes, "kchar/op"),
        }

    def info(self):
        return {"qa_accuracy_pct": self.qa_accuracy}

    def sizes(self):
        return {
            "stories": self.n_stories,
            "episodes": self.episodes,
            "questions": self.n_questions,
            "index_entries": self.episodes,
            "cache_entries": sum(1 for _ in self.project.dir("cache").rglob("*.json")),
        }


def _cli(root: Path, *args: str) -> None:
    """Run one `score` command in this process; standard output carries only the result."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["--project", str(root), *args])
    if code != 0:
        raise RuntimeError(f"`score {' '.join(args)}` exited with {code}")


WORKLOADS = {w.name: w for w in (MockCorpus, RemoteLatency, AskCorpus, ReplayCli)}
