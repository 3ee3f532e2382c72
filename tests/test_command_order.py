"""Any order of commands leaves the files a fresh project leaves.

A Hypothesis state machine runs `score` commands in process, in drawn order,
over a 3-story mock fuzz project: `track`, `summarize [--force]`, `index` at
each granularity, `evaluate [--ablate ...]`, `compare --baseline`, `ask`, and
the `ingest` of an edited story (its file removed, then the story ingested
again with one episode's text changed, or changed back), which leaves that
story's stage files stale. After each step:

- each exit is 0, or 2 for an `ask` before the `index` it reads;
- each stage file equals that story's file after a fresh `evaluate` over its
  current text. A stage the step did not read may instead hold the story's
  other text's file: stale, and read by no command until it is made again;
- the report an `evaluate` or `compare` writes equals the report the same
  command writes in a fresh project over the same stories;
- after an `index`, each `index/<granularity>.*` file equals a fresh
  project's after that `index`.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from score.cli import main
from score.fuzz import FuzzSpec, generate_corpus, truth_to_dict
from score.jsonio import canonical_bytes
from score.project import GRANULARITIES
from score.story import serialize_story

STORIES, TRUTH = generate_corpus(FuzzSpec(seed=3, n_stories=3))


def _edited(story):
    episodes = list(story.episodes)
    episodes[1] = replace(episodes[1], text=episodes[1].text + " A quiet rain fell.")
    return replace(story, episodes=tuple(episodes))


# each story's bytes in its two variants: as generated (False) and edited (True)
VARIANTS = [{False: serialize_story(s), True: serialize_story(_edited(s))} for s in STORIES]
STAGES = ("states", "summaries")


def _files(root: Path, directory: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((root / directory).glob("*")) if p.is_file()}


class CommandOrder(RuleBasedStateMachine):
    scratch: Path  # set by the test: a directory for the projects
    fresh: dict = {}  # (variants, argv) -> the files a fresh project holds after `argv`

    def _write_project(self, root: Path, variants: tuple[bool, ...]) -> None:
        (root / "stories").mkdir(parents=True)
        for i, edited in enumerate(variants):
            (root / "stories" / f"{STORIES[i].story_id}.json").write_bytes(VARIANTS[i][edited])
        (root / "ground_truth.json").write_bytes(canonical_bytes(truth_to_dict(TRUTH)))

    def _fresh(self, argv: tuple[str, ...], variants=None) -> dict[str, dict[str, bytes]]:
        key = (variants or self.variants, argv)
        if key not in self.fresh:
            root = self.scratch / f"fresh-{len(self.fresh)}"
            self._write_project(root, key[0])
            assert main(["--project", str(root), *argv]) == 0
            self.fresh[key] = {d: _files(root, d) for d in ("states", "summaries", "index", "reports")}
            shutil.rmtree(root)
        return self.fresh[key]

    def _stage_file(self, stage: str, i: int, edited: bool) -> bytes:
        """Story `i`'s `stage` file after a fresh `evaluate` over its `edited` variant."""
        variants = tuple(edited if j == i else v for j, v in enumerate(self.variants))
        return self._fresh(("evaluate",), variants)[stage][f"{STORIES[i].story_id}.json"]

    @initialize()
    def start(self):
        self.variants = (False,) * len(STORIES)
        self.root = Path(tempfile.mkdtemp(prefix="project-", dir=self.scratch))
        self._write_project(self.root, self.variants)

    def _run(self, *argv: str, code: int = 0, reads=frozenset()) -> None:
        """Run `argv`, and check every stage file; those of the stages in `reads`, which
        the command reads and so makes again when stale, must be current."""
        assert main(["--project", str(self.root), *argv]) == code, argv
        for stage in STAGES:
            for i, story in enumerate(STORIES):
                path = self.root / stage / f"{story.story_id}.json"
                if not path.exists():
                    assert stage not in reads, (argv, path.name)
                    continue
                current = self._stage_file(stage, i, self.variants[i])
                if stage in reads:
                    assert path.read_bytes() == current, (argv, path.name)
                else:
                    assert path.read_bytes() in (current, self._stage_file(stage, i, not self.variants[i])), path.name

    def _check_report(self, argv: tuple[str, ...], before: set[str]) -> None:
        fresh = self._fresh(argv)["reports"]
        written = set(_files(self.root, "reports")) - before
        assert written <= set(fresh), argv
        for name in fresh:
            assert (self.root / "reports" / name).read_bytes() == fresh[name], (argv, name)

    @rule()
    def track(self):
        self._run("track", reads={"states"})

    @rule(force=st.booleans())
    def summarize(self, force):
        self._run("summarize", *(["--force"] if force else []), reads={"summaries"})

    @rule(granularity=st.sampled_from(GRANULARITIES))
    def index(self, granularity):
        argv = ("index", "--granularity", granularity)
        self._run(*argv, reads={"summaries"})
        fresh = self._fresh(argv)["index"]
        assert fresh and {name: data for name, data in _files(self.root, "index").items() if name in fresh} == fresh

    @rule(ablate=st.sampled_from([None, "summary", "tracking,retrieval"]))
    def evaluate(self, ablate):
        argv = ("evaluate", *(["--ablate", ablate] if ablate else []))
        before = set(_files(self.root, "reports"))
        self._run(*argv, reads={"states"} if ablate == "summary" else set(STAGES))
        self._check_report(argv, before)

    @rule()
    def compare(self):
        before = set(_files(self.root, "reports"))
        self._run("compare", "--baseline", reads=set(STAGES))
        self._check_report(("compare", "--baseline"), before)

    @rule(granularity=st.sampled_from(GRANULARITIES))
    def ask(self, granularity):
        built = (self.root / "index" / f"{granularity}.vec").exists()
        self._run("ask", "Where is the sword?", "--granularity", granularity, code=0 if built else 2)

    @rule(i=st.integers(0, len(STORIES) - 1))
    def ingest_edited(self, i):
        """Replace story `i` by its other variant: remove its file, then ingest the new one."""
        self.variants = tuple(not v if j == i else v for j, v in enumerate(self.variants))
        (self.root / "stories" / f"{STORIES[i].story_id}.json").unlink()
        source = self.root.with_name(self.root.name + "-edit.json")
        source.write_bytes(VARIANTS[i][self.variants[i]])
        self._run("ingest", str(source))


def test_any_order_of_commands_leaves_the_files_of_a_fresh_project(tmp_path, capsys):
    CommandOrder.scratch = tmp_path
    CommandOrder.fresh = {}
    run_state_machine_as_test(
        CommandOrder,
        settings=settings(
            max_examples=20,
            stateful_step_count=12,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
