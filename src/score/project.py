"""A project directory, and one loader per kind of file it holds.

A project root holds config.json, ground_truth.json and the directories
stories/, summaries/, states/, index/, cache/, reports/ and prompts/. Each
`load_*` checks its file against the shape declared next to the file's
`*_from_dict` (see `jsonio.check`) before it builds typed values. A file
that cannot be read, or holds a value of the wrong shape or one its
constructor rejects, raises PersistenceError naming the file and the value's
JSON path: `ground_truth.json: $.qa[0].answer: must be a string, got null`.
A stage file, `states/<story>.json` or `summaries/<story>.json`, holds a
story's output of its stage and, in `inputs`, the `stage_inputs` digest it was
made from; `load_stage` treats a file made from other inputs as missing. It
holds nothing its name, its story or its output already gives: the story id,
a summary's episode, or the continuity errors, which are detected again on
load.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import socket
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

from . import prompts as prompt_templates
from .errors import PersistenceError, StoryParseError, ValidationError
from .evaluator import METRIC_NAMES, GoldData
from .fuzz import TRUTH_SHAPE, GroundTruth, truth_from_dict
from .gateway import GatewayConfig
from .index import FlatIndex
from .jsonio import atomic_write, canonical_bytes, canonical_dumps, check, load_json, write_if_changed
from .retrieval import RECORD_SHAPE, RetrievalConfig, SummaryRecord, records_from_dict
from .story import Story, parse_story, serialize_story
from .summarize import SUMMARIES_SHAPE, summaries_from_dict, summaries_to_dict
from .tracker import STATES_SHAPE, states_from_dict, states_to_dict

_DIRS = ("stories", "summaries", "states", "index", "cache", "reports", "prompts")

# config.json: a section may set any field of its dataclass, of the annotated type
_CONFIG_SECTIONS = {"gateway": GatewayConfig, "retrieval": RetrievalConfig}
CONFIG_SHAPE = {f"{s}?": {f"{n}?": t for n, t in typing.get_type_hints(c).items()} for s, c in _CONFIG_SECTIONS.items()}
CONFIG_SHAPE["granularity?"] = str
# what `score index` builds and `score ask` searches, the values config.json's `granularity` may take
GRANULARITIES = ("summary", "chunk")

# stage file directory -> (its shape, writer and reader of the file of a story
# id, and the templates its stage can send on the remote backend)
_STAGE_FILES = {
    "states": (STATES_SHAPE, states_to_dict, lambda raw, story_id: states_from_dict(raw), ("extract_states", "repair")),
    "summaries": (SUMMARIES_SHAPE, summaries_to_dict, summaries_from_dict, ("summarize", "sentiment", "repair")),
}

# stories/corpus.json: the story files to load, in order
MANIFEST_SHAPE = {"files": [str]}

# reports/: the parts of a stored report that `score report` reads
_METRICS = dict.fromkeys(METRIC_NAMES, (float, None))
RUN_REPORT_SHAPE = {"run_id": str, "metrics": _METRICS, "disabled_modules": [str], "evaluations": list, "qa": list}
COMPARISON_REPORT_SHAPE = {"run_id": str, "metrics_a": _METRICS, "metrics_b": _METRICS, "deltas": _METRICS}


def make_dir(path: Path) -> None:
    """Make the directory `path` and any missing parents; one the OS refuses
    raises PersistenceError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise PersistenceError(f"{path}: cannot be made a directory ({e})") from None


@dataclass
class Project:
    root: Path

    def __post_init__(self):
        self.root = Path(self.root)

    def dir(self, name: str) -> Path:
        return self.root / name

    @property
    def config_path(self) -> Path:
        return self.root / "config.json"

    @property
    def ground_truth_path(self) -> Path:
        return self.root / "ground_truth.json"

    def ensure(self) -> None:
        """Create missing directories, default config, and default prompts."""
        for name in _DIRS:
            make_dir(self.dir(name))
        if not self.config_path.exists():
            default = {
                "gateway": asdict(GatewayConfig()),
                "retrieval": asdict(RetrievalConfig()),
                "granularity": "summary",
            }
            write_if_changed(self.config_path, canonical_bytes(default))
        for name, text in prompt_templates.default_templates().items():
            target = self.dir("prompts") / f"{name}.txt"
            if not target.exists():
                atomic_write(target, text.encode("utf-8"))

    @contextlib.contextmanager
    def lock(self):
        """One command at a time per project root.

        The lock file holds the owner's PID and host name. A lock whose PID
        no longer runs on this host is reported as stale, never removed
        here: only the user can tell that no other command still uses it.
        """
        path = self.root / ".score.lock"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ValidationError("project", _lock_problem(path)) from None
        try:
            os.write(fd, f"{os.getpid()} {socket.gethostname()}".encode())
            os.close(fd)
            yield
        finally:
            with contextlib.suppress(OSError):
                os.unlink(path)

    def add_story(self, story: Story) -> None:
        """Save `story` in stories/, unless another story of its id is there."""
        target = self.dir("stories") / f"{story.story_id}.json"
        payload = serialize_story(story)
        if target.exists() and target.read_bytes() != payload:
            raise ValidationError("story_id", f"duplicate story_id {story.story_id!r} already in corpus")
        write_if_changed(target, payload)

    def load_config(self) -> tuple[GatewayConfig, RetrievalConfig, str]:
        """The gateway and retrieval configs and the granularity config.json
        sets (`ensure` writes the default one); each field it leaves out keeps
        its default. An unknown field, or a granularity not in
        `GRANULARITIES`, is an error."""
        return load_json(self.config_path, CONFIG_SHAPE, _config_from_dict)

    def load_stories(self) -> list[Story]:
        """The stories `stories/corpus.json` lists, in its order, or without
        it every `stories/*.json`, in name order."""
        stories_dir = self.dir("stories")
        manifest = stories_dir / "corpus.json"
        if manifest.exists():
            paths = load_json(manifest, MANIFEST_SHAPE, lambda raw: _listed_story_files(stories_dir, raw["files"]))
        else:
            paths = [p for p in sorted(stories_dir.glob("*.json")) if p.name != "corpus.json"]
        stories = [load_story(path) for path in paths]
        ids = [s.story_id for s in stories]
        if len(set(ids)) != len(ids):
            raise ValidationError("story_id", "duplicate story_id in corpus")
        if not stories:
            raise ValidationError("stories", "no stories ingested (run `score ingest` or `score fuzz` first)")
        return stories

    def load_stage(self, stage: str, story: Story, inputs: str):
        """The output of `stage` ("states" or "summaries") that the story's
        file in that directory holds, or None when it has no such file made
        from `inputs`. A file that does not load, or does not hold an output
        of the story, raises PersistenceError naming it."""
        path = self.dir(stage) / f"{story.story_id}.json"
        if not path.exists():
            return None
        shape, _, build, _ = _STAGE_FILES[stage]
        output = load_json(
            path, {**shape, "inputs?": str}, lambda raw: raw.get("inputs") == inputs and build(raw, story.story_id)
        )
        if output is False:
            return None
        if not _fits(story, stage, output):
            raise PersistenceError(f"{path}: does not hold the {stage} of story {story.story_id!r}")
        return output

    def save_stage(self, stage: str, story: Story, inputs: str, output) -> None:
        """Write the story's `stage` file, recording the `inputs` its `output` was made from.
        The file is compact: an indent would keep `json.dumps` from its C encoder."""
        payload = {**_STAGE_FILES[stage][1](output), "inputs": inputs}
        write_if_changed(self.dir(stage) / f"{story.story_id}.json", canonical_bytes(payload, indent=None))

    def load_gold(self) -> tuple[GroundTruth | None, GoldData | None]:
        """The ground truth and its gold data, or (None, None) when there is none."""
        if not self.ground_truth_path.exists():
            return None, None
        truth = load_json(self.ground_truth_path, TRUTH_SHAPE, truth_from_dict)
        return truth, truth.to_gold()

    def load_index(self, granularity: str) -> tuple[FlatIndex, dict[str, SummaryRecord]]:
        """The index `score index` built at `granularity`, and its records: one
        per index entry, whose story and episode are the entry's."""
        base = self.dir("index") / granularity
        if not base.with_suffix(".vec").exists():
            raise ValidationError("index", "index not built (run `score index` first)")
        index = FlatIndex.load(base)
        return index, load_json(base.with_suffix(".records.json"), dict, lambda raw: _records_from_dict(raw, index))

    def load_report(self, run_id: str) -> tuple[dict, bool]:
        """The stored report `run_id`, and whether it is a comparison."""
        reports_dir = self.dir("reports")
        for comparison, shape in ((False, RUN_REPORT_SHAPE), (True, COMPARISON_REPORT_SHAPE)):
            path = reports_dir / f"{run_id}{'.compare' if comparison else ''}.json"
            if path.exists():
                return load_json(path, shape), comparison
        raise ValidationError("run_id", f"no report named {run_id!r} in {reports_dir}")


def serialized_stories(stories: list[Story]) -> dict[str, bytes]:
    """Each story's `serialize_story` bytes by story id. A command serializes
    its stories once, here, and both digests below read the bytes."""
    return {story.story_id: serialize_story(story) for story in stories}


def corpus_digest(serialized: dict[str, bytes]) -> str:
    """The digest of a corpus, from its `serialized_stories`, in story id order."""
    h = hashlib.sha256()
    for story_id in sorted(serialized):
        h.update(serialized[story_id])
    return h.hexdigest()[:16]


def stage_inputs(stage: str, story_bytes: bytes, gateway) -> str:
    """The digest of what the `stage` file of a story is made from under
    `gateway`: the story's `serialize_story` bytes, the backend and model,
    and each template the stage can send (none on the mock backend) as
    `gateway.template` resolves it, so that a project override counts."""
    templates = () if gateway.is_mock else _STAGE_FILES[stage][3]
    texts = [gateway.config.backend, gateway.config.model_name, *map(gateway.template, templates)]
    parts = [story_bytes, *(text.encode("utf-8") for text in texts)]
    return hashlib.sha256(" ".join(hashlib.sha256(part).hexdigest() for part in parts).encode()).hexdigest()[:16]


def _fits(story: Story, stage: str, output) -> bool:
    """Whether a `stage` output can be the story's: timelines of its key items
    in its episodes, or one summary per episode naming none but its key items."""
    items = {item.item_id for item in story.key_items}
    if stage == "states":
        timelines = output[0]
        observed = (obs.episode_index for tl in timelines.values() for obs in tl.observations)
        return timelines.keys() <= items and all(i < len(story.episodes) for i in observed)
    named = {inter.item_id for summary in output for inter in summary.interactions}
    return len(output) == len(story.episodes) and named <= items


def load_story(path: Path) -> Story:
    """The story saved at `path`, or PersistenceError naming the file."""
    try:
        return parse_story(path.read_bytes())
    except OSError as e:
        raise PersistenceError(f"{path}: does not load ({e})") from None
    except (StoryParseError, ValidationError) as e:
        raise PersistenceError(f"{path}: {e}") from None


def _config_from_dict(raw: dict) -> tuple[GatewayConfig, RetrievalConfig, str]:
    for name in raw:
        if f"{name}?" not in CONFIG_SHAPE:
            raise ValidationError(f"$.{name}", "unknown config field")
    sections = []
    for section, cls in _CONFIG_SECTIONS.items():
        values = raw.get(section, {})
        for name in values:
            if f"{name}?" not in CONFIG_SHAPE[f"{section}?"]:
                raise ValidationError(f"$.{section}.{name}", "unknown config field")
        try:
            sections.append(cls(**values))
        except ValidationError as e:
            raise ValidationError(f"$.{section}.{e.field}", e.reason) from None
    granularity = raw.get("granularity", "summary")
    if granularity not in GRANULARITIES:
        expected = ", ".join(map(canonical_dumps, GRANULARITIES))
        raise ValidationError("$.granularity", f"must be one of {expected}, got {canonical_dumps(granularity):.40}")
    return sections[0], sections[1], granularity


def _listed_story_files(stories_dir: Path, names: list[str]) -> list[Path]:
    for i, name in enumerate(names):
        if not (stories_dir / name).is_file():
            raise ValidationError(f"$.files[{i}]", f"names no story file, got {canonical_dumps(name):.60}")
    return [stories_dir / name for name in names]


def _records_from_dict(raw: dict, index: FlatIndex) -> dict[str, SummaryRecord]:
    if raw.keys() != {entry.entry_id for entry in index.entries}:
        raise ValidationError("$", "must hold one record per entry of the index's .meta.json")
    for entry_id, value in raw.items():
        check(value, RECORD_SHAPE, f"$[{canonical_dumps(entry_id)}]")
    return records_from_dict(raw, index.entries)


def _lock_problem(path: Path) -> str:
    """Say who holds the lock at `path`, and whether that holder is gone."""
    try:
        pid_text, _, host = path.read_text("utf-8").partition(" ")
        pid = int(pid_text)
    except (OSError, ValueError):  # unreadable, or its owner has not written it yet
        return f"locked by another process ({path})"
    host = host.strip()
    if host in ("", socket.gethostname()) and not _pid_running(pid):
        return (
            f"stale lock: {path} says PID {pid} locked the project, but no process {pid} "
            "runs on this host; delete the file if no other command uses this project"
        )
    where = f" on {host}" if host else ""
    return f"locked by another process (PID {pid}{where}, {path})"


def _pid_running(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)  # signal 0 checks that the process exists and sends nothing
    except (ProcessLookupError, OverflowError):  # no such process, or larger than any PID
        return False
    except OSError:  # PermissionError: it runs under another user
        return True
    return True
