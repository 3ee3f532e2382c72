"""Prompt template loading.

Templates are plain-text files with $name placeholders (string.Template
syntax, so literal JSON braces need no escaping). A project may override
any template by shipping its own copy under `prompts/`; the package data
provides the defaults.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from string import Template

from .errors import ContractError, PersistenceError

# template name -> the placeholders its callers fill in
TEMPLATE_FIELDS = {
    "extract_states": ("episode_text", "items_json"),
    "summarize": ("episode_text", "items_json"),
    "evaluate": ("episode_text", "context", "errors_json"),
    "answer": ("question", "context"),
    "sentiment": ("text",),
    "repair": ("raw_reply", "original_prompt"),
}


def load(name: str, root: Path | str | None = None) -> str:
    """Load a template by name, preferring `root/<name>.txt` when present. An
    override that cannot be read, or whose placeholders its callers do not
    fill, raises PersistenceError naming the file."""
    if name not in TEMPLATE_FIELDS:
        raise ContractError(f"unknown prompt template {name!r}")
    if root is not None:
        candidate = Path(root) / f"{name}.txt"
        if candidate.exists():
            try:
                text = candidate.read_text("utf-8")
                render(text, **dict.fromkeys(TEMPLATE_FIELDS[name], ""))  # raises what its callers' render would
            except (OSError, UnicodeDecodeError, ContractError) as e:
                raise PersistenceError(f"{candidate}: does not load ({e})") from None
            return text
    return resources.files("score").joinpath(f"prompts/{name}.txt").read_text("utf-8")


def render(template: str, **fields: str) -> str:
    try:
        return Template(template).substitute(**fields)
    except (KeyError, ValueError) as e:
        raise ContractError(f"prompt template placeholder error: {e}") from e


def default_templates() -> dict[str, str]:
    """Name -> text for all bundled templates (used to seed a project)."""
    return {name: load(name) for name in TEMPLATE_FIELDS}
