"""Exception hierarchy shared across the package.

Library code raises these and never calls sys.exit; the CLI maps them
to exit codes in one place. The message, not a subclass, says which
reply or file failed.
"""

from __future__ import annotations


class ScoreError(Exception):
    """Base class for every error raised by this package."""


class ContractError(ScoreError):
    """A caller violated a documented precondition."""


class ValidationError(ScoreError):
    """Schema or invariant violation, naming the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message


class JsonParseError(ValueError):
    """JSON that `jsonio.parse_json` refuses: its `reason`, and `byte_offset` where known."""

    def __init__(self, reason: str, byte_offset: int | None = None):
        super().__init__(reason if byte_offset is None else f"{reason} (byte offset {byte_offset})")
        self.reason = reason
        self.byte_offset = byte_offset


class StoryParseError(ScoreError, JsonParseError):
    """Input document is not parseable at all (as opposed to invalid)."""


class PersistenceError(ScoreError):
    """Corrupt, truncated, or version-mismatched on-disk artifact."""


class TransportError(ScoreError):
    """Remote backend unreachable or persistently failing.

    `status` is the HTTP status of the reply, when there was one, and
    `retry_after` the seconds its `Retry-After` header asked to wait.
    """

    def __init__(self, message: str, status: int | None = None, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class UncachedRequestError(ScoreError):
    """Replay-mode request whose key is absent from the cache."""


class GatewayReplyError(ScoreError):
    """A backend reply could not be used; carries the raw reply text. A
    structured reply's error names its prompt template (see `complete_parsed`)."""

    def __init__(self, message: str, raw_reply: str = ""):
        super().__init__(message)
        self.raw_reply = raw_reply
