"""Exception types shared across the package."""


class RankEloError(Exception):
    """Base class for every error raised by this package."""


class InputError(RankEloError, ValueError):
    """User-supplied data or configuration is invalid."""


class ParseError(InputError):
    """A round or timeline file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SnapshotError(InputError):
    """A snapshot file is corrupt, truncated, or has an unsupported version."""


class InternalError(RankEloError, RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""
