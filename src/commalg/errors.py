"""Exception types shared across the package."""

__all__ = ["QuiverError", "ParseError", "TruncationOverflowError", "InternalInvariantError"]


class QuiverError(ValueError):
    """Invalid input: malformed quiver, path, table, or request."""


class ParseError(QuiverError):
    """Syntax or semantic error in quiver DSL text, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class TruncationOverflowError(QuiverError):
    """Path enumeration exceeded the configured cap."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee failed. This signals a bug, not bad input."""
