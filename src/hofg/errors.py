"""Error types shared across the package.

Every reported failure is an explicit exception.  An input outside a public
function's documented domain raises DomainError; past a top edge of the rank
table it is the subclass RankOverflow.  fibonacci._outside builds both.
"""

from __future__ import annotations


class HofgError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HofgError):
    """Input is outside the function's documented domain."""


class RankOverflow(DomainError):
    """The input needs a rank past the fixed Fibonacci table (0..91)."""


class _LineError(HofgError):
    """An error at a 1-based b-file line, carried as line_no.

    The arguments stay in args, so the error survives pickling (a check
    worker's exceptions cross a process boundary).
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)
        self.line_no = line_no

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.args[1]}"


class ParseError(_LineError):
    """A b-file line is malformed. Carries the 1-based line number."""


class GapError(_LineError):
    """B-file indices are not consecutive."""
