"""Error types shared across the package.

Every reported failure is an explicit exception; arithmetic never wraps
around silently and out-of-domain inputs never produce garbage values.
"""

from __future__ import annotations


class HofgError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HofgError):
    """Input is outside the function's documented domain."""


class RankOverflow(HofgError):
    """A Fibonacci rank outside the fixed table (0..91) was required."""


class ValueOverflow(HofgError):
    """A checked integer operation left the supported value range."""


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


class DepthLimit(HofgError):
    """A tree slice deeper than the supported maximum was requested."""
