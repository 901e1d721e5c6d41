"""Shared exception types.

Exit-code mapping used by the CLI: ParseError -> 2, PreconditionError and
its subclasses -> 3, NumericError -> 4.
"""


class SpencerLabError(Exception):
    pass


class AmbientMismatchError(SpencerLabError):
    """Operands live over different variable lists."""


class PreconditionError(SpencerLabError):
    """An operation was called outside its stated domain."""


class DegenerateSymbolError(PreconditionError):
    """Principal part of a system vanishes identically at the chosen point."""


class ObstructionError(PreconditionError):
    """Flat-connection reduction failed; carries the offending polynomial."""

    def __init__(self, message, obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


class NonIntegerIndexError(SpencerLabError):
    """An index integral came out non-integral: the class data is inconsistent."""


class NumericError(SpencerLabError):
    """A numerical continuation failed; carries diagnostics."""


class ParseError(SpencerLabError):
    """Positioned syntax or semantic error from the PDE DSL."""

    def __init__(self, message, line=None, col=None, expected=None):
        self.line = line
        self.col = col
        self.expected = sorted(expected) if expected else []
        loc = f" at {line}:{col}" if line is not None else ""
        exp = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{loc}{exp}")
