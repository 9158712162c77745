"""Shared exception types."""


class TraceLogicError(Exception):
    """Base class for all library errors."""


class ParseError(TraceLogicError):
    """Syntax error with a 1-based source position."""

    def __init__(self, line: int, column: int, expected: str, found: str):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(f"{line}:{column}: expected {expected}, found {found}")


class UnsupportedOperatorError(TraceLogicError):
    """Formula uses a connective the chosen backend cannot handle."""


class UntimedTraceError(TraceLogicError):
    """Metric connective evaluated over a trace without timestamps."""


class AlphabetMismatchError(TraceLogicError):
    """Trace letters mention atoms outside the automaton alphabet."""


class BudgetError(TraceLogicError):
    """Automaton construction exceeded its state budget.

    `stage` names the construction, `limit` is its budget of states and
    `reached` the number of states it had made when it stopped.  The
    constructions stop at the first state past the budget, so `reached` is
    `limit + 1` for every error they raise.  Each is None when the raiser
    did not give it.
    """

    def __init__(self, message: str, *, stage: str | None = None, limit: int | None = None, reached: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.limit = limit
        self.reached = reached


class SizeLimitError(TraceLogicError):
    """Requested enumeration exceeds the configured size bound."""
