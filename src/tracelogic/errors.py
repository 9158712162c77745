"""Shared exception types."""


class TraceLogicError(Exception):
    """Base class for all library errors."""


class InvalidValueError(TraceLogicError, ValueError):
    """A value breaks an invariant of the value it builds or the call it is given."""


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


class _LimitError(TraceLogicError):
    """An error that stops work at a size limit.

    `stage` names the work, `limit` is its limit and `reached` the size it
    had reached when it stopped.  Each is None when the raiser did not give it.
    """

    def __init__(self, message: str, *, stage: str | None = None, limit: int | None = None, reached: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.limit = limit
        self.reached = reached


class BudgetError(_LimitError):
    """Automaton construction exceeded its state budget.

    `limit` is the construction's budget of states and `reached` the number
    of states it had made.  The constructions stop at the first state past
    the budget, so `reached` is `limit + 1` for every error they raise.
    """


class SizeLimitError(_LimitError):
    """Requested enumeration exceeds the configured size bound.

    `stage` is "letters" when an alphabet has too many atoms to spell out
    its letters, with `limit` the atom bound and `reached` the atom count,
    "enumeration" when a trace enumeration is too large, "dot" when a DOT
    rendering would draw more disjuncts than its bound, and "format" when a
    timestamp has more digits than `limit`, Python's bound on printing an int.
    The enumeration error's `reached` is None when the bound compares
    exponents, as the size is never built.
    """
