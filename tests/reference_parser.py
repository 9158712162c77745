"""The trace grammar written out on the token list, as the reference for the trace parser.

`parse_trace` here tokenizes the whole input first, so a character that
starts no token is reported before any grammar error, and `trace` and
`letter` then consume the `(kind, text, line, column)` tuples one at a time.
`tracelogic.parser` reads every valid trace by splitting and gives `eps` and
every error from its own `trace` production, which this one overrides.
`test_parser_properties.py` requires the library to return the same value,
or raise a `ParseError` with the same fields, on long generated and mutated
trace texts.  The file name does not match `test_*.py`, so pytest does not
collect it.
"""

from __future__ import annotations

from tracelogic.errors import ParseError
from tracelogic.parser import _Parser
from tracelogic.trace import Letter, TimedTrace, Trace


class TokenParser(_Parser):
    def trace(self) -> Trace | TimedTrace:
        if self.match("eps"):
            return Trace(())
        letters: list[Letter] = []
        times: list[int] = []
        timed: bool | None = None
        while True:
            tok = self.peek()
            letters.append(self.letter())
            if self.match("@"):
                if timed is False:
                    raise ParseError(tok[2], tok[3], "an untimed step (no '@')", "a timestamp")
                timed = True
                _, text, line, column = self.expect("nat", "a timestamp")
                stamp = int(text)
                if times and stamp < times[-1]:
                    raise ParseError(line, column, f"a timestamp >= {times[-1]}", text)
                times.append(stamp)
            else:
                if timed is True:
                    self.fail("'@' (all steps must be timed)")
                timed = False
            if not self.match(";"):
                break
        if timed:
            return TimedTrace(tuple(letters), tuple(times))
        return Trace(tuple(letters))

    def letter(self) -> Letter:
        self.expect("{", "'{'")
        names = []
        if self.peek()[0] != "}":
            names.append(self.name())
            while self.match(","):
                names.append(self.name())
        self.expect("}", "'}'")
        return frozenset(names)


def parse_trace(src: str) -> Trace | TimedTrace:
    parser = TokenParser(src)
    result = parser.trace()
    if parser.peek()[0] != "eof":
        parser.fail("';' or end of input")
    return result
