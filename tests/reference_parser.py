"""The earlier path and trace grammars, as the reference for the parser.

`ReferenceParser` overrides four productions of `tracelogic.parser._Parser`.
Its `formula` keeps nothing it has read, and its `path_base` has two
branches: at `(` it first reads `( formula )` as a step or a test and, when
that fails, reads a grouped path `( path )` instead, so each level of
nesting doubles the work.  The library reads a formula from every path
operand and falls back to a group only where that fails at a `(`; its one
difference is that a guard that starts with `(` may go on with a formula
operator.  `parse_trace` here tokenizes the whole input first, so a character
that starts no token is reported before any grammar error, and `trace` and
`letter` then consume the `(kind, text, line, column)` tuples one at a time;
the library reads every valid trace by splitting.  `test_parser_properties.py`
requires the library to return the same value, or raise a `ParseError` with
the same fields, on generated and mutated texts.  The file name does not
match `test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

from tracelogic import formula as fm
from tracelogic.errors import ParseError
from tracelogic.parser import _FORMULA_OPS, _TEST, _Parser
from tracelogic.trace import Letter, TimedTrace, Trace


class ReferenceParser(_Parser):
    def formula(self) -> fm.Formula:
        return self.climb(_FORMULA_OPS, self.unary)

    def path_base(self) -> fm.PathExpr:
        if self.peek()[0] == "(":
            # A parenthesized formula (possibly a test) or a grouped path.
            save = self.i
            try:
                self.i += 1
                inner = self.formula()
                self.expect(")", "')'")
                return self.step_or_test(inner)
            except ParseError:
                self.i = save
            self.expect("(", "'('")
            grouped = self.path()
            self.expect(")", "')'")
            return grouped
        leaf = self.formula()
        return self.step_or_test(leaf)

    def step_or_test(self, leaf: fm.Formula) -> fm.PathExpr:
        if self.match(_TEST):
            return fm.Test(leaf)
        if not fm.is_propositional(leaf):
            self.fail("a propositional step guard or '?'")
        return fm.Step(leaf)

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


def _parse(src: str, production, expected_tail: str):
    parser = ReferenceParser(src)
    result = production(parser)
    if parser.peek()[0] != "eof":
        parser.fail(expected_tail)
    return result


def parse_formula(src: str) -> fm.Formula:
    return _parse(src, ReferenceParser.formula, "end of input")


def parse_trace(src: str) -> Trace | TimedTrace:
    return _parse(src, ReferenceParser.trace, "';' or end of input")
