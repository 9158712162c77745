"""Text grammars for formulas, traces, and metric programs.

All three parsers are hand-written recursive descent over a shared lexer,
so every syntax error carries an exact 1-based line/column position.
`%` starts a line comment; whitespace is insignificant.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as fm
from .errors import ParseError
from .metric import MetricHead, MetricProgram, MetricRule, PlainHead
from .trace import Letter, TimedTrace, Trace

_SYMBOLS = ("->", ":-", "(", ")", "[", "]", "<", ">", "{", "}", ",", ";", "@", ".", "!", "&", "|", "+", "*", "?")
_UNARY_OPS = {"X", "WX", "F", "G", "Y", "WY"}
_BINARY_OPS = {"U": fm.Until, "R": fm.Release, "S": fm.Since, "T": fm.Trigger}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "nat", "eof", or the symbol itself
    text: str
    line: int
    column: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and src[i] != "\n":
                i += 1
            continue
        two = src[i : i + 2]
        if two in ("->", ":-"):
            tokens.append(_Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if c in "()[]<>{},;@.!&|+*?":
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(_Token("nat", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, "a token", repr(c))
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def match(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.advance()
            return True
        return False

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(expected)
        return self.advance()

    def fail(self, expected: str):
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise ParseError(tok.line, tok.column, expected, found)

    def at_ident(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def atom(self) -> fm.Atom:
        tok = self.expect("ident", "an atom")
        try:
            return fm.Atom(tok.text)
        except ValueError:
            raise ParseError(tok.line, tok.column, "an atom", repr(tok.text)) from None

    # -- formulas ----------------------------------------------------------

    def formula(self) -> fm.Formula:
        left = self.disjunction()
        if self.match("->"):
            return fm.Implies(left, self.formula())
        return left

    def disjunction(self) -> fm.Formula:
        left = self.conjunction()
        while self.match("|"):
            left = fm.Or(left, self.conjunction())
        return left

    def conjunction(self) -> fm.Formula:
        left = self.binary_temporal()
        while self.match("&"):
            left = fm.And(left, self.binary_temporal())
        return left

    def binary_temporal(self) -> fm.Formula:
        left = self.unary()
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _BINARY_OPS:
            self.advance()
            return _BINARY_OPS[tok.text](left, self.binary_temporal())
        return left

    def unary(self) -> fm.Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return fm.Not(self.unary())
        if tok.kind == "<":
            self.advance()
            path = self.path()
            self.expect(">", "'>'")
            return fm.Diamond(path, self.unary())
        if tok.kind == "[":
            self.advance()
            path = self.path()
            self.expect("]", "']'")
            return fm.Box(path, self.unary())
        if tok.kind == "ident" and tok.text in _UNARY_OPS:
            self.advance()
            # `X[` could open a metric interval or a box modality; only an
            # interval can continue with a number.
            if tok.text in ("X", "WX") and self.peek().kind == "[" and self.tokens[self.i + 1].kind == "nat":
                lo, hi = self.interval()
                arg = self.unary()
                return fm.MetricNext(lo, hi, arg) if tok.text == "X" else fm.WeakMetricNext(lo, hi, arg)
            arg = self.unary()
            match tok.text:
                case "X":
                    return fm.Next(arg)
                case "WX":
                    return fm.WeakNext(arg)
                case "F":
                    return fm.Eventually(arg)
                case "G":
                    return fm.Always(arg)
                case "Y":
                    return fm.Prev(arg)
                case "WY":
                    return fm.WeakPrev(arg)
        return self.primary()

    def interval(self) -> tuple[int, int | None]:
        opening = self.expect("[", "'['")
        lo = int(self.expect("nat", "a natural number").text)
        self.expect(",", "','")
        tok = self.peek()
        if tok.kind == "nat":
            self.advance()
            hi: int | None = int(tok.text)
        elif self.at_ident("inf"):
            self.advance()
            hi = None
        else:
            self.fail("a natural number or 'inf'")
        self.expect(")", "')'")
        if hi is not None and lo >= hi:
            raise ParseError(opening.line, opening.column, "a non-empty interval (lower < upper)", f"[{lo},{hi})")
        return lo, hi

    def primary(self) -> fm.Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        if tok.kind == "ident":
            if tok.text == "tt":
                self.advance()
                return fm.TRUE
            if tok.text == "ff":
                self.advance()
                return fm.FALSE
            return self.atom()
        self.fail("a formula")

    # -- path expressions --------------------------------------------------

    def path(self) -> fm.PathExpr:
        left = self.path_seq()
        while self.match("+"):
            left = fm.Alt(left, self.path_seq())
        return left

    def path_seq(self) -> fm.PathExpr:
        left = self.path_postfix()
        while self.match(";"):
            left = fm.Seq(left, self.path_postfix())
        return left

    def path_postfix(self) -> fm.PathExpr:
        base = self.path_base()
        while self.match("*"):
            base = fm.Star(base)
        return base

    def path_base(self) -> fm.PathExpr:
        if self.peek().kind == "(":
            # A parenthesized formula (possibly a test) or a grouped path.
            save = self.i
            try:
                self.advance()
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
        if self.match("?"):
            return fm.Test(leaf)
        if not fm.is_propositional(leaf):
            self.fail("a propositional step guard or '?'")
        return fm.Step(leaf)

    # -- traces --------------------------------------------------------------

    def trace(self) -> Trace | TimedTrace:
        if self.at_ident("eps"):
            self.advance()
            return Trace(())
        letters: list[Letter] = []
        times: list[int] = []
        timed: bool | None = None
        while True:
            tok = self.peek()
            letters.append(self.letter())
            if self.peek().kind == "@":
                if timed is False:
                    raise ParseError(tok.line, tok.column, "an untimed step (no '@')", "a timestamp")
                timed = True
                self.advance()
                stamp_tok = self.expect("nat", "a timestamp")
                stamp = int(stamp_tok.text)
                if times and stamp < times[-1]:
                    raise ParseError(
                        stamp_tok.line, stamp_tok.column, f"a timestamp >= {times[-1]}", stamp_tok.text
                    )
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
        names: set[str] = set()
        if self.peek().kind != "}":
            names.add(self.atom().name)
            while self.match(","):
                names.add(self.atom().name)
        self.expect("}", "'}'")
        return frozenset(names)

    # -- metric programs -----------------------------------------------------

    def program(self) -> MetricProgram:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.rule())
        return MetricProgram(tuple(rules))

    def rule(self) -> MetricRule:
        head = None
        if not self.match(":-"):
            head = self.head()
            if not self.match(":-"):
                self.expect(".", "'.' or ':-'")
                return MetricRule(head, ())
        body = [self.literal()]
        while self.match(","):
            body.append(self.literal())
        self.expect(".", "'.'")
        return MetricRule(head, tuple(body))

    def head(self):
        if self.at_ident("X"):
            self.advance()
            lo, hi = self.interval()
            return MetricHead(lo, hi, self.atom().name)
        return PlainHead(self.atom().name)

    def literal(self) -> tuple[str, bool]:
        if self.at_ident("not"):
            self.advance()
            return (self.atom().name, False)
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("X", "WX") and self.tokens[self.i + 1].kind == "[":
            raise ParseError(tok.line, tok.column, "a plain atom (no metric operators in bodies)", tok.text)
        return (self.atom().name, True)


def _run(src: str, production, expected_tail: str):
    parser = _Parser(src)
    try:
        result = production(parser)
    except RecursionError:
        parser.fail("input nested less deeply")
    if parser.peek().kind != "eof":
        parser.fail(expected_tail)
    return result


def parse_formula(src: str) -> fm.Formula:
    """Parse a formula; raises ParseError with line/column on bad input."""
    return _run(src, _Parser.formula, "end of input")


def parse_trace(src: str) -> Trace | TimedTrace:
    """Parse `eps` or `;`-separated steps `{a,b}`, optionally all timed with `@t`."""
    return _run(src, _Parser.trace, "';' or end of input")


def parse_program(src: str) -> MetricProgram:
    """Parse `.`-terminated rules: `head :- body.`, `head.`, or `:- body.`."""
    return _run(src, _Parser.program, "a rule")
