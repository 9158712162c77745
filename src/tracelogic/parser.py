"""Text grammars for formulas, traces, and metric programs.

One compiled regular expression scans a formula or a program into plain
`(kind, text, line, column)` tuples before parsing starts.  Tokens are
ASCII: natural numbers `[0-9]+`, identifiers `[A-Za-z_][A-Za-z0-9_]*` and
the symbols below, whose kind is their own text.  `%` starts a line comment,
whitespace is insignificant, and any other character is an "expected a
token" error at its position.

The parser is recursive descent with one precedence-climbing loop for binary
operators, driven by an operator table per grammar: `->` (1, right
associative), `|` (2), `&` (3) and `U R S T` (4, right associative) for
formulas, `+` (1) and `;` (2) for path expressions.  These tables and every
other operator token are derived from the syntax table in `formula`, which
the printer reads too.  Prefix operators are collected in a loop and applied
innermost first.  Every syntax error carries an exact 1-based line/column
position.  A path operand is a formula, read as a step or, before `?`, as a
test; only where that fails at a `(` is it read again as a group `( path )`.
So `formula` keeps what it reads from each start token, the formula or the
`ParseError` the read raised, and reading the group again reads nothing twice.

A trace has two readers.  The first splits: a text in the form
`format_trace` writes (`{` first, the steps joined by `;`, no whitespace or
comment) splits on `};{`, or on `;{` and `}@` when it is timed, and each
distinct step body splits on `,` into a letter.  Every distinct name is
checked against the atom rule once, every stamp must be ASCII digits that
`int` converts, and `TimedTrace`, the one owner of the rule that stamps do
not decrease, must accept them.  A text it refuses is tried once more
without its comments and without its whitespace, unless whitespace
separates two word characters: no two word tokens meet in a valid trace, so
that whitespace is an error, and all other whitespace is insignificant.  The
second reader is the token grammar's `trace` production, for `eps` and for
every error, so an error reports what a token parse reports: a character that
starts no token first, wherever it stands.
"""

from __future__ import annotations

import re
import sys

from . import formula as fm
from .errors import InvalidValueError, ParseError
from .metric import MetricProgram, MetricRule
from .trace import Letter, TimedTrace, Trace

_TOKEN_RE = re.compile(
    r"""(?P<newline>\n)
      | (?P<skip>[ \t\r]+|%[^\n]*)
      | (?P<nat>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<symbol>->|:-|[()\[\]<>{},;@.!&|+*?])
      | (?P<other>.)""",
    re.VERBOSE | re.DOTALL,
)


def _binary_ops(kind: type) -> dict:
    """Binary operators building `kind` nodes: token text -> (precedence, right associative, node)."""
    return {sym: (prec, right, op) for op, (sym, prec, right) in fm.BINARY_SYNTAX.items() if issubclass(op, kind)}


# Operator tokens, all read off the syntax table in `formula`.
_FORMULA_OPS = _binary_ops(fm.Formula)
_PATH_OPS = _binary_ops(fm.PathExpr)
_PREFIX_OPS = {sym: op for op, sym in fm.PREFIX_SYNTAX.items()}
_METRIC_OPS = {sym: op for op, sym in fm.METRIC_SYNTAX.items()}
_MODALITIES = {opening: (closing, op) for op, (opening, closing) in fm.MODAL_SYNTAX.items()}
_STAR = fm.POSTFIX_SYNTAX[fm.Star]
_TEST = fm.POSTFIX_SYNTAX[fm.Test]
_METRIC_HEAD = fm.METRIC_SYNTAX[fm.MetricNext]

# Whitespace between two word characters, which no valid trace holds.
_WORD_GAP_RE = re.compile(r"[A-Za-z0-9_][ \t\r\n]+[A-Za-z0-9_]")
_NO_SPACES = dict.fromkeys(map(ord, " \t\r\n"))  # a `str.translate` table that deletes them
_COMMENT_RE = re.compile(r"%[^\n]*")


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        if kind == "skip":
            continue
        text = m.group()
        column = m.start() - line_start + 1
        if kind == "other":
            raise ParseError(line, column, "a token", repr(text))
        tokens.append((text if kind == "symbol" else kind, text, line, column))
    # A comment on the last line ends the input where the comment starts.
    end = src.find("%", line_start)
    tokens.append(("eof", "", line, (len(src) if end < 0 else end) - line_start + 1))
    return tokens


def _natural(tok: tuple[str, str, int, int]) -> int:
    """The value of a `nat` token; ParseError at the token past Python's limit on the digits `int` converts."""
    _, digits, line, column = tok
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            line, column, f"a number of at most {sys.get_int_max_str_digits()} digits", f"{len(digits)} digits"
        ) from None


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0
        # start token -> (formula, end token), or (the ParseError its read raised, start token)
        self.formulas: dict[int, tuple[fm.Formula | ParseError, int]] = {}

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.i]

    def match(self, text: str) -> bool:
        """Consume the next token if it is the symbol or keyword `text`."""
        if self.tokens[self.i][1] == text:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, expected: str) -> tuple[str, str, int, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            self.fail(expected)
        self.i += 1
        return tok

    def fail(self, expected: str):
        kind, text, line, column = self.tokens[self.i]
        raise ParseError(line, column, expected, "end of input" if kind == "eof" else repr(text))

    def name(self) -> str:
        """An atom name, checked against the one atom-name rule of `formula`."""
        kind, text, _, _ = self.tokens[self.i]
        if kind != "ident" or not fm._ATOM_RE.match(text):
            self.fail("an atom")
        self.i += 1
        return text

    def climb(self, ops: dict, operand, min_prec: int = 1):
        """Precedence climbing: operands joined by the operators of `ops` binding at least `min_prec`."""
        left = operand()
        while True:
            op = ops.get(self.tokens[self.i][1])
            if op is None or op[0] < min_prec:
                return left
            prec, right_assoc, node = op
            self.i += 1
            left = node(left, self.climb(ops, operand, prec if right_assoc else prec + 1))

    # -- formulas ----------------------------------------------------------

    def formula(self) -> fm.Formula:
        start = self.i
        kept = self.formulas.get(start)
        if kept is None:
            try:
                kept = self.climb(_FORMULA_OPS, self.unary), self.i
            except ParseError as error:  # not a RecursionError, which depends on the depth the read starts at
                kept = error, start
            self.formulas[start] = kept
        f, self.i = kept
        if isinstance(f, ParseError):
            raise f.with_traceback(None)
        return f

    def unary(self) -> fm.Formula:
        prefixes = []
        while True:
            text = self.tokens[self.i][1]
            if text in _MODALITIES:
                closing, node = _MODALITIES[text]
                self.i += 1
                path = self.path()
                self.expect(closing, f"'{closing}'")
                prefixes.append((node, path))
            elif text in _PREFIX_OPS:
                self.i += 1
                # `X[` could open a metric interval or a box modality; only an
                # interval can continue with a number.
                if text in _METRIC_OPS and self.tokens[self.i][0] == "[" and self.tokens[self.i + 1][0] == "nat":
                    prefixes.append((_METRIC_OPS[text], *self.interval()))
                else:
                    prefixes.append((_PREFIX_OPS[text],))
            else:
                break
        f = self.primary()
        for node, *args in reversed(prefixes):
            f = node(*args, f)
        return f

    def interval(self) -> tuple[int, int | None]:
        opening = self.expect("[", "'['")
        lo = _natural(self.expect("nat", "a natural number"))
        self.expect(",", "','")
        hi = None if self.match("inf") else _natural(self.expect("nat", "a natural number or 'inf'"))
        self.expect(")", "')'")
        if hi is not None and lo >= hi:
            raise ParseError(opening[2], opening[3], "a non-empty interval (lower < upper)", f"[{lo},{hi})")
        return lo, hi

    def primary(self) -> fm.Formula:
        if self.match("("):
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        if self.match("tt"):
            return fm.TRUE
        if self.match("ff"):
            return fm.FALSE
        if self.peek()[0] == "ident":
            return fm.Atom(self.name())
        self.fail("a formula")

    # -- path expressions --------------------------------------------------

    def path(self) -> fm.PathExpr:
        return self.climb(_PATH_OPS, self.path_postfix)

    def path_postfix(self) -> fm.PathExpr:
        base = self.path_base()
        while self.match(_STAR):
            base = fm.Star(base)
        return base

    def path_base(self) -> fm.PathExpr:
        start = self.i
        try:
            return self.step_or_test(self.formula())
        except ParseError:
            if self.tokens[start][0] != "(":
                raise
        self.i = start + 1  # a grouped path
        grouped = self.path()
        self.expect(")", "')'")
        return grouped

    def step_or_test(self, leaf: fm.Formula) -> fm.PathExpr:
        if self.match(_TEST):
            return fm.Test(leaf)
        try:
            return fm.Step(leaf)
        except InvalidValueError:
            self.fail("a propositional step guard or '?'")

    # -- traces ------------------------------------------------------------

    def trace(self) -> Trace | TimedTrace:
        if self.match("eps"):
            return Trace(())
        letters: list[Letter] = []
        times: list[int] = []
        while True:
            _, _, line, column = self.peek()
            letters.append(self.letter())
            if self.match("@"):
                if len(letters) > 1 and not times:
                    raise ParseError(line, column, "an untimed step (no '@')", "a timestamp")
                tok = self.expect("nat", "a timestamp")
                time = _natural(tok)
                if times and time < times[-1]:
                    raise ParseError(tok[2], tok[3], f"a timestamp >= {times[-1]}", tok[1])
                times.append(time)
            elif times:
                self.fail("'@' (all steps must be timed)")
            if not self.match(";"):
                return TimedTrace(tuple(letters), tuple(times)) if times else Trace(tuple(letters))

    def letter(self) -> Letter:
        self.expect("{", "'{'")
        names = []
        if not self.match("}"):
            names.append(self.name())
            while self.match(","):
                names.append(self.name())
            self.expect("}", "'}'")
        return frozenset(names)

    # -- metric programs -----------------------------------------------------

    def program(self) -> MetricProgram:
        rules = []
        while self.peek()[0] != "eof":
            rules.append(self.rule())
        return MetricProgram(tuple(rules))

    def rule(self) -> MetricRule:
        head = None if self.match(":-") else self.head()
        if head is not None and not self.match(":-"):
            self.expect(".", "'.' or ':-'")
            return MetricRule(head, fm.TRUE)
        body = self.literal()
        while self.match(","):
            body = fm.And(body, self.literal())
        self.expect(".", "'.'")
        return MetricRule(head, body)

    def head(self) -> fm.Atom | fm.MetricNext:
        if self.match(_METRIC_HEAD):
            lo, hi = self.interval()
            return fm.MetricNext(lo, hi, fm.Atom(self.name()))
        return fm.Atom(self.name())

    def literal(self) -> fm.Atom | fm.Not:
        if self.match("not"):
            return fm.Not(fm.Atom(self.name()))
        kind, text, line, column = self.peek()
        if kind == "ident" and text in _METRIC_OPS and self.tokens[self.i + 1][0] == "[":
            raise ParseError(line, column, "a plain atom (no metric operators in bodies)", text)
        return fm.Atom(self.name())


def _run(src: str, production, expected_tail: str):
    parser = _Parser(src)
    try:
        result = production(parser)
    except RecursionError:
        parser.fail("input nested less deeply")
    if parser.peek()[0] != "eof":
        parser.fail(expected_tail)
    return result


def parse_formula(src: str) -> fm.Formula:
    """Parse a formula; raises ParseError with line/column on bad input."""
    return _run(src, _Parser.formula, "end of input")


def _split_trace(src: str) -> Trace | TimedTrace | None:
    """The trace `src` in the form `format_trace` writes, else None.

    Untimed text splits on `};{` into one body per step; timed text splits
    on `;{` into steps and each step on its first `}@` into a body and a
    stamp.  The body `""` is `{}`, the empty letter.  Every stamp must be
    ASCII digits that `int` converts, `TimedTrace` must find them
    non-decreasing, and the names of the other letters must pass the atom
    rule, checked once per distinct name: a space, a comment or any other
    symbol leaves some name or stamp that does not.
    """
    if src[:1] != "{":
        return None
    if src[-1:] == "}":
        bodies, stamps = src[1:-1].split("};{"), None
    else:
        bodies, _, stamps = zip(*[step.partition("}@") for step in src[1:].split(";{")])
        digits = "".join(stamps)
        if "" in stamps or not (digits.isascii() and digits.isdigit()):  # "" where a step lacks `}@`
            return None
    letters = {body: frozenset(body.split(",")) for body in set(bodies)}
    empty = letters.pop("", None)  # {""}, which names no atom
    if not all(map(fm._ATOM_RE.match, frozenset().union(*letters.values()))):
        return None
    if empty is not None:
        letters[""] = frozenset()
    steps = tuple(map(letters.__getitem__, bodies))
    try:
        return Trace(steps) if stamps is None else TimedTrace(steps, tuple(map(int, stamps)))
    except ValueError:  # a stamp past the digit limit, or decreasing stamps; the grammar places the error
        return None


def parse_trace(src: str) -> Trace | TimedTrace:
    """Parse `eps` or `;`-separated steps `{a,b}`, optionally all timed with `@t`."""
    trace = _split_trace(src)
    if trace is None:
        text = _COMMENT_RE.sub("", src) if "%" in src else src
        if not _WORD_GAP_RE.search(text):
            trace = _split_trace(text.translate(_NO_SPACES))
    return trace if trace is not None else _run(src, _Parser.trace, "';' or end of input")


def parse_program(src: str) -> MetricProgram:
    """Parse `.`-terminated rules: `head :- body.`, `head.`, or `:- body.`."""
    return _run(src, _Parser.program, "a rule")
