import random
import sys

import pytest

from conftest import random_any_formula, random_trace
from tracelogic import parser
from tracelogic.errors import ParseError
from tracelogic.formula import (
    TRUE,
    And,
    Atom,
    Diamond,
    MetricNext,
    Not,
    Seq,
    Star,
    Step,
    Test,
    TrueFormula,
    format_formula,
)
from tracelogic.parser import parse_formula, parse_program, parse_trace
from tracelogic.trace import TimedTrace, Trace, format_trace


def test_metric_next_formula():
    assert parse_formula("X[20,40) school") == MetricNext(20, 40, Atom("school"))


def test_dynamic_path_formula():
    f = parse_formula("<(a? ; tt)*> b")
    assert f == Diamond(Star(Seq(Test(Atom("a")), Step(TrueFormula()))), Atom("b"))


def test_incomplete_input_position():
    with pytest.raises(ParseError) as excinfo:
        parse_formula("a U")
    assert (excinfo.value.line, excinfo.value.column) == (1, 4)
    assert "formula" in excinfo.value.expected


def test_precedences():
    assert parse_formula("a -> b -> c") == parse_formula("a -> (b -> c)")
    assert parse_formula("a | b & c") == parse_formula("a | (b & c)")
    assert parse_formula("a & b U c") == parse_formula("a & (b U c)")
    assert parse_formula("a U b U c") == parse_formula("a U (b U c)")
    assert parse_formula("!a U b") == parse_formula("(!a) U b")
    assert parse_formula("X a & b") == parse_formula("(X a) & b")


def test_comments_and_whitespace():
    assert parse_formula("a &  % trailing comment\n b") == parse_formula("a & b")


def test_interval_errors():
    with pytest.raises(ParseError):
        parse_formula("X[5,5) a")
    with pytest.raises(ParseError):
        parse_formula("X[9,2) a")
    assert parse_formula("X[3,inf) a") == MetricNext(3, None, Atom("a"))


def test_temporal_step_guard_rejected():
    with pytest.raises(ParseError):
        parse_formula("<F a> b")
    with pytest.raises(ParseError):
        parse_formula("<(X a)> b")
    # but a temporal test is fine
    parse_formula("<(F a)?> b")


def test_path_grammar_shapes():
    assert parse_formula("<a + b> c") == parse_formula("<(a) + (b)> c")
    assert parse_formula("<a ; b*> c") != parse_formula("<(a ; b)*> c")
    assert parse_formula("<tt*> a") == parse_formula("<(tt)*> a")
    with pytest.raises(ParseError):
        parse_formula("<a*?> b")
    # A guard that starts with `(` may go on as a formula.
    assert parse_formula("<(a | b) & c> d") == parse_formula("<((a | b) & c)> d")
    assert parse_formula("<(a) -> b> c") == parse_formula("<(a -> b)> c")
    for text, column, expected, found in (
        ("<(a ; b) & c> d", 10, "'>'", "'&'"),
        ("<(X a) ; b> c", 6, "a propositional step guard or '?'", "')'"),
    ):
        with pytest.raises(ParseError) as error:
            parse_formula(text)
        assert (error.value.line, error.value.column, error.value.expected, error.value.found) == (
            1, column, expected, found,
        ), text


def _tests_in_groups(depth: int) -> str:
    return "<(" * depth + "a" + "? ; b)> c" * depth


def _tests_in_stars(depth: int) -> str:
    text = "a"
    for _ in range(depth):
        text = f"<(({text})? ; b)*> c"
    return text


@pytest.mark.parametrize("family", [_tests_in_groups, _tests_in_stars])
def test_nested_path_operands_are_read_a_bounded_number_of_times(monkeypatch, family):
    """Each level of nesting adds a bounded number of `unary` calls, where re-reading each operand doubled them."""
    unary = parser._Parser.unary
    calls = 0

    def counted(self):
        nonlocal calls
        calls += 1
        return unary(self)

    monkeypatch.setattr(parser._Parser, "unary", counted)
    for depth in (3, 6, 12):
        calls = 0
        parse_formula(family(depth))
        assert calls <= 5 * depth, (depth, calls)


def test_group_only_paths_read_each_failing_formula_once(monkeypatch):
    """A path that is only groups fails as a formula at every level; each failure is kept, so `unary` runs about once per level."""
    expected = parse_formula("<a ; b> c")
    unary = parser._Parser.unary
    calls = 0

    def counted(self):
        nonlocal calls
        calls += 1
        return unary(self)

    monkeypatch.setattr(parser._Parser, "unary", counted)
    for depth in (25, 50, 100):
        calls = 0
        assert parse_formula("<" + "(" * depth + "a ; b" + ")" * depth + "> c") == expected
        assert calls <= 2 * depth, (depth, calls)


def test_error_position_bounded():
    bad_inputs = ["a U", "<a", "X[", "{", "a &&& b", "(((", "a @"]
    for text in bad_inputs:
        with pytest.raises(ParseError) as excinfo:
            parse_formula(text)
        err = excinfo.value
        assert 1 <= err.column <= len(text) + 1


def test_parse_trace_timed():
    t = parse_trace("{drive}@0;{school}@25")
    assert t == TimedTrace((frozenset({"drive"}), frozenset({"school"})), (0, 25))


def test_parse_trace_eps_and_empty_letters():
    assert parse_trace("eps") == Trace(())
    assert parse_trace("{}") == Trace((frozenset(),))
    assert parse_trace("{a,b};{}") == Trace((frozenset({"a", "b"}), frozenset()))


def test_canonical_traces_read_by_splitting():
    """Texts in the form `format_trace` writes, timed or not, read as the token grammar reads them.

    A name off the atom rule, a stamp that is missing, not ASCII digits or
    smaller than the one before, and whitespace between two word characters
    are errors that the grammar places.  Other whitespace and comments are
    insignificant.
    """
    a, b, ab, empty = frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"}), frozenset()
    assert parse_trace("{};{}") == Trace((empty, empty))
    assert parse_trace("{a,b};{};{b,a,a};{a}") == Trace((ab, empty, ab, a))
    t = parse_trace("{a};{tt,eps};{a}")
    assert t == Trace((a, frozenset({"tt", "eps"}), a)) and t.letters[0] is t.letters[2]
    t = parse_trace("{a}@0;{a,b}@5;{}@5;{a}@007")
    assert t == TimedTrace((a, ab, empty, a), (0, 5, 5, 7)) and t.letters[0] is t.letters[3]
    for text, column, expected, found in (
        ("{a};{B}", 6, "an atom", "'B'"),
        ("{a};{b,}", 8, "an atom", "'}'"),
        ("{a,,b}", 4, "an atom", "','"),
        ("{a};;{b}", 5, "'{'", "';'"),
        ("{a}};{b}", 4, "';' or end of input", "'}'"),
        ("{a};{b}@1;{c}", 5, "an untimed step (no '@')", "a timestamp"),
        ("{a}@5;{b}@3", 11, "a timestamp >= 5", "3"),
        ("{a}@1;{b}", 10, "'@' (all steps must be timed)", "end of input"),
        ("{a}@1;{b};{c}@2", 10, "'@' (all steps must be timed)", "';'"),
        ("{a}@;{b}@1", 5, "a timestamp", "';'"),
        ("{a}@1٣;{b}@20", 6, "a token", "'٣'"),
        ("{a}@1;{b}@5;", 13, "'{'", "end of input"),
        ("{a}@1}@2", 6, "';' or end of input", "'}'"),
        ("{a b}", 4, "'}'", "'b'"),
        ("{a}@1 2", 7, "';' or end of input", "'2'"),
        ("{a}@1;{b} @ 2 3", 15, "';' or end of input", "'3'"),
    ):
        with pytest.raises(ParseError) as error:
            parse_trace(text)
        assert (error.value.line, error.value.column, error.value.expected, error.value.found) == (
            1, column, expected, found,
        ), text
    assert parse_trace("{a} ;{b}") == parse_trace("{a};{b}%;{c}") == Trace((a, b))
    assert parse_trace(" { a } @ 0 ;\n{b}@5 % x") == parse_trace("{a % c\n}@0;\r\n{b}@5") == TimedTrace((a, b), (0, 5))
    assert parse_trace("{a,\n b}@1 % c\n;{b}@1") == TimedTrace((ab, b), (1, 1))
    assert parse_trace(" eps % the empty trace") == Trace(())


def test_parse_trace_errors():
    with pytest.raises(ParseError):
        parse_trace("{a}@5;{b}@3")  # decreasing timestamps
    with pytest.raises(ParseError):
        parse_trace("{a}@1;{b}")  # mixed timed/untimed
    with pytest.raises(ParseError):
        parse_trace("{a};{b}@1")
    with pytest.raises(ParseError):
        parse_trace("{a}; $")


def test_parse_program_metric_rule():
    program = parse_program("X[20,40) school :- drive.")
    assert len(program.rules) == 1
    rule = program.rules[0]
    assert rule.head == MetricNext(20, 40, Atom("school"))
    assert rule.body == Atom("drive")


def test_parse_program_forms():
    program = parse_program(
        """
        % facts and constraints
        licensed.
        :- drive, not licensed.
        school :- drive.
        """
    )
    heads = [rule.head for rule in program.rules]
    assert heads == [Atom("licensed"), None, Atom("school")]
    assert [rule.body for rule in program.rules] == [TRUE, And(Atom("drive"), Not(Atom("licensed"))), Atom("drive")]


def test_parse_program_rejects_metric_bodies():
    with pytest.raises(ParseError):
        parse_program("school :- X[1,2) drive.")


def test_formula_round_trip_random():
    rng = random.Random(23)
    for _ in range(400):
        f = random_any_formula(rng, rng.randint(1, 14))
        text = format_formula(f)
        assert parse_formula(text) == f
        assert format_formula(parse_formula(text)) == text


def test_trace_round_trip_random():
    rng = random.Random(29)
    for _ in range(200):
        t = random_trace(rng, max_len=6, timed=rng.random() < 0.5)
        assert parse_trace(format_trace(t)) == t


@pytest.mark.parametrize(
    "parse, text, column, found",
    [
        (parse_trace, "{a}@²", 5, "²"),
        (parse_formula, "X[²,3) a", 3, "²"),
        (parse_trace, "{a}@1;{b}@٣", 11, "٣"),
        (parse_trace, "{a}@٣;{b}@5", 5, "٣"),
        (parse_formula, "aé", 2, "é"),
        (parse_trace, "{é}", 2, "é"),
    ],
)
def test_tokens_are_ascii(parse, text, column, found):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    err = excinfo.value
    assert (err.line, err.column, err.expected, err.found) == (1, column, "a token", repr(found))
    assert str(err) == f"1:{column}: expected a token, found {found!r}"


@pytest.mark.parametrize(
    "parse, text, column",
    [
        (parse_trace, "{a}@" + "9" * 5000, 5),
        (parse_trace, "{a}@1; {b}@" + "9" * 5000 + ";{c}@2", 12),
        (parse_formula, "X[" + "5" * 5000 + ",inf) a", 3),
        (parse_formula, "X[1," + "5" * 5000 + ") a", 5),
    ],
    ids=["first-stamp", "later-stamp", "lower-bound", "upper-bound"],
)
def test_numbers_past_the_digit_limit_are_positioned_errors(parse, text, column):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    limit = sys.get_int_max_str_digits()
    assert str(excinfo.value) == f"1:{column}: expected a number of at most {limit} digits, found 5000 digits"


def test_numbers_at_the_digit_limit_parse():
    digits = "9" * sys.get_int_max_str_digits()
    assert parse_trace("{a}@" + digits).times == (int(digits),)
    assert parse_formula(f"X[{digits},inf) a") == MetricNext(int(digits), None, Atom("a"))
