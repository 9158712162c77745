"""Seeded round-trip properties of the printers and the parsers (hypothesis).

`derandomize=True` makes every run draw the same examples, so these are
reproducible tier-1 tests; each property also checks that its strategy
reached every node type.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from tracelogic import formula as fm
from tracelogic.formula import format_formula
from tracelogic.parser import parse_formula, parse_trace
from tracelogic.trace import TimedTrace, Trace, format_trace

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# Atom names, keywords of other grammars among them; `tt` and `ff` would
# parse back as the constants.
NAMES = st.sampled_from(("a", "b", "c", "x_1", "aZ9", "eps", "inf", "not"))
LEAVES = st.one_of(NAMES.map(fm.Atom), st.just(fm.TRUE), st.just(fm.FALSE))
INTERVALS = st.integers(0, 40).flatmap(lambda lo: st.tuples(st.just(lo), st.none() | st.integers(lo + 1, lo + 40)))

UNARY = (fm.Not, fm.Next, fm.WeakNext, fm.Eventually, fm.Always, fm.Prev, fm.WeakPrev)
BINARY = (fm.And, fm.Or, fm.Implies, fm.Until, fm.Release, fm.Since, fm.Trigger)

PROPOSITIONAL = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        inner.map(fm.Not),
        st.builds(lambda op, l, r: op(l, r), st.sampled_from((fm.And, fm.Or, fm.Implies)), inner, inner),
    ),
    max_leaves=4,
)


def _paths(formulas):
    """Paths two combinators deep over steps and tests; a nested `st.recursive` would be slow to validate."""
    paths = st.one_of(PROPOSITIONAL.map(fm.Step), formulas.map(fm.Test))
    for _ in range(2):
        paths = st.one_of(
            paths,
            paths.map(fm.Star),
            st.builds(lambda op, l, r: op(l, r), st.sampled_from((fm.Seq, fm.Alt)), paths, paths),
        )
    return paths


def _extend(inner):
    return st.one_of(
        st.builds(lambda op, f: op(f), st.sampled_from(UNARY), inner),
        st.builds(lambda op, l, r: op(l, r), st.sampled_from(BINARY), inner, inner),
        st.builds(lambda op, i, f: op(*i, f), st.sampled_from((fm.MetricNext, fm.WeakMetricNext)), INTERVALS, inner),
        st.builds(lambda op, p, f: op(p, f), st.sampled_from((fm.Diamond, fm.Box)), _paths(inner), inner),
    )


FORMULAS = st.recursive(LEAVES, _extend, max_leaves=10)

LETTERS = st.frozensets(NAMES, max_size=3)
UNTIMED = st.lists(LETTERS, max_size=6).map(lambda ls: Trace(tuple(ls)))
TIMED = st.lists(st.tuples(LETTERS, st.integers(0, 30)), max_size=6).map(
    lambda steps: TimedTrace(tuple(l for l, _ in steps), tuple(sorted(t for _, t in steps)))
)


def _node_types(node) -> set:
    """Names of the formula and path node classes in a tree, with `hi=None` intervals as `...Inf`."""
    names = {type(node).__name__}
    if getattr(node, "hi", 0) is None:
        names.add(type(node).__name__ + "Inf")
    for field in dataclasses.fields(node):
        child = getattr(node, field.name)
        if isinstance(child, (fm.Formula, fm.PathExpr)):
            names |= _node_types(child)
    return names


def test_formula_round_trip():
    seen = set()

    @SETTINGS
    @given(FORMULAS)
    def check(f):
        seen.update(_node_types(f))
        assert parse_formula(format_formula(f)) == f

    check()
    every = {cls.__name__ for cls in UNARY + BINARY} | {
        "Atom", "TrueFormula", "FalseFormula", "MetricNext", "MetricNextInf", "WeakMetricNext",
        "WeakMetricNextInf", "Diamond", "Box", "Step", "Test", "Seq", "Alt", "Star",
    }
    assert every <= seen, every - seen


def test_trace_round_trip():
    seen = set()

    @SETTINGS
    @given(st.one_of(UNTIMED, TIMED))
    def check(t):
        seen.add((type(t).__name__, len(t) == 0))
        back = parse_trace(format_trace(t))
        if len(t) == 0:
            # Both empty traces print as `eps`, which reads back untimed.
            assert back == Trace(())
        else:
            assert back == t

    check()
    assert seen == {(kind, empty) for kind in ("Trace", "TimedTrace") for empty in (False, True)}


def test_empty_timed_trace_reads_back_untimed():
    assert format_trace(TimedTrace((), ())) == "eps"
    assert parse_trace("eps") == Trace(())
