"""The oracle and the automata agree on long traces and generated formulas.

The suite's other backend checks use traces of at most four letters;
these use traces of 20 to 200 letters, plus two 2,000-letter traces on
which the old quadratic and quartic evaluation cores were impractical.
"""

import random

from conftest import random_any_formula, random_core_formula, random_trace
from tracelogic import oracle
from tracelogic.afa import AFA
from tracelogic.formula import format_formula, nnf, to_dynamic_core
from tracelogic.parser import parse_formula
from tracelogic.trace import Trace
from tracelogic.twafa import TwoAFA

AP = ("a", "b")


def _long_traces(rng, count):
    return [random_trace(rng, 200, min_len=20) for _ in range(count)]


def test_two_way_matches_oracle_with_past():
    rng = random.Random(97)
    for _ in range(40):
        f = random_core_formula(rng, rng.randint(4, 14), past=True)
        automaton = TwoAFA(f, AP)
        for t in _long_traces(rng, 3):
            assert automaton.accepts(t) == oracle.holds(f, t), format_formula(f)


def test_both_automata_match_oracle_on_future_fragment():
    rng = random.Random(101)
    for _ in range(40):
        f = random_core_formula(rng, rng.randint(4, 14), past=False)
        one_way, two_way = AFA(f, AP), TwoAFA(f, AP)
        for t in _long_traces(rng, 3):
            verdict = oracle.holds(f, t)
            assert one_way.accepts(t) == verdict, format_formula(f)
            assert two_way.accepts(t) == verdict, format_formula(f)


def test_two_way_matches_oracle_on_surface_syntax():
    # Sugar, implication and negation reach the automaton through NNF and
    # the dynamic core; the oracle reads the formula as written.
    rng = random.Random(103)
    checked = 0
    while checked < 40:
        f = random_any_formula(rng, rng.randint(4, 12))
        if "X[" in format_formula(f):
            continue  # metric next has no automaton
        automaton = TwoAFA(to_dynamic_core(nnf(f)), AP)
        for t in _long_traces(rng, 2):
            assert automaton.accepts(t) == oracle.holds(f, t), format_formula(f)
        checked += 1


def test_two_thousand_letters():
    t = Trace((frozenset({"a"}),) * 1999 + (frozenset({"b"}),))
    for text in ("G <(a+b)*> b", "a U b"):
        f = parse_formula(text)
        core = to_dynamic_core(nnf(f))
        verdict = oracle.holds(f, t)
        assert AFA(core, AP).accepts(t) == verdict, text
        assert TwoAFA(core, AP).accepts(t) == verdict, text
    assert oracle.holds(parse_formula("a U b"), t) is True
    assert oracle.holds(parse_formula("G <(a+b)*> b"), t) is False
