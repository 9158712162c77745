"""The oracle and the automata agree on long traces and generated formulas.

The suite's other backend checks use traces of at most four letters;
these use traces of up to 200 letters, plus two 2,000-letter traces on
which the old quadratic and quartic evaluation cores were impractical.
"""

import dataclasses
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_any_formula, random_core_formula, random_trace, surface_formulas
from tracelogic import oracle
from tracelogic.afa import AFA
from tracelogic.fa import dealternate, determinize, dfa_accepts, minimize, nfa_accepts
from tracelogic.formula import Box, Prev, Since, Star, Trigger, WeakPrev, format_formula, nnf, to_dynamic_core
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


def _subterms(node):
    yield node
    for field in dataclasses.fields(node):
        child = getattr(node, field.name)
        if dataclasses.is_dataclass(child):
            yield from _subterms(child)


def _star_under_box(f) -> bool:
    return any(isinstance(g, Box) and any(isinstance(p, Star) for p in _subterms(g.path)) for g in _subterms(f))


def _nested_past(f) -> bool:
    past = (Prev, WeakPrev, Since, Trigger)
    return any(isinstance(g, past) and any(isinstance(h, past) for h in _subterms(g) if h is not g) for g in _subterms(f))


SURFACE_TRACES = st.lists(st.frozensets(st.sampled_from("abc")), max_size=40).map(lambda letters: Trace(tuple(letters)))


def test_backends_match_oracle_on_surface_formulas():
    """The AFA, the NFA, the minimal DFA and the 2AFA agree with the oracle on drawn surface formulas.

    Each example draws a future formula, run on all four backends, and one
    that may use past operators, run on the 2AFA, and traces of 0 to 40
    letters over {a, b, c}.  Sugar reaches the automata through NNF and the
    dynamic core; the oracle reads the formula as drawn.  The draws must
    reach what `random_core_formula` rarely does: an NFA letter with two
    successor sets in a fifth of the examples, stars in box paths, and past
    operators nested in past operators.
    """
    ap = ("a", "b", "c")
    seen = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(surface_formulas(), surface_formulas(past=True), st.lists(SURFACE_TRACES, min_size=1, max_size=3))
    def check(future, with_past, traces):
        core = to_dynamic_core(nnf(future))
        one_way, two_way = AFA(core, ap), TwoAFA(core, ap)
        nfa = dealternate(one_way)
        dfa = minimize(determinize(nfa))
        past_way = TwoAFA(to_dynamic_core(nnf(with_past)), ap)
        for t in traces:
            verdict = oracle.holds(future, t)
            assert one_way.accepts(t) == verdict
            assert nfa_accepts(nfa, t) == verdict
            assert dfa_accepts(dfa, t) == verdict
            assert two_way.accepts(t) == verdict
            assert past_way.accepts(t) == oracle.holds(with_past, t)
        seen["examples"] += 1
        seen["branching"] += any(len(targets) > 1 for table in nfa.tables for targets in table.values())
        seen["star under box"] += _star_under_box(future) or _star_under_box(with_past)
        seen["nested past"] += _nested_past(with_past)

    check()
    assert seen["branching"] >= seen["examples"] / 5, seen
    assert seen["star under box"] and seen["nested past"], seen
