"""The oracle and the automata agree on long traces and generated formulas.

The suite's other backend checks use traces of at most four letters;
these use traces of up to 200 letters, plus two 2,000-letter traces on
which the old quadratic and quartic evaluation cores were impractical.
"""

import random
import sys
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    alternation,
    eventually_chain,
    random_any_formula,
    random_core_formula,
    random_trace,
    release_chain,
    surface_formulas,
    until_chain,
)
from tracelogic import formula as fm
from tracelogic import oracle
from tracelogic.afa import AFA
from tracelogic.errors import ParseError
from tracelogic.fa import build_dfa, dealternate, determinize, dfa_accepts, minimize, nfa_accepts
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
    for child in fm.children(node):
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


DEEP_LETTERS = st.sampled_from(tuple(map(frozenset, ({"a"}, {"b"}, {"a", "b"}, (), {"c"}, {"a", "c"}, {"b", "c"}))))
BA = (frozenset("b"), frozenset("a"))
# Traces of 0 to 200 letters: a block repeated, so that deep chains meet long alternations, then a free tail.
DEEP_TRACES = st.builds(
    lambda block, times, tail: Trace(tuple((block * times + tail)[:200])),
    st.lists(DEEP_LETTERS, min_size=1, max_size=4),
    st.integers(0, 60),
    st.lists(DEEP_LETTERS, max_size=20),
)


def test_deep_formulas_match_oracle():
    """Both automata agree with the oracle on deep formulas: nested chains and alternations under a star.

    The until, F and release chains are built at depths 32 and 64, the
    alternation family `<((a? + b?) ; … ; (a? + b?))* ; tt> c` at n = 8 and
    12, and the minimal DFA of `build_dfa` on the F chains of depth 8 and
    16.  Each example draws a trace of 0 to 200 letters over {a, b, c}, and
    each formula must be seen both to hold and to fail; two explicit
    examples alternate b and a, which F chains need.  The examples are
    few because the 2AFA's run on a release chain costs about d^3 per letter
    (up to 2 s for a 200-letter trace at depth 64).
    """
    ap = ("a", "b", "c")
    texts = [chain(depth) for chain in (until_chain, eventually_chain, release_chain) for depth in (32, 64)]
    texts += [alternation(n) for n in (8, 12)]
    formulas = [parse_formula(text) for text in texts]
    automata = [(AFA(core, ap), TwoAFA(core, ap)) for core in (to_dynamic_core(nnf(f)) for f in formulas)]
    shallow = {text: parse_formula(text) for text in map(eventually_chain, (8, 16))}
    dfas = [build_dfa(f, ap) for f in shallow.values()]
    seen = Counter()

    @settings(derandomize=True, max_examples=6, deadline=None, database=None)
    @given(DEEP_TRACES)
    @example(Trace(BA * 100))  # every F chain holds: it needs one letter per eventuality
    @example(Trace(BA * 24))  # F chains up to depth 48 hold
    def check(t):
        for text, f, (one_way, two_way) in zip(texts, formulas, automata):
            verdict = oracle.holds(f, t)
            assert one_way.accepts(t) == verdict, (text[:24], t)
            assert two_way.accepts(t) == verdict, (text[:24], t)
            seen[text, verdict] += 1
        for (text, f), dfa in zip(shallow.items(), dfas):
            verdict = oracle.holds(f, t)
            assert dfa_accepts(dfa, t) == verdict, (text, t)
            seen[text, verdict] += 1

    check()
    assert all(seen[text, True] and seen[text, False] for text in [*texts, *shallow]), seen


def test_deepest_parsed_next_chain_runs_through_every_backend():
    """The deepest `X (X (… a …))` that `parse_formula` reads holds on `{a}` repeated depth + 1 times everywhere.

    The depth is found by stepping down from half the recursion limit, which
    the parser, at more than two frames per nesting level, cannot reach; so
    each Python version finds its own limit (237 under pytest on CPython
    3.11).  Normal forms, fragment check, atoms, the automata and the oracle
    must then take no more frames per nesting level than the parser.  The
    minimal DFA counts the depth + 1 letters up to the `a` and has an
    accepting and a rejecting sink.
    """
    start = depth = sys.getrecursionlimit() // 2
    while True:
        try:
            f = parse_formula("X (" * depth + "a" + ")" * depth)
            break
        except ParseError:
            depth -= 1
    assert depth < start
    t = Trace((frozenset({"a"}),) * (depth + 1))
    core = to_dynamic_core(nnf(f))
    one_way = AFA(core)
    assert oracle.holds(f, t) and one_way.accepts(t) and TwoAFA(core).accepts(t)
    assert nfa_accepts(dealternate(one_way), t)
    dfa = build_dfa(f)
    assert dfa_accepts(dfa, t) and dfa.n_states == depth + 3
