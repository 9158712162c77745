"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import random
import time

from conftest import exhaustive_core_formulas, random_any_formula, random_core_formula, random_trace, relabelled
from test_metric import brute_minimum
from tracelogic import oracle
from tracelogic.afa import AFA
from tracelogic.fa import (
    build_dfa,
    dealternate,
    determinize,
    dfa_accepts,
    equivalent,
    minimize,
    nfa_accepts,
)
from tracelogic.formula import format_formula, nnf, to_dynamic_core
from tracelogic.metric import (
    ConstraintSystem,
    DiffConstraint,
    Infeasible,
    Witness,
    check_program,
    extract_constraints,
    feasible,
)
from tracelogic.parser import parse_formula, parse_program, parse_trace
from tracelogic.trace import Trace, enumerate_traces, format_trace
from tracelogic.twafa import TwoAFA

AP = ("a", "b")


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _core(f):
    return to_dynamic_core(nnf(f))


def test_criterion_1_exhaustive_cross_validation():
    start = time.time()
    corpus = exhaustive_core_formulas(5)
    rng = random.Random(0)
    corpus += [random_core_formula(rng, rng.randint(1, 10)) for _ in range(200)]
    traces = list(enumerate_traces(AP, 4))
    assert len(traces) == 341
    disagreements = 0
    for f in corpus:
        automaton = AFA(f, AP)
        nfa = dealternate(automaton)
        dfa = determinize(nfa)
        for t in traces:
            expected = oracle.holds(f, t)
            if (
                automaton.accepts(t) != expected
                or nfa_accepts(nfa, t) != expected
                or dfa_accepts(dfa, t) != expected
            ):
                disagreements += 1
                break
    elapsed = time.time() - start
    ok = disagreements == 0 and elapsed <= 300
    _report(1, ok, f"{len(corpus)} formulas x {len(traces)} traces, "
                   f"{disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed <= 300


def test_criterion_2_past_cross_validation():
    rng = random.Random(1)
    traces = list(enumerate_traces(AP, 4))
    disagreements = 0
    checked = 0
    while checked < 100:
        f = random_core_formula(rng, rng.randint(2, 10), past=True)
        text = format_formula(f)
        if not any(op in text for op in ("Y ", "WY ", " S ", " T ")):
            continue
        checked += 1
        automaton = TwoAFA(f, AP)
        for t in traces:
            if automaton.accepts(t) != oracle.holds(f, t):
                disagreements += 1
                break
    ok = disagreements == 0
    _report(2, ok, f"100 past formulas x {len(traces)} traces, {disagreements} disagreements")
    assert disagreements == 0


def test_criterion_3_circularity_regression():
    traces = list(enumerate_traces(("p", "q"), 4))
    ok = True
    details = []
    for src in ("<(tt?)*> p", "<(p?)*> q"):
        f = parse_formula(src)
        start = time.time()
        automaton = AFA(f, ("p", "q"))
        two_way = TwoAFA(f, ("p", "q"))
        mismatches = sum(
            1
            for t in traces
            if automaton.accepts(t) != oracle.holds(f, t) or two_way.accepts(t) != oracle.holds(f, t)
        )
        elapsed = time.time() - start
        details.append(f"{src}: {elapsed:.2f}s, {mismatches} mismatches")
        ok = ok and elapsed < 1.0 and mismatches == 0
    _report(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_equivalence_suite():
    positive = [
        ("F a", "<tt*> a"),
        ("G a", "[tt*] a"),
        ("a U b", "<(a? ; tt)*> b"),
        ("a R b", "[((!a)? ; tt)*] b"),
    ]
    ok = True
    for left, right in positive:
        same, _ = equivalent(parse_formula(left), parse_formula(right))
        ok = ok and same
    same, counterexample = equivalent(parse_formula("X a"), parse_formula("WX a"))
    distinct_ok = (not same) and counterexample == Trace(())
    ok = ok and distinct_ok
    _report(4, ok, f"4 equivalences hold, X a vs WX a distinguished by "
                   f"{format_trace(counterexample) if counterexample is not None else '?'}")
    assert ok


def test_criterion_5_blowup_observation():
    afa_ok = True
    for n in range(1, 11):
        src = "a"
        for _ in range(n):
            src = f"X ({src})"
        automaton = AFA(_core(parse_formula(src)))
        afa_ok = afa_ok and len(automaton) <= n + 2
    dfa_ok = True
    sizes = []
    for n in range(1, 9):
        names = [f"a{i}" for i in range(1, n + 1)]
        src = " & ".join(f"F {name}" for name in names)
        dfa = build_dfa(parse_formula(src), names)
        sizes.append(dfa.n_states)
        dfa_ok = dfa_ok and dfa.n_states == 2**n
    ok = afa_ok and dfa_ok
    _report(5, ok, f"nested-next AFA stays linear; conjunction DFA sizes {sizes}")
    assert afa_ok
    assert dfa_ok


def test_criterion_6_metric_paper_example():
    program = parse_program("X[20,40) school :- drive.")
    good = check_program(program, parse_trace("{drive}@0;{school}@25"))
    bad = check_program(program, parse_trace("{drive}@0;{school}@45"))
    system = extract_constraints(program, parse_trace("{drive};{school}"))
    solution = feasible(system)
    ok = good == [] and bad == [(0, 0)] and solution == Witness((0, 20))
    _report(6, ok, f"violations {good} / {bad}, minimal witness "
                   f"{solution.times if isinstance(solution, Witness) else solution}")
    assert ok


def test_criterion_7_difference_constraint_oracle():
    start = time.time()
    rng = random.Random(2)
    failures = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        constraints = []
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(n), 2)
            lo = rng.randint(0, 50)
            hi = rng.choice([None, rng.randint(lo, 50)])
            constraints.append(DiffConstraint(i, j, lo, hi))
        system = ConstraintSystem(n, tuple(constraints))
        expected = brute_minimum(system)
        actual = feasible(system)
        if expected is None:
            if not isinstance(actual, Infeasible):
                failures += 1
        else:
            if not isinstance(actual, Witness) or actual.times != expected:
                failures += 1
            elif not all(c.satisfied(actual.times) for c in constraints):
                failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed <= 60
    _report(7, ok, f"500 systems, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed <= 60


def test_criterion_8_round_trips():
    rng = random.Random(3)
    formula_failures = 0
    for _ in range(1000):
        f = random_any_formula(rng, rng.randint(1, 14))
        text = format_formula(f)
        again = format_formula(parse_formula(text))
        if again != text or parse_formula(text) != f:
            formula_failures += 1
    trace_failures = 0
    for _ in range(200):
        t = random_trace(rng, max_len=6, timed=rng.random() < 0.5)
        text = format_trace(t)
        if format_trace(parse_trace(text)) != text or parse_trace(text) != t:
            trace_failures += 1
    ok = formula_failures == 0 and trace_failures == 0
    _report(8, ok, f"1000 formulas / 200 traces, "
                   f"{formula_failures}+{trace_failures} round-trip failures")
    assert ok


def test_criterion_9_minimization_canonicity():
    failures = 0
    checked = 0
    for f in exhaustive_core_formulas(5):
        checked += 1
        dfa = determinize(dealternate(AFA(f, AP)))
        first = minimize(relabelled(dfa, 10))
        second = minimize(relabelled(dfa, 20))
        if first != second or minimize(first) != first:
            failures += 1
    ok = failures == 0
    _report(9, ok, f"{checked} formulas, {failures} canonicity failures")
    assert ok
