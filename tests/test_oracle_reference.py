"""Seeded differentials of the bit-set oracle against the definitional one.

`reference_oracle` is the recursive evaluator with explicit path
relations that the bit-set oracle replaced; the two must agree at every
position of every trace tried.
"""

import random

import reference_oracle as reference
from conftest import random_any_formula, random_core_formula, random_path, random_trace
from tracelogic import formula as fm
from tracelogic import oracle
from tracelogic.formula import format_formula
from tracelogic.trace import TimedTrace, enumerate_traces

SMALL_TRACES = list(enumerate_traces(("a", "b"), 3))

# The oracle evaluates these by one rule, through their existential duals.
UNIVERSAL = {fm.WeakNext, fm.Release, fm.Always, fm.WeakPrev, fm.Trigger, fm.Box, fm.WeakMetricNext}


def _operators(formulas) -> set:
    """The node types of the formulas' negation normal forms, paths included: the nodes the oracle evaluates."""
    types = set()
    stack = [fm.nnf(f) for f in formulas]
    while stack:
        node = stack.pop()
        types.add(type(node))
        stack.extend(fm.children(node))
    return types


def _has_metric(f) -> bool:
    # Metric next prints with its interval glued on: X[l,u) or WX[l,u).
    return "X[" in format_formula(f)


def _agree(f, t):
    got = [oracle.evaluate(f, t, i) for i in range(len(t) + 1)]
    assert got == reference.truth_values(f, t), (format_formula(f), t)


def _untimed_formulas(rng, count):
    """Core formulas with past, stars and nested tests, then surface formulas with sugar."""
    formulas = [random_core_formula(rng, rng.randint(1, 10), past=True) for _ in range(count)]
    while len(formulas) < 2 * count:
        f = random_any_formula(rng, rng.randint(1, 10))
        if not _has_metric(f):
            formulas.append(f)
    return formulas


def test_all_traces_up_to_length_three():
    rng = random.Random(401)
    formulas = _untimed_formulas(rng, 60)
    assert UNIVERSAL - {fm.WeakMetricNext} <= _operators(formulas)
    for f in formulas:
        for t in SMALL_TRACES:
            _agree(f, t)


def test_random_traces_of_length_four_to_eight():
    rng = random.Random(409)
    formulas = _untimed_formulas(rng, 100)
    assert UNIVERSAL - {fm.WeakMetricNext} <= _operators(formulas)
    for f in formulas:
        for _ in range(4):
            _agree(f, random_trace(rng, 8, min_len=4))


def test_metric_formulas_on_timed_traces():
    rng = random.Random(419)
    checked = 0
    formulas = []
    while checked < 300:
        f = random_any_formula(rng, rng.randint(2, 10))
        t = random_trace(rng, 8, timed=True)
        if not isinstance(t, TimedTrace):
            continue  # an empty trace carries no times
        _agree(f, t)
        formulas.append(f)
        checked += _has_metric(f)
    assert UNIVERSAL <= _operators(formulas)


def test_path_relation_on_random_paths():
    rng = random.Random(421)
    for _ in range(300):
        p = random_path(rng, rng.randint(2, 8), lambda r, s: random_core_formula(r, s, past=True))
        t = random_trace(rng, 6)
        assert oracle.path_relation(p, t) == reference.path_relation(p, t)
