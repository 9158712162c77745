import random

import pytest

from tracelogic import oracle
from tracelogic.metric import (
    ConstraintSystem,
    DiffConstraint,
    Infeasible,
    MetricHead,
    MetricProgram,
    MetricRule,
    UntimedViolationError,
    Witness,
    check_program,
    enumerate_models,
    extract_constraints,
    feasible,
)
from tracelogic.parser import parse_formula, parse_program, parse_trace
from tracelogic.trace import TimedTrace, format_trace

SCHOOL = parse_program("X[20,40) school :- drive.")


def brute_minimum(system: ConstraintSystem, bound: int = 200):
    """Componentwise-minimal solution by pruned enumeration over [0, bound], or None.

    Independent of the shortest-path solver: candidate values are enumerated
    in ascending order with conflict-directed backjumping, so the first full
    assignment found is the lexicographic (equals componentwise) minimum.
    """
    n = system.n_vars
    if n == 0:
        return ()
    per_var = [[] for _ in range(n)]
    for c in system.constraints:
        per_var[max(c.i, c.j)].append(c)
    values = [0] * n

    def node(v):
        if v == n:
            return True, set()
        lo, hi = 0, bound
        culprits = set()
        for c in per_var[v]:
            other = c.i if c.j == v else c.j
            if other < v:
                culprits.add(other)
            if c.j == v:
                lo = max(lo, values[c.i] + c.lo)
                if c.hi is not None:
                    hi = min(hi, values[c.i] + c.hi)
            else:
                if c.hi is not None:
                    lo = max(lo, values[c.j] - c.hi)
                hi = min(hi, values[c.j] - c.lo)
        for value in range(lo, hi + 1):
            values[v] = value
            ok, blame = node(v + 1)
            if ok:
                return True, set()
            if v not in blame:
                return False, blame
            culprits |= blame - {v}
        return False, culprits

    ok, _ = node(1)
    return tuple(values) if ok else None


def test_check_program_paper_example():
    assert check_program(SCHOOL, parse_trace("{drive}@0;{school}@25")) == []
    assert check_program(SCHOOL, parse_trace("{drive}@0;{school}@45")) == [(0, 0)]


def test_check_program_integrity_constraint():
    program = parse_program(":- drive, not licensed.")
    assert check_program(program, parse_trace("{drive}@0")) == [(0, 0)]
    assert check_program(program, parse_trace("{drive,licensed}@0")) == []


def test_check_program_needs_successor():
    assert check_program(SCHOOL, parse_trace("{drive}@0")) == [(0, 0)]


def test_extract_constraints_paper_example():
    system = extract_constraints(SCHOOL, parse_trace("{drive};{school}"))
    assert system.n_vars == 2
    assert DiffConstraint(0, 1, 20, 39) in system.constraints
    assert DiffConstraint(0, 1, 0, None) in system.constraints


def test_extract_constraints_untimed_violation():
    with pytest.raises(UntimedViolationError) as excinfo:
        extract_constraints(SCHOOL, parse_trace("{drive};{}"))
    assert (excinfo.value.rule_index, excinfo.value.position) == (0, 1 - 1)


def test_extract_constraints_monotone_only():
    program = parse_program("school :- drive.")
    system = extract_constraints(program, parse_trace("{};{};{}"))
    assert all(c.lo == 0 and c.hi is None for c in system.constraints)
    assert len(system.constraints) == 2


def test_extract_constraints_strict_switch():
    system = extract_constraints(MetricProgram(()), parse_trace("{};{}"), strict=True)
    assert system.constraints == (DiffConstraint(0, 1, 1, None),)
    solution = feasible(system)
    assert solution == Witness((0, 1))


def test_feasible_minimal_witness():
    system = ConstraintSystem(2, (DiffConstraint(0, 1, 20, 39),))
    assert feasible(system) == Witness((0, 20))


def test_feasible_disjoint_intervals():
    system = ConstraintSystem(2, (DiffConstraint(0, 1, 5, 9), DiffConstraint(0, 1, 20, 29)))
    result = feasible(system)
    assert isinstance(result, Infeasible)
    assert sorted(result.cycle) == [0, 1]


def test_feasible_monotone_zeroes():
    system = ConstraintSystem(3, (DiffConstraint(0, 1, 0, None), DiffConstraint(1, 2, 0, None)))
    assert feasible(system) == Witness((0, 0, 0))


def test_witness_minimality():
    rng = random.Random(89)
    for _ in range(100):
        n = rng.randint(2, 4)
        constraints = []
        for _ in range(rng.randint(1, 5)):
            i, j = rng.sample(range(n), 2)
            lo = rng.randint(0, 50)
            hi = rng.choice([None, rng.randint(lo, 50)])
            constraints.append(DiffConstraint(i, j, lo, hi))
        system = ConstraintSystem(n, tuple(constraints))
        solution = feasible(system)
        if not isinstance(solution, Witness):
            continue
        times = solution.times
        for v in range(1, n):
            lowered = list(times)
            lowered[v] -= 1
            broke = lowered[v] < 0 or not all(c.satisfied(lowered) for c in constraints)
            assert broke, f"witness {times} not tight at t_{v} for {constraints}"


def test_feasible_agrees_with_enumeration():
    rng = random.Random(97)
    for _ in range(120):
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
            assert isinstance(actual, Infeasible)
            assert actual.cycle  # certificate names at least one constraint
        else:
            assert isinstance(actual, Witness)
            assert actual.times == expected


def test_enumerate_models_paper_program():
    models = {format_trace(t): t for t in enumerate_models(SCHOOL, ("drive", "school"), 2)}
    assert "{drive}@0;{school}@20" in models
    for text, model in models.items():
        if "drive" in model.letters[0]:
            assert "school" in model.letters[1]
    assert all(len(m) == 2 for m in models.values())


def test_enumerate_models_integrity_constraint():
    program = parse_program(":- drive.")
    models = [format_trace(t) for t in enumerate_models(program, ("drive", "school"), 1)]
    assert models == ["{}@0", "{school}@0"]


def test_enumerate_models_empty_program():
    models = list(enumerate_models(MetricProgram(()), ("a", "b"), 2))
    assert len(models) == 16
    assert all(m.times == (0, 0) for m in models)


def test_models_satisfy_program():
    programs = [
        SCHOOL,
        parse_program("X[5,6) b :- a.\n:- b, not a."),
        parse_program("b.\nX[0,3) b :- b."),
    ]
    for program in programs:
        ap = sorted(program.universe())
        for model in enumerate_models(program, ap, 2):
            assert check_program(program, model) == []


def test_head_check_matches_timed_oracle():
    rng = random.Random(101)
    rule = MetricRule(MetricHead(3, 7, "a"), (("b", True),))
    program = MetricProgram((rule,))
    metric_formula = parse_formula("X[3,7) a")
    for _ in range(200):
        length = rng.randint(1, 4)
        letters = tuple(
            frozenset(n for n in ("a", "b") if rng.random() < 0.5) for _ in range(length)
        )
        clock, times = 0, []
        for _ in range(length):
            times.append(clock)
            clock += rng.randint(0, 9)
        t = TimedTrace(letters, tuple(times))
        violations = {pos for rule_idx, pos in check_program(program, t)}
        for i, letter in enumerate(letters):
            if "b" in letter:
                holds_here = oracle.evaluate(metric_formula, t, i)
                assert (i not in violations) == holds_here
