import copy
import dataclasses
import hashlib
import pickle
import random
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations, product

import cli_cases
import pytest
import reference_metric as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracelogic import metric, oracle
from tracelogic.errors import InvalidValueError, SizeLimitError, UntimedTraceError
from tracelogic.formula import TRUE, And, Atom, MetricNext, Next, Not, Or, WeakMetricNext
from tracelogic.metric import (
    ConstraintSystem,
    DiffConstraint,
    Infeasible,
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
from tracelogic.trace import TimedTrace, Trace, enumerate_traces, format_trace

SCHOOL = parse_program("X[20,40) school :- drive.")


def body_of(literals):
    """The rule body of drawn `(atom, positive)` literals: `TRUE`, or their left-nested `And` in draw order."""
    nodes = [Atom(atom) if positive else Not(Atom(atom)) for atom, positive in literals]
    return reduce(And, nodes) if nodes else TRUE


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


def closes_positive_walk(system: ConstraintSystem, cycle) -> bool:
    """True when the listed constraints close a walk of positive weight.

    Each constraint is read as one edge, i -> j weighing lo or j -> i
    weighing -hi.  The walk may also take one non-negativity edge t_0 -> v
    of weight 0, since every solution is anchored at t_0 = 0 with t_v >= 0.
    """
    listed = [system.constraints[k] for k in cycle]
    for forward in product((True, False), repeat=len(listed)):
        if any(not f and c.hi is None for c, f in zip(listed, forward)):
            continue
        edges = [(c.i, c.j, c.lo) if f else (c.j, c.i, -c.hi) for c, f in zip(listed, forward)]
        balance = Counter()
        for src, dst, _ in edges:
            balance[src] += 1
            balance[dst] -= 1
        open_ends = {v: b for v, b in balance.items() if b}
        if open_ends and not (len(open_ends) == 2 and open_ends.get(0) == -1):
            continue
        # One connected walk, counting the anchor edge if the ends need one.
        links = [(src, dst) for src, dst, _ in edges] + ([tuple(open_ends)] if open_ends else [])
        nodes = {v for link in links for v in link}
        reached = {edges[0][0]}
        grew = True
        while grew:
            grew = False
            for a, b in links:
                if (a in reached) != (b in reached):
                    reached |= {a, b}
                    grew = True
        if reached == nodes and sum(w for _, _, w in edges) > 0:
            return True
    return False


def test_check_program_paper_example():
    assert check_program(SCHOOL, parse_trace("{drive}@0;{school}@25")) == []
    assert check_program(SCHOOL, parse_trace("{drive}@0;{school}@45")) == [(0, 0)]


def test_check_program_integrity_constraint():
    program = parse_program(":- drive, not licensed.")
    assert check_program(program, parse_trace("{drive}@0")) == [(0, 0)]
    assert check_program(program, parse_trace("{drive,licensed}@0")) == []


def test_check_program_needs_successor():
    assert check_program(SCHOOL, parse_trace("{drive}@0")) == [(0, 0)]


def test_check_program_metric_head_needs_timed_trace():
    with pytest.raises(UntimedTraceError):
        check_program(parse_program("X[1,3) b :- a."), parse_trace("{a};{b}"))
    # The metric head never fires here, and the trace is still refused.
    with pytest.raises(UntimedTraceError):
        check_program(parse_program("b :- a.\nX[1,3) b :- c."), parse_trace("{a,b};{b}"))


def test_check_program_plain_rules_over_untimed_trace():
    program = parse_program("b :- a.\n:- c.\nc.")
    assert check_program(program, parse_trace("{a};{c};{a,b}")) == [(0, 0), (1, 1), (2, 0), (2, 2)]


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
            assert closes_positive_walk(system, actual.cycle)
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
    rule = MetricRule(MetricNext(3, 7, Atom("a")), body_of([("b", True)]))
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


@st.composite
def constraint_systems(draw):
    """2 to 5 variables; a constraint may point back in time (i > j)."""
    n = draw(st.integers(2, 5))
    constraints = []
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        lo = draw(st.integers(0, 50))
        hi = draw(st.none() | st.integers(lo, 50))
        constraints.append(DiffConstraint(i, j, lo, hi))
    return ConstraintSystem(n, tuple(constraints))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(constraint_systems())
def test_feasible_property(system):
    expected = brute_minimum(system)
    actual = feasible(system)
    if isinstance(actual, Witness):
        assert actual.times == expected
    else:
        assert isinstance(actual, Infeasible)
        assert expected is None
        assert actual.cycle and closes_positive_walk(system, actual.cycle)


# The paper's school run: drive, school, home in turn, with a late `hurry`
# step that must reach school too soon on the infeasible plans.
ROUTINE = parse_program(
    "X[20,40) school :- drive.\n"
    "X[3,inf) home :- school.\n"
    "X[1,3) drive :- home, more.\n"
    "X[1,3) school :- hurry."
)


def routine_plan(n: int, hurry_at: int | None):
    cycle = ({"drive", "licensed"}, {"school"}, {"home", "more"})
    letters = [set(cycle[i % 3]) for i in range(n)]
    letters[-1] = {"home"}
    if hurry_at is not None:
        letters[hurry_at].add("hurry")
    return parse_trace(";".join("{" + ",".join(sorted(l)) + "}" for l in letters))


def chain_solution(system: ConstraintSystem):
    """Minimal times of a system whose constraints all join consecutive steps.

    Each gap takes the largest lower bound on its step; the first gap whose
    interval is empty gives ("empty", step, constraints on that step).
    """
    by_step = [[] for _ in range(system.n_vars - 1)]
    for c in system.constraints:
        assert c.j == c.i + 1
        by_step[c.i].append(c)
    times = [0]
    for step, listed in enumerate(by_step):
        lo = max(c.lo for c in listed)
        his = [c.hi for c in listed if c.hi is not None]
        if his and lo > min(his):
            return ("empty", step, listed)
        times.append(times[-1] + lo)
    return ("times", tuple(times))


@pytest.mark.parametrize("steps", [1000, 2000, 4000])
@pytest.mark.parametrize("infeasible", [False, True])
def test_long_plans_agree_with_chain_solver(steps, infeasible):
    n = steps - steps % 3
    system = extract_constraints(ROUTINE, routine_plan(n, n - 6 if infeasible else None))
    expected = chain_solution(system)
    actual = feasible(system)
    if expected[0] == "times":
        assert not infeasible
        assert actual == Witness(expected[1])
        return
    _, step, listed = expected
    assert infeasible and step == n - 6
    assert isinstance(actual, Infeasible)
    named = [system.constraints[k] for k in actual.cycle]
    assert all(c in listed for c in named)
    assert max(c.lo for c in named) > min(c.hi for c in named if c.hi is not None)
    assert closes_positive_walk(system, actual.cycle)


def reference_models(program, ap, horizon, rejected=None):
    """Filter every trace up to the horizon, then solve each one from scratch.

    Adds "untimed", "infeasible" or "infeasible by 1" to the set `rejected`,
    if given, for each kind of full-length trace it drops.
    """
    rejected = set() if rejected is None else rejected
    for t in enumerate_traces(ap, horizon):
        if len(t) != horizon:
            continue
        try:
            system = extract_constraints(program, t)
        except UntimedViolationError:
            rejected.add("untimed")
            continue
        solution = feasible(system)
        if isinstance(solution, Witness):
            yield TimedTrace(t.letters, solution.times)
        else:
            _, _, listed = chain_solution(system)
            margin = max(c.lo for c in listed) - min(c.hi for c in listed if c.hi is not None)
            rejected.add("infeasible by 1" if margin == 1 else "infeasible")


# Windows that often miss each other, so that rules sharing a trigger clash.
WINDOWS = ((0, 2), (1, 3), (3, 5), (4, None), (2, None))


def random_program(rng, atoms, n_rules):
    rules = []
    for _ in range(n_rules):
        if rules and rng.random() < 0.4:
            body = rules[-1].body
        else:
            body = body_of([(atom, rng.random() < 0.7) for atom in rng.sample(atoms, rng.randint(1, 2))])
        kind = rng.choice(("metric", "metric", "plain", "constraint"))
        if kind == "metric":
            head = MetricNext(*rng.choice(WINDOWS), Atom(rng.choice(atoms)))
        elif kind == "plain":
            head = Atom(rng.choice(atoms))
        else:
            head = None
        rules.append(MetricRule(head, body))
    return MetricProgram(tuple(rules))


def test_enumerate_models_matches_reference():
    # 60 programs: at horizon 3, 10,835 traces fail an untimed rule,
    # 176 are infeasible and 3,133 are models.
    rng = random.Random(11)
    for _ in range(60):
        atoms = ["a", "b", "c"][: rng.randint(2, 3)]
        program = random_program(rng, atoms, rng.randint(2, 3))
        for horizon in range(4):
            expected = list(reference_models(program, atoms, horizon))
            assert list(enumerate_models(program, atoms, horizon)) == expected, (program, horizon)


@st.composite
def shared_body_cases(draw):
    """A program, an alphabet of 0-3 atoms and a horizon of 0-4.

    Each of the program's 1-2 bodies fires up to three metric heads at once,
    with one head atom, beside a plain head or an integrity constraint.  The
    windows come from WINDOWS, so that heads on one body overlap, miss each
    other, meet at an end or run unbounded.  At most one atom lies outside
    the alphabet.
    """
    ap = ATOMS[: draw(st.integers(0, 3))]
    atoms = st.sampled_from(ATOMS[: len(ap) + 1])
    rules = []
    for _ in range(draw(st.integers(1, 2))):
        body = body_of(draw(st.lists(st.tuples(atoms, st.booleans()), min_size=1, max_size=2)))
        # Two heads listed first, as draws lean towards the first choice: a pair can clash.
        windows = [draw(st.sampled_from(WINDOWS)) for _ in range(draw(st.sampled_from((2, 3, 0, 1))))]
        atom = draw(atoms)
        heads = [MetricNext(*window, Atom(atom)) for window in windows]
        match draw(st.sampled_from((None, "plain", "constraint"))):
            case "plain":
                heads.append(Atom(draw(atoms)))
            case "constraint":
                heads.append(None)
        rules.extend(MetricRule(head, body) for head in heads)
    return MetricProgram(tuple(rules)), ap, draw(st.integers(0, 4))


def test_enumerate_models_matches_reference_on_shared_bodies():
    seen = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(shared_body_cases())
    @example((parse_program("X[1,3) b :- a.\nX[3,5) b :- a."), ("a", "b"), 2))  # 3 <= d <= 2 at {a};{b}
    def check(case):
        program, ap, horizon = case
        models = list(enumerate_models(program, ap, horizon))
        assert models == list(reference_models(program, ap, horizon, seen))
        for model in models:
            assert check_program(program, model) == []
        seen.update(("model", model.times[-1] > 0) for model in models if model.times)

    check()
    # "infeasible by 1": a step whose largest lower bound exceeds its smallest upper bound by exactly 1.
    assert seen == {("model", False), ("model", True), "untimed", "infeasible", "infeasible by 1"}


def test_one_trigger_with_disjoint_windows_has_no_model_before_the_last_letter():
    # `a` asks for `b` exactly 1 and 3 to 4 time units later, both at once;
    # row `metric-times-disjoint-windows` pins `metric times` on `{a};{b}`.
    program = parse_program("X[1,2) b :- a.\nX[3,5) b :- a.")
    for horizon in range(1, 5):
        models = list(enumerate_models(program, ("a", "b"), horizon))
        assert len(models) == 2**horizon  # `b` free at each position, `a` nowhere
        assert not any("a" in letter for model in models for letter in model.letters)


def test_enumerate_models_solves_only_full_untimed_models():
    program = parse_program(":- a.\nX[1,2) b :- c.")
    models = list(enumerate_models(program, ("a", "b", "c"), 3))
    # No `a` anywhere, and every `c` before the last step is followed by `b`.
    assert len(models) == 18  # of 64 traces without `a`, 512 in all
    for model in models:
        assert len(model.letters) == 3
        assert model.times == feasible(extract_constraints(program, Trace(model.letters))).times


def test_enumerate_models_builds_only_the_models_it_yields(monkeypatch):
    """Every `TimedTrace` built is yielded: no prefix that cannot end in a model becomes one.

    Models are built through `trace._timed_traces_of` alone; the counter
    takes each model as the helper yields it.
    """
    built = []
    helper = metric._timed_traces_of

    def counting(pairs):
        for t in helper(pairs):
            built.append(None)
            yield t

    monkeypatch.setattr(metric, "_timed_traces_of", counting)
    yielded = 0
    cases = (
        (SCHOOL, ("drive", "school")),
        (parse_program(":- a.\nX[1,2) b :- c."), ("a", "b", "c")),
        (parse_program("X[1,2) b :- a.\nX[3,5) b :- a."), ("a", "b")),
    )
    for program, ap in cases:
        for horizon in range(5):
            yielded += sum(1 for _ in enumerate_models(program, ap, horizon))
    assert len(built) == yielded
    # Of the 341, 4,681 and 341 traces of length 4 or less; the last program never takes `a`.
    assert yielded == 81 + 81 + 31


def test_enumerate_models_horizon_zero():
    assert [format_trace(t) for t in enumerate_models(SCHOOL, ("drive", "school"), 0)] == ["eps"]


def test_enumerate_models_bounds():
    # Row `metric-enumerate-too-many-atoms` pins the command line's exit 3 on the second case.
    with pytest.raises(ValueError):
        next(enumerate_models(SCHOOL, ("drive", "school"), -1))
    ap = tuple(f"p{i}" for i in range(9))
    with pytest.raises(SizeLimitError):
        next(enumerate_models(SCHOOL, ap + ("drive", "school"), 1))


def test_diff_constraint_is_a_validated_tuple():
    """A constraint is an immutable tuple record `(i, j, lo, hi)` with the checks of its constructor.

    Construction, field names, repr, equality and hashing between
    constraints, immutability, pickling and copying behave as they did for
    the frozen dataclass.  Tuple behaviour in general is now part of the
    contract: a constraint equals and orders against the plain tuple
    `(i, j, lo, hi)`, has length 4, indexes, unpacks and concatenates, and
    has `_asdict`, `_fields`, `_make` and `_replace` (the last two checked
    like the constructor).  It is no longer a dataclass.
    """
    c = DiffConstraint(0, 1, 2, None)
    assert c == DiffConstraint(i=0, j=1, lo=2, hi=None) == DiffConstraint(0, 1, lo=2, hi=None)
    assert (c.i, c.j, c.lo, c.hi) == (0, 1, 2, None)
    assert repr(c) == "DiffConstraint(i=0, j=1, lo=2, hi=None)"
    assert c != DiffConstraint(0, 1, 2, 3) and c != DiffConstraint(1, 0, 2, None)
    assert hash(c) == hash(DiffConstraint(0, 1, 2, None))
    assert len({c, DiffConstraint(0, 1, 2, None), DiffConstraint(0, 1, 2, 2)}) == 2
    with pytest.raises(AttributeError):
        c.lo = 5
    with pytest.raises(AttributeError):
        c.note = "extra"
    for again in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert again == c and type(again) is DiffConstraint
    assert c == (0, 1, 2, None)
    assert sorted([DiffConstraint(1, 0, 0, 0), c, DiffConstraint(0, 1, 1, None)]) == [
        DiffConstraint(0, 1, 1, None), c, DiffConstraint(1, 0, 0, 0),
    ]
    assert (len(c), c[2], c + (5,)) == (4, 2, (0, 1, 2, None, 5))
    i, j, lo, hi = c
    assert (i, j, lo, hi) == (0, 1, 2, None)
    assert c._fields == ("i", "j", "lo", "hi") and c._asdict() == {"i": 0, "j": 1, "lo": 2, "hi": None}
    for built in (c._replace(hi=7), DiffConstraint._make([0, 1, 2, 7])):
        assert built == DiffConstraint(0, 1, 2, 7) and type(built) is DiffConstraint
    assert not dataclasses.is_dataclass(c)
    assert c.satisfied((0, 2)) and c.satisfied((0, 90)) and not c.satisfied((0, 1))
    backward = DiffConstraint(2, 0, 1, 3)
    assert [backward.satisfied((t, 0, 0)) for t in range(5)] == [False, True, True, True, False]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DiffConstraint(0, 0, 0, None), "difference constraint needs two distinct variables"),
        (lambda: DiffConstraint(0, 1, 5, 4), "empty bound [5,4]"),
        (
            lambda: ConstraintSystem(1, (DiffConstraint(0, 1, 0, None),)),
            "constraint DiffConstraint(i=0, j=1, lo=0, hi=None) references a missing variable",
        ),
        (lambda: feasible(ConstraintSystem(-1, ())), "negative variable count -1"),
        (lambda: MetricNext(3, 3, Atom("a")), "empty metric interval [3,3)"),
        (lambda: DiffConstraint(0, 1, 0, None)._replace(j=0), "difference constraint needs two distinct variables"),
        (lambda: DiffConstraint(0, 1, 0, None)._replace(lo=5, hi=4), "empty bound [5,4]"),
        (lambda: DiffConstraint._make((0, 1, 5, 4)), "empty bound [5,4]"),
        (lambda: MetricRule(Next(Atom("a")), TRUE), "not a rule head: Next(arg=Atom(name='a'))"),
        (
            lambda: MetricRule(MetricNext(1, 2, And(Atom("a"), Atom("b"))), TRUE),
            "not a rule head: MetricNext(lo=1, hi=2, arg=And(left=Atom(name='a'), right=Atom(name='b')))",
        ),
        (
            lambda: MetricRule(WeakMetricNext(1, 2, Atom("a")), TRUE),
            "not a rule head: WeakMetricNext(lo=1, hi=2, arg=Atom(name='a'))",
        ),
        (lambda: MetricRule("a", TRUE), "not a rule head: 'a'"),
        (
            lambda: MetricProgram([MetricRule(None, TRUE)]),
            "not a tuple of rules: [MetricRule(head=None, body=TrueFormula())]",
        ),
        (
            lambda: MetricProgram((MetricRule(None, TRUE), "a.")),
            "not a tuple of rules: (MetricRule(head=None, body=TrueFormula()), 'a.')",
        ),
    ],
    ids=["same-variable", "empty-bound", "missing-variable", "negative-variable-count", "empty-head-interval",
         "replace-same-variable", "replace-empty-bound", "make-empty-bound", "head-next",
         "head-metric-next-of-a-conjunction", "head-weak-metric-next", "head-string", "program-of-a-list",
         "program-of-a-string"],
)
def test_malformed_constraints_and_heads_raise_value_error(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert (error.type, str(error.value)) == (InvalidValueError, message)


A, B = Atom("a"), Atom("b")


@pytest.mark.parametrize(
    "body, message",
    [
        # Bodies of literal pairs, as rules were once built, are not formulas.
        ((("B c", True), "x"), "not a rule body: (('B c', True), 'x')"),
        ((("a", True), "x"), "not a rule body: (('a', True), 'x')"),
        ((("a", 1),), "not a rule body: (('a', 1),)"),
        ((("a", True, False),), "not a rule body: (('a', True, False),)"),
        (((A, True),), "not a rule body: ((Atom(name='a'), True),)"),
        ([("a", True)], "not a rule body: [('a', True)]"),
        ("a", "not a rule body: 'a'"),
        (Or(A, B), "not a body literal: Or(left=Atom(name='a'), right=Atom(name='b'))"),
        (And(A, And(B, A)), "not a body literal: And(left=Atom(name='b'), right=Atom(name='a'))"),
        (And(TRUE, A), "not a body literal: TrueFormula()"),
        (And(And(A, Not(Not(B))), Next(A)), "not a body literal: Not(arg=Not(arg=Atom(name='b')))"),
        (And(A, Next(B)), "not a body literal: Next(arg=Atom(name='b'))"),
    ],
    ids=["atom-name", "not-a-pair", "sign-not-a-bool", "triple", "atom-node", "list", "string", "disjunction",
         "right-nested-conjunction", "true-conjunct", "double-negation", "next"],
)
def test_rule_body_is_checked_when_the_rule_is_built(body, message):
    """A rule names a body that is not a formula, or its first literal that is not an atom or a negated atom, when it is built."""
    with pytest.raises(InvalidValueError) as error:
        MetricRule(None, body)
    assert str(error.value) == message
    for good in (TRUE, A, Not(A), And(And(A, Not(Atom("b_1"))), A)):
        assert MetricRule(Atom("c"), good).body is good


def test_metric_times_prints_cycle_in_walk_order():
    # Row `metric-times-infeasible` runs `metric times` on this plan and pins
    # every byte; here the cycle it prints is the solver's, in walk order.
    # Constraint 1 is drive's [20,40) at step 2 and constraint 2 is hurry's
    # [1,3) there: the walk goes forward by 20 and back by at most 2.
    (row,) = [case for case in cli_cases.CASES if case.name == "metric-times-infeasible"]
    _, _, _, program, _, trace = row.argv
    system = extract_constraints(parse_program(program), parse_trace(trace))
    result = feasible(system)
    assert isinstance(result, Infeasible)
    assert [system.constraints[k] for k in result.cycle] == [DiffConstraint(2, 3, 20, 39), DiffConstraint(2, 3, 1, 2)]
    assert closes_positive_walk(system, result.cycle)
    assert (row.code, row.stdout) == (1, "INFEASIBLE\ncycle: " + ", ".join(map(str, result.cycle)) + "\n")


# The rule checks against the per-position ones they replaced
# (`reference_metric`): random programs of 1-4 rules over three atoms, with
# empty bodies, negative literals, bounded and unbounded windows, on traces
# of 0-12 letters whose timestamps repeat as often as they advance.
ATOMS = ("a", "b", "c")


@st.composite
def rule_programs(draw):
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        body = body_of(draw(st.lists(st.tuples(st.sampled_from(ATOMS), st.booleans()), max_size=3)))
        atom = draw(st.sampled_from(ATOMS))
        kind = draw(st.sampled_from(("constraint", "plain", "metric")))
        if kind == "constraint":
            head = None
        elif kind == "plain":
            head = Atom(atom)
        else:
            lo = draw(st.integers(0, 4))
            head = MetricNext(lo, draw(st.none() | st.integers(lo + 1, lo + 5)), Atom(atom))
        rules.append(MetricRule(head, body))
    return MetricProgram(tuple(rules))


LETTERS = [frozenset(letter) for size in range(len(ATOMS) + 1) for letter in combinations(ATOMS, size)]


def _meets(program, letter, due, last) -> bool:
    """Whether letter holds the metric heads due from the step before and breaks no rule that it decides."""
    for rule in program.rules:
        if not reference._body_holds(rule, letter):
            continue
        if isinstance(rule.head, MetricNext):
            if last:
                return False
        elif rule.head is None or rule.head.name not in letter:
            return False
    return due <= letter


@st.composite
def programs_and_traces(draw):
    """A program and a timed trace.

    In half of the traces each step takes the first letter, in cyclic order
    from the drawn one, that breaks no rule it decides; most of these traces
    meet the untimed part and yield metric constraints.
    """
    program = draw(rule_programs())
    repair = draw(st.booleans())
    n = draw(st.integers(0, 12))
    letters, due = [], frozenset()
    for i in range(n):
        k = draw(st.integers(0, len(LETTERS) - 1))
        candidates = LETTERS[k:] + LETTERS[:k] if repair else [LETTERS[k]]
        letter = next((c for c in candidates if _meets(program, c, due, i == n - 1)), LETTERS[k])
        due = frozenset(
            rule.head.arg.name
            for rule in program.rules
            if isinstance(rule.head, MetricNext) and reference._body_holds(rule, letter)
        )
        letters.append(letter)
    times = [0] * min(n, 1)
    for _ in range(n - 1):
        times.append(times[-1] + draw(st.sampled_from((0, 0, 1, 2, 3, 5))))
    return program, TimedTrace(tuple(letters), tuple(times))


def _extracted(module, program, t, strict):
    try:
        system = module.extract_constraints(program, t, strict)
    except UntimedViolationError as exc:
        return ("untimed", exc.rule_index, exc.position)
    return ("system", system.n_vars, [(c.i, c.j, c.lo, c.hi) for c in system.constraints])


def test_rule_checks_match_reference():
    seen = set()

    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(programs_and_traces())
    def check(case):
        program, t = case
        violations = check_program(program, t)
        assert violations == reference.check_program(program, t)
        seen.add(("violations", bool(violations)))
        untimed = Trace(t.letters)
        for strict in (False, True):
            outcome = _extracted(metric, program, untimed, strict)
            assert outcome == _extracted(reference, program, untimed, strict)
            seen.add(outcome[0])
            if outcome[0] == "system":
                # The metric constraints come before the n - 1 monotonicity ones.
                metric_part = outcome[2][: len(outcome[2]) - max(len(t) - 1, 0)]
                seen.update(("metric", hi is None) for *_, hi in metric_part)

    check()
    assert seen == {
        ("violations", False), ("violations", True), "untimed", "system", ("metric", False), ("metric", True),
    }


FEASIBLE_DIGEST = "74c04447a5da760eb09664e7c984106fe49860f7411a957e774e4beac117aa0b"


def test_feasible_digest():
    """The repr of every answer of `feasible` on a fixed set of systems, hashed together.

    The systems are the routine plans of 99, 198, 399 and 999 steps, without
    and with a planted `hurry` six steps from the end, extracted with and
    without `strict`, then the 500 random systems that
    `test_criterion_7_difference_constraint_oracle` draws from
    `random.Random(2)`.  So every witness and every cycle, in its order, is
    pinned.
    """
    digest = hashlib.sha256()
    for n in (99, 198, 399, 999):
        for hurry_at in (None, n - 6):
            for strict in (False, True):
                digest.update(repr(feasible(extract_constraints(ROUTINE, routine_plan(n, hurry_at), strict))).encode())
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randint(2, 4)
        constraints = []
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(n), 2)
            lo = rng.randint(0, 50)
            constraints.append(DiffConstraint(i, j, lo, rng.choice([None, rng.randint(lo, 50)])))
        digest.update(repr(feasible(ConstraintSystem(n, tuple(constraints)))).encode())
    assert digest.hexdigest() == FEASIBLE_DIGEST


BREAKERS = ("backward", "skip", "negative lo")


@st.composite
def shuffled_chains(draw):
    """A chain over 0-8 variables with its constraints shuffled, and in some systems one that breaks it.

    Each step has 0-4 constraints.  Lower bounds of 0-4, and upper bounds at
    most 2 above their own lower bound, make the largest lower bound often
    tie and often exceed several upper bounds.  The breaker is a backward
    constraint, one from i to i + 2, or a step's one constraint with a
    negative lower bound.
    """
    n = draw(st.integers(0, 8))
    rng = draw(st.randoms(use_true_random=False))

    def bounds(lo):
        return lo, rng.choice((None, max(lo, 0) + rng.randint(0, 2)))

    constraints = [
        DiffConstraint(i, i + 1, *bounds(rng.randint(0, 4))) for i in range(n - 1) for _ in range(rng.randint(0, 4))
    ]
    breaker = rng.choice((None, None, None, *BREAKERS)) if n >= 3 else None
    if breaker == "negative lo":
        # The only constraint on a step after the first, where the time before it often exceeds |lo|.
        i = rng.randint(1, n - 2)
        constraints = [c for c in constraints if c.i != i]
        constraints.append(DiffConstraint(i, i + 1, *bounds(rng.randint(-4, -1))))
    elif breaker is not None:
        i = rng.randint(0, n - 3)
        i, j = (i + 1, i) if breaker == "backward" else (i, i + 2)
        constraints.append(DiffConstraint(i, j, *bounds(rng.randint(0, 4))))
    rng.shuffle(constraints)
    return breaker, ConstraintSystem(n, tuple(constraints))


def test_feasible_matches_the_worklist_reference():
    """`feasible` answers as the worklist solver it replaced on chains, and hands it every other system."""
    seen = set()

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(shuffled_chains())
    def check(case):
        breaker, system = case
        answer = feasible(system)
        assert repr(answer) == repr(reference.feasible(system))
        if system.n_vars < 2:
            seen.add(f"{system.n_vars} variables")
        if breaker is not None:
            seen.add(breaker)
            return
        listed = [[c for c in system.constraints if c.i == i] for i in range(system.n_vars - 1)]
        if isinstance(answer, Witness):
            seen.add("witness")
            if any(not step and answer.times[i] for i, step in enumerate(listed)):
                seen.add("reset after a positive time")
            return
        step = system.constraints[answer.cycle[0]].i
        largest = max(c.lo for c in listed[step])
        seen.add("cycle at step 0" if step == 0 else "cycle after step 0")
        if sum(c.lo == largest for c in listed[step]) > 1:
            seen.add("tie in the largest lower bound")
        if sum(c.hi is not None and c.hi < largest for c in listed[step]) > 1:
            seen.add("several upper bounds below it")

    check()
    assert seen == {
        "0 variables", "1 variables", *BREAKERS, "witness", "reset after a positive time",
        "cycle at step 0", "cycle after step 0", "tie in the largest lower bound", "several upper bounds below it",
    }


@pytest.mark.parametrize(
    "n, constraints, answer",
    [
        # Lower bounds 7 tie and upper bounds 5 and 4 fall below them: the first of each, in index order.
        (2, [(0, 1, 0, None), (0, 1, 7, 9), (0, 1, 3, 5), (0, 1, 7, None), (0, 1, 2, 4)], Infeasible((1, 2))),
        # Only non-negativity bounds t_2, which a step with no constraint resets to 0.
        (3, [(0, 1, 5, None)], Witness((0, 5, 0))),
        # A negative lower bound is no chain step: t_2 >= t_1 - 3 = 1.
        (3, [(1, 2, -3, None), (0, 1, 4, None)], Witness((0, 4, 1))),
    ],
)
def test_feasible_pinned_answers(n, constraints, answer):
    system = ConstraintSystem(n, tuple(DiffConstraint(*c) for c in constraints))
    assert feasible(system) == answer
    assert reference.feasible(system) == answer


def test_routine_plans_never_reach_the_worklist(monkeypatch):
    """Routine plans of 1k-4k steps, feasible and with a planted `hurry`, are all answered by the chain pass."""

    def worklist(system):
        raise AssertionError(f"a system of {system.n_vars} variables reached the worklist")

    monkeypatch.setattr(metric, "_longest_paths", worklist)
    with pytest.raises(AssertionError, match="reached the worklist"):
        feasible(ConstraintSystem(2, (DiffConstraint(1, 0, 0, None),)))
    for n in (999, 1998, 3999):
        for hurry_at in (None, n - 6):
            system = extract_constraints(ROUTINE, routine_plan(n, hurry_at))
            assert repr(feasible(system)) == repr(reference.feasible(system))


# Long traces over the three program atoms and a fourth one, `d`, that no
# program names; each trace holds only some of the atoms, so program atoms
# may hold in no letter.
LONG_ATOMS = ATOMS + ("d",)


@st.composite
def long_programs_and_traces(draw):
    """A program and a timed trace of 0-200 letters, drawn like `programs_and_traces`."""
    program = draw(rule_programs())
    rng = draw(st.randoms(use_true_random=False))
    held = [atom for atom in LONG_ATOMS if rng.random() < 0.75]
    pool = [frozenset(letter) for size in range(len(held) + 1) for letter in combinations(held, size)]
    repair = rng.random() < 0.5
    n = draw(st.integers(0, 200))
    letters, due = [], frozenset()
    for i in range(n):
        k = rng.randrange(len(pool))
        candidates = pool[k:] + pool[:k] if repair else [pool[k]]
        letter = next((c for c in candidates if _meets(program, c, due, i == n - 1)), pool[k])
        due = frozenset(
            rule.head.arg.name
            for rule in program.rules
            if isinstance(rule.head, MetricNext) and reference._body_holds(rule, letter)
        )
        letters.append(letter)
    times = [0] * min(n, 1)
    for _ in range(n - 1):
        times.append(times[-1] + rng.choice((0, 0, 1, 2, 3, 5)))
    return program, TimedTrace(tuple(letters), tuple(times))


def test_rule_checks_match_reference_on_long_traces():
    seen = set()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(long_programs_and_traces())
    def check(case):
        program, t = case
        violations = check_program(program, t)
        assert violations == reference.check_program(program, t)
        seen.add(("violations", bool(violations)))
        for strict in (False, True):
            outcome = _extracted(reference, program, t, strict)
            assert _extracted(metric, program, Trace(t.letters), strict) == outcome
            assert _extracted(metric, program, t, strict) == outcome
            seen.add(outcome[0])
        held = set().union(*t.letters)
        if "d" in held:
            seen.add("unnamed atom")
        if program.universe() - held:
            seen.add("program atom held nowhere")
        if len(t) > 100:
            seen.add("over 100 letters")

    check()
    assert seen == {
        ("violations", False), ("violations", True), "untimed", "system",
        "unnamed atom", "program atom held nowhere", "over 100 letters",
    }


def _built(build, program, t, strict):
    try:
        system = build(program, t, strict)
    except UntimedViolationError as exc:
        return ("untimed", exc.rule_index, exc.position, str(exc))
    return ("system", system.n_vars, system.constraints, [type(c) for c in system.constraints])


def test_extract_constraints_matches_the_one_by_one_reference():
    """The batches of `extract_constraints` are the constraints that one validating `DiffConstraint` per step built.

    Equal tuples in the same order, each of type `DiffConstraint`, or the
    same `UntimedViolationError`, with and without `strict`, on programs and
    traces of 0-200 letters and on routine plans.
    """
    seen = set()

    def compare(program, t):
        for strict in (False, True):
            outcome = _built(extract_constraints, program, t, strict)
            assert outcome == _built(reference.extract_constraints_one_by_one, program, t, strict)
            seen.add((outcome[0], strict))
            if outcome[0] == "system":
                assert set(outcome[3]) <= {DiffConstraint}
                metric_part = outcome[2][: len(outcome[2]) - max(len(t) - 1, 0)]
                seen.update(("metric", hi is None) for *_, hi in metric_part)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(long_programs_and_traces())
    def check(case):
        program, t = case
        compare(program, Trace(t.letters))

    check()
    for n in (99, 399):
        for hurry_at in (None, n - 6):
            compare(ROUTINE, routine_plan(n, hurry_at))
    assert seen == {
        ("untimed", False), ("untimed", True), ("system", False), ("system", True), ("metric", False), ("metric", True),
    }


def test_check_program_memory_grows_with_the_program_not_the_trace():
    """Peak allocation, in bytes, of a timed check whose every letter holds a fresh atom.

    Every gap differs too.  One mask row per atom of the trace would peak
    near 25 MB at 5,000 letters; masks of the program's atoms only stay far
    below 4 MB.
    """
    n = 5000
    letters = tuple(frozenset({f"p{i}", "a"} if i % 2 else {f"p{i}"}) for i in range(n))
    t = TimedTrace(letters, tuple(i * (i + 1) // 2 for i in range(n)))
    program = parse_program("X[1,5000) a :- b.\nb :- a.\nX[3,inf) c :- a, not c.")
    tracemalloc.start()
    try:
        violations = check_program(program, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert violations == reference.check_program(program, t)
    assert peak < 4_000_000
