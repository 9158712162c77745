import copy
import pickle
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import exhaustive_core_formulas, random_core_formula, random_trace
from tracelogic import oracle
from tracelogic.errors import UntimedTraceError
from tracelogic.formula import Star, Step, Test, TRUE, And, Atom, Diamond, Seq, Until, children, nnf, nnf_not, to_dynamic_core
from tracelogic.parser import parse_formula, parse_trace
from tracelogic.trace import enumerate_traces

EPS = parse_trace("eps")


def test_always_vacuous_at_end():
    assert oracle.evaluate(parse_formula("G a"), EPS, 0) is True


def test_diamond_step_to_end():
    assert oracle.evaluate(parse_formula("<a> tt"), parse_trace("{a}"), 0) is True
    assert oracle.evaluate(parse_formula("<a> tt"), parse_trace("{}"), 0) is False


def test_until_unfolds():
    assert oracle.evaluate(parse_formula("a U b"), parse_trace("{a};{a};{b}"), 0) is True
    assert oracle.evaluate(parse_formula("a U b"), parse_trace("{a};{a}"), 0) is False


def test_holds_examples():
    assert oracle.holds(parse_formula("tt"), EPS) is True
    assert oracle.holds(parse_formula("a"), EPS) is False
    assert oracle.holds(parse_formula("F b"), parse_trace("{a};{b}")) is True


def test_path_relation_step():
    t = parse_trace("{a};{}")
    assert oracle.path_relation(Step(TRUE), t) == {(0, 1), (1, 2)}
    assert oracle.path_relation(Step(Atom("a")), t) == {(0, 1)}


def test_path_relation_test():
    t = parse_trace("{a};{}")
    assert oracle.path_relation(Test(Atom("a")), t) == {(0, 0)}


def test_path_relation_star_closure():
    t = parse_trace("{a}")
    assert oracle.path_relation(Star(Step(TRUE)), t) == {(0, 0), (0, 1), (1, 1)}


def test_star_idempotent():
    rng = random.Random(5)
    from conftest import random_path

    for _ in range(100):
        p = random_path(rng, rng.randint(2, 6), lambda r, s: random_core_formula(r, s))
        t = random_trace(rng, 4)
        assert oracle.path_relation(Star(Star(p)), t) == oracle.path_relation(Star(p), t)


def test_metric_on_untimed_trace_raises():
    with pytest.raises(UntimedTraceError):
        oracle.evaluate(parse_formula("X[1,2) a"), parse_trace("{a};{a}"), 0)


def test_metric_on_untimed_trace_raises_whatever_the_letters():
    # The `|` must not decide the verdict before the metric node is seen.
    f = parse_formula("a | X[1,2) b")
    for text in ("{a};{b}", "{};{b}"):
        with pytest.raises(UntimedTraceError):
            oracle.holds(f, parse_trace(text))


def test_eval_timed_examples():
    f = parse_formula("X[20,40) school")
    assert oracle.evaluate(f, parse_trace("{drive}@0;{school}@25"), 0) is True
    assert oracle.evaluate(f, parse_trace("{drive}@0;{school}@45"), 0) is False
    assert oracle.evaluate(parse_formula("X[0,inf) a"), parse_trace("{a}@0"), 0) is False


def test_weak_metric_dual():
    f = parse_formula("WX[20,40) school")
    assert oracle.evaluate(f, parse_trace("{drive}@0"), 0) is True  # no successor
    assert oracle.evaluate(f, parse_trace("{drive}@0;{}@45"), 0) is True  # interval missed
    assert oracle.evaluate(f, parse_trace("{drive}@0;{}@25"), 0) is False  # body fails


def test_metric_inside_path_test():
    f = parse_formula("<(X[1,3) a)?> tt")
    assert oracle.holds(f, parse_trace("{b}@0;{a}@2")) is True
    assert oracle.holds(f, parse_trace("{b}@0;{a}@9")) is False
    with pytest.raises(UntimedTraceError):
        oracle.holds(f, parse_trace("{b};{a}"))


def test_position_bounds():
    with pytest.raises(ValueError):
        oracle.evaluate(parse_formula("a"), parse_trace("{a}"), 2)
    assert oracle.evaluate(parse_formula("a"), parse_trace("{a}"), 1) is False


def test_determinism():
    rng = random.Random(31)
    for _ in range(50):
        f = random_core_formula(rng, rng.randint(1, 10), past=True)
        t = random_trace(rng, 4)
        first = oracle.holds(f, t)
        assert oracle.holds(f, t) == first


def test_duality_at_letter_positions():
    # The letterless end point is non-classical by design (both a and !a are
    # false there, which is what makes box-like operators vacuous at the end),
    # so duality is asserted at every letter position.
    traces = list(enumerate_traces(("a", "b"), 3))
    rng = random.Random(37)
    formulas = [random_core_formula(rng, rng.randint(1, 9), past=True) for _ in range(150)]
    for f in formulas:
        negated = nnf_not(f)
        for t in traces:
            for i in range(len(t)):
                assert oracle.evaluate(negated, t, i) == (not oracle.evaluate(f, t, i))


def test_sugar_coherence_exhaustive():
    f_direct = parse_formula("F a")
    f_core = parse_formula("<tt*> a")
    u_direct = parse_formula("a U b")
    u_core = parse_formula("<(a? ; tt)*> b")
    for t in enumerate_traces(("a", "b"), 4):
        assert oracle.holds(f_direct, t) == oracle.holds(f_core, t)
        assert oracle.holds(u_direct, t) == oracle.holds(u_core, t)


def test_past_examples():
    assert oracle.holds(parse_formula("Y a"), parse_trace("{a}")) is False
    assert oracle.evaluate(parse_formula("Y a"), parse_trace("{a};{b}"), 1) is True
    assert oracle.holds(parse_formula("F (b & Y a)"), parse_trace("{a};{b}")) is True
    assert oracle.holds(parse_formula("F (b & Y a)"), parse_trace("{b};{a}")) is False
    assert oracle.holds(parse_formula("WY a"), parse_trace("{b}")) is True
    assert oracle.evaluate(parse_formula("a S b"), parse_trace("{b};{a};{a}"), 2) is True
    assert oracle.evaluate(parse_formula("a S b"), parse_trace("{b};{};{a}"), 2) is False


def test_exhaustive_small_formula_nnf_coherence():
    traces = list(enumerate_traces(("a", "b"), 3))
    for f in exhaustive_core_formulas(4):
        normal = to_dynamic_core(nnf(f))
        for t in traces:
            assert oracle.holds(f, t) == oracle.holds(normal, t)


@pytest.fixture
def counts(monkeypatch):
    """Counts by node identity: builds of each node's code (`built`), and runs of that code (`ran`).

    A code run more than `limit` times fails at once, so a lost memo fails
    in bounded time even on a formula whose tree is exponentially large.
    """
    counts = SimpleNamespace(built=Counter(), ran=Counter(), limit=1)

    def counting(build):
        def counted_build(node):
            counts.built[id(node)] += 1
            code = yield from build(node)

            def counted(ev):
                counts.ran[id(node)] += 1
                assert counts.ran[id(node)] <= counts.limit, "a node computed twice over one trace"
                return code(ev)

            return counted

        return counted_build

    monkeypatch.setattr(oracle, "_BUILDERS", {cls: counting(build) for cls, build in oracle._BUILDERS.items()})
    return counts


def test_shared_subterms_are_computed_once_per_trace(counts):
    g = Atom("a")
    for _ in range(40):
        g = And(g, g)  # 41 distinct nodes; as a tree, 2**41 - 1
    for counts.limit, text in enumerate(("{a};{}", "{a};{a}"), 1):
        assert oracle.holds(g, parse_trace(text)) is True
        assert len(counts.ran) == 41 and set(counts.ran.values()) == {counts.limit}
    assert len(counts.built) == 41 and set(counts.built.values()) == {1}


def test_one_formula_over_two_traces_builds_each_node_once(counts):
    """Each node is built once: every node of f, and of g the universal operators and the NNF negations they run."""
    f = parse_formula("(a U b) & <(a ; b?)* + b> (c S X a) | F Y b")
    g = parse_formula("G (a -> X b)")
    counts.limit = 2
    for text in ("{a};{b};{a,b}", "{b};{c}"):
        oracle.holds(f, parse_trace(text))
        oracle.holds(g, parse_trace(text))
    nodes, pending = set(), [f]
    while pending:
        node = pending.pop()
        nodes.add(id(node))
        pending.extend(children(node))
    assert len(nodes) == 22 and nodes <= set(counts.built)
    # g builds G, its negation `F (a & WX !b)` but for the `!b` that WX does not run, and X b, the negation of WX !b.
    assert len(counts.built) == 22 + 7 and set(counts.built.values()) == {1}


def test_compiled_code_is_not_part_of_the_value():
    text = "G (a -> <b* ; c?> X[1,3) c)"
    f = parse_formula(text)
    assert oracle.holds(f, parse_trace("{a,b}@0;{c}@1;{c}@3")) is True
    assert getattr(f, "_code", None) is not None
    fresh = parse_formula(text)
    for other in (fresh, copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert getattr(other, "_code", None) is None
        assert other == f and f == other and hash(other) == hash(f) and repr(other) == repr(f)


def test_deep_nodes_evaluate():
    """An 800-step path and 400-operand `&` and `U` chains: compiling takes no Python frame per level, evaluating at most two."""
    a, b = Atom("a"), Atom("b")
    path, conjunction, until = Test(a), a, b
    for _ in range(799):
        path = Seq(path, Test(a))
    for _ in range(399):
        conjunction, until = And(conjunction, a), Until(a, until)
    for text, verdict in (("{a,b}", True), ("{a};{b}", False)):
        t = parse_trace(text)
        assert oracle.holds(Diamond(path, b), t) is verdict
        assert oracle.holds(conjunction, t) is True
        assert oracle.holds(until, t) is True
