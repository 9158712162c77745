import copy
import pickle
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import exhaustive_core_formulas, random_core_formula, random_trace
from tracelogic import oracle
from tracelogic.errors import UntimedTraceError
from tracelogic.formula import PathExpr, Star, Step, Test, TRUE, And, Atom, Diamond, Not, Seq, Until, children, nnf, nnf_not, to_dynamic_core
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
    """Rule runs by node identity and polarity, counted through the patched `_SAT` and `_NEG` tables.

    A node's rule run more than `limit` times in one polarity fails at once,
    so a lost memo fails in bounded time even on a formula whose tree is
    exponentially large.
    """
    counts = SimpleNamespace(ran=Counter(), limit=1)

    def counting(polarity, rule):
        def counted(ev, f):
            key = (id(f), polarity)
            counts.ran[key] += 1
            assert counts.ran[key] <= counts.limit, f"a node's {polarity} computed twice over one trace"
            return rule(ev, f)

        return counted

    for name in ("_SAT", "_NEG"):
        monkeypatch.setattr(oracle, name, {cls: counting(name, rule) for cls, rule in getattr(oracle, name).items()})
    return counts


def test_shared_subterms_are_computed_once_per_trace(counts):
    """Each node's rule runs once per trace and polarity, for a shared `g` and for a shared negation `!g`."""
    g = Atom("a")
    h = Atom("a")
    for _ in range(40):
        g = And(g, g)  # 41 distinct nodes; as a tree, 2**41 - 1
        h = And(Not(h), Not(h))  # 121 distinct nodes; both `!h` read the negation of the one h below
    for counts.limit, text in enumerate(("{a};{}", "{a};{a}"), 1):
        assert oracle.holds(g, parse_trace(text)) is True
        assert oracle.holds(h, parse_trace(text)) is True
        # g in `sat` only; h's levels alternate between `sat` and `neg`, and its `!` nodes take their level's polarity
        assert len(counts.ran) == 41 + 121 and set(counts.ran.values()) == {counts.limit}
    polarities = Counter(polarity for _, polarity in counts.ran)
    assert polarities == {"_SAT": 41 + 21 + 40, "_NEG": 20 + 40}


def test_alternation_costs_two_rule_runs_per_level(counts):
    """A freshly parsed `G F … a` of d operators makes 2d + 1 rule runs: c = 2 per operator, one for the atom.

    Every G runs in `sat`, as the failure of its negation, and in `neg`, as
    an F over its operand's negation; every F runs in `neg`, as its own
    failure, and in `sat`.  No negated tree is built under each level.
    """
    t = parse_trace("{a}")
    for depth in (32, 64, 128):
        counts.ran.clear()  # node ids of a formula that is gone may come back
        f = parse_formula("G F " * (depth // 2) + "a")
        assert oracle.holds(f, t) is False  # at the end point `G !a` holds weakly, so `F G !a` holds at 0
        assert sum(counts.ran.values()) == 2 * depth + 1


def test_neg_is_the_nnf_negation_everywhere():
    """`neg(f)` is `sat(nnf_not(f))` at every position, the end point included."""
    traces = list(enumerate_traces(("a", "b"), 3))
    rng = random.Random(41)
    for _ in range(150):
        f = random_core_formula(rng, rng.randint(1, 9), past=True)
        negated = nnf_not(f)
        for t in traces:
            ev = oracle._evaluator(t)
            assert ev.neg(f) == ev.sat(negated), (f, t)


def test_one_formula_over_two_traces_builds_each_node_once(counts):
    """The oracle builds no node: every rule run is on a node of f or g, once per trace and polarity.

    f's 16 formula nodes run in `sat` (its 6 path nodes run in `pre`); of g,
    G runs in both polarities, `->` and `X b` in `neg` as NNF reads them,
    and `X b` and the atoms in `sat`.
    """
    f = parse_formula("(a U b) & <(a ; b?)* + b> (c S X a) | F Y b")
    g = parse_formula("G (a -> X b)")
    counts.limit = 2
    for text in ("{a};{b};{a,b}", "{b};{c}"):
        oracle.holds(f, parse_trace(text))
        oracle.holds(g, parse_trace(text))
    f_nodes, g_nodes = _nodes(f), _nodes(g)
    assert len(f_nodes) == 22 and len(g_nodes) == 5
    f_formulas = {id(node) for node in f_nodes if not isinstance(node, PathExpr)}
    assert len(f_formulas) == 16 and {(key, "_SAT") for key in f_formulas} <= set(counts.ran)
    assert {key for key, _ in counts.ran} <= {id(node) for node in f_nodes + g_nodes}
    always, implies = g, g.arg
    nxt = implies.right
    g_runs = {(id(node), polarity) for node, polarity in (
        (always, "_SAT"), (always, "_NEG"), (implies, "_NEG"), (nxt, "_SAT"), (nxt, "_NEG"),
        (implies.left, "_SAT"), (nxt.arg, "_SAT"),
    )}
    assert g_runs <= set(counts.ran)
    assert len(counts.ran) == 16 + 7 and set(counts.ran.values()) == {2}


def _nodes(f):
    nodes, pending = [], [f]
    while pending:
        node = pending.pop()
        nodes.append(node)
        pending.extend(children(node))
    return nodes


_KEPT_VALUE = "G (a -> <b* ; c?> X[1,3) c) & !(d U !(e R a)) | WY f"
_KEPT_TRACES = ("{a,b}@0;{c}@1;{c}@3", "{d}@0;{e}@2")


def test_evaluation_leaves_every_node_as_it_found_it():
    """After `holds` over two traces, no node of f has gained an attribute: `vars(node)` holds only its fields."""
    f = parse_formula(_KEPT_VALUE)
    nodes = _nodes(f)
    for trace in _KEPT_TRACES:
        oracle.holds(f, parse_trace(trace))
    assert len(nodes) == 23
    for node in nodes:
        assert set(vars(node)) == set(node.__match_args__), node


def test_compiled_code_is_not_part_of_the_value():
    """Nothing the evaluation does shows in the value: a fresh parse, copies and pickles agree with an evaluated f."""
    f = parse_formula(_KEPT_VALUE)
    for trace in _KEPT_TRACES:
        oracle.holds(f, parse_trace(trace))
    fresh = parse_formula(_KEPT_VALUE)
    for other in (fresh, copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert other == f and f == other and hash(other) == hash(f) and repr(other) == repr(f)


def test_deep_nodes_evaluate():
    """An 800-step path and 400-operand `&` and `U` chains evaluate, with no compile step, at most two Python frames per level."""
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
