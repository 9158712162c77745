import copy
import pickle
import random

import pytest
from hypothesis import given

from conftest import exhaustive_core_formulas, random_any_formula
from reference_fa import end_values
from test_parser_properties import FORMULAS, SETTINGS, _node_types
from tracelogic import formula as fm
from tracelogic import oracle
from tracelogic.afa import AFA
from tracelogic.formula import (
    TRUE,
    AT_MARKER,
    STEP_TRUE,
    And,
    Atom,
    Box,
    Diamond,
    Implies,
    MetricNext,
    Not,
    Seq,
    Star,
    Step,
    Test,
    atoms,
    check_fragment,
    format_formula,
    nnf,
    nnf_not,
    to_dynamic_core,
)
from tracelogic.errors import InvalidValueError, UnsupportedOperatorError
from tracelogic.parser import parse_formula
from tracelogic.trace import enumerate_traces


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("Bad")
    with pytest.raises(ValueError):
        Atom("1x")
    assert Atom("school_run2").name == "school_run2"


def test_metric_interval_validation():
    with pytest.raises(ValueError):
        MetricNext(5, 5, TRUE)
    assert MetricNext(5, None, TRUE).hi is None


def test_step_guard_must_be_propositional():
    with pytest.raises(ValueError) as error:
        Step(fm.Next(Atom("a")))
    assert (error.type, str(error.value)) == (InvalidValueError, "step guard must be propositional")


def test_nnf_de_morgan():
    assert nnf(parse_formula("!(a & b)")) == parse_formula("!a | !b")


def test_nnf_diamond_box_duality():
    assert nnf(parse_formula("!<tt*> a")) == parse_formula("[tt*] !a")


def test_nnf_until_release():
    image = nnf(parse_formula("!(a U b)"))
    assert image == parse_formula("(!a) R (!b)")
    for t in enumerate_traces(("a", "b"), 4):
        assert oracle.holds(image, t) == (not oracle.holds(parse_formula("a U b"), t))


def test_nnf_metric_dual():
    assert nnf(parse_formula("!X[2,5) a")) == parse_formula("WX[2,5) !a")
    assert nnf(parse_formula("!WX[2,5) a")) == parse_formula("X[2,5) !a")


def test_nnf_idempotent():
    rng = random.Random(11)
    for _ in range(300):
        f = random_any_formula(rng, rng.randint(1, 12))
        once = nnf(f)
        assert nnf(once) == once


def test_nnf_only_negates_atoms():
    def check(f):
        match f:
            case Not(arg):
                assert isinstance(arg, Atom)
            case _:
                for name in ("arg", "left", "right"):
                    child = getattr(f, name, None)
                    if child is not None and hasattr(type(child), "__match_args__"):
                        if child.__class__.__module__.endswith("formula"):
                            check(child)

    rng = random.Random(13)
    for _ in range(200):
        check(nnf(random_any_formula(rng, rng.randint(1, 12))))


def test_core_rewrites():
    assert to_dynamic_core(nnf(parse_formula("F a"))) == parse_formula("<tt*> a")
    assert to_dynamic_core(nnf(parse_formula("a U b"))) == parse_formula("<(a? ; tt)*> b")
    assert to_dynamic_core(nnf(parse_formula("X a"))) == parse_formula("<tt> a")
    assert to_dynamic_core(nnf(parse_formula("WX a"))) == parse_formula("[tt] a")
    assert to_dynamic_core(nnf(parse_formula("G a"))) == parse_formula("[tt*] a")
    assert to_dynamic_core(nnf(parse_formula("a R b"))) == parse_formula("[((!a)? ; tt)*] b")


def test_core_keeps_step_guards_as_they_are():
    """Step guards are propositional and are not rewritten, so a guard that is not in NNF stays as it is."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    core = to_dynamic_core(parse_formula("<!(a & b)> X c"))
    assert core == Diamond(Step(Not(And(a, b))), Diamond(STEP_TRUE, c))
    core = to_dynamic_core(parse_formula("[a -> b] F c"))
    assert core == Box(Step(Implies(a, b)), Diamond(Star(STEP_TRUE), c))


@pytest.mark.parametrize(
    "src, past, message",
    [
        ("X a & Y b", False, "Next must be rewritten"),
        ("Y b & X a", False, "past operator Prev"),
        ("X a & Y b", True, "Next must be rewritten"),
        ("Y b & X a", True, "Next must be rewritten"),
    ],
)
def test_fragment_reports_the_first_offender_in_preorder(src, past, message):
    with pytest.raises(UnsupportedOperatorError, match=message):
        check_fragment(parse_formula(src), past=past)


def test_core_removes_future_sugar():
    rng = random.Random(17)
    banned = ("Next", "WeakNext", "Until", "Release", "Eventually", "Always", "Implies")

    def names(f):
        yield type(f).__name__
        for field in ("arg", "left", "right", "path", "guard"):
            child = getattr(f, field, None)
            if child is not None and hasattr(type(child), "__match_args__"):
                yield from names(child)

    for _ in range(200):
        core = to_dynamic_core(nnf(random_any_formula(rng, rng.randint(1, 12))))
        assert not set(names(core)) & set(banned)


def test_until_core_equivalence_exhaustive():
    f = parse_formula("a U b")
    image = to_dynamic_core(nnf(f))
    count = 0
    for t in enumerate_traces(("a", "b"), 4):
        count += 1
        assert oracle.holds(f, t) == oracle.holds(image, t)
    assert count == 341


def test_oracle_agrees_through_nnf_and_core():
    traces = list(enumerate_traces(("a", "b"), 4))
    for f in exhaustive_core_formulas(4):
        normal = nnf(f)
        core = to_dynamic_core(normal)
        for t in traces:
            reference = oracle.holds(f, t)
            assert oracle.holds(normal, t) == reference
            assert oracle.holds(core, t) == reference


def _mentions_metric(f) -> bool:
    from tracelogic.formula import MetricNext, WeakMetricNext

    if isinstance(f, (MetricNext, WeakMetricNext)):
        return True
    for field in ("arg", "left", "right", "path", "guard"):
        child = getattr(f, field, None)
        if child is not None and hasattr(type(child), "__match_args__"):
            if _mentions_metric(child):
                return True
    return False


def test_sugar_survives_nnf_and_core():
    rng = random.Random(19)
    traces = list(enumerate_traces(("a", "b"), 3))
    checked = 0
    while checked < 150:
        f = random_any_formula(rng, rng.randint(1, 10))
        if _mentions_metric(f):
            continue
        checked += 1
        normal = nnf(f)
        core = to_dynamic_core(normal)
        for t in traces:
            reference = oracle.holds(f, t)
            assert oracle.holds(normal, t) == reference
            assert oracle.holds(core, t) == reference


def test_atoms_collection():
    assert atoms(parse_formula("a & !b")) == {"a", "b"}
    assert atoms(parse_formula("<(c?)*> tt")) == {"c"}
    assert atoms(parse_formula("<(a & !d)> tt")) == {"a", "d"}
    assert atoms(parse_formula("tt")) == set()
    assert atoms(parse_formula("X[1,4) run")) == {"run"}


def test_closure_atom_is_single_state():
    assert list(AFA(Atom("a")).states) == [Atom("a")]


def test_closure_star_reaches_body():
    """The AFA's states are its root, ordinal 0, and the step targets its images name, here under a star."""
    f = parse_formula("<tt*> <tt> a")
    states = AFA(f).states
    assert list(states) == [f, Atom("a")]
    assert states.index[f] == 0


def test_closure_snapshot_stable():
    first = AFA(parse_formula("[(a ; b)*] <tt> c")).states
    second = AFA(parse_formula("[(a ; b)*] <tt> c")).states
    assert list(first) == list(second)
    assert len(first) == 3


def test_closure_members_cover_expansions():
    """Every state of the AFA steps only to states of the AFA, at every letter."""
    for f in exhaustive_core_formulas(6):
        automaton = AFA(f, ("a", "b"))
        states = set(range(len(automaton)))
        for q in states:
            mask, table = automaton.class_table(q)
            for code in range(1 << len(automaton.ap)):
                for members in table[code & mask]:
                    assert members <= states, (f, q, code)


def test_format_examples():
    assert format_formula(And(Atom("a"), Atom("b"))) == "a & b"
    assert format_formula(MetricNext(20, 40, Atom("school"))) == "X[20,40) school"
    assert format_formula(Diamond(Star(Step(TRUE)), Atom("a"))) == "<tt*> a"
    assert format_formula(Box(Star(Seq(Test(Not(Atom("a"))), Step(TRUE))), Atom("b"))) == "[((!a)? ; tt)*] b"


def test_format_parse_round_trip_exhaustive():
    for f in exhaustive_core_formulas(4):
        assert parse_formula(format_formula(f)) == f


def test_end_detector_formulas():
    from tracelogic.trace import Trace

    assert end_values(AT_MARKER)[0]  # holds outright at the letterless end point
    assert oracle.holds(AT_MARKER, Trace(()))
    assert not oracle.holds(AT_MARKER, Trace((frozenset({"a"}),)))


@pytest.mark.parametrize("fn", [nnf, nnf_not, to_dynamic_core, atoms, check_fragment, format_formula])
@pytest.mark.parametrize("bad", ["a", Step(TRUE)], ids=["str", "path"])
def test_non_nodes_raise_type_error(fn, bad):
    with pytest.raises(TypeError):
        fn(bad)


@pytest.mark.parametrize("src", ["!(a & b)", "!(X a)", "a -> b", "X !(a & b)", "<(a -> b)?> c", "Y (a -> b)"])
def test_core_rejects_non_nnf(src):
    with pytest.raises(TypeError, match="not an NNF formula"):
        to_dynamic_core(parse_formula(src))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


SHAPES = (fm.Unary, fm.Binary, fm.Modal, fm.Metric, fm.PathBinary)
LEAVES = {fm.Atom, fm.TrueFormula, fm.FalseFormula, fm.Step, fm.Test, fm.Star}
FORMULA_CLASSES = {c for c in _subclasses(fm.Formula) if c not in SHAPES}
PATH_CLASSES = {c for c in _subclasses(fm.PathExpr) if c not in SHAPES}


def test_every_node_class_has_one_shape_or_is_a_leaf():
    for cls in FORMULA_CLASSES | PATH_CLASSES:
        shapes = [shape for shape in SHAPES if issubclass(cls, shape)]
        assert len(shapes) == (0 if cls in LEAVES else 1), (cls, shapes)


def test_dual_table_is_an_involution():
    assert set(fm._DUAL) == FORMULA_CLASSES - {fm.Atom, fm.Not, fm.Implies}
    for cls, dual in fm._DUAL.items():
        assert dual is not cls
        assert fm._DUAL[dual] is cls
        assert [s for s in SHAPES if issubclass(cls, s)] == [s for s in SHAPES if issubclass(dual, s)]


def test_syntax_table_covers_every_operator():
    tables = (fm.BINARY_SYNTAX, fm.PREFIX_SYNTAX, fm.METRIC_SYNTAX, fm.MODAL_SYNTAX, fm.POSTFIX_SYNTAX)
    covered = [cls for table in tables for cls in table]
    assert len(covered) == len(set(covered))
    assert set(covered) == (FORMULA_CLASSES | PATH_CLASSES) - {fm.Atom, fm.TrueFormula, fm.FalseFormula, fm.Step}


def test_double_negation_is_nnf():
    seen = set()

    @SETTINGS
    @given(FORMULAS)
    def check(f):
        seen.update(_node_types(f))
        assert nnf_not(nnf_not(f)) == nnf(f)

    check()
    assert {cls.__name__ for cls in FORMULA_CLASSES | PATH_CLASSES} <= seen


def test_core_of_nnf_is_in_the_two_way_fragment():
    seen = set()

    @SETTINGS
    @given(FORMULAS)
    def check(f):
        names = _node_types(f)
        seen.update(names)
        core = to_dynamic_core(nnf(f))
        if names & {"MetricNext", "WeakMetricNext"}:
            with pytest.raises(UnsupportedOperatorError, match="metric backend"):
                check_fragment(core, past=True)
        else:
            check_fragment(core, past=True)

    check()
    assert {cls.__name__ for cls in FORMULA_CLASSES | PATH_CLASSES} <= seen


def test_hashed_nodes_copy_and_pickle():
    """A node that keeps its hash copies and pickles from its fields; the copies are equal and hash equal."""
    f = parse_formula("<(a? ; b)*> (c U X[1,3) d) & !e & [tt*] WX[2,inf) a")
    value = hash(f)
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and hash(copied) == value


def _value_samples() -> list:
    """One value of each shape of `fm.Value` subclass, with the `repr` its frozen dataclass printed."""
    from tracelogic.afa import BEGIN, MoveRef, Weak
    from tracelogic.fa import build_dfa
    from tracelogic.metric import ConstraintSystem, DiffConstraint, Infeasible, MetricProgram, MetricRule, Witness
    from tracelogic.trace import TimedTrace, Trace

    a = Atom("a")
    return [
        (a, "Atom(name='a')"),
        (TRUE, "TrueFormula()"),
        (And(a, Not(a)), "And(left=Atom(name='a'), right=Not(arg=Atom(name='a')))"),
        (MetricNext(1, None, a), "MetricNext(lo=1, hi=None, arg=Atom(name='a'))"),
        (
            Diamond(Star(Seq(Test(a), STEP_TRUE)), a),
            "Diamond(path=Star(arg=Seq(left=Test(arg=Atom(name='a')), right=Step(guard=TrueFormula()))), "
            "arg=Atom(name='a'))",
        ),
        (MoveRef(2, -1), "MoveRef(state=2, move=-1)"),
        (BEGIN, "_Marker(name='begin')"),
        (Weak(a), "Weak(formula=Atom(name='a'))"),
        (
            build_dfa(Diamond(STEP_TRUE, a), ("a",)),
            "DFA(ap=('a',), letters=(frozenset(), frozenset({'a'})), transitions=((1, 1), (2, 3), (2, 2), (3, 3)), "
            "accepting=(False, False, False, True), initial=0)",
        ),
        (Trace((frozenset({"a"}), frozenset())), "Trace(letters=(frozenset({'a'}), frozenset()))"),
        (TimedTrace((frozenset({"a"}),), (3,)), "TimedTrace(letters=(frozenset({'a'}),), times=(3,))"),
        (
            MetricRule(MetricNext(1, 3, a), Not(Atom("b"))),
            "MetricRule(head=MetricNext(lo=1, hi=3, arg=Atom(name='a')), body=Not(arg=Atom(name='b')))",
        ),
        (MetricProgram((MetricRule(None, a),)), "MetricProgram(rules=(MetricRule(head=None, body=Atom(name='a')),))"),
        (
            ConstraintSystem(2, (DiffConstraint(0, 1, 1, 2),)),
            "ConstraintSystem(n_vars=2, constraints=(DiffConstraint(i=0, j=1, lo=1, hi=2),))",
        ),
        (Witness((0, 1)), "Witness(times=(0, 1))"),
        (Infeasible((0,)), "Infeasible(cycle=(0,))"),
    ]


def test_values_print_hash_and_copy_as_their_fields():
    """Each value prints as its dataclass did, hashes as its field tuple, and copies and pickles to an equal value."""
    samples = _value_samples()
    for value, text in samples:
        fields = tuple(getattr(value, name) for name in value.__match_args__)
        assert repr(value) == text
        assert hash(value) == hash(fields) and hash(value) == hash(fields)  # computed, then kept
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
    values = [value for value, _ in samples]
    assert all(v != w for i, v in enumerate(values) for w in values[i + 1:])


def test_values_equal_only_values_of_their_own_class():
    """Equal fields are not enough: `And(a, b)` and `Or(a, b)` hash alike, as their field tuples do, but differ."""
    from tracelogic.formula import Alt, Next, Or, WeakNext

    a, b = Atom("a"), Atom("b")
    pairs = [(And(a, b), Or(a, b)), (Next(a), WeakNext(a)), (Not(a), Next(a)), (Seq(Test(a), STEP_TRUE), Alt(Test(a), STEP_TRUE))]
    for left, right in pairs:
        assert left != right and not left == right and hash(left) == hash(right)
        assert left == type(left)(*(getattr(left, name) for name in left.__match_args__))
    assert Atom("a") != "a" and Atom("a").__eq__("a") is NotImplemented


def test_values_refuse_assignment_and_deletion():
    """Assigning or deleting any attribute of a frozen value raises AttributeError with the message `dataclasses` gives."""
    for value, _ in _value_samples():
        name = (*value.__match_args__, "extra")[0]
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
        assert getattr(value, name, None) is before


def test_nfa_is_mutable_and_unhashable_and_cached_properties_work():
    """`NFA` keeps lists and may be changed; the `cached_property` of `DFA`, `NFA` and `MetricProgram` still work."""
    from tracelogic.fa import build_dfa, dealternate
    from tracelogic.metric import MetricProgram, MetricRule

    nfa = dealternate(AFA(Diamond(STEP_TRUE, Atom("a"))))
    with pytest.raises(TypeError, match="unhashable"):
        hash(nfa)
    assert nfa.successors(0, frozenset({"a"})) == (1,)
    nfa.initial = 1
    assert nfa.initial == 1 and pickle.loads(pickle.dumps(nfa)) == nfa
    dfa = build_dfa(Diamond(STEP_TRUE, Atom("a")), ("a",))
    assert dfa._columns is dfa._columns and dfa._columns == {frozenset(): 0, frozenset({"a"}): 1}
    program = MetricProgram((MetricRule(MetricNext(1, 3, Atom("b")), Atom("a")),))
    assert program._formulas is program._formulas and program.universe() == {"a", "b"}
    match program:
        case MetricProgram((MetricRule(MetricNext(lo, hi, Atom(name)), body),)):
            assert (lo, hi, name, body) == (1, 3, "b", Atom("a"))
        case _:
            raise AssertionError(program)
