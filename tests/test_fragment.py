"""Which formulas each automaton construction admits, and the error it gives otherwise."""

import random

import pytest

from conftest import exhaustive_core_formulas, random_core_formula
from tracelogic import formula as fm
from tracelogic import oracle
from tracelogic.afa import AFA
from tracelogic.errors import UnsupportedOperatorError
from tracelogic.formula import nnf, to_dynamic_core
from tracelogic.parser import parse_formula, parse_trace
from tracelogic.trace import enumerate_traces
from tracelogic.twafa import TwoAFA


def _core(src):
    return to_dynamic_core(nnf(parse_formula(src)))


@pytest.mark.parametrize("src", ["<(Y a)?> b", "a & Y b", "[(WY a)?] b", "a | (b S c)"])
def test_nested_past_needs_two_way(src):
    with pytest.raises(UnsupportedOperatorError, match="past"):
        AFA(_core(src))
    assert len(TwoAFA(_core(src))) > 0


def test_sugar_under_past_must_be_rewritten():
    with pytest.raises(UnsupportedOperatorError, match="must be rewritten"):
        TwoAFA(parse_formula("Y (F a)"))
    with pytest.raises(UnsupportedOperatorError, match="must be rewritten"):
        TwoAFA(parse_formula("<(X a)?> b"))


def test_negation_must_be_pushed_to_atoms():
    for build in (AFA, TwoAFA):
        with pytest.raises(UnsupportedOperatorError, match="negation"):
            build(parse_formula("!(a & b)"))


@pytest.mark.parametrize("src", ["X[1,2) a", "<(WX[0,3) a)?> b", "a & X[1,inf) b"])
def test_metric_message_is_the_same_for_both_backends(src):
    messages = []
    for build in (AFA, TwoAFA):
        with pytest.raises(UnsupportedOperatorError, match="needs the metric backend") as info:
            build(_core(src))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("src, states", [("<!(a & b)> c", 2), ("[a -> b] c", 2), ("<(!(a | c))*> b", 1)])
def test_step_guards_need_not_be_in_nnf(src, states):
    """Step guards are not checked: both automata read any propositional guard as it is."""
    f = parse_formula(src)
    one_way, two_way = AFA(f, ("a", "b", "c")), TwoAFA(f, ("a", "b", "c"))
    assert len(one_way) == states
    for t in enumerate_traces(("a", "b", "c"), 3):
        assert one_way.accepts(t) == two_way.accepts(t) == oracle.holds(f, t)


def test_the_fragment_check_returns_the_atoms():
    """The check's one walk collects `atoms(f)`, the atoms only step guards name included."""
    rng = random.Random(53)
    corpus = exhaustive_core_formulas(4) + [random_core_formula(rng, rng.randint(1, 14), past=True) for _ in range(300)]
    for f in corpus:
        assert fm.check_fragment(f, past=True) == fm.atoms(f), f


def test_an_atom_only_a_step_guard_names_is_in_the_alphabet():
    """`<a> tt` names `a` only in its step guard: both automata take it into `ap` and read `{a}`."""
    f = _core("<a> tt")
    assert fm.check_fragment(f) == {"a"}
    for build in (AFA, TwoAFA):
        automaton = build(f)
        assert automaton.ap == ("a",)
        assert automaton.accepts(parse_trace("{a}")) is True
        assert automaton.accepts(parse_trace("{}")) is False


@pytest.mark.parametrize(
    "src, builds",
    [("G (a -> F b)", (AFA, TwoAFA)), ("<(a ; !b)*> (c | X a)", (AFA, TwoAFA)), ("F (b & Y a)", (TwoAFA,))],
)
def test_the_automata_read_their_alphabet_from_the_fragment_check(monkeypatch, src, builds):
    """`AFA(f)` and `TwoAFA(f)` walk the root once before its first transition: no `fm.atoms` call on it."""
    f = _core(src)
    walked = []
    atoms = fm.atoms

    def recording(g):
        walked.append(g)
        return atoms(g)

    monkeypatch.setattr(fm, "atoms", recording)
    for build in builds:
        walked.clear()
        automaton = build(f)
        assert automaton.ap == tuple(sorted(atoms(f)))
        assert walked and not any(g is f for g in walked), build
