"""Which formulas each automaton construction admits, and the error it gives otherwise."""

import pytest

from tracelogic import oracle
from tracelogic.afa import AFA
from tracelogic.errors import UnsupportedOperatorError
from tracelogic.formula import nnf, to_dynamic_core
from tracelogic.parser import parse_formula
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
