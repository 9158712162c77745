"""Every invalid value the library refuses is an `InvalidValueError`: a `TraceLogicError` and a `ValueError` at once."""

import pytest

from tracelogic import InvalidValueError, TraceLogicError
from tracelogic.formula import TRUE, And, Atom, MetricNext, Next, Step
from tracelogic.metric import ConstraintSystem, DiffConstraint, MetricRule
from tracelogic.oracle import evaluate
from tracelogic.trace import TimedTrace, Trace, check_enumeration_bound

EMPTY = frozenset()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Atom("B c"), "invalid atom name: 'B c'"),
        (lambda: MetricNext(5, 5, TRUE), "empty metric interval [5,5)"),
        (lambda: Step(Next(Atom("a"))), "step guard must be propositional"),
        (
            lambda: MetricRule(MetricNext(1, 2, And(Atom("a"), Atom("b"))), TRUE),
            "not a rule head: MetricNext(lo=1, hi=2, arg=And(left=Atom(name='a'), right=Atom(name='b')))",
        ),
        (lambda: DiffConstraint(0, 0, 0, None), "difference constraint needs two distinct variables"),
        (lambda: DiffConstraint(0, 1, 5, 4), "empty bound [5,4]"),
        (lambda: ConstraintSystem(-1, ()), "negative variable count -1"),
        (
            lambda: ConstraintSystem(1, (DiffConstraint(0, 1, 0, None),)),
            "constraint DiffConstraint(i=0, j=1, lo=0, hi=None) references a missing variable",
        ),
        (lambda: TimedTrace((EMPTY,), (0, 1)), "one timestamp per letter required"),
        (lambda: TimedTrace((EMPTY, EMPTY), (5, 3)), "timestamps must be non-decreasing"),
        (lambda: check_enumeration_bound(("a",), -1), "trace length bound -1 is negative"),
        (lambda: evaluate(Atom("a"), Trace((EMPTY,)), 2), "position 2 outside 0..1"),
    ],
    ids=["atom", "metric", "step", "metric-head", "constraint-same-variable", "constraint-empty-bound",
         "system-negative-count", "system-missing-variable", "timed-trace-lengths", "timed-trace-order",
         "enumeration-bound", "evaluate-position"],
)
def test_invalid_values_are_typed_errors(build, message):
    with pytest.raises(InvalidValueError) as error:
        build()
    assert (error.type, str(error.value)) == (InvalidValueError, message)
    assert isinstance(error.value, TraceLogicError) and isinstance(error.value, ValueError)
