"""The per-position rule checks, kept as ground truth for the bit-set ones.

These are `check_program` and `extract_constraints` as `tracelogic.metric`
had them before rules were checked as formulas by the oracle: each rule is
tested at each position by `_body_holds` and `_head_holds`, and the untimed
check runs on a copy of the trace with zero timestamps.  The file name does
not match `test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

from tracelogic.metric import (
    ConstraintSystem,
    DiffConstraint,
    MetricHead,
    MetricProgram,
    MetricRule,
    PlainHead,
    UntimedViolationError,
)
from tracelogic.trace import TimedTrace, Trace


def _body_holds(rule: MetricRule, letter) -> bool:
    return all((atom in letter) == positive for atom, positive in rule.body)


def _head_holds(head, t: TimedTrace, i: int, check_time: bool) -> bool:
    match head:
        case None:
            return False
        case PlainHead(atom):
            return atom in t.letters[i]
        case MetricHead(lo, hi, atom):
            if i + 1 >= len(t):
                return False
            if atom not in t.letters[i + 1]:
                return False
            if not check_time:
                return True
            delta = t.times[i + 1] - t.times[i]
            return lo <= delta and (hi is None or delta < hi)
    raise TypeError(f"not a rule head: {head!r}")


def check_program(program: MetricProgram, t: TimedTrace) -> list[tuple[int, int]]:
    """All (rule index, position) pairs where a rule fires but its head fails."""
    violations = []
    for r, rule in enumerate(program.rules):
        for i, letter in enumerate(t.letters):
            if _body_holds(rule, letter) and not _head_holds(rule.head, t, i, check_time=True):
                violations.append((r, i))
    return violations


def extract_constraints(program: MetricProgram, t: Trace, strict: bool = False) -> ConstraintSystem:
    """Difference constraints that timestamps for t must satisfy.

    The untimed part is verified first (metric intervals ignored); if it
    already fails, UntimedViolationError reports the rule and position.
    With strict=True consecutive timestamps must increase by at least 1.
    """
    dummy = TimedTrace(t.letters, tuple(0 for _ in t.letters))
    constraints = []
    for r, rule in enumerate(program.rules):
        for i, letter in enumerate(t.letters):
            if not _body_holds(rule, letter):
                continue
            if not _head_holds(rule.head, dummy, i, check_time=False):
                raise UntimedViolationError(r, i)
            if isinstance(rule.head, MetricHead):
                hi = None if rule.head.hi is None else rule.head.hi - 1
                constraints.append(DiffConstraint(i, i + 1, rule.head.lo, hi))
    minimum_gap = 1 if strict else 0
    for i in range(len(t) - 1):
        constraints.append(DiffConstraint(i, i + 1, minimum_gap, None))
    return ConstraintSystem(len(t), tuple(constraints))
