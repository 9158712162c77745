"""The per-position rule checks and the worklist solver, kept as ground truth.

`check_program` and `extract_constraints` are as `tracelogic.metric` had
them before rules were checked as formulas by the oracle: each rule is
tested at each position by `_body_holds` and `_head_holds`, and the untimed
check runs on a copy of the trace with zero timestamps.  `_body_holds` reads
a rule's body, `TRUE` or a left-nested `And` of `Atom` and `Not(Atom)`
literals, by its own loop down the conjunction, without the oracle or the
library's walk.  `feasible` and
`_trace_cycle` are as it had them before chains were solved by one pass:
every system goes through the worklist longest-path solver.
`extract_constraints_one_by_one` is `extract_constraints` as it was before
step constraints were built in batches: one validating `DiffConstraint`
per constraint, over the oracle's rule positions.  The file name does not
match `test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

from collections import deque

from reference_oracle import _members
from tracelogic.errors import TraceLogicError
from tracelogic.formula import And, Atom, MetricNext, Not, TrueFormula
from tracelogic.metric import (
    ConstraintSystem,
    DiffConstraint,
    Infeasible,
    MetricProgram,
    MetricRule,
    UntimedViolationError,
    Witness,
    _rule_positions,
)
from tracelogic.trace import TimedTrace, Trace


def _body_holds(rule: MetricRule, letter) -> bool:
    body = rule.body
    while isinstance(body, And):
        if not _literal_holds(body.right, letter):
            return False
        body = body.left
    return _literal_holds(body, letter)


def _literal_holds(literal, letter) -> bool:
    match literal:
        case TrueFormula():
            return True
        case Atom(atom):
            return atom in letter
        case Not(Atom(atom)):
            return atom not in letter
    raise TypeError(f"not a body literal: {literal!r}")


def _head_holds(head, t: TimedTrace, i: int, check_time: bool) -> bool:
    match head:
        case None:
            return False
        case Atom(atom):
            return atom in t.letters[i]
        case MetricNext(lo, hi, Atom(atom)):
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
            if isinstance(rule.head, MetricNext):
                hi = None if rule.head.hi is None else rule.head.hi - 1
                constraints.append(DiffConstraint(i, i + 1, rule.head.lo, hi))
    minimum_gap = 1 if strict else 0
    for i in range(len(t) - 1):
        constraints.append(DiffConstraint(i, i + 1, minimum_gap, None))
    return ConstraintSystem(len(t), tuple(constraints))


def extract_constraints_one_by_one(program: MetricProgram, t: Trace, strict: bool = False) -> ConstraintSystem:
    """Difference constraints that timestamps for t must satisfy.

    The untimed part is verified first (metric intervals ignored); if it
    already fails, UntimedViolationError reports the rule and position.
    With strict=True consecutive timestamps must increase by at least 1.
    """
    constraints = []
    for r, rule, fires, broken in _rule_positions(program, t, timed=False):
        if broken:
            raise UntimedViolationError(r, _members(broken)[0])
        if isinstance(rule.head, MetricNext):
            lo, hi = rule.head.lo, rule.head.hi
            hi = None if hi is None else hi - 1
            constraints += [DiffConstraint(i, i + 1, lo, hi) for i in _members(fires)]
    minimum_gap = 1 if strict else 0
    constraints += [DiffConstraint(i, i + 1, minimum_gap, None) for i in range(len(t) - 1)]
    return ConstraintSystem(len(t), tuple(constraints))


def feasible(system: ConstraintSystem) -> Witness | Infeasible:
    """Minimal non-negative integer solution, or a contradictory constraint cycle.

    Solved as a longest-path problem from the anchor t_0 = 0: each lower
    bound contributes an edge i -> j of weight lo, each finite upper bound
    an edge j -> i of weight -hi, and every variable starts at 0 as if
    reached from the anchor by a zero-weight edge (non-negativity).

    A FIFO worklist scans the out-edges of each variable whose value rose,
    so a chain of constraints is solved in one sweep.  The longest-path
    tree is kept as child sets.  When an edge u -> v raises t_v, the
    subtree below v is taken out of the tree (its values rest on the old
    t_v, and its members are skipped when popped until raised again); if
    u lies inside that subtree, the tree path v ~> u and the edge u -> v
    form a cycle of positive weight, which certifies infeasibility
    (subtree disassembly, Tarjan 1981).
    """
    n = system.n_vars
    if n == 0:
        return Witness(())
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # (dst, weight, constraint idx)
    for idx, (i, j, lo, hi) in enumerate(system.constraints):
        out[i].append((j, lo, idx))
        if hi is not None:
            out[j].append((i, -hi, idx))

    dist = [0] * n
    pred: list[tuple[int, int | None] | None] = [(0, None)] * n
    pred[0] = None
    children: list[set[int]] = [set() for _ in range(n)]
    children[0].update(range(1, n))
    in_tree = [True] * n
    queued = [True] * n
    queue = deque(range(n))
    while queue:
        u = queue.popleft()
        queued[u] = False
        if not in_tree[u]:
            continue
        for v, weight, idx in out[u]:
            value = dist[u] + weight
            if value <= dist[v]:
                continue
            dist[v] = value
            stack = [v]
            while stack:
                x = stack.pop()
                if x == u:
                    pred[v] = (u, idx)
                    return Infeasible(_trace_cycle(pred, v))
                in_tree[x] = False
                stack.extend(children[x])
                children[x].clear()
            # v is not the anchor: every scanned node lies below t_0, so raising it returned above.
            children[pred[v][0]].discard(v)
            pred[v] = (u, idx)
            children[u].add(v)
            in_tree[v] = True
            if not queued[v]:
                queued[v] = True
                queue.append(v)

    for c in system.constraints:
        if not c.satisfied(dist):
            raise TraceLogicError(f"solver produced an invalid witness for {c}")
    return Witness(tuple(dist))


def _trace_cycle(pred, start: int) -> tuple[int, ...]:
    """Constraint indices, in walk order, of the tree path back to start and its closing edge."""
    indices = []
    node = start
    while True:
        node, idx = pred[node]
        if idx is not None:  # non-negativity edges from the anchor name no constraint
            indices.append(idx)
        if node == start:
            return tuple(reversed(indices))
