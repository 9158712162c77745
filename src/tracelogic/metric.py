"""Metric logic programs over the metric-next fragment.

A rule `h :- b` is the formula `b -> h`, required at every letter position
of a trace and checked there by the oracle: b is `tt` or a conjunction of
literals `a` and `!a`, h an `fm.Atom`, a metric next `X[l,u) a` of one, or
`ff` for an integrity constraint.  Over an untimed trace a metric head is
a plain next, and each step where it fires yields a difference constraint;
their least solution derives timestamps.  A constraint is a validated tuple
`(i, j, lo, hi)`, unpacked by the solver without an attribute read, and
`extract_constraints` builds each rule's step constraints and the minimum
gaps as one batch in one C-level pass, validating their shared bound once.

Every constraint joins two neighbouring positions: a head `X[l,u)` fired
at i gives l <= t_(i+1) - t_i <= u - 1, and each step has a minimum gap
of 0.  So a trace's system is a chain.  It is feasible exactly when at
every step the largest lower bound is at most the smallest upper bound,
and its least solution from t_0 = 0 is the running sum of each step's
largest lower bound.  `feasible` solves a chain by one pass over its
constraints and any other system by a worklist; `enumerate_models` reads
each step's bounds from a table over the letters instead, in
O(|letters| * |rules|) once, then O(horizon) per model.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator
from functools import cached_property
from itertools import repeat

from . import formula as fm
from .afa import StateSet
from .errors import InvalidValueError, TraceLogicError
from .oracle import _evaluator, _members
from .trace import TimedTrace, Trace, accepted_words, check_enumeration_bound, letters_over


class MetricRule(fm.Value):
    """`head :- body`: head an `fm.Atom`, an `fm.MetricNext` of one, or None for an integrity constraint.

    The body is `fm.TRUE` or the left-nested `fm.And` of literals `Atom(name)`
    and `Not(Atom(name))`, in source order.  Both are checked when the rule is
    built, and InvalidValueError names the head, a body that is not a formula,
    or the first literal that is not an atom or a negated atom.
    """

    __match_args__ = ("head", "body")

    def __init__(self, head: fm.Atom | fm.MetricNext | None, body: fm.Formula):
        if not (head is None or isinstance(head, fm.Atom)
                or (isinstance(head, fm.MetricNext) and isinstance(head.arg, fm.Atom))):
            raise InvalidValueError(f"not a rule head: {head!r}")
        if not isinstance(body, fm.Formula):
            raise InvalidValueError(f"not a rule body: {body!r}")
        for literal in reversed(_literals(body)):
            if not (isinstance(literal, fm.Atom) or (isinstance(literal, fm.Not) and isinstance(literal.arg, fm.Atom))):
                raise InvalidValueError(f"not a body literal: {literal!r}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)


def _literals(body: fm.Formula) -> list[fm.Formula]:
    """A rule body's literals, last first, read down its left spine in a loop (no frame per literal); `tt` has none."""
    if isinstance(body, fm.TrueFormula):
        return []
    literals = []
    while isinstance(body, fm.And):
        literals.append(body.right)
        body = body.left
    literals.append(body)
    return literals


class MetricProgram(fm.Value):
    __match_args__ = ("rules",)

    def __init__(self, rules: tuple[MetricRule, ...]):
        if not (isinstance(rules, tuple) and all(isinstance(rule, MetricRule) for rule in rules)):
            raise InvalidValueError(f"not a tuple of rules: {rules!r}")
        object.__setattr__(self, "rules", rules)

    def universe(self) -> set[str]:
        return set().union(*[fm.atoms(f) for rule in self.rules for f in (rule.body, rule.head) if f is not None])

    @cached_property
    def _formulas(self) -> tuple[tuple[fm.Formula, fm.Formula, fm.Formula], ...]:
        """Per rule, its body, its head (`ff` if none) and that head over untimed traces, where `X[l,u) a` reads as `X a`."""
        return tuple((rule.body, head, fm.Next(head.arg) if isinstance(head, fm.MetricNext) else head)
                     for rule in self.rules for head in [fm.FALSE if rule.head is None else rule.head])


class DiffConstraint(namedtuple("_DiffFields", ("i", "j", "lo", "hi"))):
    """lo <= t_j - t_i <= hi over timestamp variables (hi None is unbounded).

    An immutable tuple `(i, j, lo, hi)` with named fields, checked however
    it is built (`_make` and `_replace` go through `__new__`).  The one
    exception is a batch of `extract_constraints`, built by `tuple.__new__`:
    its members share one bound, which one validating `DiffConstraint(0, 1,
    lo, hi)` checks, and i != i + 1 holds for each.  It behaves as
    a tuple in general: it equals and orders against tuples, has length 4,
    indexes, unpacks and concatenates, and has `_asdict` and `_fields`; it
    is not a dataclass, so `dataclasses.replace` and `asdict` reject it.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, lo: int, hi: int | None):
        if i == j:
            raise InvalidValueError("difference constraint needs two distinct variables")
        if hi is not None and lo > hi:
            raise InvalidValueError(f"empty bound [{lo},{hi}]")
        return tuple.__new__(cls, (i, j, lo, hi))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def satisfied(self, times) -> bool:
        i, j, lo, hi = self
        delta = times[j] - times[i]
        return lo <= delta and (hi is None or delta <= hi)


class ConstraintSystem(fm.Value):
    """Difference constraints over per-position timestamp variables, anchored at t_0 = 0."""

    __match_args__ = ("n_vars", "constraints")

    def __init__(self, n_vars: int, constraints: tuple[DiffConstraint, ...]):
        if n_vars < 0:
            raise InvalidValueError(f"negative variable count {n_vars}")
        for c in constraints:
            if not (0 <= c.i < n_vars and 0 <= c.j < n_vars):
                raise InvalidValueError(f"constraint {c} references a missing variable")
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "constraints", constraints)


class Witness(fm.Value):
    __match_args__ = ("times",)

    def __init__(self, times: tuple[int, ...]):
        object.__setattr__(self, "times", times)


class Infeasible(fm.Value):
    __match_args__ = ("cycle",)

    def __init__(self, cycle: tuple[int, ...]):
        object.__setattr__(self, "cycle", cycle)  # indices of constraints forming a contradictory loop


class UntimedViolationError(TraceLogicError):
    """The untimed part of a program already fails; no timestamps can repair it."""

    def __init__(self, rule_index: int, position: int):
        self.rule_index = rule_index
        self.position = position
        super().__init__(f"rule {rule_index} violated at step {position} regardless of timestamps")


def _rule_positions(program: MetricProgram, t, timed: bool) -> Iterator[tuple[int, MetricRule, int, int]]:
    """Per rule, (index, rule, fires, broken): bit sets of the letter positions of t
    where the body holds, and of those where the head fails too, by the oracle.
    Every head is evaluated, fired or not; timed=False reads `X[l,u) a` as `X a`."""
    ev = _evaluator(t)
    letters = (1 << len(t)) - 1
    for r, (rule, (body, timed_head, untimed_head)) in enumerate(zip(program.rules, program._formulas)):
        fires = ev.sat(body) & letters
        yield r, rule, fires, fires & ~ev.sat(timed_head if timed else untimed_head)


def check_program(program: MetricProgram, t: TimedTrace) -> list[tuple[int, int]]:
    """All (rule index, position) pairs where a rule fires but its head fails.

    Over an untimed trace, a program with a metric head raises
    UntimedTraceError, even if that head never fires; plain rules and
    integrity constraints are checked as usual.
    """
    return [(r, i) for r, _, _, broken in _rule_positions(program, t, timed=True) for i in _members(broken)]


def extract_constraints(program: MetricProgram, t: Trace, strict: bool = False) -> ConstraintSystem:
    """Difference constraints that timestamps for t must satisfy.

    The untimed part is verified first (metric intervals ignored); if it
    already fails, UntimedViolationError reports the rule and position.
    With strict=True consecutive timestamps must increase by at least 1.
    """
    constraints = []
    for r, rule, fires, broken in _rule_positions(program, t, timed=False):
        if broken:
            raise UntimedViolationError(r, _members(broken)[0])
        if isinstance(rule.head, fm.MetricNext):
            lo, hi = rule.head.lo, rule.head.hi
            hi = None if hi is None else hi - 1
            constraints += _steps(_members(fires), lo, hi)
    minimum_gap = 1 if strict else 0
    constraints += _steps(range(len(t) - 1), minimum_gap, None)
    return ConstraintSystem(len(t), tuple(constraints))


def _steps(starts, lo: int, hi: int | None) -> Iterator[DiffConstraint]:
    """The constraints (i, i + 1, lo, hi) for each i of starts, in order, built in one C-level pass.

    They share one bound, which one validating `DiffConstraint` checks if
    the batch is not empty, and i != i + 1 always holds, so each is built by
    `tuple.__new__` alone.
    """
    if starts:
        DiffConstraint(0, 1, lo, hi)
    return map(tuple.__new__, repeat(DiffConstraint), zip(starts, map((1).__add__, starts), repeat(lo), repeat(hi)))


def feasible(system: ConstraintSystem) -> Witness | Infeasible:
    """Minimal non-negative integer solution, or a contradictory constraint cycle.

    A chain, where every constraint joins some i to i + 1 with lo >= 0 (as
    every system `extract_constraints` builds), is solved by one pass over
    its constraints that takes each step's largest lower bound L_i and
    smallest upper bound H_i.  Then t_0 = 0 and t_(i+1) = t_i + L_i; a step
    with no constraint resets to t_(i+1) = 0, as only non-negativity holds
    there.  At the first step where L_i > H_i the cycle is (k_lo, k_up):
    the lowest index among that step's constraints with lo == L_i, then
    the lowest with hi < L_i.  That is the cycle `_longest_paths` reports,
    in walk order, since its sweep reaches no other step first.  Any other
    system goes to `_longest_paths`.  Either way the witness is checked
    against every constraint.
    """
    times = _chain_times(system)
    if times is None:
        times = _longest_paths(system)
    if isinstance(times, Infeasible):
        return times
    for c in system.constraints:
        i, j, lo, hi = c
        delta = times[j] - times[i]
        if not (lo <= delta and (hi is None or delta <= hi)):
            raise TraceLogicError(f"solver produced an invalid witness for {c}")
    return Witness(tuple(times))


def _chain_times(system: ConstraintSystem) -> list[int] | Infeasible | None:
    """The least times of a chain, its cycle when it has none, or None if the system is not a chain."""
    n = system.n_vars
    lows = [-1] * n  # -1: no constraint on the step i -> i + 1
    highs = [float("inf")] * n
    for i, j, lo, hi in system.constraints:
        if j != i + 1 or lo < 0:
            return None
        if lo > lows[i]:
            lows[i] = lo
        if hi is not None and hi < highs[i]:
            highs[i] = hi
    times = [0] * n
    time = 0
    for i in range(n - 1):
        lo = lows[i]
        if lo > highs[i]:
            constraints = system.constraints
            k_lo = next(k for k, c in enumerate(constraints) if c.i == i and c.lo == lo)
            k_up = next(k for k, c in enumerate(constraints) if c.i == i and c.hi is not None and c.hi < lo)
            return Infeasible((k_lo, k_up))
        time = time + lo if lo >= 0 else 0
        times[i + 1] = time
    return times


def _longest_paths(system: ConstraintSystem) -> list[int] | Infeasible:
    """Least times of any system, or a cycle, by a worklist longest-path solver.

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
    (subtree disassembly, Tarjan 1981).  A system without constraints is a
    chain, so here n_vars >= 2.
    """
    n = system.n_vars
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

    return dist


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


def enumerate_models(program: MetricProgram, ap, horizon: int) -> Iterator[TimedTrace]:
    """Every length-`horizon` trace admitting timestamps, with its minimal witness.

    Traces come in the order of `enumerate_traces`.  A step's bounds depend
    on its first letter alone (the chain argument of the module docstring),
    so one table, built in O(|letters| * |rules|), holds per letter the
    atoms the next letter must hold and the least gap to it.  Letters that
    break a plain rule or an integrity constraint, or whose step has no
    gap, are left out.  The sets of atoms due are numbered as the nodes of
    `trace.accepted_words`, from `frozenset()`: a node moves by each letter
    that holds its atoms to that letter's needs, and accepts when nothing is
    due.  So only models are walked, each in O(horizon).
    """
    check_enumeration_bound(ap, horizon)
    # Per rule: its head, and the atoms its body needs held and not held.
    rules = [(rule.head, _literals(rule.body)) for rule in program.rules]
    bodies = [(head, {x.name for x in body if isinstance(x, fm.Atom)}, {x.arg.name for x in body if isinstance(x, fm.Not)})
              for head, body in rules]
    needs, gaps = {}, {}
    for letter in letters_over(ap):
        fired = [head for head, held, unheld in bodies if held <= letter and unheld.isdisjoint(letter)]
        if any(not isinstance(head, fm.MetricNext) and (head is None or head.name not in letter) for head in fired):
            continue
        window = [head for head in fired if isinstance(head, fm.MetricNext)]
        gap = max((head.lo for head in window), default=0)
        if gap <= min((head.hi - 1 for head in window if head.hi is not None), default=gap):
            needs[letter] = frozenset(head.arg.name for head in window)
            gaps[letter] = gap
    nodes = StateSet()
    nodes.add(frozenset())
    table = [tuple([(letter, nodes.add(need)) for letter, need in needs.items() if due <= letter]) for due in nodes]
    for letters in accepted_words(table, [not due for due in nodes], 0, (horizon,)):
        times, time = [], 0
        for letter in letters:
            times.append(time)
            time += gaps[letter]
        yield TimedTrace(letters, tuple(times))
