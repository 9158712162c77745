"""Translation of dynamic-core formulas to alternating finite automata.

States are the closure formulas: the root and every formula one
transition can introduce, numbered in breadth-first order.  Transition
images are positive boolean formulas (PBFs) over successor states, so
universal and existential branching share one representation.  A per-call
visited set cuts the unfolding of stars that make no progress within a
single letter, which is what keeps the construction total on formulas like
`<(tt?)*> a`.

A state's image depends only on the atoms it reads before its next step
(`reads`), so letters that agree on those atoms have the same image; the
constructions in `fa` build one image per such letter class.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as fm
from . import oracle
from .errors import UnsupportedOperatorError
from .trace import Trace, check_letters, resolve_alphabet


class PBF:
    """Positive boolean formula over state ordinals."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueLeaf(PBF):
    pass


@dataclass(frozen=True)
class FalseLeaf(PBF):
    pass


@dataclass(frozen=True)
class StateRef(PBF):
    state: int


@dataclass(frozen=True)
class AndNode(PBF):
    left: PBF
    right: PBF


@dataclass(frozen=True)
class OrNode(PBF):
    left: PBF
    right: PBF


PBF_TRUE = TrueLeaf()
PBF_FALSE = FalseLeaf()


def pbf_and(left: PBF, right: PBF) -> PBF:
    if isinstance(left, FalseLeaf) or isinstance(right, FalseLeaf):
        return PBF_FALSE
    if isinstance(left, TrueLeaf):
        return right
    if isinstance(right, TrueLeaf):
        return left
    return AndNode(left, right)


def pbf_or(left: PBF, right: PBF) -> PBF:
    if isinstance(left, TrueLeaf) or isinstance(right, TrueLeaf):
        return PBF_TRUE
    if isinstance(left, FalseLeaf):
        return right
    if isinstance(right, FalseLeaf):
        return left
    return OrNode(left, right)


def pbf_eval(pbf: PBF, assignment) -> bool:
    """Evaluate with StateRef(r) read from assignment[r]."""
    match pbf:
        case TrueLeaf():
            return True
        case FalseLeaf():
            return False
        case StateRef(state):
            return assignment[state]
        case AndNode(l, r):
            return pbf_eval(l, assignment) and pbf_eval(r, assignment)
        case OrNode(l, r):
            return pbf_eval(l, assignment) or pbf_eval(r, assignment)
    raise TypeError(f"not a PBF: {pbf!r}")


def minimal_sets(pbf: PBF) -> tuple[frozenset, ...]:
    """The antichain of minimal satisfying state sets, canonically ordered."""
    return tuple(sorted(_minsets(pbf), key=lambda s: (len(s), sorted(s))))


def _minsets(pbf: PBF) -> list[frozenset]:
    match pbf:
        case TrueLeaf():
            return [frozenset()]
        case FalseLeaf():
            return []
        case StateRef(state):
            return [frozenset((state,))]
        case OrNode(l, r):
            return _antichain({*_minsets(l), *_minsets(r)})
        case AndNode(l, r):
            return _antichain({a | b for a in _minsets(l) for b in _minsets(r)})
    raise TypeError(f"not a PBF: {pbf!r}")


def _antichain(sets: set[frozenset]) -> list[frozenset]:
    return [s for s in sets if not any(t < s for t in sets)]


def weak_state(f: fm.Formula) -> fm.Formula:
    """State whose end acceptance is the weak value of f, letter behaviour unchanged.

    Patches in `f | [tt] ff` when f holds weakly but not outright at the
    end point; the extra disjunct only fires there.
    """
    strong = oracle.end_value(f)
    weak = not oracle.end_value(fm.nnf_not(f))
    if strong == weak:
        return f
    return fm.Or(f, fm.AT_MARKER)


def reads(f: fm.Formula) -> frozenset[str]:
    """The atoms the transition image of a dynamic-core formula depends on.

    They are the atoms f tests at the current letter: its literals and the
    guards and tests its paths meet before their first step.  What lies
    behind a step is another state's business.
    """
    match f:
        case fm.Atom(name) | fm.Not(fm.Atom(name)):
            return frozenset((name,))
        case fm.And(l, r) | fm.Or(l, r):
            return reads(l) | reads(r)
        case fm.Modal(p, g):
            now, stepless = _path_reads(p)
            return now | reads(g) if stepless else now
    return frozenset()


def _path_reads(p: fm.PathExpr) -> tuple[frozenset[str], bool]:
    """The atoms p reads before its first step, and whether p can be passed without one."""
    match p:
        case fm.Step(guard):
            return frozenset(fm.atoms(guard)), False
        case fm.Test(e):
            return reads(e), True
        case fm.Seq(q, r):
            (q_now, q_stepless), (r_now, r_stepless) = _path_reads(q), _path_reads(r)
            return (q_now | r_now if q_stepless else q_now), q_stepless and r_stepless
        case fm.Alt(q, r):
            (q_now, q_stepless), (r_now, r_stepless) = _path_reads(q), _path_reads(r)
            return q_now | r_now, q_stepless or r_stepless
        case fm.Star(q):
            return _path_reads(q)[0], True
    raise TypeError(f"not a path expression: {p!r}")


class StateSet:
    """Ordered, duplicate-free collection of automaton states.

    Entries are hashable state labels (formulas, sets of ordinals, or
    wrapped formulas for the two-way construction); ordinals follow
    insertion order.  A loop over a StateSet may add to it while it runs:
    it then visits every state, the added ones included, in insertion
    order, which is breadth-first discovery order.  Every construction
    explores its states this way.
    """

    def __init__(self):
        self.states: list = []
        self.index: dict = {}

    def add(self, state) -> int:
        ordinal = self.index.get(state)
        if ordinal is None:
            ordinal = len(self.states)
            self.states.append(state)
            self.index[state] = ordinal
        return ordinal

    def ordinal(self, state) -> int:
        return self.index[state]

    def __contains__(self, state) -> bool:
        return state in self.index

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, ordinal: int):
        return self.states[ordinal]


def expansion(f: fm.Formula) -> list[fm.Formula]:
    """Formulas introduced by one transition-expansion step of a dynamic-core formula f.

    They are the states `AFA._image` refers to: the body of a step-guarded
    box is referenced as its `weak_state`.
    """
    match f:
        case fm.Atom() | fm.TrueFormula() | fm.FalseFormula() | fm.Not(fm.Atom()):
            return []
        case fm.And(l, r) | fm.Or(l, r):
            return [l, r]
        case fm.Modal(p, g):
            mod = type(f)
            match p:
                case fm.Step(_):
                    return [weak_state(g) if mod is fm.Box else g]
                case fm.Test(e):
                    return [fm.nnf_not(e) if mod is fm.Box else e, g]
                case fm.Seq(q, r):
                    return [mod(q, mod(r, g))]
                case fm.Alt(q, r):
                    return [mod(q, g), mod(r, g)]
                case fm.Star(q):
                    return [g, mod(q, f)]
            raise TypeError(f"not a path expression: {p!r}")
        case fm.Formula():
            raise UnsupportedOperatorError(f"cannot build transitions for {type(f).__name__}")
    raise TypeError(f"not a formula: {f!r}")


def closure(f: fm.Formula) -> StateSet:
    """Smallest StateSet containing f and closed under expansion.

    Insertion order is the breadth-first, left-to-right discovery order,
    so ordinals are reproducible; the root always gets ordinal 0.
    """
    states = StateSet()
    states.add(f)
    for g in states:
        for h in expansion(g):
            states.add(h)
    return states


class AFA:
    """Alternating automaton over letters drawn from subsets of `ap`."""

    def __init__(self, root: fm.Formula, ap=None):
        fm.check_fragment(root)
        self.ap: tuple[str, ...] = resolve_alphabet(fm.atoms(root), ap)
        self.states: StateSet = closure(root)
        self.initial: int = 0
        self.final: tuple[bool, ...] = tuple(oracle.end_value(q) for q in self.states)
        self.reads: tuple[frozenset[str], ...] = tuple(reads(q) for q in self.states)
        self._delta_memo: dict = {}
        self._weak_refs: dict = {}  # body g of a step box -> reference to weak_state(g)

    def __len__(self) -> int:
        return len(self.states)

    def delta(self, q: int, letter) -> PBF:
        key = (q, letter)
        cached = self._delta_memo.get(key)
        if cached is None:
            cached = self._image(self.states[q], letter, frozenset())
            self._delta_memo[key] = cached
        return cached

    def _ref(self, h: fm.Formula) -> PBF:
        if isinstance(h, fm.TrueFormula):
            return PBF_TRUE
        if isinstance(h, fm.FalseFormula):
            return PBF_FALSE
        return StateRef(self.states.ordinal(h))

    def _image(self, f: fm.Formula, letter, visiting: frozenset) -> PBF:
        match f:
            case fm.TrueFormula():
                return PBF_TRUE
            case fm.FalseFormula():
                return PBF_FALSE
            case fm.Atom(name):
                return PBF_TRUE if name in letter else PBF_FALSE
            case fm.Not(fm.Atom(name)):
                return PBF_FALSE if name in letter else PBF_TRUE
            case fm.And(l, r):
                return pbf_and(self._image(l, letter, visiting), self._image(r, letter, visiting))
            case fm.Or(l, r):
                return pbf_or(self._image(l, letter, visiting), self._image(r, letter, visiting))
            case fm.Diamond(p, g):
                return self._diamond(p, g, f, letter, visiting)
            case fm.Box(p, g):
                return self._box(p, g, f, letter, visiting)
            case _:
                raise UnsupportedOperatorError(f"cannot build transitions for {type(f).__name__}")

    def _diamond(self, p, g, node, letter, visiting) -> PBF:
        match p:
            case fm.Step(guard):
                return self._ref(g) if oracle.prop_sat(guard, letter) else PBF_FALSE
            case fm.Test(e):
                return pbf_and(self._image(e, letter, visiting), self._image(g, letter, visiting))
            case fm.Seq(q, r):
                return self._image(fm.Diamond(q, fm.Diamond(r, g)), letter, visiting)
            case fm.Alt(q, r):
                return pbf_or(
                    self._image(fm.Diamond(q, g), letter, visiting),
                    self._image(fm.Diamond(r, g), letter, visiting),
                )
            case fm.Star(q):
                if node in visiting:
                    return PBF_FALSE
                inner = visiting | {node}
                return pbf_or(
                    self._image(g, letter, inner),
                    self._image(fm.Diamond(q, node), letter, inner),
                )
        raise TypeError(f"not a path expression: {p!r}")

    def _box(self, p, g, node, letter, visiting) -> PBF:
        match p:
            case fm.Step(guard):
                if not oracle.prop_sat(guard, letter):
                    return PBF_TRUE
                ref = self._weak_refs.get(g)
                if ref is None:
                    ref = self._weak_refs[g] = self._ref(weak_state(g))
                return ref
            case fm.Test(e):
                return pbf_or(self._image(fm.nnf_not(e), letter, visiting), self._image(g, letter, visiting))
            case fm.Seq(q, r):
                return self._image(fm.Box(q, fm.Box(r, g)), letter, visiting)
            case fm.Alt(q, r):
                return pbf_and(
                    self._image(fm.Box(q, g), letter, visiting),
                    self._image(fm.Box(r, g), letter, visiting),
                )
            case fm.Star(q):
                if node in visiting:
                    return PBF_TRUE
                inner = visiting | {node}
                return pbf_and(
                    self._image(g, letter, inner),
                    self._image(fm.Box(q, node), letter, inner),
                )
        raise TypeError(f"not a path expression: {p!r}")

    def accepts(self, t: Trace) -> bool:
        check_letters(t, self.ap)
        values = list(self.final)
        for letter in reversed(t.letters):
            values = [pbf_eval(self.delta(q, letter), values) for q in range(len(self.states))]
        return values[self.initial]
