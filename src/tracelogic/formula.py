"""Formula and path-expression ASTs, normal forms, and the automaton state closure.

Formulas combine propositional connectives, future and past temporal
operators, dynamic path modalities, and a metric next constrained by an
integer interval.  All nodes are immutable and compared structurally.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from .errors import UnsupportedOperatorError

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


class PathExpr:
    """Base class for path-expression nodes used by the modalities."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not _ATOM_RE.match(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class WeakNext(Formula):
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class Always(Formula):
    arg: Formula


@dataclass(frozen=True)
class Prev(Formula):
    arg: Formula


@dataclass(frozen=True)
class WeakPrev(Formula):
    arg: Formula


@dataclass(frozen=True)
class Since(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Trigger(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    path: PathExpr
    arg: Formula


@dataclass(frozen=True)
class Box(Formula):
    path: PathExpr
    arg: Formula


@dataclass(frozen=True)
class MetricNext(Formula):
    """Next step must happen after a delay d with lo <= d < hi (hi=None is unbounded)."""

    lo: int
    hi: int | None
    arg: Formula

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.lo >= self.hi):
            raise ValueError(f"empty metric interval [{self.lo},{self.hi})")


@dataclass(frozen=True)
class WeakMetricNext(Formula):
    """Dual of MetricNext: no next step, or the delay misses the interval, or the body holds."""

    lo: int
    hi: int | None
    arg: Formula

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.lo >= self.hi):
            raise ValueError(f"empty metric interval [{self.lo},{self.hi})")


@dataclass(frozen=True)
class Step(PathExpr):
    """One step whose source letter must satisfy a propositional guard."""

    guard: Formula

    def __post_init__(self):
        if not is_propositional(self.guard):
            raise ValueError("step guard must be propositional")


@dataclass(frozen=True)
class Test(PathExpr):
    """Zero-width check that a formula holds at the current position."""

    arg: Formula


@dataclass(frozen=True)
class Seq(PathExpr):
    left: PathExpr
    right: PathExpr


@dataclass(frozen=True)
class Alt(PathExpr):
    left: PathExpr
    right: PathExpr


@dataclass(frozen=True)
class Star(PathExpr):
    arg: PathExpr


def is_propositional(f: Formula) -> bool:
    """True if f uses only atoms, constants, and boolean connectives."""
    match f:
        case Atom() | TrueFormula() | FalseFormula():
            return True
        case Not(arg):
            return is_propositional(arg)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return is_propositional(l) and is_propositional(r)
        case _:
            return False


TRUE = TrueFormula()
FALSE = FalseFormula()
STEP_TRUE = Step(TRUE)


def atoms(f: Formula) -> set[str]:
    """All atom names occurring in f, including in path guards and tests."""
    found: set[str] = set()
    _collect_atoms(f, found)
    return found


def _collect_atoms(f: Formula, out: set[str]) -> None:
    match f:
        case Atom(name):
            out.add(name)
        case TrueFormula() | FalseFormula():
            pass
        case Not(g) | Next(g) | WeakNext(g) | Eventually(g) | Always(g) | Prev(g) | WeakPrev(g):
            _collect_atoms(g, out)
        case MetricNext(_, _, g) | WeakMetricNext(_, _, g):
            _collect_atoms(g, out)
        case And(l, r) | Or(l, r) | Implies(l, r) | Until(l, r) | Release(l, r) | Since(l, r) | Trigger(l, r):
            _collect_atoms(l, out)
            _collect_atoms(r, out)
        case Diamond(p, g) | Box(p, g):
            _collect_path_atoms(p, out)
            _collect_atoms(g, out)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _collect_path_atoms(p: PathExpr, out: set[str]) -> None:
    match p:
        case Step(g) | Test(g):
            _collect_atoms(g, out)
        case Seq(l, r) | Alt(l, r):
            _collect_path_atoms(l, out)
            _collect_path_atoms(r, out)
        case Star(q):
            _collect_path_atoms(q, out)
        case _:
            raise TypeError(f"not a path expression: {p!r}")


def nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, implication eliminated."""
    match f:
        case Not(g):
            return _nnf_neg(g)
        case Atom() | TrueFormula() | FalseFormula():
            return f
        case And(l, r):
            return And(nnf(l), nnf(r))
        case Or(l, r):
            return Or(nnf(l), nnf(r))
        case Implies(l, r):
            return Or(_nnf_neg(l), nnf(r))
        case Next(g):
            return Next(nnf(g))
        case WeakNext(g):
            return WeakNext(nnf(g))
        case Until(l, r):
            return Until(nnf(l), nnf(r))
        case Release(l, r):
            return Release(nnf(l), nnf(r))
        case Eventually(g):
            return Eventually(nnf(g))
        case Always(g):
            return Always(nnf(g))
        case Prev(g):
            return Prev(nnf(g))
        case WeakPrev(g):
            return WeakPrev(nnf(g))
        case Since(l, r):
            return Since(nnf(l), nnf(r))
        case Trigger(l, r):
            return Trigger(nnf(l), nnf(r))
        case Diamond(p, g):
            return Diamond(_nnf_path(p), nnf(g))
        case Box(p, g):
            return Box(_nnf_path(p), nnf(g))
        case MetricNext(lo, hi, g):
            return MetricNext(lo, hi, nnf(g))
        case WeakMetricNext(lo, hi, g):
            return WeakMetricNext(lo, hi, nnf(g))
        case _:
            raise TypeError(f"not a formula: {f!r}")


def nnf_not(f: Formula) -> Formula:
    """NNF of the negation of f."""
    return _nnf_neg(f)


def _nnf_neg(f: Formula) -> Formula:
    match f:
        case Atom():
            return Not(f)
        case TrueFormula():
            return FALSE
        case FalseFormula():
            return TRUE
        case Not(g):
            return nnf(g)
        case And(l, r):
            return Or(_nnf_neg(l), _nnf_neg(r))
        case Or(l, r):
            return And(_nnf_neg(l), _nnf_neg(r))
        case Implies(l, r):
            return And(nnf(l), _nnf_neg(r))
        case Next(g):
            return WeakNext(_nnf_neg(g))
        case WeakNext(g):
            return Next(_nnf_neg(g))
        case Until(l, r):
            return Release(_nnf_neg(l), _nnf_neg(r))
        case Release(l, r):
            return Until(_nnf_neg(l), _nnf_neg(r))
        case Eventually(g):
            return Always(_nnf_neg(g))
        case Always(g):
            return Eventually(_nnf_neg(g))
        case Prev(g):
            return WeakPrev(_nnf_neg(g))
        case WeakPrev(g):
            return Prev(_nnf_neg(g))
        case Since(l, r):
            return Trigger(_nnf_neg(l), _nnf_neg(r))
        case Trigger(l, r):
            return Since(_nnf_neg(l), _nnf_neg(r))
        case Diamond(p, g):
            return Box(_nnf_path(p), _nnf_neg(g))
        case Box(p, g):
            return Diamond(_nnf_path(p), _nnf_neg(g))
        case MetricNext(lo, hi, g):
            return WeakMetricNext(lo, hi, _nnf_neg(g))
        case WeakMetricNext(lo, hi, g):
            return MetricNext(lo, hi, _nnf_neg(g))
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _nnf_path(p: PathExpr) -> PathExpr:
    match p:
        case Step(g):
            return Step(nnf(g))
        case Test(g):
            return Test(nnf(g))
        case Seq(l, r):
            return Seq(_nnf_path(l), _nnf_path(r))
        case Alt(l, r):
            return Alt(_nnf_path(l), _nnf_path(r))
        case Star(q):
            return Star(_nnf_path(q))
        case _:
            raise TypeError(f"not a path expression: {p!r}")


def to_dynamic_core(f: Formula) -> Formula:
    """Rewrite future temporal sugar into path modalities.

    Expects NNF input.  Past operators and the metric next are kept as
    primitives; only their subformulas are rewritten.
    """
    match f:
        case Atom() | TrueFormula() | FalseFormula() | Not(_):
            return f
        case And(l, r):
            return And(to_dynamic_core(l), to_dynamic_core(r))
        case Or(l, r):
            return Or(to_dynamic_core(l), to_dynamic_core(r))
        case Next(g):
            return Diamond(STEP_TRUE, to_dynamic_core(g))
        case WeakNext(g):
            return Box(STEP_TRUE, to_dynamic_core(g))
        case Eventually(g):
            return Diamond(Star(STEP_TRUE), to_dynamic_core(g))
        case Always(g):
            return Box(Star(STEP_TRUE), to_dynamic_core(g))
        case Until(l, r):
            return Diamond(Star(Seq(Test(to_dynamic_core(l)), STEP_TRUE)), to_dynamic_core(r))
        case Release(l, r):
            return Box(Star(Seq(Test(nnf_not(to_dynamic_core(l))), STEP_TRUE)), to_dynamic_core(r))
        case Prev(g):
            return Prev(to_dynamic_core(g))
        case WeakPrev(g):
            return WeakPrev(to_dynamic_core(g))
        case Since(l, r):
            return Since(to_dynamic_core(l), to_dynamic_core(r))
        case Trigger(l, r):
            return Trigger(to_dynamic_core(l), to_dynamic_core(r))
        case Diamond(p, g):
            return Diamond(_core_path(p), to_dynamic_core(g))
        case Box(p, g):
            return Box(_core_path(p), to_dynamic_core(g))
        case MetricNext(lo, hi, g):
            return MetricNext(lo, hi, to_dynamic_core(g))
        case WeakMetricNext(lo, hi, g):
            return WeakMetricNext(lo, hi, to_dynamic_core(g))
        case _:
            raise TypeError(f"not an NNF formula: {f!r}")


def _core_path(p: PathExpr) -> PathExpr:
    match p:
        case Step(_):
            return p
        case Test(g):
            return Test(to_dynamic_core(g))
        case Seq(l, r):
            return Seq(_core_path(l), _core_path(r))
        case Alt(l, r):
            return Alt(_core_path(l), _core_path(r))
        case Star(q):
            return Star(_core_path(q))
        case _:
            raise TypeError(f"not a path expression: {p!r}")


def check_fragment(f: Formula, past: bool = False) -> None:
    """Reject anything but an NNF dynamic-core formula, with past operators only if `past`.

    This is the input fragment of the automaton constructions: the one-way
    AFA takes `past=False`, the two-way automaton `past=True`.
    """
    match f:
        case Atom() | TrueFormula() | FalseFormula() | Not(Atom()):
            pass
        case MetricNext() | WeakMetricNext():
            raise UnsupportedOperatorError(f"metric operator {type(f).__name__} needs the metric backend")
        case Prev() | WeakPrev() | Since() | Trigger() if not past:
            raise UnsupportedOperatorError(f"past operator {type(f).__name__} needs the two-way backend")
        case Next() | WeakNext() | Until() | Release() | Eventually() | Always() | Implies():
            raise UnsupportedOperatorError(f"{type(f).__name__} must be rewritten into the dynamic core first")
        case Not(_):
            raise UnsupportedOperatorError("negation must be pushed to atoms first")
        case And(l, r) | Or(l, r) | Since(l, r) | Trigger(l, r):
            check_fragment(l, past)
            check_fragment(r, past)
        case Prev(g) | WeakPrev(g):
            check_fragment(g, past)
        case Diamond(p, g) | Box(p, g):
            _check_path_fragment(p, past)
            check_fragment(g, past)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _check_path_fragment(p: PathExpr, past: bool) -> None:
    match p:
        case Step(_):
            pass
        case Test(g):
            check_fragment(g, past)
        case Seq(l, r) | Alt(l, r):
            _check_path_fragment(l, past)
            _check_path_fragment(r, past)
        case Star(q):
            _check_path_fragment(q, past)


# ---------------------------------------------------------------------------
# Pretty printing.  The contract is a round trip through parser.parse_formula.

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_BINTEMP = 4
_PREC_UNARY = 5
_PREC_ATOM = 6


def format_formula(f: Formula) -> str:
    """Canonical text form; parse_formula maps it back to the same tree."""
    return _fmt(f)


def _paren(text: str, prec: int, minimum: int) -> str:
    return f"({text})" if prec < minimum else text


def _interval(lo: int, hi: int | None) -> str:
    return f"[{lo},{'inf' if hi is None else hi})"


def _fmt(f: Formula, minimum: int = 0) -> str:
    match f:
        case Atom(name):
            return name
        case TrueFormula():
            return "tt"
        case FalseFormula():
            return "ff"
        case Not(g):
            return _paren(f"!{_fmt(g, _PREC_ATOM)}", _PREC_UNARY, minimum)
        case Next(g):
            return _paren(f"X {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case WeakNext(g):
            return _paren(f"WX {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case Eventually(g):
            return _paren(f"F {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case Always(g):
            return _paren(f"G {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case Prev(g):
            return _paren(f"Y {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case WeakPrev(g):
            return _paren(f"WY {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case MetricNext(lo, hi, g):
            return _paren(f"X{_interval(lo, hi)} {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case WeakMetricNext(lo, hi, g):
            return _paren(f"WX{_interval(lo, hi)} {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case Diamond(p, g):
            return _paren(f"<{format_path(p)}> {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case Box(p, g):
            return _paren(f"[{format_path(p)}] {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)
        case Until(l, r):
            return _paren(f"{_fmt(l, _PREC_BINTEMP + 1)} U {_fmt(r, _PREC_BINTEMP)}", _PREC_BINTEMP, minimum)
        case Release(l, r):
            return _paren(f"{_fmt(l, _PREC_BINTEMP + 1)} R {_fmt(r, _PREC_BINTEMP)}", _PREC_BINTEMP, minimum)
        case Since(l, r):
            return _paren(f"{_fmt(l, _PREC_BINTEMP + 1)} S {_fmt(r, _PREC_BINTEMP)}", _PREC_BINTEMP, minimum)
        case Trigger(l, r):
            return _paren(f"{_fmt(l, _PREC_BINTEMP + 1)} T {_fmt(r, _PREC_BINTEMP)}", _PREC_BINTEMP, minimum)
        case And(l, r):
            return _paren(f"{_fmt(l, _PREC_AND)} & {_fmt(r, _PREC_AND + 1)}", _PREC_AND, minimum)
        case Or(l, r):
            return _paren(f"{_fmt(l, _PREC_OR)} | {_fmt(r, _PREC_OR + 1)}", _PREC_OR, minimum)
        case Implies(l, r):
            return _paren(f"{_fmt(l, _PREC_IMPLIES + 1)} -> {_fmt(r, _PREC_IMPLIES)}", _PREC_IMPLIES, minimum)
        case _:
            raise TypeError(f"not a formula: {f!r}")


_PATH_ALT = 1
_PATH_SEQ = 2
_PATH_POSTFIX = 3


def format_path(p: PathExpr) -> str:
    return _fmt_path(p, 0)


def _atomic_leaf(g: Formula) -> bool:
    return isinstance(g, (Atom, TrueFormula, FalseFormula))


def _fmt_path(p: PathExpr, minimum: int) -> str:
    match p:
        case Step(g):
            text = _fmt(g) if _atomic_leaf(g) else f"({_fmt(g)})"
            return text
        case Test(g):
            text = _fmt(g) if _atomic_leaf(g) else f"({_fmt(g)})"
            return f"{text}?"
        case Seq(l, r):
            text = f"{_fmt_path(l, _PATH_SEQ)} ; {_fmt_path(r, _PATH_SEQ + 1)}"
            return f"({text})" if minimum > _PATH_SEQ else text
        case Alt(l, r):
            text = f"{_fmt_path(l, _PATH_ALT)} + {_fmt_path(r, _PATH_ALT + 1)}"
            return f"({text})" if minimum > _PATH_ALT else text
        case Star(q):
            return f"{_fmt_path(q, _PATH_POSTFIX)}*"
        case _:
            raise TypeError(f"not a path expression: {p!r}")


# ---------------------------------------------------------------------------
# State closure.


class StateSet:
    """Ordered, duplicate-free collection of automaton states.

    Entries are hashable state labels (formulas, or wrapped formulas for
    the two-way construction); ordinals follow insertion order.
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


def expansion(f: Formula, box_continuation=None) -> list[Formula]:
    """Formulas introduced by one transition-expansion step of f.

    box_continuation, when given, maps the body of a step-guarded box to
    the state the automaton actually references (used to patch in the
    end-weak variants); it defaults to the identity.
    """
    wrap = box_continuation if box_continuation is not None else lambda h: h
    match f:
        case Atom() | TrueFormula() | FalseFormula() | Not(_):
            return []
        case And(l, r) | Or(l, r) | Implies(l, r):
            return [l, r]
        case Next(g) | WeakNext(g) | Eventually(g) | Always(g):
            return [g]
        case Until(l, r) | Release(l, r):
            return [l, r]
        case Prev(g):
            return [STEP_POSSIBLE, g]
        case WeakPrev(g):
            return [AT_MARKER, g]
        case Since(l, r):
            return [r, l, Prev(f)]
        case Trigger(l, r):
            return [r, l, WeakPrev(f)]
        case MetricNext(_, _, g) | WeakMetricNext(_, _, g):
            return [g]
        case Diamond(p, g):
            return _path_expansion(p, g, f, universal=False, wrap=wrap)
        case Box(p, g):
            return _path_expansion(p, g, f, universal=True, wrap=wrap)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _path_expansion(p: PathExpr, body: Formula, node: Formula, universal: bool, wrap) -> list[Formula]:
    mod = Box if universal else Diamond
    match p:
        case Step(_):
            return [wrap(body) if universal else body]
        case Test(e):
            return [nnf_not(e) if universal else e, body]
        case Seq(q, r):
            return [mod(q, mod(r, body))]
        case Alt(q, r):
            return [mod(q, body), mod(r, body)]
        case Star(q):
            return [body, mod(q, node)]
        case _:
            raise TypeError(f"not a path expression: {p!r}")


# End-of-trace detectors used by the past-operator translation; the box form
# holds exactly at the begin/end markers, the diamond form exactly at letters.
AT_MARKER = Box(STEP_TRUE, FALSE)
STEP_POSSIBLE = Diamond(STEP_TRUE, TRUE)


def closure(f: Formula, box_continuation=None) -> StateSet:
    """Smallest StateSet containing f and closed under expansion.

    Insertion order is the breadth-first, left-to-right discovery order,
    so ordinals are reproducible; the root always gets ordinal 0.
    """
    states = StateSet()
    states.add(f)
    queue = deque([f])
    while queue:
        g = queue.popleft()
        for h in expansion(g, box_continuation):
            if h not in states:
                states.add(h)
                queue.append(h)
    return states
