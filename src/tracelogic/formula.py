"""Formula and path-expression ASTs, the operator table, normal forms and printing.

Formulas combine propositional connectives, future and past temporal
operators, dynamic path modalities, and a metric next constrained by an
integer interval.  All nodes are immutable and compared structurally, and
each computes its dataclass hash once and keeps it (`_Node`), so memo and
state-set lookups do not rehash a subtree.

A node's fields, in `__match_args__` order, are its structure: `children`
are the node-valued ones, and `_rebuild` maps them and keeps the others (an
atom's name, a metric interval).  Negation normal form, the rewriting into
the dynamic core, atom collection and the fragment check are folds over the
fields, so only the operators a fold treats specially have cases of their
own.  Every operator node has one of five shapes: `Unary`, `Binary`,
`Modal`, `Metric` or `PathBinary`.  Atoms, constants and the path nodes
`Step`, `Test` and `Star` are the only other nodes.  The shapes are read by
the printer and keyed by the operator table: `_DUAL`, which pairs each
operator with its dual under negation, plus the surface syntax
(`BINARY_SYNTAX`, `PREFIX_SYNTAX`, `METRIC_SYNTAX`, `MODAL_SYNTAX`,
`POSTFIX_SYNTAX`), which the printer here and the parser both read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidValueError, UnsupportedOperatorError

_ATOM_NAME = r"[a-z][a-zA-Z0-9_]*"
_ATOM_RE = re.compile(_ATOM_NAME + r"\Z")


class _Node:
    """Base class of formula and path nodes: each node hashes its fields once and keeps the value.

    The value is the generated dataclass hash, `hash` of the field tuple in
    field order.  `__init_subclass__` puts `__hash__` into every subclass's
    own namespace, where `dataclass` keeps an explicit hash.  Only the
    `__hash__` frame is on the stack per nesting level of a first hash, as
    with the generated one, so deep trees hash as deep as before.  Copies
    and pickles are rebuilt from the fields, so no cached value crosses an
    interpreter with another hash seed.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__hash__ = _Node.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(_fields(self))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        return type(self), _fields(self)


def _fields(node: _Node) -> tuple:
    """A node's fields in field order (`__match_args__`, which `dataclass` sets to them)."""
    return tuple([getattr(node, name) for name in node.__match_args__])


class Formula(_Node):
    """Base class for formula nodes."""

    __slots__ = ()


class PathExpr(_Node):
    """Base class for path-expression nodes used by the modalities."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not _ATOM_RE.match(self.name):
            raise InvalidValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


# The five shapes.  Concrete operators subclass one without adding fields, so
# each keeps its own name in `repr` and compares equal only to its own class.


@dataclass(frozen=True)
class Unary(Formula):
    arg: Formula


@dataclass(frozen=True)
class Binary(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Modal(Formula):
    path: PathExpr
    arg: Formula


@dataclass(frozen=True)
class Metric(Formula):
    lo: int
    hi: int | None
    arg: Formula

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.lo >= self.hi):
            raise InvalidValueError(f"empty metric interval [{self.lo},{self.hi})")


@dataclass(frozen=True)
class PathBinary(PathExpr):
    left: PathExpr
    right: PathExpr


class Not(Unary):
    pass


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class Next(Unary):
    pass


class WeakNext(Unary):
    pass


class Until(Binary):
    pass


class Release(Binary):
    pass


class Eventually(Unary):
    pass


class Always(Unary):
    pass


class Prev(Unary):
    pass


class WeakPrev(Unary):
    pass


class Since(Binary):
    pass


class Trigger(Binary):
    pass


class Diamond(Modal):
    pass


class Box(Modal):
    pass


class MetricNext(Metric):
    """Next step must happen after a delay d with lo <= d < hi (hi=None is unbounded)."""


class WeakMetricNext(Metric):
    """Dual of MetricNext: no next step, or the delay misses the interval, or the body holds."""


@dataclass(frozen=True)
class Step(PathExpr):
    """One step whose source letter must satisfy a propositional guard."""

    guard: Formula

    def __post_init__(self):
        if not is_propositional(self.guard):
            raise InvalidValueError("step guard must be propositional")


@dataclass(frozen=True)
class Test(PathExpr):
    """Zero-width check that a formula holds at the current position."""

    arg: Formula


class Seq(PathBinary):
    pass


class Alt(PathBinary):
    pass


@dataclass(frozen=True)
class Star(PathExpr):
    arg: PathExpr


# ---------------------------------------------------------------------------
# The operator table.

_DUAL_PAIRS = (
    (TrueFormula, FalseFormula),
    (And, Or),
    (Next, WeakNext),
    (Until, Release),
    (Eventually, Always),
    (Prev, WeakPrev),
    (Since, Trigger),
    (Diamond, Box),
    (MetricNext, WeakMetricNext),
)
_DUAL = {**dict(_DUAL_PAIRS), **{dual: op for op, dual in _DUAL_PAIRS}}

# Surface syntax.  Binary operators map to (symbol, precedence, right
# associative); formula and path operators have separate precedence scales.
BINARY_SYNTAX = {
    Implies: ("->", 1, True),
    Or: ("|", 2, False),
    And: ("&", 3, False),
    Until: ("U", 4, True),
    Release: ("R", 4, True),
    Since: ("S", 4, True),
    Trigger: ("T", 4, True),
    Alt: ("+", 1, False),
    Seq: (";", 2, False),
}
PREFIX_SYNTAX = {Not: "!", Next: "X", WeakNext: "WX", Eventually: "F", Always: "G", Prev: "Y", WeakPrev: "WY"}
METRIC_SYNTAX = {MetricNext: "X", WeakMetricNext: "WX"}  # followed by an interval `[lo,hi)`
MODAL_SYNTAX = {Diamond: ("<", ">"), Box: ("[", "]")}
POSTFIX_SYNTAX = {Star: "*", Test: "?"}


# ---------------------------------------------------------------------------
# Traversal by fields.  They are read in plain loops: a comprehension is a
# frame of its own per nesting level on Python 3.10 and 3.11.


def children(node) -> tuple:
    """The direct subformulas and subpaths of a formula or path node, in field order."""
    found = []
    for name in node.__match_args__:
        value = getattr(node, name)
        if isinstance(value, _Node):
            found.append(value)
    return tuple(found)


def _rebuild(node: _Node, cls: type, sub, path_sub) -> _Node:
    """A `cls` node of node's fields: its formulas mapped by `sub`, its paths by `path_sub`, the rest kept."""
    args = []
    for name in node.__match_args__:
        value = getattr(node, name)
        if isinstance(value, Formula):
            value = sub(value)
        elif isinstance(value, PathExpr):
            value = path_sub(value)
        args.append(value)
    return cls(*args)


def is_propositional(f: Formula) -> bool:
    """True if f uses only atoms, constants, and boolean connectives."""
    return isinstance(f, (Atom, TrueFormula, FalseFormula)) or (
        isinstance(f, (Not, And, Or, Implies)) and all(map(is_propositional, children(f)))
    )


TRUE = TrueFormula()
FALSE = FalseFormula()
STEP_TRUE = Step(TRUE)

# End-of-trace detectors used by the past-operator translation; the box form
# holds exactly at the begin/end markers, the diamond form exactly at letters.
AT_MARKER = Box(STEP_TRUE, FALSE)
STEP_POSSIBLE = Diamond(STEP_TRUE, TRUE)


def atoms(f: Formula) -> set[str]:
    """All atom names occurring in f, including in path guards and tests."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    found: set[str] = set()
    pending = [f]
    while pending:
        node = pending.pop()
        if isinstance(node, Atom):
            found.add(node.name)
        pending.extend(children(node))
    return found


def nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, implication eliminated."""
    match f:
        case Not(g):
            return nnf_not(g)
        case Implies(l, r):
            return Or(nnf_not(l), nnf(r))
        case Atom() | TrueFormula() | FalseFormula():
            return f
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _rebuild(f, type(f), nnf, _nnf_path)


def nnf_not(f: Formula) -> Formula:
    """NNF of the negation of f: every operator becomes its dual over negated subformulas."""
    match f:
        case Atom():
            return Not(f)
        case Not(g):
            return nnf(g)
        case Implies(l, r):
            return And(nnf(l), nnf_not(r))
    if type(f) not in _DUAL:
        raise TypeError(f"not a formula: {f!r}")
    return _rebuild(f, _DUAL[type(f)], nnf_not, _nnf_path)


def _nnf_path(p: PathExpr) -> PathExpr:
    return _rebuild(p, type(p), nnf, _nnf_path)


def to_dynamic_core(f: Formula) -> Formula:
    """Rewrite future temporal sugar into path modalities.

    Expects NNF input and raises TypeError otherwise (an implication, or a
    negation above anything but an atom).  Past operators and the metric
    next are kept as primitives; only their subformulas are rewritten.
    Step guards are propositional and are kept as they are.
    """
    match f:
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
        case Atom() | TrueFormula() | FalseFormula() | Not(Atom()):
            return f
        case Not() | Implies():
            raise TypeError(f"not an NNF formula: {f!r}")
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _rebuild(f, type(f), to_dynamic_core, _core_path)


def _core_path(p: PathExpr) -> PathExpr:
    return p if isinstance(p, Step) else _rebuild(p, type(p), to_dynamic_core, _core_path)


def check_fragment(f: Formula, past: bool = False) -> None:
    """Reject anything but an NNF dynamic-core formula, with past operators only if `past`.

    This is the input fragment of the automaton constructions: the one-way
    AFA takes `past=False`, the two-way automaton `past=True`.  Step guards
    are not checked: the automata evaluate any propositional guard.  The
    first offending node in left-to-right preorder is reported.
    """
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    pending = [f]
    while pending:
        node = pending.pop()
        match node:
            case Not(Atom()) | Step():
                continue
            case Metric():
                raise UnsupportedOperatorError(f"metric operator {type(node).__name__} needs the metric backend")
            case Prev() | WeakPrev() | Since() | Trigger() if not past:
                raise UnsupportedOperatorError(f"past operator {type(node).__name__} needs the two-way backend")
            case Next() | WeakNext() | Until() | Release() | Eventually() | Always() | Implies():
                raise UnsupportedOperatorError(f"{type(node).__name__} must be rewritten into the dynamic core first")
            case Not():
                raise UnsupportedOperatorError("negation must be pushed to atoms first")
        pending.extend(reversed(children(node)))


# ---------------------------------------------------------------------------
# Pretty printing.  The contract is a round trip through parser.parse_formula.

_PREC_UNARY = 5  # prefix operators bind tighter than every binary one
_PREC_ATOM = 6
_PATH_POSTFIX = 3


def format_formula(f: Formula) -> str:
    """Canonical text form; parse_formula maps it back to the same tree."""
    return _fmt(f)


def _paren(text: str, prec: int, minimum: int) -> str:
    return f"({text})" if prec < minimum else text


def _fmt(f: Formula, minimum: int = 0) -> str:
    match f:
        case Atom(name):
            return name
        case TrueFormula():
            return "tt"
        case FalseFormula():
            return "ff"
        case Not(g):
            # `!` binds at atom level: `!X a` would not read back as `!(X a)`.
            return _paren(f"{PREFIX_SYNTAX[Not]}{_fmt(g, _PREC_ATOM)}", _PREC_UNARY, minimum)
        case Unary(g):
            prefix = PREFIX_SYNTAX[type(f)]
        case Metric(lo, hi, g):
            prefix = f"{METRIC_SYNTAX[type(f)]}[{lo},{'inf' if hi is None else hi})"
        case Modal(p, g):
            opening, closing = MODAL_SYNTAX[type(f)]
            prefix = f"{opening}{format_path(p)}{closing}"
        case Binary(l, r):
            symbol, prec, right_assoc = BINARY_SYNTAX[type(f)]
            text = f"{_fmt(l, prec + right_assoc)} {symbol} {_fmt(r, prec + (not right_assoc))}"
            return _paren(text, prec, minimum)
        case _:
            raise TypeError(f"not a formula: {f!r}")
    return _paren(f"{prefix} {_fmt(g, _PREC_UNARY)}", _PREC_UNARY, minimum)


def format_path(p: PathExpr) -> str:
    return _fmt_path(p, 0)


def _fmt_path(p: PathExpr, minimum: int) -> str:
    match p:
        case Step(g):
            return _fmt(g, _PREC_ATOM)
        case Test(g):
            return f"{_fmt(g, _PREC_ATOM)}{POSTFIX_SYNTAX[Test]}"
        case Star(q):
            return f"{_fmt_path(q, _PATH_POSTFIX)}{POSTFIX_SYNTAX[Star]}"
        case PathBinary(l, r):
            symbol, prec, right_assoc = BINARY_SYNTAX[type(p)]
            text = f"{_fmt_path(l, prec + right_assoc)} {symbol} {_fmt_path(r, prec + (not right_assoc))}"
            return _paren(text, prec, minimum)
        case _:
            raise TypeError(f"not a path expression: {p!r}")
