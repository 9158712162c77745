"""Formula and path-expression ASTs, the operator table, normal forms and printing.

Formulas combine propositional connectives, future and past temporal
operators, dynamic path modalities, and a metric next constrained by an
integer interval.  All nodes are immutable and compared structurally, and
each computes the hash of its field tuple once and keeps it, so memo and
state-set lookups do not rehash a subtree.  That comes from `Value`, the
base of every value class of the package, automata, traces and metric
programs included.

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
from operator import attrgetter

from .errors import InvalidValueError, UnsupportedOperatorError

_ATOM_NAME = r"[a-z][a-zA-Z0-9_]*"
_ATOM_RE = re.compile(_ATOM_NAME + r"\Z")


_set = object.__setattr__  # fills a field of a frozen value in its `__init__`


class Value:
    """Base class of the package's value classes: immutable records compared and hashed by their fields.

    A subclass names its fields, in order, in `__match_args__` and sets
    them in its own `__init__` with `object.__setattr__`, after its checks.
    Two values are equal when they are of the same class and their fields
    are equal; a value hashes as its field tuple, computed once and kept in
    the `_hash` slot.  Only the `__hash__` frame is on the stack per nesting
    level of a first hash, so deep trees hash as deep as the field tuples
    allow.  `repr` reads `Class(field=value, ...)`, and assigning to or
    deleting an attribute raises AttributeError.  Copies and pickles are
    rebuilt from the fields through `__init__`, so they are checked again
    and no cached hash crosses an interpreter with another hash seed.
    `__init_subclass__` gives every class its own `__eq__`, which reads
    the fields of both values with one `operator.attrgetter`.  It reads
    `__match_args__` last, the same object for both, so that the key is a
    tuple even of one field or of none, and its items compare by identity
    first, as the field tuples do: shared subtrees are not walked.
    """

    __slots__ = ("_hash",)
    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        key = attrgetter(*cls.__match_args__, "__match_args__")

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)  # no exception to catch: most values are hashed once, if at all
        if value is None:
            value = hash(_fields(self))
            _set(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), _fields(self)


def _fields(value: Value) -> tuple:
    """A value's fields in field order (`__match_args__`)."""
    return tuple([getattr(value, name) for name in value.__match_args__])


class _Node(Value):
    """Base class of formula and path nodes."""

    __slots__ = ()


class Formula(_Node):
    """Base class for formula nodes."""

    __slots__ = ()


class PathExpr(_Node):
    """Base class for path-expression nodes used by the modalities."""

    __slots__ = ()


class Atom(Formula):
    __match_args__ = ("name",)

    def __init__(self, name: str):
        if not _ATOM_RE.match(name):
            raise InvalidValueError(f"invalid atom name: {name!r}")
        _set(self, "name", name)


class TrueFormula(Formula):
    pass


class FalseFormula(Formula):
    pass


# The five shapes.  Concrete operators subclass one without adding fields, so
# each keeps its own name in `repr` and compares equal only to its own class.


class Unary(Formula):
    __match_args__ = ("arg",)

    def __init__(self, arg: Formula):
        _set(self, "arg", arg)


class Binary(Formula):
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class Modal(Formula):
    __match_args__ = ("path", "arg")

    def __init__(self, path: PathExpr, arg: Formula):
        _set(self, "path", path)
        _set(self, "arg", arg)


class Metric(Formula):
    __match_args__ = ("lo", "hi", "arg")

    def __init__(self, lo: int, hi: int | None, arg: Formula):
        if lo < 0 or (hi is not None and lo >= hi):
            raise InvalidValueError(f"empty metric interval [{lo},{hi})")
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "arg", arg)


class PathBinary(PathExpr):
    __match_args__ = ("left", "right")

    def __init__(self, left: PathExpr, right: PathExpr):
        _set(self, "left", left)
        _set(self, "right", right)


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


class Step(PathExpr):
    """One step whose source letter must satisfy a propositional guard."""

    __match_args__ = ("guard",)

    def __init__(self, guard: Formula):
        if not is_propositional(guard):
            raise InvalidValueError("step guard must be propositional")
        _set(self, "guard", guard)


class Test(PathExpr):
    """Zero-width check that a formula holds at the current position."""

    __match_args__ = ("arg",)

    def __init__(self, arg: Formula):
        _set(self, "arg", arg)


class Seq(PathBinary):
    pass


class Alt(PathBinary):
    pass


class Star(PathExpr):
    __match_args__ = ("arg",)

    def __init__(self, arg: PathExpr):
        _set(self, "arg", arg)


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
