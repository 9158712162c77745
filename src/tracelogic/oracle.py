"""Direct bottom-up evaluation of formulas over finite traces.

Positions run 0..len(trace); the final position is a letterless end point
where no literal holds.  Existential operators require their obligation
to hold outright wherever they land, while universal operators accept the
end point weakly: a formula holds weakly at a position when its negation
fails to hold outright there.  The two notions coincide at letter
positions, so only end-of-trace behaviour distinguishes them.

An evaluator answers two questions about each node over one trace:
`sat(f)`, the positions where f holds outright, and `neg(f)`, those where
its NNF negation does.  Each is one lookup in a table of rules keyed by
class, memoised per trace, so a shared subformula is evaluated once in
each polarity.  The negation is read off the node itself, as the
finite-trace dynamic logics define it: a universal operator holds where
its negation fails, and its negation is its existential dual's rule (the
dual from `formula._DUAL`) over the negations of its operands.  An
existential operator's negation holds where it fails.  The literals, `!`,
`->`, `&` and `|` follow the rules of NNF.  So no node is built or
changed, and each node costs one rule run per polarity, whatever the
alternation of universal and existential operators above it.  Evaluating
takes two Python frames per formula level and one per path level.

Each set is a bit set over all positions, a Python int whose bit i is
position i.  Literals are masks built once per atom.  The trace is
spelled once, last letter first, as one character per letter, whose code
numbers the distinct letters; an atom's mask is then one `str.translate`
of the spelling, by a table over the distinct letters, read by
`int(..., 2)`.  So the Python work per atom grows with the distinct
letters, not with the trace length.  The gaps of a timed trace are
spelled the same way for the metric nexts.  The boolean connectives are
bitwise; the next operators are shifts.  Since is one forward sweep over
the positions, done as a carry-propagating addition, and until is the
same sweep over the reversed bit order.  A path modality is a pre-image:
`<p> g` holds where some p-path leads into the positions of g, and a star
is the least fixpoint of its body's pre-image.  Every node is evaluated,
so a metric operator over an untimed trace always raises, whatever the
letters.  A trace of length n costs O(n/w) machine-word operations per
operator, times the fixpoint rounds of a star (at most n+1).

Every automaton backend is cross-validated against this module.
"""

from __future__ import annotations

from itertools import compress, count
from operator import sub

from . import formula as fm
from .errors import InvalidValueError, UntimedTraceError
from .trace import TimedTrace, Trace


def prop_sat(guard: fm.Formula, letter) -> bool:
    """Classical propositional evaluation of a step guard over one letter."""
    match guard:
        case fm.Atom(name):
            return name in letter
        case fm.TrueFormula():
            return True
        case fm.FalseFormula():
            return False
        case fm.Not(g):
            return not prop_sat(g, letter)
        case fm.And(l, r):
            return prop_sat(l, letter) and prop_sat(r, letter)
        case fm.Or(l, r):
            return prop_sat(l, letter) or prop_sat(r, letter)
        case fm.Implies(l, r):
            return not prop_sat(l, letter) or prop_sat(r, letter)
        case _:
            raise TypeError(f"step guard must be propositional: {guard!r}")


def _since_bits(left: int, right: int) -> int:
    """Positions i with some j <= i in right and every position in (j, i] in left.

    Adding the seeds (left positions right after a right position) to left
    carries each seed to the end of its run of left positions; the bits
    that the carry clears, plus the seeds themselves, are the run's tail.
    """
    seeds = (right << 1) & left
    return right | seeds | (left & ~(left + seeds))


_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as the bytes 0 and 1, false and true for `compress`


def _members(bits: int) -> list[int]:
    """The positions in a bit set, in increasing order."""
    return list(compress(count(), bin(bits)[:1:-1].encode().translate(_BITS)))


_CODES = 0x110000  # `chr` stops at 0x10FFFF


def _spell(items: list) -> tuple[str | None, list]:
    """items spelled as one character per item, whose code numbers the distinct items, and those items by code.

    Past the 0x110000 codes that `chr` has, the spelling is None and the
    items are listed as they are, so that a table over them holds the
    digits in order.
    """
    distinct = list(dict.fromkeys(items))
    if len(distinct) > _CODES:
        return None, items
    codes = dict(zip(distinct, map(chr, count())))
    return "".join(map(codes.__getitem__, items)), distinct


def _mask(spelled: str | None, table: list[str], end: str) -> int:
    """The bit set whose binary digits, most significant first, are end and then the table's digit per code spelled.

    One `str.translate` puts the digits in; end is added after translating,
    since codes 48 and 49 are the characters "0" and "1".
    """
    digits = "".join(table) if spelled is None else spelled.translate(table)
    return int(end + digits, 2)


class _Evaluator:
    """Position sets of the subformulas over one trace.

    The letters are spelled on the first atom, the timestamp gaps on the
    first metric next; each mask is then one translation of a spelling.
    `sat` and `neg` run each node's rule once per trace and polarity.
    Their memos are keyed by the node's `id`, and each entry keeps the
    node, so a key stays unique while the evaluator lives.
    """

    def __init__(self, letters, times):
        self.letters = letters
        self.times = times
        self.length = len(letters)
        self.full = (1 << (self.length + 1)) - 1
        self._sat: dict = {}
        self._neg: dict = {}
        self._atoms: dict = {}
        self._spelled_letters = None
        self._spelled_gaps = None

    def sat(self, f: fm.Formula) -> int:
        """The positions where f holds outright."""
        entry = self._sat.get(id(f))
        if entry is None:
            entry = self._sat[id(f)] = (f, _rule(_SAT, f)(self, f))
        return entry[1]

    def neg(self, f: fm.Formula) -> int:
        """The positions where f's NNF negation holds outright."""
        entry = self._neg.get(id(f))
        if entry is None:
            entry = self._neg[id(f)] = (f, _rule(_NEG, f)(self, f))
        return entry[1]

    def pre(self, p: fm.PathExpr, target: int) -> int:
        """The positions from which some p-path leads into target."""
        op = p.__class__
        if op is fm.Step:
            return (target >> 1) & self.sat(p.guard)  # a guard's set is its mask; the end bit is shifted out
        if op is fm.Test:
            return target & self.sat(p.arg)
        if op is fm.Seq:
            return self.pre(p.left, self.pre(p.right, target))
        if op is fm.Alt:
            return self.pre(p.left, target) | self.pre(p.right, target)
        if op is fm.Star:  # the least fixpoint of the body's pre-image over target
            reach = target
            while True:
                grown = reach | self.pre(p.arg, reach)
                if grown == reach:
                    return reach
                reach = grown
        raise TypeError(f"not a path expression: {p!r}")

    def atom(self, name: str) -> int:
        bits = self._atoms.get(name)
        if bits is None:
            if self._spelled_letters is None:
                self._spelled_letters = _spell(self.letters[::-1])
            spelled, distinct = self._spelled_letters
            # The leading "0" is the end point, where no atom holds.
            bits = self._atoms[name] = _mask(spelled, ["1" if name in letter else "0" for letter in distinct], "0")
        return bits

    def delays(self, lo: int, hi: int | None) -> int:
        """Positions i with a letter at i + 1 reached after a delay in [lo, hi)."""
        if self.times is None:
            raise UntimedTraceError("metric next needs a timed trace")
        if self._spelled_gaps is None:
            gaps = list(map(sub, self.times[1:], self.times))
            gaps.reverse()
            self._spelled_gaps = _spell(gaps)
        spelled, distinct = self._spelled_gaps
        # The leading "00" are the last letter and the end point, which have no next letter.
        return _mask(spelled, ["1" if lo <= gap and (hi is None or gap < hi) else "0" for gap in distinct], "00")

    def until(self, left: int, right: int) -> int:
        width = self.length + 1

        def reverse(bits: int) -> int:
            return int(format(bits, f"0{width}b")[::-1], 2)

        return reverse(_since_bits(reverse(left), reverse(right)))


def _rule(table: dict, f):
    rule = table.get(f.__class__)
    if rule is None:
        raise TypeError(f"not a formula: {f!r}")
    return rule


# The existential rules, each made for the polarity its operands are read in:
# `value` is `_Evaluator.sat` for the operator's own `sat`, and `_Evaluator.neg`
# for its dual's `neg`, since the dual's NNF negation is this operator over the
# negated operands.
_EXISTENTIAL = {
    fm.TrueFormula: lambda value: lambda ev, f: ev.full,
    fm.FalseFormula: lambda value: lambda ev, f: 0,
    fm.And: lambda value: lambda ev, f: value(ev, f.left) & value(ev, f.right),
    fm.Or: lambda value: lambda ev, f: value(ev, f.left) | value(ev, f.right),
    fm.Next: lambda value: lambda ev, f: value(ev, f.arg) >> 1,
    fm.Until: lambda value: lambda ev, f: ev.until(value(ev, f.left), value(ev, f.right)),
    # positions at or before the last member
    fm.Eventually: lambda value: lambda ev, f: (1 << value(ev, f.arg).bit_length()) - 1,
    fm.Prev: lambda value: lambda ev, f: (value(ev, f.arg) << 1) & ev.full,
    fm.Since: lambda value: lambda ev, f: _since_bits(value(ev, f.left), value(ev, f.right)),
    fm.Diamond: lambda value: lambda ev, f: ev.pre(f.path, value(ev, f.arg)),
    fm.MetricNext: lambda value: lambda ev, f: ev.delays(f.lo, f.hi) & (value(ev, f.arg) >> 1),
}
# The operators whose dual holds weakly.  And and Or are duals too but stay
# out: at the letterless end `a | b` is false, yet weakly true.
_STRONG = _EXISTENTIAL.keys() - {fm.TrueFormula, fm.FalseFormula, fm.And, fm.Or}


def _weakly(ev: _Evaluator, f) -> int:
    """A universal operator: where its negation fails, the end point included."""
    return ev.full & ~ev.neg(f)


def _fails(ev: _Evaluator, f) -> int:
    """The negation of an existential operator: where it fails."""
    return ev.full & ~ev.sat(f)


_SAT = {
    **{op: rule(_Evaluator.sat) for op, rule in _EXISTENTIAL.items()},
    **dict.fromkeys([fm._DUAL[op] for op in _STRONG], _weakly),
    fm.Atom: lambda ev, f: ev.atom(f.name),
    fm.Not: lambda ev, f: ev.neg(f.arg),
    # nnf(!l) | r, which differs from classical material implication only at the end point
    fm.Implies: lambda ev, f: ev.neg(f.left) | ev.sat(f.right),
}
_NEG = {
    **{fm._DUAL[op]: rule(_Evaluator.neg) for op, rule in _EXISTENTIAL.items()},
    **dict.fromkeys(_STRONG, _fails),
    fm.Atom: lambda ev, f: (ev.full >> 1) & ~ev.atom(f.name),
    fm.Not: lambda ev, f: ev.sat(f.arg),
    fm.Implies: lambda ev, f: ev.sat(f.left) & ev.neg(f.right),
}


def _evaluator(t: Trace | TimedTrace) -> _Evaluator:
    return _Evaluator(t.letters, t.times if isinstance(t, TimedTrace) else None)


def evaluate(f: fm.Formula, t: Trace | TimedTrace, i: int = 0) -> bool:
    """Truth of f at position i; metric connectives require a timed trace."""
    if not 0 <= i <= len(t):
        raise InvalidValueError(f"position {i} outside 0..{len(t)}")
    return bool(_evaluator(t).sat(f) >> i & 1)


def holds(f: fm.Formula, t: Trace | TimedTrace) -> bool:
    """Truth of f at the start of the trace."""
    return evaluate(f, t, 0)


def path_relation(p: fm.PathExpr, t: Trace | TimedTrace) -> frozenset:
    """All position pairs (i, j) the path expression can traverse over t."""
    ev = _evaluator(t)
    return frozenset((i, j) for j in range(len(t) + 1) for i in _members(ev.pre(p, 1 << j)))

