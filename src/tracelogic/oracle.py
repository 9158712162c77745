"""Direct bottom-up evaluation of formulas over finite traces.

Positions run 0..len(trace); the final position is a letterless end point
where no literal holds.  Existential operators require their obligation
to hold outright wherever they land, while universal operators accept the
end point weakly: a formula holds weakly at a position when its negation
fails to hold outright there.  The two notions coincide at letter
positions, so only end-of-trace behaviour distinguishes them.

Each subformula is evaluated once per trace into a bit set over all
positions, a Python int whose bit i is position i.  Literals are masks
built once per atom.  The trace is spelled once, last letter first, as
one character per letter, whose code numbers the distinct letters; an
atom's mask is then one `str.translate` of the spelling, by a table over
the distinct letters, read by `int(..., 2)`.  So the Python work per
atom grows with the distinct letters, not with the trace length.  The
gaps of a timed trace are spelled the same way for the metric nexts.
The boolean connectives are bitwise; the next operators are shifts.
Since is one forward sweep over the positions, done as a
carry-propagating addition, and until is the same sweep over the
reversed bit order.  A path modality is a pre-image: `<p> g` holds where
some p-path leads into the positions of g, and a star is the least
fixpoint of its body's pre-image.  Every universal operator is evaluated
by one rule, as the finite-trace dynamic logics define it: it holds where
its existential dual over the negated operands (the NNF negation, which
takes the dual from `formula._DUAL`) fails.  Every node is evaluated, so
a metric operator over an untimed trace always raises, whatever the
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


def _since(left: int, right: int) -> int:
    """Positions i with some j <= i in right and every position in (j, i] in left.

    Adding the seeds (left positions right after a right position) to left
    carries each seed to the end of its run of left positions; the bits
    that the carry clears, plus the seeds themselves, are the run's tail.
    """
    seeds = (right << 1) & left
    return right | seeds | (left & ~(left + seeds))


def _eventually(bits: int) -> int:
    """Positions at or before the last member of bits."""
    return (1 << bits.bit_length()) - 1


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

    Memo keys are node identities.  Nodes cache their hashes, but a node key
    still costs a Python-level `__hash__` call per lookup, and keying these
    memos by node made the evaluate benchmark slower (`op_ms_p50` 0.431 to
    0.489 ms in 5 alternating pairs).  Each memo entry keeps its node
    alive, which keeps the identity unique.
    """

    def __init__(self, letters, times):
        self.letters = letters
        self.times = times
        self.length = len(letters)
        self.full = (1 << (self.length + 1)) - 1
        self._memo: dict = {}
        self._neg: dict = {}
        self._atoms: dict = {}
        self._spelled_letters = None
        self._spelled_gaps = None

    def negation(self, f: fm.Formula) -> fm.Formula:
        hit = self._neg.get(id(f))
        if hit is None:
            hit = self._neg[id(f)] = (f, fm.nnf_not(f))
        return hit[1]

    def weak(self, f: fm.Formula) -> int:
        """Positions where f is not outright violated; differs from sat only at the end point."""
        return self.full & ~self.sat(self.negation(f))

    def sat(self, f: fm.Formula) -> int:
        hit = self._memo.get(id(f))
        if hit is None:
            hit = self._memo[id(f)] = (f, self._sat(f))
        return hit[1]

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

        return reverse(_since(reverse(left), reverse(right)))

    def _sat(self, f: fm.Formula) -> int:
        full = self.full
        match f:
            case fm.TrueFormula():
                return full
            case fm.FalseFormula():
                return 0
            case fm.Atom(name):
                return self.atom(name)
            case fm.Not(fm.Atom(name)):
                return (full >> 1) & ~self.atom(name)
            case fm.Not(g):
                return self.sat(self.negation(g))
            case fm.And(l, r):
                return self.sat(l) & self.sat(r)
            case fm.Or(l, r):
                return self.sat(l) | self.sat(r)
            case fm.Implies(l, r):
                # Matches the NNF elimination nnf(!l) | r, which differs from
                # classical material implication only at the end point.
                return self.sat(self.negation(l)) | self.sat(r)
            case fm.Next(g):
                return self.sat(g) >> 1
            case fm.Until(l, r):
                return self.until(self.sat(l), self.sat(r))
            case fm.Eventually(g):
                return _eventually(self.sat(g))
            case fm.Prev(g):
                return (self.sat(g) << 1) & full
            case fm.Since(l, r):
                return _since(self.sat(l), self.sat(r))
            case fm.Diamond(p, g):
                return self.pre(p, self.sat(g))
            case fm.MetricNext(lo, hi, g):
                return self.delays(lo, hi) & (self.sat(g) >> 1)
            case fm.WeakNext() | fm.Release() | fm.Always() | fm.WeakPrev() | fm.Trigger() | fm.Box() | fm.WeakMetricNext():
                # Where the existential dual over the negated operands fails,
                # the end point included.  And and Or are duals too but stay
                # out: at the letterless end `a | b` is false, yet weakly true.
                return self.weak(f)
            case _:
                raise TypeError(f"not a formula: {f!r}")

    def pre(self, p: fm.PathExpr, target: int) -> int:
        """Positions from which some p-path ends in target."""
        match p:
            case fm.Step(guard):
                # A guard's mask is its sat set; the end bit is shifted out.
                return (target >> 1) & self.sat(guard)
            case fm.Test(g):
                return target & self.sat(g)
            case fm.Seq(l, r):
                return self.pre(l, self.pre(r, target))
            case fm.Alt(l, r):
                return self.pre(l, target) | self.pre(r, target)
            case fm.Star(q):
                reach = target
                while True:
                    grown = reach | self.pre(q, reach)
                    if grown == reach:
                        return reach
                    reach = grown
            case _:
                raise TypeError(f"not a path expression: {p!r}")


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

