"""The definitional oracle, kept as ground truth for the bit-set evaluator.

This is the recursive, memoised evaluator that `tracelogic.oracle` used
before it switched to bit sets: every operator is read off its defining
quantifiers, and path relations are materialised as sets of position
pairs with a naive transitive closure for `*`.  That closure is O(n^4)
in the trace length, so the tests use this module only on short traces.

`_members` and `Spelling` keep the bit-set oracle's masks as it spelled
them before it spelled each trace once: one digit joined per position,
for every atom and every metric next.  They are linear and serve on long
traces.  The file name does not match `test_*.py`, so pytest does not
collect it.
"""

from __future__ import annotations

from functools import cached_property

from tracelogic import formula as fm
from tracelogic.errors import UntimedTraceError
from tracelogic.oracle import prop_sat
from tracelogic.trace import TimedTrace


class _Evaluator:
    def __init__(self, letters, times):
        self.letters = letters
        self.times = times
        self.length = len(letters)
        self._memo: dict = {}
        self._neg: dict = {}
        self._rel: dict = {}

    def negation(self, f: fm.Formula) -> fm.Formula:
        cached = self._neg.get(f)
        if cached is None:
            cached = fm.nnf_not(f)
            self._neg[f] = cached
        return cached

    def weak(self, f: fm.Formula, i: int) -> bool:
        """f is not outright violated at i; differs from sat only at the end point."""
        return not self.sat(self.negation(f), i)

    def sat(self, f: fm.Formula, i: int) -> bool:
        key = (f, i)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._sat(f, i)
            self._memo[key] = cached
        return cached

    def _sat(self, f: fm.Formula, i: int) -> bool:
        end = self.length
        match f:
            case fm.TrueFormula():
                return True
            case fm.FalseFormula():
                return False
            case fm.Atom(name):
                return i < end and name in self.letters[i]
            case fm.Not(fm.Atom(name)):
                return i < end and name not in self.letters[i]
            case fm.Not(g):
                return self.sat(self.negation(g), i)
            case fm.And(l, r):
                return self.sat(l, i) and self.sat(r, i)
            case fm.Or(l, r):
                return self.sat(l, i) or self.sat(r, i)
            case fm.Implies(l, r):
                # Matches the NNF elimination nnf(!l) | r, which differs from
                # classical material implication only at the end point.
                return self.sat(self.negation(l), i) or self.sat(r, i)
            case fm.Next(g):
                return i < end and self.sat(g, i + 1)
            case fm.WeakNext(g):
                return i == end or self.weak(g, i + 1)
            case fm.Until(l, r):
                return any(
                    self.sat(r, j) and all(self.sat(l, k) for k in range(i, j))
                    for j in range(i, end + 1)
                )
            case fm.Release(l, r):
                return all(
                    self.weak(r, j) or any(self.weak(l, k) for k in range(i, j))
                    for j in range(i, end + 1)
                )
            case fm.Eventually(g):
                return any(self.sat(g, j) for j in range(i, end + 1))
            case fm.Always(g):
                return all(self.weak(g, j) for j in range(i, end + 1))
            case fm.Prev(g):
                return i > 0 and self.sat(g, i - 1)
            case fm.WeakPrev(g):
                return i == 0 or self.weak(g, i - 1)
            case fm.Since(l, r):
                return any(
                    self.sat(r, j) and all(self.sat(l, k) for k in range(j + 1, i + 1))
                    for j in range(0, i + 1)
                )
            case fm.Trigger(l, r):
                return all(
                    self.weak(r, j) or any(self.weak(l, k) for k in range(j + 1, i + 1))
                    for j in range(0, i + 1)
                )
            case fm.Diamond(p, g):
                return any(j == i and self.sat(g, k) for j, k in self.rel(p))
            case fm.Box(p, g):
                return all(self.weak(g, k) for j, k in self.rel(p) if j == i)
            case fm.MetricNext(lo, hi, g):
                if self.times is None:
                    raise UntimedTraceError("metric next needs a timed trace")
                if i + 1 >= end:
                    return False
                delta = self.times[i + 1] - self.times[i]
                return lo <= delta and (hi is None or delta < hi) and self.sat(g, i + 1)
            case fm.WeakMetricNext(lo, hi, g):
                if self.times is None:
                    raise UntimedTraceError("metric next needs a timed trace")
                if i + 1 >= end:
                    return True
                delta = self.times[i + 1] - self.times[i]
                if delta < lo or (hi is not None and delta >= hi):
                    return True
                return self.sat(g, i + 1)
            case _:
                raise TypeError(f"not a formula: {f!r}")

    def rel(self, p: fm.PathExpr) -> frozenset:
        cached = self._rel.get(p)
        if cached is None:
            cached = self._relation(p)
            self._rel[p] = cached
        return cached

    def _relation(self, p: fm.PathExpr) -> frozenset:
        end = self.length
        match p:
            case fm.Step(guard):
                return frozenset((i, i + 1) for i in range(end) if prop_sat(guard, self.letters[i]))
            case fm.Test(g):
                return frozenset((i, i) for i in range(end + 1) if self.sat(g, i))
            case fm.Seq(l, r):
                left, right = self.rel(l), self.rel(r)
                return frozenset((i, k) for i, j in left for j2, k in right if j == j2)
            case fm.Alt(l, r):
                return self.rel(l) | self.rel(r)
            case fm.Star(q):
                reach = {(i, i) for i in range(end + 1)} | set(self.rel(q))
                while True:
                    extra = {(i, k) for i, j in reach for j2, k in reach if j == j2} - reach
                    if not extra:
                        return frozenset(reach)
                    reach |= extra
            case _:
                raise TypeError(f"not a path expression: {p!r}")


def path_relation(p: fm.PathExpr, t) -> frozenset:
    times = t.times if isinstance(t, TimedTrace) else None
    return _Evaluator(t.letters, times).rel(p)


def truth_values(f: fm.Formula, t) -> list[bool]:
    """The truth of f at every position 0..len(t), from one evaluator."""
    times = t.times if isinstance(t, TimedTrace) else None
    ev = _Evaluator(t.letters, times)
    return [ev.sat(f, i) for i in range(len(t) + 1)]


def _members(bits: int) -> list[int]:
    """The positions in a bit set, in increasing order."""
    return [i for i, digit in enumerate(bin(bits)[:1:-1]) if digit == "1"]


class Spelling:
    """The masks of atoms and of metric delays, spelled one position at a time."""

    def __init__(self, letters, times):
        self.letters = letters
        self.times = times
        self._atoms: dict = {}

    def atom(self, name: str) -> int:
        bits = self._atoms.get(name)
        if bits is None:
            # The leading "0" is the end point, where no atom holds.
            digits = "".join("1" if name in letter else "0" for letter in reversed(self.letters))
            bits = self._atoms[name] = int("0" + digits, 2)
        return bits

    @cached_property
    def _reversed_gaps(self) -> list[int]:
        gaps = [later - earlier for earlier, later in zip(self.times, self.times[1:])]
        gaps.reverse()
        return gaps

    def delays(self, lo: int, hi: int | None) -> int:
        """Positions i with a letter at i + 1 reached after a delay in [lo, hi)."""
        if self.times is None:
            raise UntimedTraceError("metric next needs a timed trace")
        digits = "".join(["1" if lo <= gap and (hi is None or gap < hi) else "0" for gap in self._reversed_gaps])
        # The leading "00" are the last letter and the end point, which have no next letter.
        return int("00" + digits, 2)
