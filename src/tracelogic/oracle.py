"""Direct bottom-up evaluation of formulas over finite traces.

Positions run 0..len(trace); the final position is a letterless end point
where no literal holds.  Existential operators require their obligation
to hold outright wherever they land, while universal operators accept the
end point weakly: a formula holds weakly at a position when its negation
fails to hold outright there.  The two notions coincide at letter
positions, so only end-of-trace behaviour distinguishes them.

Each formula and path node is compiled once into a function, by the
builder of its class, and the function is kept on the node, so a formula
checked over many traces is dispatched once.  Compiling keeps its own
stack, with no Python frame per nesting level; running takes two frames
per formula level and one per path level.  A path compiles to a function that binds
its guard and test sets over one trace and returns its pre-image, so a
star's fixpoint rounds dispatch nothing.

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
fixpoint of its body's pre-image.  Every universal operator is compiled
by one rule, as the finite-trace dynamic logics define it: it holds where
its existential dual over the negated operands (the NNF negation, which
takes the dual from `formula._DUAL`, compiled once with the operator)
fails.  Every node is evaluated, so a metric operator over an untimed
trace always raises, whatever the letters.  A trace of length n costs O(n/w) machine-word operations per
operator, times the fixpoint rounds of a star (at most n+1).

Every automaton backend is cross-validated against this module.
"""

from __future__ import annotations

from itertools import compress, count
from operator import attrgetter, methodcaller, sub

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
    `run` computes each node's set once per trace.  Its memo is keyed by
    the node's compiled code, which the memo keeps alive, so a key stays
    unique while the evaluator lives.
    """

    def __init__(self, letters, times):
        self.letters = letters
        self.times = times
        self.length = len(letters)
        self.full = (1 << (self.length + 1)) - 1
        self._memo: dict = {}
        self._atoms: dict = {}
        self._spelled_letters = None
        self._spelled_gaps = None

    def sat(self, f: fm.Formula) -> int:
        return self.run(_compiled(f))

    def run(self, code) -> int:
        bits = self._memo.get(code)
        if bits is None:
            bits = self._memo[code] = code(self)
        return bits

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


def _compiled(node: fm.Formula | fm.PathExpr):
    """node's code, built on first use by the builder of its class and kept on the node.

    The builders wait on an explicit stack while the parts they yield are
    built, so a deep node takes no Python frame per level here.
    """
    code = getattr(node, "_code", None)
    if code is None:
        waiting = [_builder(node)]  # (node, builder) pairs, innermost last; the innermost is sent `code` next
        while waiting:
            node, builder = waiting[-1]
            try:
                part = builder.send(code)
            except StopIteration as built:
                code = built.value
                object.__setattr__(node, "_code", code)
                waiting.pop()
            else:
                code = getattr(part, "_code", None)
                if code is None:
                    waiting.append(_builder(part))
    return code


def _builder(node) -> tuple:
    build = _BUILDERS.get(node.__class__)
    if build is None:
        raise TypeError(f"not a formula or path expression: {node!r}")
    return node, build(node)


# A builder is a generator: it yields each part whose code its node's code
# runs, is sent that code back, and returns its node's code.  A formula's
# code maps an evaluator to the formula's position set.  A path's code binds
# its guard and test sets over an evaluator and returns its pre-image: the
# function from a target set to the positions where some path leads into it.

_everywhere = attrgetter("full")


def _nowhere(ev: _Evaluator) -> int:
    return 0


def _constant(f):
    yield from ()
    return _everywhere if f.__class__ is fm.TrueFormula else _nowhere


def _atom(f):
    yield from ()
    return methodcaller("atom", f.name)


def _not(f):
    if isinstance(f.arg, fm.Atom):
        name = f.arg.name
        return lambda ev: (ev.full >> 1) & ~ev.atom(name)
    return (yield fm.nnf_not(f.arg))  # the code of the NNF negation, so both share its memo entry


def _universal(f):
    # Where the existential dual over the negated operands fails, the end
    # point included.  And and Or are duals too but stay out: at the
    # letterless end `a | b` is false, yet weakly true.
    negation = yield fm.nnf_not(f)
    return lambda ev: ev.full & ~ev.run(negation)


def _implies(f):
    # Matches the NNF elimination nnf(!l) | r, which differs from classical
    # material implication only at the end point.
    left, right = (yield fm.nnf_not(f.left)), (yield f.right)
    return lambda ev: ev.run(left) | ev.run(right)


def _and(f):
    left, right = (yield f.left), (yield f.right)
    return lambda ev: ev.run(left) & ev.run(right)


def _or(f):
    left, right = (yield f.left), (yield f.right)
    return lambda ev: ev.run(left) | ev.run(right)


def _next(f):
    arg = yield f.arg
    return lambda ev: ev.run(arg) >> 1


def _until(f):
    left, right = (yield f.left), (yield f.right)
    return lambda ev: ev.until(ev.run(left), ev.run(right))


def _eventually(f):
    arg = yield f.arg
    return lambda ev: (1 << ev.run(arg).bit_length()) - 1  # positions at or before the last member


def _prev(f):
    arg = yield f.arg
    return lambda ev: (ev.run(arg) << 1) & ev.full


def _since(f):
    left, right = (yield f.left), (yield f.right)
    return lambda ev: _since_bits(ev.run(left), ev.run(right))


def _diamond(f):
    path, arg = (yield f.path), (yield f.arg)
    return lambda ev: path(ev)(ev.run(arg))


def _metric_next(f):
    lo, hi, arg = f.lo, f.hi, (yield f.arg)
    return lambda ev: ev.delays(lo, hi) & (ev.run(arg) >> 1)


def _step(p):
    guard = yield p.guard

    def bind(ev):
        mask = ev.run(guard)  # a guard's mask is its set; the end bit is shifted out
        return lambda target: (target >> 1) & mask

    return bind


def _test(p):
    arg = yield p.arg

    def bind(ev):
        mask = ev.run(arg)
        return lambda target: target & mask

    return bind


def _seq(p):
    left, right = (yield p.left), (yield p.right)

    def bind(ev):
        first, then = left(ev), right(ev)
        return lambda target: first(then(target))

    return bind


def _alt(p):
    left, right = (yield p.left), (yield p.right)

    def bind(ev):
        first, second = left(ev), right(ev)
        return lambda target: first(target) | second(target)

    return bind


def _star(p):
    arg = yield p.arg

    def bind(ev):
        body = arg(ev)

        def pre(target):  # the least fixpoint of the body's pre-image over target
            reach = target
            while True:
                grown = reach | body(reach)
                if grown == reach:
                    return reach
                reach = grown

        return pre

    return bind


_BUILDERS = {
    fm.TrueFormula: _constant,
    fm.FalseFormula: _constant,
    fm.Atom: _atom,
    fm.Not: _not,
    fm.Implies: _implies,
    fm.And: _and,
    fm.Or: _or,
    fm.Next: _next,
    fm.Until: _until,
    fm.Eventually: _eventually,
    fm.Prev: _prev,
    fm.Since: _since,
    fm.Diamond: _diamond,
    fm.MetricNext: _metric_next,
    **dict.fromkeys((fm.WeakNext, fm.Release, fm.Always, fm.WeakPrev, fm.Trigger, fm.Box, fm.WeakMetricNext), _universal),
    fm.Step: _step,
    fm.Test: _test,
    fm.Seq: _seq,
    fm.Alt: _alt,
    fm.Star: _star,
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
    pre = _compiled(p)(_evaluator(t))
    return frozenset((i, j) for j in range(len(t) + 1) for i in _members(pre(1 << j)))

