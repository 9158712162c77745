"""Alternating automata over finite traces: the shared transition builder and the one-way AFA.

`transition` builds the transition of a dynamic-core or past formula at a
letter (or at the end marker) as a positive boolean formula (PBF) over
successor references, with the constants `True` and `False` and the And
and Or nodes `(is_and, left, right)`, so universal and existential branching
share one representation.  Each successor goes through a callback
`ref(g, move, weak)`, and the callback decides what a successor is.  The two-way automaton in `twafa` makes every successor a
state: a head move -1 (left, L), 1 (right, R) or 0 (stay in place, S)
paired with a state, read in a least fixpoint.  A one-way automaton is a
two-way automaton whose S moves are resolved within the letter (Vardi,
ICALP 1998): the `AFA` here inlines every S move into the image, keeps R
moves as references to states, and never meets an L move, since past
operators are outside its fragment.  Inlining takes a diamond star met
again while it is being unrolled as false, which keeps the image finite on
stars that make no progress within a letter, like `<(tt?)*> a`, and a box
star met again while it is being expanded as true, each found by hash.

The builder reads a cell only through a guard test `sat(guard)`, for
literals and step guards alike, and asks about the same guards whatever
they answer.  The test returns a PBF.  The two-way automaton answers at the
cell with `oracle.prop_sat`'s `True` or `False` as it is, records the
guards its build at the end marker asks about, and builds each state's
transition once per class over their atoms, or keeps that one build when it
asks about none.  The `AFA` leaves every guard open: the guard formula is
the leaf, a predicate over letters as in symbolic automata (D'Antoni &
Veanes, CAV 2017), and the leaf of a step target is its state's ordinal.
It discovers its states by building their guarded images: starting from
the root, each state's image is built once, and the targets of its step
modalities are the states it adds, as the transitions name them (De
Giacomo & Vardi, IJCAI 2013).  The atoms of the guards a build tests
are the state's reads (`AFA.reads`).  Each node is built once per frame
and memoised there with its atoms: the automaton keeps its outermost
frame, so states that share a tail share its build, and each diamond star
being unrolled opens a frame of its own, dropped when its unrolling ends.
`delta` specialises the guarded image once per class
(`specialise`); dealternation reads `class_table`, a state's minimal
successor sets per class, built bottom-up over its guarded image once per
node (so a shared tail is tabled once): one `prop_sat` per letter over a
guard formula's atoms and one `_join` per And or Or node; folding may leave
a table's mask fewer atoms than its state reads.  Every state is the root or
a step target, so `AFA.accepts` evaluates them all, from the end values
backwards: it looks up each distinct letter's row of images once, and
evaluates each image at a letter as `delta` built it, reading its state
ordinals from the next letter's values (`_holds`, which the two-way
automaton runs on its compiled transitions too).

Both automata mark an obligation that holds weakly at the trace ends as
the state `Weak(g)`.  The AFA makes a box's step target weak only where g's
weak and outright end values differ (exact for future formulas);
`Weak(g)` has g's guarded image and g's weak end value.  The end values
are the oracle's at the letterless end point in closed form, folded once
per node (`AFA._end_values`): a literal is false outright and true weakly,
And and Or combine both values, `<p> g` holds where p passes the end point
without a step and g holds outright, and `[p] g` where p does not pass or g
holds weakly.  A path passes where a test's formula holds outright; no step
passes, every star does, a sequence where both parts pass and a choice
where either does.
"""

from __future__ import annotations

from . import formula as fm
from . import oracle
from .errors import UnsupportedOperatorError
from .trace import Trace, letters_over, outside_alphabet, resolve_alphabet


class MoveRef(fm.Value):
    """Leaf of a two-way transition, in B+({-1, 0, 1} x Q) (Vardi, ICALP 1998): `state` after a head move.

    `move` is the head's displacement: -1 (left), 0 (stay in place) or 1 (right).
    """

    __match_args__ = ("state", "move")

    def __init__(self, state: int, move: int):
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "move", move)


# A positive boolean formula: `True`, `False`, a state ordinal, a `MoveRef`, an
# open guard formula, or an And or Or node, the triple `(is_and, left, right)`.
PBF = bool | int | tuple | MoveRef | fm.Formula


class _Marker(fm.Value):
    __match_args__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


_L, _S, _R = -1, 0, 1  # head moves: left, stay in place, right

BEGIN = _Marker("begin")
END = _Marker("end")


class Weak(fm.Value):
    """State of either alternating automaton: behaves like the formula at letters, holds weakly at the trace ends."""

    __match_args__ = ("formula",)

    def __init__(self, formula: fm.Formula):
        object.__setattr__(self, "formula", formula)


def pbf_and(left: PBF, right: PBF) -> PBF:
    if left is False or right is False:
        return False
    if left is True:
        return right
    if right is True:
        return left
    return True, left, right


def pbf_or(left: PBF, right: PBF) -> PBF:
    if left is True or right is True:
        return True
    if left is False:
        return right
    if right is False:
        return left
    return False, left, right


def _holds(node: PBF, value, base: int):
    """Whether a PBF over integer leaves holds with the leaf o read as `value[base + o]`."""
    while node.__class__ is tuple:  # right operands in the loop: at most one frame per level of the PBF
        is_and, left, right = node
        if _holds(left, value, base):
            if not is_and:
                return True
        elif is_and:
            return False
        node = right
    if node.__class__ is int:
        return value[base + node]
    return node


def specialise(pbf: PBF, letter) -> PBF:
    """The image a guarded image stands for at `letter`: each guard formula replaced by its value, folded bottom-up.

    Folding composes, so this equals the image built with the guards
    answered at `letter` in the first place.
    """
    if pbf.__class__ is tuple:
        is_and, left, right = pbf
        return (pbf_and if is_and else pbf_or)(specialise(left, letter), specialise(right, letter))
    if isinstance(pbf, fm.Formula):
        return oracle.prop_sat(pbf, letter)
    return pbf


def _set_order(s: frozenset):
    """The canonical order of minimal sets: smaller first, then by their sorted members."""
    return len(s), sorted(s)


def minimal_sets(pbf: PBF) -> tuple[frozenset, ...]:
    """The antichain of minimal satisfying state sets, canonically ordered."""
    return tuple(sorted(_minsets(pbf), key=_set_order))


def _minsets(pbf: PBF) -> list[frozenset]:
    if pbf.__class__ is tuple:
        is_and, left, right = pbf
        left, right = _minsets(left), _minsets(right)
        return _product(left, right) if is_and else _antichain({*left, *right})
    if pbf.__class__ is int:  # a state ordinal: `True` is an int too
        return [frozenset((pbf,))]
    if pbf is True:
        return [frozenset()]
    if pbf is False:
        return []
    raise TypeError(f"not a PBF: {pbf!r}")


def _antichain(sets: set[frozenset]) -> list[frozenset]:
    return [s for s in sets if not any(t < s for t in sets)]


def _product(left, right) -> list[frozenset]:
    """The minimal sets of a conjunction, from the antichains of minimal sets of its two sides."""
    if len(left) == 1 == len(right):
        return [left[0] | right[0]]
    return _antichain({a | b for a in left for b in right})


def _submasks(mask: int) -> list[int]:
    """Every code whose bits all lie in `mask`, built in the order of `trace.letters_over` over its atoms."""
    subs = [0]
    while mask:
        bit = 1 << (mask.bit_length() - 1)
        subs[1:1] = [bit | sub for sub in subs]
        mask ^= bit
    return subs


def _join(left, right, conj: bool):
    """The class table of the conjunction (`conj`) or the disjunction of two class tables.

    A class table `(mask, {code: antichain of minimal sets})` has an entry for
    every code over `mask`, `()` where false, keyed in `_submasks` order.  The
    joined table walks the classes of the joined mask in that order and reads
    each side at its own part of the class, one lookup in each.
    """
    left_mask, left_table = left
    right_mask, right_table = right
    joined = {}
    for key in _submasks(left_mask | right_mask):
        sets, other = left_table[key & left_mask], right_table[key & right_mask]
        if conj:
            joined[key] = _product(sets, other) if sets and other else ()
        else:
            joined[key] = _antichain({*sets, *other}) if sets and other else sets or other
    return left_mask | right_mask, joined


def guard_test(cell, asked: list | None = None):
    """The two-way automaton's `sat(guard)` at `cell`: `oracle.prop_sat` at a letter, `False` at a marker.

    Given a list `asked`, the test appends every guard it is asked about to it.
    """

    def sat(guard: fm.Formula) -> PBF:
        if asked is not None:
            asked.append(guard)
        return cell is not BEGIN and cell is not END and oracle.prop_sat(guard, cell)

    return sat


def transition(f: fm.Formula, sat, ref) -> PBF:
    """The transition of f at a cell that `sat(guard)` tests, with successors `ref(g, move, weak)`.

    `sat` returns a PBF: `True` or `False` when it answers at a cell, the
    guard formula itself when it leaves the guard open.  Literals and step
    guards reach the cell only through it, each call made whatever the
    others answer, and a step's successor is asked for only when its guard
    is not false.  `weak` asks for g's weak value at the markers; it is set
    on the successors of boxes and of `Trigger`, whose obligations hold
    vacuously past the ends of the trace.
    """
    match f:
        case fm.Atom() | fm.Not(fm.Atom()):
            return sat(f)
        case fm.Diamond(fm.Step(guard), g):
            test = sat(guard)
            return False if test is False else pbf_and(test, ref(g, _R))
        case fm.Diamond(fm.Star(q), g):
            return pbf_or(ref(g, _S), ref(fm.Diamond(q, f), _S))
        case fm.Diamond(fm.Seq(q, r), g):
            return ref(fm.Diamond(q, fm.Diamond(r, g)), _S)
        case fm.Diamond(fm.Test(e), g):
            return pbf_and(ref(e, _S), ref(g, _S))
        case fm.Diamond(fm.Alt(q, r), g):
            return pbf_or(ref(fm.Diamond(q, g), _S), ref(fm.Diamond(r, g), _S))
        case fm.And(l, r):
            return pbf_and(ref(l, _S), ref(r, _S))
        case fm.Or(l, r):
            return pbf_or(ref(l, _S), ref(r, _S))
        case fm.Box():
            return _box(f, sat, ref, frozenset())
        case fm.TrueFormula():
            return True
        case fm.FalseFormula():
            return False
        case fm.Prev(g):
            return pbf_and(ref(fm.STEP_POSSIBLE, _L), ref(g, _L))
        case fm.WeakPrev(g):
            return pbf_or(ref(fm.AT_MARKER, _L), ref(g, _L))
        case fm.Since(l, r):
            return pbf_or(ref(r, _S), pbf_and(ref(l, _S), ref(fm.Prev(f), _S)))
        case fm.Trigger(l, r):
            return pbf_and(ref(r, _S, True), pbf_or(ref(l, _S, True), ref(fm.WeakPrev(f), _S)))
        case _:
            raise UnsupportedOperatorError(f"cannot build transitions for {type(f).__name__}")


def _box(b: fm.Box, sat, ref, expanding: frozenset) -> PBF:
    """Eager expansion of a box through its path; re-arrival at a star being expanded (found by hash) is vacuous."""
    match b:
        case fm.Box(fm.Step(guard), g):
            test = sat(guard)
            if test is False:
                return True
            unless = False if test is True else fm.Not(guard)
            return pbf_or(unless, ref(g, _R, True))
        case fm.Box(fm.Test(e), g):
            unless = ref(fm.nnf_not(e), _S, True)
            return pbf_or(unless, _box(g, sat, ref, expanding) if isinstance(g, fm.Box) else ref(g, _S, True))
        case fm.Box(fm.Seq(q, r), g):
            return _box(fm.Box(q, fm.Box(r, g)), sat, ref, expanding)
        case fm.Box(fm.Alt(q, r), g):
            return pbf_and(_box(fm.Box(q, g), sat, ref, expanding), _box(fm.Box(r, g), sat, ref, expanding))
        case fm.Box(fm.Star(q), g):
            if b in expanding:
                return True
            inner = expanding | {b}
            arrive = _box(g, sat, ref, inner) if isinstance(g, fm.Box) else ref(g, _S, True)
            return pbf_and(arrive, _box(fm.Box(q, b), sat, ref, inner))
    raise TypeError(f"not a path expression: {b.path!r}")


class StateSet:
    """Ordered, duplicate-free collection of automaton states.

    Entries are hashable state labels (formulas, sets of ordinals, or
    `Weak` formulas); ordinals follow insertion order.  A loop over a
    StateSet may add to it while it runs: it then visits every state, the
    added ones included, in insertion order, which is breadth-first
    discovery order.  Every construction explores its states this way.
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

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, ordinal: int):
        return self.states[ordinal]


class AFA:
    """Alternating automaton over letters drawn from subsets of `ap`.

    A letter's code has bit j set when `ap[j]` is in it.  One fold of
    end values, memoised for the automaton, decides every state's value at
    the end of the input (`final`) and which step targets of boxes are weak.
    """

    def __init__(self, root: fm.Formula, ap=None):
        fm.check_fragment(root)
        self.ap: tuple[str, ...] = resolve_alphabet(fm.atoms(root), ap)
        self._bits: dict = {name: 1 << j for j, name in enumerate(self.ap)}
        self._ends: dict = {}  # formula -> its (outright, weak) end values
        self._nodes: dict = {}  # the outermost frame of `_node`: formula -> (guarded image, atoms read)
        self._delta_memo: dict = {}  # (q, letter & reads[q]) -> image
        self._tables: dict = {}  # id of an image node, held by `_guarded` -> its class table
        self.states: StateSet = StateSet()
        self.initial: int = self.states.add(root)
        guarded, reads, final = [], [], []
        for state in self.states:  # each build adds the targets of its steps
            weak = isinstance(state, Weak)
            f = state.formula if weak else state
            image, read = self._node(f)
            guarded.append(image)
            reads.append(read)
            final.append(self._end_values(f)[weak])
        self._guarded: tuple[PBF, ...] = tuple(guarded)
        self.reads: tuple[frozenset[str], ...] = tuple(reads)  # the atoms of the guards each state's build tests
        self.final: tuple[bool, ...] = tuple(final)

    def __len__(self) -> int:
        return len(self.states)

    def code(self, letter) -> int:
        """The integer code of a letter over `ap`; AlphabetMismatchError for a letter outside `ap`."""
        bits = self._bits
        try:
            return sum(bits[name] for name in letter)
        except KeyError:
            raise outside_alphabet(letter, self.ap) from None

    def delta(self, q: int, letter) -> PBF:
        """The image of state q at a letter of `ap`: its guarded image specialised there, once per class."""
        if not letter.issubset(self.ap):
            raise outside_alphabet(letter, self.ap)
        key = (q, letter & self.reads[q])
        image = self._delta_memo.get(key)
        if image is None:
            image = self._delta_memo[key] = specialise(self._guarded[q], letter)
        return image

    def class_table(self, q: int) -> tuple[int, dict]:
        """The class table of `minimal_sets(delta(q, letter))`, over the atoms of the guards left in q's image."""
        return self._table(self._guarded[q])

    def _table(self, node: PBF) -> tuple[int, dict]:
        table = self._tables.get(id(node))
        if table is None:
            if node.__class__ is tuple:
                table = _join(self._table(node[1]), self._table(node[2]), node[0])
            else:  # a guard formula, a state or a constant: its minimal sets at each letter over its atoms
                names = fm.atoms(node) if isinstance(node, fm.Formula) else ()
                mask = self.code(names)
                letters = zip(_submasks(mask), letters_over(names))
                table = mask, {key: tuple(_minsets(specialise(node, x))) for key, x in letters}
            self._tables[id(node)] = table
        return table

    def _node(self, root: fm.Formula) -> tuple[PBF, frozenset]:
        """The guarded image of `root`, with every S move inlined, and the atoms its guards read.

        Each node is built once per frame and memoised there with its atoms.
        The outermost frame, `_nodes`, is kept across builds, so states that
        share a tail share its build.  Each diamond star being unrolled opens
        a frame, dropped when its unrolling ends: the images built there take
        that star, met again, as false, and it is found by hash.
        """
        frames = [self._nodes]  # the memo of each open frame, innermost last
        unrolling = set()  # the diamond stars being unrolled
        reading = [set()]  # the atoms read by each node being built, innermost last

        def sat(guard: fm.Formula) -> PBF:
            if isinstance(guard, fm.TrueFormula):  # the guard of every X, F and G
                return True
            reading[-1].update(fm.atoms(guard))
            return guard

        def ref(g: fm.Formula, move: int, weak: bool = False) -> PBF:
            if move == _R:
                return self._step_ref(g, weak)
            entry = frames[-1].get(g)
            if entry is None:
                star = isinstance(g, fm.Diamond) and isinstance(g.path, fm.Star)
                if star:
                    if g in unrolling:
                        return False
                    unrolling.add(g)
                    frames.append({})
                reading.append(set())
                image = transition(g, sat, ref)
                if star:
                    frames.pop()
                    unrolling.remove(g)
                entry = frames[-1][g] = (image, frozenset(reading.pop()))
            reading[-1].update(entry[1])
            return entry[0]

        ref(root, _S)
        return self._nodes[root]

    def _step_ref(self, g: fm.Formula, weak: bool) -> PBF:
        """The reference to step target g, or to Weak(g) for a box if g holds weakly but not outright at the end."""
        if isinstance(g, fm.TrueFormula):
            return True
        if isinstance(g, fm.FalseFormula):
            return False
        if weak and self._end_values(g) == (False, True):
            g = Weak(g)
        return self.states.add(g)

    def _end_values(self, f: fm.Formula) -> tuple[bool, bool]:
        """f's outright and weak values at the letterless end point, the oracle's in closed form, once per node."""
        values = self._ends.get(f)
        if values is None:
            match f:
                case fm.Diamond(p, g):
                    values = (self._passes(p) and self._end_values(g)[0],) * 2
                case fm.Box(p, g):
                    values = (not self._passes(p) or self._end_values(g)[1],) * 2
                case fm.And(l, r):
                    left, right = self._end_values(l), self._end_values(r)
                    values = left[0] and right[0], left[1] and right[1]
                case fm.Or(l, r):
                    left, right = self._end_values(l), self._end_values(r)
                    values = left[0] or right[0], left[1] or right[1]
                case fm.TrueFormula():  # leaves are not kept: equal literals are often distinct nodes
                    return True, True
                case fm.FalseFormula():
                    return False, False
                case _:  # a literal
                    return False, True
            self._ends[f] = values
        return values

    def _passes(self, p: fm.PathExpr) -> bool:
        """Whether p passes the end point without a step: a test where its formula holds outright, a star always."""
        match p:
            case fm.Step():
                return False
            case fm.Test(e):
                return self._end_values(e)[0]
            case fm.Seq(l, r):
                return self._passes(l) and self._passes(r)
            case fm.Alt(l, r):
                return self._passes(l) or self._passes(r)
        return True

    def accepts(self, t: Trace) -> bool:
        """Whether t is accepted; `delta`, building the rows in trace order, names t's first letter outside `ap`."""
        states = range(len(self.states))
        rows = {letter: [self.delta(q, letter) for q in states] for letter in dict.fromkeys(t.letters)}
        values = self.final
        for letter in reversed(t.letters):
            values = [_holds(image, values, 0) for image in rows[letter]]
        return values[self.initial]
