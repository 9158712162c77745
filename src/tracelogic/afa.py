"""Alternating automata over finite traces: the shared transition builder and the one-way AFA.

`transition` builds the transition of a dynamic-core or past formula at a
letter (or at the end marker) as a positive boolean formula (PBF) over
successor references, with the constants `True` and `False`, so universal
and existential branching share one representation.  Each successor goes
through a callback `ref(g, move, weak)`, and the callback decides what a
successor is.  The two-way automaton in `twafa` makes every successor a
state: a head move -1 (left, L), 1 (right, R) or 0 (stay in place, S)
paired with a state, read in a least fixpoint.  A one-way automaton is a
two-way automaton whose S moves are resolved within the letter (Vardi,
ICALP 1998): the `AFA` here inlines every S move into the image, keeps R
moves as references to states, and never meets an L move, since past
operators are outside its fragment.  Inlining takes a diamond star met
again while it is being unrolled as false, which keeps the image finite on
stars that make no progress within a letter, like `<(tt?)*> a`.

The builder reads a cell only through a guard test `sat(guard)`, for
literals and step guards alike, and asks about the same guards whatever
they answer.  The test returns a PBF.  The two-way automaton answers at the
cell with `oracle.prop_sat`'s `True` or `False` as it is, records the
guards its build at the end marker asks about, and builds each state's
transition once per class over their atoms, or keeps that one build when it
asks about none.  The `AFA` leaves every guard open as a `GuardLeaf`, a
predicate over letters as in symbolic automata (D'Antoni & Veanes, CAV
2017).  It discovers its states by building their guarded images: starting
from the root, each state's image is built once, and the targets of its
step modalities are the states it adds, as the transitions name them
(De Giacomo & Vardi, IJCAI 2013).  The atoms of the guards a build tests
are the state's reads (`AFA.reads`).  Nodes built outside any diamond-star
unrolling are memoised with their atoms, so states that share a tail share
its build.  `delta` specialises the guarded image once per class
(`specialise`); dealternation reads `class_table`, a state's minimal
successor sets per class, built bottom-up over its guarded image once per
node (so a shared tail is tabled once): one `prop_sat` per letter over a
guard leaf's atoms and one `_join` per And or Or node; folding may leave a
table's mask fewer atoms than its state reads.  Every state is the root or
a step target, so `AFA.accepts` evaluates them all, from the end values
backwards: it compiles each image once per class into the state ordinals it
reads (`_compile`, shared with the two-way automaton), looks up each
distinct letter's row once, and evaluates each state at a letter by reading
the next letter's values.

Both automata mark an obligation that holds weakly at the trace ends as
the state `Weak(g)`.  The AFA makes a box's step target weak only where g's
weak and plain end values, read off the empty trace (exact for future
formulas), differ; `Weak(g)` has g's guarded image and g's weak end value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as fm
from . import oracle
from .errors import UnsupportedOperatorError
from .trace import Trace, check_letters, letters_over, outside_alphabet, resolve_alphabet


class PBF:
    """Positive boolean formula over state ordinals; its constants are `True` and `False`."""

    __slots__ = ()


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


@dataclass(frozen=True)
class GuardLeaf(PBF):
    """Leaf of a guarded image: the value at the letter of a literal, a step guard or a box's negated step guard."""

    guard: fm.Formula


@dataclass(frozen=True)
class MoveRef(PBF):
    """Leaf of a two-way transition, in B+({-1, 0, 1} x Q) (Vardi, ICALP 1998): `state` after a head move.

    `move` is the head's displacement: -1 (left), 0 (stay in place) or 1 (right).
    """

    state: int
    move: int


@dataclass(frozen=True)
class _Marker:
    name: str


_L, _S, _R = -1, 0, 1  # head moves: left, stay in place, right

BEGIN = _Marker("begin")
END = _Marker("end")


@dataclass(frozen=True)
class Weak:
    """State of either alternating automaton: behaves like the formula at letters, holds weakly at the trace ends."""

    formula: fm.Formula


def pbf_and(left: PBF, right: PBF) -> PBF:
    if left is False or right is False:
        return False
    if left is True:
        return right
    if right is True:
        return left
    return AndNode(left, right)


def pbf_or(left: PBF, right: PBF) -> PBF:
    if left is True or right is True:
        return True
    if left is False:
        return right
    if right is False:
        return left
    return OrNode(left, right)


def _compile(pbf: PBF, offset=None):
    """The form in which the automata evaluate a transition, built once per PBF object: see `_holds`.

    A `StateRef` becomes its ordinal and a `MoveRef` the integer
    `offset(ref)`; the constants `True` and `False` stay as they are, and
    an `AndNode` or `OrNode` becomes the triple `(is_and, left, right)`.
    Its size is the PBF's: no normal form is taken.
    """

    def compiled(node: PBF):
        if isinstance(node, (AndNode, OrNode)):
            return (isinstance(node, AndNode), compiled(node.left), compiled(node.right))
        if isinstance(node, StateRef):
            return node.state
        if isinstance(node, MoveRef):
            return offset(node)
        if node is True or node is False:
            return node
        raise TypeError(f"not a PBF: {node!r}")

    return compiled(pbf)


def _holds(compiled, value, base: int):
    """Whether a compiled transition holds with the reference at offset o read as `value[base + o]`."""
    while compiled.__class__ is tuple:  # right operands in the loop: at most one frame per level of the PBF
        is_and, left, right = compiled
        if _holds(left, value, base):
            if not is_and:
                return True
        elif is_and:
            return False
        compiled = right
    if compiled.__class__ is int:
        return value[base + compiled]
    return compiled


def specialise(pbf: PBF, letter) -> PBF:
    """The image a guarded image stands for at `letter`: each guard leaf replaced by its value, folded bottom-up.

    Folding composes, so this equals the image built with the guards
    answered at `letter` in the first place.
    """
    if isinstance(pbf, AndNode):
        return pbf_and(specialise(pbf.left, letter), specialise(pbf.right, letter))
    if isinstance(pbf, OrNode):
        return pbf_or(specialise(pbf.left, letter), specialise(pbf.right, letter))
    if isinstance(pbf, GuardLeaf):
        return oracle.prop_sat(pbf.guard, letter)
    return pbf


def _set_order(s: frozenset):
    """The canonical order of minimal sets: smaller first, then by their sorted members."""
    return len(s), sorted(s)


def minimal_sets(pbf: PBF) -> tuple[frozenset, ...]:
    """The antichain of minimal satisfying state sets, canonically ordered."""
    return tuple(sorted(_minsets(pbf), key=_set_order))


def _minsets(pbf: PBF) -> list[frozenset]:
    if isinstance(pbf, AndNode):
        return _product(_minsets(pbf.left), _minsets(pbf.right))
    if isinstance(pbf, OrNode):
        return _antichain({*_minsets(pbf.left), *_minsets(pbf.right)})
    if isinstance(pbf, StateRef):
        return [frozenset((pbf.state,))]
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
    every code over `mask`, `()` where false.  Each left entry is extended over
    the atoms only `right` reads, one lookup in `right` per new class; a false
    left entry of a conjunction needs none.
    """
    left_mask, left_table = left
    right_mask, right_table = right
    extras = _submasks(right_mask & ~left_mask)
    joined = {}
    for key, sets in left_table.items():
        if conj and not sets:
            joined.update(dict.fromkeys([key | extra for extra in extras], ()))
            continue
        for extra in extras:
            full = key | extra
            other = right_table[full & right_mask]
            if conj:
                joined[full] = _product(sets, other) if other else ()
            else:
                joined[full] = _antichain({*sets, *other}) if sets and other else sets or other
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

    `sat` returns a PBF: `True` or `False` when it answers at a cell, a
    `GuardLeaf` when it leaves the guard open.  Literals and step
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
            return _box(f, sat, ref, ())
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


def _box(b: fm.Box, sat, ref, expanding: tuple) -> PBF:
    """Eager expansion of a box through its path; re-arrival at a star being expanded is vacuous."""
    match b:
        case fm.Box(fm.Step(guard), g):
            test = sat(guard)
            if test is False:
                return True
            unless = GuardLeaf(fm.Not(guard)) if isinstance(test, GuardLeaf) else False
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
            inner = (*expanding, b)
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

    A letter's code has bit j set when `ap[j]` is in it.  One evaluator
    over the empty trace decides the end values of every state (`final`)
    and which step targets of boxes are weak.
    """

    def __init__(self, root: fm.Formula, ap=None):
        fm.check_fragment(root)
        self.ap: tuple[str, ...] = resolve_alphabet(fm.atoms(root), ap)
        self._bits: dict = {name: 1 << j for j, name in enumerate(self.ap)}
        self._end = oracle.end_evaluator()
        self._nodes: dict = {}  # formula -> (guarded image, atoms read), built outside any diamond-star unrolling
        self._delta_memo: dict = {}  # (q, letter & reads[q]) -> image
        self._compiled_memo: dict = {}  # (q, letter & reads[q]) -> the image compiled
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
            final.append(bool((self._end.weak if weak else self._end.sat)(f) & 1))
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
            if isinstance(node, (AndNode, OrNode)):
                table = _join(self._table(node.left), self._table(node.right), isinstance(node, AndNode))
            else:  # a guard leaf, a state or a constant: its minimal sets at each letter over its atoms
                names = fm.atoms(node.guard) if isinstance(node, GuardLeaf) else ()
                mask = self.code(names)
                letters = zip(_submasks(mask), letters_over(names))
                table = mask, {key: tuple(_minsets(specialise(node, x))) for key, x in letters}
            self._tables[id(node)] = table
        return table

    def _node(self, root: fm.Formula) -> tuple[PBF, frozenset]:
        """The guarded image of `root`, with every S move inlined, and the atoms its guards read.

        Each node built outside any diamond-star unrolling is memoised with
        its atoms, so states that share a tail share its build.  Within an
        unrolling a node's image depends on the stars being unrolled, and a
        diamond star met again is false, so nodes there are built afresh.
        """
        nodes = self._nodes
        unrolling = []  # the diamond stars being unrolled, innermost last
        reading = [set()]  # the atoms read by each memoised node being built, innermost last

        def sat(guard: fm.Formula) -> PBF:
            if isinstance(guard, fm.TrueFormula):  # the guard of every X, F and G
                return True
            reading[-1].update(fm.atoms(guard))
            return GuardLeaf(guard)

        def ref(g: fm.Formula, move: int, weak: bool = False) -> PBF:
            if move == _R:
                return self._step_ref(g, weak)
            star = isinstance(g, fm.Diamond) and isinstance(g.path, fm.Star)
            if unrolling:
                if not star:
                    return transition(g, sat, ref)
                if g in unrolling:
                    return False
                unrolling.append(g)
                image = transition(g, sat, ref)
                unrolling.pop()
                return image
            entry = nodes.get(g)
            if entry is None:
                reading.append(set())
                if star:
                    unrolling.append(g)
                image = transition(g, sat, ref)
                if star:
                    unrolling.pop()
                entry = nodes[g] = (image, frozenset(reading.pop()))
            reading[-1].update(entry[1])
            return entry[0]

        ref(root, _S)
        return nodes[root]

    def _step_ref(self, g: fm.Formula, weak: bool) -> PBF:
        """The reference to step target g, or to Weak(g) for a box if g holds weakly but not outright at the end."""
        if isinstance(g, fm.TrueFormula):
            return True
        if isinstance(g, fm.FalseFormula):
            return False
        if weak and self._end.weak(g) & 1 != self._end.sat(g) & 1:
            g = Weak(g)
        return StateRef(self.states.add(g))

    def _compiled(self, q: int, letter):
        """`delta(q, letter)` compiled, once per class."""
        key = (q, letter & self.reads[q])
        compiled = self._compiled_memo.get(key)
        if compiled is None:
            compiled = self._compiled_memo[key] = _compile(self.delta(q, letter))
        return compiled

    def accepts(self, t: Trace) -> bool:
        check_letters(t, self.ap)
        states = range(len(self.states))
        rows = {letter: [self._compiled(q, letter) for q in states] for letter in set(t.letters)}
        values = self.final
        for letter in reversed(t.letters):
            values = [_holds(compiled, values, 0) for compiled in rows[letter]]
        return values[self.initial]
