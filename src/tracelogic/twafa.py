"""Two-way alternating automata with past operators and fixpoint acceptance.

The input word is framed by begin/end markers; a configuration is a state
paired with a tape position, and acceptance is membership of the initial
configuration in the least fixpoint of the transition system.  The
transitions come from `afa.transition`, the builder the one-way AFA uses
too; here every successor it names, a stay-in-place (S) one included,
becomes a state of its own, paired with its head move.  Past operators walk
left; the marker cells let the translation detect the ends of the trace,
so star unfoldings need no construction-time recursion: existential loops
that make no progress simply stay false in the least fixpoint.  Universal
(box) obligations are expanded eagerly through their path, dropping
re-arrivals at the same star at the same position, which keeps their
vacuous loops out of the fixpoint while preserving the single
least-fixpoint polarity.  A state's transition at a letter depends only on
the atoms of the guards it tests, the same at every letter, so the build at
the empty letter records them (`reads`); one transition is stored per class,
in `letters_over` order (the order letters meet them), and `delta` finds it.

The fixpoint is computed by a worklist (Liu & Smolka, ICALP 1998) over a
byte tape: one row of `len(states)` bytes per position, from the begin
marker to the end marker, between two rows of zeros.  Each stored
transition is compiled once per object, when the automaton is built, into
integer offsets from its own row: a reference to state s after head move m
is `m * len(states) + s`.  A configuration starts true exactly when its
transition is the true leaf.  Each configuration that turns true is pushed
once; popping it re-evaluates the false configurations whose transitions
may read it, found from a table, built in the same pass as the compiled
transitions, that lists for each state the (state, head move) pairs with a
transition referring to it.  A configuration is thus evaluated at most once
per reference in its transitions, each reference read as one byte, so a
run is linear in the trace length; it looks up the transitions of each
distinct cell of the trace once.
"""

from __future__ import annotations

from . import formula as fm
from .afa import (
    BEGIN,
    END,
    PBF,
    PBF_FALSE,
    PBF_TRUE,
    AndNode,
    Move,
    MoveRef,
    OrNode,
    StateSet,
    Weak,
    _compile,
    _holds,
    guard_test,
    pbf_and,
    pbf_or,
    transition,
)
from .trace import Trace, check_letters, letters_over, resolve_alphabet


class TwoAFA:
    """Two-way alternating automaton reading marker-framed traces."""

    def __init__(self, root: fm.Formula, ap=None):
        fm.check_fragment(root, past=True)
        self.ap: tuple[str, ...] = resolve_alphabet(fm.atoms(root), ap)
        self.states: StateSet = StateSet()
        self.initial: int = self.states.add(root)
        self.transitions: dict = {}  # (q, BEGIN, END or a class over reads[q]) -> transition
        reads = []
        for q, entry in enumerate(self.states):
            for m in (BEGIN, END):
                self.transitions[(q, m)] = self._trans(entry, m)
            read: set = set()  # the atoms of the guards its transition tests, the same at every letter
            self.transitions[(q, frozenset())] = self._trans(entry, frozenset(), read)  # `letters_over` starts with it
            for letter in letters_over(read)[1:]:
                self.transitions[(q, letter)] = self._trans(entry, letter)
            reads.append(frozenset(read))
        self.reads: tuple[frozenset[str], ...] = tuple(reads)
        width = len(self.states)
        compiled: dict = {}  # id(transition) -> the transition compiled; classes share transition objects
        readers: dict = {}  # state s -> {(q, step): None} for the transitions from q reading s at pos + step
        self._code: dict = {}  # keyed as `transitions`: the transition compiled
        for key, pbf in self.transitions.items():
            if id(pbf) not in compiled:
                compiled[id(pbf)] = _compile(pbf, width)
            self._code[key] = compiled[id(pbf)]
            for ref in _move_refs(pbf):
                readers.setdefault(ref.state, {})[(key[0], ref.move.value)] = None
        self._readers: tuple = tuple(tuple(readers.get(s, ())) for s in range(width))

    def __len__(self) -> int:
        return len(self.states)

    def delta(self, q: int, cell) -> PBF:
        """The transition of state q at a marker, or at a letter through its class over `reads[q]`."""
        return self.transitions[self._key(q, cell)]

    def _key(self, q: int, cell) -> tuple:
        return (q, cell if cell is BEGIN or cell is END else cell & self.reads[q])

    def _ref(self, f: fm.Formula, move: Move, weak: bool = False) -> PBF:
        if isinstance(f, fm.TrueFormula):
            return PBF_TRUE
        if isinstance(f, fm.FalseFormula):
            return PBF_FALSE
        return MoveRef(self.states.add(Weak(f) if weak else f), move)

    def _trans(self, entry, m, read: set | None = None) -> PBF:
        if isinstance(entry, Weak):
            return self._trans_weak(entry.formula, m)
        if m is BEGIN:
            return self._trans_begin(entry)
        return transition(entry, guard_test(m, read), self._ref)

    def _trans_weak(self, f: fm.Formula, m) -> PBF:
        if m is not BEGIN and m is not END:
            return self._ref(f, Move.S)
        # Weak value at a marker: literals hold, boolean structure recurses,
        # everything else coincides with the plain state.  `_ref` folds tt
        # and ff to leaves before it would wrap them, so f is never either.
        match f:
            case fm.Atom() | fm.Not(fm.Atom()):
                return PBF_TRUE
            case fm.And(l, r):
                return pbf_and(self._ref(l, Move.S, True), self._ref(r, Move.S, True))
            case fm.Or(l, r):
                return pbf_or(self._ref(l, Move.S, True), self._ref(r, Move.S, True))
            case _:
                return self._ref(f, Move.S)

    def _trans_begin(self, f: fm.Formula) -> PBF:
        # The begin marker is only inspected through the guard states of the
        # past operators, so plain leaf values suffice; no move is emitted.
        match f:
            case fm.TrueFormula() | fm.Box(_, _) | fm.WeakPrev(_) | fm.Trigger(_, _):
                return PBF_TRUE
            case _:
                return PBF_FALSE

    def accepts(self, t: Trace) -> bool:
        check_letters(t, self.ap)
        return self._least(t)[2 * len(self.states) + self.initial] == 1  # configuration (initial, 0)

    def fixpoint(self, t: Trace) -> dict:
        """Least fixpoint over configurations (state, position), positions -1..len(t)."""
        width = len(self.states)
        value = self._least(t)
        return {(q, pos): value[(pos + 2) * width + q] == 1 for q in range(width) for pos in range(-1, len(t) + 1)}

    def _least(self, t: Trace) -> bytearray:
        """The least fixpoint as one byte per configuration: (q, pos) is at (pos + 2) * len(states) + q.

        Rows of zeros at positions -2 and len(t) + 1 pad the tape, with false
        transitions, so a reader of a marker configuration that would sit
        off the tape, and any move off it, lands on a zero: no bounds test
        runs.  A configuration is re-evaluated only when a configuration its
        transition reads has just turned true.
        """
        width = len(self.states)
        cells = (BEGIN, *t.letters, END)  # the cell at position pos is cells[pos + 1]
        value = bytearray(width * (len(t) + 4))  # configuration (q, pos) is value[(pos + 2) * width + q]
        rows = {cell: [self._code[self._key(q, cell)] for q in range(width)] for cell in set(cells)}  # per distinct cell
        # Transitions are constant-folded, so with every configuration false
        # exactly those whose transition is the true leaf hold.
        seeds = {cell: [q for q, code in enumerate(row) if code is True] for cell, row in rows.items()}
        work = [(q, row) for row, cell in enumerate(cells, 1) for q in seeds[cell]]  # (state, pos + 2)
        for q, row in work:
            value[row * width + q] = 1
        pad = [False] * width
        at = [pad, *(rows[cell] for cell in cells), pad]  # the transitions at position pos are at[pos + 2]
        readers = self._readers
        while work:
            state, row = work.pop()
            for q, step in readers[state]:
                source = row - step
                base = source * width
                if not value[base + q] and _holds(at[source][q], value, base):
                    value[base + q] = 1
                    work.append((q, source))
        return value


def _move_refs(pbf: PBF):
    match pbf:
        case MoveRef():
            yield pbf
        case AndNode(l, r) | OrNode(l, r):
            yield from _move_refs(l)
            yield from _move_refs(r)
