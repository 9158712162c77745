"""Two-way alternating automata with past operators and fixpoint acceptance.

The input word is framed by begin/end markers; a configuration is a state
paired with a tape position, and acceptance is membership of the initial
configuration in the least fixpoint of the transition system.  The
transitions come from `afa.transition`, the builder the one-way AFA uses
too; here every successor it names, a stay-in-place (S) one included,
becomes a state of its own, paired with its head move, so a transition is a
positive boolean formula over {-1, 0, 1} x Q with the constants `True` and
`False`.  Past operators walk left; the marker cells let the translation
detect the ends of the trace, so star unfoldings need no construction-time
recursion: existential loops that make no progress simply stay false in the
least fixpoint.  Universal (box) obligations are expanded eagerly through
their path, dropping re-arrivals at the same star at the same position,
which keeps their vacuous loops out of the fixpoint while preserving the
single least-fixpoint polarity.  A state's transition depends on its cell
only through the guards it tests, the same at the end marker and at every
letter (a weak state's boolean structure tests the guard tt, which fails
only at the markers), so the build at the end marker records them.  A state
that tests none keeps that transition object at every letter and reads
nothing; otherwise the atoms of its guards are its `reads`, and one
transition is built and stored per class over them, in `letters_over` order
(the order letters meet them).  `delta` finds it.

The fixpoint is computed by a worklist (Liu & Smolka, ICALP 1998) over a
byte tape: one row of `len(states)` bytes per position, from the begin
marker to the end marker, between two rows of zeros.  Each distinct
transition object is compiled once, when the automaton is built, into
integer offsets from its own row: a reference to state s after head move m
(-1, 0 or 1) is `m * len(states) + s`.  A configuration starts true exactly
when its transition is `True`.  Each configuration that turns true is pushed
once; popping it re-evaluates the false configurations whose transitions
may read it, found from a table that the same walk as the compilation
fills, listing for each state the (state, head move) pairs with a
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
    MoveRef,
    StateSet,
    Weak,
    _S,
    _compile,
    _holds,
    guard_test,
    pbf_and,
    pbf_or,
    transition,
)
from .trace import Trace, check_letters, letters_over, outside_alphabet, resolve_alphabet


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
            self.transitions[(q, BEGIN)] = self._trans(entry, BEGIN)
            asked: list = []  # the guards its build tests: the same at END and at every letter
            end = self.transitions[(q, END)] = self._trans(entry, END, asked)
            read = frozenset().union(*map(fm.atoms, asked))
            if asked:
                for letter in letters_over(read):  # the empty letter first
                    self.transitions[(q, letter)] = self._trans(entry, letter)
            else:  # it reads nothing of its cell, so END's transition is its transition at every letter
                self.transitions[(q, frozenset())] = end
            reads.append(read)
        self.reads: tuple[frozenset[str], ...] = tuple(reads)
        width = len(self.states)
        readers: list = [{} for _ in range(width)]  # s -> {(q, step): None} for transitions from q reading s at pos + step

        def offset(ref: MoveRef) -> int:  # q is the state whose transition is being compiled
            readers[ref.state][(q, ref.move)] = None
            return ref.move * width + ref.state

        by_object: dict = {}  # id(transition) -> the transition compiled, its readers recorded
        self._compiled: dict = {}  # keyed as `transitions`: the transition compiled
        for key, pbf in self.transitions.items():
            compiled = by_object.get(id(pbf))
            if compiled is None:  # a transition object is shared only within a state, or is a constant
                q = key[0]
                compiled = by_object[id(pbf)] = _compile(pbf, offset)
            self._compiled[key] = compiled
        self._readers: tuple = tuple(map(tuple, readers))

    def __len__(self) -> int:
        return len(self.states)

    def delta(self, q: int, cell) -> PBF:
        """The transition of state q at a marker, or at a letter of `ap` through its class over `reads[q]`."""
        if cell is not BEGIN and cell is not END and not cell.issubset(self.ap):
            raise outside_alphabet(cell, self.ap)
        return self.transitions[self._key(q, cell)]

    def _key(self, q: int, cell) -> tuple:
        return (q, cell if cell is BEGIN or cell is END else cell & self.reads[q])

    def _ref(self, f: fm.Formula, move: int, weak: bool = False) -> PBF:
        if isinstance(f, fm.TrueFormula):
            return True
        if isinstance(f, fm.FalseFormula):
            return False
        return MoveRef(self.states.add(Weak(f) if weak else f), move)

    def _trans(self, entry, m, asked: list | None = None) -> PBF:
        if isinstance(entry, Weak):
            return self._trans_weak(entry.formula, guard_test(m, asked))
        if m is BEGIN:
            return self._trans_begin(entry)
        return transition(entry, guard_test(m, asked), self._ref)

    def _trans_weak(self, f: fm.Formula, sat) -> PBF:
        # At a letter, where the guard tt holds, a weak state is its plain
        # state.  At a marker literals hold, boolean structure recurses, and
        # everything else coincides with the plain state, so only the
        # literals and the boolean structure ask.  `_ref` folds tt and ff to
        # constants before it would wrap them, so f is never either.
        if isinstance(f, (fm.Atom, fm.Not, fm.And, fm.Or)) and sat(fm.TRUE) is False:
            if isinstance(f, fm.And):
                return pbf_and(self._ref(f.left, _S, True), self._ref(f.right, _S, True))
            if isinstance(f, fm.Or):
                return pbf_or(self._ref(f.left, _S, True), self._ref(f.right, _S, True))
            return True
        return self._ref(f, _S)

    def _trans_begin(self, f: fm.Formula) -> PBF:
        # The begin marker is only inspected through the guard states of the
        # past operators, so plain constants suffice; no move is emitted.
        match f:
            case fm.TrueFormula() | fm.Box(_, _) | fm.WeakPrev(_) | fm.Trigger(_, _):
                return True
            case _:
                return False

    def accepts(self, t: Trace) -> bool:
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
        transition reads has just turned true.  AlphabetMismatchError for a
        letter of t outside `ap`.
        """
        check_letters(t, self.ap)
        width = len(self.states)
        cells = (BEGIN, *t.letters, END)  # the cell at position pos is cells[pos + 1]
        value = bytearray(width * (len(t) + 4))  # configuration (q, pos) is value[(pos + 2) * width + q]
        rows = {cell: [self._compiled[self._key(q, cell)] for q in range(width)] for cell in set(cells)}  # per distinct cell
        # Transitions are constant-folded, so with every configuration false
        # exactly those whose transition is `True` hold.
        seeds = {cell: [q for q, compiled in enumerate(row) if compiled is True] for cell, row in rows.items()}
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

