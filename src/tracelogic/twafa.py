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

The fixpoint is computed by a worklist (Liu & Smolka, ICALP 1998).  A
configuration starts true exactly when its transition is the true leaf.
Each configuration that turns true is pushed once; popping it
re-evaluates the false configurations whose transitions may read it,
found from a table, built once per automaton from its stored
transitions, that lists for each state the (state, head move) pairs with a
transition referring to it.  A configuration is thus evaluated at most
once per reference in its transitions, so a run is linear in the trace
length; it looks up the transitions of each distinct cell of the trace once.
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
    TrueLeaf,
    Weak,
    guard_test,
    pbf_and,
    pbf_eval,
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
        readers: dict = {}  # state s -> {(q, step): None} for the transitions from q reading s at pos + step
        for (q, _), pbf in self.transitions.items():
            for ref in _move_refs(pbf):
                readers.setdefault(ref.state, {})[(q, ref.move.value)] = None
        self._readers: tuple = tuple(tuple(readers.get(s, ())) for s in range(len(self.states)))

    def __len__(self) -> int:
        return len(self.states)

    def delta(self, q: int, cell) -> PBF:
        """The transition of state q at a marker, or at a letter through its class over `reads[q]`."""
        return self.transitions[(q, cell if cell is BEGIN or cell is END else cell & self.reads[q])]

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
        # everything else coincides with the plain state.
        match f:
            case fm.TrueFormula():
                return PBF_TRUE
            case fm.FalseFormula():
                return PBF_FALSE
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
        return self._least(t)[len(self.states) + self.initial] == 1  # configuration (initial, 0)

    def fixpoint(self, t: Trace) -> dict:
        """Least fixpoint over configurations (state, position), positions -1..len(t)."""
        width = len(self.states)
        value = self._least(t)
        return {(q, pos): value[(pos + 1) * width + q] == 1 for q in range(width) for pos in range(-1, len(t) + 1)}

    def _least(self, t: Trace) -> bytearray:
        """The least fixpoint as one byte per configuration: (q, pos) is at (pos + 1) * len(states) + q.

        A worklist computes it: a configuration is re-evaluated only when a
        configuration its transition reads has just turned true.
        """
        n = len(t)
        width = len(self.states)
        cells = (BEGIN, *t.letters, END)  # the cell at position pos is cells[pos + 1]
        value = bytearray(width * (n + 2))  # configuration (q, pos) is value[(pos + 1) * width + q]
        source = -1  # the position of the configuration being evaluated

        def leaf(ref: MoveRef) -> bool:
            target = source + ref.move.value
            return -1 <= target <= n and value[(target + 1) * width + ref.state] == 1

        rows = {cell: [self.delta(q, cell) for q in range(width)] for cell in set(cells)}  # per distinct cell
        # Transitions are constant-folded, so with every configuration false
        # exactly those whose transition is the true leaf hold.
        seeds = {cell: [q for q, pbf in enumerate(row) if isinstance(pbf, TrueLeaf)] for cell, row in rows.items()}
        work = [(q, pos) for pos, cell in enumerate(cells, -1) for q in seeds[cell]]
        for q, pos in work:
            value[(pos + 1) * width + q] = 1
        at = [rows[cell] for cell in cells]  # the transitions at position pos are at[pos + 1]
        readers = self._readers
        while work:
            state, pos = work.pop()
            for q, step in readers[state]:
                source = pos - step
                if -1 <= source <= n and not value[(source + 1) * width + q]:
                    if pbf_eval(at[source + 1][q], leaf):
                        value[(source + 1) * width + q] = 1
                        work.append((q, source))
        return value


def _move_refs(pbf: PBF):
    match pbf:
        case MoveRef():
            yield pbf
        case AndNode(l, r) | OrNode(l, r):
            yield from _move_refs(l)
            yield from _move_refs(r)
