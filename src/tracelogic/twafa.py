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
only at the markers), so the build at the end marker records them.  Both
markers answer every guard false, so a weak state keeps that one build at
the begin marker too; a plain state's transition there is a constant that
tests no guard.  A state that tests none keeps its end-marker transition
object at every letter and reads nothing; otherwise the atoms of its guards
are its `reads`, and one transition is built and stored per class over
them, in `letters_over` order (the order letters meet them).  `delta` finds
it.  A build stored at two cells is stored under adjacent keys, so the plan
of the run below walks each build once.  The alphabet comes from the atoms
the fragment check collects in its one walk of the root.

The fixpoint is computed by a worklist (Liu & Smolka, ICALP 1998) over the
configurations of the *kept* states only.  A one-way automaton is a two-way
automaton whose stay-in-place moves are resolved within the letter (Vardi,
ICALP 1998), and the run does the same for a state that is not the initial
one, when every reference to it is an S reference from one other state and
no single transition names it twice: it is *resolved into its reader*.
Every other state is kept.  A resolved state's configuration at a position
is read only by its reader's at the same position, so substituting its
transition at that cell for the reference preserves the least fixpoint.
Its host is the kept state at the end of its chain of readers.  Constant
folding can leave states that no other state names but each other, each
the one reader of the next; a chain of readers from them never reaches a
kept state, so they stay kept, as does a state that is its own reader.

The kept states are numbered in state order, and the tape holds one row of
that many bytes, k, per position, from the begin marker to the end marker,
between two rows of zeros.  `_least` compiles each kept state's transition
once per class of its cell over the reads of the states it hosts
(`_compile`): references to resolved states are substituted and constants
folded with `pbf_and` and `pbf_or`, and a reference to the kept state of
ordinal s after head move m (-1, 0 or 1) becomes the offset `m * k + s`
from the row.  As no transition names a resolved state twice, a compiled
transition has at most the leaves of the transitions it gathers.  A
configuration starts true exactly when its compiled transition is `True`.
Each configuration that turns true is pushed once; popping it re-evaluates
the false configurations whose compiled transitions may read it, found from
a table built with the automaton from every transition: for each kept state,
the (host, head move) pairs of the transitions naming it.  A configuration
is thus evaluated at most once per reference in its compiled transitions,
each reference read as one byte, so a run is linear in the trace length; it
looks up the compiled transitions of each distinct cell of the trace once.
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
    _holds,
    guard_test,
    pbf_and,
    pbf_or,
    transition,
)
from .trace import Trace, check_letters, letters_over, outside_alphabet, resolve_alphabet


def _compile(pbf: PBF, at, slots, width: int) -> PBF:
    """The transition in the form `_holds` evaluates, with resolved states substituted and constants folded.

    A reference to a kept state, the state of ordinal `slots[s]` among the
    kept ones, becomes its tape offset; a reference to a resolved state,
    whose slot is None, becomes that state's transition `at(s)`, compiled
    in turn.  The loop follows right operands, and the transitions
    substituted there, as `_holds` does: one frame per level of left operands.
    """

    def compiled(node: PBF) -> PBF:
        spine = []  # (is_and, left operand compiled) down the right operands
        while True:
            if node.__class__ is tuple:
                is_and, left, node = node
                spine.append((is_and, compiled(left)))
            elif node.__class__ is MoveRef and slots[node.state] is None:
                node = at(node.state)
            else:
                break
        if node.__class__ is MoveRef:
            node = node.move * width + slots[node.state]
        for is_and, left in reversed(spine):
            node = (pbf_and if is_and else pbf_or)(left, node)
        return node

    return compiled(pbf)


def _named(pbf: PBF, found: list) -> list:
    """The `MoveRef` leaves of a transition, appended to `found` left to right."""
    while pbf.__class__ is tuple:
        _named(pbf[1], found)
        pbf = pbf[2]
    if pbf.__class__ is MoveRef:
        found.append(pbf)
    return found


class TwoAFA:
    """Two-way alternating automaton reading marker-framed traces."""

    def __init__(self, root: fm.Formula, ap=None):
        self.ap: tuple[str, ...] = resolve_alphabet(fm.check_fragment(root, past=True), ap)
        self.states: StateSet = StateSet()
        self.initial: int = self.states.add(root)
        self.transitions: dict = {}  # (q, BEGIN, END or a class over reads[q]) -> transition
        reads = []
        for q, entry in enumerate(self.states):
            asked: list = []  # the guards its build tests: the same at END and at every letter
            end = self._trans(entry, END, asked)
            # A weak state reads its cell only through guards, which both markers answer false: one build serves both.
            self.transitions[(q, BEGIN)] = end if isinstance(entry, Weak) else self._trans_begin(entry)
            self.transitions[(q, END)] = end
            read = frozenset().union(*map(fm.atoms, asked))
            if asked:
                for letter in letters_over(read):  # the empty letter first
                    self.transitions[(q, letter)] = self._trans(entry, letter)
            else:  # it reads nothing of its cell, so END's transition is its transition at every letter
                self.transitions[(q, frozenset())] = end
            reads.append(read)
        self.reads: tuple[frozenset[str], ...] = tuple(reads)
        self._plan()
        self._rows: dict = {}  # (q, BEGIN, END or a class over the reads its host gathers) -> q's transition compiled

    def _plan(self) -> None:
        """Choose the states resolved into their readers, number the kept ones, and table the kept ones' readers."""
        count = len(self.states)
        named: list = [{} for _ in range(count)]  # s -> {(q, move): None} for the transitions of q naming s after move
        twice = set()  # the states that some single transition names more than once
        last = None
        for (q, _), pbf in self.transitions.items():
            if pbf is last:  # one build stored at two cells, which are stored next to each other
                continue
            last = pbf
            if pbf.__class__ is MoveRef:
                named[pbf.state][(q, pbf.move)] = None
            elif pbf.__class__ is tuple:
                seen = set()
                for ref in _named(pbf, []):
                    if ref.state in seen:
                        twice.add(ref.state)
                    seen.add(ref.state)
                    named[ref.state][(q, ref.move)] = None
        inner: list = [[] for _ in range(count)]  # q -> the states that may be resolved into q
        host: list = [None] * count  # s -> the kept state its chain of readers ends at
        stack = []
        for s, pairs in enumerate(named):
            if s != self.initial and s not in twice and len(pairs) == 1:
                [(reader, move)] = pairs
                if move == _S:
                    inner[reader].append(s)
                    continue
            host[s] = s
            stack.append(s)
        while stack:
            q = stack.pop()
            for s in inner[q]:
                host[s] = host[q]
                stack.append(s)
        # A state that reads itself, or lies on or under a cycle of single
        # readers, is reached from no kept state: it stays kept.
        host = [s if h is None else h for s, h in enumerate(host)]
        kept = [q for q, h in enumerate(host) if h == q]
        slots: list = [None] * count  # s -> its ordinal among the kept states, None if resolved
        for k, q in enumerate(kept):
            slots[q] = k
        gathered = dict.fromkeys(kept, frozenset())  # the reads of each kept state and of the states it hosts
        for h, read in zip(host, self.reads):
            gathered[h] |= read
        self._host: tuple[int, ...] = tuple(host)
        self._kept: tuple[int, ...] = tuple(kept)
        self._slots: tuple = tuple(slots)
        self._gathered: tuple[frozenset[str], ...] = tuple(map(gathered.__getitem__, host))
        # For each kept state, the (slot of the host of q, step) pairs of the transitions from q reading it at pos + step.
        self._readers: tuple = tuple(tuple(dict.fromkeys((slots[host[q]], step) for q, step in named[s])) for s in kept)

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
        return isinstance(f, (fm.TrueFormula, fm.Box, fm.WeakPrev, fm.Trigger))

    def accepts(self, t: Trace) -> bool:
        return self._least(t)[2 * len(self._kept) + self._slots[self.initial]] == 1  # configuration (initial, 0)

    def fixpoint(self, t: Trace) -> dict:
        """Least fixpoint over configurations (state, position), positions -1..len(t), for every state.

        A resolved state's value is its transition with the states resolved
        into it substituted, compiled as for a kept state and read against
        the kept states' values at its position.
        """
        width = len(self._kept)
        value = self._least(t)
        cells = (BEGIN, *t.letters, END)
        fix = {}
        for q, slot in enumerate(self._slots):
            for pos, cell in enumerate(cells, -1):
                base = (pos + 2) * width
                fix[(q, pos)] = (value[base + slot] if slot is not None else _holds(self._row(q, cell), value, base)) == 1
        return fix

    def _row(self, q: int, cell) -> PBF:
        """q's transition at a cell compiled, once per class of the cell over the reads its host gathers."""
        key = (q, cell if cell is BEGIN or cell is END else cell & self._gathered[q])
        row = self._rows.get(key)
        if row is None:

            def at(s: int) -> PBF:
                return self.transitions[self._key(s, cell)]

            row = self._rows[key] = _compile(at(q), at, self._slots, len(self._kept))
        return row

    def _least(self, t: Trace) -> bytearray:
        """The least fixpoint of the kept states as one byte per configuration: (q, pos) is at (pos + 2) * k + slot.

        Here k is the number of kept states and slot is q's ordinal among
        them.  Rows of zeros at positions -2 and len(t) + 1 pad the tape,
        with false transitions, so a reader of a marker configuration that
        would sit off the tape, and any move off it, lands on a zero: no
        bounds test runs.  A configuration is re-evaluated only when a
        configuration its compiled transition reads has just turned true.
        AlphabetMismatchError for a letter of t outside `ap`.
        """
        check_letters(t, self.ap)
        width = len(self._kept)
        cells = (BEGIN, *t.letters, END)  # the cell at position pos is cells[pos + 1]
        value = bytearray(width * (len(t) + 4))  # configuration (q, pos) is value[(pos + 2) * width + slot]
        rows = {cell: [self._row(q, cell) for q in self._kept] for cell in set(cells)}  # per distinct cell
        # Compiled transitions are constant-folded, so with every
        # configuration false exactly those whose transition is `True` hold.
        seeds = {cell: [k for k, compiled in enumerate(row) if compiled is True] for cell, row in rows.items()}
        work = [(k, row) for row, cell in enumerate(cells, 1) for k in seeds[cell]]  # (slot, pos + 2)
        for k, row in work:
            value[row * width + k] = 1
        pad = [False] * width
        at = [pad, *(rows[cell] for cell in cells), pad]  # the compiled transitions at position pos are at[pos + 2]
        readers = self._readers
        while work:
            state, row = work.pop()
            for k, step in readers[state]:
                source = row - step
                base = source * width
                if not value[base + k] and _holds(at[source][k], value, base):
                    value[base + k] = 1
                    work.append((k, source))
        return value
