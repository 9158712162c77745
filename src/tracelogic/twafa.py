"""Two-way alternating automata with past operators and fixpoint acceptance.

The input word is framed by begin/end markers; a configuration is a state
paired with a tape position, and acceptance is membership of the initial
configuration in the least fixpoint of the transition system.  Past
operators walk left; the marker cells let the translation detect the ends
of the trace, so star unfoldings need no construction-time recursion:
existential loops that make no progress simply stay false in the least
fixpoint.  Universal (box) obligations are expanded eagerly through their
path, dropping re-arrivals at the same star at the same position, which
keeps their vacuous loops out of the fixpoint while preserving the single
least-fixpoint polarity.

The fixpoint is computed by a worklist (Liu & Smolka, ICALP 1998).  A
configuration starts true exactly when its transition is the true leaf.
Each configuration that turns true is pushed once; popping it
re-evaluates the false configurations whose transitions may read it,
found from a per-run table that lists, for each state, the (state, head
move) pairs with a transition referring to it.  A configuration is thus
evaluated at most once per reference in its transitions, so a run is
linear in the trace length; the sweep-until-stable loop it replaces
moved information one position per sweep and was quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import formula as fm
from . import oracle
from .afa import PBF, PBF_FALSE, PBF_TRUE, AndNode, FalseLeaf, OrNode, StateSet, TrueLeaf, pbf_and, pbf_or
from .errors import UnsupportedOperatorError
from .trace import Trace, check_letters, letters_over, resolve_alphabet


class Move(Enum):
    L = -1
    S = 0
    R = 1


@dataclass(frozen=True)
class MoveRef(PBF):
    """PBF leaf: the referenced state must hold after moving the head."""

    state: int
    move: Move


@dataclass(frozen=True)
class _Marker:
    name: str


BEGIN = _Marker("begin")
END = _Marker("end")


@dataclass(frozen=True)
class Weak:
    """State wrapper: behaves like the formula at letters, holds weakly at markers."""

    formula: fm.Formula


class TwoAFA:
    """Two-way alternating automaton reading marker-framed traces."""

    def __init__(self, root: fm.Formula, ap=None):
        fm.check_fragment(root, past=True)
        self.ap: tuple[str, ...] = resolve_alphabet(fm.atoms(root), ap)
        self.letters: tuple = tuple(letters_over(self.ap))
        self.states: StateSet = StateSet()
        self.initial: int = self.states.add(root)
        self.transitions: dict = {}
        for q, entry in enumerate(self.states):
            for m in (BEGIN, END):
                self.transitions[(q, m)] = self._trans(entry, m)
            local = _letter_atoms(entry)
            classes: dict = {}
            for letter in self.letters:
                key = letter & local
                pbf = classes.get(key)
                if pbf is None:
                    pbf = classes[key] = self._trans(entry, key)
                self.transitions[(q, letter)] = pbf

    def __len__(self) -> int:
        return len(self.states)

    def _ref(self, entry, move: Move) -> PBF:
        f = entry.formula if isinstance(entry, Weak) else entry
        if isinstance(f, fm.TrueFormula):
            return PBF_TRUE
        if isinstance(f, fm.FalseFormula):
            return PBF_FALSE
        return MoveRef(self.states.add(entry), move)

    def _trans(self, entry, m) -> PBF:
        if isinstance(entry, Weak):
            return self._trans_weak(entry.formula, m)
        if m is BEGIN:
            return self._trans_begin(entry)
        return self._trans_main(entry, m)

    def _trans_weak(self, f: fm.Formula, m) -> PBF:
        if not isinstance(m, _Marker):
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
                return pbf_and(self._ref(Weak(l), Move.S), self._ref(Weak(r), Move.S))
            case fm.Or(l, r):
                return pbf_or(self._ref(Weak(l), Move.S), self._ref(Weak(r), Move.S))
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

    def _trans_main(self, f: fm.Formula, m) -> PBF:
        at_end = m is END
        match f:
            case fm.TrueFormula():
                return PBF_TRUE
            case fm.FalseFormula():
                return PBF_FALSE
            case fm.Atom(name):
                return PBF_FALSE if at_end else (PBF_TRUE if name in m else PBF_FALSE)
            case fm.Not(fm.Atom(name)):
                return PBF_FALSE if at_end else (PBF_FALSE if name in m else PBF_TRUE)
            case fm.And(l, r):
                return pbf_and(self._ref(l, Move.S), self._ref(r, Move.S))
            case fm.Or(l, r):
                return pbf_or(self._ref(l, Move.S), self._ref(r, Move.S))
            case fm.Prev(g):
                return pbf_and(self._ref(fm.STEP_POSSIBLE, Move.L), self._ref(g, Move.L))
            case fm.WeakPrev(g):
                return pbf_or(self._ref(fm.AT_MARKER, Move.L), self._ref(g, Move.L))
            case fm.Since(l, r):
                return pbf_or(
                    self._ref(r, Move.S),
                    pbf_and(self._ref(l, Move.S), self._ref(fm.Prev(f), Move.S)),
                )
            case fm.Trigger(l, r):
                return pbf_and(
                    self._ref(Weak(r), Move.S),
                    pbf_or(self._ref(Weak(l), Move.S), self._ref(fm.WeakPrev(f), Move.S)),
                )
            case fm.Diamond(p, g):
                return self._diamond(p, g, f, m)
            case fm.Box(_, _):
                return self._box(f, m, frozenset())
            case _:
                raise UnsupportedOperatorError(f"cannot build transitions for {type(f).__name__}")

    def _diamond(self, p, g, node, m) -> PBF:
        match p:
            case fm.Step(guard):
                if isinstance(m, _Marker):
                    return PBF_FALSE
                return self._ref(g, Move.R) if oracle.prop_sat(guard, m) else PBF_FALSE
            case fm.Test(e):
                return pbf_and(self._ref(e, Move.S), self._ref(g, Move.S))
            case fm.Seq(q, r):
                return self._ref(fm.Diamond(q, fm.Diamond(r, g)), Move.S)
            case fm.Alt(q, r):
                return pbf_or(self._ref(fm.Diamond(q, g), Move.S), self._ref(fm.Diamond(r, g), Move.S))
            case fm.Star(q):
                return pbf_or(self._ref(g, Move.S), self._ref(fm.Diamond(q, node), Move.S))
        raise TypeError(f"not a path expression: {p!r}")

    def _box(self, b: fm.Box, m, expanding: frozenset) -> PBF:
        """Eager obligation expansion; re-arrival at a star being expanded is vacuous."""
        p, g = b.path, b.arg
        match p:
            case fm.Step(guard):
                if isinstance(m, _Marker):
                    return PBF_TRUE
                return self._ref(Weak(g), Move.R) if oracle.prop_sat(guard, m) else PBF_TRUE
            case fm.Test(e):
                return pbf_or(self._ref(Weak(fm.nnf_not(e)), Move.S), self._arrive(g, m, expanding))
            case fm.Seq(q, r):
                return self._box(fm.Box(q, fm.Box(r, g)), m, expanding)
            case fm.Alt(q, r):
                return pbf_and(self._box(fm.Box(q, g), m, expanding), self._box(fm.Box(r, g), m, expanding))
            case fm.Star(q):
                if b in expanding:
                    return PBF_TRUE
                inner = expanding | {b}
                return pbf_and(self._arrive(g, m, inner), self._box(fm.Box(q, b), m, inner))
        raise TypeError(f"not a path expression: {p!r}")

    def _arrive(self, g: fm.Formula, m, expanding: frozenset) -> PBF:
        if g in expanding:
            return PBF_TRUE
        if isinstance(g, fm.Box):
            return self._box(g, m, expanding)
        return self._ref(Weak(g), Move.S)

    def marked_at(self, t: Trace, pos: int):
        if pos < 0:
            return BEGIN
        if pos >= len(t):
            return END
        return t.letters[pos]

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

        def holds(pbf: PBF, pos: int) -> bool:
            match pbf:
                case MoveRef(state, move):
                    target = pos + move.value
                    return -1 <= target <= n and value[(target + 1) * width + state] == 1
                case AndNode(l, r):
                    return holds(l, pos) and holds(r, pos)
                case OrNode(l, r):
                    return holds(l, pos) or holds(r, pos)
                case TrueLeaf():
                    return True
                case FalseLeaf():
                    return False
            raise TypeError(f"not a transition formula: {pbf!r}")

        # Transitions are constant-folded, so with every configuration false
        # exactly those whose transition is the true leaf hold.
        seeds = {
            cell: [q for q in range(width) if isinstance(self.transitions[(q, cell)], TrueLeaf)] for cell in set(cells)
        }
        work = []
        for pos, cell in enumerate(cells, -1):
            for q in seeds[cell]:
                value[(pos + 1) * width + q] = 1
                work.append((q, pos))
        readers = self._readers()
        while work:
            state, pos = work.pop()
            for q, step in readers[state]:
                source = pos - step
                if -1 <= source <= n and not value[(source + 1) * width + q]:
                    if holds(self.transitions[(q, cells[source + 1])], source):
                        value[(source + 1) * width + q] = 1
                        work.append((q, source))
        return value

    def _readers(self) -> list:
        """For each state s, the pairs (q, step) whose transition from q at pos reads s at pos + step."""
        readers = [{} for _ in self.states]
        for (q, _), pbf in self.transitions.items():
            for ref in _move_refs(pbf):
                readers[ref.state][(q, ref.move.value)] = None
        return [tuple(r) for r in readers]


def _letter_atoms(entry) -> set[str]:
    """The atoms an entry's transition at a letter reads; letters agreeing on them share it.

    Only literals and step guards read the letter, and a box, which expands
    its path eagerly, may read any guard in it.  Every other entry refers to
    states without reading.
    """
    match entry:
        case fm.Atom(name) | fm.Not(fm.Atom(name)):
            return {name}
        case fm.Diamond(fm.Step(guard), _):
            return fm.atoms(guard)
        case fm.Box():
            return fm.atoms(entry)
    return set()


def _move_refs(pbf: PBF):
    match pbf:
        case MoveRef():
            yield pbf
        case AndNode(l, r) | OrNode(l, r):
            yield from _move_refs(l)
            yield from _move_refs(r)


def moves_in(pbf: PBF) -> set[Move]:
    """All head moves a transition formula can emit (for structural audits)."""
    return {ref.move for ref in _move_refs(pbf)}
