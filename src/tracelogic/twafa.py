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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import formula as fm
from . import oracle
from .afa import PBF, PBF_FALSE, PBF_TRUE, AndNode, FalseLeaf, OrNode, TrueLeaf, pbf_and, pbf_or
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
        self.states: fm.StateSet = fm.StateSet()
        self.initial: int = self.states.add(root)
        self.transitions: dict = {}
        marked = (BEGIN, END) + self.letters
        i = 0
        while i < len(self.states):
            for m in marked:
                self.transitions[(i, m)] = self._trans(self.states[i], m)
            i += 1

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
        return self.fixpoint(t)[(self.initial, 0)]

    def fixpoint(self, t: Trace) -> dict:
        """Least fixpoint over configurations (state, position), positions -1..len(t)."""
        n = len(self.states)
        positions = range(-1, len(t) + 1)
        assignment = {(q, pos): False for q in range(n) for pos in positions}

        def lookup(ref: MoveRef, pos: int) -> bool:
            target = pos + ref.move.value
            if target < -1 or target > len(t):
                return False
            return assignment[(ref.state, target)]

        def eval_pbf(pbf: PBF, pos: int) -> bool:
            match pbf:
                case TrueLeaf():
                    return True
                case FalseLeaf():
                    return False
                case MoveRef():
                    return lookup(pbf, pos)
                case AndNode(l, r):
                    return eval_pbf(l, pos) and eval_pbf(r, pos)
                case OrNode(l, r):
                    return eval_pbf(l, pos) or eval_pbf(r, pos)
            raise TypeError(f"not a transition formula: {pbf!r}")

        changed = True
        while changed:
            changed = False
            for q in range(n):
                for pos in positions:
                    if assignment[(q, pos)]:
                        continue
                    if eval_pbf(self.transitions[(q, self.marked_at(t, pos))], pos):
                        assignment[(q, pos)] = True
                        changed = True
        return assignment


def moves_in(pbf: PBF) -> set[Move]:
    """All head moves a transition formula can emit (for structural audits)."""
    match pbf:
        case MoveRef(_, move):
            return {move}
        case AndNode(l, r) | OrNode(l, r):
            return moves_in(l) | moves_in(r)
        case _:
            return set()
