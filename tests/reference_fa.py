"""The automaton constructions as they were before they shared one explorer.

These are the hand-written breadth-first explorations that `fa.dealternate`,
`fa.determinize`, `fa.minimize`, `fa.is_empty` and `fa.equivalent`
replaced with loops over a growing `StateSet`: each keeps its own queue,
index and budget check, and `minimize` renumbers the reachable states and
the quotient breadth-first.  `test_fa.py` requires the current
constructions to give the same ordinals, automata, witnesses and
counterexamples.  `dealternate` returns the per-letter `NFA` that the
class tables replaced, a dict from (state index, letter) to successors, and
`determinize` reads it.  `build_dfa` and `_conjunction_successors` come
along because `equivalent` and `dealternate` call them.  The brute-force
`enumerate_accepted`, which ran every trace of the bounded space through
`dfa_accepts`, follows; the pruned walk must yield the same traces in the
same order.  The transition builders of the one-way and the two-way
alternating automaton, as they were before they shared `afa.transition`,
come next.  `reads` and `_path_reads`, the structural account of the atoms
an AFA image depends on that the automata used before they recorded the
guards their builds test, close the file, with `end_values`, the
oracle's values at the letterless end point, which the AFA folds in
closed form.  The file name does not match
`test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from tracelogic import formula as fm
from tracelogic import oracle
from tracelogic.afa import (
    AFA,
    BEGIN,
    END,
    PBF,
    MoveRef,
    StateSet,
    Weak,
    _L,
    _R,
    _S,
    minimal_sets,
    pbf_and,
    pbf_or,
)
from tracelogic.errors import BudgetError, UnsupportedOperatorError
from tracelogic.fa import DEFAULT_BUDGET, DFA, dfa_accepts
from tracelogic.trace import Trace, enumerate_traces, letters_over, resolve_alphabet


@dataclass
class NFA:
    """Nondeterministic automaton whose `transitions` map (state index, letter) to successor indices."""

    ap: tuple[str, ...]
    letters: tuple[frozenset, ...]
    states: list[frozenset]
    transitions: dict
    accepting: tuple[bool, ...]
    initial: int = 0


def _conjunction_successors(automaton: AFA, members, letter) -> list[frozenset]:
    """Minimal satisfying sets of the conjoined transition images of `members`."""
    current: list[frozenset] = [frozenset()]
    for q in sorted(members):
        q_sets = minimal_sets(automaton.delta(q, letter))
        if not q_sets:
            return []
        merged = {a | b for a in current for b in q_sets}
        current = [s for s in merged if not any(t < s for t in merged)]
    return sorted(current, key=lambda s: (len(s), sorted(s)))


def dealternate(automaton: AFA, max_states: int = DEFAULT_BUDGET) -> NFA:
    """Language-preserving conversion of an AFA into an NFA over state sets."""
    letters = tuple(letters_over(automaton.ap))
    start = frozenset((automaton.initial,))
    states: list[frozenset] = [start]
    index: dict = {start: 0}
    transitions: dict = {}
    queue = deque([0])
    while queue:
        s = queue.popleft()
        for letter in letters:
            successors = _conjunction_successors(automaton, states[s], letter)
            targets = []
            for succ in successors:
                t = index.get(succ)
                if t is None:
                    if len(states) >= max_states:
                        raise BudgetError(f"dealternation exceeded {max_states} states")
                    t = len(states)
                    states.append(succ)
                    index[succ] = t
                    queue.append(t)
                targets.append(t)
            transitions[(s, letter)] = tuple(targets)
    accepting = tuple(all(automaton.final[q] for q in s) for s in states)
    return NFA(automaton.ap, letters, states, transitions, accepting)


def determinize(nfa: NFA, max_states: int = DEFAULT_BUDGET) -> DFA:
    """Subset construction; the empty macro-state acts as the rejecting sink."""
    letters = nfa.letters
    start = frozenset((nfa.initial,))
    macro_states: list[frozenset] = [start]
    index: dict = {start: 0}
    rows: list[list[int]] = []
    queue = deque([0])
    while queue:
        s = queue.popleft()
        while len(rows) <= s:
            rows.append([])
        row = []
        for letter in letters:
            target = frozenset(t for member in macro_states[s] for t in nfa.transitions[(member, letter)])
            t_idx = index.get(target)
            if t_idx is None:
                if len(macro_states) >= max_states:
                    raise BudgetError(f"determinization exceeded {max_states} states")
                t_idx = len(macro_states)
                macro_states.append(target)
                index[target] = t_idx
                queue.append(t_idx)
            row.append(t_idx)
        rows[s] = row
    accepting = tuple(any(nfa.accepting[m] for m in s) for s in macro_states)
    return DFA(nfa.ap, letters, tuple(tuple(r) for r in rows), accepting)


def _reachable(dfa: DFA) -> list[int]:
    seen = [dfa.initial]
    index = {dfa.initial}
    for s in seen:
        for target in dfa.transitions[s]:
            if target not in index:
                index.add(target)
                seen.append(target)
    return seen


def _renumber(dfa: DFA) -> DFA:
    """Canonical breadth-first renumbering from the initial state."""
    order = _reachable(dfa)
    new_id = {old: new for new, old in enumerate(order)}
    transitions = tuple(
        tuple(new_id[dfa.transitions[old][a]] for a in range(len(dfa.letters))) for old in order
    )
    accepting = tuple(dfa.accepting[old] for old in order)
    return DFA(dfa.ap, dfa.letters, transitions, accepting)


def minimize(dfa: DFA, seed: int | None = None) -> DFA:
    """Unique minimal DFA for the same language.

    Unreachable states are dropped first, then blocks are refined until
    stable.  `seed` shuffles the refinement processing order; the final
    breadth-first renumbering makes the result independent of it.
    """
    dfa = _renumber(dfa)
    n = dfa.n_states
    order = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    block = [1 if dfa.accepting[s] else 0 for s in range(n)]
    while True:
        signatures: dict = {}
        new_block = [0] * n
        for s in order:
            sig = (block[s], tuple(block[t] for t in dfa.transitions[s]))
            assigned = signatures.get(sig)
            if assigned is None:
                assigned = len(signatures)
                signatures[sig] = assigned
            new_block[s] = assigned
        if len(signatures) == len(set(block)):
            break
        block = new_block
    representative: dict[int, int] = {}
    for s in range(n):
        representative.setdefault(block[s], s)
    blocks = sorted(representative)
    block_id = {b: i for i, b in enumerate(blocks)}
    transitions = tuple(
        tuple(block_id[block[dfa.transitions[representative[b]][a]]] for a in range(len(dfa.letters)))
        for b in blocks
    )
    accepting = tuple(dfa.accepting[representative[b]] for b in blocks)
    quotient = DFA(dfa.ap, dfa.letters, transitions, accepting, initial=block_id[block[dfa.initial]])
    return _renumber(quotient)


def build_dfa(f: fm.Formula, ap=None, max_states: int = DEFAULT_BUDGET, minimized: bool = True) -> DFA:
    """Full pipeline: normalize, translate, dealternate, determinize, minimize."""
    core = fm.to_dynamic_core(fm.nnf(f))
    dfa = determinize(dealternate(AFA(core, ap), max_states), max_states)
    return minimize(dfa) if minimized else dfa


def equivalent(f: fm.Formula, g: fm.Formula, max_states: int = DEFAULT_BUDGET):
    """(True, None) if the languages agree, else (False, shortest distinguishing trace)."""
    ap = sorted(fm.atoms(f) | fm.atoms(g))
    left = build_dfa(f, ap, max_states)
    right = build_dfa(g, ap, max_states)
    if left == right:
        return True, None
    queue = deque([(left.initial, right.initial, ())])
    seen = {(left.initial, right.initial)}
    while queue:
        s1, s2, path = queue.popleft()
        if left.accepting[s1] != right.accepting[s2]:
            return False, Trace(path)
        for a, letter in enumerate(left.letters):
            pair = (left.transitions[s1][a], right.transitions[s2][a])
            if pair not in seen:
                seen.add(pair)
                queue.append((*pair, path + (letter,)))
    return True, None


def is_empty(dfa: DFA):
    """(True, None) when no trace is accepted, else (False, a shortest witness)."""
    queue = deque([(dfa.initial, ())])
    seen = {dfa.initial}
    while queue:
        s, path = queue.popleft()
        if dfa.accepting[s]:
            return False, Trace(path)
        for a, letter in enumerate(dfa.letters):
            target = dfa.transitions[s][a]
            if target not in seen:
                seen.add(target)
                queue.append((target, path + (letter,)))
    return True, None


def enumerate_accepted(dfa: DFA, max_len: int) -> Iterator[Trace]:
    """Accepted traces of length <= max_len in enumeration order."""
    for t in enumerate_traces(dfa.ap, max_len):
        if dfa_accepts(dfa, t):
            yield t


# The transition builders as they were before one builder served both
# alternating automata: the one-way image, which unrolls a letter's
# stay-in-place steps itself, and the two-way automaton, which makes each of
# them a state of its own.  `test_afa.py` requires the same image for every
# state at every letter, and the same 2AFA states in the same order with the
# same transitions.


def afa_image(automaton: AFA, q: int, letter) -> PBF:
    """The image of AFA state q at a letter; a `Weak` state has the image of its formula."""
    state = automaton.states[q]
    return _image(automaton, state.formula if isinstance(state, Weak) else state, letter, frozenset())


def end_values(g: fm.Formula) -> tuple[bool, bool]:
    """g's outright and weak values at the letterless end point: bit 0 of the oracle's sets over the empty trace.

    g holds weakly where its NNF negation fails.  The AFA folds these
    values in closed form; `test_afa.py` compares the two.
    """
    end = oracle._evaluator(Trace(()))
    return bool(end.sat(g) & 1), not end.sat(fm.nnf_not(g)) & 1


def _weak_target(g: fm.Formula) -> fm.Formula:
    """The AFA state a box's step leads to: `Weak(g)` if g holds weakly but not outright at the end, else g."""
    outright, weak = end_values(g)
    return Weak(g) if weak != outright else g


def _afa_ref(automaton: AFA, h) -> PBF:
    if isinstance(h, fm.TrueFormula):
        return True
    if isinstance(h, fm.FalseFormula):
        return False
    return automaton.states.index[h]


def _image(automaton: AFA, f: fm.Formula, letter, visiting: frozenset) -> PBF:
    match f:
        case fm.TrueFormula():
            return True
        case fm.FalseFormula():
            return False
        case fm.Atom(name):
            return True if name in letter else False
        case fm.Not(fm.Atom(name)):
            return False if name in letter else True
        case fm.And(l, r):
            return pbf_and(_image(automaton, l, letter, visiting), _image(automaton, r, letter, visiting))
        case fm.Or(l, r):
            return pbf_or(_image(automaton, l, letter, visiting), _image(automaton, r, letter, visiting))
        case fm.Diamond(p, g):
            return _afa_diamond(automaton, p, g, f, letter, visiting)
        case fm.Box(p, g):
            return _afa_box(automaton, p, g, f, letter, visiting)
    raise UnsupportedOperatorError(f"cannot build transitions for {type(f).__name__}")


def _afa_diamond(automaton: AFA, p, g, node, letter, visiting) -> PBF:
    match p:
        case fm.Step(guard):
            return _afa_ref(automaton, g) if oracle.prop_sat(guard, letter) else False
        case fm.Test(e):
            return pbf_and(_image(automaton, e, letter, visiting), _image(automaton, g, letter, visiting))
        case fm.Seq(q, r):
            return _image(automaton, fm.Diamond(q, fm.Diamond(r, g)), letter, visiting)
        case fm.Alt(q, r):
            return pbf_or(
                _image(automaton, fm.Diamond(q, g), letter, visiting),
                _image(automaton, fm.Diamond(r, g), letter, visiting),
            )
        case fm.Star(q):
            if node in visiting:
                return False
            inner = visiting | {node}
            return pbf_or(_image(automaton, g, letter, inner), _image(automaton, fm.Diamond(q, node), letter, inner))
    raise TypeError(f"not a path expression: {p!r}")


def _afa_box(automaton: AFA, p, g, node, letter, visiting) -> PBF:
    match p:
        case fm.Step(guard):
            return _afa_ref(automaton, _weak_target(g)) if oracle.prop_sat(guard, letter) else True
        case fm.Test(e):
            return pbf_or(_image(automaton, fm.nnf_not(e), letter, visiting), _image(automaton, g, letter, visiting))
        case fm.Seq(q, r):
            return _image(automaton, fm.Box(q, fm.Box(r, g)), letter, visiting)
        case fm.Alt(q, r):
            return pbf_and(
                _image(automaton, fm.Box(q, g), letter, visiting),
                _image(automaton, fm.Box(r, g), letter, visiting),
            )
        case fm.Star(q):
            if node in visiting:
                return True
            inner = visiting | {node}
            return pbf_and(_image(automaton, g, letter, inner), _image(automaton, fm.Box(q, node), letter, inner))
    raise TypeError(f"not a path expression: {p!r}")


class ReferenceTwoAFA:
    """The two-way automaton's states and transitions, built by its own builder."""

    def __init__(self, root: fm.Formula, ap=None):
        fm.check_fragment(root, past=True)
        self.ap = resolve_alphabet(fm.atoms(root), ap)
        self.letters = tuple(letters_over(self.ap))
        self.states = StateSet()
        self.initial = self.states.add(root)
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

    def _ref(self, entry, move: int) -> PBF:
        f = entry.formula if isinstance(entry, Weak) else entry
        if isinstance(f, fm.TrueFormula):
            return True
        if isinstance(f, fm.FalseFormula):
            return False
        return MoveRef(self.states.add(entry), move)

    def _trans(self, entry, m) -> PBF:
        if isinstance(entry, Weak):
            return self._trans_weak(entry.formula, m)
        if m is BEGIN:
            return self._trans_begin(entry)
        return self._trans_main(entry, m)

    def _trans_weak(self, f: fm.Formula, m) -> PBF:
        if not _is_marker(m):
            return self._ref(f, _S)
        match f:
            case fm.TrueFormula():
                return True
            case fm.FalseFormula():
                return False
            case fm.Atom() | fm.Not(fm.Atom()):
                return True
            case fm.And(l, r):
                return pbf_and(self._ref(Weak(l), _S), self._ref(Weak(r), _S))
            case fm.Or(l, r):
                return pbf_or(self._ref(Weak(l), _S), self._ref(Weak(r), _S))
            case _:
                return self._ref(f, _S)

    def _trans_begin(self, f: fm.Formula) -> PBF:
        match f:
            case fm.TrueFormula() | fm.Box(_, _) | fm.WeakPrev(_) | fm.Trigger(_, _):
                return True
            case _:
                return False

    def _trans_main(self, f: fm.Formula, m) -> PBF:
        at_end = m is END
        match f:
            case fm.TrueFormula():
                return True
            case fm.FalseFormula():
                return False
            case fm.Atom(name):
                return False if at_end else (True if name in m else False)
            case fm.Not(fm.Atom(name)):
                return False if at_end else (False if name in m else True)
            case fm.And(l, r):
                return pbf_and(self._ref(l, _S), self._ref(r, _S))
            case fm.Or(l, r):
                return pbf_or(self._ref(l, _S), self._ref(r, _S))
            case fm.Prev(g):
                return pbf_and(self._ref(fm.STEP_POSSIBLE, _L), self._ref(g, _L))
            case fm.WeakPrev(g):
                return pbf_or(self._ref(fm.AT_MARKER, _L), self._ref(g, _L))
            case fm.Since(l, r):
                return pbf_or(
                    self._ref(r, _S),
                    pbf_and(self._ref(l, _S), self._ref(fm.Prev(f), _S)),
                )
            case fm.Trigger(l, r):
                return pbf_and(
                    self._ref(Weak(r), _S),
                    pbf_or(self._ref(Weak(l), _S), self._ref(fm.WeakPrev(f), _S)),
                )
            case fm.Diamond(p, g):
                return self._diamond(p, g, f, m)
            case fm.Box(_, _):
                return self._box(f, m, frozenset())
        raise UnsupportedOperatorError(f"cannot build transitions for {type(f).__name__}")

    def _diamond(self, p, g, node, m) -> PBF:
        match p:
            case fm.Step(guard):
                if _is_marker(m):
                    return False
                return self._ref(g, _R) if oracle.prop_sat(guard, m) else False
            case fm.Test(e):
                return pbf_and(self._ref(e, _S), self._ref(g, _S))
            case fm.Seq(q, r):
                return self._ref(fm.Diamond(q, fm.Diamond(r, g)), _S)
            case fm.Alt(q, r):
                return pbf_or(self._ref(fm.Diamond(q, g), _S), self._ref(fm.Diamond(r, g), _S))
            case fm.Star(q):
                return pbf_or(self._ref(g, _S), self._ref(fm.Diamond(q, node), _S))
        raise TypeError(f"not a path expression: {p!r}")

    def _box(self, b: fm.Box, m, expanding: frozenset) -> PBF:
        p, g = b.path, b.arg
        match p:
            case fm.Step(guard):
                if _is_marker(m):
                    return True
                return self._ref(Weak(g), _R) if oracle.prop_sat(guard, m) else True
            case fm.Test(e):
                return pbf_or(self._ref(Weak(fm.nnf_not(e)), _S), self._arrive(g, m, expanding))
            case fm.Seq(q, r):
                return self._box(fm.Box(q, fm.Box(r, g)), m, expanding)
            case fm.Alt(q, r):
                return pbf_and(self._box(fm.Box(q, g), m, expanding), self._box(fm.Box(r, g), m, expanding))
            case fm.Star(q):
                if b in expanding:
                    return True
                inner = expanding | {b}
                return pbf_and(self._arrive(g, m, inner), self._box(fm.Box(q, b), m, inner))
        raise TypeError(f"not a path expression: {p!r}")

    def _arrive(self, g: fm.Formula, m, expanding: frozenset) -> PBF:
        if g in expanding:
            return True
        if isinstance(g, fm.Box):
            return self._box(g, m, expanding)
        return self._ref(Weak(g), _S)


def _is_marker(m) -> bool:
    return m is BEGIN or m is END


def _letter_atoms(entry) -> set[str]:
    """The atoms a 2AFA transition at a letter reads: literals, step guards and every atom of a box."""
    match entry:
        case fm.Atom(name) | fm.Not(fm.Atom(name)):
            return {name}
        case fm.Diamond(fm.Step(guard), _):
            return fm.atoms(guard)
        case fm.Box():
            return fm.atoms(entry)
    return set()


def reads(f: fm.Formula) -> frozenset[str]:
    """The atoms the transition of a dynamic-core or past formula depends on at a letter.

    They are the atoms f tests at the current letter: its literals and the
    guards and tests its paths meet before their first step.  What lies
    behind a step is another state's business.  This bounds the AFA image,
    which inlines every S move, and so also the 2AFA transition, which
    reads no more than the image does.
    """
    match f:
        case fm.Atom(name) | fm.Not(fm.Atom(name)):
            return frozenset((name,))
        case fm.And(l, r) | fm.Or(l, r):
            return reads(l) | reads(r)
        case fm.Modal(p, g):
            now, stepless = _path_reads(p)
            return now | reads(g) if stepless else now
    return frozenset()


def _path_reads(p: fm.PathExpr) -> tuple[frozenset[str], bool]:
    """The atoms p reads before its first step, and whether p can be passed without one."""
    match p:
        case fm.Step(guard):
            return frozenset(fm.atoms(guard)), False
        case fm.Test(e):
            return reads(e), True
        case fm.Seq(q, r):
            (q_now, q_stepless), (r_now, r_stepless) = _path_reads(q), _path_reads(r)
            return (q_now | r_now if q_stepless else q_now), q_stepless and r_stepless
        case fm.Alt(q, r):
            (q_now, q_stepless), (r_now, r_stepless) = _path_reads(q), _path_reads(r)
            return q_now | r_now, q_stepless or r_stepless
        case fm.Star(q):
            return _path_reads(q)[0], True
    raise TypeError(f"not a path expression: {p!r}")
