"""The automaton constructions as they were before they shared one explorer.

These are the hand-written breadth-first explorations that `afa.closure`,
`fa.dealternate`, `fa.determinize`, `fa.minimize`, `fa.is_empty` and
`fa.equivalent` replaced with loops over a growing `StateSet`: each keeps
its own queue, index and budget check, and `minimize` renumbers the
reachable states and the quotient breadth-first.  `test_fa.py` requires
the current constructions to give the same ordinals, automata, witnesses
and counterexamples.  `build_dfa` and `_conjunction_successors` come
along because `equivalent` and `dealternate` call them.  The file name does
not match `test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

import random
from collections import deque

from tracelogic import formula as fm
from tracelogic.afa import AFA, StateSet, expansion, minimal_sets
from tracelogic.errors import BudgetError
from tracelogic.fa import DEFAULT_BUDGET, DFA, NFA
from tracelogic.trace import Trace, letters_over


def closure(f: fm.Formula) -> StateSet:
    """Smallest StateSet containing f and closed under expansion.

    Insertion order is the breadth-first, left-to-right discovery order,
    so ordinals are reproducible; the root always gets ordinal 0.
    """
    states = StateSet()
    states.add(f)
    queue = deque([f])
    while queue:
        g = queue.popleft()
        for h in expansion(g):
            if h not in states:
                states.add(h)
                queue.append(h)
    return states


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
