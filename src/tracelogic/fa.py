"""Dealternation, determinization, minimization, and language queries.

The NFA states are antichain-pruned sets of AFA states; the DFA comes from
the usual subset construction with an explicit rejecting sink so that its
transition function is total.  Minimization refines the partition of the
states and numbers the quotient breadth-first from the initial block, which
makes minimal automata canonical: two DFAs are isomorphic exactly when
their minimized forms are equal.

Dealternation and determinization work per letter class.  A letter is an
integer code (bit j set when the j-th atom of the sorted alphabet is in it).
An NFA state folds its members' class tables (`AFA.class_table`) in one at
a time with the join that builds them (`afa._join`), and keeps the mask of
the result, the atoms its successors depend on, with one table from class
code (`code & mask`) to successors, which `NFA.successors` reads at a
letter's class.  The first member's table is taken as it is, and each later
member costs one lookup in its table, one in the table built so far and at
most one product per class of the joined mask.  So an NFA state whose
members read k atoms costs at most 2^k steps per member rather than 2^|AP|,
and members that read one new atom each cost about 2^(k+1) in all.  Every
class table lists its mask's classes in `afa._submasks` order, the order of
their first letter, as the join walks them.  A macro-state of the subset
construction costs one union per class of its members' masks, and a
singleton `{m}` takes the entries of `tables[m]` with no union.
Dealternation spells no letter; only the DFA keeps an entry for every
letter, filled by one AND and one lookup per letter; minimization spells
each row's blocks, and numbers its quotient, in C-level loops over the row.

Bounded enumeration hands the DFA rows, as `(letter, successor)` pairs, to
`trace.accepted_words`, which walks them depth-first by length and enters
only successors that can still accept in the letters left.  So it builds no
rejected trace and reruns no word from the initial state:
O(max_len * states * letters) for the table, then O(length) per trace.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from . import formula as fm
from .afa import AFA, StateSet, _join, _set_order, _submasks
from .errors import BudgetError
from .trace import (
    Trace, accepted_words, check_enumeration_bound, check_letters, check_spellable, letters_over, outside_alphabet,
    traces_of,
)

DEFAULT_BUDGET = 2**20


class NFA(fm.Value):
    """Nondeterministic automaton whose states are sets of AFA ordinals.

    State s maps the class `code & masks[s]` of each letter's code (the mask
    of its members' joined class table) to its successor indices in
    `tables[s]`, keyed in the order of their first letter.  No letter is
    stored; the first `successors` call spells the codes of all of them.
    It holds lists, so it stays mutable and unhashable.
    """

    __match_args__ = ("ap", "states", "masks", "tables", "accepting", "initial")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, ap: tuple[str, ...], states: list[frozenset], masks: list[int], tables: list[dict],
                 accepting: tuple[bool, ...], initial: int = 0):
        self.ap = ap
        self.states = states  # sets of AFA ordinals
        self.masks = masks
        self.tables = tables
        self.accepting = accepting
        self.initial = initial

    @cached_property
    def _code(self) -> dict:
        return dict(zip(letters_over(self.ap), _submasks((1 << len(self.ap)) - 1)))

    def successors(self, s: int, letter) -> tuple[int, ...]:
        """The successor indices of state `s` at `letter`; AlphabetMismatchError for a letter outside `ap`."""
        try:
            code = self._code[letter]
        except KeyError:
            raise outside_alphabet(letter, self.ap) from None
        return self.tables[s][code & self.masks[s]]


class DFA(fm.Value):
    __match_args__ = ("ap", "letters", "transitions", "accepting", "initial")

    def __init__(self, ap: tuple[str, ...], letters: tuple[frozenset, ...], transitions: tuple[tuple[int, ...], ...],
                 accepting: tuple[bool, ...], initial: int = 0):
        object.__setattr__(self, "ap", ap)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "transitions", transitions)  # [state][letter index]
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "initial", initial)

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @cached_property
    def _columns(self) -> dict:
        return {letter: a for a, letter in enumerate(self.letters)}


def _add(states: StateSet, state, max_states: int, stage: str) -> int:
    """The ordinal of `state`, added to `states` if new; BudgetError past `max_states` states."""
    ordinal = states.add(state)
    if ordinal >= max_states:  # only a new state gets an ordinal this high
        raise BudgetError(f"{stage} exceeded {max_states} states", stage=stage, limit=max_states, reached=len(states))
    return ordinal


def dealternate(automaton: AFA, max_states: int = DEFAULT_BUDGET) -> NFA:
    """Language-preserving conversion of an AFA into an NFA over state sets.

    `_join` conjoins an NFA state's members' class tables; the state keeps
    the mask of that table and stores its successors once per class, in the
    table's order, the order of their first letter in `letters_over`, so new
    states are added as a loop over every letter would add them.  It spells
    no letter, but first refuses an alphabet too wide for the DFA to spell.
    """
    check_spellable(automaton.ap)
    class_table = automaton.class_table
    states = StateSet()
    states.add(frozenset((automaton.initial,)))
    masks: list[int] = []
    tables: list[dict] = []
    for members in states:
        mask, conj = 0, {0: (frozenset(),)}  # the empty conjunction, while no member is folded in
        for i, q in enumerate(sorted(members)):
            mask, conj = _join((mask, conj), class_table(q), True) if i else class_table(q)
        table = {}
        for key, successors in conj.items():
            if not successors:  # a false class: no successor, and no list to build for it
                table[key] = ()
                continue
            if len(successors) > 1:
                successors = sorted(successors, key=_set_order)
            table[key] = tuple([_add(states, succ, max_states, "dealternation") for succ in successors])
        masks.append(mask)
        tables.append(table)
    accepting = tuple(all(automaton.final[q] for q in s) for s in states)
    return NFA(automaton.ap, states.states, masks, tables, accepting)


def nfa_accepts(nfa: NFA, t: Trace) -> bool:
    check_letters(t, nfa.ap)
    current = {nfa.initial}
    for letter in t.letters:
        current = {t2 for s in current for t2 in nfa.successors(s, letter)}
        if not current:
            return False
    return any(nfa.accepting[s] for s in current)


def determinize(nfa: NFA, max_states: int = DEFAULT_BUDGET) -> DFA:
    """Subset construction over the class tables of `dealternate`; the empty macro-state is the rejecting sink.

    A macro-state's letters fall into classes by the union of its members'
    masks; each class costs one union, taken in `_submasks` order, and
    each letter's entry in the row one AND and one lookup.  A singleton
    `{m}` has the classes of `tables[m]`, already in first-letter order, so
    it takes each entry as its macro-state with no union.
    """
    letters = tuple(letters_over(nfa.ap))
    codes, masks, tables = _submasks((1 << len(nfa.ap)) - 1), nfa.masks, nfa.tables
    macro_states = StateSet()
    macro_states.add(frozenset((nfa.initial,)))
    rows = []
    for members in macro_states:
        if len(members) == 1:
            (m,) = members
            mask = masks[m]
            targets = {
                key: _add(macro_states, frozenset(successors), max_states, "determinization")
                for key, successors in tables[m].items()
            }
        else:
            mask = 0
            for m in members:
                mask |= masks[m]
            targets = {}
            for key in _submasks(mask):
                union = frozenset(t for m in members for t in tables[m][key & masks[m]])
                targets[key] = _add(macro_states, union, max_states, "determinization")
        rows.append(tuple([targets[code & mask] for code in codes]))
    accepting = tuple(any(nfa.accepting[m] for m in s) for s in macro_states)
    return DFA(nfa.ap, letters, tuple(rows), accepting)


def dfa_accepts(dfa: DFA, t: Trace) -> bool:
    """Whether `dfa` accepts `t`; AlphabetMismatchError names the first letter outside `dfa.ap`.

    The column table and the rows are fetched once, so a letter costs one dict and two tuple lookups.
    """
    columns = dfa._columns
    transitions = dfa.transitions
    state = dfa.initial
    try:
        for letter in t.letters:
            state = transitions[state][columns[letter]]
    except KeyError as missing:
        raise outside_alphabet(missing.args[0], dfa.ap) from None
    return dfa.accepting[state]


def minimize(dfa: DFA) -> DFA:
    """Unique minimal DFA for the same language.

    The states are refined into blocks until stable; the quotient is then
    numbered breadth-first from the initial block, which makes the result
    independent of the order the states are refined in.  No reachability
    pass is needed: a block with no reachable member is never numbered, and
    an unreachable member of a numbered block agrees with the others on
    every successor block.
    """
    transitions = dfa.transitions
    block = [1 if accepting else 0 for accepting in dfa.accepting]
    count = len(set(block))
    while True:
        signatures: dict = {}
        spell = block.__getitem__
        new_block = [
            signatures.setdefault((b, tuple(map(spell, row))), len(signatures)) for b, row in zip(block, transitions)
        ]
        if len(signatures) == count:
            break
        block, count = new_block, len(signatures)
    # The partition is stable, so each block has one signature: its row of successor blocks.
    block_rows = {b: row for b, row in signatures}
    blocks = StateSet()
    blocks.add(block[dfa.initial])
    rows = []
    for b in blocks:
        row = block_rows[b]
        for target in dict.fromkeys(row):  # numbered in first-occurrence order, as one `add` per entry would
            blocks.add(target)
        rows.append(tuple(map(blocks.index.__getitem__, row)))
    representative = {b: s for s, b in enumerate(block)}  # any member: a block's members agree on acceptance
    accepting = tuple(dfa.accepting[representative[b]] for b in blocks)
    return DFA(dfa.ap, dfa.letters, tuple(rows), accepting)


def complement(dfa: DFA) -> DFA:
    """Accept exactly the rejected traces; the transition function is already total."""
    return DFA(dfa.ap, dfa.letters, dfa.transitions, tuple(not a for a in dfa.accepting), dfa.initial)


def build_dfa(f: fm.Formula, ap=None) -> DFA:
    """Full pipeline: normalize, translate, dealternate, determinize, minimize."""
    core = fm.to_dynamic_core(fm.nnf(f))
    return minimize(determinize(dealternate(AFA(core, ap))))


def _shortest_trace(letters, start, successors, goal):
    """(True, None) when no node reachable from `start` meets `goal`, else (False, a shortest trace to one).

    `successors(node)` gives the node's successors in the order of `letters`.
    Each node found keeps its parent and the letter read, to spell the trace back.
    """
    nodes = StateSet()
    nodes.add(start)
    parent: list = [None]
    for i, node in enumerate(nodes):
        if goal(node):
            path = []
            while parent[i] is not None:
                i, letter = parent[i]
                path.append(letter)
            return False, Trace(tuple(reversed(path)))
        for letter, succ in zip(letters, successors(node)):
            if succ not in nodes:
                nodes.add(succ)
                parent.append((i, letter))
    return True, None


def equivalent(f: fm.Formula, g: fm.Formula):
    """(True, None) if the languages agree, else (False, shortest distinguishing trace)."""
    ap = sorted(fm.atoms(f) | fm.atoms(g))
    left = build_dfa(f, ap)
    right = build_dfa(g, ap)
    if left == right:
        return True, None
    return _shortest_trace(
        left.letters,
        (left.initial, right.initial),
        lambda pair: zip(left.transitions[pair[0]], right.transitions[pair[1]]),
        lambda pair: left.accepting[pair[0]] != right.accepting[pair[1]],
    )


def is_empty(dfa: DFA):
    """(True, None) when no trace is accepted, else (False, a shortest witness)."""
    return _shortest_trace(dfa.letters, dfa.initial, dfa.transitions.__getitem__, dfa.accepting.__getitem__)


def enumerate_accepted(dfa: DFA, max_len: int) -> Iterator[Trace]:
    """Accepted traces of length <= max_len, shortest first, then in product order over `letters_over`.

    Each DFA row becomes its `(letter, successor)` pairs in that order, and
    `trace.accepted_words` walks only successors that accept in the letters
    left, so only accepted words become `Trace`s, each built by
    `trace.traces_of` with no `__init__` frame.  The table costs
    O(max_len * states * letters), then each trace O(length).  A generator:
    the bound is checked on the first `next`.
    """
    check_enumeration_bound(dfa.ap, max_len)
    columns = [(letter, dfa._columns[letter]) for letter in letters_over(dfa.ap)]
    table = [tuple([(letter, row[a]) for letter, a in columns]) for row in dfa.transitions]
    yield from traces_of(accepted_words(table, dfa.accepting, dfa.initial, range(max_len + 1)))
