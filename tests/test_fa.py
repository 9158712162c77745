import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fa as ref
from conftest import random_core_formula, relabelled, renamed
from tracelogic import fa, oracle
from tracelogic.afa import AFA
from tracelogic.cli import _size
from tracelogic.errors import AlphabetMismatchError, BudgetError, SizeLimitError
from tracelogic.fa import (
    DFA,
    build_dfa,
    complement,
    dealternate,
    determinize,
    dfa_accepts,
    enumerate_accepted,
    equivalent,
    is_empty,
    minimize,
    nfa_accepts,
)
from tracelogic.formula import FALSE, TRUE, And, Box, Diamond, Not, Or, Star, Step, atoms, nnf, to_dynamic_core
from tracelogic.parser import parse_formula, parse_trace
from tracelogic.trace import Trace, enumerate_traces, format_trace, letters_over

AP = ("a", "b")


def _afa(src, ap=None):
    return AFA(to_dynamic_core(nnf(parse_formula(src))), ap)


def test_dealternate_accepts():
    nfa = dealternate(_afa("a"))
    assert nfa_accepts(nfa, parse_trace("{a};{}")) is True
    assert nfa_accepts(nfa, parse_trace("{}")) is False
    assert nfa.states[0] == frozenset({0})


def test_dealternate_empty_set_state():
    nfa = dealternate(_afa("<tt> tt"))
    # after the step fires, the remaining obligation is empty and accepting
    t = parse_trace("{}")
    assert nfa_accepts(nfa, t) is True
    assert frozenset() in nfa.states
    empty_idx = nfa.states.index(frozenset())
    assert nfa.accepting[empty_idx]


def test_nfa_accepting_matches_final_values():
    automaton = _afa("[tt*] a & <tt> b")
    nfa = dealternate(automaton)
    for idx, members in enumerate(nfa.states):
        assert nfa.accepting[idx] == all(automaton.final[q] for q in members)


def test_determinize_keeps_deterministic_count():
    # dealternation of `tt` yields a complete deterministic NFA; the subset
    # construction then adds no states at all
    nfa = dealternate(_afa("tt"))
    assert all(len(ts) == 1 for table in nfa.tables for ts in table.values())
    dfa = determinize(nfa)
    assert dfa.n_states == len(nfa.states)
    # incomplete deterministic NFAs gain at most the rejecting sink
    nfa = dealternate(_afa("a"))
    assert all(len(ts) <= 1 for table in nfa.tables for ts in table.values())
    assert determinize(nfa).n_states <= len(nfa.states) + 1


def test_eventually_two_states():
    dfa = minimize(determinize(dealternate(_afa("F a"))))
    assert dfa.n_states == 2


def test_each_nfa_state_keeps_the_mask_of_its_joined_class_table():
    """An NFA state's mask is its members' class-table masks joined, not the atoms they read.

    Folding `<b> ff` to false leaves `a | <b> ff` reading b with a class
    table over a alone, so its NFA state has 2 classes, not 4.  Merged
    classes share their successors, so the size line is unchanged.
    """
    for src, folded, masks, classes, size in (
        ("a | <b> ff", 0, [1, 0], [2, 1], "states 2 transitions 6"),
        ("X (a | <b> ff) & X c", 1, [0, 5, 0], [1, 4, 1], "states 3 transitions 18"),
    ):
        automaton = _afa(src)
        nfa = dealternate(automaton)
        assert (automaton.code(automaton.reads[folded]), automaton.class_table(folded)[0]) == (3, 1), src
        assert (nfa.masks, [len(table) for table in nfa.tables], _size(nfa)) == (masks, classes, size), src
        for members, mask in zip(nfa.states, nfa.masks):  # a singleton's mask is its member's table's
            joined = 0
            for q in members:
                joined |= automaton.class_table(q)[0]
            assert mask == joined, src


def test_minimize_idempotent_and_examples():
    dfa = build_dfa(parse_formula("G a"))
    assert dfa.n_states == 2
    assert minimize(dfa) == dfa
    trivial = build_dfa(parse_formula("tt"))
    assert trivial.n_states == 1
    assert trivial.accepting == (True,)


def test_minimize_seed_independent():
    """Relabelled copies, whose states are refined in another order, minimize to the same DFA."""
    rng = random.Random(47)
    for _ in range(40):
        f = random_core_formula(rng, rng.randint(1, 9))
        dfa = determinize(dealternate(AFA(f, AP)))
        baseline = minimize(dfa)
        for seed in (0, 1, 99):
            assert minimize(relabelled(dfa, seed)) == baseline


def test_minimize_language_preserving():
    rng = random.Random(53)
    traces = list(enumerate_traces(AP, 3))
    for _ in range(40):
        f = random_core_formula(rng, rng.randint(1, 9))
        dfa = determinize(dealternate(AFA(f, AP)))
        small = minimize(dfa)
        assert small.n_states <= dfa.n_states
        for t in traces:
            assert dfa_accepts(small, t) == dfa_accepts(dfa, t)


def test_accept_examples():
    assert dfa_accepts(build_dfa(parse_formula("tt")), parse_trace("eps")) is True
    assert dfa_accepts(build_dfa(parse_formula("a")), parse_trace("{}")) is False


def test_equivalences():
    assert equivalent(parse_formula("F a"), parse_formula("<tt*> a")) == (True, None)
    assert equivalent(parse_formula("a U b"), parse_formula("<(a? ; tt)*> b")) == (True, None)
    same, cex = equivalent(parse_formula("X a"), parse_formula("WX a"))
    assert same is False
    assert cex == Trace(())


def test_equivalent_reflexive_symmetric():
    rng = random.Random(59)
    for _ in range(15):
        f = random_core_formula(rng, rng.randint(1, 8))
        g = random_core_formula(rng, rng.randint(1, 8))
        assert equivalent(f, f)[0] is True
        assert equivalent(f, g)[0] == equivalent(g, f)[0]


def test_is_empty():
    empty, witness = is_empty(build_dfa(parse_formula("ff")))
    assert empty is True and witness is None
    empty, witness = is_empty(build_dfa(parse_formula("a & !a")))
    assert empty is True
    empty, witness = is_empty(build_dfa(parse_formula("<tt> a")))
    assert empty is False
    assert len(witness) == 2
    assert oracle.holds(parse_formula("<tt> a"), witness)


def test_enumerate_accepted():
    dfa = build_dfa(parse_formula("a"), ("a",))
    accepted = [format_trace(t) for t in enumerate_accepted(dfa, 2)]
    assert accepted == ["{a}", "{a};{}", "{a};{a}"]
    assert list(enumerate_accepted(build_dfa(parse_formula("ff"), ("a",)), 3)) == []
    everything = [format_trace(t) for t in enumerate_accepted(build_dfa(parse_formula("tt"), ("a",)), 1)]
    assert everything == ["eps", "{}", "{a}"]


def test_enumerate_accepted_checks_the_bound_on_the_first_next():
    dfa = build_dfa(parse_formula("a"), ("a",))
    with pytest.raises(ValueError):
        next(enumerate_accepted(dfa, -1))
    wide = build_dfa(parse_formula("a"), ("a", "b", "c", "d"))
    walk = enumerate_accepted(wide, 12)  # a generator: nothing is checked before the first next()
    with pytest.raises(SizeLimitError):
        next(walk)


def _permuted_columns(dfa: DFA, seed: int) -> DFA:
    """The same automaton with its letter columns in a shuffled order."""
    order = list(range(len(dfa.letters)))
    random.Random(seed).shuffle(order)
    rows = tuple(tuple(row[a] for a in order) for row in dfa.transitions)
    return DFA(dfa.ap, tuple(dfa.letters[a] for a in order), rows, dfa.accepting, dfa.initial)


def test_enumeration_matches_the_reference():
    """The pruned walk yields the brute-force reference's traces in its order, for max_len 0-3."""
    seen = set()

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(CORE_FORMULAS, st.integers(0, 99))
    def check(f, seed):
        dfa = build_dfa(f)
        permuted = _permuted_columns(dfa, seed)
        for source in (dfa, complement(dfa), permuted, build_dfa(TRUE, dfa.ap), build_dfa(FALSE, dfa.ap)):
            for max_len in range(4):
                expected = list(ref.enumerate_accepted(source, max_len))
                assert list(enumerate_accepted(source, max_len)) == expected
                space = sum(2 ** (len(source.ap) * n) for n in range(max_len + 1))
                seen.add(("pruned", 0 < len(expected) < space))
        seen.add(("permuted", permuted.letters != dfa.letters))
        seen.add(("atoms", len(dfa.ap)))

    check()
    assert ("pruned", True) in seen
    assert ("permuted", True) in seen
    assert {("atoms", n) for n in range(5)} <= seen


def test_deep_enumeration_matches_the_reference():
    """As above for max_len 4-6 over at most two atoms, where the walk backs up to four letters from the last."""
    seen = set()

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(CORE_FORMULAS.filter(lambda f: len(atoms(f)) <= 2))
    def check(f):
        dfa = build_dfa(f)
        for source in (dfa, complement(dfa)):
            for max_len in range(4, 7):
                expected = list(ref.enumerate_accepted(source, max_len))
                assert list(enumerate_accepted(source, max_len)) == expected
                space = sum(2 ** (len(source.ap) * n) for n in range(max_len + 1))
                seen.add(("pruned", 0 < len(expected) < space))
        seen.add(("atoms", len(dfa.ap)))

    check()
    assert ("pruned", True) in seen
    assert {("atoms", 1), ("atoms", 2)} <= seen  # `test_enumeration_reaches_the_deepest_bound` walks the empty alphabet


def test_enumeration_of_words_that_end_at_an_exact_length():
    """`X X (a & !X X tt)` accepts only words of exactly three letters, the last holding a.

    Up to length 5 its DFA has states that accept only after an exact
    number of further letters, two and more letters deep, so a walk that
    enters successors accepting in one letter more than are left loses
    every word.
    """
    found = {}
    for ap in (("a",), ("a", "b")):
        dfa = build_dfa(parse_formula("X X (a & !X X tt)"), ap)
        found[ap] = list(enumerate_accepted(dfa, 5))
        assert found[ap] == list(ref.enumerate_accepted(dfa, 5)), ap
    assert [format_trace(t) for t in found["a",]] == ["{};{};{a}", "{};{a};{a}", "{a};{};{a}", "{a};{a};{a}"]
    assert len(found["a", "b"]) == 32


def test_enumeration_builds_only_accepted_traces(monkeypatch):
    """Every `Trace` built is yielded, one new object per word, and no word is rerun through `dfa_accepts`.

    Enumeration builds its traces through `trace.traces_of` alone; the
    counter takes each trace as the helper yields it, and `Trace` itself
    must not be called.
    """
    built = []
    helper = fa.traces_of

    def counting(words):
        for t in helper(words):
            built.append(t)
            yield t

    def refused(name):
        def call(*args):
            raise AssertionError(f"{name} called during enumeration")

        return call

    monkeypatch.setattr(fa, "traces_of", counting)
    monkeypatch.setattr(fa, "Trace", refused("Trace"))
    monkeypatch.setattr(fa, "dfa_accepts", refused("dfa_accepts"))
    yielded = []
    ap = ("a", "b", "c", "d")
    for src in ("G (a -> F b)", "a U (b | c)", "F a & G !(b & d)", "<(a? ; (b | c))*> d", "G (a -> WX !b)"):
        dfa = build_dfa(parse_formula(src), ap)
        for source in (dfa, complement(dfa)):
            yielded += enumerate_accepted(source, 3)
    assert len(built) == len(yielded) and all(a is b for a, b in zip(built, yielded))
    assert len({id(t) for t in yielded}) == len(yielded)  # all alive, so distinct ids are distinct objects
    # Each formula and its complement split the 4,369 words of length 3 or less over four atoms.
    assert len(yielded) == 5 * sum(16**n for n in range(4))


def test_complement_partitions():
    rng = random.Random(61)
    total = len(list(enumerate_traces(AP, 3)))
    for _ in range(20):
        f = random_core_formula(rng, rng.randint(1, 8))
        dfa = build_dfa(f, AP)
        kept = sum(1 for _ in enumerate_accepted(dfa, 3))
        dropped = sum(1 for _ in enumerate_accepted(complement(dfa), 3))
        assert kept + dropped == total


def test_budget_error():
    with pytest.raises(BudgetError):
        dealternate(_afa("[tt*] (a | <tt> b)"), max_states=1)
    with pytest.raises(BudgetError):
        determinize(dealternate(_afa("F a & F b")), max_states=1)


def test_budget_error_names_the_stage():
    with pytest.raises(BudgetError, match=r"^dealternation exceeded 1 states$"):
        dealternate(_afa("[tt*] (a | <tt> b)"), max_states=1)
    with pytest.raises(BudgetError, match=r"^determinization exceeded 1 states$"):
        determinize(dealternate(_afa("F a & F b")), max_states=1)


def test_budget_error_carries_its_fields():
    """The stage, the budget and the number of states made when the budget ran out."""
    with pytest.raises(BudgetError) as dealternation:
        dealternate(_afa("[tt*] (a | <tt> b)"), max_states=1)
    with pytest.raises(BudgetError) as determinization:
        determinize(dealternate(_afa("F a & F b")), max_states=3)
    fields = [(e.value.stage, e.value.limit, e.value.reached) for e in (dealternation, determinization)]
    assert fields == [("dealternation", 1, 2), ("determinization", 3, 4)]
    plain = BudgetError("no fields")
    assert (str(plain), plain.stage, plain.limit, plain.reached) == ("no fields", None, None, None)


def test_dealternation_successor_count_grows_as_three_to_the_k(monkeypatch):
    """`F a0 & … & F a(k-1)`: one class-table entry per NFA state and letter class, and 2·3^k - 4·2^k + 2 fold steps.

    The initial state reads all k atoms and a state owing i eventualities
    reads i of them, so the tables hold 2^k + 3^k entries.  A fold step is
    one lookup in a member's own class table: the first member's table is
    taken as it is, and the j-th member (j >= 2) of a state owing i
    eventualities, each reading one atom of its own, is read once per class
    of the joined mask, 2^j classes, which is 2^(i+1) - 4 steps for the
    state, 0 for i <= 1.  Summed over the subsets that is
    2·3^k - 4·2^k + 2, against the (2k/3)·3^k + 2^k member steps of a conjunction
    made per class.
    """
    steps = []
    join = fa._join

    class Counting(dict):
        def __getitem__(self, key):
            steps.append(None)
            return super().__getitem__(key)

    # only the fold's lookups in the member joined in count, not those in the table built so far
    monkeypatch.setattr(fa, "_join", lambda left, right, conj: join(left, (right[0], Counting(right[1])), conj))
    entries, folded = {}, {}
    for k in range(3, 9):
        steps.clear()
        f = parse_formula(" & ".join(f"F a{i}" for i in range(k)))
        nfa = dealternate(AFA(to_dynamic_core(nnf(f))))
        entries[k] = sum(len(table) for table in nfa.tables)
        folded[k] = len(steps)
        assert len(nfa.states) == 2**k + 1
        assert minimize(determinize(nfa)).n_states == 2**k
    assert entries == {k: 3**k + 2**k for k in range(3, 9)}
    assert list(entries.values()) == [35, 97, 275, 793, 2315, 6817]
    assert folded == {k: 2 * 3**k - 4 * 2**k + 2 for k in range(3, 9)}
    assert list(folded.values()) == [24, 100, 360, 1204, 3864, 12100]


def test_mutex_class_tables_evaluate_each_guard_leaf_once(monkeypatch):
    """`G !(a0 & a1) & … & G !(a(2k-2) & a(2k-1))`: dealternation makes exactly 4k guard evaluations.

    Clause i is the box star `[tt*] (!a(2i) | !a(2i+1))`, whose guarded
    image `(!a(2i) | !a(2i+1)) & q_i` has two guard leaves of one atom each,
    q_i being the clause's own state.  The root's image conjoins the k clause
    images, the very nodes the states q_i have, and a node is tabled once, so
    each of the 2k leaves is evaluated at the 2 letters over its atom: 4k
    calls.  Specialising each state's whole image once per class of its mask
    makes 2k·4^k + 8k (80 at k = 2, 49,200 at k = 6).
    """
    calls = []
    prop_sat = oracle.prop_sat

    def counting(guard, letter):
        calls.append(guard)  # the recursion into the guard's parts goes through this wrapper too
        return prop_sat(guard, letter)

    evaluations = {}
    for k in range(2, 7):
        automaton = _afa(" & ".join(f"G !(a{2 * i} & a{2 * i + 1})" for i in range(k)))
        monkeypatch.setattr(oracle, "prop_sat", counting)
        calls.clear()
        nfa = dealternate(automaton)
        monkeypatch.setattr(oracle, "prop_sat", prop_sat)
        evaluations[k] = sum(1 for guard in calls if isinstance(guard, Not))  # each leaf guard is a negated atom
        assert len(calls) == 2 * evaluations[k] and len(nfa.states) == 2
    assert evaluations == {k: 4 * k for k in range(2, 7)}


def test_dealternation_spells_no_letter(monkeypatch):
    """`G !(a0 & a1) & … & G !(a12 & a13)`: the NFA is built and sized with no letter spelled over its 14 atoms.

    Each NFA state keeps a class table over the atoms its members read, so
    dealternation and the size line need none of the 2^14 letters; the
    subset construction spells them for its rows.  An alphabet too wide to
    spell is refused before any class table is built.
    """

    def no_letters(ap):
        raise AssertionError(f"letters spelled over {len(ap)} atoms")

    automaton = _afa(" & ".join(f"G !(a{2 * i} & a{2 * i + 1})" for i in range(7)))
    monkeypatch.setattr(fa, "letters_over", no_letters)
    nfa = dealternate(automaton)
    assert _size(nfa) == "states 2 transitions 4374"
    with pytest.raises(AssertionError, match="^letters spelled over 14 atoms$"):
        determinize(nfa)
    monkeypatch.undo()
    assert _size(minimize(determinize(nfa))) == "states 2 transitions 32768"
    wide = _afa(" | ".join(f"a{i}" for i in range(17)))
    monkeypatch.setattr(AFA, "class_table", lambda self, q: no_letters(self.ap))
    with pytest.raises(SizeLimitError, match=r"^alphabet of 17 atoms has more than 2\^16 letters to spell out$") as error:
        dealternate(wide)
    assert (error.value.stage, error.value.limit, error.value.reached) == ("letters", 16, 17)


def test_determinization_union_count_grows_as_three_to_the_k(monkeypatch):
    """`F a0 & … & F a(k-1)`: one macro-state lookup per macro-state and letter class of its members."""
    stages = []
    counted = fa._add

    def counting(states, state, max_states, stage):
        stages.append(stage)
        return counted(states, state, max_states, stage)

    monkeypatch.setattr(fa, "_add", counting)
    made = {}
    for k in range(3, 9):
        f = parse_formula(" & ".join(f"F a{i}" for i in range(k)))
        nfa = dealternate(AFA(to_dynamic_core(nnf(f))))
        stages.clear()
        dfa = determinize(nfa)
        made[k] = stages.count("determinization")
        assert dfa.n_states == 2**k + 1
    # the macro-states are the NFA's singletons, so they have its classes
    assert made == {k: 3**k + 2**k for k in range(3, 9)}
    assert list(made.values()) == [35, 97, 275, 793, 2315, 6817]


# The conftest formulas, combined by and, or, X, F and G: on their own they
# rarely reach a letter with two successor sets.  Their atoms are a and b;
# conjoining one with a copy over c and d gives states that read only some
# of the atoms, so an NFA state has fewer letter classes than letters.
_STEP = Step(TRUE)
_TEMPORAL = (lambda g: Diamond(_STEP, g), lambda g: Diamond(Star(_STEP), g), lambda g: Box(Star(_STEP), g))
CORE_FORMULAS = st.recursive(
    st.randoms(use_true_random=False).map(lambda rng: random_core_formula(rng, rng.randint(1, 9))),
    lambda inner: st.one_of(
        st.builds(lambda op, l, r: op(l, r), st.sampled_from((And, Or)), inner, inner),
        st.builds(lambda op, g: op(g), st.sampled_from(_TEMPORAL), inner),
        st.builds(lambda l, r: And(l, renamed(r, {"a": "c", "b": "d"})), inner, inner),
    ),
    max_leaves=4,
)


def _has_universal_state(dfa: DFA) -> bool:
    """Whether some state accepts every trace, as the unreachable state 0 of `relabelled` does."""
    doomed = {s for s in range(dfa.n_states) if not dfa.accepting[s]}  # states that reach a rejecting one
    while True:
        grown = doomed | {s for s, row in enumerate(dfa.transitions) if doomed.intersection(row)}
        if grown == doomed:
            return len(doomed) < dfa.n_states
        doomed = grown


def test_explorations_match_the_reference():
    """Every construction gives the ordinals, automata and traces of `reference_fa`.

    `minimize` refines every state, reachable or not; `relabelled` adds an
    unreachable state that shares a block with a reachable one in some
    cases and has a block of its own in others.
    """
    seen = set()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(CORE_FORMULAS, CORE_FORMULAS, st.sets(st.sampled_from("abcde"), min_size=1), st.integers(0, 99))
    def check(f, g, extra, seed):
        automaton = AFA(f, sorted(atoms(f) | extra))
        nfa = dealternate(automaton)
        expected = ref.dealternate(automaton)
        letters = letters_over(nfa.ap)
        assert (nfa.ap, letters, nfa.states, nfa.accepting, nfa.initial) == (
            expected.ap, list(expected.letters), expected.states, expected.accepting, expected.initial,
        )
        assert all(nfa.successors(s, letter) == targets for (s, letter), targets in expected.transitions.items())
        for members in nfa.states:
            local = frozenset().union(*(automaton.reads[q] for q in members))
            seen.add(("classes", len({letter & local for letter in letters}) < len(letters)))
        dfa = determinize(nfa)
        assert dfa == ref.determinize(expected)
        for source in (dfa, relabelled(dfa, seed)):
            assert minimize(source) == ref.minimize(source)
            assert is_empty(source) == ref.is_empty(source)
        seen.add(("unreachable state shares a block", _has_universal_state(dfa)))
        verdict = equivalent(f, g)
        assert verdict == ref.equivalent(f, g)
        seen.add(("branching", any(len(targets) > 1 for table in nfa.tables for targets in table.values())))
        seen.add(("verdicts", is_empty(dfa)[0], verdict[0]))

    check()
    assert ("branching", True) in seen
    assert ("classes", True) in seen
    assert {("unreachable state shares a block", shares) for shares in (True, False)} <= seen
    assert {("verdicts", e, v) for e in (True, False) for v in (True, False)} <= seen


def _partly_overlapping(automaton: AFA, nfa) -> bool:
    """Whether some NFA state has a member, in the order they are folded, that reads atoms both read and unread before it."""
    for members in nfa.states:
        folded = 0
        for q in sorted(members):
            mask = automaton.code(automaton.reads[q])
            if mask & folded and mask & ~folded:
                return True
            folded |= mask
    return False


_OVERLAPPING_SOURCES = (
    "G (a -> F b) & G (b -> F c) & F (a & c)",
    "G (a -> F (b & c)) & G (c -> X (a | d))",
    "F (a & b) & F (b & c) & F (c & a)",
    "(a U b) & (b R c) & G (c -> F a)",
)
# A conftest formula over a and b conjoined with one over b and c: the two
# halves' states read partly overlapping atoms.
OVERLAPPING_FORMULAS = st.one_of(
    st.sampled_from([to_dynamic_core(nnf(parse_formula(src))) for src in _OVERLAPPING_SOURCES]),
    st.builds(lambda l, r: And(l, renamed(r, {"a": "b", "b": "c"})), CORE_FORMULAS, CORE_FORMULAS),
    CORE_FORMULAS,
)


def test_dealternation_of_partly_overlapping_members_matches_the_reference():
    """Members that read partly overlapping atoms extend a class by only the atoms they add.

    Over such conjunctions, with an atom more in `ap` than the formula reads,
    `dealternate` gives the reference's states and, at every letter, its
    successor ordinals in its order.
    """
    seen = set()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(OVERLAPPING_FORMULAS, st.sampled_from("cde"))
    def check(f, extra):
        automaton = AFA(f, sorted(atoms(f) | {extra}))
        nfa = dealternate(automaton)
        expected = ref.dealternate(automaton)
        letters = letters_over(nfa.ap)
        assert (nfa.ap, letters, nfa.states, nfa.accepting) == (
            expected.ap, list(expected.letters), expected.states, expected.accepting,
        )
        entries = [((s, a), nfa.successors(s, a)) for s in range(len(nfa.states)) for a in letters]
        assert entries == list(expected.transitions.items())
        seen.add(("partly overlapping", _partly_overlapping(automaton, nfa)))
        seen.add(("branching", any(len(targets) > 1 for table in nfa.tables for targets in table.values())))

    check()
    assert {("partly overlapping", True), ("partly overlapping", False), ("branching", True)} <= seen


def test_budget_errors_match_the_reference():
    """`F a0 & … & F a3` under every budget from 1 to 2^4 + 1, the first that both stages fit in.

    Each stage raises exactly when the reference does, with its message,
    and names the stage, the budget and the state count one past it.
    """
    f = parse_formula(" & ".join(f"F a{i}" for i in range(4)))
    automaton = AFA(to_dynamic_core(nnf(f)))
    nfa, reference_nfa = dealternate(automaton), ref.dealternate(automaton)
    raised = []
    for budget in range(1, 2**4 + 2):
        runs = (
            ("dealternation", dealternate, automaton, ref.dealternate, automaton),
            ("determinization", determinize, nfa, ref.determinize, reference_nfa),
        )
        for stage, ours, source, theirs, reference_source in runs:
            try:
                theirs(reference_source, max_states=budget)
            except BudgetError as expected:
                with pytest.raises(BudgetError) as error:
                    ours(source, max_states=budget)
                fields = (str(error.value), error.value.stage, error.value.limit, error.value.reached)
                assert fields == (str(expected), stage, budget, budget + 1)
                raised.append((stage, budget))
            else:
                ours(source, max_states=budget)
    assert raised == [(stage, budget) for budget in range(1, 2**4 + 1) for stage in ("dealternation", "determinization")]


def test_nfa_successors_list_the_reference_entries_in_order():
    """`successors` over the states, then the letters, gives the reference's per-letter dict items in its order.

    The `compile --to nfa` size line counts each class entry once per letter
    that projects onto it, which must give the per-letter count.
    """

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(CORE_FORMULAS, st.sets(st.sampled_from("abcde"), min_size=1))
    def check(f, extra):
        automaton = AFA(f, sorted(atoms(f) | extra))
        nfa = dealternate(automaton)
        reference = ref.dealternate(automaton)
        expected = reference.transitions
        letters = letters_over(nfa.ap)
        assert letters == list(reference.letters)
        entries = [((s, a), nfa.successors(s, a)) for s in range(len(nfa.states)) for a in letters]
        assert entries == list(expected.items())
        assert _size(nfa) == f"states {len(nfa.states)} transitions {sum(map(len, expected.values()))}"

    check()


def test_four_way_agreement_sampled():
    rng = random.Random(67)
    traces = list(enumerate_traces(AP, 3))
    for _ in range(60):
        f = random_core_formula(rng, rng.randint(1, 9))
        automaton = AFA(f, AP)
        nfa = dealternate(automaton)
        dfa = determinize(nfa)
        small = minimize(dfa)
        for t in traces:
            expected = oracle.holds(f, t)
            assert automaton.accepts(t) == expected
            assert nfa_accepts(nfa, t) == expected
            assert dfa_accepts(dfa, t) == expected
            assert dfa_accepts(small, t) == expected


def test_nfa_accepts_checks_every_letter():
    nfa = dealternate(_afa("a"))
    with pytest.raises(AlphabetMismatchError, match=r"^letter \['c'\] outside alphabet \['a'\]$"):
        nfa_accepts(nfa, parse_trace("{};{c}"))


def test_nfa_successors_name_the_letter_outside_the_alphabet():
    nfa = dealternate(_afa("F a", ("a", "b")))
    with pytest.raises(AlphabetMismatchError, match=r"^letter \['a', 'z'\] outside alphabet \['a', 'b'\]$"):
        nfa.successors(0, frozenset({"a", "z"}))


def test_dfa_accepts_names_the_letter_outside_its_alphabet():
    dfa = build_dfa(parse_formula("F a"), ("a", "b"))
    # Every letter before the last is in the alphabet, and the first of them already leads to acceptance.
    with pytest.raises(AlphabetMismatchError, match=r"^letter \['a', 'z'\] outside alphabet \['a', 'b'\]$"):
        dfa_accepts(dfa, parse_trace("{a};{b};{};{a,z}"))


@pytest.mark.parametrize(
    "query",
    [
        minimize,
        complement,
        is_empty,
        lambda dfa: list(enumerate_accepted(dfa, 2)),
        lambda dfa: dfa_accepts(dfa, parse_trace("{a}")),
    ],
    ids=["minimize", "complement", "is_empty", "enumerate_accepted", "dfa_accepts"],
)
def test_dfa_queries_name_their_parameter_when_given_an_nfa(query):
    """An `NFA` where a `DFA` is meant is a TypeError that names the parameter, not an AttributeError from inside."""
    nfa = dealternate(_afa("F a", AP))
    with pytest.raises(TypeError, match=r"^dfa must be a DFA, not NFA$"):
        query(nfa)
