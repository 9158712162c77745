import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from conftest import (
    alternation,
    eventually_chain,
    exhaustive_core_formulas,
    move_refs,
    random_core_formula,
    release_chain,
    until_chain,
)
import reference_fa as ref
from reference_fa import ReferenceTwoAFA, afa_image, end_values
from tracelogic import afa
from tracelogic import formula as fm
from tracelogic import oracle
from tracelogic.afa import (
    AFA,
    Weak,
    _holds,
    _submasks,
    minimal_sets,
    pbf_and,
    pbf_or,
)
from tracelogic.errors import AlphabetMismatchError, UnsupportedOperatorError
from tracelogic.fa import dealternate, nfa_accepts
from tracelogic.formula import nnf, to_dynamic_core
from tracelogic.parser import parse_formula, parse_trace
from tracelogic.trace import enumerate_traces, letters_over
from tracelogic.twafa import END, TwoAFA

AP = ("a", "b")
AND, OR = True, False  # the first member of an And or Or node (is_and, left, right)


def _core(src):
    return to_dynamic_core(nnf(parse_formula(src)))


def test_simplification():
    ref = 7
    assert pbf_and(True, ref) is ref and pbf_and(ref, True) is ref
    assert pbf_and(False, ref) is False
    assert pbf_or(False, ref) is ref and pbf_or(ref, False) is ref
    assert pbf_or(True, ref) is True


def test_minimal_sets_antichain():
    pbf = pbf_or(0, pbf_and(0, 1))
    assert minimal_sets(pbf) == (frozenset({0}),)
    pbf = pbf_and(pbf_or(0, 1), 2)
    assert minimal_sets(pbf) == (frozenset({0, 2}), frozenset({1, 2}))
    # Unfolded constant children give the minimal sets of the folded PBF.
    cases = (
        ((AND, False, 0), False),
        ((AND, 0, False), False),
        ((OR, True, 1), True),
        ((OR, 1, True), True),
        ((AND, True, (OR, False, 2)), 2),
        ((OR, (AND, False, 0), (AND, 1, (OR, True, 2))), 1),
        ((AND, (OR, True, 0), (OR, (AND, 1, False), False)), False),
        (
            (OR, (AND, (OR, 0, True), 1), (AND, True, 0)),
            pbf_or(1, 0),
        ),
    )
    for unfolded, folded in cases:
        assert minimal_sets(unfolded) == minimal_sets(folded), unfolded


def test_ordinals_zero_and_one_are_states_not_constants():
    """`True == 1` and `False == 0`, so the triple encoding must tell the ordinals 0 and 1 from the constants.

    Folding and every reader test the constants by identity: a node whose
    children are the states 1 and 0 is a node, whichever its connective.
    """
    conj = pbf_and(1, 0)
    assert conj == (True, 1, 0) and type(conj[1]) is int and type(conj[2]) is int
    assert minimal_sets(conj) == (frozenset({0, 1}),)
    disj = pbf_or(0, 1)
    assert disj.__class__ is tuple and disj is not True
    assert disj == (False, 0, 1) and type(disj[1]) is int and type(disj[2]) is int
    assert minimal_sets(disj) == (frozenset({0}), frozenset({1}))
    assert _holds((False, 1, 0), [False, True], 0) is True
    assert _holds((True, 1, 0), [False, True], 0) is False
    assert _holds((True, 1, 0), [True, True], 0) is True
    assert _holds((False, 1, 0), [False, False], 0) is False


_PARTLY_OVERLAPPING = (
    "<(a & !b)> c | <(b | c)> d",
    "(a U b) | (c R !a)",
    "(a U b) & (c R !a)",
    "G (a -> F (b & c)) | [(a | d)] (c & !b)",
    "<(a & b)*> c & [(b | !c)] (d | X a)",
    "(a | X (b & c)) & (!b | X (a & d)) | (c & [(d | a)] b)",
)


def test_class_tables_match_the_minimal_sets_of_each_image():
    """`class_table(q)` holds `minimal_sets(delta(q, letter))` at every letter's class, complete over its mask.

    The fixed formulas join tables whose masks overlap in part, and their
    `|` nodes meet a false left entry and two sides of which one subsumes
    the other; the exhaustive and random formulas cover the rest.
    """
    rng = random.Random(29)
    formulas = [_core(src) for src in _PARTLY_OVERLAPPING] + exhaustive_core_formulas(5)
    for _ in range(60):
        left, right = random_core_formula(rng, rng.randint(1, 7)), random_core_formula(rng, rng.randint(1, 7))
        formulas.append(rng.choice((fm.And, fm.Or))(left, fm.Diamond(fm.Step(fm.Atom("c")), right)))
    for f in formulas:
        automaton = AFA(f)
        for q in range(len(automaton)):
            mask, table = automaton.class_table(q)
            assert mask & ~automaton.code(automaton.reads[q]) == 0 and len(table) == 1 << mask.bit_count(), (f, q)
            for letter in letters_over(automaton.ap):
                sets = table[automaton.code(letter) & mask]
                expected = minimal_sets(automaton.delta(q, letter))
                assert (len(sets), set(sets)) == (len(expected), set(expected)), (f, q, letter)


def test_code_rejects_letters_outside_the_alphabet():
    automaton = AFA(_core("a U b"))
    assert automaton.code(frozenset({"a", "b"})) == 3
    for letter in (frozenset({"zz"}), frozenset({"a", "zz"})):
        with pytest.raises(AlphabetMismatchError) as error:
            automaton.code(letter)
        assert str(error.value) == f"letter {sorted(letter)} outside alphabet ['a', 'b']"


def test_atom_automaton():
    automaton = AFA(_core("a"))
    assert automaton.accepts(parse_trace("{a}")) is True
    assert automaton.accepts(parse_trace("{}")) is False
    assert automaton.accepts(parse_trace("eps")) is False


def test_box_star_rejects_late_failure():
    automaton = AFA(_core("[tt*] a"))
    assert automaton.accepts(parse_trace("{a};{}")) is False
    assert automaton.accepts(parse_trace("{a};{a}")) is True
    assert automaton.accepts(parse_trace("eps")) is True


def test_progress_free_star():
    automaton = AFA(_core("<(tt?)*> a"))
    for t in enumerate_traces(("a",), 3):
        expected = len(t) > 0 and "a" in t.letters[0]
        assert automaton.accepts(t) == expected


def test_a_weak_step_target_is_a_weak_state():
    """`[a] b` steps to b, which holds weakly but not outright at the end, so its target is `Weak(b)`.

    The weak state has b's guarded image and reads, and accepts at the end.
    """
    automaton = AFA(_core("[a] b"))
    assert [type(state) for state in automaton.states] == [fm.Box, Weak]
    assert automaton.states[1] == Weak(fm.Atom("b"))
    assert automaton.final == (True, True)
    assert automaton._node(fm.Atom("b")) == (automaton._guarded[1], automaton.reads[1])
    assert automaton._guarded[1] == AFA(_core("b"))._guarded[0]
    assert automaton.accepts(parse_trace("{a}")) is True
    assert automaton.accepts(parse_trace("{a};{}")) is False


def _subformulas(f) -> list:
    found, pending = [], [f]
    while pending:
        node = pending.pop()
        if isinstance(node, fm.Formula):
            found.append(node)
        pending.extend(fm.children(node))
    return found


def test_end_values_are_the_oracles_at_the_end_point():
    """The fold's (outright, weak) end values are the oracle's over the empty trace.

    Every subformula counts, test formulas inside paths included: all core
    formulas of size 5 or less and a seeded corpus of larger ones.
    """
    rng = random.Random(43)
    corpus = exhaustive_core_formulas(5) + [random_core_formula(rng, rng.randint(6, 14)) for _ in range(600)]
    for f in corpus:
        automaton = AFA(f)
        for g in _subformulas(f):
            assert automaton._end_values(g) == end_values(g), (f, g)


def test_delta_examples():
    automaton = AFA(_core("a"))
    assert automaton.delta(0, frozenset({"a"})) is True

    step = AFA(_core("<tt> a"))
    image = step.delta(0, frozenset())
    assert (type(image), image) == (int, step.states.index[parse_formula("a")])

    guarded = AFA(_core("<(tt?)*> a"))
    assert guarded.delta(0, frozenset()) is False


def test_finalval_examples():
    automaton = AFA(_core("<tt> a & [tt*] b"))
    values = dict(zip(automaton.states, automaton.final))
    assert values[_core("<tt> a & [tt*] b")] is False
    assert values[parse_formula("a")] is False
    assert values[parse_formula("[tt*] b")] is True


def test_accepts_step_examples():
    automaton = AFA(_core("<tt> tt"))
    assert automaton.accepts(parse_trace("{}")) is True
    assert automaton.accepts(parse_trace("eps")) is False


def test_rejects_unsupported_operators():
    with pytest.raises(UnsupportedOperatorError):
        AFA(parse_formula("Y a"))
    with pytest.raises(UnsupportedOperatorError):
        AFA(parse_formula("X[1,2) a"))
    with pytest.raises(UnsupportedOperatorError):
        AFA(parse_formula("F a"))  # sugar must be rewritten first


def test_alphabet_mismatch():
    automaton = AFA(_core("a"))
    with pytest.raises(AlphabetMismatchError):
        automaton.accepts(parse_trace("{c}"))
    for build in (AFA, TwoAFA):
        with pytest.raises(AlphabetMismatchError) as error:
            build(_core("a & b"), ap=("a",))
        assert (error.type, str(error.value)) == (AlphabetMismatchError, "alphabet ['a'] misses atoms ['b']"), build


def test_runs_name_the_first_letter_outside_the_alphabet():
    """AFA, 2AFA and NFA runs name the trace's first letter outside `ap`, for each rotation of five such letters.

    Each rotation starts with another letter, so no one order of a set of
    them can pass: each run must check the letters in trace order.
    """
    automaton = AFA(_core("a"))
    nfa = dealternate(automaton)
    runs = (automaton.accepts, TwoAFA(_core("a")).accepts, lambda t: nfa_accepts(nfa, t))
    outside = ["{c}", "{d}", "{a,e}", "{f}", "{c,d}"]
    for k in range(len(outside)):
        t = parse_trace(";".join(["{a}", "{}", *outside[k:], *outside[:k], "{a}"]))
        for run in runs:
            with pytest.raises(AlphabetMismatchError) as error:
                run(t)
            assert str(error.value) == f"letter {sorted(t.letters[2])} outside alphabet ['a']", (k, run)


def test_delta_rejects_letters_outside_the_alphabet():
    """`delta` at a letter outside `ap` raises, for a state that reads nothing too, before and after a memoised image."""
    automaton = AFA(_core("a U b"))
    for q in range(len(automaton)):
        for letter in (frozenset({"zzz"}), frozenset({"zzz", "a"})):
            with pytest.raises(AlphabetMismatchError) as error:
                automaton.delta(q, letter)
            assert str(error.value) == f"letter {sorted(letter)} outside alphabet ['a', 'b']"
        automaton.delta(q, frozenset({"a"}))
        with pytest.raises(AlphabetMismatchError):
            automaton.delta(q, frozenset({"a", "zzz"}))
    assert AFA(_core("X tt")).reads[0] == frozenset()
    with pytest.raises(AlphabetMismatchError):
        AFA(_core("X tt")).delta(0, frozenset({"zzz"}))


def test_positivity_of_images():
    def check(pbf):
        assert pbf is True or pbf is False or pbf.__class__ is int or pbf.__class__ is tuple
        if pbf.__class__ is tuple:
            assert len(pbf) == 3 and type(pbf[0]) is bool, pbf
            check(pbf[1])
            check(pbf[2])

    rng = random.Random(41)
    from tracelogic.trace import letters_over

    for _ in range(60):
        f = random_core_formula(rng, rng.randint(1, 9))
        automaton = AFA(f, AP)
        for q in range(len(automaton)):
            for letter in letters_over(AP):
                check(automaton.delta(q, letter))


def test_delta_is_reproducible():
    automaton = AFA(_core("<(a? ; tt)*> b"), AP)
    letter = frozenset({"a"})
    image = automaton.delta(0, letter)
    assert automaton.delta(0, letter) is image
    assert repr(AFA(_core("<(a? ; tt)*> b"), AP).delta(0, letter)) == repr(image)  # by repr, as True == 1


def test_linear_growth_for_nested_next():
    src = "a"
    for n in range(1, 11):
        src = f"X ({src})"
        automaton = AFA(_core(src))
        assert len(automaton) <= n + 2


def test_oracle_agreement_sampled():
    rng = random.Random(43)
    traces = list(enumerate_traces(AP, 3))
    for _ in range(100):
        f = random_core_formula(rng, rng.randint(1, 9))
        automaton = AFA(f, AP)
        for t in traces:
            assert automaton.accepts(t) == oracle.holds(f, t)


def test_reads_stops_at_steps():
    assert AFA(_core("X a")).reads[0] == frozenset()
    assert AFA(_core("F a")).reads[0] == {"a"}
    assert AFA(_core("a U X b")).reads[0] == {"a"}
    assert AFA(_core("<(a & !b)> c")).reads[0] == {"a", "b"}
    assert AFA(_core("[(tt ; c?)*] d")).reads[0] == {"d"}
    assert AFA(_core("<(a? + tt)*> (b | X c)")).reads[0] == {"a", "b"}


def test_image_depends_only_on_the_atoms_read():
    rng = random.Random(44)
    formulas = exhaustive_core_formulas(5) + [random_core_formula(rng, rng.randint(6, 12)) for _ in range(150)]
    for f in formulas:
        automaton = AFA(f, AP)
        for q, local in enumerate(automaton.reads):
            assert local <= set(AP)
            for letter in letters_over(AP):
                assert repr(automaton.delta(q, letter)) == repr(automaton.delta(q, letter & local)), (f, q, letter)


# Shapes the generators reach rarely: stars under boxes, tests inside stars,
# tests nested in tests, past operators inside paths and under stars, and
# step guards wider than one literal.
HAND_WRITTEN = (
    "[(a? ; tt)*] b",
    "[((a ; tt) + b?)*] (a | X b)",
    "[tt*] [(b? ; tt)*] a",
    "[(tt ; ([b*] a)?)*] c",
    "<(a? ; tt)*> b",
    "<((tt?) ; a?)*> b",
    "<(tt?)*> a",
    "[(b?)*] a",
    "<((<b?> a)? ; tt)> c",
    "[([a?] b)?] c",
    "<(<(<a?> b)?> c)?> d",
    "<((<(c? ; tt)*> a)? ; tt)*> [(b?)*] c",
    "[((a S Y b)? ; tt)*] c",
    "<((Y a)? ; tt)*> b",
    "[((a T b)? ; tt)] WY c",
    "[tt*] (a -> Y (b S c))",
    # Compound step guards, so that states read three to six atoms and a
    # guarded image keeps guard leaves and negated ones under stars.
    "<(a & !b)> c",
    "[(a | b & c)] d",
    "<((a & b)? ; (c | !d))*> e",
    "[((a | b) ; c?)*] d",
    "[((a & !c) + (b | d))*] (e | X a)",
    "<(a & !b & c)> [(d | !e)] f",
    "<((a | b) ; (c & !d))*> (e | X a)",
    "[(a | !b)] <((c & d) | e)> f & [tt*] <(a & (b | !c))> d",
)


def _reference_corpus() -> list:
    rng = random.Random(45)
    corpus = [_core(src) for src in HAND_WRITTEN]
    corpus += exhaustive_core_formulas(5)
    corpus += [random_core_formula(rng, rng.randint(1, 16)) for _ in range(900)]
    corpus += [random_core_formula(rng, rng.randint(1, 16), past=True) for _ in range(900)]
    return corpus


def _has_past(f) -> bool:
    try:
        fm.check_fragment(f)
    except UnsupportedOperatorError:
        return True
    return False


def _formula(state):
    """The formula an AFA state label builds from: a `Weak` state builds from its own formula."""
    return state.formula if isinstance(state, Weak) else state


def _state_refs(pbf):
    if pbf.__class__ is int:
        yield pbf
    elif pbf.__class__ is tuple:
        yield from _state_refs(pbf[1])
        yield from _state_refs(pbf[2])


def test_transitions_match_the_reference():
    """Both automata get from the shared builder what their own builders gave them.

    Every AFA image at every letter equals the one its former builder made
    from the full letter.  The 2AFA has the same states in the same order,
    the same transitions, and a readers table equal to one built from every
    transition.  Neither automaton has a `Weak(tt)` or `Weak(ff)` state:
    both fold a constant step target to a leaf before they would wrap it.
    A 2AFA state whose END build asks about no guard reads nothing and
    keeps its END transition object at the empty letter.
    """
    constant_weak = {Weak(fm.TRUE), Weak(fm.FALSE)}
    kinds = Counter()  # states by whether their END build asks about a guard, and whether they read atoms
    corpus = _reference_corpus()
    assert len(corpus) >= 2000
    assert sum(map(_has_past, corpus)) >= 400
    for f in corpus:
        ap = tuple(sorted(fm.atoms(f) | set(AP)))
        if not _has_past(f):
            automaton = AFA(f, ap)
            assert constant_weak.isdisjoint(automaton.states), f
            for q in range(len(automaton)):
                for letter in letters_over(ap):
                    image = automaton.delta(q, letter)
                    assert repr(image) == repr(afa_image(automaton, q, letter)), (f, q, letter)  # by repr, as True == 1
        two_way, reference = TwoAFA(f, ap), ReferenceTwoAFA(f, ap)
        assert two_way.states.states == reference.states.states, f
        assert constant_weak.isdisjoint(two_way.states), f
        assert all(two_way.delta(*key) == pbf for key, pbf in reference.transitions.items()), f
        readers = [{} for _ in reference.states]
        for (q, _), pbf in reference.transitions.items():
            for ref in move_refs(pbf):
                readers[ref.state][(q, ref.move)] = None
        assert two_way._readers == tuple(tuple(r) for r in readers), f
        for q, entry in enumerate(two_way.states):
            asked = []
            two_way._trans(entry, END, asked)
            if not asked:
                assert two_way.reads[q] == frozenset(), (f, q)
                assert two_way.transitions[(q, END)] is two_way.transitions[(q, frozenset())], (f, q)
            kinds[bool(asked), bool(two_way.reads[q])] += 1
    assert kinds.keys() == {(False, False), (True, False), (True, True)}, kinds


# Formulas that join a right side reading atoms below the left side's: a join
# that extended each left class by the atoms only the right side reads keyed
# 9 of their 17 AFA class tables out of first-letter order.
_OUT_OF_ORDER_JOINS = (
    "(a | X c) & (b | X d)",
    "G (a -> F b) & G (c -> F d)",
    "F a & F b & F c",
    "G !(a & b) & G !(c & d)",
    "a U (b & X c)",
)


def test_class_tables_are_keyed_in_first_letter_order():
    """Every class table lists its mask's classes as `_submasks(mask)` does, the order of their first letter.

    That holds for each AFA state's `class_table` and for each NFA state's
    `(masks[s], tables[s])`, over the reference corpus and conjunctions
    whose operands read interleaved atoms, so dealternation can add states
    in the table's own order.
    """
    tables = 0
    formulas = [_core(src) for src in _OUT_OF_ORDER_JOINS] + [f for f in _reference_corpus() if not _has_past(f)]
    for f in formulas:
        automaton = AFA(f, tuple(sorted(fm.atoms(f) | set(AP))))
        nfa = dealternate(automaton)
        pairs = [automaton.class_table(q) for q in range(len(automaton))] + list(zip(nfa.masks, nfa.tables))
        for mask, table in pairs:
            assert list(table) == _submasks(mask), (f, mask)
        tables += len(pairs)
    assert tables > 6_000, tables


def test_constants_are_bools_folded_out_of_every_node():
    """Every constant of a transition is `True` or `False` itself, and no And or Or node has one as a child.

    The automata test constants by identity (`is True`, `case False:`), so a
    constant that only compares equal to a bool, or one left under a node,
    would change what they build and run without failing an equality.  A
    state leaf is a plain `int` ordinal of one of the automaton's states (in
    a `MoveRef` for the 2AFA), and guard formulas are left open only in
    AFA guarded images, never in an image at a letter or a 2AFA transition.
    The walk covers every 2AFA transition, every AFA guarded image and every
    AFA image at a letter over its state's reads; the constants at letters
    are `oracle.prop_sat`'s answers, a `bool` for every guard shape.
    """
    seen = Counter()

    def walk(pbf, kinds: set, width: int):
        if pbf.__class__ is tuple:
            is_and, *children = pbf
            assert type(is_and) is bool and len(children) == 2, pbf
            for child in children:
                assert type(child) is not bool, pbf  # a constant child is folded away
                walk(child, kinds, width)
            kind = "nodes"
        elif isinstance(pbf, afa.MoveRef):
            assert type(pbf.move) is int and pbf.move in (-1, 0, 1), pbf
            assert type(pbf.state) is int and 0 <= pbf.state < width, pbf
            kind = "moves"
        elif isinstance(pbf, fm.Formula):
            kind = "guards"
        elif type(pbf) is int:
            assert 0 <= pbf < width, pbf
            kind = "states"
        else:
            assert type(pbf) is bool, pbf
            kind = pbf
        assert kind in kinds or type(kind) is bool, (kind, pbf)
        seen[kind] += 1

    for f in _reference_corpus():
        ap = tuple(sorted(fm.atoms(f) | set(AP)))
        if not _has_past(f):
            automaton = AFA(f, ap)
            for q, guarded in enumerate(automaton._guarded):
                walk(guarded, {"nodes", "states", "guards"}, len(automaton))
                for letter in letters_over(automaton.reads[q]):
                    walk(automaton.delta(q, letter), {"nodes", "states"}, len(automaton))
        two_way = TwoAFA(f, ap)
        for pbf in two_way.transitions.values():
            walk(pbf, {"nodes", "moves"}, len(two_way))
    assert seen[True] > 10_000 and seen[False] > 10_000 and seen["nodes"] > 8_000 and seen["moves"] > 15_000, seen
    assert seen["states"] > 1_000 and seen["guards"] > 2_500 and sum(seen.values()) > 60_000, seen
    a, b = fm.Atom("a"), fm.Atom("b")
    shapes = (a, fm.Not(a), fm.TRUE, fm.FALSE, fm.And(a, b), fm.Or(a, fm.Not(b)), fm.Implies(a, b))
    for guard in (*shapes, fm.Not(fm.And(a, fm.Or(fm.FALSE, fm.Implies(b, a))))):
        for letter in letters_over(("a", "b")):
            assert type(oracle.prop_sat(guard, letter)) is bool, (guard, letter)


def test_state_count_tracks_closure(monkeypatch):
    """The AFA's states are the closure of its root under the step targets its guarded images name.

    Every state ordinal an image names is one of the states.  Folding a
    constant into an image can drop a target's name (`[(!b)] a & ff` names
    `Weak(a)` and folds to false), so the builds are repeated with folding
    turned off: they give the same states, and each state but the root is
    then named by its ordinal in some state's guarded image.
    """
    formulas = [f for f in _reference_corpus() if not _has_past(f)]
    folded = []
    for f in formulas:
        automaton = AFA(f, tuple(sorted(fm.atoms(f) | set(AP))))
        named = {q for image in automaton._guarded for q in _state_refs(image)}
        assert named <= set(range(len(automaton))), f
        folded.append(automaton.states.states)
    monkeypatch.setattr(afa, "pbf_and", lambda left, right: (True, left, right))
    monkeypatch.setattr(afa, "pbf_or", lambda left, right: (False, left, right))
    for f, states in zip(formulas, folded):
        automaton = AFA(f, tuple(sorted(fm.atoms(f) | set(AP))))
        named = {q for image in automaton._guarded for q in _state_refs(image)}
        assert automaton.states.states == states, f
        assert named | {automaton.initial} == set(range(len(automaton))), f


def test_recorded_reads_match_the_reference():
    """Each AFA state reads the atoms the structural account of the former `afa.reads` gives."""
    checked = 0
    for f in _reference_corpus():
        if _has_past(f):
            continue
        automaton = AFA(f, tuple(sorted(fm.atoms(f) | set(AP))))
        assert automaton.reads == tuple(ref.reads(_formula(state)) for state in automaton.states), f
        checked += len(automaton)
    assert checked >= 2500


def test_builds_ask_about_the_same_guards_at_every_letter(guard_atoms):
    """Whatever the guards answer, every AFA image build and 2AFA letter transition asks about the same guard atoms.

    The 2AFA answers each guard at the letter, so each of its states is
    built at every letter.  The AFA leaves its guards open: its one guarded
    build per state never sees a letter, and its images at every letter
    must come from that build without asking about any guard again.  Each
    state is rebuilt through `_node` with the node memo emptied, so the
    rebuild asks about every guard of that state itself rather than taking
    shared nodes from an earlier state's build; it must give the same
    guarded image, and `AFA.reads`, recorded with that sharing, must name
    the atoms it asks about.
    """
    for f in _reference_corpus():
        ap = tuple(sorted(fm.atoms(f) | set(AP)))
        two_way = TwoAFA(f, ap)
        for entry in two_way.states:
            asked = set()
            for letter in letters_over(ap):
                guard_atoms.clear()
                two_way._trans(entry, letter)
                asked.add(frozenset(guard_atoms))
            assert len(asked) == 1, (f, entry)
        if _has_past(f):
            continue
        automaton = AFA(f, ap)
        for q, state in enumerate(automaton.states):
            automaton._nodes.clear()
            guard_atoms.clear()
            image, read = automaton._node(_formula(state))
            assert repr(image) == repr(automaton._guarded[q]) and read == automaton.reads[q], (f, q)
            assert guard_atoms == automaton.reads[q], (f, q)
            guard_atoms.clear()
            for letter in letters_over(ap):
                automaton.delta(q, letter)
            assert not guard_atoms, (f, q)


def _nested_tests(depth: int) -> str:
    """`<(a? ; (a? ; … (a? ; tt)))> c`, its path `depth` parentheses deep."""
    return "<(" + "(a? ; " * (depth - 1) + "a? ; tt" + ")" * (depth - 1) + ")> c"


def test_deep_path_nesting_compiles():
    """A 180-deep sequence of tests compiles to both alternating automata and runs on the AFA.

    The parser stops at about 195 levels; the builders may not stop first.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    formula = _nested_tests(180)
    for argv in (
        ["compile", "--to", "afa", "-f", formula],
        ["compile", "--to", "2afa", "-f", formula],
        ["accepts", "--backend", "afa", "-f", formula, "-t", "{a};{c}"],
    ):
        done = subprocess.run([sys.executable, "-m", "tracelogic.cli", *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, (argv[:3], done.stderr)


@pytest.fixture
def builds(monkeypatch) -> Counter:
    """A counter of the `afa.transition` calls per formula node."""
    made: Counter = Counter()
    build = afa.transition

    def counting(f, sat, ref):
        made[f] += 1
        return build(f, sat, ref)

    monkeypatch.setattr(afa, "transition", counting)
    return made


def test_each_state_gets_one_guarded_build(builds):
    """`F a0 & … & F a(k-1)`: each state is built once, not once per letter class.

    The root reads all k atoms and has 2^k classes; its guarded image is
    built once and specialised per class.  Its states are the root and the
    k targets `F ai`, all of which dealternation asks about, and each of
    its 4k - 1 formula nodes, the root among them, is built once.
    """
    for k in range(6, 11):
        builds.clear()
        root = _core(" & ".join(f"F a{i}" for i in range(k)))
        automaton = AFA(root)
        nfa = dealternate(automaton)
        asked = {q for members in nfa.states for q in members}
        assert len(asked) == len(automaton) == k + 1
        assert builds[root] == 1
        assert all(builds[state] == 1 for state in automaton.states)
        assert sum(builds.values()) == 4 * k - 1


def test_chain_images_take_linear_builder_calls(builds):
    """Every image of `<(a? ; (a? ; … tt))> c` at every letter: builder calls grow linearly with the depth.

    Each state's image shares the guarded image of the chain below it, so
    doubling the depth at most doubles the calls (allowing 2.2x); inlining
    the tail afresh for each state would quadruple them.
    """
    made = {}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))  # the counting wrapper adds a frame to each nested build
    try:
        for depth in (45, 90, 180):
            builds.clear()
            automaton = AFA(_core(_nested_tests(depth)))
            for q, local in enumerate(automaton.reads):
                for letter in letters_over(local):
                    automaton.delta(q, letter)
            made[depth] = sum(builds.values())
    finally:
        sys.setrecursionlimit(limit)
    assert made[90] <= 2.2 * made[45]
    assert made[180] <= 2.2 * made[90]


def test_chain_hashes_each_node_once(monkeypatch):
    """`AFA()` of the 180-deep `<(a? ; (a? ; … tt))> c` hashes the fields of each formula node at most once.

    A node keeps its hash, so the memo and state-set lookups that meet a
    node again do not rehash its subtree.  Every node that computes its
    hash is kept alive, so no two of them share an `id`.
    """
    root = _core(_nested_tests(180))
    computed, kept = Counter(), []
    fields = fm._fields

    def counting(node):
        computed[id(node)] += 1
        kept.append(node)
        return fields(node)

    monkeypatch.setattr(fm, "_fields", counting)
    AFA(root)
    assert len(computed) > 180
    assert max(computed.values()) == 1


def _node_classes(cls=fm._Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


@pytest.fixture
def node_eqs(monkeypatch) -> Counter:
    """A counter of the calls to the `__eq__` that `Value` gives every formula and path node class."""
    calls: Counter = Counter()
    for cls in set(_node_classes()):
        if "__eq__" in vars(cls):

            def counting(self, other, eq=vars(cls)["__eq__"]):
                calls["eq"] += 1
                return eq(self, other)

            monkeypatch.setattr(cls, "__eq__", counting)
    return calls


def test_deep_chains_compare_formulas_at_most_depth_squared_times(node_eqs):
    """Both automata of the depth-64 until, F and release chains compare formula nodes at most d^2 times (c = 1).

    Stars being unrolled or expanded are found by hash, and each node is
    built once per frame, so nodes are compared only where a lookup meets
    an equal node that is a distinct object.  The one-way builds compare
    none on the until and F chains and d(d - 1)/2 on the release chain; a
    scan of the stars being unrolled or expanded makes millions.
    """
    depth, counts = 64, {}
    for name, text in (("U", until_chain(depth)), ("F", eventually_chain(depth)), ("R", release_chain(depth))):
        root = _core(text)
        for build in (AFA, TwoAFA):
            node_eqs.clear()
            build(root)
            counts[name, build.__name__] = node_eqs["eq"]
    assert max(counts.values()) <= depth * depth, counts
    assert counts["U", "AFA"] == counts["F", "AFA"] == 0, counts


def test_alternations_under_a_star_take_linear_builder_calls(builds):
    """`<((a? + b?) ; … ; (a? + b?))* ; tt> c`: the AFA build makes at most 5n `transition` calls for n alternations.

    Within the star's unrolling each node is built once (4n + 5 calls);
    built afresh at each occurrence, the nodes after each alternation are
    built twice as often as those before it.
    """
    for n in (8, 12, 16):
        builds.clear()
        AFA(_core(alternation(n)))
        assert sum(builds.values()) <= 5 * n, (n, sum(builds.values()))
