import random

import pytest

from conftest import move_refs, random_core_formula, random_trace, renamed
from tracelogic import afa, oracle, twafa
from tracelogic.afa import AFA, AndNode, OrNode, _L, _R
from tracelogic.errors import AlphabetMismatchError, UnsupportedOperatorError
from tracelogic.formula import And, nnf, to_dynamic_core
from tracelogic.parser import parse_formula, parse_trace
from tracelogic.trace import Trace, enumerate_traces, letters_over
from tracelogic.twafa import BEGIN, END, MoveRef, TwoAFA

AP = ("a", "b")


def moves_in(pbf) -> set:
    """All head moves a transition formula can emit."""
    return {ref.move for ref in move_refs(pbf)}


def marked_at(t: Trace, pos: int):
    """The cell at a position of the marker-framed trace."""
    if pos < 0:
        return BEGIN
    if pos >= len(t):
        return END
    return t.letters[pos]


def _two(src, ap=None):
    return TwoAFA(to_dynamic_core(nnf(parse_formula(src))), ap)


def test_prev_fails_at_first_position():
    automaton = _two("Y a")
    for t in enumerate_traces(("a",), 2):
        assert automaton.accepts(t) is False
    automaton = _two("Y tt", ("a",))
    for t in enumerate_traces(("a",), 2):
        assert automaton.accepts(t) is False


def test_past_inside_future():
    automaton = _two("F (b & Y a)", AP)
    assert automaton.accepts(parse_trace("{a};{b}")) is True
    assert automaton.accepts(parse_trace("{b};{a}")) is False


@pytest.mark.parametrize("src", ["WX (a & Y b)", "[tt ; tt*] (a & Y b)"])
def test_weak_end_value_of_a_past_formula_reads_the_last_letter(src):
    """Past the last letter, a box's `a & Y b` holds weakly exactly when that letter has b.

    The AFA decides its weak states from the empty trace, where `Y b` is
    false, so it would keep the plain state, which is false at the end: a
    weak state chosen that way would reject both formulas on `{b}`.
    """
    f = to_dynamic_core(nnf(parse_formula(src)))
    for trace, verdict in (("{b}", True), ("{a}", False)):
        t = parse_trace(trace)
        assert oracle.holds(f, t) is verdict, trace
        assert TwoAFA(f).accepts(t) is verdict, trace


def test_progress_free_star_everywhere_false():
    automaton = _two("<(tt?)*> ff")
    for t in enumerate_traces((), 3):
        assert automaton.accepts(t) is False


def test_empty_trace_truth():
    assert _two("tt").accepts(parse_trace("eps")) is True
    assert _two("WY a").accepts(parse_trace("eps")) is True
    assert _two("[tt*] a").accepts(parse_trace("eps")) is True


def test_delta_rejects_letters_outside_the_alphabet():
    """`delta` at a letter outside `ap` raises for every state, one that reads nothing too; the markers pass."""
    automaton = _two("a U Y b")
    assert frozenset() in automaton.reads
    for q in range(len(automaton)):
        for letter in (frozenset({"zzz"}), frozenset({"zzz", "a"})):
            with pytest.raises(AlphabetMismatchError) as error:
                automaton.delta(q, letter)
            assert str(error.value) == f"letter {sorted(letter)} outside alphabet ['a', 'b']"
        assert automaton.delta(q, BEGIN) is automaton.transitions[(q, BEGIN)]
        assert automaton.delta(q, END) is automaton.transitions[(q, END)]
    with pytest.raises(AlphabetMismatchError):
        automaton.fixpoint(parse_trace("{a};{zzz}"))


def test_metric_rejected():
    with pytest.raises(UnsupportedOperatorError):
        TwoAFA(parse_formula("X[1,2) a"))


def test_sugar_rejected():
    with pytest.raises(UnsupportedOperatorError):
        TwoAFA(parse_formula("F a"))


def test_move_audit():
    rng = random.Random(71)
    for _ in range(60):
        f = random_core_formula(rng, rng.randint(1, 9), past=True)
        automaton = TwoAFA(f, AP)
        for (q, marked), pbf in automaton.transitions.items():
            moves = moves_in(pbf)
            if marked is BEGIN:
                assert _L not in moves
                assert _R not in moves  # begin transitions are plain leaves
            if marked is END:
                assert _R not in moves


def _sweep_fixpoint(automaton, t):
    """Replica of the sweep-until-stable fixpoint, counting sweeps against their bound."""
    n = len(automaton.states)
    positions = range(-1, len(t) + 1)
    bound = n * (len(t) + 2) + 1
    sweeps = 0
    state = {(q, pos): False for q in range(n) for pos in positions}
    changed = True
    while changed:
        sweeps += 1
        assert sweeps <= bound
        changed = False
        for q in range(n):
            for pos in positions:
                if state[(q, pos)]:
                    continue
                def ev(pbf, pos=pos):
                    match pbf:
                        case True:
                            return True
                        case False:
                            return False
                        case MoveRef():
                            target = pos + pbf.move
                            return -1 <= target <= len(t) and state[(pbf.state, target)]
                        case AndNode(l, r):
                            return ev(l) and ev(r)
                        case OrNode(l, r):
                            return ev(l) or ev(r)

                if ev(automaton.delta(q, marked_at(t, pos))):
                    state[(q, pos)] = True
                    changed = True
    return state


def test_fixpoint_iteration_bound():
    rng = random.Random(73)
    for _ in range(20):
        f = random_core_formula(rng, rng.randint(1, 8), past=True)
        automaton = TwoAFA(f, AP)
        for t in enumerate_traces(AP, 2):
            assignment = automaton.fixpoint(t)
            # convergence is implied by fixpoint() returning; check the bound
            # by re-running the sweep with an explicit counter
            state = _sweep_fixpoint(automaton, t)
            assert state == assignment


def test_fixpoint_matches_sweep_on_long_traces():
    rng = random.Random(89)
    for k in range(30):
        f = random_core_formula(rng, rng.randint(6, 14), past=True)
        automaton = TwoAFA(f, AP)
        t = random_trace(rng, 200, min_len=20)
        if k % 3:
            # long runs make information travel the whole trace
            run = (frozenset({"a"}),) * (len(t) - 1)
            t = Trace(run + (frozenset({"b"}),) if k % 3 == 1 else (frozenset({"b"}),) + run)
        assert automaton.fixpoint(t) == _sweep_fixpoint(automaton, t)


def test_matches_afa_on_future_fragment():
    rng = random.Random(79)
    traces = list(enumerate_traces(AP, 3))
    for _ in range(60):
        f = random_core_formula(rng, rng.randint(1, 9), past=False)
        one_way = AFA(f, AP)
        two_way = TwoAFA(f, AP)
        for t in traces:
            assert two_way.accepts(t) == one_way.accepts(t)


def test_matches_oracle_with_past():
    rng = random.Random(83)
    traces = list(enumerate_traces(AP, 3))
    for _ in range(80):
        f = random_core_formula(rng, rng.randint(1, 9), past=True)
        automaton = TwoAFA(f, AP)
        for t in traces:
            assert automaton.accepts(t) == oracle.holds(f, t)


def test_since_trigger_examples():
    since = _two("a S b", AP)
    assert since.accepts(parse_trace("{b}")) is True
    assert since.accepts(parse_trace("{a}")) is False
    trigger = _two("a T b", AP)
    assert trigger.accepts(parse_trace("{b}")) is True
    assert trigger.accepts(parse_trace("{}")) is False
    assert trigger.accepts(parse_trace("eps")) is True


def test_letter_classes_match_direct_transitions():
    """Each letter's transition, built once per class, equals the one built for that letter alone."""
    rng = random.Random(97)
    for k in range(40):
        left = random_core_formula(rng, rng.randint(3, 10), past=True)
        right = renamed(random_core_formula(rng, rng.randint(3, 10), past=True), {"a": "c", "b": "d"})
        ap = ("a", "b", "c", "d", "e", "f")[: 5 + k % 2]
        automaton = TwoAFA(And(left, right), ap)
        width = len(automaton)
        assert len(automaton.transitions) == sum(2 + 2 ** len(r) for r in automaton.reads)
        for (q, m), pbf in automaton.transitions.items():
            assert pbf == automaton._trans(automaton.states[q], m)
        for q, entry in enumerate(automaton.states):
            for m in (BEGIN, END, *letters_over(ap)):
                assert automaton.delta(q, m) == automaton._trans(entry, m)
        assert len(automaton) == width


def test_entries_that_test_no_guard_are_built_once_per_cell(monkeypatch):
    """An `Or` entry tests no guard, so its transition is built once, at the end marker, and serves every letter."""
    root = to_dynamic_core(nnf(parse_formula("(a & b & c & d & e & f) | X (Y a)")))
    built = []
    build = twafa.transition

    def counting(f, sat, ref):
        built.append(f)
        return build(f, sat, ref)

    monkeypatch.setattr(twafa, "transition", counting)
    TwoAFA(root)
    assert built.count(root) == 1
    assert len(built) == 29


_LONG_TRACES = (
    random_trace(random.Random(101), 200, min_len=200),
    Trace((frozenset({"a"}),) * 200),
    Trace(tuple(frozenset({"b"} if i % 2 else {"a", "b"}) for i in range(200))),
)


@pytest.mark.parametrize(
    "src, future",
    [
        ("Y a", False),
        ("WY a", False),
        ("Y Y a", False),
        ("a S b", False),
        ("a T b", False),
        ("G (a -> Y b)", False),
        ("X a", True),
        ("WX a", True),
        ("<tt> tt", True),
        ("[tt] a", True),
    ],
)
def test_looking_past_the_tape_ends(src, future):
    """Formulas that look past either end of the trace: the rows that pad the tape never read as true."""
    f = to_dynamic_core(nnf(parse_formula(src)))
    automaton = TwoAFA(f, AP)
    one_way = AFA(f, AP) if future else None
    for t in (*enumerate_traces(AP, 3), *_LONG_TRACES):
        assert automaton.fixpoint(t) == _sweep_fixpoint(automaton, t), (src, t)
        assert automaton.accepts(t) == oracle.holds(f, t), (src, t)
        if future:
            assert one_way.accepts(t) == oracle.holds(f, t), (src, t)


def _recorded_compiles(monkeypatch, module) -> list:
    """Patch `module._compile` to record each PBF it is called on; returns the record."""
    compiled = []
    compile_ = module._compile

    def recording(pbf, *width):
        compiled.append(pbf)
        return compile_(pbf, *width)

    monkeypatch.setattr(module, "_compile", recording)
    return compiled


def test_transitions_are_compiled_once_per_object(monkeypatch):
    """Classes share transition objects; each object is compiled once, when the automaton is built."""
    compiled = _recorded_compiles(monkeypatch, twafa)
    automaton = _two("G (p & q & r & s -> F (t & u))")
    assert len(automaton.transitions) == 78
    assert len(compiled) == len({id(pbf) for pbf in automaton.transitions.values()}) == 31
    assert automaton.accepts(parse_trace("{p,q,r,s};{t};{t,u};{}")) is True
    assert automaton.accepts(parse_trace("{p,q,r,s};{}")) is False
    assert len(compiled) == 31


def test_afa_images_are_compiled_once_per_class(monkeypatch):
    """A run compiles each image it reads once per class; a second run on the same letters compiles nothing."""
    compiled = _recorded_compiles(monkeypatch, afa)
    automaton = AFA(to_dynamic_core(nnf(parse_formula("G (p -> F q)"))))
    t = parse_trace("{p};{};{q};{p,q}")
    assert automaton.accepts(t) is True
    assert 0 < len(compiled) <= len(automaton) * len(set(t.letters))
    first = len(compiled)
    assert automaton.accepts(parse_trace("{q};{p,q};{};{p}")) is False
    assert len(compiled) == first


def test_deepest_image_agrees_everywhere():
    """`X a & … & X a` with 450 conjuncts, the deepest image that builds: its AFA image nests 450 deep."""
    f = to_dynamic_core(nnf(parse_formula(" & ".join(["X a"] * 450))))
    one_way, two_way = AFA(f), TwoAFA(f)
    for src, verdict in (("{a};{a}", True), ("{a};{}", False)):
        t = parse_trace(src)
        assert one_way.accepts(t) is two_way.accepts(t) is oracle.holds(f, t) is verdict
