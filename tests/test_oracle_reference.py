"""Seeded differentials of the bit-set oracle against the definitional one.

`reference_oracle` is the recursive evaluator with explicit path
relations that the bit-set oracle replaced; the two must agree at every
position of every trace tried.  The masks of atoms and metric delays are
checked on longer traces against the spelling of one digit per position
that `reference_oracle.Spelling` keeps.
"""

import random
from operator import sub

import reference_oracle as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_any_formula, random_core_formula, random_path, random_trace
from tracelogic import formula as fm
from tracelogic import oracle
from tracelogic.formula import format_formula
from tracelogic.trace import TimedTrace, enumerate_traces

SMALL_TRACES = list(enumerate_traces(("a", "b"), 3))

# The oracle evaluates these by one rule, through their existential duals.
UNIVERSAL = {fm.WeakNext, fm.Release, fm.Always, fm.WeakPrev, fm.Trigger, fm.Box, fm.WeakMetricNext}


def _operators(formulas) -> set:
    """The node types of the formulas' negation normal forms, paths included: the nodes the oracle evaluates."""
    types = set()
    stack = [fm.nnf(f) for f in formulas]
    while stack:
        node = stack.pop()
        types.add(type(node))
        stack.extend(fm.children(node))
    return types


def _has_metric(f) -> bool:
    # Metric next prints with its interval glued on: X[l,u) or WX[l,u).
    return "X[" in format_formula(f)


def _agree(f, t):
    got = [oracle.evaluate(f, t, i) for i in range(len(t) + 1)]
    assert got == reference.truth_values(f, t), (format_formula(f), t)


def _untimed_formulas(rng, count):
    """Core formulas with past, stars and nested tests, then surface formulas with sugar."""
    formulas = [random_core_formula(rng, rng.randint(1, 10), past=True) for _ in range(count)]
    while len(formulas) < 2 * count:
        f = random_any_formula(rng, rng.randint(1, 10))
        if not _has_metric(f):
            formulas.append(f)
    return formulas


def test_all_traces_up_to_length_three():
    rng = random.Random(401)
    formulas = _untimed_formulas(rng, 60)
    assert UNIVERSAL - {fm.WeakMetricNext} <= _operators(formulas)
    for f in formulas:
        for t in SMALL_TRACES:
            _agree(f, t)


def test_random_traces_of_length_four_to_eight():
    rng = random.Random(409)
    formulas = _untimed_formulas(rng, 100)
    assert UNIVERSAL - {fm.WeakMetricNext} <= _operators(formulas)
    for f in formulas:
        for _ in range(4):
            _agree(f, random_trace(rng, 8, min_len=4))


def test_metric_formulas_on_timed_traces():
    rng = random.Random(419)
    checked = 0
    formulas = []
    while checked < 300:
        f = random_any_formula(rng, rng.randint(2, 10))
        t = random_trace(rng, 8, timed=True)
        if not isinstance(t, TimedTrace):
            continue  # an empty trace carries no times
        _agree(f, t)
        formulas.append(f)
        checked += _has_metric(f)
    assert UNIVERSAL <= _operators(formulas)


def test_path_relation_on_random_paths():
    rng = random.Random(421)
    for _ in range(300):
        p = random_path(rng, rng.randint(2, 8), lambda r, s: random_core_formula(r, s, past=True))
        t = random_trace(rng, 6)
        assert oracle.path_relation(p, t) == reference.path_relation(p, t)


# The masks spelled once per trace, against the spelling of one digit per
# position that they replaced (`reference_oracle.Spelling`).  Traces of
# 0-400 letters draw from a pool of 1-70 distinct letters over seven atoms,
# and their timestamps from a pool of 1-70 distinct gaps, zero among them in
# half of the pools.  Past 48 distinct letters or gaps the codes reach 48
# and 49, the characters "0" and "1", which the end-point digits would
# collide with were they spelled before translating.
SPELLED_ATOMS = tuple(f"p{k}" for k in range(7))
SUBSETS = [frozenset(a for k, a in enumerate(SPELLED_ATOMS) if code >> k & 1) for code in range(1 << len(SPELLED_ATOMS))]


@st.composite
def spelled_traces(draw):
    n = draw(st.integers(0, 400))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    letters = rng.sample(SUBSETS, rng.randint(1, 70))
    gaps = rng.sample(range(0 if rng.random() < 0.5 else 1, 100), rng.randint(1, 70))
    # Every pooled letter and gap first, then random picks, so that most traces hold the whole pool.
    picked = (letters + [rng.choice(letters) for _ in range(n)])[:n]
    steps = (gaps + [rng.choice(gaps) for _ in range(n)])[: max(n - 1, 0)]
    rng.shuffle(picked)
    rng.shuffle(steps)
    times = [0] * min(n, 1)
    for gap in steps:
        times.append(times[-1] + gap)
    # Bounds at and beside the gaps that occur, and unbounded ones.
    bounds = []
    for _ in range(6):
        lo = rng.choice((0, *steps)) + rng.choice((0, 0, 1))
        hi = rng.choice((None, lo + 1, *(gap for gap in steps if gap > lo)))
        bounds.append((lo, hi))
    return TimedTrace(tuple(picked), tuple(times)), bounds, [rng.getrandbits(rng.randint(0, 450)) for _ in range(3)]


def test_spelled_masks_match_the_per_position_spelling():
    seen = set()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(spelled_traces())
    def check(case):
        t, bounds, extra = case
        ev = oracle._evaluator(t)
        spelling = reference.Spelling(t.letters, t.times)
        for name in (*SPELLED_ATOMS, "q"):
            assert ev.atom(name) == spelling.atom(name), name
        for lo, hi in bounds:
            assert ev.delays(lo, hi) == spelling.delays(lo, hi), (lo, hi)
        for bits in (*map(ev.atom, SPELLED_ATOMS), *(ev.delays(lo, hi) for lo, hi in bounds), *extra):
            assert oracle._members(bits) == reference._members(bits)
        letters, steps = len(set(t.letters)), set(map(sub, t.times[1:], t.times))
        seen.add("empty" if not t.letters else "over 300 letters" if len(t) > 300 else "letters")
        seen.add("over 60 distinct letters" if letters > 60 else "over 48 distinct letters" if letters > 48 else "letters up to 48")
        seen.add("over 60 distinct gaps" if len(steps) > 60 else "over 48 distinct gaps" if len(steps) > 48 else "gaps up to 48")
        if 0 in steps:
            seen.add("zero gap")
        seen.update("unbounded" if hi is None else "hi at a gap" if hi in steps else "hi between gaps" for _, hi in bounds)

    check()
    assert seen == {
        "empty", "letters", "over 300 letters",
        "letters up to 48", "over 48 distinct letters", "over 60 distinct letters",
        "gaps up to 48", "over 48 distinct gaps", "over 60 distinct gaps",
        "zero gap", "unbounded", "hi at a gap", "hi between gaps",
    }


def test_delays_past_the_characters_that_chr_has():
    """A trace with one distinct gap more than `chr` has codes for still gets exact delays, spelled per gap.

    The gap from position i to i + 1 is i + 1, so each delay window [lo, hi)
    holds exactly the positions lo - 1 to hi - 2.
    """
    n = oracle._CODES + 2
    t = TimedTrace((frozenset(),) * n, tuple(i * (i + 1) // 2 for i in range(n)))
    ev = oracle._evaluator(t)
    for lo, hi in ((1, None), (5, 10), (0x10FFFF, 0x110001), (0x110000, None)):
        top = n if hi is None else hi  # positions below n - 1 only: the last letter has no next one
        assert ev.delays(lo, hi) == ((1 << (top - lo)) - 1) << (lo - 1), (lo, hi)
    assert ev._spelled_gaps[0] is None  # no characters spelled
