"""Shared formula/trace generators for the test suite."""

import random
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from tracelogic import afa, twafa
from tracelogic import formula as fm
from tracelogic.fa import DFA
from tracelogic.formula import (
    FALSE,
    TRUE,
    Alt,
    And,
    Atom,
    Box,
    Diamond,
    Eventually,
    Always,
    Implies,
    MetricNext,
    Next,
    Not,
    Or,
    Prev,
    Release,
    Seq,
    Since,
    Star,
    Step,
    Test,
    Trigger,
    Until,
    WeakMetricNext,
    WeakNext,
    WeakPrev,
)

NAMES = ("a", "b")
_LEAVES = tuple(Atom(n) for n in NAMES) + (TRUE, FALSE)
_LITERALS = _LEAVES + tuple(Not(Atom(n)) for n in NAMES)


@lru_cache(maxsize=None)
def _props(size: int) -> tuple:
    out = []
    if size == 1:
        out += list(_LEAVES)
    if size == 2:
        out += [Not(Atom(n)) for n in NAMES]
    if size >= 3:
        for ls in range(1, size - 1):
            for l in _props(ls):
                for r in _props(size - 1 - ls):
                    out += [And(l, r), Or(l, r)]
    return tuple(out)


@lru_cache(maxsize=None)
def _paths(size: int) -> tuple:
    out = []
    if size >= 2:
        out += [Step(g) for g in _props(size - 1)]
        out += [Test(f) for f in _core_formulas(size - 1)]
        out += [Star(p) for p in _paths(size - 1)]
    if size >= 5:
        for ls in range(2, size - 2):
            for l in _paths(ls):
                for r in _paths(size - 1 - ls):
                    out += [Seq(l, r), Alt(l, r)]
    return tuple(out)


@lru_cache(maxsize=None)
def _core_formulas(size: int) -> tuple:
    out = []
    if size == 1:
        out += list(_LEAVES)
    if size == 2:
        out += [Not(Atom(n)) for n in NAMES]
    if size >= 3:
        for ls in range(1, size - 1):
            for l in _core_formulas(ls):
                for r in _core_formulas(size - 1 - ls):
                    out += [And(l, r), Or(l, r)]
        for ps in range(2, size - 1):
            for p in _paths(ps):
                for f in _core_formulas(size - 1 - ps):
                    out += [Diamond(p, f), Box(p, f)]
    return tuple(out)


def exhaustive_core_formulas(max_size: int) -> list:
    """All NNF dynamic-core formulas of AST size <= max_size over atoms a, b."""
    return [f for size in range(1, max_size + 1) for f in _core_formulas(size)]


def renamed(f, names: dict):
    """f with every atom named in `names` renamed, the others kept."""
    if isinstance(f, Atom):
        return Atom(names.get(f.name, f.name))
    rename = lambda g: renamed(g, names)  # noqa: E731
    rename_path = lambda p: fm._rebuild(p, type(p), rename, rename_path)  # noqa: E731
    return fm._rebuild(f, type(f), rename, rename_path)


def relabelled(dfa: DFA, seed: int) -> DFA:
    """The same automaton with its states permuted, behind an unreachable accepting state 0 that loops on itself."""
    new = list(range(1, dfa.n_states + 1))
    random.Random(seed).shuffle(new)
    rows = [(0,) * len(dfa.letters)] * (dfa.n_states + 1)
    accepting = [True] * (dfa.n_states + 1)
    for s, row in enumerate(dfa.transitions):
        rows[new[s]] = tuple(new[t] for t in row)
        accepting[new[s]] = dfa.accepting[s]
    return DFA(dfa.ap, dfa.letters, tuple(rows), tuple(accepting), new[dfa.initial])


def random_prop(rng: random.Random, size: int):
    if size <= 1:
        return rng.choice(_LEAVES)
    if size == 2 or rng.random() < 0.2:
        return Not(Atom(rng.choice(NAMES)))
    left = rng.randint(1, size - 2)
    op = rng.choice((And, Or))
    return op(random_prop(rng, left), random_prop(rng, size - 1 - left))


def random_path(rng: random.Random, size: int, make_formula):
    if size <= 2:
        if rng.random() < 0.5:
            return Step(random_prop(rng, 1))
        return Test(make_formula(rng, max(size - 1, 1)))
    kind = rng.choice(("step", "test", "star", "seq", "alt"))
    if kind == "step":
        return Step(random_prop(rng, size - 1))
    if kind == "test":
        return Test(make_formula(rng, size - 1))
    if kind == "star":
        return Star(random_path(rng, size - 1, make_formula))
    left = rng.randint(1, size - 2)
    op = Seq if kind == "seq" else Alt
    return op(random_path(rng, left, make_formula), random_path(rng, size - 1 - left, make_formula))


def random_core_formula(rng: random.Random, size: int, past: bool = False):
    """Random NNF dynamic-core formula (optionally with past primitives)."""

    def build(rng, size):
        return random_core_formula(rng, size, past)

    if size <= 1:
        return rng.choice(_LEAVES)
    ops = ["not", "and", "or", "dia", "box"]
    if past:
        ops += ["prev", "wprev", "since", "trigger"]
    kind = rng.choice(ops)
    if kind == "not" or size == 2:
        return Not(Atom(rng.choice(NAMES)))
    if kind in ("and", "or"):
        left = rng.randint(1, size - 2)
        op = And if kind == "and" else Or
        return op(build(rng, left), build(rng, size - 1 - left))
    if kind in ("dia", "box"):
        path_size = rng.randint(1, size - 2) if size > 3 else 1
        op = Diamond if kind == "dia" else Box
        return op(random_path(rng, max(path_size, 1), build), build(rng, size - 1 - path_size))
    if kind == "prev":
        return Prev(build(rng, size - 1))
    if kind == "wprev":
        return WeakPrev(build(rng, size - 1))
    left = rng.randint(1, size - 2)
    op = Since if kind == "since" else Trigger
    return op(build(rng, left), build(rng, size - 1 - left))


def random_any_formula(rng: random.Random, size: int):
    """Random formula over the full surface syntax (sugar, past, metric, negation)."""
    if size <= 1:
        return rng.choice(_LEAVES)
    unary = ("not", "next", "wnext", "even", "always", "prev", "wprev", "metric", "wmetric")
    binary = ("and", "or", "implies", "until", "release", "since", "trigger")
    modal = ("dia", "box")
    kind = rng.choice(unary + binary + modal)
    if kind in binary:
        left = rng.randint(1, size - 2) if size > 2 else 1
        op = {
            "and": And, "or": Or, "implies": Implies, "until": Until,
            "release": Release, "since": Since, "trigger": Trigger,
        }[kind]
        return op(random_any_formula(rng, left), random_any_formula(rng, size - 1 - left))
    if kind in modal:
        path_size = rng.randint(1, size - 2) if size > 3 else 1
        op = Diamond if kind == "dia" else Box
        return op(random_path(rng, max(path_size, 1), random_any_formula), random_any_formula(rng, size - 1 - path_size))
    arg = random_any_formula(rng, size - 1)
    if kind in ("metric", "wmetric"):
        lo = rng.randint(0, 20)
        hi = None if rng.random() < 0.3 else lo + rng.randint(1, 30)
        return (MetricNext if kind == "metric" else WeakMetricNext)(lo, hi, arg)
    return {
        "not": Not, "next": Next, "wnext": WeakNext, "even": Eventually,
        "always": Always, "prev": Prev, "wprev": WeakPrev,
    }[kind](arg)


_SURFACE_LITERALS = st.sampled_from(tuple(Atom(n) for n in "abc") + tuple(Not(Atom(n)) for n in "abc"))
_SURFACE_UNARY, _SURFACE_BINARY = (Not, Next, WeakNext, Eventually, Always), (And, Or, Implies, Until, Release)


@st.composite
def surface_formulas(draw, past: bool = False):
    """Formulas of AST size 6 to 14 over {a, b, c} in the surface syntax, with past operators if `past`.

    Unlike `random_core_formula`, which rarely builds a non-trivial
    automaton, the draws use temporal sugar, implication, stars and
    compound step guards such as `a & !b`, and have no `tt` or `ff` leaf.
    """
    unary, binary = _SURFACE_UNARY, _SURFACE_BINARY
    if past:
        unary, binary = unary + (Prev, WeakPrev), binary + (Since, Trigger)

    def split(size):
        left = draw(st.integers(1, size - 2))
        return left, size - 1 - left

    def guard(size):
        if size <= 2:
            return draw(_SURFACE_LITERALS)
        left, right = split(size)
        return draw(st.sampled_from((And, Or)))(guard(left), guard(right))

    def path(size):
        kind = draw(st.sampled_from(("step", "test", "star", "seq", "alt") if size > 2 else ("step", "test")))
        if kind == "step":
            return Step(guard(size - 1) if size > 1 and draw(st.booleans()) else TRUE)
        if kind == "test":
            return Test(formula(max(size - 1, 1)))
        if kind == "star":
            return Star(path(size - 1))
        left, right = split(size)
        return (Seq if kind == "seq" else Alt)(path(left), path(right))

    def formula(size):
        if size <= 1:
            return draw(_SURFACE_LITERALS)
        kind = draw(st.sampled_from(("unary", "binary", "modal") if size > 2 else ("unary",)))
        if kind == "unary":
            return draw(st.sampled_from(unary))(formula(size - 1))
        left, right = split(size)
        if kind == "binary":
            return draw(st.sampled_from(binary))(formula(left), formula(right))
        return draw(st.sampled_from((Diamond, Box)))(path(left), formula(right))

    return formula(draw(st.integers(6, 14)))


def random_trace(rng: random.Random, max_len: int = 5, timed: bool = False, min_len: int = 0):
    from tracelogic.trace import TimedTrace, Trace

    length = rng.randint(min_len, max_len)
    letters = tuple(frozenset(n for n in NAMES if rng.random() < 0.5) for _ in range(length))
    if not timed or length == 0:
        return Trace(letters)
    times = []
    clock = 0
    for _ in range(length):
        clock += rng.randint(0, 30)
        times.append(clock)
    return TimedTrace(letters, tuple(times))


def until_chain(depth: int) -> str:
    """`a U b U … U a` with `depth` untils, which nest to the right."""
    return " U ".join(("ab" * depth)[: depth + 1])


def release_chain(depth: int) -> str:
    """`a R b R … R a` with `depth` releases, which nest to the right."""
    return until_chain(depth).replace(" U ", " R ")


def eventually_chain(depth: int) -> str:
    """`F (b & F (a & … & tt))` with `depth` eventualities, which alternate between b and a."""
    return "".join(f"F ({'ba'[i % 2]} & " for i in range(depth)) + "tt" + ")" * depth


def alternation(n: int) -> str:
    """`<((a? + b?) ; … ; (a? + b?))* ; tt> c`, a star over a sequence of `n` alternations of tests."""
    return "<(" + " ; ".join(["(a? + b?)"] * n) + ")* ; tt> c"


def move_refs(pbf):
    """The `MoveRef` leaves of a two-way transition, left to right."""
    if isinstance(pbf, afa.MoveRef):
        yield pbf
    elif pbf.__class__ is tuple:  # an And or Or node (is_and, left, right)
        yield from move_refs(pbf[1])
        yield from move_refs(pbf[2])


@pytest.fixture
def guard_atoms(monkeypatch) -> set:
    """A set to which every guard test of `transition`, in either automaton, adds the atoms of its guard.

    The tests wrap the `sat` that each call of `transition` gets, so they
    see the guards the builder asks about, not how the answers are computed.
    """
    asked: set = set()
    build = afa.transition

    def recording(f, sat, ref):
        def test(guard):
            asked.update(fm.atoms(guard))
            return sat(guard)

        return build(f, test, ref)

    monkeypatch.setattr(afa, "transition", recording)
    monkeypatch.setattr(twafa, "transition", recording)
    return asked
