from itertools import combinations

import pytest

from tracelogic import cli
from tracelogic.afa import AFA, _submasks
from tracelogic.errors import SizeLimitError
from tracelogic.fa import build_dfa, enumerate_accepted
from tracelogic.formula import nnf, to_dynamic_core
from tracelogic.metric import MetricProgram, enumerate_models
from tracelogic.parser import parse_formula, parse_program, parse_trace
from tracelogic.trace import (
    MAX_ALPHABET,
    MAX_ENUMERATION,
    TimedTrace,
    Trace,
    check_enumeration_bound,
    enumerate_traces,
    format_trace,
    letters_over,
    resolve_alphabet,
    traces_of,
)
from tracelogic.twafa import TwoAFA


def test_single_atom_enumeration():
    traces = list(enumerate_traces(("a",), 1))
    assert traces == [
        Trace(()),
        Trace((frozenset(),)),
        Trace((frozenset({"a"}),)),
    ]


def test_two_atom_count():
    assert len(list(enumerate_traces(("a", "b"), 2))) == 21
    assert len(list(enumerate_traces(("a", "b"), 4))) == 341


def test_zero_length():
    assert list(enumerate_traces(("a",), 0)) == [Trace(())]


def test_no_duplicates_and_ordering():
    traces = list(enumerate_traces(("a", "b"), 3))
    assert len(traces) == len(set(traces))
    lengths = [len(t) for t in traces]
    assert lengths == sorted(lengths)


def test_size_limit():
    with pytest.raises(SizeLimitError):
        list(enumerate_traces(tuple("abcdefghi"), 1))
    with pytest.raises(SizeLimitError):
        list(enumerate_traces(("a", "b", "c", "d"), 12))


def _refused(ap, max_len) -> bool:
    try:
        check_enumeration_bound(ap, max_len)
    except SizeLimitError:
        return True
    return False


def test_bound_compares_exponents():
    """The bound refuses what 2^(|ap| * max_len) > MAX_ENUMERATION refuses.

    Over the empty alphabet it refuses the lengths whose traces hold
    max_len * (max_len + 1) / 2 >= MAX_ENUMERATION letters in all.
    """
    for width in range(MAX_ALPHABET + 2):
        ap = tuple(f"p{i}" for i in range(width))
        for max_len in range(45):
            expected = width > MAX_ALPHABET or 2 ** (width * max_len) > MAX_ENUMERATION
            assert _refused(ap, max_len) is expected, (width, max_len)
    assert not _refused((), 1413)
    assert _refused((), 1414)
    for width in range(MAX_ALPHABET + 1):
        assert _refused(tuple(f"p{i}" for i in range(width)), 10**19 - 1), width


def test_enumeration_reaches_the_deepest_bound():
    """At the longest length the bound admits, the walk keeps one stack entry per position and recurses nowhere.

    Counts only: over the empty alphabet `tt` accepts one trace per length,
    and the empty program has one model, every letter empty and at time 0.
    """
    traces = list(enumerate_accepted(build_dfa(parse_formula("tt"), ()), 1413))
    assert len(traces) == 1414
    assert [len(t) for t in traces] == list(range(1414))
    assert all(letter == frozenset() for letter in traces[-1].letters)
    models = list(enumerate_models(MetricProgram(()), (), 1413))
    assert models == [TimedTrace((frozenset(),) * 1413, (0,) * 1413)]


def test_letter_order():
    letters = letters_over(("b", "a"))
    assert letters == [frozenset(), frozenset({"a"}), frozenset({"a", "b"}), frozenset({"b"})]
    for width in range(11):  # every subset, ordered by its sorted atom tuple
        ap = [f"p{i:02d}" for i in reversed(range(width))]
        subsets = [frozenset(c) for k in range(width + 1) for c in combinations(sorted(ap), k)]
        assert letters_over(ap) == sorted(subsets, key=lambda s: tuple(sorted(s))), width


def test_classes_first_met_in_letter_order():
    """Over the letters of ap in order, the classes `letter & r` first appear in the order of `letters_over(r)`.

    The 2AFA builds each state's classes over its read atoms r in
    `letters_over(r)` order, and the one-way pipeline walks the classes of
    a mask in `_submasks` order, the codes of `letters_over(r)` in the same
    order; so states are discovered in the order a walk over every letter of
    the alphabet would meet them.
    """
    for width in range(8):
        ap = tuple(f"p{i}" for i in range(width))
        bits = {name: 1 << j for j, name in enumerate(ap)}
        letters = letters_over(ap)
        codes = _submasks((1 << width) - 1)
        for k in range(width + 1):
            for r in combinations(ap, k):
                local = frozenset(r)
                assert list(dict.fromkeys(letter & local for letter in letters)) == letters_over(local), r
                mask = sum(bits[name] for name in r)
                assert _submasks(mask) == [sum(bits[name] for name in x) for x in letters_over(r)], r
                assert list(dict.fromkeys(code & mask for code in codes)) == _submasks(mask), r


def test_format_examples():
    assert format_trace(Trace(())) == "eps"
    assert format_trace(Trace((frozenset({"b", "a"}), frozenset()))) == "{a,b};{}"
    timed = TimedTrace((frozenset({"drive"}), frozenset({"school"})), (0, 25))
    assert format_trace(timed) == "{drive}@0;{school}@25"


def test_format_round_trip():
    for t in enumerate_traces(("a", "b"), 3):
        assert parse_trace(format_trace(t)) == t


def test_helper_traces_are_plain_frozen_traces():
    """`traces_of` builds one new `Trace` per word that equals, hashes and prints like `Trace(word)`.

    It skips `__init__`, which must therefore check nothing: the names that
    `__init__` reads are pinned, so a check added there fails this test
    until `traces_of` makes it too.  Its traces stay frozen.
    """
    assert Trace.__init__.__code__.co_names == ("object", "__setattr__")
    words = [(), (frozenset(),), (frozenset({"a"}), frozenset()), (frozenset({"a"}), frozenset())]
    built = list(traces_of(iter(words)))
    assert len(built) == len(words) and len({id(t) for t in built}) == len(words)
    for t, word in zip(built, words):
        assert type(t) is Trace and t.letters is word
        assert t == Trace(word) and hash(t) == hash(Trace(word)) and repr(t) == repr(Trace(word))
        with pytest.raises(AttributeError, match="cannot assign to field 'letters'"):
            t.letters = ()
        assert t.letters is word
    assert list(traces_of([])) == []


def test_timed_trace_validation():
    with pytest.raises(ValueError):
        TimedTrace((frozenset(),), (0, 1))
    with pytest.raises(ValueError):
        TimedTrace((frozenset(), frozenset()), (5, 3))


def test_size_limit_before_building_letters():
    # 2^30 letters would not fit in memory; the bound must be tested first.
    with pytest.raises(SizeLimitError):
        next(enumerate_traces(tuple(f"p{i}" for i in range(30)), 1))


def test_letters_over_bounds_the_alphabet():
    wide = [f"a{i}" for i in range(17)]
    with pytest.raises(SizeLimitError, match=r"^alphabet of 17 atoms has more than 2\^16 letters to spell out$"):
        letters_over(wide)
    f = parse_formula(" | ".join(wide))
    core = to_dynamic_core(nnf(f))
    with pytest.raises(SizeLimitError):
        build_dfa(f)
    # Both alternating automata read only the letters of the trace.
    assert AFA(core).accepts(Trace((frozenset({"a3"}),))) is True
    assert TwoAFA(core).accepts(Trace((frozenset({"a3"}),))) is True


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        list(enumerate_traces(("a",), -1))


def test_cli_enumerate_tests_the_bound_before_compiling(monkeypatch, capsys):
    def no_compile(*args):
        raise AssertionError("build_dfa called on an oversized alphabet")

    monkeypatch.setattr(cli, "build_dfa", no_compile)
    ap = ",".join(["a"] + [f"p{i}" for i in range(16)])
    assert cli.run(["enumerate", "-f", "a", "--ap", ap, "--max-len", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "limit exceeded: trace enumeration over 17 atoms up to length 2 exceeds the size bound\n"


def test_repeated_atoms_name_one_alphabet():
    """An atom listed twice in `ap` is one atom: no letter, trace, column or model repeats."""
    assert letters_over(["a", "a"]) == letters_over(["a"])
    assert list(enumerate_traces(["a", "a"], 1)) == list(enumerate_traces(["a"], 1))
    assert len(list(enumerate_traces(["a", "a"], 1))) == 3
    assert resolve_alphabet(["a"], ["b", "a", "b"]) == resolve_alphabet(["a"], ["a", "b"]) == ("a", "b")
    assert resolve_alphabet(["a", "a"]) == ("a",)
    wide = [f"p{i}" for i in range(MAX_ALPHABET)]
    assert [_refused(wide + wide, n) for n in range(4)] == [_refused(wide, n) for n in range(4)] == [False] * 3 + [True]
    f = parse_formula("F a")
    repeated, single = build_dfa(f, ["a", "a"]), build_dfa(f, ["a"])
    assert repeated == single and len(repeated.letters) == 2
    assert list(enumerate_accepted(repeated, 2)) == list(enumerate_accepted(single, 2))
    program = parse_program("b :- a.")
    models = [format_trace(t) for t in enumerate_models(program, ["a", "a", "b"], 1)]
    assert models == [format_trace(t) for t in enumerate_models(program, ["a", "b"], 1)]
    assert models == ["{}@0", "{a,b}@0", "{b}@0"]


def test_size_limit_errors_carry_their_fields():
    with pytest.raises(SizeLimitError) as letters:
        letters_over([f"a{i}" for i in range(17)])
    with pytest.raises(SizeLimitError) as alphabet:
        check_enumeration_bound([f"p{i}" for i in range(MAX_ALPHABET + 1)], 1)
    with pytest.raises(SizeLimitError) as exponent:
        check_enumeration_bound(("a", "b", "c", "d"), 12)
    with pytest.raises(SizeLimitError) as empty:
        check_enumeration_bound((), 1414)
    fields = [(e.value.stage, e.value.limit, e.value.reached) for e in (letters, alphabet, exponent, empty)]
    assert fields == [
        ("letters", 16, 17),
        ("enumeration", MAX_ALPHABET, MAX_ALPHABET + 1),
        ("enumeration", MAX_ENUMERATION, None),
        ("enumeration", MAX_ENUMERATION, None),
    ]
    assert str(exponent.value) == "trace enumeration over 4 atoms up to length 12 exceeds the size bound"
    plain = SizeLimitError("no fields")
    assert (str(plain), plain.stage, plain.limit, plain.reached) == ("no fields", None, None, None)
