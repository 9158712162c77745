"""Trace data model, exhaustive small-trace enumeration, and the bounded-enumeration kernel.

`accepted_words` walks an explicit successor table depth-first and enters
only successors that still accept in the letters left; `fa.enumerate_accepted`
and `metric.enumerate_models` both enumerate through it.  `traces_of` builds
the `Trace` of each enumerated word, for `enumerate_traces` and
`fa.enumerate_accepted`, with no Python frame per trace, and
`_timed_traces_of` each model of `metric.enumerate_models` the same way.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from itertools import product

from .errors import AlphabetMismatchError, InvalidValueError, SizeLimitError
from .formula import Value

Letter = frozenset  # set of true atoms at one position

MAX_ALPHABET = 8
MAX_ENUMERATION = 10**6
_MAX_LETTER_ATOMS = 16


def _check_items(values, kind: type, what: str) -> None:
    """Raise InvalidValueError, naming the first bad value, unless values is a tuple whose items are all of type kind.

    The types are compared in one pass at C level, which builds no set of
    them; the loop that names the first bad item runs only when that pass
    fails.  An item of a subclass of kind fails too, so a `bool` is no
    `int` stamp.
    """
    if values.__class__ is not tuple:
        raise InvalidValueError(f"{what}s must be a tuple, not {type(values).__name__}")
    if not {kind}.issuperset(map(type, values)):
        for i, value in enumerate(values):
            if value.__class__ is not kind:
                raise InvalidValueError(f"{what} {i} must be of type {kind.__name__}, not {value!r}")


class Trace(Value):
    __slots__ = __match_args__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...]):
        _check_items(letters, Letter, "letter")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


class TimedTrace(Value):
    __slots__ = __match_args__ = ("letters", "times")

    def __init__(self, letters: tuple[Letter, ...], times: tuple[int, ...]):
        _check_items(letters, Letter, "letter")
        _check_items(times, int, "timestamp")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "times", times)
        if len(self.letters) != len(self.times):
            raise InvalidValueError("one timestamp per letter required")
        if list(self.times) != sorted(self.times):
            raise InvalidValueError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.letters)


def traces_of(words) -> Iterator[Trace]:
    """One new `Trace` per word of `words`, each built with no `__init__` frame.

    Each is a bare `Trace` whose `letters` slot is filled through the slot's
    descriptor, which the frozen `__setattr__` does not guard.  That skips
    `__init__`'s one check, that the letters are a tuple of frozensets: the
    words must already be such tuples, as the words over `letters_over`
    that `enumerate_traces` and `accepted_words` give are.
    """
    new, fill = object.__new__, Trace.letters.__set__
    for word in words:
        t = new(Trace)
        fill(t, word)
        yield t


def _timed_traces_of(pairs) -> Iterator[TimedTrace]:
    """One new `TimedTrace` per `(letters, times)` pair, each built as `traces_of` builds a `Trace`.

    The pairs must already pass `__init__`'s checks: a tuple of frozensets
    and a non-decreasing tuple of `int` stamps of the same length, as
    `metric.enumerate_models` builds them.
    """
    new, fill_letters, fill_times = object.__new__, TimedTrace.letters.__set__, TimedTrace.times.__set__
    for letters, times in pairs:
        t = new(TimedTrace)
        fill_letters(t, letters)
        fill_times(t, times)
        yield t


def resolve_alphabet(names, ap=None) -> tuple[str, ...]:
    """The sorted alphabet `ap`, or `names` when ap is None; ap must cover names."""
    ap = set(names if ap is None else ap)
    if not set(names) <= ap:
        raise AlphabetMismatchError(f"alphabet {sorted(ap)} misses atoms {sorted(set(names) - ap)}")
    return tuple(sorted(ap))


def outside_alphabet(letter, ap) -> AlphabetMismatchError:
    """The error for a letter that is not a subset of ap."""
    return AlphabetMismatchError(f"letter {sorted(letter)} outside alphabet {list(ap)}")


def check_letters(t: Trace, ap) -> None:
    """Raise AlphabetMismatchError, naming t's first such letter, unless each distinct letter of t is a subset of ap."""
    alphabet = set(ap)
    for letter in dict.fromkeys(t.letters):
        if not letter <= alphabet:
            raise outside_alphabet(letter, ap)


def check_spellable(ap) -> None:
    """Raise SizeLimitError on more than 16 atoms: too many letters to spell out."""
    width = len(set(ap))
    if width > _MAX_LETTER_ATOMS:
        raise SizeLimitError(
            f"alphabet of {width} atoms has more than 2^{_MAX_LETTER_ATOMS} letters to spell out",
            stage="letters", limit=_MAX_LETTER_ATOMS, reached=width,
        )


def letters_over(ap) -> list[Letter]:
    """All letters over the atoms of ap, built in the order of their sorted atom tuples.

    Each atom, from the highest down, puts the letters that hold it after the
    empty letter, as `afa._submasks` puts codes.  `check_spellable` first,
    before any letter is built.
    """
    check_spellable(ap)
    letters = [frozenset()]
    for name in sorted(set(ap), reverse=True):
        letters[1:1] = [letter | {name} for letter in letters]
    return letters


def check_enumeration_bound(ap, max_len: int) -> None:
    """Raise InvalidValueError on a negative length, SizeLimitError on a space over the size bound.

    Callers test it before any of the 2^|ap| letters, or an automaton over them, is built.
    It compares exponents, as 2^x > MAX_ENUMERATION exactly when x reaches
    its bit length; the empty alphabet's traces, of max_len(max_len + 1)/2 letters in all, are bounded too.
    """
    if max_len < 0:
        raise InvalidValueError(f"trace length bound {max_len} is negative")
    width = len(set(ap))
    message = f"trace enumeration over {width} atoms up to length {max_len} exceeds the size bound"
    if width > MAX_ALPHABET:
        raise SizeLimitError(message, stage="enumeration", limit=MAX_ALPHABET, reached=width)
    letters = max_len * (max_len + 1) // 2  # in the traces over the empty alphabet, which the exponents leave unbounded
    if letters >= MAX_ENUMERATION or width * max_len >= MAX_ENUMERATION.bit_length():
        raise SizeLimitError(message, stage="enumeration", limit=MAX_ENUMERATION)


def enumerate_traces(ap, max_len: int) -> Iterator[Trace]:
    """All traces of length 0..max_len, shortest first, letters in lexicographic order."""
    check_enumeration_bound(ap, max_len)
    alphabet = letters_over(ap)
    for length in range(max_len + 1):
        yield from traces_of(product(alphabet, repeat=length))


def accepted_words(table, accepting, start: int, lengths) -> Iterator[tuple[Letter, ...]]:
    """The words of each length in `lengths` (ascending) that lead from node `start` to an accepting one.

    `table[s]` holds node s's `(letter, successor)` pairs in letter order,
    so words come in product order.  Before the words of length r,
    `live[r][s]` keeps the pairs of `table[s]` whose successor accepts in
    exactly r - 1 more letters (`live[0]` is `accepting`), and `last[s]`
    the letters of `live[1][s]`.  The walk enters only live pairs, so every
    branch reaches a word.  It is a depth-first search with one iterator per
    position on an explicit stack and a list prefix; each word tuple is
    built once per second-to-last letter and extended by each `last` letter.
    O(max(lengths) * |pairs|) for the table, then O(length) per word.
    """
    live: list = [accepting]
    last: list = []
    for length in lengths:
        while len(live) <= length:
            below = live[-1]
            live.append([tuple([pair for pair in pairs if below[pair[1]]]) for pairs in table])
            if len(live) == 2:
                last = [tuple([letter for letter, _ in pairs]) for pairs in live[1]]
        if not live[length][start]:
            continue
        if length < 2:  # no second-to-last letter
            yield from [(letter,) for letter in last[start]] if length else [()]
            continue
        top = length - 2  # the position of the second-to-last letter
        prefix: list = [None] * top
        branches: list = [None] * (top + 1)
        branches[0] = iter(live[length][start])
        depth = 0
        while depth >= 0:
            if depth == top:
                for letter, node in branches[top]:
                    word = (*prefix, letter)
                    for final in last[node]:
                        yield word + (final,)
                depth -= 1
                continue
            for letter, node in branches[depth]:  # the next live letter at this position, if any
                prefix[depth] = letter
                depth += 1
                branches[depth] = iter(live[length - depth][node])
                break
            else:
                depth -= 1


def format_letter(letter: Letter) -> str:
    return "{" + ",".join(sorted(letter)) + "}"


def format_trace(t: Trace | TimedTrace) -> str:
    """Canonical text form; parse_trace maps it back to an equal value.  SizeLimitError on a stamp too long to print."""
    if len(t) == 0:
        return "eps"
    if isinstance(t, TimedTrace):
        try:
            return ";".join(f"{format_letter(l)}@{time}" for l, time in zip(t.letters, t.times))
        except ValueError:  # past `sys.get_int_max_str_digits()`, the one ValueError of the join
            limit = sys.get_int_max_str_digits()
            raise SizeLimitError(f"a timestamp has more than {limit} digits to print", stage="format", limit=limit) from None
    return ";".join(format_letter(l) for l in t.letters)
