"""Trace data model and exhaustive small-trace enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

from .errors import AlphabetMismatchError, SizeLimitError

Letter = frozenset  # set of true atoms at one position

MAX_ALPHABET = 8
MAX_ENUMERATION = 10**6
_MAX_LETTER_ATOMS = 16


@dataclass(frozen=True, slots=True)
class Trace:
    letters: tuple[Letter, ...]

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True, slots=True)
class TimedTrace:
    letters: tuple[Letter, ...]
    times: tuple[int, ...]

    def __post_init__(self):
        if len(self.letters) != len(self.times):
            raise ValueError("one timestamp per letter required")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.letters)


EMPTY_TRACE = Trace(())


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
    """Raise AlphabetMismatchError unless every letter of t is a subset of ap."""
    alphabet = set(ap)
    for letter in t.letters:
        if not letter <= alphabet:
            raise outside_alphabet(letter, ap)


def letters_over(ap) -> list[Letter]:
    """All letters over the atoms of ap, ordered by their sorted atom tuple.

    SizeLimitError, before any letter is built, on more than 16 atoms.
    """
    names = sorted(set(ap))
    if len(names) > _MAX_LETTER_ATOMS:
        raise SizeLimitError(
            f"alphabet of {len(names)} atoms has more than 2^{_MAX_LETTER_ATOMS} letters to spell out",
            stage="letters", limit=_MAX_LETTER_ATOMS, reached=len(names),
        )
    subsets = [frozenset(c) for k in range(len(names) + 1) for c in combinations(names, k)]
    return sorted(subsets, key=lambda s: tuple(sorted(s)))


def check_enumeration_bound(ap, max_len: int) -> None:
    """Raise ValueError on a negative length, SizeLimitError on a space over the size bound.

    Callers test it before any of the 2^|ap| letters, or an automaton over them, is built.
    It compares exponents, as 2^x > MAX_ENUMERATION exactly when x reaches
    its bit length; the empty alphabet's traces, of max_len(max_len + 1)/2 letters in all, are bounded too.
    """
    if max_len < 0:
        raise ValueError(f"trace length bound {max_len} is negative")
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
        for combo in product(alphabet, repeat=length):
            yield Trace(combo)


def _walk(alphabet, length: int, start, child) -> Iterator[tuple[tuple[Letter, ...], object]]:
    """(letters, node) for each word of `length` letters that `child` lets through, in product order.

    A depth-first search extends a prefix by each letter of `alphabet` in
    turn; `child(node, letter, depth)` gives the node after reading
    `letter` at position `depth`, or None to cut the branch.  The stacks
    hold one entry per position, so memory is O(length).
    """
    if length == 0:
        yield (), start
        return
    last = length - 1
    prefix: list = []
    nodes = [start]
    branches = [iter(alphabet)]
    while branches:
        depth = len(prefix)
        if depth == last:  # the last letter: each child is a complete word
            node = nodes.pop()
            for letter in alphabet:
                leaf = child(node, letter, depth)
                if leaf is not None:
                    yield (*prefix, letter), leaf
            branches.pop()
        else:
            letter = next(branches[-1], None)
            if letter is not None:
                node = child(nodes[-1], letter, depth)
                if node is not None:
                    prefix.append(letter)
                    nodes.append(node)
                    branches.append(iter(alphabet))
                continue
            branches.pop()
            nodes.pop()
        if prefix:
            prefix.pop()


def format_letter(letter: Letter) -> str:
    return "{" + ",".join(sorted(letter)) + "}"


def format_trace(t: Trace | TimedTrace) -> str:
    """Canonical text form; parse_trace maps it back to an equal value."""
    if len(t) == 0:
        return "eps"
    if isinstance(t, TimedTrace):
        return ";".join(f"{format_letter(l)}@{time}" for l, time in zip(t.letters, t.times))
    return ";".join(format_letter(l) for l in t.letters)
