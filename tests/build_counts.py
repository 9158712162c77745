"""Counts of the automaton builds for the formulas of `test_golden.py`: numbers that do not depend on the host.

For each formula, and each automaton its golden rows compile it to:

- the walks of the root before the first transition, as the calls of
  `formula.check_fragment` and `formula.atoms` on the root itself, for the
  AFA and for the 2AFA;
- in the AFA, the end-point rule runs its build made: the entries of its
  oracle's `sat` and `neg` memos over the empty trace, one per node and
  polarity evaluated (the bottom-up pass over the root walks it through
  `formula.children`, which is not counted among the root walks);
- in the 2AFA, its states, its kept states (those the run holds one
  configuration of per position), and the transitions its build makes, by
  builder: `TwoAFA._trans_begin` (a plain state at the begin marker),
  `TwoAFA._trans_weak` (a weak state at a marker or a letter) and the shared
  `afa.transition` (any other state at the end marker or a letter).

A change that claims a faster build can quote these beside its times.  Run
it from anywhere; it prints one line per formula and gates on nothing:

    PYTHONPATH=src python tests/build_counts.py

Pytest does not collect this file.
"""

from __future__ import annotations

import sys
from collections import Counter

from test_golden import GOLDEN
from tracelogic import formula as fm
from tracelogic import twafa
from tracelogic.afa import AFA
from tracelogic.parser import parse_formula
from tracelogic.twafa import TwoAFA


def _counting(owner, name: str, counts: Counter, label: str, root=None):
    """Replace `owner.name` by a wrapper that counts its calls under `label`, only those on `root` if given."""
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if root is None or any(arg is root for arg in args):
            counts[label] += 1
        return inner(*args, **kwargs)

    setattr(owner, name, wrapper)
    return inner


def _build(build, root) -> tuple:
    """The automaton `build(root)` and the counts of its build."""
    counts: Counter = Counter()
    patched = [
        (fm, "check_fragment", _counting(fm, "check_fragment", counts, "walks", root)),
        (fm, "atoms", _counting(fm, "atoms", counts, "walks", root)),
        (TwoAFA, "_trans_begin", _counting(TwoAFA, "_trans_begin", counts, "_trans_begin")),
        (TwoAFA, "_trans_weak", _counting(TwoAFA, "_trans_weak", counts, "_trans_weak")),
        (twafa, "transition", _counting(twafa, "transition", counts, "transition")),
    ]
    try:
        return build(root), counts
    finally:
        for owner, name, inner in patched:
            setattr(owner, name, inner)


def main() -> int:
    builders = ("_trans_begin", "_trans_weak", "transition")
    targets: dict = {}
    for src, target, *_ in GOLDEN:
        targets.setdefault(src, set()).add(target)
    for src, kinds in targets.items():
        root = fm.to_dynamic_core(fm.nnf(parse_formula(src)))
        parts = []
        if "afa" in kinds:
            automaton, counts = _build(AFA, root)
            end = automaton._end
            parts.append(
                f"afa: {counts['walks']} root walks, {len(end._sat)} sat and {len(end._neg)} neg end-point rule runs"
            )
        if "2afa" in kinds:
            automaton, counts = _build(TwoAFA, root)
            parts.append(
                f"2afa: {counts['walks']} root walks, {len(automaton)} states, {len(automaton._kept)} kept, "
                f"{sum(counts[b] for b in builders)} transitions built ("
                + ", ".join(f"{counts[b]} by {b}" for b in builders) + ")"
            )
        print(f"{src}: " + "; ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
