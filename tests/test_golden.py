"""Pinned `compile` output: sizes per target, the sha256 of every DOT file, and one digest over the reference corpus."""

import contextlib
import hashlib
import io

import pytest

from test_afa import AP, _has_past, _reference_corpus
from tracelogic import formula as fm
from tracelogic.afa import AFA
from tracelogic.cli import _size, run
from tracelogic.dot import to_dot
from tracelogic.fa import dealternate, determinize, minimize
from tracelogic.twafa import TwoAFA

GOLDEN = [
    ("a U b", "afa", 1, 3, "045272c40e5ca6f22d7bf759fb47184ed6d0bf678f081256b73dbf83905865ae"),
    ("a U b", "nfa", 2, 7, "6a9f0f5069a5272d548dd293f046ee75dcaad79c6d5b0081fc94fad5bdf84f04"),
    ("a U b", "dfa", 3, 12, "f600844f35bd50bbe5a2d315bd359ad1102d3d6d43a5c88b554a09f2b43ecd7c"),
    ("a U b", "min-dfa", 3, 12, "f600844f35bd50bbe5a2d315bd359ad1102d3d6d43a5c88b554a09f2b43ecd7c"),
    ("a U b", "2afa", 6, 23, "1100f771a9d5b24689460b54c45ce959a349432d17118ef2158e0752b85bf3ff"),
    ("G (a -> F b)", "afa", 2, 8, "e85943b753fa7b0f6e12460cbafefd9d373c68d70d7a77c0cdf07151af136fc2"),
    ("G (a -> F b)", "nfa", 2, 8, "c1317410f226bb950280e1ba7961d271f0d8e80618453c4840f1fba90d5449eb"),
    ("G (a -> F b)", "dfa", 2, 8, "f76dc78cd214174afee04b954480fcccde31b03824ce381238989c31910c1df9"),
    ("G (a -> F b)", "min-dfa", 2, 8, "f76dc78cd214174afee04b954480fcccde31b03824ce381238989c31910c1df9"),
    ("G (a -> F b)", "2afa", 10, 48, "d6c25bb49f042779af48db4d237896356f1618211bf5c7758f4ecdbbd0e170b8"),
    ("F (b & Y a)", "2afa", 7, 27, "a9115534a4068717e2af4128b3193900325d562717dd593a0d42290ad83f3862"),
]


@pytest.mark.parametrize("formula, target, states, transitions, digest", GOLDEN)
def test_compile_golden(tmp_path, formula, target, states, transitions, digest):
    dot_path = tmp_path / "out.dot"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["compile", "-f", formula, "--to", target, "--dot", str(dot_path)])
    assert code == 0
    assert out.getvalue() == f"states {states} transitions {transitions}\n"
    assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == digest


CORPUS_DIGEST = "7f644d3f4cc4291d0a0849983a816f50fc3300581044c01c7d07d5dfbc1b2b51"


def test_corpus_digest():
    """The size line and DOT bytes of every automaton of the reference corpus, hashed together.

    Each formula is compiled over its atoms plus `AP`: the 2AFA always, and
    the AFA, NFA, DFA and minimal DFA when it has no past operator.  The
    digest pins sizes, state order and DOT bytes for all 2,606 formulas.
    """
    digest = hashlib.sha256()
    for f in _reference_corpus():
        ap = tuple(sorted(fm.atoms(f) | set(AP)))
        automata = [TwoAFA(f, ap)]
        if not _has_past(f):
            one_way = AFA(f, ap)
            nfa = dealternate(one_way)
            dfa = determinize(nfa)
            automata += [one_way, nfa, dfa, minimize(dfa)]
        for automaton in automata:
            digest.update(_size(automaton).encode())
            digest.update(to_dot(automaton).encode())
    assert digest.hexdigest() == CORPUS_DIGEST
