"""From formulas to automata: alternation, dealternation, determinization.

Shows the whole compilation pipeline, the succinctness gap between
alternating and deterministic automata, and equivalence checking with
counterexamples.
"""

from tracelogic import (
    AFA,
    build_dfa,
    dealternate,
    determinize,
    equivalent,
    format_trace,
    is_empty,
    minimize,
    nnf,
    parse_formula,
    to_dot,
    to_dynamic_core,
)

def compile_chain(src, ap=None):
    core = to_dynamic_core(nnf(parse_formula(src)))
    afa = AFA(core, ap)
    nfa = dealternate(afa)
    dfa = determinize(nfa)
    small = minimize(dfa)
    print(f"{src:28} AFA {len(afa):3}  NFA {len(nfa.states):3}  "
          f"DFA {dfa.n_states:3}  min-DFA {small.n_states:3}")
    return small

print("formula                      sizes along the pipeline")
compile_chain("a U b")
compile_chain("G (a -> F b)")
compile_chain("<(a? ; tt)*> b")

# ---------------------------------------------------------------------------
# The alternating automaton stays linear in the formula while the minimal
# DFA is forced to remember exponentially much: every F ai needs one bit.

print("\nconjunctions of eventualities: AFA linear, DFA exponential")
for n in range(1, 7):
    names = [f"a{i}" for i in range(1, n + 1)]
    src = " & ".join(f"F {x}" for x in names)
    core = to_dynamic_core(nnf(parse_formula(src)))
    afa = AFA(core, names)
    dfa = build_dfa(parse_formula(src), names)
    print(f"  n={n}: AFA {len(afa):3} states, minimal DFA {dfa.n_states:3} states")

# ---------------------------------------------------------------------------
# Equivalence via minimized-DFA isomorphism; inequivalence produces a
# shortest distinguishing trace.

print("\nF a == <tt*> a:", equivalent(parse_formula("F a"), parse_formula("<tt*> a"))[0])
same, cex = equivalent(parse_formula("X a"), parse_formula("WX a"))
print("X a == WX a:", same, "- distinguished by", format_trace(cex))

empty, witness = is_empty(build_dfa(parse_formula("<tt> a & WX !a")))
print("\n<tt> a & WX !a satisfiable:", not empty,
      "- witness:" if not empty else "", format_trace(witness) if witness else "")

# DOT renderings for graphviz; deterministic output for a fixed input.
print("\nDOT for the minimal DFA of `G a`:")
print(to_dot(build_dfa(parse_formula("G a"))))
