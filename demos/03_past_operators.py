"""Past operators via two-way automata.

The one-way backends reject Y/WY/S/T; the two-way automaton walks left
through the trace instead, and acceptance is a least fixpoint over
(state, position) configurations.
"""

from tracelogic import (
    AFA,
    TwoAFA,
    UnsupportedOperatorError,
    holds,
    nnf,
    parse_formula,
    parse_trace,
    to_dynamic_core,
)
from tracelogic.trace import enumerate_traces

came_from = parse_formula("F (alarm & Y armed)")
core = to_dynamic_core(nnf(came_from))

try:
    AFA(core)
except UnsupportedOperatorError as exc:
    print("one-way backend refuses past operators:", exc)

automaton = TwoAFA(core, ("alarm", "armed"))
print("\ntwo-way automaton has", len(automaton), "states")

for text in ("{armed};{alarm}", "{alarm};{armed}", "{armed,alarm}"):
    t = parse_trace(text)
    print(f"  {text:20} ->", "accepted" if automaton.accepts(t) else "rejected")

# ---------------------------------------------------------------------------
# Since and trigger: `a S b` scans left for a b after which a held
# throughout; `a T b` is its universal mirror.

since = parse_formula("F (done & (work S start))")
since_auto = TwoAFA(to_dynamic_core(nnf(since)), ("done", "work", "start"))
good = parse_trace("{start};{work};{work,done}")
bad = parse_trace("{work};{work,done}")
print("\nwork S start before done:")
print("  with a start:", since_auto.accepts(good))
print("  never started:", since_auto.accepts(bad))

# ---------------------------------------------------------------------------
# Progress-free star loops need no special casing here: the least fixpoint
# simply never justifies them.

loop = TwoAFA(to_dynamic_core(nnf(parse_formula("<(tt?)*> ff"))), ("a",))
print("\n<(tt?)*> ff accepted anywhere:",
      any(loop.accepts(t) for t in enumerate_traces(("a",), 3)))

# The two-way verdicts coincide with the direct semantics.
f = parse_formula("G (stop -> Y go)")
auto = TwoAFA(to_dynamic_core(nnf(f)), ("stop", "go"))
agree = all(auto.accepts(t) == holds(f, t) for t in enumerate_traces(("stop", "go"), 3))
print("\ntwo-way verdicts match the oracle on all short traces:", agree)
