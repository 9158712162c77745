"""Finite-trace dynamic logic toolkit.

Formulas over finite traces are compiled into alternating, nondeterministic,
deterministic, and two-way alternating automata, all cross-validated against
a direct semantic oracle; metric timing rules compile into difference
constraints for timestamp checking and derivation.
"""

from .afa import AFA
from .dot import to_dot
from .errors import (
    AlphabetMismatchError,
    BudgetError,
    InvalidValueError,
    ParseError,
    SizeLimitError,
    TraceLogicError,
    UnsupportedOperatorError,
    UntimedTraceError,
)
from .fa import (
    DFA,
    NFA,
    build_dfa,
    complement,
    dealternate,
    determinize,
    dfa_accepts,
    enumerate_accepted,
    equivalent,
    is_empty,
    minimize,
    nfa_accepts,
)
from .formula import (
    atoms,
    format_formula,
    format_path,
    nnf,
    nnf_not,
    to_dynamic_core,
)
from .metric import (
    ConstraintSystem,
    DiffConstraint,
    Infeasible,
    MetricProgram,
    MetricRule,
    UntimedViolationError,
    Witness,
    check_program,
    enumerate_models,
    extract_constraints,
    feasible,
)
from .oracle import evaluate, holds, path_relation
from .parser import parse_formula, parse_program, parse_trace
from .trace import TimedTrace, Trace, enumerate_traces, format_trace
from .twafa import TwoAFA

__all__ = [
    "AFA",
    "AlphabetMismatchError",
    "BudgetError",
    "ConstraintSystem",
    "DFA",
    "DiffConstraint",
    "Infeasible",
    "InvalidValueError",
    "MetricProgram",
    "MetricRule",
    "NFA",
    "ParseError",
    "SizeLimitError",
    "TimedTrace",
    "Trace",
    "TraceLogicError",
    "TwoAFA",
    "UnsupportedOperatorError",
    "UntimedTraceError",
    "UntimedViolationError",
    "Witness",
    "atoms",
    "build_dfa",
    "check_program",
    "complement",
    "dealternate",
    "determinize",
    "dfa_accepts",
    "enumerate_accepted",
    "enumerate_models",
    "enumerate_traces",
    "equivalent",
    "evaluate",
    "extract_constraints",
    "feasible",
    "format_formula",
    "format_path",
    "format_trace",
    "holds",
    "is_empty",
    "minimize",
    "nfa_accepts",
    "nnf",
    "nnf_not",
    "parse_formula",
    "parse_program",
    "parse_trace",
    "path_relation",
    "to_dot",
    "to_dynamic_core",
]
