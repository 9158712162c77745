"""Command-line surface for the toolkit.

Exit codes: 0 success/accepted, 1 negative verdict (rejected, inequivalent,
violations, infeasible), 2 parse or validation errors, 3 exceeded budgets.
"""

from __future__ import annotations

import argparse
import signal
import sys

from . import formula as fm
from . import oracle
from .afa import AFA, BEGIN, END
from .dot import to_dot
from .errors import (
    AlphabetMismatchError,
    BudgetError,
    ParseError,
    SizeLimitError,
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
    minimize,
    nfa_accepts,
)
from .metric import UntimedViolationError, Witness, check_program, enumerate_models, extract_constraints, feasible
from .parser import parse_formula, parse_program, parse_trace
from .trace import TimedTrace, Trace, check_enumeration_bound, format_trace, letters_over
from .twafa import TwoAFA

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_INVALID) from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}", EXIT_INVALID) from exc


# Each text input `<name>` comes inline (dest `<name>`) or from a file (dest
# `<name>_file`), by two exclusive flags: (flags, dest, metavar, help) in help order.
_INPUT_FLAGS = (
    (("-f", "--formula"), "formula", "FORMULA", "inline formula text"),
    (("--formula-file",), "formula_file", "PATH", "file containing the formula"),
    (("-g", "--other"), "other", "FORMULA", "inline formula text"),
    (("--other-file",), "other_file", "PATH", "file containing the formula"),
    (("-t", "--trace"), "trace", "TRACE", "inline trace text"),
    (("--trace-file",), "trace_file", "PATH", "file containing the trace"),
    (("-p", "--program"), "program_file", "PATH", "metric program file"),
    (("--program-text",), "program", "RULES", "inline program text"),
)


def _input_arg(parser: argparse.ArgumentParser, name: str) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    for flags, dest, metavar, text in _INPUT_FLAGS:
        if dest in (name, f"{name}_file"):
            group.add_argument(*flags, dest=dest, metavar=metavar, help=text)


def _input(args, name: str) -> str:
    """The text of an input: given inline, or read from the named file."""
    text = getattr(args, name)
    return text if text is not None else _read(getattr(args, f"{name}_file"))


def _parse_ap(text: str) -> set[str]:
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if name and not fm._ATOM_RE.match(name):
            raise _CliError(f"invalid atom name: {name!r}", EXIT_INVALID)
    return {name for name in names if name}


def _core(f: fm.Formula) -> fm.Formula:
    return fm.to_dynamic_core(fm.nnf(f))


def _restricted(t, ap) -> Trace:
    alphabet = frozenset(ap)
    return Trace(tuple(letter & alphabet for letter in t.letters))


def _cmd_parse(args) -> int:
    print(fm.format_formula(parse_formula(_input(args, "formula"))))
    return EXIT_OK


# Each `compile --to` target and `accepts --backend` automaton: how it is built
# from the dynamic core, and how it reads a trace over its alphabet.
_BACKENDS = {
    "afa": (AFA, AFA.accepts),
    "nfa": (lambda core: dealternate(AFA(core)), nfa_accepts),
    "dfa": (lambda core: determinize(dealternate(AFA(core))), dfa_accepts),
    "min-dfa": (lambda core: minimize(determinize(dealternate(AFA(core)))), dfa_accepts),
    "2afa": (TwoAFA, TwoAFA.accepts),
}


def _size(automaton) -> str:
    """`states N transitions M`; alternating automata count the transitions that are not false.

    A state's transition at a letter depends only on the atoms it reads, so
    each one over those atoms stands for the 2^(|AP| - |read atoms|) letters
    that project onto it, as does each successor in an NFA state's class
    table; the 2AFA adds its transitions at the two markers.
    """
    if isinstance(automaton, DFA):
        return f"states {automaton.n_states} transitions {automaton.n_states * len(automaton.letters)}"
    if isinstance(automaton, NFA):
        count = sum(
            2 ** (len(automaton.ap) - mask.bit_count()) * sum(map(len, table.values()))
            for mask, table in zip(automaton.masks, automaton.tables)
        )
        return f"states {len(automaton.states)} transitions {count}"
    count = 0
    for q, local in enumerate(automaton.reads):
        images = (automaton.delta(q, letter) for letter in letters_over(local))
        count += 2 ** (len(automaton.ap) - len(local)) * _live(images)
    if isinstance(automaton, TwoAFA):
        count += _live(automaton.delta(q, m) for q in range(len(automaton)) for m in (BEGIN, END))
    return f"states {len(automaton)} transitions {count}"


def _live(images) -> int:
    return sum(pbf is not False for pbf in images)


def _cmd_compile(args) -> int:
    build, _ = _BACKENDS[args.to]
    automaton = build(_core(parse_formula(_input(args, "formula"))))
    if args.dot:  # before the size line: rendering may exceed a limit and writing may fail
        _write(args.dot, to_dot(automaton))
    print(_size(automaton))
    return EXIT_OK


def _cmd_accepts(args) -> int:
    f = parse_formula(_input(args, "formula"))
    t = parse_trace(_input(args, "trace"))
    if args.backend == "oracle":
        verdict = oracle.holds(f, t)
    else:
        build, accepts = _BACKENDS[args.backend]
        automaton = build(_core(f))
        verdict = accepts(automaton, _restricted(t, automaton.ap))
    print("ACCEPTED" if verdict else "REJECTED")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_filter(args) -> int:
    f = parse_formula(_input(args, "formula"))
    dfa = build_dfa(f)
    if args.negate:
        dfa = complement(dfa)
    kept = 0
    total = 0
    for number, raw in enumerate(_read(args.traces).splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        total += 1
        try:
            t = parse_trace(raw)
        except ParseError as exc:
            # Lines kept so far are already on stdout; the summary is not printed.
            where = f"{args.traces}:{number}:{exc.column}"
            print(f"parse error: {where}: expected {exc.expected}, found {exc.found}", file=sys.stderr)
            return EXIT_INVALID
        if dfa_accepts(dfa, _restricted(t, dfa.ap)):
            kept += 1
            print(line)
    print(f"kept {kept} of {total}", file=sys.stderr)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    f = parse_formula(_input(args, "formula"))
    ap = _parse_ap(args.ap) | fm.atoms(f)
    check_enumeration_bound(ap, args.max_len)
    dfa = build_dfa(f, sorted(ap))
    for t in enumerate_accepted(dfa, args.max_len):
        print(format_trace(t))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    f = parse_formula(_input(args, "formula"))
    g = parse_formula(_input(args, "other"))
    same, counterexample = equivalent(f, g)
    if same:
        print("EQUIVALENT")
        return EXIT_OK
    print(format_trace(counterexample))
    return EXIT_NEGATIVE


def _cmd_metric_check(args) -> int:
    program = parse_program(_input(args, "program"))
    t = parse_trace(_input(args, "trace")) or TimedTrace((), ())  # `eps` has no step to carry a time
    if not isinstance(t, TimedTrace):
        raise _CliError("metric check needs a timed trace (steps suffixed with @t)", EXIT_INVALID)
    violations = check_program(program, t)
    for rule, step in violations:
        print(f"rule {rule} at step {step}")
    return EXIT_NEGATIVE if violations else EXIT_OK


def _cmd_metric_times(args) -> int:
    program = parse_program(_input(args, "program"))
    t = parse_trace(_input(args, "trace"))
    if isinstance(t, TimedTrace):
        raise _CliError("metric times derives timestamps; give an untimed trace", EXIT_INVALID)
    try:
        system = extract_constraints(program, t, strict=args.strict)
    except UntimedViolationError as exc:
        print(f"UNTIMED VIOLATION: rule {exc.rule_index} at step {exc.position}")
        return EXIT_NEGATIVE
    solution = feasible(system)
    if isinstance(solution, Witness):
        print(format_trace(TimedTrace(t.letters, solution.times)))
        return EXIT_OK
    print("INFEASIBLE")
    print("cycle: " + ", ".join(str(i) for i in solution.cycle))
    return EXIT_NEGATIVE


def _cmd_metric_enumerate(args) -> int:
    program = parse_program(_input(args, "program"))
    ap = _parse_ap(args.ap) | program.universe()
    for t in enumerate_models(program, sorted(ap), args.horizon):
        print(format_trace(t))
    return EXIT_OK


def _build_argparser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="tracelogic", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical form of a formula")
    _input_arg(p, "formula")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("compile", help="compile a formula into an automaton")
    _input_arg(p, "formula")
    p.add_argument("--to", choices=tuple(_BACKENDS), required=True)
    p.add_argument("--dot", metavar="PATH", help="write a DOT rendering")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("accepts", help="check one trace against a formula")
    _input_arg(p, "formula")
    _input_arg(p, "trace")
    p.add_argument("--backend", choices=("oracle", "afa", "nfa", "dfa", "2afa"), default="oracle")
    p.set_defaults(handler=_cmd_accepts)

    p = sub.add_parser("filter", help="keep traces satisfying (or violating) a formula")
    _input_arg(p, "formula")
    p.add_argument("--traces", metavar="PATH", required=True, help="file with one trace per line")
    p.add_argument("--negate", action="store_true", help="keep the rejected traces instead")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("enumerate", help="list all accepted traces up to a length")
    _input_arg(p, "formula")
    p.add_argument("--ap", required=True, help="comma-separated alphabet")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("equiv", help="decide language equivalence of two formulas")
    _input_arg(p, "formula")
    _input_arg(p, "other")
    p.set_defaults(handler=_cmd_equiv)

    metric = sub.add_parser("metric", help="metric program commands")
    msub = metric.add_subparsers(dest="metric_command", required=True)

    p = msub.add_parser("check", help="check a timed trace against a program")
    _input_arg(p, "program")
    _input_arg(p, "trace")
    p.set_defaults(handler=_cmd_metric_check)

    p = msub.add_parser("times", help="derive minimal timestamps for an untimed trace")
    _input_arg(p, "program")
    _input_arg(p, "trace")
    p.add_argument("--strict", action="store_true", help="require strictly increasing timestamps")
    p.set_defaults(handler=_cmd_metric_times)

    p = msub.add_parser("enumerate", help="list timed models up to a horizon")
    _input_arg(p, "program")
    p.add_argument("--ap", required=True, help="comma-separated alphabet")
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(handler=_cmd_metric_enumerate)

    return root


def run(argv=None) -> int:
    """Execute one invocation; returns the process exit code."""
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (UnsupportedOperatorError, AlphabetMismatchError, UntimedTraceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (BudgetError, SizeLimitError) as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: input nested too deeply (maximum recursion depth exceeded)", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    # A reader that closes stdout ends the process by the default SIGPIPE
    # action, as it ends `cat`, rather than by an exit status that reads as a verdict.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
