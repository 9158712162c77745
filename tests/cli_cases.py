"""The command line's contract: one row per invocation, with its exact exit code, stdout and stderr.

Each row runs in a fresh directory that holds only its input files, which
is the working directory of the run, so a path in the expected output is
the file's bare name.  After the run the directory must hold exactly those
files.  An omitted stream is expected empty; every stream is compared byte
for byte.  A new behaviour of the command line is a new row.

Two runners read the table.  Tier-1's `test_cli.py::test_cli_case[<name>]`
runs each row through `cli.run` in-process.  This file, run as a script,
runs each row through the `tracelogic` console script on `PATH`, the one
that `pip install` puts there, in a subprocess:

    python tests/cli_cases.py

It exits 1 when a row does not match or no `tracelogic` is on `PATH`.
Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

from conftest import release_chain, until_chain

TIMEOUT_S = 60


@dataclass(frozen=True)
class Case:
    name: str  # kebab-case, the pytest id
    argv: tuple[str, ...]
    code: int
    stdout: str = ""
    stderr: str = ""
    files: dict[str, str | bytes] = field(default_factory=dict)  # name -> contents, written before the run

    def expected(self) -> tuple:
        return self.code, self.stdout.encode(), self.stderr.encode(), sorted(self.files)


def prepare(case: Case, directory: str) -> None:
    """Write the row's input files into `directory`."""
    for name, contents in case.files.items():
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(contents if isinstance(contents, bytes) else contents.encode())


def outcome(code: int, stdout: bytes, stderr: bytes, directory: str) -> tuple:
    """What a run left, in the order of `Case.expected`."""
    return code, stdout, stderr, sorted(os.listdir(directory))


def lines(*texts: str) -> str:
    return "".join(f"{text}\n" for text in texts)


MUTEX = " & ".join(f"G !(a{2 * i} & a{2 * i + 1})" for i in range(7))  # 14 atoms
DISJUNCTION = " | ".join(f"a{i}" for i in range(17))
NEXT_CONJUNCTION = " & ".join(f"X a{i}" for i in range(17))
NEXT_CHAIN = "X (" * 240 + "a" + ")" * 240
DIGITS = sys.get_int_max_str_digits()  # 4,300 unless the interpreter is told otherwise
NINES = "9" * DIGITS
SPELL_LIMIT = "limit exceeded: alphabet of 17 atoms has more than 2^16 letters to spell out\n"
SCHOOL = "X[20,40) school :- drive."
HEADS = "X[2,4) b :- a. c :- b."
LONG_UNTIMED = ";".join(["{a}", "{b}"] * 160) + ";{a,B}"  # 320 steps, then a name that breaks the atom rule
LONG_TIMED = ";".join(f"{{a}}@{i}" for i in range(300)) + ";{b}@7"  # 300 steps, then a stamp that goes back
WIDE_BODY = "X[1,3) b :- " + ", ".join(["a"] * 2000) + "."  # a body of 2,000 literals


CASES = (
    # The console script on the golden row of `G (a -> F b)`.
    Case("compile-response-to-min-dfa", ("compile", "-f", "G (a -> F b)", "--to", "min-dfa"), 0,
         "states 2 transitions 8\n"),
    Case("parse-canonical-form", ("parse", "-f", "a&  b"), 0, "a & b\n"),
    Case("parse-error-at-the-end", ("parse", "-f", "a U"), 2,
         stderr="parse error: 1:4: expected a formula, found end of input\n"),
    Case("parse-non-ascii-digit", ("parse", "-f", "X[²,3) a"), 2,
         stderr="parse error: 1:3: expected a token, found '²'\n"),
    Case("parse-next-nested-200-deep", ("parse", "-f", "X (" * 200 + "a" + ")" * 200), 0, "X " * 200 + "a\n"),
    Case("parse-formula-file-not-utf8", ("parse", "--formula-file", "formula.txt"), 2,
         stderr="error: cannot read formula.txt: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
         files={"formula.txt": b"\xffa"}),

    Case("accepts-eventually", ("accepts", "-f", "F b", "-t", "{a};{b}"), 0, "ACCEPTED\n"),
    Case("accepts-always-rejected", ("accepts", "-f", "G a", "-t", "{a};{b}"), 1, "REJECTED\n"),
    *(
        Case(f"accepts-until-on-{backend}", ("accepts", "-f", "a U b", "-t", "{a};{b}", "--backend", backend), 0,
             "ACCEPTED\n")
        for backend in ("oracle", "afa", "nfa", "dfa", "2afa")
    ),
    Case("accepts-past-on-2afa", ("accepts", "-f", "F (b & Y a)", "-t", "{a};{b}", "--backend", "2afa"), 0,
         "ACCEPTED\n"),
    Case("accepts-past-on-afa-is-an-error", ("accepts", "-f", "Y a", "-t", "{a}", "--backend", "afa"), 2,
         stderr="error: past operator Prev needs the two-way backend\n"),
    *(
        Case(f"accepts-metric-next-on-untimed-{name}", ("accepts", "--backend", "oracle", "-f", "a | X[1,2) b", "-t", trace),
             2, stderr="error: metric next needs a timed trace\n")
        for name, trace in (("trace", "{a};{b}"), ("trace-not-starting-with-a", "{};{b}"))
    ),
    Case("accepts-metric-formula-on-oracle", ("accepts", "-f", "X[20,40) school", "-t", "{drive}@0;{school}@25"), 0,
         "ACCEPTED\n"),
    Case("accepts-metric-formula-on-dfa-is-an-error",
         ("accepts", "-f", "X[20,40) school", "-t", "{drive}@0;{school}@25", "--backend", "dfa"), 2,
         stderr="error: metric operator MetricNext needs the metric backend\n"),

    # End-point verdicts through the AFA, whose end values are folded from the
    # formula: `G (a -> WX b)` holds weakly after `{a}` but not after `{a};{}`,
    # and `X a` fails on the empty trace.
    Case("accepts-afa-weak-next-after-the-last-letter",
         ("accepts", "--backend", "afa", "-f", "G (a -> WX b)", "-t", "{a}"), 0, "ACCEPTED\n"),
    Case("accepts-afa-weak-next-before-an-empty-letter",
         ("accepts", "--backend", "afa", "-f", "G (a -> WX b)", "-t", "{a};{}"), 1, "REJECTED\n"),
    Case("accepts-afa-next-on-the-empty-trace", ("accepts", "--backend", "afa", "-f", "X a", "-t", "eps"), 1,
         "REJECTED\n"),
    Case("compile-weak-next-to-afa", ("compile", "--to", "afa", "-f", "G (a -> WX b)"), 0, "states 2 transitions 6\n"),

    *(
        Case(f"compile-until-to-{target}", ("compile", "-f", "a U b", "--to", target), 0, f"states {size}\n")
        for target, size in (
            ("afa", "1 transitions 3"), ("nfa", "2 transitions 7"), ("dfa", "3 transitions 12"),
            ("min-dfa", "3 transitions 12"), ("2afa", "6 transitions 23"),
        )
    ),
    Case("compile-dot-to-a-missing-directory", ("compile", "-f", "a U b", "--to", "dfa", "--dot", "missing/out.dot"), 2,
         stderr="error: cannot write missing/out.dot: [Errno 2] No such file or directory: 'missing/out.dot'\n"),
    Case("compile-dot-to-a-directory", ("compile", "-f", "a U b", "--to", "dfa", "--dot", "."), 2,
         stderr="error: cannot write .: [Errno 21] Is a directory: '.'\n"),
    # Dealternation spells no letter: the NFA of the 14-atom mutex formula is
    # sized from its class tables, and the minimal DFA's rows spell all 2^14
    # letters.  Over 17 atoms the NFA is refused before any class table is built.
    Case("compile-mutex-to-nfa", ("compile", "-f", MUTEX, "--to", "nfa"), 0, "states 2 transitions 4374\n"),
    Case("compile-mutex-to-min-dfa", ("compile", "-f", MUTEX, "--to", "min-dfa"), 0, "states 2 transitions 32768\n"),
    Case("compile-17-atom-disjunction-to-nfa", ("compile", "-f", DISJUNCTION, "--to", "nfa"), 3, stderr=SPELL_LIMIT),
    # Each state of the 2AFA of `a0 | … | a16` reads at most one atom, so
    # building, counting and running it spells out no letter over all 17, and
    # each state of the AFA of `X a0 & … & X a16` reads at most one atom before
    # its next step; drawing either spells them out, and writes no file.
    Case("compile-17-atom-disjunction-to-2afa", ("compile", "-f", DISJUNCTION, "--to", "2afa"), 0,
         "states 33 transitions 3211280\n"),
    Case("accepts-17-atom-disjunction-on-2afa", ("accepts", "-f", DISJUNCTION, "-t", "{a3}", "--backend", "2afa"), 0,
         "ACCEPTED\n"),
    Case("compile-17-atom-disjunction-to-2afa-dot", ("compile", "-f", DISJUNCTION, "--to", "2afa", "--dot", "out.dot"),
         3, stderr=SPELL_LIMIT),
    Case("compile-17-atom-next-conjunction-to-afa", ("compile", "-f", NEXT_CONJUNCTION, "--to", "afa"), 0,
         "states 18 transitions 1245184\n"),
    Case("compile-17-atom-next-conjunction-to-afa-dot",
         ("compile", "-f", NEXT_CONJUNCTION, "--to", "afa", "--dot", "out.dot"), 3, stderr=SPELL_LIMIT),
    # The depth-128 until and release chains to both alternating automata: a
    # build that grows faster than the formula takes minutes instead of a second.
    *(
        Case(f"compile-{kind}-chain-128-to-{target}", ("compile", "-f", chain(128), "--to", target), 0,
             f"states {size}\n")
        for kind, chain, target, size in (
            ("until", until_chain, "afa", "128 transitions 384"),
            ("until", until_chain, "2afa", "514 transitions 2436"),
            ("release", release_chain, "afa", "128 transitions 256"),
            ("release", release_chain, "2afa", "260 transitions 1552"),
        )
    ),
    # `X (X (… a …))` nested 240 deep, near the parser's depth limit: every
    # fold over the formula must take no more frames per level than the parser.
    Case("compile-next-chain-240-to-min-dfa", ("compile", "-f", NEXT_CHAIN, "--to", "min-dfa"), 0,
         "states 243 transitions 486\n"),
    Case("accepts-next-chain-240-on-2afa", ("accepts", "-f", NEXT_CHAIN, "-t", ";".join(["{a}"] * 241), "--backend", "2afa"),
         0, "ACCEPTED\n"),
    # The DOT of a release chain's 2AFA needs about 2^(d + 3) disjuncts: at
    # depth 16 the rendering stops at its 2^16 bound and writes no file.
    Case("compile-release-chain-16-dot-past-the-bound",
         ("compile", "-f", release_chain(16), "--to", "2afa", "--dot", "chain.dot"), 3,
         stderr="limit exceeded: DOT rendering needs more than 65536 disjuncts\n"),

    Case("filter-keeps-the-accepted-plans", ("filter", "-f", "F b", "--traces", "traces.txt"), 0,
         lines("{a};{b}", "{b}"), "kept 2 of 4\n", files={"traces.txt": lines("{a};{b}", "{b}", "eps", "{a};{a}")}),
    Case("filter-negate-keeps-the-rejected-plans", ("filter", "-f", "F b", "--traces", "traces.txt", "--negate"), 0,
         lines("eps", "{a};{a}"), "kept 2 of 4\n", files={"traces.txt": lines("{a};{b}", "{b}", "eps", "{a};{a}")}),
    # Plans in the form `format_trace` writes and in spaced, commented and
    # timed forms, all of which the parser reads by splitting.
    Case("filter-canonical-spaced-commented-and-timed-plans", ("filter", "-f", "F b", "--traces", "plans.txt"), 0,
         lines("{a};{b}", "{ a , b } ; {}", "{a};{b} % ends in b", "{a}@0;{b}@5"), "kept 4 of 6\n",
         files={"plans.txt": lines("{a};{b}", "{};{a}", "{ a , b } ; {}", "{a};{b} % ends in b", "{a}@0;{b}@5", "{a};{a}")}),
    # Empty and whitespace-only lines between plans are neither printed nor counted.
    Case("filter-skips-blank-lines", ("filter", "-f", "F b", "--traces", "plans.txt"), 0, lines("{a};{b}", "{b}"),
         "kept 2 of 4\n", files={"plans.txt": "\n{a};{b}\n   \n{a}\n\t\n\neps\n  {b}  \n \n"}),
    # At a malformed plan `filter` stops: the lines kept before it are on
    # stdout, and stderr has the error with its line and column, and no summary.
    Case("filter-stops-at-decreasing-stamps", ("filter", "-f", "F b", "--traces", "bad-plans.txt"), 2,
         lines("{a};{b}", "{ a }@0 ; {b} @ 5 % timed"), "parse error: bad-plans.txt:3:11: expected a timestamp >= 5, found 3\n",
         files={"bad-plans.txt": lines("{a};{b}", "{ a }@0 ; {b} @ 5 % timed", "{a}@5;{b}@3", "{b}")}),
    Case("filter-stops-at-a-missing-letter", ("filter", "-f", "F b", "--traces", "plans.txt"), 2,
         lines("{a};{b}", "{b}"), "parse error: plans.txt:3:5: expected '{', found ';'\n",
         files={"plans.txt": lines("{a};{b}", "{b}", "{a};;{b}", "{b};{b}")}),
    Case("filter-stops-at-a-stamp-past-the-digit-limit", ("filter", "-f", "F b", "--traces", "plans.txt"), 2,
         "{a};{b}\n", f"parse error: plans.txt:2:5: expected a number of at most {DIGITS} digits, found 5000 digits\n",
         files={"plans.txt": lines("{a};{b}", "{a}@" + "9" * 5000, "{b}")}),
    Case("filter-stops-at-an-atom-deep-in-a-long-plan", ("filter", "-f", "F b", "--traces", "plans.txt"), 2,
         "{a};{b}\n", "parse error: plans.txt:2:1284: expected an atom, found 'B'\n",
         files={"plans.txt": lines("{a};{b}", LONG_UNTIMED, "{b}")}),
    Case("filter-stops-at-a-stamp-deep-in-a-long-plan", ("filter", "-f", "F b", "--traces", "plans.txt"), 2,
         "{a};{b}\n", "parse error: plans.txt:2:2295: expected a timestamp >= 299, found 7\n",
         files={"plans.txt": lines("{a};{b}", LONG_TIMED, "{b}")}),
    # Plans are read line by line: a byte that is not UTF-8 is placed, and the
    # lines kept before it are printed.  Lines end where `str.splitlines` ends
    # them, and a comment must be UTF-8 too.
    Case("filter-plan-not-utf8", ("filter", "-f", "F b", "--traces", "not-utf8.txt"), 2,
         stderr="parse error: not-utf8.txt:1:1: expected UTF-8 text, found byte 0xff\n",
         files={"not-utf8.txt": b"\xff{a};{b}\n"}),
    Case("filter-late-plan-not-utf8", ("filter", "-f", "F b", "--traces", "late.txt"), 2,
         lines("{a};{b}", "{b}"), "parse error: late.txt:3:4: expected UTF-8 text, found byte 0xff\n",
         files={"late.txt": b"{a};{b}\n{b}\n{a}\xff\n"}),
    Case("filter-comment-not-utf8", ("filter", "-f", "F b", "--traces", "late.txt"), 2,
         lines("{b}", "{b}"), "parse error: late.txt:4:10: expected UTF-8 text, found byte 0xe9\n",
         files={"late.txt": b"{b}\r{a}\x0b{b}\r\n{b} % caf\xe9\n{b}\n"}),

    Case("enumerate-up-to-length-2", ("enumerate", "-f", "a", "--ap", "a", "--max-len", "2"), 0,
         lines("{a}", "{a};{}", "{a};{a}")),
    Case("enumerate-skips-empty-alphabet-entries", ("enumerate", "-f", "a", "--ap", "a,,b", "--max-len", "1"), 0,
         lines("{a}", "{a,b}")),
    Case("enumerate-alphabet-name-not-an-atom", ("enumerate", "-f", "a", "--ap", "a,B c,{x}", "--max-len", "1"), 2,
         stderr="error: invalid atom name: 'B c'\n"),
    Case("enumerate-negative-length", ("enumerate", "-f", "a", "--ap", "a", "--max-len", "-1"), 2,
         stderr="error: trace length bound -1 is negative\n"),
    Case("enumerate-too-many-traces", ("enumerate", "-f", "tt", "--ap", "a,b,c,d", "--max-len", "12"), 3,
         stderr="limit exceeded: trace enumeration over 4 atoms up to length 12 exceeds the size bound\n"),

    Case("equiv-equivalent", ("equiv", "-f", "F a", "-g", "<tt*> a"), 0, "EQUIVALENT\n"),
    Case("equiv-counterexample", ("equiv", "-f", "X a", "-g", "WX a"), 1, "eps\n"),

    Case("metric-check-satisfied", ("metric", "check", "--program-text", SCHOOL, "-t", "{drive}@0;{school}@25"), 0),
    Case("metric-check-violated", ("metric", "check", "--program-text", SCHOOL, "-t", "{drive}@0;{school}@10"), 1,
         "rule 0 at step 0\n"),
    Case("metric-check-program-file-satisfied", ("metric", "check", "-p", "school.mlp", "-t", "{drive}@0;{school}@25"), 0,
         files={"school.mlp": SCHOOL + "\n"}),
    Case("metric-check-program-file-violated", ("metric", "check", "-p", "school.mlp", "-t", "{drive}@0;{school}@45"), 1,
         "rule 0 at step 0\n", files={"school.mlp": SCHOOL + "\n"}),
    Case("metric-check-program-file-missing", ("metric", "check", "-p", "missing.mlp", "-t", "{a}@0"), 2,
         stderr="error: cannot read missing.mlp: [Errno 2] No such file or directory: 'missing.mlp'\n"),
    # `check` needs a timed trace, and `times` an untimed one.
    Case("metric-check-untimed-trace", ("metric", "check", "--program-text", SCHOOL, "-t", "{drive};{school}"), 2,
         stderr="error: metric check needs a timed trace (steps suffixed with @t)\n"),
    Case("metric-times-timed-trace", ("metric", "times", "--program-text", SCHOOL, "-t", "{drive}@0;{school}@25"), 2,
         stderr="error: metric times derives timestamps; give an untimed trace\n"),
    # An infeasible plan's cycle in walk order, and a feasible one's least
    # timestamps.  Constraint 1 is drive's [20,40) at step 2 and constraint 2
    # is hurry's [1,3) there: the walk goes forward by 20 and back by at most 2.
    Case("metric-times-infeasible",
         ("metric", "times", "--program-text", "X[20,40) school :- drive.\nX[1,3) school :- hurry.",
          "-t", "{drive};{school};{drive,hurry};{school}"), 1, lines("INFEASIBLE", "cycle: 1, 2")),
    # `a` asks for `b` exactly 1 and 3 to 4 time units later, both at once.
    Case("metric-times-disjoint-windows",
         ("metric", "times", "--program-text", "X[1,2) b :- a.\nX[3,5) b :- a.", "-t", "{a};{b}"), 1,
         lines("INFEASIBLE", "cycle: 1, 0")),
    Case("metric-times-feasible", ("metric", "times", "--program-text", SCHOOL, "-t", "{drive};{school}"), 0,
         "{drive}@0;{school}@20\n"),
    Case("metric-times-program-file-feasible", ("metric", "times", "-p", "school.mlp", "-t", "{drive};{school}"), 0,
         "{drive}@0;{school}@20\n", files={"school.mlp": SCHOOL + "\n"}),
    Case("metric-times-program-file-untimed-violation", ("metric", "times", "-p", "school.mlp", "-t", "{drive};{}"), 1,
         "UNTIMED VIOLATION: rule 0 at step 0\n", files={"school.mlp": SCHOOL + "\n"}),
    Case("metric-times-program-file-infeasible", ("metric", "times", "-p", "conflict.mlp", "-t", "{a};{b}"), 1,
         lines("INFEASIBLE", "cycle: 1, 0"), files={"conflict.mlp": "X[5,10) b :- a.\nX[20,30) b :- a.\n"}),
    # `--strict` puts at least one time unit between consecutive steps.
    Case("metric-times-strict", ("metric", "times", "--program-text", "X[1,3) b :- a.", "-t", "{a};{b};{c}", "--strict"), 0,
         "{a}@0;{b}@1;{c}@2\n"),
    Case("metric-times-strict-infeasible",
         ("metric", "times", "--program-text", "X[0,1) b :- a.", "-t", "{a};{b}", "--strict"), 1,
         lines("INFEASIBLE", "cycle: 1, 0")),
    # Rule heads are the formula nodes `Atom` and `MetricNext`: a metric and a
    # plain head in one program, and an empty head interval, which the parser
    # places before any node is built.
    Case("metric-times-metric-and-plain-heads", ("metric", "times", "--program-text", HEADS, "-t", "{a};{b,c}"), 0,
         "{a}@0;{b,c}@2\n"),
    Case("metric-times-empty-head-interval", ("metric", "times", "--program-text", "X[3,3) a :- b.", "-t", "{b};{a}"), 2,
         stderr="parse error: 1:2: expected a non-empty interval (lower < upper), found [3,3)\n"),
    # `metric enumerate` prints each model as a `TimedTrace`, whose
    # constructor is the one check that stamps do not decrease.
    Case("metric-enumerate-timed-rule-and-constraint",
         ("metric", "enumerate", "--program-text", "X[2,4) school :- drive.\n:- school, drive.",
          "--ap", "drive,school", "--horizon", "2"), 0,
         lines("{}@0;{}@0", "{}@0;{school}@0", "{drive}@0;{school}@2", "{school}@0;{}@0", "{school}@0;{school}@0")),
    Case("metric-enumerate-metric-and-plain-heads",
         ("metric", "enumerate", "--program-text", HEADS, "--ap", "", "--horizon", "2"), 0,
         lines("{}@0;{}@0", "{}@0;{b,c}@0", "{}@0;{c}@0", "{a}@0;{b,c}@2", "{a,b,c}@0;{b,c}@2", "{a,c}@0;{b,c}@2",
               "{b,c}@0;{}@0", "{b,c}@0;{b,c}@0", "{b,c}@0;{c}@0", "{c}@0;{}@0", "{c}@0;{b,c}@0", "{c}@0;{c}@0")),
    Case("metric-enumerate-program-file", ("metric", "enumerate", "-p", "p.mlp", "--ap", "drive,school", "--horizon", "1"),
         0, lines("{}@0", "{school}@0"), files={"p.mlp": ":- drive.\n"}),
    Case("metric-enumerate-alphabet-name-not-an-atom",
         ("metric", "enumerate", "--program-text", "X[1,2) b :- a.", "--ap", "a;b", "--horizon", "1"), 2,
         stderr="error: invalid atom name: 'a;b'\n"),
    Case("metric-enumerate-too-many-atoms",
         ("metric", "enumerate", "--program-text", SCHOOL, "--ap", ",".join(f"p{i}" for i in range(9)), "--horizon", "1"),
         3, stderr="limit exceeded: trace enumeration over 11 atoms up to length 1 exceeds the size bound\n"),
    # A body is read down its conjunction in a loop: 2,000 literals take no
    # frame each, where checking a rule against a trace would nest too deeply.
    Case("metric-enumerate-wide-body", ("metric", "enumerate", "--program-text", WIDE_BODY, "--ap", "a,b", "--horizon", "2"),
         0, lines("{}@0;{}@0", "{}@0;{b}@0", "{a}@0;{b}@1", "{a,b}@0;{b}@1", "{b}@0;{}@0", "{b}@0;{b}@0")),
    Case("metric-enumerate-negative-horizon",
         ("metric", "enumerate", "--program-text", "a :- b.", "--ap", "a,b", "--horizon", "-2"), 2,
         stderr="error: trace length bound -2 is negative\n"),
    # A bound with as many nines as Python converts to text: the stamps that
    # pass it cannot be printed.  `metric enumerate` prints the models before
    # the first such stamp, then stops.
    Case("metric-times-stamp-too-long-to-print",
         ("metric", "times", "--program-text", f"X[{NINES},inf) b :- a.", "-t", "{a};{b,a};{b}"), 3,
         stderr=f"limit exceeded: a timestamp has more than {DIGITS} digits to print\n"),
    Case("metric-enumerate-stamp-too-long-to-print",
         ("metric", "enumerate", "--program-text", f"X[{NINES},inf) b :- a.", "--ap", "a,b", "--horizon", "3"), 3,
         lines("{}@0;{}@0;{}@0", "{}@0;{}@0;{b}@0", "{}@0;{a}@0;{b}@" + NINES, "{}@0;{a,b}@0;{b}@" + NINES,
               "{}@0;{b}@0;{}@0", "{}@0;{b}@0;{b}@0"),
         f"limit exceeded: a timestamp has more than {DIGITS} digits to print\n"),
)


def main() -> int:
    script = shutil.which("tracelogic")
    if script is None:
        print("no `tracelogic` on PATH: install the package (pip install -e .) first")
        return 1
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory(prefix="tracelogic-cli-") as directory:
            prepare(case, directory)
            try:
                done = subprocess.run([script, *case.argv], cwd=directory, capture_output=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                got = f"no exit in {TIMEOUT_S} s"
            else:
                got = outcome(done.returncode, done.stdout, done.stderr, directory)
        if got == case.expected():
            continue
        failed += 1
        print(f"FAILED {case.name}: tracelogic {shlex.join(case.argv)[:200]}")
        print(f"  expected (code, stdout, stderr, files): {str(case.expected())[:2000]}")
        print(f"  got: {str(got)[:2000]}")
    print(f"{len(CASES)} cases through {script}, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
