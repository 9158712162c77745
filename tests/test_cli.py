import contextlib
import io
import os
import pathlib
import random
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import cli_cases
from conftest import random_core_formula, release_chain, renamed
from tracelogic import cli
from tracelogic.cli import _size, run
from tracelogic.dot import _dnf, to_dot
from tracelogic.fa import build_dfa
from tracelogic.afa import AFA
from tracelogic.errors import SizeLimitError
from tracelogic.formula import And, nnf, to_dynamic_core
from tracelogic.parser import parse_formula
from tracelogic.trace import letters_over
from tracelogic.twafa import TwoAFA


def invoke(*argv):
    """`run(argv)` with its exit code, stdout and stderr, on a fresh thread.

    A fresh thread's stack starts near the depth the console script's does,
    so input nested close to the recursion limit reads as it reads there,
    not as it reads below pytest's frames.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), ThreadPoolExecutor(1) as thread:
        code = thread.submit(run, list(argv)).result()
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", cli_cases.CASES, ids=[case.name for case in cli_cases.CASES])
def test_cli_case(case, tmp_path, monkeypatch):
    """One row of `cli_cases.py`, run in-process in a directory that holds only its input files."""
    cli_cases.prepare(case, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(*case.argv)
    assert cli_cases.outcome(code, out.encode(), err.encode(), str(tmp_path)) == case.expected()


def test_cli_case_names_are_distinct_and_kebab_case():
    names = [case.name for case in cli_cases.CASES]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", name) for name in names)


def test_compile_counts_and_dot(tmp_path):
    code, out, _ = invoke("compile", "-f", "F a", "--to", "min-dfa")
    assert code == 0
    assert out.startswith("states 2 ")
    dot_path = tmp_path / "out.dot"
    code, _, _ = invoke("compile", "-f", "<tt> a", "--to", "afa", "--dot", str(dot_path))
    assert code == 0
    text = dot_path.read_text()
    assert text.startswith("digraph")
    assert '"a"' in text


def test_filter_after_negate_keeps_the_accepted_lines(tmp_path):
    """Every `run` of a process parses with one parser, and no option of a call carries over to the next."""
    path = tmp_path / "traces.txt"
    path.write_text("{a};{b}\n{b}\neps\n")
    code, out, _ = invoke("filter", "-f", "F b", "--traces", str(path), "--negate")
    assert (code, out) == (0, "eps\n")
    code, out, _ = invoke("filter", "-f", "F b", "--traces", str(path))
    assert (code, out) == (0, "{a};{b}\n{b}\n")
    assert cli._argparser() is cli._argparser()


def test_metric_check_accepts_every_enumerated_model():
    """`metric enumerate` prints `eps` for the empty model, and `metric check` reads it as the empty timed trace."""
    for program, ap, horizon in ((":- a.", "a", "0"), ("X[1,3) b :- a.", "a,b", "2")):
        code, out, _ = invoke("metric", "enumerate", "--program-text", program, "--ap", ap, "--horizon", horizon)
        assert code == 0 and out
        for model in out.splitlines():
            assert invoke("metric", "check", "--program-text", program, "-t", model) == (0, "", ""), model
    code, _, err = invoke("metric", "check", "--program-text", ":- a.", "-t", "{b}")
    assert (code, err) == (2, "error: metric check needs a timed trace (steps suffixed with @t)\n")


def test_every_input_reads_from_its_file(tmp_path):
    def file(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    cases = [
        (("accepts", "-f", "F b", "-t", "{a};{b}"),
         ("accepts", "--formula-file", file("f", "F b"), "--trace-file", file("t", "{a};{b}"))),
        (("equiv", "-f", "X a", "-g", "WX a"),
         ("equiv", "-f", "X a", "--other-file", file("g", "WX a"))),
        (("metric", "times", "--program-text", "X[2,5) b :- a.", "-t", "{a};{b}"),
         ("metric", "times", "-p", file("p", "X[2,5) b :- a."), "--trace-file", file("u", "{a};{b}"))),
    ]
    for inline, from_files in cases:
        assert invoke(*from_files) == invoke(*inline)


def test_inline_and_file_mutually_exclusive(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("a")
    code, _, _ = invoke("parse", "-f", "a", "--formula-file", str(path))
    assert code == 2


def test_alphabet_too_wide_to_spell_out_exits_three(monkeypatch):
    def no_letters(*args):
        raise AssertionError("a letter was built over 17 atoms")

    monkeypatch.setattr("tracelogic.trace.frozenset", no_letters, raising=False)
    wide = " | ".join(f"a{i}" for i in range(17))
    for target in ("dfa", "afa", "nfa", "min-dfa"):
        code, out, err = invoke("compile", "-f", wide, "--to", target)
        assert (code, out) == (3, ""), target
        assert err == "limit exceeded: alphabet of 17 atoms has more than 2^16 letters to spell out\n"
    code, out, _ = invoke("accepts", "-f", wide, "-t", "{a3}", "--backend", "afa")
    assert (code, out) == (0, "ACCEPTED\n")


def test_dot_of_a_deep_release_chain_exits_three(tmp_path):
    """A release chain's 2AFA draws about 2^(d + 3) disjuncts: depth 12 renders, depth 16 passes the bound.

    The product that would pass 2^16 disjuncts raises before it is built,
    and the CLI writes no DOT file.
    """
    shallow = to_dot(TwoAFA(to_dynamic_core(nnf(parse_formula(release_chain(12))))))
    assert (len(shallow), shallow.count(" -> ")) == (14_296_291, 426_089)
    with pytest.raises(SizeLimitError) as limit:
        to_dot(TwoAFA(to_dynamic_core(nnf(parse_formula(release_chain(16))))))
    assert (limit.value.stage, limit.value.limit, limit.value.reached) == ("dot", 2**16, 2**16 + 2)
    path = tmp_path / "out.dot"
    code, out, err = invoke("compile", "-f", release_chain(16), "--to", "2afa", "--dot", str(path))
    assert (code, out, err) == (3, "", "limit exceeded: DOT rendering needs more than 65536 disjuncts\n")
    assert not path.exists()


def test_dnf_keeps_the_duplicates_of_products():
    """A product keeps its duplicate leaf sets, and a disjunction keeps its left side's: the bytes depend on it.

    The right side of a disjunction adds only the sets not drawn yet, its own
    duplicates included.
    """
    product = (True, (False, 1, (True, 1, 2)), (False, (True, 2, 3), 3))
    assert _dnf(product, 0) == [(1, 2, 3), (1, 3), (1, 2, 2, 3), (1, 2, 3)]
    assert _dnf((False, product, product), 0) == _dnf(product, 0)
    assert _dnf((False, 3, product), 0) == [(3,), (1, 2, 3), (1, 3), (1, 2, 2, 3)]


def test_afa_size_matches_a_count_over_every_letter():
    rng = random.Random(113)
    for k in range(60):
        right = renamed(random_core_formula(rng, rng.randint(1, 9)), {"a": "c"})
        f = And(random_core_formula(rng, rng.randint(1, 9)), right)
        automaton = AFA(f, ("a", "b", "c", "d")[: 3 + k % 2])
        images = [automaton.delta(q, letter) for q in range(len(automaton)) for letter in letters_over(automaton.ap)]
        count = sum(pbf is not False for pbf in images)
        assert _size(automaton) == f"states {len(automaton)} transitions {count}"


def test_backends_agree_on_small_corpus():
    formulas = ["a U b", "G (a -> F b)", "<(a? ; tt)*> b", "WX a", "!a R b"]
    traces = ["eps", "{}", "{a}", "{a};{b}", "{b};{a};{a,b}"]
    for src in formulas:
        for trace in traces:
            verdicts = set()
            for backend in ("oracle", "afa", "nfa", "dfa", "2afa"):
                code, _, _ = invoke("accepts", "-f", src, "-t", trace, "--backend", backend)
                assert code in (0, 1)
                verdicts.add(code)
            assert len(verdicts) == 1, (src, trace)


def test_dot_deterministic():
    def render():
        core = to_dynamic_core(nnf(parse_formula("<tt> a")))
        return to_dot(AFA(core))

    assert render() == render()
    dfa_dot = to_dot(build_dfa(parse_formula("tt")))
    assert dfa_dot == to_dot(build_dfa(parse_formula("tt")))
    assert "doublecircle" in dfa_dot


def test_dot_contains_closure_state():
    core = to_dynamic_core(nnf(parse_formula("<tt> a")))
    text = to_dot(AFA(core))
    assert 'label="a"' in text


def test_afa_dot_draws_a_weak_state(tmp_path):
    """The AFA draws a box's weak step target as the 2AFA does: `weak(b)`."""
    path = tmp_path / "afa.dot"
    code, out, _ = invoke("compile", "-f", "[a] b", "--to", "afa", "--dot", str(path))
    assert (code, out) == (0, "states 2 transitions 6\n")
    text = path.read_text(encoding="utf-8")
    assert '  q1 [shape=doublecircle label="weak(b)"];\n' in text
    assert "[tt] ff" not in text


def test_dfa_dot_true_formula():
    text = to_dot(build_dfa(parse_formula("tt"), ("a",)))
    assert text.count("doublecircle") == 1
    assert text.count("->") >= 2  # init arrow plus one self-loop per letter


DEEP_INPUTS = {
    "nested next": "X (" * 1500 + "a" + ")" * 1500,
    "negations": "!" * 5000 + "a",
    "flat conjunction": " & ".join(["a"] * 3000),
}


def test_deep_nesting_is_not_a_verdict():
    for name, formula in DEEP_INPUTS.items():
        for argv in (["parse", "-f", formula], ["accepts", "-f", formula, "-t", "{a}"]):
            code, _, err = invoke(*argv)
            assert code == 2, (name, argv[0])
            assert "Traceback" not in err
            assert len(err.strip().splitlines()) == 1, (name, argv[0])


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-f", "tt", "--ap", "a", "--max-len", "9" * 20],
        ["metric", "enumerate", "--program-text", "a.", "--ap", "a", "--horizon", "9" * 20],
        ["enumerate", "-f", "tt", "--ap", "", "--max-len", "1000000"],
        ["enumerate", "-f", "tt", "--ap", "", "--max-len", "1414"],
    ],
)
def test_huge_lengths_exit_three(argv):
    """A 20-digit length is refused without computing 2^(|ap| * length), and the empty alphabet has a length bound.

    Each runs in a subprocess under a timeout, so that a bound that builds
    the number fails the test instead of hanging the suite.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "tracelogic.cli", *argv]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("limit exceeded: trace enumeration over ")


def test_closed_stdout_is_not_a_verdict():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "tracelogic.cli", "enumerate", "-f", "F a", "--ap", "a,b", "--max-len", "7"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "{a}\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert "Traceback" not in err
    assert code not in (0, 1, 2, 3)


@pytest.mark.parametrize("module", ["tracelogic", "tracelogic.cli"])
def test_import_loads_no_dataclasses_inspect_or_typing(module):
    """Importing the package or its command line loads none of `dataclasses`, `inspect` and `typing`.

    Each costs import time, which every command pays, and nothing at run
    time needs them.  `-S` leaves out the `site` imports, so that only the
    package's own import graph is seen.  This checks which modules load, not a time.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect', 'typing'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_value_error_inside_the_pipeline_is_not_an_input_error(monkeypatch):
    """Only typed errors are exit 2: a bare ValueError from the library is a bug, and `run` lets it through."""
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "build_dfa", broken)
    with pytest.raises(ValueError, match="^internal bug$"):
        run(["enumerate", "-f", "a", "--ap", "a", "--max-len", "1"])


def test_a_path_with_a_nul_byte_is_named():
    """No subprocess argument can carry a NUL byte, so this case is not a row of `cli_cases.py`."""
    code, out, err = invoke("parse", "--formula-file", "a\0b")
    assert (code, out, err) == (2, "", "error: cannot read a\0b: embedded null byte\n")


def test_a_crash_exits_seventy_with_its_traceback(monkeypatch, capsys):
    """An exception that escapes `run` is a fault of the program: status 70 (EX_SOFTWARE), never 1, which reads as a verdict."""
    def crash(argv=None):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "run", crash)
    monkeypatch.setattr(cli.signal, "signal", lambda *args: None)  # keeps this process's SIGPIPE action
    with pytest.raises(SystemExit) as stop:
        cli.main()
    assert stop.value.code == 70
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n") and err.endswith("KeyError: 'internal'\n")
