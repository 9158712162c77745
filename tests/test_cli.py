import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import random_core_formula, renamed
from tracelogic.cli import _size, run
from tracelogic.dot import to_dot
from tracelogic.fa import build_dfa
from tracelogic.afa import AFA
from tracelogic.formula import And, nnf, to_dynamic_core
from tracelogic.parser import parse_formula
from tracelogic.trace import letters_over


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_parse_echoes_canonical_form():
    code, out, _ = invoke("parse", "-f", "a&  b")
    assert code == 0
    assert out.strip() == "a & b"


def test_parse_error_exit_two():
    code, _, err = invoke("parse", "-f", "a U")
    assert code == 2
    assert "1:4" in err


def test_accepts_verdicts():
    code, out, _ = invoke("accepts", "-f", "F b", "-t", "{a};{b}")
    assert code == 0
    assert out.strip() == "ACCEPTED"
    code, out, _ = invoke("accepts", "-f", "G a", "-t", "{a};{b}")
    assert code == 1
    assert out.strip() == "REJECTED"


def test_accepts_backends_agree():
    for backend in ("oracle", "afa", "nfa", "dfa", "2afa"):
        code, out, _ = invoke("accepts", "-f", "a U b", "-t", "{a};{b}", "--backend", backend)
        assert (code, out.strip()) == (0, "ACCEPTED"), backend


def test_accepts_past_needs_two_way():
    code, _, _ = invoke("accepts", "-f", "F (b & Y a)", "-t", "{a};{b}", "--backend", "2afa")
    assert code == 0
    code, _, err = invoke("accepts", "-f", "Y a", "-t", "{a}", "--backend", "afa")
    assert code == 2
    assert "past" in err


def test_accepts_metric_on_untimed_trace_exits_two():
    for trace in ("{a};{b}", "{};{b}"):
        code, out, err = invoke("accepts", "--backend", "oracle", "-f", "a | X[1,2) b", "-t", trace)
        assert code == 2, trace
        assert out == ""
        assert "timed trace" in err


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


def test_compile_dot_to_a_missing_directory_exits_two(tmp_path):
    path = tmp_path / "missing" / "out.dot"
    code, out, err = invoke("compile", "-f", "a U b", "--to", "dfa", "--dot", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_compile_dot_to_a_directory_exits_two(tmp_path):
    code, out, err = invoke("compile", "-f", "a U b", "--to", "dfa", "--dot", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_compile_all_targets():
    for target in ("afa", "nfa", "dfa", "min-dfa", "2afa"):
        code, out, _ = invoke("compile", "-f", "a U b", "--to", target)
        assert code == 0
        assert out.startswith("states ")


def test_filter_and_negate(tmp_path):
    lines = ["{a};{b}", "{b}", "eps", "{a};{a}"]
    path = tmp_path / "traces.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = invoke("filter", "-f", "F b", "--traces", str(path))
    assert code == 0
    kept = out.strip().splitlines()
    assert kept == ["{a};{b}", "{b}"]
    assert "kept 2 of 4" in err
    code, out, _ = invoke("filter", "-f", "F b", "--traces", str(path), "--negate")
    dropped = out.strip().splitlines()
    assert dropped == ["eps", "{a};{a}"]
    assert sorted(kept + dropped) == sorted(lines)


def test_enumerate():
    code, out, _ = invoke("enumerate", "-f", "a", "--ap", "a", "--max-len", "2")
    assert code == 0
    assert out.strip().splitlines() == ["{a}", "{a};{}", "{a};{a}"]


def test_equiv_exit_codes():
    code, out, _ = invoke("equiv", "-f", "F a", "-g", "<tt*> a")
    assert (code, out.strip()) == (0, "EQUIVALENT")
    code, out, _ = invoke("equiv", "-f", "X a", "-g", "WX a")
    assert code == 1
    assert out.strip() == "eps"


def test_metric_check(tmp_path):
    program = tmp_path / "school.mlp"
    program.write_text("X[20,40) school :- drive.\n")
    code, out, _ = invoke("metric", "check", "-p", str(program), "-t", "{drive}@0;{school}@25")
    assert (code, out.strip()) == (0, "")
    code, out, _ = invoke("metric", "check", "-p", str(program), "-t", "{drive}@0;{school}@45")
    assert code == 1
    assert out.strip() == "rule 0 at step 0"


def test_metric_times(tmp_path):
    program = tmp_path / "school.mlp"
    program.write_text("X[20,40) school :- drive.\n")
    code, out, _ = invoke("metric", "times", "-p", str(program), "-t", "{drive};{school}")
    assert (code, out.strip()) == (0, "{drive}@0;{school}@20")
    code, out, _ = invoke("metric", "times", "-p", str(program), "-t", "{drive};{}")
    assert code == 1
    assert out.startswith("UNTIMED VIOLATION")
    conflicted = tmp_path / "conflict.mlp"
    conflicted.write_text("X[5,10) b :- a.\nX[20,30) b :- a.\n")
    code, out, _ = invoke("metric", "times", "-p", str(conflicted), "-t", "{a};{b}")
    assert code == 1
    assert out.splitlines()[0] == "INFEASIBLE"
    assert out.splitlines()[1].startswith("cycle:")


def test_metric_enumerate(tmp_path):
    program = tmp_path / "p.mlp"
    program.write_text(":- drive.\n")
    code, out, _ = invoke("metric", "enumerate", "-p", str(program), "--ap", "drive,school", "--horizon", "1")
    assert code == 0
    assert out.strip().splitlines() == ["{}@0", "{school}@0"]


def test_metric_check_accepts_every_enumerated_model():
    """`metric enumerate` prints `eps` for the empty model, and `metric check` reads it as the empty timed trace."""
    for program, ap, horizon in ((":- a.", "a", "0"), ("X[1,3) b :- a.", "a,b", "2")):
        code, out, _ = invoke("metric", "enumerate", "--program-text", program, "--ap", ap, "--horizon", horizon)
        assert code == 0 and out
        for model in out.splitlines():
            assert invoke("metric", "check", "--program-text", program, "-t", model) == (0, "", ""), model
    code, _, err = invoke("metric", "check", "--program-text", ":- a.", "-t", "{b}")
    assert (code, err) == (2, "error: metric check needs a timed trace (steps suffixed with @t)\n")


def test_alphabet_names_must_be_atoms():
    code, out, err = invoke("enumerate", "-f", "a", "--ap", "a,B c,{x}", "--max-len", "1")
    assert (code, out, err) == (2, "", "error: invalid atom name: 'B c'\n")
    args = ("metric", "enumerate", "--program-text", "X[1,2) b :- a.", "--ap", "a;b", "--horizon", "1")
    code, out, err = invoke(*args)
    assert (code, out, err) == (2, "", "error: invalid atom name: 'a;b'\n")
    code, out, _ = invoke("enumerate", "-f", "a", "--ap", "a,,b", "--max-len", "1")
    assert (code, out.splitlines()) == (0, ["{a}", "{a,b}"])


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


def test_program_file_missing():
    code, _, err = invoke("metric", "check", "-p", "/nonexistent.mlp", "-t", "{a}@0")
    assert code == 2
    assert "cannot read" in err


def test_inline_and_file_mutually_exclusive(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("a")
    code, _, _ = invoke("parse", "-f", "a", "--formula-file", str(path))
    assert code == 2


def test_size_limit_exit_three():
    code, _, err = invoke("enumerate", "-f", "tt", "--ap", "a,b,c,d", "--max-len", "12")
    assert code == 3
    assert "limit" in err.lower()


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


def test_two_way_automaton_over_seventeen_atoms(tmp_path):
    # Each state of the 2AFA of `a0 | … | a16` reads at most one atom, so
    # building, counting and running it spells out no letter over all 17;
    # drawing it does.
    wide = " | ".join(f"a{i}" for i in range(17))
    code, out, err = invoke("compile", "-f", wide, "--to", "2afa")
    assert (code, out, err) == (0, "states 33 transitions 3211280\n", "")
    code, out, err = invoke("accepts", "-f", wide, "-t", "{a3}", "--backend", "2afa")
    assert (code, out, err) == (0, "ACCEPTED\n", "")
    code, out, err = invoke("compile", "-f", wide, "--to", "2afa", "--dot", str(tmp_path / "out.dot"))
    assert (code, out) == (3, "")
    assert err == "limit exceeded: alphabet of 17 atoms has more than 2^16 letters to spell out\n"
    assert not (tmp_path / "out.dot").exists()


def test_afa_size_over_seventeen_atoms(tmp_path):
    # Each state reads at most one atom before its next step, so the count
    # needs no letter over all 17; drawing the AFA spells them out.
    wide = " & ".join(f"X a{i}" for i in range(17))
    code, out, err = invoke("compile", "-f", wide, "--to", "afa")
    assert (code, out, err) == (0, "states 18 transitions 1245184\n", "")
    code, out, err = invoke("compile", "-f", wide, "--to", "afa", "--dot", str(tmp_path / "out.dot"))
    assert (code, out) == (3, "")
    assert err == "limit exceeded: alphabet of 17 atoms has more than 2^16 letters to spell out\n"
    assert not (tmp_path / "out.dot").exists()


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


def test_metric_formula_needs_oracle_backend():
    code, out, _ = invoke("accepts", "-f", "X[20,40) school", "-t", "{drive}@0;{school}@25")
    assert (code, out.strip()) == (0, "ACCEPTED")
    code, _, err = invoke(
        "accepts", "-f", "X[20,40) school", "-t", "{drive}@0;{school}@25", "--backend", "dfa"
    )
    assert code == 2
    assert "metric" in err


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


def test_filter_reports_file_line(tmp_path):
    path = tmp_path / "plans.txt"
    path.write_text("{a};{b}\n{b}\n{a};;{b}\n{b};{b}\n")
    code, out, err = invoke("filter", "-f", "F b", "--traces", str(path))
    assert code == 2
    assert out.splitlines() == ["{a};{b}", "{b}"]
    assert err == f"parse error: {path}:3:5: expected '{{', found ';'\n"
    assert "kept" not in err


def test_filter_reports_a_stamp_past_the_digit_limit(tmp_path):
    path = tmp_path / "plans.txt"
    path.write_text("{a};{b}\n{a}@" + "9" * 5000 + "\n{b}\n")
    code, out, err = invoke("filter", "-f", "F b", "--traces", str(path))
    assert code == 2
    assert out == "{a};{b}\n"
    limit = sys.get_int_max_str_digits()
    assert err == f"parse error: {path}:2:5: expected a number of at most {limit} digits, found 5000 digits\n"


@pytest.mark.parametrize(
    "plan, where, message",
    [
        # 320 untimed steps, then a name that breaks the atom rule.
        (";".join(["{a}", "{b}"] * 160) + ";{a,B}", "2:1284", "expected an atom, found 'B'"),
        # 300 timed steps, then a stamp that goes back in time.
        (";".join(f"{{a}}@{i}" for i in range(300)) + ";{b}@7", "2:2295", "expected a timestamp >= 299, found 7"),
    ],
)
def test_filter_reports_the_column_deep_in_a_long_plan(tmp_path, plan, where, message):
    path = tmp_path / "plans.txt"
    path.write_text("{a};{b}\n" + plan + "\n{b}\n")
    code, out, err = invoke("filter", "-f", "F b", "--traces", str(path))
    assert code == 2
    assert out == "{a};{b}\n"
    assert err == f"parse error: {path}:{where}: {message}\n"


def test_nesting_two_hundred_deep_parses():
    code, out, err = invoke("parse", "-f", "X (" * 200 + "a" + ")" * 200)
    assert code == 0, err
    assert out == "X " * 200 + "a\n"


def test_non_ascii_digit_is_a_positioned_parse_error():
    code, out, err = invoke("parse", "-f", "X[²,3) a")
    assert (code, out) == (2, "")
    assert err == "parse error: 1:3: expected a token, found '²'\n"


def test_negative_lengths_are_invalid():
    code, out, err = invoke("enumerate", "-f", "a", "--ap", "a", "--max-len", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    code, out, err = invoke("metric", "enumerate", "--program-text", "a :- b.", "--ap", "a,b", "--horizon", "-2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


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
