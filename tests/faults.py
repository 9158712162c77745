"""Planted faults that the test suite must kill, and a runner that checks that it does.

Run it from anywhere; it finds the repository from its own path:

    python tests/faults.py            # every fault
    python tests/faults.py NAME ...   # only the named faults

Each `Fault` plants one fault in a copy of the library.  It names a file
under `src/tracelogic/`, one exact snippet of that file, the snippet's
replacement and the tests that must kill the fault.  For each fault the
runner copies `src/`, `tests/` and `pyproject.toml` into a fresh temporary
directory, requires the snippet to occur there exactly once, replaces it,
and runs only the named tests there in one `pytest -p no:cacheprovider`
process, which exits early unless it imports `tracelogic` from the copy.
The fault is killed when every named test fails (a parametrised test when
one of its cases fails); a run over `TIMEOUT_S` counts as a kill and is
reported as a timeout.  First, every named test must pass on an unchanged
copy, so that a kill is the fault's doing.

A survivor is a fault that no test is known to kill, and its named tests
must pass.  A test that starts to kill it thus fails the runner, and the
entry moves to the killed faults.  A snippet that a change to the library
removed fails the runner too: restate the fault on the new code, or retire
it.  The runner writes only under its temporary directories.  Pytest does
not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300
WRONG_IMPORT = 64  # the child's exit code when `tracelogic` does not come from the copy

# Runs in the copy: check where `tracelogic` comes from, then run the tests named as arguments.
CHILD = """
import os, sys
import tracelogic
src = os.path.join(os.getcwd(), "src")
if os.path.dirname(os.path.dirname(os.path.abspath(tracelogic.__file__))) != src:
    print(f"tracelogic imported from {tracelogic.__file__}, not from {src}")
    sys.exit(%d)
import pytest
sys.exit(pytest.main(["-q", "-rf", "-p", "no:cacheprovider", *sys.argv[1:]]))
""" % WRONG_IMPORT


@dataclass(frozen=True)
class Fault:
    name: str
    path: str  # a file under src/tracelogic/
    snippet: str  # must occur exactly once in that file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    survives: bool = False  # no test is known to kill it, so its tests must pass


FAULTS = (
    Fault(
        "metric-head-bound-kept-inclusive", "metric.py",
        "hi = None if hi is None else hi - 1", "hi = None if hi is None else hi",
        (
            "tests/test_metric.py::test_extract_constraints_paper_example",
            "tests/test_metric.py::test_enumerate_models_matches_reference",
        ),
    ),
    Fault(
        "oracle-delays-without-upper-bound", "oracle.py",
        "lo <= gap and (hi is None or gap < hi)", "lo <= gap",
        (
            "tests/test_oracle.py::test_eval_timed_examples",
            "tests/test_metric.py::test_check_program_paper_example",
        ),
    ),
    Fault(  # the prune looking one row too far: successors that accept in one letter fewer than are left
        "accepted-words-prune-one-letter-short", "trace.py",
        "branches[depth] = iter(live[length - depth][node])", "branches[depth] = iter(live[length - depth - 1][node])",
        (
            "tests/test_fa.py::test_enumeration_matches_the_reference",
            "tests/test_metric.py::test_enumerate_models_matches_reference",
        ),
    ),
    Fault(  # successors that accept in one letter more than are left: it loses the words of `X X (a & !X X tt)`
        "accepted-words-prune-one-letter-long", "trace.py",
        "branches[depth] = iter(live[length - depth][node])", "branches[depth] = iter(live[length - depth + 1][node])",
        (
            "tests/test_fa.py::test_enumeration_matches_the_reference",
            "tests/test_fa.py::test_deep_enumeration_matches_the_reference",
        ),
        survives=True,
    ),
    Fault(
        "join-skips-false-entries-of-a-disjunction", "afa.py",
        "if conj and not sets:", "if not sets:",
        (
            "tests/test_afa.py::test_class_tables_match_the_minimal_sets_of_each_image",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(
        "join-or-keeps-subsumed-sets", "afa.py",
        "_antichain({*sets, *other})", "[*sets, *other]",
        (
            "tests/test_afa.py::test_class_tables_match_the_minimal_sets_of_each_image",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(
        "join-reads-right-at-the-extra-bits-only", "afa.py",
        "right_table[full & right_mask]", "right_table[extra]",
        (
            "tests/test_afa.py::test_class_tables_match_the_minimal_sets_of_each_image",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(
        "product-of-singletons-drops-the-right-set", "afa.py",
        "[left[0] | right[0]]", "[left[0]]",
        (
            "tests/test_afa.py::test_minimal_sets_antichain",
            "tests/test_afa.py::test_class_tables_match_the_minimal_sets_of_each_image",
        ),
    ),
    Fault(
        "submasks-in-bit-counting-order", "afa.py",
        "subs[1:1] = [bit | sub for sub in subs]", "subs += [bit | sub for sub in subs]",
        (
            "tests/test_trace.py::test_classes_first_met_in_letter_order",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(
        "pbf-and-keeps-a-false-right-operand", "afa.py",
        "if left is False or right is False:", "if left is False:",
        (
            "tests/test_afa.py::test_constants_are_bools_folded_out_of_every_node",
            "tests/test_fa.py::test_each_nfa_state_keeps_the_mask_of_its_joined_class_table",
        ),
    ),
    Fault(
        "trigger-left-operand-a-plain-successor", "afa.py",
        "pbf_or(ref(l, _S, True), ref(fm.WeakPrev(f), _S))", "pbf_or(ref(l, _S), ref(fm.WeakPrev(f), _S))",
        (
            "tests/test_afa.py::test_transitions_match_the_reference",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(
        "weak-literal-false-at-the-markers", "twafa.py",
        "            return True\n        return self._ref(f, _S)", "            return False\n        return self._ref(f, _S)",
        (
            "tests/test_twafa.py::test_empty_trace_truth",
            "tests/test_twafa.py::test_since_trigger_examples",
        ),
    ),
    Fault(
        "weak-prev-false-at-the-begin-marker", "twafa.py",
        "fm.Box(_, _) | fm.WeakPrev(_) | fm.Trigger(_, _)", "fm.Box(_, _) | fm.Trigger(_, _)",
        (
            "tests/test_afa.py::test_transitions_match_the_reference",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(
        "tape-offset-with-the-move-negated", "twafa.py",
        "return ref.move * width + ref.state", "return -ref.move * width + ref.state",
        (
            "tests/test_twafa.py::test_past_inside_future",
            "tests/test_twafa.py::test_matches_oracle_with_past",
        ),
    ),
    Fault(
        "dot-move-names-reversed", "dot.py",
        '"LSR"[leaf.move + 1]', '"RSL"[leaf.move + 1]',
        (
            "tests/test_golden.py::test_compile_golden",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
)


def _copy(tmp: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)


def _plant(tmp: str, fault: Fault) -> None:
    path = os.path.join(tmp, "src", "tracelogic", fault.path)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    count = text.count(fault.snippet)
    if count != 1:
        raise ValueError(f"its snippet occurs {count} times in src/tracelogic/{fault.path}, not once")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(fault.snippet, fault.replacement))


def run(tests, fault: Fault | None = None) -> tuple[str, float, str]:
    """Run `tests` in a fresh copy, with `fault` planted: ("passed" | "failed" | "timeout" | "error", seconds, output)."""
    with tempfile.TemporaryDirectory(prefix="tracelogic-faults-") as tmp:
        _copy(tmp)
        if fault is not None:
            _plant(tmp, fault)
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", CHILD, *tests],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, ""
        outcome = {0: "passed", 1: "failed"}.get(done.returncode, "error")  # pytest: 1 is "some test failed"
        return outcome, time.perf_counter() - start, done.stdout + done.stderr


def _spared(fault: Fault, output: str) -> list[str]:
    """The named tests that no failure in `output`, pytest's short summary, belongs to."""
    return [test for test in fault.tests if not re.search(f"^FAILED {re.escape(test)}(\\[| |$)", output, re.M)]


def main(names) -> int:
    unknown = set(names) - {fault.name for fault in FAULTS}
    if unknown:
        print("no such fault:", ", ".join(sorted(unknown)))
        return 2
    chosen = [fault for fault in FAULTS if not names or fault.name in names]
    tests = list(dict.fromkeys(test for fault in chosen for test in fault.tests))
    outcome, seconds, output = run(tests)
    print(f"unchanged copy: {len(tests)} tests {outcome} in {seconds:.1f} s", flush=True)
    if outcome != "passed":
        print(output)
        return 1
    wrong = 0
    for fault in chosen:
        try:
            outcome, seconds, output = run(fault.tests, fault)
        except ValueError as error:
            print(f"{fault.name}: {error}")
            wrong += 1
            continue
        spared = _spared(fault, output) if outcome == "failed" else []
        if outcome == "passed":
            verdict, ok = "survived", fault.survives
        elif outcome == "timeout" or (outcome == "failed" and not spared):
            verdict, ok = ("killed" if outcome == "failed" else "killed (timeout)"), not fault.survives
        else:
            verdict, ok = ("not killed by " + ", ".join(spared) if spared else "error"), False
        note = "" if ok else f"  <- expected {'to survive' if fault.survives else 'every named test to fail'}"
        print(f"{fault.name}: {verdict} in {seconds:.1f} s{note}", flush=True)
        if not ok:
            print(output[-4000:])
            wrong += 1
    print(f"{len(chosen)} faults, {sum(f.survives for f in chosen)} expected survivors, {wrong} not as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
