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
copy, so that a kill is the fault's doing.  Then the planted copies run on
`os.cpu_count()` worker threads, each with its own directory and `pytest`
process, and the verdicts are printed in catalogue order.

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
from concurrent.futures import ThreadPoolExecutor
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
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root; `test_cli_case[<row>]` names a row of cli_cases.py
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
    Fault(  # the cycle of an infeasible chain step opened by the last lower bound that ties for the largest
        "chain-cycle-from-the-last-tied-lower-bound", "metric.py",
        "k_lo = next(k for k, c in enumerate(constraints) if c.i == i and c.lo == lo)",
        "k_lo = [k for k, c in enumerate(constraints) if c.i == i and c.lo == lo][-1]",
        (
            "tests/test_metric.py::test_feasible_matches_the_worklist_reference",
            "tests/test_metric.py::test_feasible_pinned_answers",
        ),
    ),
    Fault(  # a step with no constraint keeps the time before it, where only non-negativity bounds it
        "chain-step-without-constraint-keeps-the-time", "metric.py",
        "time = time + lo if lo >= 0 else 0", "time = time + max(lo, 0)",
        (
            "tests/test_metric.py::test_feasible_matches_the_worklist_reference",
            "tests/test_metric.py::test_feasible_pinned_answers",
        ),
    ),
    Fault(
        "chain-test-lets-a-negative-lower-bound-through", "metric.py",
        "if j != i + 1 or lo < 0:", "if j != i + 1:",
        (
            "tests/test_metric.py::test_feasible_matches_the_worklist_reference",
            "tests/test_metric.py::test_feasible_pinned_answers",
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
    Fault(  # atom masks with position 0 as the most significant digit
        "oracle-mask-spelled-in-forward-order", "oracle.py",
        "_spell(self.letters[::-1])", "_spell(self.letters)",
        (
            "tests/test_oracle_reference.py::test_spelled_masks_match_the_per_position_spelling",
            "tests/test_oracle_reference.py::test_random_traces_of_length_four_to_eight",
        ),
    ),
    Fault(
        "oracle-delays-spelled-in-forward-order", "oracle.py",
        "            gaps.reverse()\n", "",
        (
            "tests/test_oracle_reference.py::test_spelled_masks_match_the_per_position_spelling",
            "tests/test_oracle_reference.py::test_metric_formulas_on_timed_traces",
        ),
    ),
    Fault(  # the end-point digits translated as codes 48 and 49 once a trace has 49 distinct letters or gaps
        "oracle-end-point-spelled-before-translating", "oracle.py",
        '"".join(table) if spelled is None else spelled.translate(table)\n    return int(end + digits, 2)',
        'end + "".join(table) if spelled is None else (end + spelled).translate(table)\n    return int(digits, 2)',
        ("tests/test_oracle_reference.py::test_spelled_masks_match_the_per_position_spelling",),
    ),
    Fault(
        "oracle-members-counted-from-one", "oracle.py",
        "compress(count(), bin(bits)", "compress(count(1), bin(bits)",
        (
            "tests/test_oracle_reference.py::test_spelled_masks_match_the_per_position_spelling",
            "tests/test_metric.py::test_check_program_paper_example",
        ),
    ),
    Fault(  # every node recomputed wherever `sat` reads it, shared or not
        "oracle-memo-lookup-skipped", "oracle.py",
        "entry = self._sat.get(id(f))", "entry = None",
        ("tests/test_oracle.py::test_shared_subterms_are_computed_once_per_trace",),
    ),
    Fault(  # every negation recomputed wherever `neg` reads it, so `!h & !h` doubles per level
        "oracle-neg-memo-skipped", "oracle.py",
        "entry = self._neg.get(id(f))", "entry = None",
        ("tests/test_oracle.py::test_shared_subterms_are_computed_once_per_trace",),
    ),
    Fault(  # a universal operator false at the end point wherever its negation fails there; the AFA reads it too
        "oracle-universal-false-at-the-end-point", "oracle.py",
        "return ev.full & ~ev.neg(f)", "return (ev.full >> 1) & ~ev.neg(f)",
        (  # tests that build no AFA: the definitional oracle and the 2AFA, which has its own marker transitions
            "tests/test_oracle_reference.py::test_random_traces_of_length_four_to_eight",
            "tests/test_oracle.py::test_always_vacuous_at_end",
            "tests/test_twafa.py::test_matches_oracle_with_past",
        ),
    ),
    Fault(  # the negation of `l R r` read as `!r U !l`, its dual over the operands swapped
        "oracle-release-negation-swaps-its-operands", "oracle.py",
        "    fm.Implies: lambda ev, f: ev.sat(f.left) & ev.neg(f.right),\n}\n",
        "    fm.Implies: lambda ev, f: ev.sat(f.left) & ev.neg(f.right),\n"
        "    fm.Release: lambda ev, f: ev.until(ev.neg(f.right), ev.neg(f.left)),\n}\n",
        (
            "tests/test_oracle_reference.py::test_random_traces_of_length_four_to_eight",
            "tests/test_oracle_reference.py::test_all_traces_up_to_length_three",
        ),
    ),
    Fault(  # each step constraint of a batch joins a position to itself
        "metric-step-batch-with-j-equal-to-i", "metric.py",
        "zip(starts, map((1).__add__, starts)", "zip(starts, starts",
        (
            "tests/test_metric.py::test_extract_constraints_matches_the_one_by_one_reference",
            "tests/test_metric.py::test_extract_constraints_paper_example",
        ),
    ),
    Fault(  # over an untimed trace, whose gaps are all 0, a fired `X[l,u) a` with l > 0 then breaks its rule
        "untimed-metric-head-keeps-its-interval", "metric.py",
        "fm.Next(head.arg) if isinstance(head, fm.MetricNext) else head", "head",
        (
            "tests/test_metric.py::test_extract_constraints_paper_example",
            "tests/test_metric.py::test_extract_constraints_untimed_violation",
        ),
    ),
    Fault(  # the gap table lets a step reach the excluded upper end of `X[l,u)`
        "enumerated-head-bound-kept-inclusive", "metric.py",
        "head.hi - 1 for head in window", "head.hi for head in window",
        (
            "tests/test_metric.py::test_enumerate_models_matches_reference",
            "tests/test_metric.py::test_enumerate_models_matches_reference_on_shared_bodies",
        ),
    ),
    Fault(  # a trace then ends while a metric head is still due
        "enumerated-model-ends-with-heads-due", "metric.py",
        "[not due for due in nodes]", "[True for due in nodes]",
        (
            "tests/test_metric.py::test_models_satisfy_program",
            "tests/test_cli.py::test_metric_check_accepts_every_enumerated_model",
        ),
    ),
    Fault(  # a metric next of any formula then passes as a rule head
        "rule-head-of-any-metric-next", "metric.py",
        "isinstance(head, fm.MetricNext) and isinstance(head.arg, fm.Atom)", "isinstance(head, fm.MetricNext)",
        (
            "tests/test_metric.py::test_malformed_constraints_and_heads_raise_value_error",
            "tests/test_errors.py::test_invalid_values_are_typed_errors",
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
        ("tests/test_fa.py::test_enumeration_of_words_that_end_at_an_exact_length",),
    ),
    Fault(  # the empty word yielded whether or not the start accepts
        "accepted-words-no-initial-check-at-length-zero", "trace.py",
        "        if not live[length][start]:", "        if length and not live[length][start]:",
        (
            "tests/test_fa.py::test_enumerate_accepted",
            "tests/test_fa.py::test_complement_partitions",
        ),
    ),
    Fault(  # one object refilled with each word, so every trace yielded so far reads as the last word
        "traces-of-refills-one-object", "trace.py",
        "    for word in words:\n        t = new(Trace)\n", "    t = new(Trace)\n    for word in words:\n",
        (
            "tests/test_trace.py::test_helper_traces_are_plain_frozen_traces",
            "tests/test_fa.py::test_enumeration_builds_only_accepted_traces",
            "tests/test_trace.py::test_no_duplicates_and_ordering",
        ),
    ),
    Fault(  # every formula read again from its first token, so a path operand read again as a group doubles the work
        "formula-read-again-at-each-start", "parser.py",
        "if kept is None:", "if True:",
        (
            "tests/test_parser.py::test_nested_path_operands_are_read_a_bounded_number_of_times",
            "tests/test_parser.py::test_group_only_paths_read_each_failing_formula_once",
        ),
    ),
    Fault(  # a read that fails not kept, so a path of groups reads the failing formula again at every level
        "failed-formula-read-not-kept", "parser.py",
        "kept = error, start", "raise",
        ("tests/test_parser.py::test_group_only_paths_read_each_failing_formula_once",),
    ),
    Fault(  # a path operand that fails to read as a step or a test read again as a group, wherever it starts
        "path-base-falls-back-on-every-operand", "parser.py",
        'if self.tokens[start][0] != "(":', "if False:",
        (
            "tests/test_parser.py::test_path_grammar_shapes",
            "tests/test_parser_properties.py::test_path_operands_agree_with_the_two_branch_grammar",
        ),
    ),
    Fault(  # a canonical text read whatever its names are: spaces, stamps and bad names go through
        "canonical-trace-skips-the-atom-check", "parser.py",
        "if not all(map(fm._ATOM_RE.match, frozenset().union(*letters.values()))):", "if False:",
        (
            "tests/test_parser.py::test_canonical_traces_read_by_splitting",
            "tests/test_parser_properties.py::test_trace_scanner_agrees_with_the_token_grammar",
        ),
    ),
    Fault(  # `{}` read as the letter that holds the name ""
        "canonical-trace-empty-body-as-an-empty-name", "parser.py",
        'letters[""] = frozenset()', 'letters[""] = empty',
        (
            "tests/test_parser.py::test_parse_trace_eps_and_empty_letters",
            "tests/test_parser.py::test_canonical_traces_read_by_splitting",
            "tests/test_parser_properties.py::test_trace_round_trip",
        ),
    ),
    Fault(  # a stamp of digits that are not ASCII, such as `٣`, read by `int` as a number
        "split-trace-stamps-checked-with-isdigit-alone", "parser.py",
        "not (digits.isascii() and digits.isdigit())", "not digits.isdigit()",
        (
            "tests/test_parser.py::test_tokens_are_ascii",
            "tests/test_parser.py::test_canonical_traces_read_by_splitting",
            "tests/test_parser_properties.py::test_trace_scanner_agrees_with_the_token_grammar",
        ),
    ),
    Fault(  # decreasing stamps accepted by `TimedTrace`, so the split reader reads them
        "timed-trace-skips-the-stamp-order-check", "trace.py",
        '        if list(self.times) != sorted(self.times):\n            raise InvalidValueError("timestamps must be non-decreasing")\n',
        "",
        (
            "tests/test_trace.py::test_timed_trace_validation",
            "tests/test_parser.py::test_parse_trace_errors",
            "tests/test_parser.py::test_canonical_traces_read_by_splitting",
            "tests/test_parser_properties.py::test_trace_scanner_agrees_with_the_token_grammar",
        ),
    ),
    Fault(  # whitespace deleted between word characters, so `{a b}` reads as `{ab}`
        "split-trace-skips-the-word-gap-check", "parser.py",
        "if not _WORD_GAP_RE.search(text):", "if True:",
        (
            "tests/test_parser.py::test_canonical_traces_read_by_splitting",
            "tests/test_parser_properties.py::test_trace_scanner_agrees_with_the_token_grammar",
        ),
    ),
    Fault(  # words listed in the DFA's column order, not in the order of `letters_over`
        "enumeration-in-column-order", "fa.py",
        "for letter in letters_over(dfa.ap)]", "for letter in dfa.letters]",
        ("tests/test_fa.py::test_enumeration_matches_the_reference",),
    ),
    Fault(  # an NFA let through where a DFA is meant, so the query fails inside with an AttributeError
        "dfa-check-lets-any-automaton-through", "fa.py",
        "if not isinstance(dfa, DFA):", "if False:",
        ("tests/test_fa.py::test_dfa_queries_name_their_parameter_when_given_an_nfa",),
    ),
    Fault(  # a false left entry of a disjunction taken as false, whatever the right side holds
        "join-skips-false-entries-of-a-disjunction", "afa.py",
        "if sets and other else sets or other", "if sets and other else sets",
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
    Fault(  # the right side read at the atoms only it reads, as if the left side's were all false
        "join-reads-right-at-the-extra-bits-only", "afa.py",
        "right_table[key & right_mask]", "right_table[key & right_mask & ~left_mask]",
        (
            "tests/test_afa.py::test_class_tables_match_the_minimal_sets_of_each_image",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(  # the same entries, keyed last letter first, so dealternation adds its states in another order
        "join-walks-classes-in-reverse-letter-order", "afa.py",
        "for key in _submasks(left_mask | right_mask):", "for key in reversed(_submasks(left_mask | right_mask)):",
        (
            "tests/test_afa.py::test_class_tables_are_keyed_in_first_letter_order",
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
    Fault(  # `True` read as the state 1 and `False` as the state 0
        "minsets-reads-a-constant-as-a-state", "afa.py",
        "pbf.__class__ is int", "isinstance(pbf, int)",
        (
            "tests/test_afa.py::test_minimal_sets_antichain",
            "tests/test_afa.py::test_class_tables_match_the_minimal_sets_of_each_image",
        ),
    ),
    Fault(  # each And node of a guarded image specialised as an Or node, and each Or node as an And node
        "specialise-folds-with-the-connectives-swapped", "afa.py",
        "pbf_and if is_and else pbf_or", "pbf_or if is_and else pbf_and",
        (
            "tests/test_afa.py::test_transitions_match_the_reference",
            "tests/test_twafa.py::test_matches_afa_on_future_fragment",
        ),
    ),
    Fault(  # class tables join the children of an And node as a disjunction, and of an Or node as a conjunction
        "class-table-joins-with-the-connective-negated", "afa.py",
        "node[0])", "not node[0])",
        (
            "tests/test_afa.py::test_class_tables_match_the_minimal_sets_of_each_image",
            "tests/test_golden.py::test_corpus_digest",
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
    Fault(  # nodes built within a diamond-star unrolling memoised in the frame outside it, where their images differ
        "unrolling-frame-not-opened", "afa.py",
        "frames.append({})", "frames.append(frames[-1])",
        (
            "tests/test_afa.py::test_transitions_match_the_reference",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(  # a weak end value read as "not outright": a box's step to `X c` makes a weak state, true at the end
        "end-value-weak-read-from-sat", "afa.py",
        "self._end.neg(f) == 0 if weak", "self._end.sat(f) == 0 if weak",
        (
            "tests/test_afa.py::test_end_values_are_the_oracles_at_the_end_point",
            "tests/test_twafa.py::test_matches_afa_on_future_fragment",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(  # end values read where the build asks, so the oracle's frames stack on the build's
        "end-values-not-evaluated-before-the-build", "afa.py",
        "            if isinstance(node, fm.Formula):\n                self._end.sat(node)\n",
        "            pass\n",
        ("tests/test_afa.py::test_end_values_are_evaluated_before_the_first_build",),
    ),
    Fault(  # the rows built in set order, so a run may name a later letter outside the alphabet
        "afa-accepts-rows-in-set-order", "afa.py",
        "for letter in dict.fromkeys(t.letters)}", "for letter in set(t.letters)}",
        ("tests/test_afa.py::test_runs_name_the_first_letter_outside_the_alphabet",),
    ),
    Fault(  # a diamond star met again found by comparing it with each star being unrolled
        "diamond-rearrival-by-scan", "afa.py",
        "g in unrolling", "any(g == s for s in unrolling)",
        ("tests/test_afa.py::test_deep_chains_compare_formulas_at_most_depth_squared_times",),
    ),
    Fault(  # a box star met again found by comparing it with each star being expanded
        "box-rearrival-by-scan", "afa.py",
        "b in expanding", "any(b == s for s in expanding)",
        ("tests/test_afa.py::test_deep_chains_compare_formulas_at_most_depth_squared_times",),
    ),
    Fault(
        "since-steps-back-through-weak-prev", "afa.py",
        "ref(fm.Prev(f), _S)))", "ref(fm.WeakPrev(f), _S)))",
        (
            "tests/test_twafa.py::test_since_trigger_examples",
            "tests/test_afa.py::test_transitions_match_the_reference",
        ),
    ),
    Fault(
        "trigger-left-operand-a-plain-successor", "afa.py",
        "pbf_or(ref(l, _S, True), ref(fm.WeakPrev(f), _S))", "pbf_or(ref(l, _S), ref(fm.WeakPrev(f), _S))",
        (
            "tests/test_twafa.py::test_since_trigger_examples",
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
        "fm.Box, fm.WeakPrev, fm.Trigger", "fm.Box, fm.Trigger",
        (
            "tests/test_afa.py::test_transitions_match_the_reference",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(
        "tape-offset-with-the-move-negated", "twafa.py",
        "node = node.move * width + slots[node.state]", "node = -node.move * width + slots[node.state]",
        (
            "tests/test_twafa.py::test_past_inside_future",
            "tests/test_twafa.py::test_matches_oracle_with_past",
        ),
    ),
    Fault(  # every compiled node of a 2AFA transition an And node
        "compile-makes-every-node-a-conjunction", "twafa.py",
        "node = (pbf_and if is_and else pbf_or)(left, node)", "node = pbf_and(left, node)",
        (
            "tests/test_twafa.py::test_matches_oracle_with_past",
            "tests/test_twafa.py::test_since_trigger_examples",
        ),
    ),
    Fault(  # every state's transition at the begin marker taken from its build at the end marker, not only a weak state's
        "begin-marker-stores-end-for-every-state", "twafa.py",
        "end if isinstance(entry, Weak) else self._trans_begin(entry)", "end",
        (
            "tests/test_golden.py::test_compile_golden",
            "tests/test_twafa.py::test_letter_classes_match_direct_transitions",
        ),
    ),
    Fault(  # a resolved reader listed in the readers table under its own slot, which it has not
        "reader-mapped-to-itself-not-its-host", "twafa.py",
        "(slots[host[q]], step) for q, step in named[s]", "(slots[q], step) for q, step in named[s]",
        (
            "tests/test_afa.py::test_transitions_match_the_reference",
            "tests/test_twafa.py::test_matches_oracle_with_past",
        ),
    ),
    Fault(  # only (reader, move) pairs counted, so a state its one reader names twice is substituted twice
        "state-named-twice-resolved-into-its-reader", "twafa.py",
        "if s != self.initial and s not in twice and len(pairs) == 1:", "if s != self.initial and len(pairs) == 1:",
        (
            "tests/test_twafa.py::test_a_state_named_twice_in_one_transition_stays_kept",
            "tests/test_afa.py::test_transitions_match_the_reference",
        ),
    ),
    Fault(  # states on a cycle of single readers, which no kept state reaches, left without a host
        "cycle-of-single-readers-left-without-a-host", "twafa.py",
        "host = [s if h is None else h for s, h in enumerate(host)]", "host = list(host)",
        (
            "tests/test_twafa.py::test_a_cycle_of_single_readers_stays_kept",
            "tests/test_acceptance.py::test_criterion_2_past_cross_validation",
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
    Fault(  # an And node drawn as a choice of its leaf sets, and an Or node as one hyper-edge
        "dot-and-or-patterns-swapped", "dot.py",
        "case (True, l, r):\n            left, right = _dnf(l, rendered), _dnf(r, rendered)\n            _check_size(rendered, len(left) * len(right))\n            return [a + b for a in left for b in right]\n        case (False, l, r):",
        "case (False, l, r):\n            left, right = _dnf(l, rendered), _dnf(r, rendered)\n            _check_size(rendered, len(left) * len(right))\n            return [a + b for a in left for b in right]\n        case (True, l, r):",
        (
            "tests/test_golden.py::test_compile_golden",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(  # a negation kept on its operator, so `!(a & b)` becomes `!a & !b`
        "nnf-not-keeps-the-operator-not-its-dual", "formula.py",
        "_rebuild(f, _DUAL[type(f)], nnf_not, _nnf_path)", "_rebuild(f, type(f), nnf_not, _nnf_path)",
        ("tests/test_formula.py::test_nnf_de_morgan",),
    ),
    Fault(
        "release-test-not-negated", "formula.py",
        "Test(nnf_not(to_dynamic_core(l)))", "Test(to_dynamic_core(l))",
        ("tests/test_formula.py::test_core_rewrites",),
    ),
    Fault(  # atoms that only a step guard names left out, as in `<(a & !d)> tt`
        "atoms-skip-step-guards", "formula.py",
        "pending.extend(children(node))", "pending.extend(() if isinstance(node, Step) else children(node))",
        (
            "tests/test_formula.py::test_atoms_collection",
            "tests/test_fragment.py::test_the_fragment_check_returns_the_atoms",
        ),
    ),
    Fault(  # a step guard checked as a formula of the fragment, so a guard not in NNF is rejected
        "fragment-check-descends-into-step-guards", "formula.py",
        "        elif op is Step:\n            names |= atoms(node.guard)\n", "",
        ("tests/test_fragment.py::test_step_guards_need_not_be_in_nnf",),
    ),
    Fault(  # an atom that only a step guard names then falls outside the alphabet the automata resolve
        "fragment-check-returns-no-step-guard-atoms", "formula.py",
        "names |= atoms(node.guard)", "pass",
        (
            "tests/test_fragment.py::test_an_atom_only_a_step_guard_names_is_in_the_alphabet",
            "tests/test_fragment.py::test_the_fragment_check_returns_the_atoms",
        ),
    ),
    Fault(  # paths rebuilt as they are, so sugar under a modality or in a test stays
        "rebuild-keeps-path-fields-unmapped", "formula.py",
        "        elif isinstance(value, PathExpr):\n            value = path_sub(value)\n", "",
        ("tests/test_formula.py::test_core_removes_future_sugar",),
    ),
    Fault(  # a step guard that is not in NNF then fails the core rewriting
        "core-rewrites-step-guards", "formula.py",
        "return p if isinstance(p, Step) else _rebuild(", "return _rebuild(",
        ("tests/test_formula.py::test_core_keeps_step_guards_as_they_are",),
    ),
    Fault(  # a node's children right to left, so the fragment check reports the last offender
        "children-in-reverse-field-order", "formula.py",
        "found = []\n    for name in node.__match_args__:", "found = []\n    for name in reversed(node.__match_args__):",
        ("tests/test_formula.py::test_fragment_reports_the_first_offender_in_preorder",),
    ),
    Fault(  # values of two classes with equal fields compared equal, so `And(a, b) == Or(a, b)`
        "value-equality-ignores-the-class", "formula.py",
        "if other.__class__ is self.__class__:", "if isinstance(other, Value):",
        (
            "tests/test_formula.py::test_values_equal_only_values_of_their_own_class",
            "tests/test_golden.py::test_corpus_digest",
        ),
    ),
    Fault(
        "value-assignment-let-through", "formula.py",
        'raise AttributeError(f"cannot assign to field {name!r}")', "object.__setattr__(self, name, value)",
        (
            "tests/test_formula.py::test_values_refuse_assignment_and_deletion",
            "tests/test_trace.py::test_helper_traces_are_plain_frozen_traces",
        ),
    ),
    Fault(  # `Not(Not(a))` or `Not(Next(a))` accepted as a negated atom
        "rule-body-negation-unchecked", "metric.py",
        "(isinstance(literal, fm.Not) and isinstance(literal.arg, fm.Atom))", "isinstance(literal, fm.Not)",
        ("tests/test_metric.py::test_rule_body_is_checked_when_the_rule_is_built",),
    ),
    Fault(  # a body that is not a formula named as a bad literal, not as a bad body
        "rule-body-type-unchecked", "metric.py",
        "if not isinstance(body, fm.Formula):", "if False:",
        ("tests/test_metric.py::test_rule_body_is_checked_when_the_rule_is_built",),
    ),
    Fault(  # the body walk stops above the innermost `left`, so a body's first literal is lost
        "rule-body-walk-skips-the-innermost-literal", "metric.py",
        "    literals.append(body)\n    return literals\n", "    return literals\n",
        (
            "tests/test_metric.py::test_enumerate_models_matches_reference",
            "tests/test_metric.py::test_rule_body_is_checked_when_the_rule_is_built",
        ),
    ),
    Fault(  # `a, b, c` read as `c & (b & a)`: literals reversed, and a right-nested body
        "parser-folds-the-body-to-the-right", "parser.py",
        "body = fm.And(body, self.literal())", "body = fm.And(self.literal(), body)",
        (
            "tests/test_parser.py::test_parse_program_forms",
            "tests/test_parser_golden.py::test_pinned_outcomes",
        ),
    ),
    Fault(  # a second check in `Trace.__init__`, which `traces_of` skips
        "trace-init-checks-what-traces-of-skips", "trace.py",
        '        _check_items(letters, Letter, "letter")\n        object.__setattr__(self, "letters", letters)\n',
        '        _check_items(letters, Letter, "letter")\n        if len(letters) > MAX_ENUMERATION:\n'
        '            raise SizeLimitError("trace too long", stage="trace")\n        object.__setattr__(self, "letters", letters)\n',
        ("tests/test_trace.py::test_helper_traces_are_plain_frozen_traces",),
    ),
    Fault(  # `Trace(("ab",))` built, and the oracle reads `"a" in "ab"`
        "trace-letters-unchecked", "trace.py",
        '        _check_items(letters, Letter, "letter")\n        object.__setattr__(self, "letters", letters)\n',
        '        object.__setattr__(self, "letters", letters)\n',
        ("tests/test_trace.py::test_a_letter_that_is_not_a_frozenset_is_refused",),
    ),
    Fault(  # `TimedTrace` takes 0.5 as a stamp, and `check_program` reads it
        "timed-trace-stamps-unchecked", "trace.py",
        '        _check_items(times, int, "timestamp")\n', "",
        ("tests/test_trace.py::test_a_stamp_that_is_not_an_int_is_refused",),
    ),
    Fault(  # a subclass passes the type check, so `True` is taken as the stamp 1
        "trace-items-checked-by-isinstance", "trace.py",
        "if not {kind}.issuperset(map(type, values)):", "if not all(isinstance(value, kind) for value in values):",
        ("tests/test_trace.py::test_a_stamp_that_is_not_an_int_is_refused",),
    ),
    Fault(  # a list of letters or stamps taken for a tuple
        "trace-items-tuple-unchecked", "trace.py",
        "if values.__class__ is not tuple:", "if False:",
        (
            "tests/test_trace.py::test_a_letter_that_is_not_a_frozenset_is_refused",
            "tests/test_trace.py::test_a_stamp_that_is_not_an_int_is_refused",
        ),
    ),
    Fault(  # every hash recomputed from the fields, so each lookup rehashes the whole subtree
        "value-hash-not-kept", "formula.py",
        '            _set(self, "_hash", value)\n', "",
        ("tests/test_afa.py::test_chain_hashes_each_node_once",),
    ),
    Fault(  # a new parser for every `run`
        "argparser-built-per-run", "cli.py",
        "@cache\ndef _argparser", "def _argparser",
        ("tests/test_cli.py::test_filter_after_negate_keeps_the_accepted_lines",),
    ),
    Fault(
        "limit-errors-exit-as-invalid-input", "cli.py",
        "return EXIT_BUDGET", "return EXIT_INVALID",
        (
            "tests/test_cli.py::test_cli_case[enumerate-too-many-traces]",
            "tests/test_cli.py::test_cli_case[compile-release-chain-16-dot-past-the-bound]",
            "tests/test_cli.py::test_dot_of_a_deep_release_chain_exits_three",
        ),
    ),
    Fault(  # a library caller's `except ValueError` then misses an invalid value
        "invalid-value-error-not-a-value-error", "errors.py",
        "class InvalidValueError(TraceLogicError, ValueError):", "class InvalidValueError(TraceLogicError):",
        ("tests/test_trace.py::test_timed_trace_validation",),
    ),
    Fault(  # a NUL byte in a path, or an input file that is not UTF-8, then escapes `run` as a bare ValueError
        "read-catches-only-os-errors", "cli.py",
        "        return handle.read()\n    except (OSError, ValueError) as exc:",
        "        return handle.read()\n    except OSError as exc:",
        (
            "tests/test_cli.py::test_cli_case[parse-formula-file-not-utf8]",
            "tests/test_cli.py::test_a_path_with_a_nul_byte_is_named",
        ),
    ),
    Fault(  # a plan byte that is not UTF-8 read as a character that starts no token
        "filter-reads-undecoded-bytes-as-plan-text", "cli.py",
        "else _UNDECODED.search(raw)", "else None",
        (
            "tests/test_cli.py::test_cli_case[filter-plan-not-utf8]",
            "tests/test_cli.py::test_cli_case[filter-late-plan-not-utf8]",
            "tests/test_cli.py::test_cli_case[filter-comment-not-utf8]",
        ),
    ),
    Fault(  # a stamp past the digit limit then escapes `run` as a bare ValueError
        "format-trace-lets-the-digit-limit-through", "trace.py",
        "        except ValueError:  # past", "        except ArithmeticError:  # past",
        (
            "tests/test_cli.py::test_cli_case[metric-times-stamp-too-long-to-print]",
            "tests/test_cli.py::test_cli_case[metric-enumerate-stamp-too-long-to-print]",
        ),
    ),
    Fault(
        "alphabet-names-unchecked", "cli.py",
        "{fm.Atom(name).name for name", "{name for name",
        (
            "tests/test_cli.py::test_cli_case[enumerate-alphabet-name-not-an-atom]",
            "tests/test_cli.py::test_cli_case[metric-enumerate-alphabet-name-not-an-atom]",
        ),
    ),
    Fault(  # an NFA state's classes counted, not its successors
        "nfa-size-counts-classes-not-successors", "cli.py",
        "sum(map(len, table.values()))", "len(table)",
        ("tests/test_cli.py::test_cli_case[compile-mutex-to-nfa]",),
    ),
    Fault(  # the summary printed after a malformed plan, as if every plan had been read
        "filter-prints-the-summary-after-a-parse-error", "cli.py",
        "            return EXIT_INVALID\n        if dfa_accepts(",
        '            print(f"kept {kept} of {total}", file=sys.stderr)\n            return EXIT_INVALID\n        if dfa_accepts(',
        ("tests/test_cli.py::test_cli_case[filter-stops-at-decreasing-stamps]",),
    ),
    Fault(  # the DOT file opened before the rendering, which may pass its bound, so a refused rendering leaves it
        "dot-file-opened-before-rendering", "cli.py",
        "_write(args.dot, to_dot(automaton))",
        'with open(args.dot, "w", encoding="utf-8") as handle:\n            handle.write(to_dot(automaton))',
        (
            "tests/test_cli.py::test_cli_case[compile-release-chain-16-dot-past-the-bound]",
            "tests/test_cli.py::test_cli_case[compile-17-atom-disjunction-to-2afa-dot]",
        ),
    ),
    Fault(  # a negative length bound read as "no trace", so `enumerate` prints nothing and exits 0
        "negative-length-bound-unchecked", "trace.py",
        "    if max_len < 0:\n", "    if False:\n",
        (
            "tests/test_cli.py::test_cli_case[enumerate-negative-length]",
            "tests/test_cli.py::test_cli_case[metric-enumerate-negative-horizon]",
        ),
    ),
    Fault(  # an empty interval left to `MetricNext`, whose error has no line and column
        "empty-interval-not-placed-by-the-parser", "parser.py",
        "if hi is not None and lo >= hi:", "if False:",
        ("tests/test_cli.py::test_cli_case[metric-times-empty-head-interval]",),
    ),
    Fault(  # an internal ValueError then reads as invalid input
        "run-catches-value-errors", "cli.py",
        "except TraceLogicError as exc:", "except (TraceLogicError, ValueError) as exc:",
        ("tests/test_cli.py::test_a_value_error_inside_the_pipeline_is_not_an_input_error",),
    ),
    Fault(  # a crash then ends in status 1, which reads as a verdict
        "main-reraises-a-crash", "cli.py",
        "        code = EXIT_INTERNAL\n", "        raise\n",
        ("tests/test_cli.py::test_a_crash_exits_seventy_with_its_traceback",),
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


def _run_planted(fault: Fault) -> tuple[str, float, str] | ValueError:
    try:
        return run(fault.tests, fault)
    except ValueError as error:  # the snippet does not occur exactly once
        return error


def _report(fault: Fault, outcome: str, seconds: float, output: str) -> bool:
    """Print the verdict on one planted fault; True if it is the expected one."""
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
    return ok



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
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for fault, result in zip(chosen, pool.map(_run_planted, chosen)):
            if isinstance(result, ValueError):
                print(f"{fault.name}: {result}")
                wrong += 1
                continue
            wrong += not _report(fault, *result)
    print(f"{len(chosen)} faults, {sum(f.survives for f in chosen)} expected survivors, {wrong} not as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
