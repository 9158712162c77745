"""Run one workload in this (fresh) interpreter and print one JSON line.

    python3 bench/workload.py --workload compile --seed 1 [--import-only] [--trace]

`run.py` starts this script; it is not meant to be called by hand.  The
inputs are generated and printed as text before `tracelogic` is imported,
so the set-up time covers exactly the import, the parsing of every input
text and, in `filter`, the construction of the constraint DFAs.  The import
happens once per interpreter; the rest of the set-up runs once per pass and
is timed like an op.

Every op runs in PASSES interleaved passes; each pass gets its own copy of
every input, with atom names prefixed `p<pass>_`, so no cache the library
keeps between calls can serve a later pass from an earlier one.

The host's speed drifts by up to a factor of two over seconds, so every
timed interval is bracketed by a fixed pure-Python probe and reported at the
speed where the probe takes PROBE_REF_S: wall time x PROBE_REF_S / (the
faster of the probes before and after it; a brief stall that hits one probe
but not the op must not shrink the op's time).  An op's time is the minimum
of those scaled times over the passes.

The results of pass 0 are checked against `reference.py`; the results of
later passes, with the prefix stripped, must equal them.  An op fails when
it raises or when its result fails a check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
from dataclasses import dataclass
from time import perf_counter

import inputs as gen
import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PASSES = 5
PROBE_REF_S = 0.0015  # the probe's time at the reference host speed


def _probe_work(n: int = 1200) -> int:
    # Interpreter work of the kinds the library does: tuples as keys, dict
    # lookups, frozenset algebra, isinstance dispatch and small calls.
    table: dict = {}
    kept = []
    for i in range(n):
        key = (i & 31, i >> 5)
        table[key] = table.get(key, 0) + 1
        members = frozenset((i & 7, (i >> 3) & 7)) | {i & 1}
        if isinstance(key, tuple) and len(members) > 1 and _pick(key):
            kept.append(members)
    return len(kept)


def _pick(key) -> bool:
    return key[0] != key[1]


def probe() -> float:
    """Seconds the fixed probe takes now; a measure of the host's current speed."""
    start = perf_counter()
    _probe_work()
    return perf_counter() - start


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def prefix(p: int):
    return lambda name: f"p{p}_{name}"


def strip(name: str) -> str:
    return name.split("_", 1)[1]


def base_letters(letters) -> tuple:
    return tuple(frozenset(strip(a) for a in letter) for letter in letters)


@dataclass
class Op:
    label: str
    run: object  # env -> result
    canon: object  # (result, env) -> hashable value that no longer depends on the pass
    check: object  # (result, canonical, env) -> None; raises CheckFailed
    series: str | None = None


class Workload:
    """texts(rename) -> input texts; setup(tl, texts) -> env; ops run on env."""

    needs_cli = False

    def texts(self, rename) -> dict:
        raise NotImplementedError

    def setup(self, tl, texts) -> dict:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Compile(Workload):
    """`tracelogic compile --to min-dfa --dot` and `tracelogic equiv`, one op per call."""

    def __init__(self, rng):
        self.cases = gen.compile_cases(rng)
        self.pairs = gen.equiv_cases(rng)
        self.ops = [self._compile_op(i, c) for i, c in enumerate(self.cases)]
        self.ops += [self._equiv_op(i, c) for i, c in enumerate(self.pairs)]

    def texts(self, rename):
        return {
            "formulas": [gen.formula_text(c.formula, rename) for c in self.cases],
            "aps": [None if c.ap is None else [rename(a) for a in c.ap] for c in self.cases],
            "pairs": [(gen.formula_text(c.left, rename), gen.formula_text(c.right, rename)) for c in self.pairs],
        }

    def setup(self, tl, texts):
        return {
            "tl": tl,
            "formulas": [tl.parse_formula(t) for t in texts["formulas"]],
            "aps": texts["aps"],
            "pairs": [(tl.parse_formula(a), tl.parse_formula(b)) for a, b in texts["pairs"]],
        }

    def _compile_op(self, i, case):
        def run(env):
            dfa = env["tl"].build_dfa(env["formulas"][i], env["aps"][i])
            return dfa, env["tl"].to_dot(dfa)

        def canon(result, env):
            dfa, dot = result
            return (base_letters(dfa.letters), dfa.transitions, dfa.accepting, dfa.initial, len(dot))

        def check(result, canonical, env):
            dfa, dot = result
            letters, transitions, accepting, initial, _ = canonical
            ap = case.ap if case.ap is not None else ref.atoms_of(case.formula)
            expect(sorted(strip(a) for a in dfa.ap) == sorted(ap), f"alphabet {dfa.ap}")
            expect(set(letters) == set(ref.letters_over(ap)), "letters are not every subset of the alphabet")
            if case.states is not None:
                expect(len(transitions) == case.states, f"{len(transitions)} states, expected {case.states}")
            for sample in case.samples:
                got = ref.run_table(letters, transitions, accepting, initial, sample)
                expect(got == ref.holds(case.formula, sample), f"DFA and reference disagree on {sample}")
            expect(env["tl"].minimize(dfa) == dfa, "minimize is not idempotent")
            lines = dot.splitlines()
            edges = sum(1 for line in lines if "->" in line)
            expect(lines[0] == "digraph dfa {", "DOT header")
            expect(edges == len(transitions) * len(letters) + 1, f"DOT has {edges} edges")

        return Op(case.label, run, canon, check)

    def _equiv_op(self, i, case):
        def run(env):
            left, right = env["pairs"][i]
            return env["tl"].equivalent(left, right)

        def canon(result, env):
            same, counterexample = result
            return same, None if counterexample is None else base_letters(counterexample.letters)

        def check(result, canonical, env):
            same, counterexample = canonical
            expect(same == case.equal, f"verdict {same}, expected {case.equal}")
            if same:
                expect(counterexample is None, "equivalent pair with a counterexample")
            else:
                expect(
                    ref.holds(case.left, counterexample) != ref.holds(case.right, counterexample),
                    f"counterexample {counterexample} does not separate the pair",
                )

        return Op(case.label, run, canon, check)


# ---------------------------------------------------------------------------


class Filter(Workload):
    """Plans run through constraint DFAs built in set-up, bounded queries, and one CLI pass."""

    needs_cli = True
    MAX_LEN = 3

    def __init__(self, rng):
        self.constraints, self.queries, self.plans = gen.filter_inputs(rng)
        self.cli_formula = self.constraints[1].formula
        self.files: list[str] = []
        self.library_kept: list = [None] * len(self.plans)  # pass-0 verdicts of the CLI's constraint
        self.expected = [
            [ref.holds(c.formula, plan) for c in self.constraints] for plan in self.plans
        ]
        self.ops = [self._plan_op(j) for j in range(len(self.plans))]
        self.ops += [self._enumerate_op(q) for q in range(len(self.queries))]
        self.ops += [self._empty_op("queries", q, c) for q, c in enumerate(self.queries)]
        self.ops += [self._empty_op("constraints", q, c) for q, c in enumerate(self.constraints)]
        self.ops.append(self._cli_op())

    def texts(self, rename):
        os.makedirs(OUT, exist_ok=True)
        plans = [gen.trace_text(plan, rename) for plan in self.plans]
        path = os.path.join(OUT, f"plans-{os.getpid()}-{len(self.files)}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(plans) + "\n")
        self.files.append(path)
        return {
            "constraints": [(gen.formula_text(c.formula, rename), [rename(a) for a in c.ap]) for c in self.constraints],
            "queries": [(gen.formula_text(c.formula, rename), [rename(a) for a in c.ap]) for c in self.queries],
            "plans": plans,
            "plan_index": {line: j for j, line in enumerate(plans)},
            "plans_file": path,
            "cli_formula": gen.formula_text(self.cli_formula, rename),
        }

    def setup(self, tl, texts):
        constraints = []
        for text, ap in texts["constraints"]:
            dfa = tl.build_dfa(tl.parse_formula(text), ap)
            constraints.append((dfa, tl.complement(dfa), frozenset(dfa.ap)))
        queries = [tl.build_dfa(tl.parse_formula(text), ap) for text, ap in texts["queries"]]
        return {**texts, "tl": tl, "constraints": constraints, "queries": queries}

    def cleanup(self):
        for path in self.files:
            with contextlib.suppress(OSError):
                os.remove(path)

    def _plan_op(self, j):
        def run(env):
            tl = env["tl"]
            plan = tl.parse_trace(env["plans"][j])
            verdicts = []
            for dfa, negated, alphabet in env["constraints"]:
                restricted = tl.Trace(tuple(letter & alphabet for letter in plan.letters))
                verdicts.append((tl.dfa_accepts(dfa, restricted), tl.dfa_accepts(negated, restricted)))
            return tuple(verdicts)

        def check(result, canonical, env):
            self.library_kept[j] = canonical[1][0]
            for c, (kept, negated) in enumerate(canonical):
                expect(kept == self.expected[j][c], f"constraint {c}: verdict {kept}")
                expect(negated == (not kept), f"constraint {c}: complement agrees with the DFA")

        return Op(f"plan/len={len(self.plans[j])}", run, lambda result, env: result, check)

    def _enumerate_op(self, q):
        case = self.queries[q]

        def run(env):
            return list(env["tl"].enumerate_accepted(env["queries"][q], self.MAX_LEN))

        def canon(result, env):
            # Letters by their column in the DFA; the column order does not depend on the prefix.
            column = {letter: a for a, letter in enumerate(env["queries"][q].letters)}
            return tuple(tuple(column[letter] for letter in t.letters) for t in result)

        def check(result, canonical, env):
            dfa = env["queries"][q]
            letters = base_letters(dfa.letters)
            traces = [tuple(letters[a] for a in t) for t in canonical]
            count = ref.count_accepted_paths(dfa.transitions, dfa.accepting, dfa.initial, self.MAX_LEN)
            expect(len(traces) == count, f"{len(traces)} traces, the DFA table accepts {count}")
            keys = [ref.trace_key(t) for t in traces]
            expect(all(a < b for a, b in zip(keys, keys[1:])), "traces out of the documented order")
            rejected = [t for t in traces if not ref.holds(case.formula, t)]
            expect(not rejected, f"enumerated traces rejected by the reference: {rejected[:3]}")

        return Op("enumerate", run, canon, check)

    def _empty_op(self, kind, q, case):
        def run(env):
            dfa = env[kind][q]
            return env["tl"].is_empty(dfa if kind == "queries" else dfa[0])

        def canon(result, env):
            empty, witness = result
            return empty, None if witness is None else base_letters(witness.letters)

        def check(result, canonical, env):
            empty, witness = canonical
            expect(not empty, "a satisfiable formula reported empty")
            expect(ref.holds(case.formula, witness), f"witness {witness} rejected by the reference")

        return Op(f"is_empty/{kind}", run, canon, check)

    def _cli_op(self):
        def run(env):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = env["tl"].cli.run(["filter", "-f", env["cli_formula"], "--traces", env["plans_file"]])
            return code, out.getvalue()

        def canon(result, env):
            code, text = result
            return code, tuple(env["plan_index"].get(line) for line in text.splitlines())

        def check(result, canonical, env):
            code, kept = canonical
            expect(code == 0, f"exit code {code}")
            wanted = tuple(j for j in range(len(self.plans)) if self.expected[j][1])
            expect(kept == wanted, "CLI output differs from the reference's kept plans")
            library = tuple(j for j in range(len(self.plans)) if self.library_kept[j])
            expect(kept == library, "CLI output differs from the library's kept plans")

        return Op("cli/filter", run, canon, check)


# ---------------------------------------------------------------------------


class Evaluate(Workload):
    """One backend's verdict on one (formula, long trace) pair per op."""

    def __init__(self, rng):
        self.cases = gen.evaluate_cases(rng)
        self.truth = [ref.holds(c.formula, c.letters) for c in self.cases]
        self.ops = []
        for i, case in enumerate(self.cases):
            backends = ("oracle", "2afa") if case.past else ("oracle", "afa", "2afa")
            self.ops += [self._op(i, case, b) for b in backends]

    def texts(self, rename):
        return {
            "formulas": [gen.formula_text(c.formula, rename) for c in self.cases],
            "traces": [gen.trace_text(c.letters, rename) for c in self.cases],
        }

    def setup(self, tl, texts):
        return {
            "tl": tl,
            "formulas": [tl.parse_formula(t) for t in texts["formulas"]],
            "traces": [tl.parse_trace(t) for t in texts["traces"]],
        }

    def _op(self, i, case, backend):
        def run(env):
            tl = env["tl"]
            f, t = env["formulas"][i], env["traces"][i]
            if backend == "oracle":
                return tl.holds(f, t)
            # As `tracelogic accepts --backend afa|2afa`: the automaton reads
            # the trace restricted to the formula's atoms.
            core = tl.to_dynamic_core(tl.nnf(f))
            ap = frozenset(tl.atoms(core))
            plain = tl.Trace(tuple(letter & ap for letter in t.letters))
            if backend == "afa":
                return tl.AFA(core).accepts(plain)
            return tl.TwoAFA(core).accepts(plain)

        def check(result, canonical, env):
            expect(self.truth[i] == case.verdict, f"reference {self.truth[i]} differs from the planted {case.verdict}")
            expect(canonical == case.verdict, f"verdict {canonical}, expected {case.verdict}")

        return Op(f"{case.label}/{backend}", run, lambda result, env: result, check, series=case.series)


# ---------------------------------------------------------------------------


class Metric(Workload):
    """Timestamp derivation, timed checks and model enumeration on metric programs."""

    def __init__(self, rng):
        self.rules, self.plans, self.timed, self.models = gen.metric_inputs(rng)
        self.ops = [self._times_op(i, c) for i, c in enumerate(self.plans)]
        self.ops += [self._check_op(i, c) for i, c in enumerate(self.timed)]
        self.ops += [self._models_op(i, c) for i, c in enumerate(self.models)]

    def texts(self, rename):
        return {
            "program": gen.program_text(self.rules, rename),
            "plans": [gen.trace_text(c.letters, rename) for c in self.plans],
            "timed": [gen.trace_text(c.letters, rename, c.times) for c in self.timed],
            "models": [(gen.program_text(c.rules, rename), sorted(rename(a) for a in c.ap)) for c in self.models],
        }

    def setup(self, tl, texts):
        return {
            "tl": tl,
            "program": tl.parse_program(texts["program"]),
            "plans": [tl.parse_trace(t) for t in texts["plans"]],
            "timed": [tl.parse_trace(t) for t in texts["timed"]],
            "models": [(tl.parse_program(text), ap) for text, ap in texts["models"]],
        }

    def _times_op(self, i, case):
        def run(env):
            system = env["tl"].extract_constraints(env["program"], env["plans"][i])
            return system, env["tl"].feasible(system)

        def canon(result, env):
            system, solution = result
            if hasattr(solution, "times"):
                return ("witness", tuple(solution.times))
            listed = [system.constraints[k] for k in solution.cycle]
            return ("infeasible", tuple(sorted((c.i, c.j, c.lo, c.hi) for c in listed)))

        def check(result, canonical, env):
            solved = ref.chain_solution(self.rules, case.letters)
            expect((solved[0] == "witness") == case.feasible, f"reference says {solved[0]}, planted {case.feasible}")
            if canonical[0] == "witness":
                expect(solved == canonical, "witness differs from the chain solution")
                return
            expect(solved[0] == "infeasible", "infeasible verdict on a feasible plan")
            listed = canonical[1]
            _, derived = ref.step_bounds(self.rules, case.letters)
            expect(listed and all(c in derived for c in listed), f"cycle lists constraints not implied: {listed}")
            expect(ref.constraints_contradict(listed), f"cycle constraints do not contradict: {listed}")

        return Op(case.label, run, canon, check, series=case.series)

    def _check_op(self, i, case):
        def run(env):
            return env["tl"].check_program(env["program"], env["timed"][i])

        def check(result, canonical, env):
            planted = tuple(sorted(case.violations))
            expect(tuple(ref.rule_violations(self.rules, case.letters, case.times)) == planted, "reference check")
            expect(canonical == planted, f"violations {canonical}, planted {planted}")

        return Op(case.label, run, lambda result, env: tuple(sorted(result)), check)

    def _models_op(self, i, case):
        def run(env):
            program, ap = env["models"][i]
            return list(env["tl"].enumerate_models(program, ap, case.horizon))

        def canon(result, env):
            return tuple((base_letters(t.letters), tuple(t.times)) for t in result)

        def check(result, canonical, env):
            expected = tuple(ref.brute_force_models(case.rules, case.ap, case.horizon))
            expect(canonical == expected, f"{len(canonical)} models, brute force finds {len(expected)}")

        return Op(case.label, run, canon, check)


WORKLOADS = {"compile": Compile, "filter": Filter, "evaluate": Evaluate, "metric": Metric}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--import-only", action="store_true", help="time `import tracelogic` and stop")
    parser.add_argument("--trace", action="store_true", help="record spans and report per-layer metrics")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](random.Random(f"{args.seed}:{args.workload}"))
    passes = 0 if args.import_only else PASSES
    try:
        texts = [workload.texts(prefix(p)) for p in range(passes)]
        result = measure(workload, texts, args)
    finally:
        workload.cleanup()
    print(json.dumps(result))
    return 0


def measure(workload, texts, args) -> dict:
    sys.path.insert(0, SRC)
    for _ in range(5):  # let the interpreter specialise the probe's bytecode
        probe()
    before = probe()
    start = perf_counter()
    import tracelogic as tl

    if workload.needs_cli:
        import tracelogic.cli  # noqa: F401  (bound as tl.cli)
    import_s = (perf_counter() - start) * PROBE_REF_S / min(before, probe())
    if os.path.dirname(os.path.dirname(os.path.abspath(tl.__file__))) != SRC:
        raise SystemExit(f"tracelogic imported from {tl.__file__}, not from {SRC}")

    result = {"workload": args.workload, "import_s": import_s}
    if args.import_only:
        return result

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    envs, setup_times = [], []
    after = probe()
    for p, pass_texts in enumerate(texts):
        before = after
        if tracer:
            tracer.begin("setup", p, "setup")
        start = perf_counter()
        envs.append(workload.setup(tl, pass_texts))
        elapsed = perf_counter() - start
        if tracer:
            tracer.end()
        after = probe()
        setup_times.append(elapsed * PROBE_REF_S / min(before, after))
    result["setup_work_s"] = min(setup_times)

    # Inputs and set-up results live until the end; frozen, the collections
    # made before and during each op do not traverse them.
    gc.collect()
    gc.freeze()
    ops = workload.ops
    times = [[0.0] * len(texts) for _ in ops]  # scaled to the reference speed
    wall = [[0.0] * len(texts) for _ in ops]
    first = [None] * len(ops)  # hash of each op's canonical result in its first checked pass
    failed = mismatched = 0
    problems: list[str] = []
    after = probe()
    for p, env in enumerate(envs):
        for j, op in enumerate(ops):
            before = after
            gc.collect()
            if tracer:
                tracer.begin(j, p, op.label)
            start = perf_counter()
            try:
                raw = op.run(env)
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                raw, error = None, f"{type(exc).__name__}: {exc}"
            wall[j][p] = perf_counter() - start
            if tracer:
                tracer.end()
            after = probe()
            times[j][p] = wall[j][p] * PROBE_REF_S / min(before, after)
            if error is None:
                try:
                    canonical = op.canon(raw, env)
                    if first[j] is None:  # pass 0, or every earlier pass failed
                        op.check(raw, canonical, env)
                        first[j] = hash(canonical)
                    else:
                        expect(hash(canonical) == first[j], "differs from the checked pass after renaming")
                except CheckFailed as exc:
                    error = f"wrong output: {exc}"
                    mismatched += 1
            raw = canonical = None
            if error is not None:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"pass {p} op {j} ({op.label}): {error}")
    result.update(
        {
            "ops": len(ops),
            "passes": len(envs),
            "attempted": len(ops) * len(envs),
            "failed": failed,
            "mismatched": mismatched,
            "problems": problems,
            "op_s": [min(t) for t in times],
            "wall_op_s": [min(t) for t in wall],
            "labels": [op.label for op in ops],
            "series": [op.series for op in ops],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer:
        from tracer import layer_metrics

        roots = tracer.chosen_roots()
        self_s, counts = tracer.totals(roots)
        result["layers"] = {k: v for k, (v, _) in layer_metrics(self_s, counts).items()}
        result["scaling"] = scaling(tracer, roots, ops)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    return result


SCALING = ("oracle.holds_ms", "afa.accepts_ms", "twafa.accepts_ms", "metric.feasible_ms")


def scaling(tracer, roots, ops) -> dict:
    """Mean per-op ms of a layer over the ops that use it, per size class (n, 2n, 4n)."""
    from tracer import layer_metrics

    sums: dict = {}
    for root in roots:
        series = None if root.op == "setup" else ops[root.op].series
        if series is None:
            continue
        layers = layer_metrics(*tracer.totals([root]))
        for name in SCALING:
            if layers[name][0] > 0:
                total, count = sums.get((name, series), (0.0, 0))
                sums[(name, series)] = (total + layers[name][0], count + 1)
    out: dict = {}
    for (name, series), (total, count) in sorted(sums.items(), key=lambda kv: ("n", "2n", "4n").index(kv[0][1])):
        out.setdefault(name, {})[series] = total / count
    return out


if __name__ == "__main__":
    sys.exit(main())
