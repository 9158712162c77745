"""Spans around the library's stage functions, recorded from outside the library.

`install` replaces each function named in SPANS, at every place a
`tracelogic` module binds it (for example both `tracelogic.fa.dealternate`
and `tracelogic.dealternate`), and each named method on its class, with a
wrapper that records a span while an op is being traced.  A name missing
from the library is skipped, so a later change that removes a function
only makes the tracer record nothing for it.

Spans are kept in memory as a call tree per (op, pass): repeated calls of
one function under the same parent span share one record, which keeps a
start (the first call), an end (the last return), the number of calls,
the busy time they cover and their self time, i.e. the busy time minus
the time covered by child spans.  Counts taken at the same boundaries
(states out, letters in, constraints, yielded traces) are summed into the
record.  Records are written out once, when the workload ends.

Helpers called per letter, per formula node or per transition formula
(`minimal_sets`, `prop_sat`, `pbf_eval`, `nnf_not`, `DFA.letter_index`,
`AFA.delta`, ...) get no span: a wrapper there would cost more than the
work it measures.  Their time is the self time of the stage that calls
them.  A recursive function gets one span for its outermost call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter


def _letters_in(args, result):
    return {"letters": len(args[1])}


def _letters_out(args, result):
    return {"letters": len(result)}


def _states_self(args, result):
    return {"states": len(args[0])}


def _configurations(args, result):
    return {"configurations": len(args[0]) * (len(args[1]) + 2)}


# (module, attribute or Class.method, span name, counts taken on return).
# Span names follow the pipeline stages: parse, nnf/core, AFA, NFA, DFA,
# minimize, 2AFA fixpoint, oracle and metric solver.
SPANS = (
    ("parser", "parse_formula", "parse", None),
    ("parser", "parse_trace", "parse", _letters_out),
    ("parser", "parse_program", "parse", None),
    ("formula", "nnf", "nnf/core", None),
    ("formula", "to_dynamic_core", "nnf/core", None),
    ("afa", "AFA.__init__", "AFA", _states_self),
    ("afa", "AFA.accepts", "AFA accepts", _letters_in),
    ("fa", "dealternate", "NFA", lambda args, result: {"states": len(result.states)}),
    ("fa", "determinize", "DFA", lambda args, result: {"states": result.n_states}),
    ("fa", "minimize", "minimize", lambda args, result: {"states": result.n_states}),
    ("fa", "build_dfa", "build_dfa", None),
    ("fa", "complement", "complement", None),
    ("fa", "equivalent", "equivalent", None),
    ("fa", "dfa_accepts", "DFA accepts", _letters_in),
    ("fa", "nfa_accepts", "NFA accepts", _letters_in),
    ("fa", "is_empty", "is_empty", None),
    ("fa", "enumerate_accepted", "enumerate", None),
    ("trace", "enumerate_traces", "trace enumerate", None),
    ("oracle", "holds", "oracle", _letters_in),
    ("twafa", "TwoAFA.__init__", "2AFA", _states_self),
    ("twafa", "TwoAFA.accepts", "2AFA accepts", _configurations),
    ("twafa", "TwoAFA.fixpoint", "2AFA fixpoint", None),
    ("metric", "check_program", "metric check", None),
    ("metric", "extract_constraints", "metric extract", lambda args, result: {"constraints": len(result.constraints)}),
    ("metric", "feasible", "metric solver", None),
    ("metric", "enumerate_models", "metric enumerate", None),
    ("dot", "to_dot", "dot", lambda args, result: {"bytes": len(result)}),
    ("cli", "run", "cli", None),
)


class Record:
    __slots__ = ("id", "parent", "op", "pass_", "name", "fn", "start", "end", "calls", "busy", "self_", "counts", "children")

    def __init__(self, rid, parent, op, pass_, name, fn, start):
        self.id = rid
        self.parent = parent
        self.op = op
        self.pass_ = pass_
        self.name = name
        self.fn = fn
        self.start = start
        self.end = start
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.counts: dict = {}
        self.children: dict = {}

    def add_counts(self, counts) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def as_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "pass": self.pass_,
            "name": self.name,
            "fn": self.fn,
            "start": self.start,
            "end": self.end,
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.self_,
            "counts": self.counts,
        }


class Tracer:
    def __init__(self):
        self.records: list[Record] = []
        self.roots: dict = {}  # (op, pass) -> root record
        self._stack: list = []  # frames: [record, start, time covered by children]
        self._op = None

    @property
    def active(self) -> bool:
        return self._op is not None

    def begin(self, op, pass_: int, label: str) -> None:
        root = self._record(None, op, pass_, "op", label)
        self.roots[(op, pass_)] = root
        self._op = (op, pass_)
        self._stack = [[root, perf_counter(), 0.0]]

    def end(self) -> None:
        self._close()
        self._op = None

    def _record(self, parent, op, pass_, name, fn) -> Record:
        rec = Record(len(self.records), parent, op, pass_, name, fn, perf_counter())
        self.records.append(rec)
        return rec

    def _open(self, fn: str, name: str) -> Record:
        parent = self._stack[-1][0]
        rec = parent.children.get(fn)
        if rec is None:
            rec = self._record(parent.id, parent.op, parent.pass_, name, fn)
            parent.children[fn] = rec
        self._stack.append([rec, perf_counter(), 0.0])
        return rec

    def _close(self) -> None:
        rec, start, covered = self._stack.pop()
        now = perf_counter()
        busy = now - start
        rec.end = now
        rec.calls += 1
        rec.busy += busy
        rec.self_ += busy - covered
        if self._stack:
            self._stack[-1][2] += busy

    def _reentered(self, fn: str) -> bool:
        return self._stack[-1][0].fn == fn

    def wrap(self, original, fn: str, name: str, counts):
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def generator(*args, **kwargs):
                items = original(*args, **kwargs)
                while True:
                    if not tracer.active:
                        try:
                            item = next(items)
                        except StopIteration:
                            return
                        yield item
                        continue
                    rec = tracer._open(fn, name)
                    try:
                        item = next(items)
                    except StopIteration:
                        tracer._close()
                        return
                    except BaseException:
                        tracer._close()
                        raise
                    tracer._close()
                    rec.counts["yielded"] = rec.counts.get("yielded", 0) + 1
                    yield item

            return generator

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._reentered(fn):
                return original(*args, **kwargs)
            rec = tracer._open(fn, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if counts is not None:
                rec.add_counts(counts(args, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "tracelogic" or key.startswith("tracelogic.")]
        for module_name, attr, name, counts in SPANS:
            module = sys.modules.get(f"tracelogic.{module_name}")
            if module is None:
                continue
            fn = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is None:
                    continue
                setattr(cls, method, self.wrap(original, fn, name, counts))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapped = self.wrap(original, fn, name, counts)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.records:
                handle.write(json.dumps(rec.as_json()) + "\n")

    # -- reduction to per-layer metrics -------------------------------------

    def chosen_roots(self) -> list[Record]:
        """For every op (and the set-up), the root of its fastest traced pass."""
        best: dict = {}
        for (op, _), root in self.roots.items():
            if op not in best or root.busy < best[op].busy:
                best[op] = root
        return list(best.values())

    def totals(self, roots) -> tuple[dict, dict]:
        """Self seconds and summed counts per wrapped function, over the given trees."""
        self_s: dict = {}
        counts: dict = {}
        pending = list(roots)
        while pending:
            rec = pending.pop()
            self_s[rec.fn] = self_s.get(rec.fn, 0.0) + rec.self_
            bucket = counts.setdefault(rec.fn, {})
            for key, value in rec.counts.items():
                bucket[key] = bucket.get(key, 0) + value
            if rec.fn == "fa.enumerate_accepted" or rec.fn == "metric.enumerate_models":
                inner = rec.children.get("trace.enumerate_traces")
                generated = inner.counts.get("yielded", 0) if inner is not None else 0
                bucket["generated"] = bucket.get("generated", 0) + generated
            pending.extend(rec.children.values())
        return self_s, counts


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(self_s: dict, counts: dict) -> dict:
    """Per-layer metric name -> (value, unit), from self seconds and counts per function."""

    def ms(*fns):
        return 1000.0 * sum(self_s.get(f, 0.0) for f in fns)

    def count(fn, key):
        return counts.get(fn, {}).get(key, 0)

    trace_ms = ms("parser.parse_trace")
    fa_accepts_ms = ms("fa.dfa_accepts")
    holds_ms = ms("oracle.holds")
    out = {
        "parser.formula_ms": (ms("parser.parse_formula"), "ms"),
        "parser.trace_ms": (trace_ms, "ms"),
        "parser.program_ms": (ms("parser.parse_program"), "ms"),
        "parser.letters_per_s": (_rate(count("parser.parse_trace", "letters"), trace_ms / 1000.0), "1/s"),
        "formula.normalize_ms": (ms("formula.nnf", "formula.to_dynamic_core"), "ms"),
        "afa.build_ms": (ms("afa.AFA.__init__"), "ms"),
        "afa.states": (count("afa.AFA.__init__", "states"), "count"),
        "afa.accepts_ms": (ms("afa.AFA.accepts"), "ms"),
        "fa.dealternate_ms": (ms("fa.dealternate"), "ms"),
        "fa.nfa_states": (count("fa.dealternate", "states"), "count"),
        "fa.determinize_ms": (ms("fa.determinize"), "ms"),
        "fa.dfa_states": (count("fa.determinize", "states"), "count"),
        "fa.minimize_ms": (ms("fa.minimize"), "ms"),
        "fa.min_dfa_states": (count("fa.minimize", "states"), "count"),
        "fa.equivalent_ms": (ms("fa.equivalent"), "ms"),
        "fa.accepts_ms": (fa_accepts_ms, "ms"),
        "fa.letters_per_s": (_rate(count("fa.dfa_accepts", "letters"), fa_accepts_ms / 1000.0), "1/s"),
        "fa.enumerate_ms": (ms("fa.enumerate_accepted"), "ms"),
        "fa.enumerate_yield": (
            _ratio(count("fa.enumerate_accepted", "yielded"), count("fa.enumerate_accepted", "generated")),
            "ratio",
        ),
        "trace.enumerate_ms": (ms("trace.enumerate_traces"), "ms"),
        "trace.traces_generated": (count("trace.enumerate_traces", "yielded"), "count"),
        "oracle.holds_ms": (holds_ms, "ms"),
        "oracle.letters_per_s": (_rate(count("oracle.holds", "letters"), holds_ms / 1000.0), "1/s"),
        "twafa.build_ms": (ms("twafa.TwoAFA.__init__"), "ms"),
        "twafa.states": (count("twafa.TwoAFA.__init__", "states"), "count"),
        "twafa.accepts_ms": (ms("twafa.TwoAFA.accepts", "twafa.TwoAFA.fixpoint"), "ms"),
        "twafa.configurations": (count("twafa.TwoAFA.accepts", "configurations"), "count"),
        "metric.check_ms": (ms("metric.check_program"), "ms"),
        "metric.extract_ms": (ms("metric.extract_constraints"), "ms"),
        "metric.constraints": (count("metric.extract_constraints", "constraints"), "count"),
        "metric.feasible_ms": (ms("metric.feasible"), "ms"),
        "metric.enumerate_ms": (ms("metric.enumerate_models"), "ms"),
        "metric.enumerate_yield": (
            _ratio(count("metric.enumerate_models", "yielded"), count("metric.enumerate_models", "generated")),
            "ratio",
        ),
        "dot.render_ms": (ms("dot.to_dot"), "ms"),
        "dot.bytes": (count("dot.to_dot", "bytes"), "count"),
        "cli.filter_ms": (ms("cli.run"), "ms"),
    }
    return out
