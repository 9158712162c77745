"""Seeded input generators for the four workloads.

Formulas are nested tuples, the benchmark's own trees: ("atom", name),
("tt",), ("ff",), ("not", f), ("and" | "or" | "imp", l, r),
("X" | "WX" | "F" | "G" | "Y" | "WY", f), ("U" | "R" | "S" | "T", l, r),
("dia" | "box", path, f); paths are ("step", guard), ("test", f),
("seq" | "alt", p, q) and ("star", p).  The program under test only ever
sees their text, printed fully parenthesised by `formula_text`.

Every generator takes a `random.Random` and returns plain data; the same
seed gives the same inputs.  Family sizes are fixed and the seed only picks
atoms, shapes of small formulas and trace contents, so the cost of a run
barely depends on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from reference import atoms_of

# -- formula construction --------------------------------------------------


def A(name):
    return ("atom", name)


TT = ("tt",)


def Not(f):
    return ("not", f)


def And(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = ("and", out, f)
    return out


def Or(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = ("or", out, f)
    return out


def Imp(l, r):
    return ("imp", l, r)


def U(tag, f):
    return (tag, f)


def B(tag, l, r):
    return (tag, l, r)


def step(g):
    return ("step", g)


def test(f):
    return ("test", f)


def seq(p, q):
    return ("seq", p, q)


def alt(p, q):
    return ("alt", p, q)


def star(p):
    return ("star", p)


def dia(p, f):
    return ("dia", p, f)


def box(p, f):
    return ("box", p, f)


_BINARY_TEXT = {"and": "&", "or": "|", "imp": "->", "U": "U", "R": "R", "S": "S", "T": "T"}


def formula_text(f, rename=str) -> str:
    tag = f[0]
    if tag == "atom":
        return rename(f[1])
    if tag in ("tt", "ff"):
        return tag
    if tag == "not":
        return f"!({formula_text(f[1], rename)})"
    if tag in _BINARY_TEXT:
        return f"({formula_text(f[1], rename)} {_BINARY_TEXT[tag]} {formula_text(f[2], rename)})"
    if tag in ("X", "WX", "F", "G", "Y", "WY"):
        return f"{tag} ({formula_text(f[1], rename)})"
    if tag == "dia":
        return f"<{path_text(f[1], rename)}> ({formula_text(f[2], rename)})"
    if tag == "box":
        return f"[{path_text(f[1], rename)}] ({formula_text(f[2], rename)})"
    raise ValueError(f"unknown formula node {tag!r}")


def path_text(p, rename=str) -> str:
    tag = p[0]
    if tag == "step":
        return f"({formula_text(p[1], rename)})"
    if tag == "test":
        return f"({formula_text(p[1], rename)})?"
    if tag == "seq":
        return f"({path_text(p[1], rename)} ; {path_text(p[2], rename)})"
    if tag == "alt":
        return f"({path_text(p[1], rename)} + {path_text(p[2], rename)})"
    if tag == "star":
        return f"({path_text(p[1], rename)})*"
    raise ValueError(f"unknown path node {tag!r}")


def trace_text(letters, rename=str, times=None) -> str:
    if not letters:
        return "eps"
    steps = ["{" + ",".join(sorted(rename(a) for a in letter)) + "}" for letter in letters]
    if times is not None:
        steps = [f"{s}@{t}" for s, t in zip(steps, times)]
    return ";".join(steps)


def program_text(rules, rename=str) -> str:
    lines = []
    for head, body in rules:
        body_text = ", ".join(rename(a) if positive else f"not {rename(a)}" for a, positive in body)
        if head is None:
            lines.append(f":- {body_text}.")
            continue
        if head[0] == "plain":
            head_text = rename(head[1])
        else:
            _, lo, hi, atom = head
            head_text = f"X[{lo},{'inf' if hi is None else hi}) {rename(atom)}"
        lines.append(f"{head_text} :- {body_text}." if body else f"{head_text}.")
    return "\n".join(lines) + "\n"


# -- small random formulas ----------------------------------------------------


def random_literal(rng, names):
    a = A(rng.choice(names))
    return a if rng.random() < 0.6 else Not(a)


def random_guard(rng, names):
    roll = rng.random()
    if roll < 0.2:
        return TT
    if roll < 0.8:
        return random_literal(rng, names)
    return B(rng.choice(("and", "or")), random_literal(rng, names), random_literal(rng, names))


def random_future(rng, names, depth):
    """A future formula of bounded depth; its automata stay small."""
    if depth == 0 or rng.random() < 0.2:
        return random_literal(rng, names)
    op = rng.choice(("and", "or", "imp", "X", "WX", "F", "G", "U", "R", "dia", "box", "not"))
    if op in ("and", "or", "imp", "U", "R"):
        return B(op, random_future(rng, names, depth - 1), random_future(rng, names, depth - 1))
    if op == "not":
        return Not(random_future(rng, names, depth - 1))
    if op in ("dia", "box"):
        return (op, random_path(rng, names, depth - 1), random_future(rng, names, depth - 1))
    return U(op, random_future(rng, names, depth - 1))


def random_path(rng, names, depth):
    if depth <= 0 or rng.random() < 0.4:
        return step(random_guard(rng, names))
    op = rng.choice(("seq", "alt", "star", "test"))
    if op == "star":
        return star(random_path(rng, names, depth - 1))
    if op == "test":
        return seq(test(random_literal(rng, names)), step(random_guard(rng, names)))
    return (op, random_path(rng, names, depth - 1), random_path(rng, names, depth - 1))


def random_letter(rng, names, p=0.4):
    return frozenset(a for a in names if rng.random() < p)


def random_traces(rng, names, count, max_len):
    """`count` traces over `names`: the empty trace first, then random lengths 1..max_len."""
    out = [()]
    while len(out) < count:
        out.append(tuple(random_letter(rng, names, 0.5) for _ in range(rng.randint(1, max_len))))
    return out


NAME_POOL = ("a", "b", "c", "d", "e", "g", "h", "k", "m", "n", "q", "r", "s", "u", "v", "w", "y", "z")


# -- compile ----------------------------------------------------------------


@dataclass
class CompileCase:
    label: str
    formula: tuple
    ap: tuple | None = None  # None: compile over the formula's own atoms
    states: int | None = None  # known minimal DFA size, when the family fixes it
    samples: list = field(default_factory=list)


@dataclass
class EquivCase:
    label: str
    left: tuple
    right: tuple
    equal: bool


def _star_templates(n):
    a, b, c, d, e = (A(x) for x in n[:5])
    return [
        dia(star(seq(star(seq(test(a), step(b))), step(c))), d),
        box(star(seq(star(alt(step(a), step(b))), test(c))), d),
        dia(star(seq(step(a), star(seq(test(b), step(TT))))), And(c, d)),
        box(star(alt(star(seq(step(a), step(b))), seq(test(c), step(d)))), e),
        dia(star(seq(star(alt(step(a), seq(step(b), step(c)))), test(d))), a),
    ]


def compile_cases(rng):
    """Families with fixed shapes per instance; the seed picks atoms and the small random formulas.

    The instance counts form a staircase of costs (measured on the parent
    commit): cheap formulas below 1.5 ms, a step of 2 to 4 ms that holds the
    median, a step of 10 to 13 ms, a step of 20 to 25 ms that holds the 90th
    percentile (the 2^5 conjunctions and DFAs over 64 to 128 letters), and
    a few heavy ones above it.
    """
    cases: list = []

    def names(k):
        return rng.sample(NAME_POOL, k)

    def chain(ops, n):
        f = A(n[len(ops)])
        for op, x in reversed(list(zip(ops, n))):
            f = B(op, A(x), f)
        return f

    def fconj(k):
        return CompileCase(f"fconj/k={k}", And(*(U("F", A(x)) for x in names(k))), states=2**k)

    def response(m):
        n = names(2 * m)
        return CompileCase(f"response/m={m}", And(*(U("G", Imp(A(n[2 * i]), U("F", A(n[2 * i + 1])))) for i in range(m))))

    def wide(width, shape):
        n = names(width)
        x, y, z = (A(v) for v in n[:3])
        f = {
            "next": U("X", Or(x, y)),
            "eventually": U("F", x),
            "star": dia(star(seq(test(x), step(y))), z),
            "response": U("G", Imp(x, U("F", y))),
            "until": B("U", x, B("R", y, z)),
        }[shape]
        return CompileCase(f"wide/ap={width}/{shape}", f, ap=tuple(n))

    def stars(t):
        return CompileCase(f"stars/t={t}", _star_templates(names(5))[t])

    # Below 1.5 ms.
    for _ in range(12):
        cases.append(CompileCase("random", random_future(rng, names(2), 2)))
    for depth in (3, 4, 5, 6, 3, 4, 5, 6):
        n = names(2)
        f = Or(random_literal(rng, n), random_literal(rng, n))
        for i in range(depth):
            f = U("X" if i % 2 else "WX", f)
        cases.append(CompileCase(f"next/d={depth}", f))
    cases += [response(1) for _ in range(6)]
    # 2 to 4 ms: the median.
    cases += [fconj(3) for _ in range(8)]
    for _ in range(6):
        n = names(3)
        cases.append(CompileCase("until/len=3", chain(("U", "R"), n)))
    cases += [stars(t) for t in (0, 2, 4, 0, 2, 4, 0, 2, 4)]
    cases += [wide(w, s) for w in (6, 7) for s in ("next", "eventually", "star") for _ in range(2)]
    # 10 to 13 ms.
    for _ in range(4):
        cases.append(CompileCase("until/len=4", chain(("U", "R", "U"), names(4))))
    for _ in range(2):
        cases.append(CompileCase("until/len=5", chain(("U", "U", "U", "U"), names(5))))
    cases += [response(2) for _ in range(4)]
    cases += [wide(6, "response") for _ in range(3)]
    cases += [stars(1) for _ in range(3)]
    # 20 to 25 ms: the 90th percentile.
    cases += [fconj(5) for _ in range(8)]
    cases += [stars(3) for _ in range(4)]
    cases += [wide(6, "until") for _ in range(4)]
    cases += [wide(7, "response") for _ in range(4)]
    # Above: the 2^6 and 2^7 conjunctions and DFAs over 256 letters.
    cases += [fconj(6), fconj(6), fconj(7), wide(8, "until"), wide(8, "response")]
    for case in cases:
        ap = case.ap if case.ap is not None else tuple(sorted(atoms_of(case.formula)))
        case.samples = random_traces(rng, ap, 16, 6)
    return cases


def equiv_cases(rng):
    """Pairs equal by a law of the logic, or unequal with a known separating trace."""

    shapes = (
        lambda x, y: x,
        lambda x, y: B("U", x, y),
        lambda x, y: U("X", x),
        lambda x, y: Or(x, Not(y)),
    )

    def small(i):
        x, y = (A(v) for v in rng.sample(NAME_POOL, 2))
        return shapes[i % len(shapes)](x, y)

    laws = [
        lambda p, q: (U("F", p), dia(star(step(TT)), p)),
        lambda p, q: (U("G", p), Not(U("F", Not(p)))),
        lambda p, q: (B("U", p, q), Or(q, And(p, U("X", B("U", p, q))))),
        lambda p, q: (U("X", And(p, q)), And(U("X", p), U("X", q))),
        lambda p, q: (U("F", Or(p, q)), Or(U("F", p), U("F", q))),
        lambda p, q: (U("G", And(p, q)), And(U("G", p), U("G", q))),
        lambda p, q: (U("F", U("F", p)), U("F", p)),
        lambda p, q: (B("R", p, q), Not(B("U", Not(p), Not(q)))),
        lambda p, q: (U("WX", p), Not(U("X", Not(p)))),
    ]
    cases = []
    for i in range(18):
        left, right = laws[i % len(laws)](small(i), small(i + 1))
        cases.append(EquivCase(f"equiv/law={i % len(laws)}", left, right, True))
    for i in range(12):
        x, y = (A(v) for v in rng.sample(NAME_POOL, 2))
        shape = i % 6
        if shape == 0:
            pair = (U("X", x), U("WX", x))  # differ on eps
        elif shape == 1:
            pair = (U("F", x), U("G", x))  # differ on {x};{}
        elif shape == 2:
            pair = (B("U", x, y), B("R", x, y))  # differ on eps
        elif shape == 3:
            pair = (U("F", And(x, y)), And(U("F", x), U("F", y)))  # differ on {x};{y}
        elif shape == 4:
            pair = (U("G", Imp(x, U("F", y))), U("G", Imp(x, U("X", y))))  # differ on {x};{};{y}
        else:
            pair = (U("X", U("X", x)), U("X", x))  # differ on {};{x}
        cases.append(EquivCase(f"equiv/unequal={shape}", pair[0], pair[1], False))
    return cases


# -- filter -----------------------------------------------------------------

PLAN_POOL = ("drive", "licensed", "school", "home", "more", "crash", "rain", "late", "fuel", "park", "shop", "work")


@dataclass
class Constraint:
    formula: tuple
    ap: tuple  # the constraint DFA's alphabet, a superset of the formula's atoms


def filter_inputs(rng):
    universe = rng.sample(PLAN_POOL, 8)
    constraints = []
    templates = [
        lambda x, y, z, w: U("G", Imp(x, y)),
        lambda x, y, z, w: U("G", Imp(x, U("F", y))),
        lambda x, y, z, w: And(U("G", Not(z)), U("F", y)),
        lambda x, y, z, w: B("U", Not(x), y),
        lambda x, y, z, w: U("G", Imp(x, U("WX", Or(y, Not(z))))),
        lambda x, y, z, w: U("G", Imp(And(x, y), U("X", Or(z, w)))),
    ]
    for template, width in zip(templates, (5, 5, 6, 6, 7, 8)):
        ap = tuple(rng.sample(universe, width))
        constraints.append(Constraint(template(*(A(v) for v in ap[:4])), ap))
    queries = []
    shapes = [
        lambda x, y, z, w: U("G", Imp(x, U("F", y))),
        lambda x, y, z, w: B("U", x, Or(y, z)),
        lambda x, y, z, w: And(U("F", x), U("G", Not(And(y, w)))),
        lambda x, y, z, w: dia(star(seq(test(x), step(Or(y, z)))), w),
        lambda x, y, z, w: U("G", Imp(x, U("WX", Not(y)))),
    ]
    for i in range(20):
        ap = tuple(rng.sample(universe, 4))
        queries.append(Constraint(shapes[i % len(shapes)](*(A(v) for v in ap)), ap))
    # Plan lengths are evenly spread over 20..200 so that the ranks of the
    # percentiles land among plans of neighbouring lengths.
    lengths = [20 + (180 * i) // 99 for i in range(100)]
    rng.shuffle(lengths)
    plans = [tuple(random_letter(rng, universe, 0.3) for _ in range(n)) for n in lengths]
    return constraints, queries, plans


# -- evaluate ---------------------------------------------------------------


@dataclass
class EvalCase:
    label: str
    formula: tuple
    letters: tuple
    verdict: bool  # the planted verdict
    series: str  # "n", "2n" or "4n"
    past: bool


def _star_trace(rng, a, b, n, template, violate):
    choices = (frozenset((a,)), frozenset((b,)), frozenset((a, b)))
    letters = [rng.choice(choices) for _ in range(n)]
    letters[-2] = letters[-1] = frozenset((b,))
    if violate:
        if template == 1:
            m = (n - 2) - (n - 2) % 2  # an even position, reachable in pairs of a|b steps
            letters[m] = frozenset()
        else:
            letters[-4] = letters[-3] = frozenset((b,))
            letters[-2] = frozenset((a,))
            letters[-1] = frozenset()
    return letters


def _response_trace(rng, r, g, x, n, template, violate):
    if template == 0:
        letters = [random_letter(rng, (r, g, x)) for _ in range(n)]
        if violate:
            letters[-3] = letters[-3] - {r}
            letters[-2] = frozenset((r,))
            letters[-1] = frozenset((x,))
        else:
            letters[-1] = letters[-1] | {g}
        return letters
    # G (r -> X (x U g)): blocks {r} {x}^k {g}, with r-free filler between blocks.
    letters: list = []
    while len(letters) < n - 8:
        if rng.random() < 0.5:
            letters.append(frozenset(rng.choice(((), (x,), (g,)))))
        else:
            letters.extend([frozenset((r,))] + [frozenset((x,))] * rng.randint(0, 3) + [frozenset((g,))])
    letters += [frozenset()] * (n - len(letters))
    if violate:
        letters[-3:] = [frozenset((r,)), frozenset((x,)), frozenset()]
    return letters


def _until_trace(rng, a, b, q, n, template, violate):
    if template == 0:
        letters = [frozenset((a,)) | random_letter(rng, (q,)) for _ in range(n - 1)] + [frozenset((b,))]
        if violate:
            letters[-3] = frozenset((q,))
        return letters
    # G (q -> (a U b)): blocks {q,a} {a}^k {b}, with q-free filler between blocks.
    letters = []
    while len(letters) < n - 9:
        if rng.random() < 0.4:
            letters.append(frozenset(rng.choice(((), (a,), (b,)))))
        else:
            letters.extend([frozenset((q, a))] + [frozenset((a,))] * rng.randint(0, 4) + [frozenset((b,))])
    letters += [frozenset((b,))] * (n - len(letters))
    if violate:
        letters[-3:] = [frozenset((q, a)), frozenset(), frozenset((b,))]
    return letters


def _past_trace(rng, x1, x2, x3, n, template, violate):
    if template == 0:
        # G (g -> (!x S r)) with (r, g, x) = (x1, x2, x3): blocks {r} {}^k {g} {x}^m.
        r, g, x = x1, x2, x3
        letters: list = []
        while len(letters) < n:
            letters.extend(
                [frozenset((r,))]
                + [frozenset()] * rng.randint(0, 3)
                + [frozenset((g,))]
                + [frozenset((x,))] * rng.randint(0, 2)
            )
        letters = letters[:n]
        if violate:
            letters[-3:] = [frozenset((r,)), frozenset((x,)), frozenset((g,))]
        else:
            letters[-3:] = [frozenset((r,)), frozenset(), frozenset((g,))]
        return letters
    # G (d -> (a T b)) with (a, b, d) = (x1, x2, x3): b everywhere.
    a, b, d = x1, x2, x3
    letters = [frozenset((b,)) | random_letter(rng, (a, d)) for _ in range(n)]
    if violate:
        letters[-2] = frozenset()
        letters[-1] = frozenset((d, b))
    return letters


STAR_BASE = 10
OTHER_BASE = 20


def evaluate_cases(rng):
    cases = []
    for series, scale in (("n", 1), ("2n", 2), ("4n", 4)):
        for violate in (False, True):
            verdict = not violate
            for t in range(3):
                a, b = rng.sample(NAME_POOL, 2)
                x, y = A(a), A(b)
                f = [
                    U("G", Imp(x, dia(star(alt(step(x), step(y))), y))),
                    box(star(seq(step(Or(x, y)), step(Or(x, y)))), Or(x, y)),
                    U("G", Imp(x, dia(star(seq(star(alt(step(x), step(y))), step(y))), y))),
                ][t]
                letters = _star_trace(rng, a, b, STAR_BASE * scale, t, violate)
                cases.append(EvalCase(f"star/t={t}/{series}", f, tuple(letters), verdict, series, False))
            n = OTHER_BASE * scale
            for t in range(2):
                r, g, w = rng.sample(NAME_POOL, 3)
                f = [
                    U("G", Imp(A(r), U("F", A(g)))),
                    U("G", Imp(A(r), U("X", B("U", A(w), A(g))))),
                ][t]
                letters = _response_trace(rng, r, g, w, n, t, violate)
                cases.append(EvalCase(f"response/t={t}/{series}", f, tuple(letters), verdict, series, False))
            for t in range(2):
                a, b, q = rng.sample(NAME_POOL, 3)
                f = [B("U", A(a), A(b)), U("G", Imp(A(q), B("U", A(a), A(b))))][t]
                letters = _until_trace(rng, a, b, q, n, t, violate)
                cases.append(EvalCase(f"until/t={t}/{series}", f, tuple(letters), verdict, series, False))
            for t in range(2):
                x1, x2, x3 = rng.sample(NAME_POOL, 3)
                f = [
                    U("G", Imp(A(x2), B("S", Not(A(x3)), A(x1)))),
                    U("G", Imp(A(x3), B("T", A(x1), A(x2)))),
                ][t]
                letters = _past_trace(rng, x1, x2, x3, n, t, violate)
                cases.append(EvalCase(f"past/t={t}/{series}", f, tuple(letters), verdict, series, True))
    return cases


# -- metric -----------------------------------------------------------------


@dataclass
class PlanCase:
    label: str
    letters: tuple
    series: str
    feasible: bool


@dataclass
class TimedCase:
    label: str
    letters: tuple
    times: tuple
    violations: list  # the planted (rule, step) pairs


@dataclass
class ModelCase:
    label: str
    rules: list
    ap: tuple
    horizon: int


PLAN_BASE = 100
CHECK_LENGTH = 150
# (series, plan length factor, feasible plans, infeasible plans).  The 4n
# feasible plans are the ops around the 90th percentile; the checks, all of
# one length, hold the median.
PLAN_SERIES = (("n", 1, 3, 1), ("2n", 2, 3, 1), ("4n", 4, 12, 4))


def metric_inputs(rng):
    drive, school, home, more, licensed, hurry, noise = rng.sample(PLAN_POOL, 7)
    lo1 = rng.randint(10, 25)
    hi1 = lo1 + rng.randint(10, 30)
    lo2 = rng.randint(2, 8)
    lo3 = rng.randint(1, 2)
    hi3 = lo3 + rng.randint(1, 3)
    rules = [
        (("metric", lo1, hi1, school), ((drive, True),)),
        (("metric", lo2, None, home), ((school, True),)),
        (("metric", lo3, hi3, drive), ((home, True), (more, True))),
        # Fires only where a plan is made infeasible on purpose.
        (("metric", 1, 3, school), ((hurry, True),)),
    ]
    cycle = (frozenset((drive, licensed)), frozenset((school,)), frozenset((home, more)))

    def plan(n):
        letters = [cycle[i % 3] | random_letter(rng, (noise,), 0.3) for i in range(n)]
        letters[-1] = frozenset((home,))
        return letters

    plans = []
    for series, scale, feasible_count, infeasible_count in PLAN_SERIES:
        n = PLAN_BASE * scale - (PLAN_BASE * scale) % 3
        for i in range(feasible_count + infeasible_count):
            letters = plan(n)
            feasible_plan = i < feasible_count
            if not feasible_plan:
                # A late drive step that must also reach school within [1,3).
                late = n - 6 - 3 * (i % 4)
                letters[late] = letters[late] | {hurry}
            plans.append(PlanCase(f"times/{series}", tuple(letters), series, feasible_plan))

    timed = []
    for i in range(60):
        n = CHECK_LENGTH
        letters = plan(n)
        gaps = []
        for k in range(n - 1):
            letter = letters[k]
            if drive in letter:
                gaps.append(lo1)
            elif school in letter:
                gaps.append(lo2)
            else:
                gaps.append(lo3)
        planted = []
        for k in sorted(rng.sample(range(n - 1), rng.randint(0, 3))):
            if drive in letters[k]:
                gaps[k], rule = hi1, 0
            elif school in letters[k]:
                gaps[k], rule = lo2 - 1, 1
            else:
                gaps[k], rule = hi3, 2
            planted.append((rule, k))
        times = [0]
        for gap in gaps:
            times.append(times[-1] + gap)
        timed.append(TimedCase(f"check/n={n}", tuple(letters), tuple(times), planted))

    models = []
    for i in range(20):
        a, b, c = rng.sample(NAME_POOL, 3)
        lo = rng.randint(1, 3)
        shape = i % 3
        if shape == 0:
            small = [(("metric", lo, lo + 3, b), ((a, True),)), (("plain", b), ((c, True),))]
        elif shape == 1:
            small = [(("metric", lo, lo + 2, c), ((b, True),)), (("metric", lo + 2, None, a), ((c, True), (b, False)))]
        else:
            small = [(("metric", lo + 1, lo + 3, b), ((a, True),)), (("metric", 1, 2, b), ((c, True),))]
        models.append(ModelCase(f"models/shape={shape}", small, (a, b, c), 3))
    return rules, plans, timed, models
