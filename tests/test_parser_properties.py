"""Seeded round-trip properties of the printers and the parsers (hypothesis).

`derandomize=True` makes every run draw the same examples, so these are
reproducible tier-1 tests; each property also checks that its strategy
reached every node type or outcome.  Two properties hold the parser to
`reference_parser.py`: the trace parser, whose split reader reads every
valid trace and whose `trace` production gives `eps` and every error, to
the token grammar on long, spaced, commented, canonical and mutated trace
texts, timed or not; and the path operand rule to the earlier two-branch
`path_base` on nested, path-heavy and mutated formula texts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_parser import parse_formula as reference_parse_formula
from reference_parser import parse_trace as token_parse_trace
from tracelogic import formula as fm
from tracelogic.errors import ParseError
from tracelogic.formula import format_formula
from tracelogic.parser import _Parser, _tokenize, parse_formula, parse_trace
from tracelogic.trace import TimedTrace, Trace, format_trace

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# Atom names, keywords of other grammars among them; `tt` and `ff` would
# parse back as the constants.
NAMES = st.sampled_from(("a", "b", "c", "x_1", "aZ9", "eps", "inf", "not"))
LEAVES = st.one_of(NAMES.map(fm.Atom), st.just(fm.TRUE), st.just(fm.FALSE))
INTERVALS = st.integers(0, 40).flatmap(lambda lo: st.tuples(st.just(lo), st.none() | st.integers(lo + 1, lo + 40)))

UNARY = (fm.Not, fm.Next, fm.WeakNext, fm.Eventually, fm.Always, fm.Prev, fm.WeakPrev)
BINARY = (fm.And, fm.Or, fm.Implies, fm.Until, fm.Release, fm.Since, fm.Trigger)

PROPOSITIONAL = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        inner.map(fm.Not),
        st.builds(lambda op, l, r: op(l, r), st.sampled_from((fm.And, fm.Or, fm.Implies)), inner, inner),
    ),
    max_leaves=4,
)


def _paths(formulas):
    """Paths two combinators deep over steps and tests; a nested `st.recursive` would be slow to validate."""
    paths = st.one_of(PROPOSITIONAL.map(fm.Step), formulas.map(fm.Test))
    for _ in range(2):
        paths = st.one_of(
            paths,
            paths.map(fm.Star),
            st.builds(lambda op, l, r: op(l, r), st.sampled_from((fm.Seq, fm.Alt)), paths, paths),
        )
    return paths


def _extend(inner):
    return st.one_of(
        st.builds(lambda op, f: op(f), st.sampled_from(UNARY), inner),
        st.builds(lambda op, l, r: op(l, r), st.sampled_from(BINARY), inner, inner),
        st.builds(lambda op, i, f: op(*i, f), st.sampled_from((fm.MetricNext, fm.WeakMetricNext)), INTERVALS, inner),
        st.builds(lambda op, p, f: op(p, f), st.sampled_from((fm.Diamond, fm.Box)), _paths(inner), inner),
    )


FORMULAS = st.recursive(LEAVES, _extend, max_leaves=10)

LETTERS = st.frozensets(NAMES, max_size=3)
UNTIMED = st.lists(LETTERS, max_size=6).map(lambda ls: Trace(tuple(ls)))
TIMED = st.lists(st.tuples(LETTERS, st.integers(0, 30)), max_size=6).map(
    lambda steps: TimedTrace(tuple(l for l, _ in steps), tuple(sorted(t for _, t in steps)))
)


def _node_types(node) -> set:
    """Names of the formula and path node classes in a tree, with `hi=None` intervals as `...Inf`."""
    names = {type(node).__name__}
    if getattr(node, "hi", 0) is None:
        names.add(type(node).__name__ + "Inf")
    for child in fm.children(node):
        names |= _node_types(child)
    return names


_EVERY_NODE_TYPE = {cls.__name__ for cls in UNARY + BINARY} | {
    "Atom", "TrueFormula", "FalseFormula", "MetricNext", "MetricNextInf", "WeakMetricNext",
    "WeakMetricNextInf", "Diamond", "Box", "Step", "Test", "Seq", "Alt", "Star",
}


def test_formula_round_trip():
    seen = set()

    @SETTINGS
    @given(FORMULAS)
    def check(f):
        seen.update(_node_types(f))
        assert parse_formula(format_formula(f)) == f

    check()
    assert _EVERY_NODE_TYPE <= seen, _EVERY_NODE_TYPE - seen


def _nodes(node):
    """Every formula and path node of a tree, children before their parent."""
    for child in fm.children(node):
        yield from _nodes(child)
    yield node


def _field_tuple(node) -> tuple:
    return tuple(getattr(node, name) for name in node.__match_args__)


def test_node_hash_is_the_field_tuple_hash():
    """A node hashes as its field tuple does, before and after its first hash.

    Two separate parses give equal trees of distinct nodes (the constants
    aside).  In one the root is hashed first, so each node's first hash
    hashes its children for the first time too; in the other each node is
    hashed first after its children, and its hash is compared with its
    field tuple's just before and just after.
    """
    seen = set()

    @SETTINGS
    @given(FORMULAS)
    def check(f):
        seen.update(_node_types(f))
        text = format_formula(f)
        first, second = parse_formula(text), parse_formula(text)
        hash(first)
        for a, b in zip(_nodes(first), _nodes(second)):  # the roots last
            assert a is not b or isinstance(a, (fm.TrueFormula, fm.FalseFormula))
            expected = hash(_field_tuple(b))
            assert hash(b) == expected == hash(_field_tuple(b)) == hash(b) == hash(a)

    check()
    assert _EVERY_NODE_TYPE <= seen, _EVERY_NODE_TYPE - seen


def test_trace_round_trip():
    seen = set()

    @SETTINGS
    @given(st.one_of(UNTIMED, TIMED))
    def check(t):
        seen.add((type(t).__name__, len(t) == 0))
        back = parse_trace(format_trace(t))
        if len(t) == 0:
            # Both empty traces print as `eps`, which reads back untimed.
            assert back == Trace(())
        else:
            assert back == t

    check()
    assert seen == {(kind, empty) for kind in ("Trace", "TimedTrace") for empty in (False, True)}


def test_empty_timed_trace_reads_back_untimed():
    assert format_trace(TimedTrace((), ())) == "eps"
    assert parse_trace("eps") == Trace(())


# Text put before every token of a generated trace: mostly nothing, else
# whitespace or a comment (which may hold trace symbols) up to a newline.
_GAPS = ("", "", "", "", " ", "\t", "\n", "\r\n", " \n\t ", "% note\n", "%{a};@1\n", "\n% }, %{\n")
# Characters that the mutations insert: the trace symbols, whitespace, digits,
# name characters, characters that start no token, a non-ASCII digit and a
# superscript (which `\d` would read as digits) and Unicode spaces (which
# `\s` would skip).
_INSERT = "{},;@%\n \t\r0179abzeA_$" + "\u0663" * 6 + "\u00b2" * 2 + "\x0b\x0c\xa0\u2003\x1c"
_TRACE_NAMES = ("a", "b", "c", "x_1", "aZ9", "eps", "tt", "not")


def _trace_text(rng: random.Random, steps: int, timed: bool, odd: int = -1, canonical: bool = False) -> str:
    """`eps` or `steps` steps, with a gap before every token unless `canonical`.

    Stamps grow by 0, 1, 7 or up to 10**40; step `odd` alone is timed in an
    untimed trace, or alone untimed in a timed one.  A `canonical` text has
    no gap and no comment: the form `format_trace` writes.
    """
    if steps == 0:
        tokens = ["eps"]
    else:
        tokens, time = [], 0
        for k in range(steps):
            if k:
                tokens.append(";")
            tokens.append("{")
            for i, name in enumerate(rng.sample(_TRACE_NAMES, rng.randint(0, 3))):
                tokens += [",", name] if i else [name]
            tokens.append("}")
            time += rng.choice((0, 1, 7, 10 ** rng.randint(1, 40)))
            if timed != (k == odd):
                tokens += ["@", str(time)]
    if canonical:
        return "".join(tokens)
    text = "".join(rng.choice(_GAPS) + token for token in tokens) + rng.choice(_GAPS)
    # Input that ends inside a comment.
    return text + "% end" if rng.random() < 0.2 else text


def _read(parse, text: str):
    try:
        t = parse(text)
    except ParseError as exc:
        return ("error", exc.line, exc.column, exc.expected, exc.found)
    return (type(t).__name__, t)


def test_trace_scanner_agrees_with_the_token_grammar():
    """The split reader, and the `trace` production behind it, read what the token grammar reads.

    The `canonical` mutations draw texts with no gap, timed or not, which
    the split reads as they are, and insert or delete one character, which
    it must refuse or read alike; `canonical stamp digit` puts the Arabic-Indic
    digit three, which `int` reads as 3, into the last stamp of a timed one.
    The other mutations draw spaced and commented texts, which it reads once
    their comments and whitespace are gone.
    """
    seen = set()

    @SETTINGS
    @given(
        st.integers(0, 400),
        st.booleans(),
        st.sampled_from(
            ("none", "insert", "delete", "odd step", "canonical", "canonical insert", "canonical delete", "canonical stamp digit")
        ),
        st.integers(0, 2**32 - 1),
    )
    def check(steps, timed, mutation, seed):
        rng = random.Random(seed)
        odd = rng.randrange(steps) if mutation == "odd step" and steps else -1
        canonical = mutation.startswith("canonical")
        timed = timed or mutation == "canonical stamp digit"
        text = _trace_text(rng, steps, timed, odd, canonical)
        at = rng.randint(0, len(text))
        if mutation.endswith("insert"):
            text = text[:at] + rng.choice(_INSERT) + text[at:]
        elif mutation.endswith("delete"):
            text = text[:at] + text[at + 1 :]
        elif mutation == "canonical stamp digit" and steps:  # the last stamp, which no later stamp bounds
            at = rng.randint(text.rindex("@") + 1, len(text))
            text = text[:at] + "\u0663" + text[at:]
        outcome = _read(parse_trace, text)
        assert outcome == _read(token_parse_trace, text)
        seen.add((mutation, outcome[0]))
        if canonical and timed and steps:
            seen.add(("timed " + mutation, outcome[0]))
        if steps >= 300:
            seen.add("300+ steps")

    check()
    every = {("none", "Trace"), ("none", "TimedTrace"), ("insert", "error"), ("delete", "error"), ("odd step", "error")}
    every |= {("canonical", "Trace"), ("canonical insert", "error"), ("canonical delete", "error")}
    every |= {("canonical", "TimedTrace"), ("timed canonical insert", "error"), ("timed canonical delete", "error")}
    every |= {("canonical stamp digit", "error")}
    assert every | {"300+ steps"} <= seen, every - seen


_GUARDS = ("a", "b", "tt", "!a", "a & b", "(a | b)", "!(a -> c)")
_LEAVES = ("a", "b", "c", "tt", "ff")
_PREFIXES = ("!", "X ", "F ", "G ", "X[1,3) ", "N ", "Y ")
_BINARY = ("&", "|", "->", "U", "R", "S", "T")
# Characters that the mutations insert: path and formula symbols, names and a space.
_PATH_INSERT = "()<>[]?;+*&|!-abX "


def _formula_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES)
    kind = rng.choice(("prefix", "binary", "diamond", "box", "group"))
    if kind == "prefix":
        return rng.choice(_PREFIXES) + _operand(rng, depth - 1)
    if kind == "binary":
        return f"{_operand(rng, depth - 1)} {rng.choice(_BINARY)} {_operand(rng, depth - 1)}"
    if kind == "group":
        return f"({_formula_text(rng, depth - 1)})"
    opening, closing = ("<", ">") if kind == "diamond" else ("[", "]")
    return f"{opening}{_path_text(rng, depth - 1)}{closing} {_operand(rng, depth - 1)}"


def _operand(rng: random.Random, depth: int) -> str:
    text = _formula_text(rng, depth)
    return f"({text})" if " " in text and rng.random() < 0.8 else text


def _path_text(rng: random.Random, depth: int) -> str:
    """A path: steps, tests of temporal formulas, groups, stars, sequences, alternations and guards that start with `(`."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_GUARDS)
    kind = rng.choice(("test", "group", "star", "seq", "alt", "guard"))
    if kind == "test":
        return _operand(rng, depth - 1) + "?"
    if kind == "group":
        return f"({_path_text(rng, depth - 1)})"
    if kind == "star":
        return f"({_path_text(rng, depth - 1)})*"
    if kind in ("seq", "alt"):
        return f"{_path_text(rng, depth - 1)} {';' if kind == 'seq' else '+'} {_path_text(rng, depth - 1)}"
    # A guard that starts with `(` and goes on with a formula operator: a
    # step when it stays propositional, else a test or an error.
    guard = f"({rng.choice(_GUARDS)}) {rng.choice(('&', '|', '->'))} {_operand(rng, depth - 1)}"
    return guard + "?" if rng.random() < 0.5 else guard


_OPERAND_START = {"<", "[", ";", "+", "("}  # the tokens after which a path operand can start


def _guards_wrapped(text: str) -> tuple[str, list[int]]:
    """`text` with each guard that starts with `(` and goes on past its `)` with a formula operator wrapped in `( )`.

    A guard is a `( … )` after `<`, `[`, `;`, `+` or `(` whose `)` a
    formula operator follows, up to the end of the formula read from its
    `(`, which must be propositional or go on with `?`; a formula group
    that starts a formula group is wrapped too, which leaves its tree as it
    is.  Also returns, for each offset of the result and its end, the
    offset in `text` that it stands for.
    """
    tokens = _tokenize(text)
    inserts, opened = [], []
    for k, (kind, _, _, column) in enumerate(tokens):
        if kind in ("(", "[", "<"):
            opened.append(k)
        elif kind in (")", "]", ">") and opened:
            j = opened.pop()
            if kind == ")" and tokens[j][0] == "(" and j and tokens[j - 1][0] in _OPERAND_START and tokens[k + 1][1] in _BINARY:
                reader = _Parser(text)
                reader.i = j
                try:
                    guard = reader.formula()
                except ParseError:
                    continue
                if tokens[reader.i][0] != "?" and not fm.is_propositional(guard):
                    continue  # neither a test nor a step: read as a group, as before
                inserts += [(tokens[j][3] - 1, "("), (tokens[reader.i][3] - 1, ")")]
    pieces, origin, last = [], [], 0
    for offset, char in sorted(inserts):
        pieces += [text[last:offset], char]
        origin += [*range(last, offset), offset]
        last = offset
    return "".join(pieces) + text[last:], origin + list(range(last, len(text) + 1))


def test_path_operands_agree_with_the_two_branch_grammar():
    """Path operands are read once per start token, and read what the reference's two branches read.

    The texts nest groups, tests of temporal formulas, stars, alternations
    and guards that start with `(` and go on with `&`, `|` or `->`, up to
    depth 6, and some get one character inserted or deleted.  Each must give
    the reference's tree or its `ParseError` fields, except a text that the
    reference rejects at a formula operator right after a parenthesised
    guard: that text must read as the reference reads it with the whole
    guard wrapped in one more pair of parentheses.
    """
    seen = set()

    @SETTINGS
    @given(st.integers(1, 6), st.sampled_from(("none", "insert", "delete")), st.integers(0, 2**32 - 1))
    def check(depth, mutation, seed):
        rng = random.Random(seed)
        text = f"<{_path_text(rng, depth)}> c" if rng.random() < 0.5 else _formula_text(rng, depth)
        at = rng.randint(0, len(text))
        if mutation == "insert":
            text = text[:at] + rng.choice(_PATH_INSERT) + text[at:]
        elif mutation == "delete":
            text = text[:at] + text[at + 1 :]
        outcome, reference = _read(parse_formula, text), _read(reference_parse_formula, text)
        if outcome == reference:
            seen.add(("same", "error" if outcome[0] == "error" else "tree"))
            return
        assert reference[0] == "error", text
        wrapped, origin = _guards_wrapped(text)
        expected = _read(reference_parse_formula, wrapped)
        if expected[0] == "error":
            expected = (*expected[:2], origin[expected[2] - 1] + 1, *expected[3:])
        assert wrapped != text and outcome == expected, (text, wrapped, outcome, expected)
        seen.add(("former error", "error" if outcome[0] == "error" else "tree"))

    check()
    assert {("same", "tree"), ("same", "error"), ("former error", "tree")} <= seen, seen
