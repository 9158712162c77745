"""Pinned parser outcomes on a seeded corpus of ASCII inputs.

Every input goes through `parse_formula`, `parse_trace` and `parse_program`.
Each outcome is hashed as canonical text: `format_formula` or `format_trace`
for a tree, the rules as tuples in source order for a program (each body
as its literals `[name, positive]`, the form bodies had when the digest was
pinned), and
`(line, column, expected, found)` for a `ParseError`.  No `repr` of a tree is
hashed, because the order of a frozenset follows the string-hash seed.
The digest was computed with the hand-written character-loop parser that the
regex scanner replaced, so any change of tree, error position or message on
these inputs shows up here.
"""

import hashlib
import json
import random

from conftest import random_any_formula, random_trace
from tracelogic.errors import ParseError
from tracelogic.formula import And, Atom, MetricNext, TrueFormula, format_formula
from tracelogic.parser import parse_formula, parse_program, parse_trace
from tracelogic.trace import format_trace

CORPUS_DIGEST = "db78fabee5c4149caf15c922a62bdfaedec2d0dcdfeeb9fb156d6c5b21846f73"
CORPUS_SIZE = 10_761

HAND_WRITTEN = [
    "",
    "tt",
    "ff",
    "a",
    "X[1,inf) a",
    "WX[0,3) (a | b)",
    "X[5,5) a",
    "X[9,2) a",
    "X[007,3) a",
    "X [1,2) a",
    "X[a] b",
    "<(a? ; tt)*> b",
    "<(F a)?> b",
    "<F a> b",
    "<(a ; b)*> c",
    "[a + b ; c*] d",
    "a -> b -> c",
    "a U b U c | d & e",
    "!!!a S b T c",
    "Y WY a R b",
    "(((a)))",
    "a &&& b",
    "a @",
    "a\n&\n  b % trailing",
    "a & % comment\n b",
    "eps",
    "eps;{a}",
    "{}",
    "{a,b};{}",
    "{drive}@0;{school}@25",
    "{a}@5;{b}@3",
    "{a}@1;{b}",
    "{a};{b}@1",
    "{a}; $",
    "{A}",
    "{_a}",
    "{a,}",
    "licensed.",
    ":- drive, not licensed.",
    "X[20,40) school :- drive.",
    "school :- X[1,2) drive.",
    "school :- WX[1,2) drive.",
    "X[3,1) a.",
    "X a.",
    "not.",
    "a :- not not.",
    "% only a comment",
    "a :- b. % rule\nc.\n% last",
    "a -",
    "a :",
    "a :-- b.",
    "'",
    "\\",
    "\t{a}\r\n",
]

# Characters for one-character insertions: every symbol, the comment sign,
# whitespace, digits, letters (operator names among them) and a few characters
# that start no token.
_INSERT = "()[]<>{},;@.!&|+*?-:%\n \t0179abzXWFGYURSTiE_$#'\"\\^~"


def _program_text(rng: random.Random) -> str:
    names = ("a", "b", "drive", "school", "x1", "not")
    rules = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("fact", "rule", "constraint", "metric"))
        body = ", ".join(
            ("not " if rng.random() < 0.3 else "") + rng.choice(names) for _ in range(rng.randint(1, 3))
        )
        head = rng.choice(names)
        if kind == "metric":
            lo = rng.randint(0, 30)
            hi = "inf" if rng.random() < 0.3 else str(lo + rng.randint(1, 20))
            head = f"X[{lo},{hi}) {head}"
        if kind == "fact":
            rules.append(f"{head}.")
        elif kind == "constraint":
            rules.append(f":- {body}.")
        else:
            rules.append(f"{head} :- {body}.")
        if rng.random() < 0.2:
            rules.append("% note")
    return rng.choice((" ", "\n")).join(rules)


def _mutations(rng: random.Random, text: str) -> list[str]:
    out = []
    for _ in range(3):
        at = rng.randint(0, len(text))
        out.append(text[:at] + rng.choice(_INSERT) + text[at:])
    for _ in range(2):
        if text:
            at = rng.randrange(len(text))
            out.append(text[:at] + text[at + 1 :])
    return out


def corpus() -> list[str]:
    rng = random.Random(5)
    texts = list(HAND_WRITTEN)
    texts += [format_formula(random_any_formula(rng, rng.randint(1, 12))) for _ in range(240)]
    texts += [format_trace(random_trace(rng, max_len=5, timed=rng.random() < 0.5)) for _ in range(100)]
    texts += [_program_text(rng) for _ in range(70)]
    inputs = list(texts)
    for text in texts:
        inputs += [text[:k] for k in range(len(text))]
        inputs += _mutations(rng, text)
        # Input that ends inside a comment, on the first line and on a later one.
        cut = rng.randint(0, len(text))
        inputs.append(text[:cut] + "% tail")
        inputs.append(text + "\n  %")
    return list(dict.fromkeys(inputs))


def _outcome(parse, text: str):
    try:
        result = parse(text)
    except ParseError as exc:
        return ["error", exc.line, exc.column, exc.expected, exc.found]
    if parse is parse_formula:
        return ["formula", format_formula(result)]
    if parse is parse_trace:
        return [type(result).__name__, format_trace(result)]
    rules = []
    for rule in result.rules:
        head = rule.head
        if isinstance(head, MetricNext):
            head = ["MetricHead", head.lo, head.hi, head.arg.name]
        elif head is not None:
            head = ["PlainHead", None, None, head.name]
        rules.append([head, _pairs(rule.body)])
    return ["program", rules]


def _pairs(body) -> list:
    """A rule body's literals in source order, each as `[name, positive]`."""
    literals = []
    while isinstance(body, And):
        literals.append(body.right)
        body = body.left
    if not isinstance(body, TrueFormula):
        literals.append(body)
    return [[lit.name, True] if isinstance(lit, Atom) else [lit.arg.name, False] for lit in reversed(literals)]


def corpus_digest(inputs) -> str:
    digest = hashlib.sha256()
    for text in inputs:
        for parse in (parse_formula, parse_trace, parse_program):
            line = json.dumps([parse.__name__, text, _outcome(parse, text)])
            digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_corpus_is_ascii_and_large():
    inputs = corpus()
    assert len(inputs) == CORPUS_SIZE >= 10_000
    assert all(text.isascii() for text in inputs)


def test_pinned_outcomes():
    assert corpus_digest(corpus()) == CORPUS_DIGEST


def test_program_heads_read_back_as_formulas():
    """Every rule head of the corpus is a formula node: `format_formula` prints it and `parse_formula` reads it back."""
    heads = set()
    for text in corpus():
        try:
            heads.update(rule.head for rule in parse_program(text).rules if rule.head is not None)
        except ParseError:
            pass
    assert (len(heads), sum(isinstance(head, MetricNext) for head in heads)) == (67, 37)  # 30 plain heads
    for head in heads:
        assert parse_formula(format_formula(head)) == head


def test_program_bodies_read_back_as_formulas():
    """Every rule body of the corpus is a formula node: `format_formula` prints it and `parse_formula` reads it back."""
    bodies = set()
    for text in corpus():
        try:
            bodies.update(rule.body for rule in parse_program(text).rules)
        except ParseError:
            pass
    assert (len(bodies), sum(isinstance(body, And) for body in bodies)) == (82, 66)  # `tt` and 15 single literals
    for body in bodies:
        assert parse_formula(format_formula(body)) == body
