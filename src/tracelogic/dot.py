"""Graphviz DOT emission for all four automaton kinds.

Output is deterministic for a fixed input: states are walked in ordinal
order and letters in canonical order.  Alternating transitions whose
image needs several successor states at once are routed through a small
conjunction node: a transition is read as a disjunction of leaf sets, from
its And nodes `(True, left, right)` and Or nodes `(False, left, right)`.
That form can be exponential in the transition, so one rendering draws at
most MAX_DISJUNCTS disjuncts, and the product that would pass it raises
SizeLimitError (stage "dot") before it is built.
"""

from __future__ import annotations

from . import formula as fm
from .afa import AFA, BEGIN, END, PBF, MoveRef, Weak, _Marker
from .errors import SizeLimitError
from .fa import DFA, NFA
from .twafa import TwoAFA
from .trace import format_letter, letters_over

# Disjuncts, each one edge or one conjunction node, that one rendering may
# draw: a release chain's 2AFA needs about 2^(d + 3) at depth d.
MAX_DISJUNCTS = 2**16


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _state_label(state) -> str:
    if isinstance(state, Weak):
        return f"weak({fm.format_formula(state.formula)})"
    return fm.format_formula(state)


def _cell_label(m) -> str:
    if isinstance(m, _Marker):
        return m.name.upper()
    return format_letter(m)


def _check_size(rendered: int, more: int) -> None:
    """SizeLimitError when `more` disjuncts after the `rendered` ones pass MAX_DISJUNCTS."""
    if rendered + more > MAX_DISJUNCTS:
        raise SizeLimitError(
            f"DOT rendering needs more than {MAX_DISJUNCTS} disjuncts",
            stage="dot", limit=MAX_DISJUNCTS, reached=rendered + more,
        )


def _dnf(pbf: PBF, rendered: int) -> list[tuple]:
    """Disjuncts of leaf sets; each set is one hyper-edge.

    Each product is sized before it is built: SizeLimitError when it and
    the `rendered` disjuncts of the transitions before it pass MAX_DISJUNCTS.
    """
    match pbf:
        case True:  # literal patterns compare True and False by identity
            return [()]
        case False:
            return []
        case int() | MoveRef():  # after the constants: True and False are ints too
            return [(pbf,)]
        case (True, l, r):
            left, right = _dnf(l, rendered), _dnf(r, rendered)
            _check_size(rendered, len(left) * len(right))
            return [a + b for a in left for b in right]
        case (False, l, r):  # the left's own duplicates, which products make, are kept
            out = _dnf(l, rendered)
            seen = set(out)
            for leaves in _dnf(r, rendered):
                if leaves not in seen:
                    seen.add(leaves)
                    out.append(leaves)
            return out
    raise TypeError(f"not a transition formula: {pbf!r}")


def _leaf_target(leaf) -> tuple[int, str]:
    if isinstance(leaf, MoveRef):
        return leaf.state, "LSR"[leaf.move + 1]
    return leaf, ""


def _alternating_body(image_items) -> list[str]:
    lines: list[str] = []
    used_accept_all = False
    rendered = 0
    for edge_id, (q, label, pbf) in enumerate(image_items):
        dnf = _dnf(pbf, rendered)
        _check_size(rendered, len(dnf))
        rendered += len(dnf)
        for d, leaves in enumerate(dnf):
            if len(leaves) == 1:
                target, move = _leaf_target(leaves[0])
                text = f"{label} {move}".strip()
                lines.append(f'  q{q} -> q{target} [label={_quote(text)}];')
            elif leaves:
                conj = f"c{edge_id}_{d}"
                lines.append(f'  {conj} [shape=point label=""];')
                lines.append(f'  q{q} -> {conj} [label={_quote(label)} arrowhead=none];')
                for leaf in leaves:
                    target, move = _leaf_target(leaf)
                    lines.append(f'  {conj} -> q{target} [label={_quote(move)}];' if move
                                 else f'  {conj} -> q{target};')
        if () in dnf:
            lines.append(f'  q{q} -> accept_all [label={_quote(label)}];')
            used_accept_all = True
    if used_accept_all:
        lines.append('  accept_all [shape=doublecircle label="tt"];')
    return lines


def _digraph(name, labels, final, initial, body) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  init [shape=point label=""];']
    for q, label in enumerate(labels):
        shape = "doublecircle" if final[q] else "circle"
        lines.append(f"  q{q} [shape={shape} label={_quote(label)}];")
    lines.append(f"  init -> q{initial};")
    lines.extend(body)
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(automaton) -> str:
    """Render any of the four automaton kinds as a DOT digraph."""
    if isinstance(automaton, AFA):
        name, final, cells = "afa", automaton.final, letters_over(automaton.ap)
    elif isinstance(automaton, TwoAFA):
        name, final, cells = "twafa", [False] * len(automaton), [BEGIN, END, *letters_over(automaton.ap)]
    else:
        return _fa_dot(automaton)
    items = [(q, _cell_label(m), automaton.delta(q, m)) for q in range(len(automaton)) for m in cells]
    labels = map(_state_label, automaton.states)
    return _digraph(name, labels, final, automaton.initial, _alternating_body(items))


def _fa_dot(automaton) -> str:
    if not isinstance(automaton, (NFA, DFA)):
        raise TypeError(f"cannot render {type(automaton).__name__} as DOT")
    letters = letters_over(automaton.ap) if isinstance(automaton, NFA) else automaton.letters
    suffixes = [f" [label={_quote(format_letter(a))}];" for a in letters]  # one per letter column
    body: list[str] = []
    if isinstance(automaton, NFA):
        name, successors = "nfa", automaton.successors
        for s in range(len(automaton.states)):
            head = f"  q{s} -> q"
            body += [f"{head}{t}{suffix}" for a, suffix in zip(letters, suffixes) for t in successors(s, a)]
    else:
        name = "dfa"
        for s, row in enumerate(automaton.transitions):
            head = f"  q{s} -> q"
            body += [f"{head}{t}{suffix}" for t, suffix in zip(row, suffixes)]
    labels = [str(s) for s in range(len(automaton.accepting))]
    return _digraph(name, labels, automaton.accepting, automaton.initial, body)
