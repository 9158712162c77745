"""Graphviz DOT emission for all four automaton kinds.

Output is deterministic for a fixed input: states are walked in ordinal
order and letters in canonical order.  Alternating transitions whose
image needs several successor states at once are routed through a small
conjunction node.
"""

from __future__ import annotations

from . import formula as fm
from .afa import AFA, BEGIN, END, PBF, AndNode, MoveRef, OrNode, StateRef, Weak, _Marker
from .fa import DFA, NFA
from .twafa import TwoAFA
from .trace import format_letter, letters_over


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


def _dnf(pbf: PBF) -> list[tuple]:
    """Disjuncts of leaf sets; each set is one hyper-edge."""
    match pbf:
        case True:  # literal patterns compare True and False by identity
            return [()]
        case False:
            return []
        case StateRef() | MoveRef():
            return [(pbf,)]
        case OrNode(l, r):
            out = _dnf(l)
            for leaves in _dnf(r):
                if leaves not in out:
                    out.append(leaves)
            return out
        case AndNode(l, r):
            return [a + b for a in _dnf(l) for b in _dnf(r)]
    raise TypeError(f"not a transition formula: {pbf!r}")


def _leaf_target(leaf) -> tuple[int, str]:
    if isinstance(leaf, MoveRef):
        return leaf.state, "LSR"[leaf.move + 1]
    return leaf.state, ""


def _alternating_edges(lines, q, label, pbf, edge_id):
    accept_all = False
    for d, leaves in enumerate(_dnf(pbf)):
        if not leaves:
            accept_all = True
            continue
        if len(leaves) == 1:
            target, move = _leaf_target(leaves[0])
            text = f"{label} {move}".strip()
            lines.append(f'  q{q} -> q{target} [label={_quote(text)}];')
        else:
            conj = f"c{edge_id}_{d}"
            lines.append(f'  {conj} [shape=point label=""];')
            lines.append(f'  q{q} -> {conj} [label={_quote(label)} arrowhead=none];')
            for leaf in leaves:
                target, move = _leaf_target(leaf)
                lines.append(f'  {conj} -> q{target} [label={_quote(move)}];' if move
                             else f'  {conj} -> q{target};')
    if accept_all:
        lines.append(f'  q{q} -> accept_all [label={_quote(label)}];')
    return accept_all


def _alternating_body(image_items) -> list[str]:
    lines: list[str] = []
    used_accept_all = False
    for edge_id, (q, label, pbf) in enumerate(image_items):
        used_accept_all |= _alternating_edges(lines, q, label, pbf, edge_id)
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
    suffixes = [f" [label={_quote(format_letter(a))}];" for a in automaton.letters]  # one per letter column
    body: list[str] = []
    if isinstance(automaton, NFA):
        name, successors = "nfa", automaton.successors
        for s in range(len(automaton.states)):
            head = f"  q{s} -> q"
            body += [f"{head}{t}{suffix}" for a, suffix in zip(automaton.letters, suffixes) for t in successors(s, a)]
    else:
        name = "dfa"
        for s, row in enumerate(automaton.transitions):
            head = f"  q{s} -> q"
            body += [f"{head}{t}{suffix}" for t, suffix in zip(row, suffixes)]
    labels = [str(s) for s in range(len(automaton.accepting))]
    return _digraph(name, labels, automaton.accepting, automaton.initial, body)
