"""Reference semantics used to check every benchmark output.

Nothing here imports `tracelogic`.  The evaluator works on the generator's
own formula trees (nested tuples, see `inputs.py`) and follows README's
"Semantics in one paragraph": positions run 0..n, position n is a
letterless end point, existential operators need their obligation outright
and universal ones accept the end point weakly.  Truth values are Python
ints used as bit sets over positions (bit i is position i).  Every operator
gets a strong value S and a weak value W = not S(negation); the two differ
only at the end point and only for literals and the boolean connectives
over them, so temporal and path operators have W = S.  Until, release,
since and trigger are position sweeps; `<p>` and `[p]` are least fixpoints
of the path's pre-image over position sets.

The metric half restates the rule semantics of metric programs and solves
the chain systems they produce directly: every constraint links step i to
step i + 1, so each gap is independent, its minimum is the largest lower
bound on it, and the step is infeasible when that exceeds the smallest
upper bound.
"""

from __future__ import annotations

from itertools import combinations, product


class Evaluator:
    """Strong and weak truth of formula trees over one trace."""

    def __init__(self, letters):
        self.letters = tuple(letters)
        self.n = len(self.letters)
        self.all = (1 << (self.n + 1)) - 1
        self.end = 1 << self.n
        self.at_letters = self.all & ~self.end
        self._atoms: dict[str, int] = {}
        self._strong: dict[int, int] = {}
        self._keep: list = []  # keeps memo keys (node ids) alive

    def holds(self, f) -> bool:
        return bool(self.strong(f) & 1)

    def atom(self, name: str) -> int:
        mask = self._atoms.get(name)
        if mask is None:
            mask = 0
            for i, letter in enumerate(self.letters):
                if name in letter:
                    mask |= 1 << i
            self._atoms[name] = mask
        return mask

    def weak(self, f) -> int:
        tag = f[0]
        if tag == "atom":
            return self.atom(f[1]) | self.end
        if tag == "not":
            return self.all & ~self.strong(f[1])
        if tag == "and":
            return self.weak(f[1]) & self.weak(f[2])
        if tag == "or":
            return self.weak(f[1]) | self.weak(f[2])
        if tag == "imp":
            return (self.all & ~self.strong(f[1])) | self.weak(f[2])
        return self.strong(f)

    def strong(self, f) -> int:
        key = id(f)
        value = self._strong.get(key)
        if value is None:
            value = self._strong_uncached(f)
            self._strong[key] = value
            self._keep.append(f)
        return value

    def _strong_uncached(self, f) -> int:
        tag = f[0]
        n, full = self.n, self.all
        if tag == "tt":
            return full
        if tag == "ff":
            return 0
        if tag == "atom":
            return self.atom(f[1])
        if tag == "not":
            return full & ~self.weak(f[1])
        if tag == "and":
            return self.strong(f[1]) & self.strong(f[2])
        if tag == "or":
            return self.strong(f[1]) | self.strong(f[2])
        if tag == "imp":
            return (full & ~self.weak(f[1])) | self.strong(f[2])
        if tag == "X":
            return (self.strong(f[1]) >> 1) & self.at_letters
        if tag == "WX":
            return self.end | ((self.weak(f[1]) >> 1) & self.at_letters)
        if tag == "F":
            g = self.strong(f[1])
            return (1 << g.bit_length()) - 1 if g else 0
        if tag == "G":
            bad = full & ~self.weak(f[1])
            return full & ~((1 << bad.bit_length()) - 1)
        if tag == "Y":
            return (self.strong(f[1]) << 1) & full
        if tag == "WY":
            return 1 | ((self.weak(f[1]) << 1) & full)
        if tag in ("U", "R"):
            return self._future_sweep(tag, f[1], f[2])
        if tag in ("S", "T"):
            return self._past_sweep(tag, f[1], f[2])
        if tag == "dia":
            return self.pre(f[1], self.strong(f[2]))
        if tag == "box":
            return full & ~self.pre(f[1], full & ~self.weak(f[2]))
        raise ValueError(f"unknown formula node {tag!r}")

    def _bits(self, mask: int) -> list[bool]:
        return [bool((mask >> i) & 1) for i in range(self.n + 1)]

    def _future_sweep(self, tag, left, right) -> int:
        # l U r: r now, or l now and U at i+1.  l R r: weak r now, and weak l now or R at i+1.
        if tag == "U":
            lv, rv = self._bits(self.strong(left)), self._bits(self.strong(right))
        else:
            lv, rv = self._bits(self.weak(left)), self._bits(self.weak(right))
        out = 0
        cur = rv[self.n]
        if cur:
            out |= self.end
        for i in range(self.n - 1, -1, -1):
            cur = (rv[i] or (lv[i] and cur)) if tag == "U" else (rv[i] and (lv[i] or cur))
            if cur:
                out |= 1 << i
        return out

    def _past_sweep(self, tag, left, right) -> int:
        if tag == "S":
            lv, rv = self._bits(self.strong(left)), self._bits(self.strong(right))
        else:
            lv, rv = self._bits(self.weak(left)), self._bits(self.weak(right))
        out = 0
        cur = rv[0]
        if cur:
            out |= 1
        for i in range(1, self.n + 1):
            cur = (rv[i] or (lv[i] and cur)) if tag == "S" else (rv[i] and (lv[i] or cur))
            if cur:
                out |= 1 << i
        return out

    def pre(self, p, target: int) -> int:
        """Positions from which some run of path p ends in `target`."""
        tag = p[0]
        if tag == "step":
            return (target >> 1) & self.strong(p[1]) & self.at_letters
        if tag == "test":
            return target & self.strong(p[1])
        if tag == "seq":
            return self.pre(p[1], self.pre(p[2], target))
        if tag == "alt":
            return self.pre(p[1], target) | self.pre(p[2], target)
        if tag == "star":
            # Least fixpoint of Y = target | pre(q, Y); pre distributes over
            # union, so only the newly reached positions need a pre-image.
            reached, frontier = target, target
            while frontier:
                frontier = self.pre(p[1], frontier) & ~reached
                reached |= frontier
            return reached
        raise ValueError(f"unknown path node {tag!r}")


def holds(f, letters) -> bool:
    return Evaluator(letters).holds(f)


def atoms_of(f, out=None) -> set:
    out = set() if out is None else out
    if f[0] == "atom":
        out.add(f[1])
    else:
        for part in f[1:]:
            if isinstance(part, tuple):
                atoms_of(part, out)
    return out


def letters_over(ap) -> list[frozenset]:
    """Every letter over `ap`, ordered by its sorted atom tuple (the documented order)."""
    names = sorted(ap)
    subsets = [frozenset(c) for k in range(len(names) + 1) for c in combinations(names, k)]
    return sorted(subsets, key=lambda s: tuple(sorted(s)))


def trace_key(letters) -> tuple:
    """Enumeration order: shorter traces first, then letter by letter."""
    return (len(letters), tuple(tuple(sorted(letter)) for letter in letters))


def run_table(letters_row, transitions, accepting, initial, trace) -> bool:
    """Run a DFA given as plain tables; `letters_row` lists the column letters."""
    column = {letter: a for a, letter in enumerate(letters_row)}
    state = initial
    for letter in trace:
        state = transitions[state][column[letter]]
    return bool(accepting[state])


def count_accepted_paths(transitions, accepting, initial, max_len: int) -> int:
    """Number of accepted words of length <= max_len, counted over the DFA table."""
    counts = {initial: 1}
    total = 0
    for length in range(max_len + 1):
        total += sum(c for s, c in counts.items() if accepting[s])
        if length == max_len:
            break
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            for target in transitions[s]:
                nxt[target] = nxt.get(target, 0) + c
        counts = nxt
    return total


# ---------------------------------------------------------------------------
# Metric programs.  A rule is (head, body): head None (integrity constraint),
# ("plain", atom) or ("metric", lo, hi, atom) with hi None for infinity; body
# is a tuple of (atom, positive).


def _fires(body, letter) -> bool:
    return all((atom in letter) == positive for atom, positive in body)


def rule_violations(rules, letters, times) -> list[tuple[int, int]]:
    """(rule, step) pairs where a rule's body holds and its head fails."""
    out = []
    n = len(letters)
    for r, (head, body) in enumerate(rules):
        for i, letter in enumerate(letters):
            if not _fires(body, letter):
                continue
            if head is None:
                ok = False
            elif head[0] == "plain":
                ok = head[1] in letter
            else:
                _, lo, hi, atom = head
                ok = i + 1 < n and atom in letters[i + 1]
                if ok:
                    gap = times[i + 1] - times[i]
                    ok = lo <= gap and (hi is None or gap < hi)
            if not ok:
                out.append((r, i))
    return out


def step_bounds(rules, letters):
    """Per-step gap bounds implied by the rules, or ("untimed", rule, step).

    Returns a list of (lows, highs) per step i (the gap t_{i+1} - t_i) and
    the list of constraints as (i, i + 1, lo, hi) tuples.
    """
    n = len(letters)
    bounds = [([0], []) for _ in range(max(n - 1, 0))]
    constraints = []
    for r, (head, body) in enumerate(rules):
        for i, letter in enumerate(letters):
            if not _fires(body, letter):
                continue
            if head is None:
                return ("untimed", r, i)
            if head[0] == "plain":
                if head[1] not in letter:
                    return ("untimed", r, i)
                continue
            _, lo, hi, atom = head
            if i + 1 >= n or atom not in letters[i + 1]:
                return ("untimed", r, i)
            upper = None if hi is None else hi - 1
            bounds[i][0].append(lo)
            if upper is not None:
                bounds[i][1].append(upper)
            constraints.append((i, i + 1, lo, upper))
    for i in range(n - 1):
        constraints.append((i, i + 1, 0, None))
    return bounds, constraints


def chain_solution(rules, letters):
    """("witness", times), ("infeasible", step) or ("untimed", rule, step)."""
    derived = step_bounds(rules, letters)
    if derived[0] == "untimed":
        return derived
    bounds, _ = derived
    times = [0] * len(letters)
    for i, (lows, highs) in enumerate(bounds):
        gap = max(lows)
        if highs and gap > min(highs):
            return ("infeasible", i)
        times[i + 1] = times[i] + gap
    return ("witness", tuple(times))


def constraints_contradict(listed) -> bool:
    """Chain constraints (i, j, lo, hi) admit no solution exactly when one step's bounds cross."""
    per_step: dict = {}
    for i, j, lo, hi in listed:
        if j != i + 1:
            return False
        lows, highs = per_step.setdefault(i, ([], []))
        lows.append(lo)
        if hi is not None:
            highs.append(hi)
    return any(highs and max(lows) > min(highs) for lows, highs in per_step.values())


def brute_force_models(rules, ap, horizon: int) -> list[tuple]:
    """Every length-`horizon` trace over `ap` that admits timestamps, with its minimal times."""
    out = []
    for letters in product(letters_over(ap), repeat=horizon):
        solved = chain_solution(rules, letters)
        if solved[0] == "witness":
            out.append((tuple(letters), solved[1]))
    return out
