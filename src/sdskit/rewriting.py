"""Generic string rewriting engine.

Words are tuples of indices into a finite ordered alphabet.  A rewriting
system is a finite list of oriented rules lhs -> rhs; one-step reduction
replaces an occurrence of a lhs by the corresponding rhs.  On top of that
this module provides deterministic normalization strategies (leftmost and
rightmost), critical-branching enumeration with its two walks (each
branching's legs normalized leftmost, which local confluence and Squier
cells read, and each source normalized by both strategies), bounded
congruence closure, a single Knuth-Bendix completion pass, and a
length-lexicographic termination witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

Word = tuple[int, ...]

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"

@dataclass(frozen=True)
class Alphabet:
    """Finite ordered list of generator names; letters are indices into it."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("alphabet labels must be distinct")

    def __len__(self):
        return len(self.labels)

    def name(self, letter: int) -> str:
        return self.labels[letter]

    @classmethod
    def letters(cls, n: int) -> "Alphabet":
        """The letters 1..n, labelled "1".."n"; letter x is index x - 1."""
        return cls(tuple(str(x) for x in range(1, n + 1)))


@dataclass(frozen=True, slots=True)
class Rule:
    """One oriented rule lhs -> rhs; its id is its position in `RewritingSystem.rules`.

    Slotted, so a rule costs its two sides and no per-rule `__dict__`: the
    bounded families build tens of thousands of rules (`sylvester` has
    54,425 at n = 6 with inner words of length <= 4).
    """

    lhs: Word
    rhs: Word

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("rule lhs must be non-empty")
        if self.lhs == self.rhs:
            raise ValueError("rule lhs and rhs must differ")


@dataclass(frozen=True)
class RewritingSystem:
    alphabet: Alphabet
    rules: tuple[Rule, ...]

    def __post_init__(self):
        n = len(self.alphabet)
        seen = set()  # the rules themselves: a Rule hashes and compares by its sides
        for rule in self.rules:
            for letter in rule.lhs + rule.rhs:
                if not 0 <= letter < n:
                    raise ValueError(f"letter {letter} out of range for alphabet of size {n}")
            if rule in seen:
                raise ValueError(f"duplicate rule {rule.lhs} -> {rule.rhs}")
            seen.add(rule)

    @classmethod
    def from_pairs(cls, alphabet: Alphabet, pairs: Iterable[tuple[Word, Word]]) -> "RewritingSystem":
        return cls(alphabet, tuple(Rule(tuple(l), tuple(r)) for l, r in pairs))

    @property
    def pairs(self) -> set[tuple[Word, Word]]:
        return {(rule.lhs, rule.rhs) for rule in self.rules}


@dataclass(frozen=True)
class RewriteStep:
    rule_id: int
    position: int


@dataclass(frozen=True)
class RewritePath:
    source: Word
    steps: tuple[RewriteStep, ...]
    target: Word


@dataclass(frozen=True)
class Branching:
    source: Word
    left: RewriteStep
    right: RewriteStep


@lru_cache(maxsize=None)
def _rules_by_first_letter(system: RewritingSystem) -> dict[int, tuple[tuple[int, Word], ...]]:
    """Each first letter's (rule id, lhs) pairs, in id order.

    A table, and the system it is keyed on, lives until
    `release_step_tables` is called: `cli.main` calls it as each command
    returns, and a library caller keeps its tables for the whole process.
    """
    table: dict[int, list[tuple[int, Word]]] = {}
    for rule_id, rule in enumerate(system.rules):
        table.setdefault(rule.lhs[0], []).append((rule_id, rule.lhs))
    return {k: tuple(v) for k, v in table.items()}


# Drops every cached step table.  Bound once, here, so that it clears the
# real cache even while `_rules_by_first_letter` is swapped for a plain
# function, which has no `cache_clear` to call.
release_step_tables = _rules_by_first_letter.cache_clear


def apply_step(system: RewritingSystem, word: Word, step: RewriteStep) -> Word:
    """Replace the rule's lhs by its rhs at the step's position."""
    if not 0 <= step.rule_id < len(system.rules):
        raise ValueError(f"rule id {step.rule_id} out of range for {len(system.rules)} rules")
    i = step.position
    if i < 0:
        raise ValueError(f"negative position {i}")
    rule = system.rules[step.rule_id]
    if word[i:i + len(rule.lhs)] != rule.lhs:
        raise ValueError(f"rule {step.rule_id} does not match {word} at position {i}")
    return word[:i] + rule.rhs + word[i + len(rule.lhs):]


def replay(system: RewritingSystem, path: RewritePath) -> Word:
    """Re-apply the path's steps from its source; checks the cached target."""
    word = path.source
    for step in path.steps:
        word = apply_step(system, word, step)
    if word != path.target:
        raise ValueError("path target does not match replayed word")
    return word


def _first_step(system: RewritingSystem, word: Word) -> RewriteStep | None:
    """The leftmost match, by the lowest rule id there (tables are in id order)."""
    table = _rules_by_first_letter(system)
    for i, letter in enumerate(word):
        for rule_id, lhs in table.get(letter, ()):
            if word[i:i + len(lhs)] == lhs:
                return RewriteStep(rule_id, i)
    return None


def _last_step(system: RewritingSystem, word: Word) -> RewriteStep | None:
    """The rightmost match, by the highest rule id there."""
    table = _rules_by_first_letter(system)
    for i in range(len(word) - 1, -1, -1):
        for rule_id, lhs in reversed(table.get(word[i], ())):
            if word[i:i + len(lhs)] == lhs:
                return RewriteStep(rule_id, i)
    return None


def is_normal_form(system: RewritingSystem, word: Word) -> bool:
    return _first_step(system, word) is None


def default_budget(word: Word) -> int:
    # Guards user-supplied systems; every system built here terminates quickly.
    return 10 * len(word) * len(word)


@dataclass(frozen=True)
class NormalizeResult:
    path: RewritePath
    reached_normal_form: bool

    @property
    def target(self) -> Word:
        return self.path.target


def normalize(system: RewritingSystem, word: Word, strategy: str = LEFTMOST,
              budget: int | None = None) -> NormalizeResult:
    """Normalize by repeatedly applying the leftmost (or rightmost) step.

    Stops at a normal form or once `budget` steps were taken; the result
    flags which of the two happened.
    """
    if budget is None:
        budget = default_budget(word)
    if budget < 0:
        raise ValueError("budget must be >= 0")
    pick = _first_step if strategy == LEFTMOST else _last_step
    if strategy not in (LEFTMOST, RIGHTMOST):
        raise ValueError(f"unknown strategy {strategy!r}")
    steps = []
    current = word
    for _ in range(budget):
        step = pick(system, current)
        if step is None:
            break
        steps.append(step)
        current = apply_step(system, current, step)
    reached = pick(system, current) is None
    return NormalizeResult(RewritePath(word, tuple(steps), current), reached)


def critical_branchings(system: RewritingSystem) -> list[Branching]:
    """All critical branchings up to symmetry.

    Sources are either a proper suffix/prefix overlap of two lhs's or one
    lhs containing another; the two steps are ordered by (position, rule id).
    """
    found = {}
    for (id1, r1), (id2, r2) in itertools.product(enumerate(system.rules), repeat=2):
        l1, l2 = r1.lhs, r2.lhs
        # proper overlap: a suffix of l1 is a prefix of l2
        for k in range(1, min(len(l1), len(l2))):
            if l1[len(l1) - k:] == l2[:k]:
                source = l1 + l2[k:]
                _record(found, source,
                        RewriteStep(id1, 0),
                        RewriteStep(id2, len(l1) - k))
        # inclusion: l2 occurs inside l1
        if len(l2) <= len(l1):
            for p in range(len(l1) - len(l2) + 1):
                if l1[p:p + len(l2)] == l2:
                    if id1 == id2 and p == 0 and len(l1) == len(l2):
                        continue
                    _record(found, l1,
                            RewriteStep(id1, 0),
                            RewriteStep(id2, p))
    order = sorted(found.values(), key=lambda b: (b.source, b.left.position,
                                                  b.left.rule_id, b.right.position,
                                                  b.right.rule_id))
    return order


def _record(found, source, a: RewriteStep, b: RewriteStep):
    # both callers pass two distinct steps that together span the source,
    # so the branching is critical
    if (a.position, a.rule_id) > (b.position, b.rule_id):
        a, b = b, a
    found[(source, a, b)] = Branching(source, a, b)


def branching_legs(system: RewritingSystem, branching: Branching,
                   budget: int | None = None) -> tuple[NormalizeResult, NormalizeResult]:
    """The left and right legs of a branching: its step, then leftmost
    normalization within `budget` steps.  Each leg's path starts at the
    branching's source."""
    legs = []
    for step in (branching.left, branching.right):
        rest = normalize(system, apply_step(system, branching.source, step), LEFTMOST, budget)
        path = RewritePath(branching.source, (step,) + rest.path.steps, rest.target)
        legs.append(NormalizeResult(path, rest.reached_normal_form))
    return legs[0], legs[1]


def strategy_paths(system: RewritingSystem, budget: int | None = None
                   ) -> Iterator[tuple[Word, NormalizeResult, NormalizeResult]]:
    """Each critical branching's source with its leftmost and rightmost
    normalizations, in `critical_branchings` order; one that hit `budget`
    stops there.  Lazy, so a caller may stop at the first hit."""
    for word in (b.source for b in critical_branchings(system)):
        yield (word, normalize(system, word, LEFTMOST, budget),
               normalize(system, word, RIGHTMOST, budget))


def check_local_confluence(system: RewritingSystem, budget: int | None = None
                           ) -> list[tuple[Branching, NormalizeResult, NormalizeResult]]:
    """Every critical branching with its two legs (`branching_legs`), in
    `critical_branchings` order; `coherence.legs_witness` says whether the
    legs close."""
    return [(b, *branching_legs(system, b, budget)) for b in critical_branchings(system)]


def words_up_to(alphabet_size: int, max_len: int) -> list[Word]:
    """All words of length <= max_len, shortest first, lexicographic within a length."""
    out: list[Word] = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product(range(alphabet_size), repeat=length))
    return out


@dataclass
class CongruencePartition:
    exact: bool
    representative: dict[Word, Word]

    def classes(self) -> list[frozenset[Word]]:
        by_rep: dict[Word, set[Word]] = {}
        for word, rep in self.representative.items():
            by_rep.setdefault(rep, set()).add(word)
        return [frozenset(v) for v in by_rep.values()]


def congruence_classes(system: RewritingSystem, max_len: int) -> CongruencePartition:
    """Partition of all words of length <= max_len under the congruence of the rules.

    The closure is computed over words of length up to max_len plus one
    rule-length gap, so that joins through slightly longer internal
    witnesses are found when rules change length; the reported partition is
    restricted to length <= max_len.  It is exact when every rule preserves
    length and flagged as a lower bound otherwise.

    Each word is joined to every rewrite of one lhs occurrence that stays
    within the working length, found by looking its factors up by lhs.  The
    reverse orientation adds no join: if w' holds a rhs at p and its
    rewrite w by the lhs fits, then w is a working word, and scanning w for
    that lhs at p joins the same pair.
    """
    gap = max((abs(len(r.lhs) - len(r.rhs)) for r in system.rules), default=0)
    exact = gap == 0
    work_len = max_len + gap
    words = words_up_to(len(system.alphabet), work_len)
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    by_lhs: dict[Word, list[Word]] = {}
    for rule in system.rules:
        by_lhs.setdefault(rule.lhs, []).append(rule.rhs)
    lengths = sorted({len(lhs) for lhs in by_lhs})
    for i, word in enumerate(words):
        for k in lengths:
            for p in range(len(word) - k + 1):
                for rhs in by_lhs.get(word[p:p + k], ()):
                    other = word[:p] + rhs + word[p + k:]
                    if len(other) <= work_len:
                        union(i, index[other])
    rep: dict[Word, Word] = {}
    root_word: dict[int, Word] = {}
    for word in words:  # shortest-first order makes the first-seen root word minimal
        if len(word) > max_len:
            continue
        root = find(index[word])
        if root not in root_word:
            root_word[root] = word
        rep[word] = root_word[root]
    return CongruencePartition(exact, rep)


@dataclass(frozen=True)
class CompletionResult:
    system: RewritingSystem
    added: tuple[tuple[Word, Word], ...]
    unorientable: tuple[tuple[Word, Word], ...]
    budget_exhausted: bool


def knuth_bendix_pass(system: RewritingSystem, order_less: Callable[[Word, Word], bool],
                      budget: int | None = None) -> CompletionResult:
    """One completion pass over the critical branchings of `system`.

    Every critical branching of the input system has both legs normalized
    against the input rules plus the rules added so far; when the targets
    differ, the pair is oriented by `order_less` (larger side becomes the
    new lhs) and added.  Branchings of added rules are never considered.
    Added right-hand sides are normalized against the final rule set, so
    the outcome does not depend on the branching processing order.
    """
    branchings = critical_branchings(system)
    pairs: list[tuple[Word, Word]] = [(r.lhs, r.rhs) for r in system.rules]
    given = len(pairs)
    pair_set = set(pairs)
    unorientable: list[tuple[Word, Word]] = []
    exhausted = False

    cur = RewritingSystem.from_pairs(system.alphabet, pairs)
    changed = True
    while changed:
        changed = False
        for branching in branchings:
            left, right = branching_legs(cur, branching, budget)
            if not (left.reached_normal_form and right.reached_normal_form):
                exhausted = True
                continue
            a, b = left.target, right.target
            if a == b:
                continue
            if order_less(a, b):
                new = (b, a)
            elif order_less(b, a):
                new = (a, b)
            else:
                if (a, b) not in unorientable and (b, a) not in unorientable:
                    unorientable.append((a, b))
                continue
            if new not in pair_set:
                pairs.append(new)
                pair_set.add(new)
                changed = True
                cur = RewritingSystem.from_pairs(system.alphabet, pairs)

    # normalize added right-hand sides against the final set, which `cur` is
    cleaned = pairs[:given]
    cleaned_added = []
    seen = set(cleaned)
    for lhs, rhs in pairs[given:]:
        nf = normalize(cur, rhs, LEFTMOST, budget)
        if not nf.reached_normal_form:
            exhausted = True
        new = (lhs, nf.target)
        if new[0] != new[1] and new not in seen:
            cleaned.append(new)
            cleaned_added.append(new)
            seen.add(new)
    result = RewritingSystem.from_pairs(system.alphabet, cleaned)
    return CompletionResult(result, tuple(cleaned_added), tuple(unorientable), exhausted)


@dataclass(frozen=True)
class SystemFlags:
    semi_quadratic: bool
    quadratic: bool
    reduced: bool


def classify(system: RewritingSystem) -> SystemFlags:
    """Shape flags: semi-quadratic, quadratic, and reduced (each lhs is
    reducible by its own rule only, each rhs is a normal form)."""
    semi = all(len(r.lhs) == 2 and len(r.rhs) <= 2 for r in system.rules)
    quad = all(len(r.lhs) == 2 and len(r.rhs) == 2 for r in system.rules)
    # both picks take (own id, 0) exactly when every match is at 0 and has that id
    reduced = all(_first_step(system, r.lhs) == RewriteStep(i, 0)
                  == _last_step(system, r.lhs) and is_normal_form(system, r.rhs)
                  for i, r in enumerate(system.rules))
    return SystemFlags(semi, quad, reduced)


def termination_witness(system: RewritingSystem,
                        letter_less: Callable[[int, int], bool]) -> Rule | None:
    """The first rule, in rule order, that a length-lexicographic order does
    not decrease: its rhs is longer than its lhs, or as long without a first
    letter strictly below the lhs's first letter under `letter_less`.  None
    when every rule decreases, which proves termination."""
    for rule in system.rules:
        lhs, rhs = rule.lhs, rule.rhs
        if len(rhs) > len(lhs) or (len(rhs) == len(lhs)
                                   and not letter_less(rhs[0], lhs[0])):
            return rule
    return None


def system_to_json(system: RewritingSystem) -> dict:
    """The system as JSON data; its rules are an iterator that makes one
    dict per rule as it is consumed, so a writer need not hold them all."""
    return {
        "alphabet": list(system.alphabet.labels),
        "rules": ({"lhs": list(r.lhs), "rhs": list(r.rhs)} for r in system.rules),
    }
