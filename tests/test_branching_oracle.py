"""The critical-branching layer against its pre-refactor code.

The functions below are verbatim copies of the code the shared
critical-branching layer replaced: `critical_branchings` with `_record`
and `classify_branching` (which filtered branchings that are always
critical), the three loops that normalized branching legs on their own
(`check_local_confluence`, `knuth_bendix_pass`, `squier_cells`), the
`classify` that built one system per rule, and `verify_path_bounds` with
its own scan of reducible triples, and the reports that `verify_rule_shape`
and `verify_knuth_decomposition` built by hand.  The two staircase
verifiers read the hand-written commutation and square lists that
`chinese.rule_shapes` replaced, copied here too, so that they do not
compare the rule shapes with themselves.  They serve as test-only oracles: the
new code must agree with them on every registered presentation at small
bounds and on random systems.  The two staircase verifiers name their
witness letters from the system's alphabet, as `sds.datum_label` now names
every generator.  The `check_local_confluence` oracle returns, per
branching, the two targets and whether both legs reached a normal form in
place of the record classes it built, which are gone: the walk it is
compared with returns the legs themselves.  A rule's id is its position
in the system, so the oracles take ids from `enumerate(system.rules)`.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from sdskit import chinese, coherence, registry, rewriting, young
from sdskit.chinese import (
    Gen,
    _rule_gens,
    completed_order_less,
    completed_presentation,
    qn_generators,
)
from sdskit.coherence import ThreeCell
from sdskit.rewriting import (
    LEFTMOST,
    RIGHTMOST,
    Alphabet,
    Branching,
    CompletionResult,
    NormalizeResult,
    RewritePath,
    RewriteStep,
    RewritingSystem,
    SystemFlags,
    Word,
    apply_step,
    default_budget,
    is_normal_form,
    normalize,
)
from sdskit.young import column_presentation, knuth_pairs, read_tableau

ASPHERICAL = "aspherical"
PEIFFER = "peiffer"
OVERLAPPING = "overlapping"
CRITICAL = "critical"


def classify_branching(source: Word, system: RewritingSystem,
                       left: RewriteStep, right: RewriteStep) -> str:
    """Classify a local branching (two one-step reductions of one word)."""
    if left == right:
        return ASPHERICAL
    l_span = (left.position, left.position + len(system.rules[left.rule_id].lhs))
    r_span = (right.position, right.position + len(system.rules[right.rule_id].lhs))
    if l_span[1] <= r_span[0] or r_span[1] <= l_span[0]:
        return PEIFFER
    if min(l_span[0], r_span[0]) == 0 and max(l_span[1], r_span[1]) == len(source):
        return CRITICAL
    return OVERLAPPING


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
                _record(found, system, source,
                        RewriteStep(id1, 0),
                        RewriteStep(id2, len(l1) - k))
        # inclusion: l2 occurs inside l1
        if len(l2) <= len(l1):
            for p in range(len(l1) - len(l2) + 1):
                if l1[p:p + len(l2)] == l2:
                    if id1 == id2 and p == 0 and len(l1) == len(l2):
                        continue
                    _record(found, system, l1,
                            RewriteStep(id1, 0),
                            RewriteStep(id2, p))
    order = sorted(found.values(), key=lambda b: (b.source, b.left.position,
                                                  b.left.rule_id, b.right.position,
                                                  b.right.rule_id))
    return order


def _record(found, system, source, a: RewriteStep, b: RewriteStep):
    if (a.position, a.rule_id) > (b.position, b.rule_id):
        a, b = b, a
    if a == b:
        return
    kind = classify_branching(source, system, a, b)
    if kind != CRITICAL:
        return
    found[(source, a, b)] = Branching(source, a, b)


def check_local_confluence(system: RewritingSystem, budget: int | None = None
                           ) -> list[tuple[Branching, Word, Word, bool]]:
    """Normalize both legs of every critical branching: each branching with
    its two targets and whether both legs reached a normal form."""
    checks = []
    for branching in critical_branchings(system):
        left = normalize(system, apply_step(system, branching.source, branching.left),
                         LEFTMOST, budget)
        right = normalize(system, apply_step(system, branching.source, branching.right),
                          LEFTMOST, budget)
        complete = left.reached_normal_form and right.reached_normal_form
        checks.append((branching, left.target, right.target, complete))
    return checks


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
    pair_set = set(pairs)
    added: list[tuple[Word, Word]] = []
    unorientable: list[tuple[Word, Word]] = []
    exhausted = False

    def current_system():
        return RewritingSystem.from_pairs(system.alphabet, pairs)

    changed = True
    while changed:
        changed = False
        cur = current_system()
        for branching in branchings:
            left = normalize(cur, apply_step(cur, branching.source, branching.left),
                             LEFTMOST, budget)
            right = normalize(cur, apply_step(cur, branching.source, branching.right),
                              LEFTMOST, budget)
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
                added.append(new)
                changed = True
                cur = current_system()

    # normalize added right-hand sides against the final set
    final = current_system()
    cleaned: list[tuple[Word, Word]] = [(r.lhs, r.rhs) for r in system.rules]
    cleaned_added = []
    seen = set(cleaned)
    for lhs, rhs in added:
        nf = normalize(final, rhs, LEFTMOST, budget)
        if not nf.reached_normal_form:
            exhausted = True
        new = (lhs, nf.target)
        if new[0] != new[1] and new not in seen:
            cleaned.append(new)
            cleaned_added.append(new)
            seen.add(new)
    result = RewritingSystem.from_pairs(system.alphabet, cleaned)
    return CompletionResult(result, tuple(cleaned_added), tuple(unorientable), exhausted)


def classify(system: RewritingSystem) -> SystemFlags:
    """Shape flags: semi-quadratic, quadratic, and reduced."""
    semi = all(len(r.lhs) == 2 and len(r.rhs) <= 2 for r in system.rules)
    quad = all(len(r.lhs) == 2 and len(r.rhs) == 2 for r in system.rules)
    reduced = True
    for rule_id, rule in enumerate(system.rules):
        others = RewritingSystem.from_pairs(
            system.alphabet,
            [(r.lhs, r.rhs) for i, r in enumerate(system.rules) if i != rule_id])
        if not is_normal_form(others, rule.lhs) or not is_normal_form(system, rule.rhs):
            reduced = False
            break
    return SystemFlags(semi, quad, reduced)


def squier_cells(system: RewritingSystem, budget: int | None = None) -> list[ThreeCell]:
    """One cell per critical branching: each leg is the branching step
    followed by leftmost normalization.  The system must be convergent."""
    cells = []
    for branching in critical_branchings(system):
        legs = []
        for step in (branching.left, branching.right):
            after = apply_step(system, branching.source, step)
            res = normalize(system, after, LEFTMOST, budget)
            if not res.reached_normal_form:
                raise ValueError(f"budget exhausted on branching {branching.source}")
            legs.append(RewritePath(branching.source, (step,) + res.path.steps,
                                    res.target))
        left, right = legs
        if left.target != right.target:
            raise ValueError(f"non-confluent branching {branching.source}")
        cells.append(ThreeCell(branching.source, left, right, branching))
    return cells


def commutation_rule_pairs(n: int) -> set[tuple[tuple[Gen, ...], tuple[Gen, ...]]]:
    """The commutation shapes: a rule is one of these exactly when its
    right-hand side starts again with the head letter of its source."""
    pairs = set()
    for y in range(2, n + 1):
        for x in range(1, y):
            pairs.add((((y, 0), (y, x)), ((y, x), (y, 0))))
            if 1 < y < n:
                pairs.add((((y, y), (y, x)), ((y, x), (y, y))))
    for z in range(2, n + 1):
        for y in range(1, z):
            for x in range(1, y):
                pairs.add((((z, y), (z, x)), ((z, x), (z, y))))
    for y in range(2, n):
        pairs.add((((y, y), (y, 0)), ((y, 0), (y, y))))
    return pairs


def square_rule_pairs(n: int) -> set[tuple[tuple[Gen, ...], tuple[Gen, ...]]]:
    """Rules led by a square generator whose right-hand side keeps the head."""
    pairs = set()
    for y in range(2, n):
        for x in range(1, y):
            pairs.add((((y, y), (x, 0)), ((y, x), (y, 0))))
            if x > 1:
                pairs.add((((y, y), (x, x)), ((y, x), (y, x))))
    for z in range(2, n):
        for y in range(2, z + 1):
            for x in range(1, y):
                pairs.add((((z, z), (y, x)), ((z, x), (z, y))))
    return pairs


def verify_path_bounds(n: int) -> dict:
    """Reduction-length bounds on critical triples of the completed system.

    Two sub-checks over every word c.c'.c'' whose two overlapping pairs are
    reducible: (a) the leftmost and rightmost paths finish within five
    steps; (b) steps four and five of a leftmost path longer than three use
    only commutation rules.  The report carries both outcomes separately;
    (b) does not hold in general (see the witness list), so the overall
    result reflects (a) and (b) independently.  It also fails when a path
    hit the normalization budget; `budget_hits` then counts those paths.
    """
    pres = completed_presentation(n)
    system = pres.system
    gens = qn_generators(n)
    name = system.alphabet.name
    reducible = {r.lhs for r in system.rules}
    commutation = commutation_rule_pairs(n)
    comm_ids = {i for i, r in enumerate(system.rules)
                if (_rule_gens(gens, r.lhs), _rule_gens(gens, r.rhs))
                in commutation}
    max_left = max_right = 0
    max_right_square = 0
    triples = 0
    bound_witness = None
    late_witnesses = []
    budget_hits = 0
    k = len(gens)
    for u, v, t in itertools.product(range(k), repeat=3):
        if (u, v) not in reducible or (v, t) not in reducible:
            continue
        triples += 1
        word = (u, v, t)
        left = normalize(system, word, LEFTMOST)
        right = normalize(system, word, RIGHTMOST)
        budget_hits += (not left.reached_normal_form) + (not right.reached_normal_form)
        ll, lr = len(left.path.steps), len(right.path.steps)
        max_left, max_right = max(max_left, ll), max(max_right, lr)
        if gens[u][0] == gens[u][1]:
            max_right_square = max(max_right_square, lr)
        if (ll > 5 or lr > 5) and bound_witness is None:
            bound_witness = {"triple": [name(i) for i in word],
                             "left": ll, "right": lr}
        if ll > 3 and any(step.rule_id not in comm_ids for step in left.path.steps[3:]):
            late_witnesses.append({
                "triple": [name(i) for i in word],
                "late_rules": [
                    [name(i) for i in system.rules[step.rule_id].lhs]
                    for step in left.path.steps[3:]
                    if step.rule_id not in comm_ids],
            })
    bounds_ok = bound_witness is None
    late_ok = not late_witnesses
    report = {"check": "path-bounds", "params": {"n": n},
              "result": "pass" if bounds_ok and late_ok and not budget_hits else "fail",
              "length_bounds": "pass" if bounds_ok else "fail",
              "late_steps_commutation": "pass" if late_ok else "fail",
              "triples": triples, "max_left": max_left, "max_right": max_right,
              "max_right_square_led": max_right_square}
    if bound_witness is not None:
        report["witness"] = bound_witness
    if late_witnesses:
        report["late_step_witnesses"] = late_witnesses[:5]
        report["late_step_violations"] = len(late_witnesses)
    if budget_hits:
        # a truncated path reads as a short one
        report["budget_hits"] = budget_hits
    return report


def verify_rule_shape(n: int) -> dict:
    """Every completed rule keeps its head letter and its index multiset.

    The head of a rule's first generator reappears as the head of the last
    right-hand generator, and the remaining indices are a permutation of
    the ones on the left (zeros padding single letters).  Rules whose
    right-hand side starts again with the head letter must be one of the
    commutation or square shapes; the report counts both families.
    """
    pres = completed_presentation(n)
    gens = qn_generators(n)
    name = pres.system.alphabet.name
    commutation = commutation_rule_pairs(n)
    square = square_rule_pairs(n)
    counts = {"commutation": 0, "square": 0}
    for rule in pres.system.rules:
        lhs = _rule_gens(gens, rule.lhs)
        rhs = _rule_gens(gens, rule.rhs)
        head = lhs[0][0]
        if rhs[-1][0] != head:
            return {"check": "rule-shape", "params": {"n": n}, "result": "fail",
                    "witness": {"rule": [name(i) for i in rule.lhs]}}
        padded_rhs = ((0, 0),) * (2 - len(rhs)) + rhs
        lhs_indices = sorted(lhs[0][1:] + lhs[1])
        rhs_indices = sorted(padded_rhs[0] + padded_rhs[1][1:])
        if lhs_indices != sorted(rhs_indices):
            return {"check": "rule-shape", "params": {"n": n}, "result": "fail",
                    "witness": {"rule": [name(i) for i in rule.lhs],
                                "reason": "index multiset"}}
        if len(rhs) == 2 and rhs[0][0] == head:
            if (lhs, rhs) in commutation:
                counts["commutation"] += 1
            elif (lhs, rhs) in square:
                counts["square"] += 1
            else:
                return {"check": "rule-shape", "params": {"n": n}, "result": "fail",
                        "witness": {"rule": [name(i) for i in rule.lhs],
                                    "reason": "unclassified head-led rule"}}
    return {"check": "rule-shape", "params": {"n": n}, "result": "pass",
            "rule_count": len(pres.system.rules), "family_counts": counts}


def verify_knuth_decomposition(n: int) -> dict:
    """Both sides of every Knuth relation must reach the same column word.

    Embeds each relation instance as a word of single-letter columns and
    normalizes both sides over the column presentation.
    """
    pres = column_presentation(n)
    system = pres.system
    index = {read_tableau(c): i for i, c in enumerate(pres.generating.generators)}
    def embed(letters):
        return tuple(index[(x,)] for x in letters)
    checked = 0
    for l, r in knuth_pairs(n):
        lhs = tuple(x + 1 for x in l)
        rhs = tuple(x + 1 for x in r)
        a = normalize(system, embed(lhs), LEFTMOST)
        b = normalize(system, embed(rhs), LEFTMOST)
        if not (a.reached_normal_form and b.reached_normal_form) or a.target != b.target:
            return {"check": "knuth-decomposition", "params": {"n": n}, "result": "fail",
                    "witness": {"lhs": list(lhs), "rhs": list(rhs)}}
        checked += 1
    return {"check": "knuth-decomposition", "params": {"n": n}, "result": "pass",
            "instances": checked}


# --- step selection, verbatim ------------------------------------------------
# The table-based step selection of `rewriting` and its `normalize` loop,
# copied: the table is built on every call here, with no cache, and
# `normalize` is named `_normalize`, since the oracles above call the
# engine's.  `rewriting.normalize` must agree with `_normalize`, leftmost and
# rightmost, on the rule sides and critical-branching sources of every
# registered presentation and of drawn systems.


def _rules_by_first_letter(system: RewritingSystem) -> dict[int, tuple[tuple[int, Word], ...]]:
    rows: dict[int, list[tuple[int, Word]]] = {}
    for rule_id, rule in enumerate(system.rules):
        rows.setdefault(rule.lhs[0], []).append((rule_id, rule.lhs))
    return {k: tuple(v) for k, v in rows.items()}


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


def _normalize(system: RewritingSystem, word: Word, strategy: str = LEFTMOST,
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


def compare_normalize(system: RewritingSystem, budget: int | None = None) -> int:
    """Asserts that `rewriting.normalize` agrees with `_normalize`, leftmost
    and rightmost, on every rule side and critical-branching source of the
    system: its path steps, its target and `reached_normal_form`.  Returns
    the number of words compared."""
    words = {side for rule in system.rules for side in (rule.lhs, rule.rhs)}
    words.update(b.source for b in critical_branchings(system))
    for word in sorted(words):
        for strategy in (LEFTMOST, RIGHTMOST):
            new = rewriting.normalize(system, word, strategy, budget)
            old = _normalize(system, word, strategy, budget)
            assert (new.path.steps, new.target, new.reached_normal_form) == \
                (old.path.steps, old.target, old.reached_normal_form), (word, strategy)
    return len(words)


# --- random systems -------------------------------------------------------

def _systems(decreasing: bool):
    """Rewriting systems over 2-3 letters with lhs lengths 1-3.  Left-hand
    sides are drawn from a small pool, so duplicates and lhs containing
    other lhs are frequent.  With `decreasing`, every rule is oriented to
    decrease in the shortlex order, so that every normalization terminates."""
    @st.composite
    def build(draw):
        k = draw(st.integers(2, 3))
        word = st.lists(st.integers(0, k - 1), min_size=1, max_size=3).map(tuple)
        pool = draw(st.lists(word, min_size=1, max_size=4))
        rules = draw(st.lists(st.tuples(st.sampled_from(pool),
                                        st.lists(st.integers(0, k - 1), max_size=3)
                                        .map(tuple)), max_size=6))
        pairs = []
        for lhs, rhs in rules:
            if decreasing and (len(lhs), lhs) < (len(rhs), rhs):
                lhs, rhs = rhs, lhs
            if lhs and lhs != rhs and (lhs, rhs) not in pairs:
                pairs.append((lhs, rhs))
        return RewritingSystem.from_pairs(Alphabet(tuple("abc"[:k])), pairs)
    return build()


def _system(*pairs):
    return RewritingSystem.from_pairs(Alphabet(("a", "b", "c")), pairs)


# a duplicate lhs, an lhs inside another (twice), and a self-overlap
TANGLED = _system(((0, 1), (1,)), ((0, 1), (0,)), ((0, 1, 0), ()), ((1,), (2,)),
                  ((2, 2, 2), (2,)))


# two rules match at position 0 of ab, 0: ab -> b and 1: a -> b, and none
# at position 1: the leftmost pick takes the lower id there, the rightmost
# the higher, so each pick's order within a letter's rules shows
TWO_AT_ONE = RewritingSystem.from_pairs(Alphabet(("a", "b")), [((0, 1), (1,)), ((0,), (1,))])


def _shortlex_less(u: Word, v: Word) -> bool:
    return (len(u), u) < (len(v), v)


def _same_report(new: dict, old: dict) -> bool:
    """Equal reports, key order included: the CLI prints them as they are."""
    return json.dumps(new) == json.dumps(old)


def _checks(system: RewritingSystem, budget: int | None = None) -> list:
    """The walk of `rewriting.check_local_confluence` on the oracle's terms."""
    return [(b, left.target, right.target, left.reached_normal_form and right.reached_normal_form)
            for b, left, right in rewriting.check_local_confluence(system, budget)]


def _outcome(fn, *args):
    """A function's value, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(_systems(decreasing=False))
@example(TANGLED)
def test_critical_branchings_and_classify_match_the_oracle(system):
    assert rewriting.critical_branchings(system) == critical_branchings(system)
    assert rewriting.classify(system) == classify(system)


def test_picks_where_two_rules_match_at_one_position():
    ab = (0, 1)
    assert rewriting._first_step(TWO_AT_ONE, ab) == RewriteStep(0, 0)
    assert rewriting._last_step(TWO_AT_ONE, ab) == RewriteStep(1, 0)
    leftmost = RewritePath(ab, (RewriteStep(0, 0),), (1,))
    rightmost = RewritePath(ab, (RewriteStep(1, 0),), (1, 1))
    assert rewriting.normalize(TWO_AT_ONE, ab, RIGHTMOST).path == rightmost
    assert [(word, left.path, right.path)
            for word, left, right in rewriting.strategy_paths(TWO_AT_ONE)] == \
        [(ab, leftmost, rightmost)]


@settings(max_examples=200, deadline=None)
@given(_systems(decreasing=True), st.sampled_from([None, 0, 1, 3]))
@example(TANGLED, None)
@example(TWO_AT_ONE, None)
def test_normalize_matches_the_step_selection_oracle(system, budget):
    compare_normalize(system, budget)


@settings(max_examples=200, deadline=None)
@given(_systems(decreasing=True), st.sampled_from([None, 0, 1, 3]))
@example(TANGLED, None)
def test_branching_leg_consumers_match_the_oracle(system, budget):
    assert _checks(system, budget) == check_local_confluence(system, budget)
    assert rewriting.knuth_bendix_pass(system, _shortlex_less, budget) == \
        knuth_bendix_pass(system, _shortlex_less, budget)
    assert _outcome(coherence.squier_cells, system, budget) == \
        _outcome(squier_cells, system, budget)


# --- registered presentations --------------------------------------------

@pytest.mark.parametrize("name", registry.PRESENTATION_NAMES)
@pytest.mark.parametrize("n", [2, 3])
def test_classify_matches_the_oracle_on_every_presentation(name, n):
    system = registry.build_presentation(name, n).system
    assert rewriting.classify(system) == classify(system)
    assert rewriting.critical_branchings(system) == critical_branchings(system)


@pytest.mark.parametrize("name,n", [*((name, 2) for name in registry.PRESENTATION_NAMES),
                                    ("column", 3), ("chinese-precolumn", 3),
                                    ("chinese-completed", 3)])
def test_normalize_matches_the_step_selection_oracle_on_presentations(name, n):
    assert compare_normalize(registry.build_presentation(name, n).system)


@pytest.mark.parametrize("name", ["column", "chinese-completed", "chinese-precolumn", "knuth"])
def test_leg_consumers_match_the_oracle_on_presentations(name):
    system = registry.build_presentation(name, 3).system
    assert _checks(system) == check_local_confluence(system)
    order = completed_order_less(3) if name.startswith("chinese") else _shortlex_less
    assert rewriting.knuth_bendix_pass(system, order) == knuth_bendix_pass(system, order)
    assert _outcome(coherence.squier_cells, system) == _outcome(squier_cells, system)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_path_bounds_match_the_oracle(n):
    assert _same_report(chinese.verify_path_bounds(n), verify_path_bounds(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_path_bounds_with_a_budget_match_the_patched_oracle(n, monkeypatch):
    monkeypatch.setitem(globals(), "normalize",
                        lambda system, word, strategy: rewriting.normalize(
                            system, word, strategy, budget=1))
    report = chinese.verify_path_bounds(n, budget=1)
    assert _same_report(report, verify_path_bounds(n))
    assert n == 1 or report["budget_hits"] > 0


def test_branching_sources_are_the_reducible_triples():
    for n in range(1, 6):
        system = completed_presentation(n).system
        reducible = {r.lhs for r in system.rules}
        triples = [w for w in itertools.product(range(len(system.alphabet)), repeat=3)
                   if w[:2] in reducible and w[1:] in reducible]
        assert [b.source for b in rewriting.critical_branchings(system)] == triples


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rule_shape_matches_the_oracle(n):
    assert _same_report(chinese.verify_rule_shape(n), verify_rule_shape(n))


@pytest.mark.parametrize("n", range(2, 13))
def test_rule_shapes_are_the_hand_written_lists(n):
    """The head-led family rules are the two hand-written lists; the lists
    share the C(n-1, 2) swaps c_zz.c_zx -> c_zx.c_zz, tagged commutation."""
    shapes = chinese.rule_shapes(n)
    commutation, square = commutation_rule_pairs(n), square_rule_pairs(n)
    assert shapes.keys() == commutation | square
    assert {rule for rule, shape in shapes.items() if shape == "commutation"} == commutation
    assert {rule for rule, shape in shapes.items() if shape == "square"} == square - commutation
    assert len(commutation & square) == math.comb(n - 1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_knuth_decomposition_matches_the_oracle(n):
    assert _same_report(young.verify_knuth_decomposition(n), verify_knuth_decomposition(n))
