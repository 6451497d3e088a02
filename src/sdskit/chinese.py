"""Chinese staircases: insertions, readings, generators, and presentations.

A staircase of rank n is a triangular array of multiplicities; row i holds
counts t_i1..t_i,i-1 for the two-letter descents (i j) and a diagonal
count t_i for the letter i itself.  Right insertion recurses on the bottom
row; left insertion sweeps the rows above the inserted letter.  The
two-letter columns, single letters, and squares form a finite generating
set whose induced rewriting system is semi-quadratic and convergent; this
module also builds the precolumn presentation it completes, the total
order used to orient that completion, and the verifiers for the rule
shapes and reduction-path bounds.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .rewriting import (
    LEFTMOST,
    RIGHTMOST,
    Alphabet,
    RewritingSystem,
    Word,
    normalize,
)
from .sds import (
    GENERATING,
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    GeneratingSet,
    Presentation,
    StringDataStructure,
    build_srs,
)

Staircase = tuple[tuple[int, ...], ...]

# generators are (y, x) pairs: (x, 0) is the single letter x, (y, x) with
# x < y a two-letter column, (x, x) a square
Gen = tuple[int, int]


def empty_staircase(n: int) -> Staircase:
    return tuple((0,) * i for i in range(1, n + 1))


def rank(t: Staircase) -> int:
    return len(t)


def is_staircase(t: Staircase) -> bool:
    return all(len(row) == i + 1 for i, row in enumerate(t)) and \
        all(v >= 0 for row in t for v in row)


def weight(t: Staircase) -> int:
    """Length of the row reading: descents count two letters, diagonals one."""
    total = 0
    for i, row in enumerate(t, start=1):
        total += 2 * sum(row[:-1]) + row[-1]
    return total


def chinese_right_insert(t: Staircase, x: int) -> Staircase:
    """Insert x through the bottom rows; every step moves one letter down.

    Never drives an entry negative: entries are only decremented right
    after being observed non-zero.
    """
    rows = [list(row) for row in t]
    r = len(rows)
    if not 1 <= x <= r:
        raise ValueError(f"letter {x} out of range 1..{r}")
    while True:
        row = rows[r - 1]
        if x == r:
            row[r - 1] += 1
            break
        y1 = 0
        for j in range(r, 0, -1):
            if row[j - 1] > 0:
                y1 = j
                break
        if y1 == 0:
            y1 = x
        if x >= y1:
            r -= 1
        elif y1 < r:
            row[y1 - 1] -= 1
            row[x - 1] += 1
            x = y1
            r -= 1
        else:
            row[r - 1] -= 1
            row[x - 1] += 1
            break
    return tuple(tuple(row) for row in rows)


def chinese_left_insert(x: int, t: Staircase) -> Staircase:
    """Two-step left insertion: sweep rows 1..x-1 with a marker, then land in row x.

    The landing increments the marked column of row x.  A final decrement
    there would drive a multiplicity negative, so the increment is the only
    variant compatible with the right insertion through the reading; the
    tests pin that equality exhaustively.
    """
    rows = [list(row) for row in t]
    if not 1 <= x <= len(rows):
        raise ValueError(f"letter {x} out of range 1..{len(rows)}")
    y = 0  # marker; 0 plays the empty value
    for i in range(1, x):
        row = rows[i - 1]
        z = 0
        for j in range(1, i + 1):
            if row[j - 1] > 0:
                z = j
                break
        if z == 0:
            continue
        if y == 0:
            if z < i:
                row[z - 1] -= 1
                row[i - 1] += 1
            else:
                row[i - 1] -= 1
            y = z
        elif z < y:
            row[z - 1] -= 1
            row[y - 1] += 1
            y = z
    row = rows[x - 1]
    if y == 0:
        row[x - 1] += 1
    else:
        row[y - 1] += 1
    return tuple(tuple(row) for row in rows)


def read_rr(t: Staircase) -> tuple[int, ...]:
    """Row reading: rows top to bottom, descents before the diagonal run."""
    out = []
    for i, row in enumerate(t, start=1):
        for j in range(1, i):
            out.extend((i, j) * row[j - 1])
        out.extend((i,) * row[-1])
    return tuple(out)


def read_qn(t: Staircase) -> tuple[Gen, ...]:
    """Generator reading: descents as columns, diagonal runs packed into squares.

    Odd diagonal counts emit one single letter before the squares.  Rows 1
    and n have no square generator, so their runs stay as repeated singles.
    """
    n = len(t)
    out: list[Gen] = []
    for i, row in enumerate(t, start=1):
        for j in range(1, i):
            out.extend(((i, j),) * row[j - 1])
        d = row[-1]
        if d:
            if i == 1 or i == n:
                out.extend(((i, 0),) * d)
            elif d % 2:
                out.append((i, 0))
                out.extend(((i, i),) * ((d - 1) // 2))
            else:
                out.extend(((i, i),) * (d // 2))
    return tuple(out)


def gen_word(gen: Gen) -> tuple[int, ...]:
    y, x = gen
    return (y,) if x == 0 else (y, x)


def gen_label(gen: Gen) -> str:
    return "c_" + "".join(str(v) for v in gen_word(gen))


def gen_staircase(gen: Gen, n: int) -> Staircase:
    rows = [[0] * i for i in range(1, n + 1)]
    y, x = gen
    if x == 0:
        rows[y - 1][y - 1] = 1
    elif x == y:
        rows[x - 1][x - 1] = 2
    else:
        rows[y - 1][x - 1] = 1
    return tuple(tuple(row) for row in rows)


def qn_generators(n: int) -> list[Gen]:
    """Singles, two-letter columns, and squares, in that order."""
    gens: list[Gen] = [(x, 0) for x in range(1, n + 1)]
    gens.extend((y, x) for y in range(2, n + 1) for x in range(1, y))
    gens.extend((x, x) for x in range(2, n))
    return gens


def chinese_right(n: int) -> StringDataStructure:
    return StringDataStructure("chinese-right", n, empty_staircase(n),
                               chinese_right_insert, read_rr, LEFT_TO_RIGHT)


def chinese_left(n: int) -> StringDataStructure:
    return StringDataStructure("chinese-left", n, empty_staircase(n),
                               lambda t, x: chinese_left_insert(x, t),
                               read_rr, RIGHT_TO_LEFT)


def qn_generating_set(n: int) -> GeneratingSet:
    structure = chinese_right(n)
    gens = tuple(gen_staircase(g, n) for g in qn_generators(n))
    def decompose(t: Staircase) -> tuple[Staircase, ...]:
        return tuple(gen_staircase(g, n) for g in read_qn(t))
    return GeneratingSet(structure, gens, decompose)


def order_ch_less(a: Gen, b: Gen) -> bool:
    """Strict comparison on generators: a two-letter column sits below the
    single letter it starts with (squares do not); otherwise shorter below
    longer, ties by the lexicographic order of the words."""
    ya, xa = a
    yb, xb = b
    if 0 < xa < ya and b == (ya, 0):
        return True
    if 0 < xb < yb and a == (yb, 0):
        return False
    wa, wb = gen_word(a), gen_word(b)
    if len(wa) != len(wb):
        return len(wa) < len(wb)
    return wa < wb


def qword_less(u: Word, v: Word, gens: list[Gen]) -> bool:
    """Word comparison used to orient completion: length first, then the
    generator comparison letterwise from the left."""
    if len(u) != len(v):
        return len(u) < len(v)
    for a, b in zip(u, v):
        if a != b:
            return order_ch_less(gens[a], gens[b])
    return False


def chinese_relations(n: int) -> RewritingSystem:
    """The defining relations on single letters, as four oriented families."""
    alphabet = Alphabet(tuple(str(x) for x in range(1, n + 1)))
    pairs = []
    for x, y, z in itertools.combinations(range(1, n + 1), 3):
        pairs.append(((z - 1, y - 1, x - 1), (y - 1, z - 1, x - 1)))
        pairs.append(((z - 1, x - 1, y - 1), (y - 1, z - 1, x - 1)))
    for x, y in itertools.combinations(range(1, n + 1), 2):
        pairs.append(((y - 1, y - 1, x - 1), (y - 1, x - 1, y - 1)))
        pairs.append(((y - 1, x - 1, x - 1), (x - 1, y - 1, x - 1)))
    return RewritingSystem.from_pairs(alphabet, pairs)


def _qn_alphabet(n: int) -> tuple[Alphabet, dict[Gen, int], list[Gen]]:
    gens = qn_generators(n)
    alphabet = Alphabet(tuple(gen_label(g) for g in gens))
    return alphabet, {g: i for i, g in enumerate(gens)}, gens


def precolumn_pairs(n: int) -> list[tuple[tuple[Gen, ...], tuple[Gen, ...]]]:
    """Defining rules for the two-letter columns and squares, plus the
    reduced forms of the defining relations rewritten over them."""
    pairs: list[tuple[tuple[Gen, ...], tuple[Gen, ...]]] = []
    # column and square defining rules
    for y in range(2, n + 1):
        for x in range(1, y):
            pairs.append((((y, 0), (x, 0)), ((y, x),)))
    for x in range(2, n):
        pairs.append((((x, 0), (x, 0)), ((x, x),)))
    # commutation of a column with its head letter
    for y in range(2, n + 1):
        for x in range(1, y):
            pairs.append((((y, 0), (y, x)), ((y, x), (y, 0))))
    # a square absorbs a smaller letter
    for y in range(2, n):
        for x in range(1, y):
            pairs.append((((y, y), (x, 0)), ((y, x), (y, 0))))
    # a column passes over a smaller letter or column
    for z in range(2, n + 1):
        for y in range(1, z):
            for x in range(1, y + 1):
                pairs.append((((z, y), (x, 0)), ((y, 0), (z, x))))
                if x < y or 1 < x:  # (y, x) must exist as column or square
                    pairs.append((((z, 0), (y, x)), ((y, 0), (z, x))))
    for z in range(2, n + 1):
        for y in range(1, z):
            for x in range(1, y):
                pairs.append((((z, x), (y, 0)), ((y, 0), (z, x))))
    return pairs


def completion_pairs(n: int) -> list[tuple[tuple[Gen, ...], tuple[Gen, ...]]]:
    """The seven rule families that make the precolumn presentation confluent."""
    pairs: list[tuple[tuple[Gen, ...], tuple[Gen, ...]]] = []
    # i) two descents with nested supports exchange middles
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            for z in range(y + 1, n + 1):
                for t in range(z + 1, n + 1):
                    pairs.append((((t, y), (z, x)), ((z, y), (t, x))))
    # ii) descents with a common head commute
    for z in range(2, n + 1):
        for y in range(1, z):
            for x in range(1, y):
                pairs.append((((z, y), (z, x)), ((z, x), (z, y))))
    # iii) disjoint or crossing descents exchange; at z == y the (z, y) slot
    # is the square generator, which the (y, x) encoding already denotes
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            for z in range(y, n + 1):
                for t in range(z + 1, n + 1):
                    pairs.append((((t, z), (y, x)), ((z, y), (t, x))))
                    pairs.append((((t, x), (z, y)), ((z, y), (t, x))))
    # iv) a square splits over a descent below it
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            for z in range(y, n):
                pairs.append((((z, z), (y, x)), ((z, x), (z, y))))
    # v) two squares merge into two equal descents
    for x in range(2, n):
        for y in range(x + 1, n):
            pairs.append((((y, y), (x, x)), ((y, x), (y, x))))
    # vi) a descent absorbs a square below it
    for x in range(2, n):
        for y in range(x, n + 1):
            for z in range(y + 1, n + 1):
                pairs.append((((z, y), (x, x)), ((y, x), (z, x))))
    # vii) a square commutes with its own letter
    for y in range(2, n):
        pairs.append((((y, y), (y, 0)), ((y, 0), (y, y))))
    return pairs


def precolumn_presentation(n: int) -> Presentation:
    alphabet, index, gens = _qn_alphabet(n)
    pairs = [(tuple(index[g] for g in l), tuple(index[g] for g in r))
             for l, r in precolumn_pairs(n)]
    system = RewritingSystem.from_pairs(alphabet, pairs)
    return Presentation(system, tuple(gen_staircase(g, n) for g in gens))


def completed_presentation(n: int) -> Presentation:
    """All pairwise products of the generators, read back over the generators."""
    return build_srs(chinese_right(n), GENERATING, generating=qn_generating_set(n))


def completed_order_less(n: int):
    gens = qn_generators(n)
    return lambda u, v: qword_less(u, v, gens)


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


def _rule_gens(gens: list[Gen], word: Word) -> tuple[Gen, ...]:
    return tuple(gens[i] for i in word)


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
    commutation = commutation_rule_pairs(n)
    square = square_rule_pairs(n)
    counts = {"commutation": 0, "square": 0}
    for rule in pres.system.rules:
        lhs = _rule_gens(gens, rule.lhs)
        rhs = _rule_gens(gens, rule.rhs)
        head = lhs[0][0]
        if rhs[-1][0] != head:
            return {"check": "rule-shape", "params": {"n": n}, "result": "fail",
                    "witness": {"rule": [gen_label(g) for g in lhs]}}
        padded_rhs = ((0, 0),) * (2 - len(rhs)) + rhs
        lhs_indices = sorted(lhs[0][1:] + lhs[1])
        rhs_indices = sorted(padded_rhs[0] + padded_rhs[1][1:])
        if lhs_indices != sorted(rhs_indices):
            return {"check": "rule-shape", "params": {"n": n}, "result": "fail",
                    "witness": {"rule": [gen_label(g) for g in lhs],
                                "reason": "index multiset"}}
        if len(rhs) == 2 and rhs[0][0] == head:
            if (lhs, rhs) in commutation:
                counts["commutation"] += 1
            elif (lhs, rhs) in square:
                counts["square"] += 1
            else:
                return {"check": "rule-shape", "params": {"n": n}, "result": "fail",
                        "witness": {"rule": [gen_label(g) for g in lhs],
                                    "reason": "unclassified head-led rule"}}
    return {"check": "rule-shape", "params": {"n": n}, "result": "pass",
            "rule_count": len(pres.system.rules), "family_counts": counts}


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
    reducible = {r.lhs for r in system.rules}
    commutation = commutation_rule_pairs(n)
    comm_ids = {r.rule_id for r in system.rules
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
            bound_witness = {"triple": [gen_label(gens[i]) for i in word],
                             "left": ll, "right": lr}
        if ll > 3 and any(step.rule_id not in comm_ids for step in left.path.steps[3:]):
            late_witnesses.append({
                "triple": [gen_label(gens[i]) for i in word],
                "late_rules": [
                    [gen_label(g) for g in
                     _rule_gens(gens, system.rule(step.rule_id).lhs)]
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


def staircase_to_json(t: Staircase) -> dict:
    # rows are serialized diagonal first, matching the triangular display
    return {"n": len(t), "rows": [list(reversed(row)) for row in t]}


def staircase_from_json(data: dict) -> Staircase:
    n = data["n"]
    rows = tuple(tuple(reversed(row)) for row in data["rows"])
    if len(rows) != n or not is_staircase(rows):
        raise ValueError("not a valid staircase")
    return rows


def staircase_from_display(n: int, display_rows: Iterable[Iterable[int]]) -> Staircase:
    """Build from rows written diagonal first (display order)."""
    return staircase_from_json({"n": n, "rows": [list(r) for r in display_rows]})
