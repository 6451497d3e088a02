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
from typing import Callable, Iterable, Iterator

from .rewriting import RewritingSystem, Word, length_lex, strategy_paths
from .sds import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    GeneratingSet,
    Presentation,
    StringDataStructure,
    generating_presentation,
    report,
)

Staircase = tuple[tuple[int, ...], ...]

# generators are (y, x) pairs: (x, 0) is the single letter x, (y, x) with
# x < y a two-letter column, (x, x) a square
Gen = tuple[int, int]


def empty_staircase(n: int) -> Staircase:
    return tuple((0,) * i for i in range(1, n + 1))


def is_staircase(t: Staircase) -> bool:
    return all(len(row) == i + 1 for i, row in enumerate(t)) and \
        all(v >= 0 for row in t for v in row)


def chinese_right_insert(t: Staircase, x: int) -> Staircase:
    """Insert x through the bottom rows; every step moves one letter down.

    Walking up from row n, a row's last nonzero column y > x gives one unit
    to column x, and y travels on unless it was the diagonal; x equal to
    the row lands on the diagonal.  Never drives an entry negative: entries
    are only decremented right after being observed non-zero.  Only the
    rows a step changes are copied; the others are shared with t.
    """
    n = len(t)
    if not 1 <= x <= n:
        raise ValueError(f"letter {x} out of range 1..{n}")
    rows = list(t)
    r = n
    while True:
        row = t[r - 1]
        if x == r:
            rows[r - 1] = row[:-1] + (row[-1] + 1,)
            return tuple(rows)
        y = r
        while y > x and not row[y - 1]:
            y -= 1
        if y > x:
            new = list(row)
            new[y - 1] -= 1
            new[x - 1] += 1
            rows[r - 1] = tuple(new)
            if y == r:
                return tuple(rows)
            x = y
        r -= 1


def _right_insert(rows: list[list[int]], x: int, last: list[int]) -> None:
    """The right insertion of x in 1..n, changing the rows in place.

    `last[r - 1]` caches the last nonzero column of row r (0 for a row of
    zeros, -1 until the row is first visited).  A step moves one unit from
    that column y to a column x < y, so the row is scanned again, from
    y - 1 down, only when the entry at y drops to zero; the scan stops at x
    at the latest.  Landing on the diagonal makes it the last nonzero
    column.
    """
    r = len(rows)
    while True:
        row = rows[r - 1]
        if x == r:
            row[r - 1] += 1
            last[r - 1] = r
            return
        y = last[r - 1]
        if y < 0:
            y = r
            while y and not row[y - 1]:
                y -= 1
            last[r - 1] = y
        if x >= y:
            r -= 1
            continue
        row[y - 1] -= 1
        row[x - 1] += 1
        if not row[y - 1]:
            j = y - 1
            while not row[j - 1]:
                j -= 1
            last[r - 1] = j
        if y == r:
            return
        x = y
        r -= 1


def chinese_left_insert(t: Staircase, x: int) -> Staircase:
    """Two-step left insertion of x into t (the paper writes x before t):
    sweep rows 1..x-1 with a marker, then land in row x.

    In row i the first nonzero column z moves one unit to the diagonal
    while no marker is set, and to the marked column y when z < y; either
    way z becomes the marker.  The landing increments the marked column of
    row x (its diagonal if none was set).  A final decrement there would
    drive a multiplicity negative, so the increment is the only variant
    compatible with the right insertion through the reading; the tests pin
    that equality exhaustively.  Only the rows a step changes are copied;
    the others are shared with t.
    """
    if not 1 <= x <= len(t):
        raise ValueError(f"letter {x} out of range 1..{len(t)}")
    rows = list(t)
    y = 0  # marker; 0 plays the empty value
    for i in range(1, x):
        row = t[i - 1]
        end = y - 1 if y else i  # once marked, only a column before y moves
        z = 1
        while z <= end and not row[z - 1]:
            z += 1
        if z > end:
            continue
        new = list(row)
        new[z - 1] -= 1
        if z < i:
            new[(y or i) - 1] += 1
        rows[i - 1] = tuple(new)
        y = z
    row = t[x - 1]
    y = y or x
    rows[x - 1] = row[:y - 1] + (row[y - 1] + 1,) + row[y:]
    return tuple(rows)


def _left_insert(rows: list[list[int]], x: int, first: list[int]) -> None:
    """The left insertion of x in 1..n, changing the rows in place.

    `first[i - 1]` caches the first nonzero column of row i (0 for a row
    of zeros, -1 until the row is first visited).  A sweep step moves one
    unit from that column z to a later column of the row, or takes it off
    the diagonal, so the row is scanned again, from z + 1 on, only when the
    entry at z drops to zero.  The landing raises one column of row x, which
    becomes the row's first nonzero column if it comes before the cached
    one; a row not yet visited stays unknown.
    """
    y = 0  # marker; 0 plays the empty value
    for i in range(1, x):
        row = rows[i - 1]
        z = first[i - 1]
        if z < 0:
            z = 1
            while z <= i and not row[z - 1]:
                z += 1
            z = first[i - 1] = z if z <= i else 0
        if z == 0:
            continue
        if y == 0:
            row[z - 1] -= 1
            if z < i:
                row[i - 1] += 1
        elif z < y:
            row[z - 1] -= 1
            row[y - 1] += 1
        else:
            continue
        y = z
        if not row[z - 1]:
            z += 1
            while z <= i and not row[z - 1]:
                z += 1
            first[i - 1] = z if z <= i else 0
    row = rows[x - 1]
    if y == 0:
        y = x
    row[y - 1] += 1
    if first[x - 1] == 0 or first[x - 1] > y:
        first[x - 1] = y


def _staircase_kernel(step):
    """The word kernel of a staircase insertion `step(rows, x, cache)`,
    behind `insert_long` only: the rows are copied to lists once, one cache
    of row extremes serves the whole word, and the rows are frozen once.
    Fed one letter it would copy and freeze every row, so the one-letter
    insertions are written apart and copy only the rows they change."""
    def insert_many(t: Staircase, letters: tuple[int, ...]) -> Staircase:
        rows = [list(row) for row in t]
        cache = [-1] * len(rows)
        for x in letters:
            step(rows, x, cache)
        return tuple(map(tuple, rows))
    return insert_many


_right_kernel = _staircase_kernel(_right_insert)
_left_kernel = _staircase_kernel(_left_insert)


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
                               chinese_right_insert, read_rr, LEFT_TO_RIGHT, _right_kernel)


def chinese_left(n: int) -> StringDataStructure:
    return StringDataStructure("chinese-left", n, empty_staircase(n),
                               chinese_left_insert, read_rr, RIGHT_TO_LEFT, _left_kernel)


def qn_generating_set(n: int) -> GeneratingSet:
    structure = chinese_right(n)
    gens = tuple(gen_staircase(g, n) for g in qn_generators(n))
    def decompose(t: Staircase) -> tuple[Staircase, ...]:
        return tuple(gen_staircase(g, n) for g in read_qn(t))
    return GeneratingSet(structure, gens, decompose)


def _order_key(gen: Gen) -> tuple[int, int, int]:
    y, x = gen
    return (y, 1, 0) if x == 0 else (y, 2, 0) if x == y else (y, 0, x)


def order_ch_less(a: Gen, b: Gen) -> bool:
    """The generator order, a sort key and so a strict total order: by head
    letter y, then the columns c_y1 < ... < c_y,y-1, then the letter c_y,
    then the square c_yy.  A letter is not below every longer generator,
    as no order that decreases the rules can have it: c_2.c_21 -> c_21.c_2
    needs c_21 < c_2, and c_3.c_21 -> c_2.c_31 needs c_2 < c_3."""
    return _order_key(a) < _order_key(b)


def generator_less(n: int) -> Callable[[int, int], bool]:
    """`order_ch_less` on the generator ids of rank n: id i is
    `qn_generators(n)[i]`, as in both staircase presentations."""
    gens = qn_generators(n)
    return lambda a, b: order_ch_less(gens[a], gens[b])


def chinese_pairs(n: int) -> Iterator[tuple[Word, Word]]:
    """The defining relations over the alphabet's indices (the paper's
    letters shifted by one): z y x -> y z x and z x y -> y z x for
    x < y < z, then y y x -> y x y and y x x -> x y x for x < y."""
    for x, y, z in itertools.combinations(range(n), 3):
        yield (z, y, x), (y, z, x)
        yield (z, x, y), (y, z, x)
    for x, y in itertools.combinations(range(n), 2):
        yield (y, y, x), (y, x, y)
        yield (y, x, x), (x, y, x)


def precolumn_pairs(n: int) -> list[tuple[tuple[Gen, ...], tuple[Gen, ...]]]:
    """Defining rules for the two-letter columns and squares, plus the
    reduced forms of the defining relations rewritten over them."""
    # column and square defining rules
    pairs = [(((y, 0), (x, 0)), ((y, x),)) for y, x in qn_generators(n) if x]
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
    """The precolumn rules over the generators of `qn_generating_set`."""
    gen = qn_generating_set(n)
    index = {g: i for i, g in enumerate(qn_generators(n))}
    pairs = [(tuple(index[g] for g in l), tuple(index[g] for g in r))
             for l, r in precolumn_pairs(n)]
    return Presentation(RewritingSystem.from_pairs(gen.alphabet, pairs), gen)


def completed_presentation(n: int) -> Presentation:
    """All pairwise products of the generators, read back over the generators."""
    return generating_presentation(qn_generating_set(n))


def completed_order_less(n: int) -> Callable[[Word, Word], bool]:
    """The word order that orients the completion: `length_lex` of the
    generator order."""
    return length_lex(generator_less(n))


def rule_shapes(n: int) -> dict[tuple[tuple[Gen, ...], tuple[Gen, ...]], str]:
    """The head-led rules of the paper's families: each rule of
    `precolumn_pairs` and `completion_pairs` whose right-hand side is two
    generators led by the head letter of its source.  A rule is tagged
    "commutation" when its right-hand side is its source's two generators
    swapped, and "square" otherwise."""
    return {(lhs, rhs): "commutation" if rhs == lhs[::-1] else "square"
            for lhs, rhs in itertools.chain(precolumn_pairs(n), completion_pairs(n))
            if len(rhs) == 2 and rhs[0][0] == lhs[0][0]}


def commutation_rule_pairs(n: int) -> set[tuple[tuple[Gen, ...], tuple[Gen, ...]]]:
    """The rules that `rule_shapes` tags "commutation"."""
    return {rule for rule, shape in rule_shapes(n).items() if shape == "commutation"}


def _rule_gens(gens: list[Gen], word: Word) -> tuple[Gen, ...]:
    return tuple(gens[i] for i in word)


def verify_rule_shape(n: int) -> dict:
    """Every completed rule keeps its head letter and its index multiset.

    The head of a rule's first generator reappears as the head of the last
    right-hand generator, and the remaining indices are a permutation of
    the ones on the left (zeros padding single letters).  Rules whose
    right-hand side starts again with the head letter must be rules of
    `rule_shapes`; the report counts both of its shapes.
    """
    pres = completed_presentation(n)
    gens = qn_generators(n)
    name = pres.system.alphabet.name
    shapes = rule_shapes(n)
    counts = {"commutation": 0, "square": 0}
    for rule in pres.system.rules:
        lhs = _rule_gens(gens, rule.lhs)
        rhs = _rule_gens(gens, rule.rhs)
        head = lhs[0][0]
        if rhs[-1][0] != head:
            return report("rule-shape", None, {"n": n}, "fail",
                          witness={"rule": [name(i) for i in rule.lhs]})
        padded_rhs = ((0, 0),) * (2 - len(rhs)) + rhs
        lhs_indices = sorted(lhs[0][1:] + lhs[1])
        rhs_indices = sorted(padded_rhs[0] + padded_rhs[1][1:])
        if lhs_indices != sorted(rhs_indices):
            return report("rule-shape", None, {"n": n}, "fail",
                          witness={"rule": [name(i) for i in rule.lhs],
                                   "reason": "index multiset"})
        if len(rhs) == 2 and rhs[0][0] == head:
            shape = shapes.get((lhs, rhs))
            if shape is None:
                return report("rule-shape", None, {"n": n}, "fail",
                              witness={"rule": [name(i) for i in rule.lhs],
                                       "reason": "unclassified head-led rule"})
            counts[shape] += 1
    return report("rule-shape", None, {"n": n}, "pass",
                  rule_count=len(pres.system.rules), family_counts=counts)


def verify_path_bounds(n: int, budget: int | None = None) -> dict:
    """Reduction-length bounds on critical triples of the completed system.

    Two sub-checks over every word c.c'.c'' whose two overlapping pairs are
    reducible: (a) the leftmost and rightmost paths finish within five
    steps; (b) steps four and five of a leftmost path longer than three use
    only commutation rules.  The system has one rule per length-2 lhs, so
    these words are the sources of its critical branchings, one branching
    each.  The report carries both outcomes separately; (b) does not hold
    in general (see the witness list), so the overall result reflects (a)
    and (b) independently.  The paths are `rewriting.strategy_paths`: they
    stop after `budget` steps (the normalization default when None), and a
    path that hit it fails the result and counts in `budget_hits`.
    """
    system = completed_presentation(n).system
    gens = qn_generators(n)
    name = system.alphabet.name
    commutation = commutation_rule_pairs(n)
    comm_ids = {i for i, r in enumerate(system.rules)
                if (_rule_gens(gens, r.lhs), _rule_gens(gens, r.rhs))
                in commutation}
    max_left = max_right = 0
    max_right_square = 0
    bound_witness = None
    late_witnesses = []
    budget_hits = triples = 0
    for word, left, right in strategy_paths(system, budget):
        triples += 1
        budget_hits += (not left.reached_normal_form) + (not right.reached_normal_form)
        ll, lr = len(left.path.steps), len(right.path.steps)
        max_left, max_right = max(max_left, ll), max(max_right, lr)
        if gens[word[0]][0] == gens[word[0]][1]:
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
    # a truncated path reads as a short one, so budget hits fail the check
    return report("path-bounds", None, {"n": n},
                  "pass" if bounds_ok and late_ok and not budget_hits else "fail",
                  length_bounds="pass" if bounds_ok else "fail",
                  late_steps_commutation="pass" if late_ok else "fail",
                  triples=triples, max_left=max_left, max_right=max_right,
                  max_right_square_led=max_right_square, witness=bound_witness,
                  late_step_witnesses=late_witnesses[:5] or None,
                  late_step_violations=len(late_witnesses) or None,
                  budget_hits=budget_hits or None)


def staircase_display(t: Staircase) -> list[list[int]]:
    """The rows written diagonal first (display order)."""
    return [list(reversed(row)) for row in t]


def staircase_from_display(n: int, display_rows: Iterable[Iterable[int]]) -> Staircase:
    """Build from rows written diagonal first (display order); ValueError
    unless they form a staircase of rank n."""
    rows = tuple(tuple(row)[::-1] for row in display_rows)
    if len(rows) != n or not is_staircase(rows):
        raise ValueError("not a valid staircase")
    return rows
