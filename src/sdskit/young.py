"""Young tableaux, the two Schensted insertions, and the column machinery.

Tableaux are tuples of rows (top row first); rows weakly increase, columns
strictly increase, and row lengths weakly decrease.  The row-bumping right
insertion and the column-bumping left insertion are each a function of
(tableau, letter), and the column and row readings each a function of the
tableau; the structures take them as they are.  Along with them come the
Knuth presentations, the column and row generating sets, the commutativity
check for the Knuth-rule squares over column rewriting, and the column
complement involution.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, zip_longest
from operator import le, lt
from typing import Iterator

from .rewriting import (
    LEFTMOST,
    Word,
    is_normal_form,
    normalize,
    words_up_to,
)
from .sds import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    GeneratingSet,
    Presentation,
    StringDataStructure,
    generating_presentation,
    parse_ints,
    report,
    rows_kernel,
)

Tableau = tuple[tuple[int, ...], ...]

EMPTY: Tableau = ()


def is_tableau(t: Tableau) -> bool:
    """Rows weakly increase, columns strictly increase, lengths weakly decrease."""
    for i, row in enumerate(t):
        if not row or not all(map(le, row, row[1:])):
            return False
        if i > 0:
            above = t[i - 1]
            if len(above) < len(row) or not all(map(lt, above, row)):
                return False
    return True


def schensted_right(t: Tableau, x: int) -> Tableau:
    """Row bumping: x enters the top row, bumped entries cascade downwards.

    Only the rows the cascade reaches are copied; the others are shared."""
    rows = list(t)
    cur = x
    for i, row in enumerate(rows):
        if cur >= row[-1]:
            rows[i] = row + (cur,)
            return tuple(rows)
        k = bisect_right(row, cur)
        rows[i] = row[:k] + (cur,) + row[k + 1:]
        cur = row[k]
    rows.append((cur,))
    return tuple(rows)


def schensted_left(t: Tableau, x: int) -> Tableau:
    """Column bumping: x enters the leftmost column of t, bumps cascade
    rightwards; the paper writes this insertion with x before t.

    In each column the travelling value replaces the first entry >= it, or
    goes below the column's last entry.  The walk stays on the rows: column
    k is the k-th entry of every row longer than k.  An equal entry changes
    nothing along its row's run of equal entries, so the walk jumps over the
    run; a real bump raises the travelling value, so in the next column the
    first entry >= it lies at or above the bumped row.
    """
    rows = list(t)
    cur, k, limit = x, 0, len(rows)
    while True:
        for i in range(limit):
            row = rows[i]
            if len(row) == k:       # column k ends above row i
                rows[i] = row + (cur,)
                return tuple(rows)
            if row[k] >= cur:
                break
        else:                       # only in the first column: cur exceeds it
            rows.append((cur,))
            return tuple(rows)
        if row[k] == cur:
            k = bisect_right(row, cur, k)
        else:
            rows[i] = row[:k] + (cur,) + row[k + 1:]
            cur = row[k]
            k += 1
        limit = i + 1


def _row_bump(rows: list[list[int]], cur: int) -> None:
    """The bumps of `schensted_right`, changing the rows in place."""
    for row in rows:
        if cur >= row[-1]:
            row.append(cur)
            return
        k = bisect_right(row, cur)
        row[k], cur = cur, row[k]
    rows.append([cur])


def columns(t: Tableau) -> list[tuple[int, ...]]:
    if not t:
        return []
    return [tuple(row[k] for row in t if len(row) > k) for k in range(len(t[0]))]


def read_tableau(t: Tableau) -> tuple[int, ...]:
    """The column reading: columns left to right, each bottom to top."""
    # the rows bottom first: a column's missing entries lead its tuple
    return tuple([x for col in zip_longest(*reversed(t)) for x in col if x is not None])


def read_rows(t: Tableau) -> tuple[int, ...]:
    """The row reading: rows bottom to top, each left to right."""
    return tuple(x for row in reversed(t) for x in row)


_row_insert_many = rows_kernel(_row_bump)


def young_right(n: int) -> StringDataStructure:
    """Right structure: row insertion with the column reading."""
    return StringDataStructure("young-right", n, EMPTY, schensted_right,
                               read_tableau, LEFT_TO_RIGHT, _row_insert_many)


def _left_insert_many(t: Tableau, letters: tuple[int, ...]) -> Tableau:
    # letters are x_k, ..., x_1: the word x_1 ... x_k row-inserted, then t's reading
    return _row_insert_many(EMPTY, letters[::-1] + read_tableau(t))


def young_left(n: int) -> StringDataStructure:
    """Left structure: column insertion with the column reading.

    Its word kernel uses the duality of the two insertions, which share the
    plactic monoid (Schensted; Knuth): column-inserting x_k, ..., x_1 into
    P(w) gives P(x_1 ... x_k w), the row insertion of x_1 ... x_k followed
    by the column reading of P(w).  Row insertion bumps along at most one
    entry per row, where column insertion walks the columns.
    """
    return StringDataStructure("young-left", n, EMPTY, schensted_left,
                               read_tableau, RIGHT_TO_LEFT, _left_insert_many)


def young_right_mirror(n: int) -> StringDataStructure:
    # row insertion fed right-to-left; its product is not associative
    return StringDataStructure("young-right-mirror", n, EMPTY, schensted_right,
                               read_tableau, RIGHT_TO_LEFT)


def knuth_pairs(n: int, variant: str = "standard") -> Iterator[tuple[Word, Word]]:
    """The Knuth relations as oriented rules over the alphabet's indices
    (the paper's letters shifted by one): z x y -> x z y for x <= y < z,
    then y z x -> y x z for x < y <= z.  The "reversed" variant swaps the
    two sets of triples."""
    weak = [(x, y, z) for x in range(n) for y in range(x, n) for z in range(y + 1, n)]
    strict = [(x, y, z) for x in range(n) for y in range(x + 1, n) for z in range(y, n)]
    if variant == "standard":
        xi, zeta = weak, strict
    elif variant == "reversed":
        xi, zeta = strict, weak
    else:
        raise ValueError(f"unknown variant {variant!r}")
    for x, y, z in xi:
        yield (z, x, y), (x, z, y)
    for x, y, z in zeta:
        yield (y, z, x), (y, x, z)


def enumerate_columns(n: int) -> list[Tableau]:
    """All single-column tableaux over 1..n, shortest first."""
    cols = []
    for size in range(1, n + 1):
        for comb in combinations(range(1, n + 1), size):
            cols.append(tuple((x,) for x in comb))
    return cols


def enumerate_rows(n: int, max_len: int) -> list[Tableau]:
    """All single-row tableaux (weakly increasing words) up to max_len."""
    rows = []
    for size in range(1, max_len + 1):
        for comb in combinations(range(1, n + size), size):
            row = tuple(x - i for i, x in enumerate(comb))
            rows.append((row,))
    return rows


def column_generating_set(n: int) -> GeneratingSet:
    structure = young_right(n)
    gens = tuple(enumerate_columns(n))
    def decompose(t: Tableau) -> tuple[Tableau, ...]:
        return tuple(tuple((x,) for x in col) for col in columns(t))
    return GeneratingSet(structure, gens, decompose)


def row_generating_set(n: int, max_len: int) -> GeneratingSet:
    structure = StringDataStructure("young-right-rows", n, EMPTY, schensted_right,
                                    read_rows, LEFT_TO_RIGHT)
    gens = tuple(enumerate_rows(n, max_len))
    def decompose(t: Tableau) -> tuple[Tableau, ...]:
        return tuple((row,) for row in reversed(t))
    return GeneratingSet(structure, gens, decompose)


def column_presentation(n: int) -> Presentation:
    return generating_presentation(column_generating_set(n))


def row_presentation(n: int, max_len: int) -> Presentation:
    """Bounded slice of the (infinite) row presentation: only products that
    stay within the row-length bound contribute rules."""
    return generating_presentation(row_generating_set(n, max_len), max_len)


def column_length_less(pres: Presentation):
    """Letter comparison for the column termination witness: a strictly
    longer column is strictly smaller."""
    gens = pres.generating.generators
    def less(a: int, b: int) -> bool:
        return len(gens[a]) > len(gens[b])
    return less


def verify_knuth_decomposition(n: int) -> dict:
    """Both sides of every Knuth relation must reach the same column word.

    Embeds each relation instance as a word of single-letter columns and
    normalizes both sides over the column presentation.
    """
    pres = column_presentation(n)
    system, index = pres.system, pres.generating.index
    def embed(letters):
        return tuple(index[(x,)] for x in letters)
    checked = 0
    for pair in knuth_pairs(n):
        lhs, rhs = (tuple(x + 1 for x in w) for w in pair)
        a = normalize(system, embed(lhs), LEFTMOST)
        b = normalize(system, embed(rhs), LEFTMOST)
        if not (a.reached_normal_form and b.reached_normal_form) or a.target != b.target:
            return report("knuth-decomposition", None, {"n": n}, "fail",
                          witness={"lhs": list(lhs), "rhs": list(rhs)})
        checked += 1
    return report("knuth-decomposition", None, {"n": n}, "pass", instances=checked)


def column_complement(col: Tableau, n: int) -> Tableau:
    """Complement column: entries n+1-a for a outside the column; the full
    column maps to the empty tableau."""
    entries = {row[0] for row in col}
    image = sorted(n + 1 - a for a in range(1, n + 1) if a not in entries)
    return tuple((x,) for x in image)


def schuetzenberger_involution(n: int, max_len: int = 3) -> dict:
    """Column complement map on column words, with a bounded verification report.

    The word extension reverses the factors.  The report records, over
    column words up to max_len: involutivity on single columns, whether the
    congruence is preserved (checked on the rules of the column
    presentation via normal forms), whether normal forms map to normal
    forms, and whether normalizing commutes with the map.  A sub-check
    whose normalizations hit the step budget fails and counts them in
    `budget_hits`.
    """
    pres = column_presentation(n)
    system = pres.system
    gens, index = pres.generating.generators, pres.generating.index

    # star[i] is the generator of column i's complement, None for the full
    # column, whose complement is empty
    images = (column_complement(g, n) for g in gens)
    star = [index[read_tableau(image)] if image else None for image in images]

    def star_word(word):
        return tuple(star[i] for i in reversed(word) if star[i] is not None)

    full = index[tuple(range(n, 0, -1))]
    # the full column maps to the empty word and back to the full column
    involutive = star[full] is None and all(s is None or star[s] == i
                                            for i, s in enumerate(star))

    def normal_form(word, check: dict):
        # a truncated normalization cannot support the sub-check's verdict
        result = normalize(system, word, LEFTMOST)
        if not result.reached_normal_form:
            check["result"] = "fail"
            check["budget_hits"] = check.get("budget_hits", 0) + 1
        return result.target

    condition_i = {"result": "pass"}
    for rule in system.rules:
        if normal_form(star_word(rule.lhs), condition_i) != \
                normal_form(star_word(rule.rhs), condition_i):
            condition_i.update(result="fail",
                               witness={"lhs": list(rule.lhs), "rhs": list(rule.rhs)})
            break

    condition_ii = {"result": "pass"}
    identity = {"result": "pass"}
    for word in words_up_to(len(gens), max_len):
        starred = star_word(word)
        if is_normal_form(system, word) and not is_normal_form(system, starred):
            if condition_ii["result"] == "pass":
                condition_ii = {"result": "fail", "witness": {"word": list(word)}}
        nf_star = normal_form(starred, identity)
        star_nf = star_word(normal_form(word, identity))
        if nf_star != star_nf and "witness" not in identity:
            identity.update(result="fail", witness={"word": list(word)})

    return {
        "check": "schuetzenberger-involution",
        "params": {"n": n, "max_len": max_len},
        "involutive_on_columns": involutive,
        "congruence_preserved": condition_i,
        "normal_forms_preserved": condition_ii,
        "normalization_commutes": identity,
        "map": {system.alphabet.name(i): "e" if s is None else system.alphabet.name(s)
                for i, s in enumerate(star)},
    }


def format_tableau(t: Tableau) -> str:
    """One row per line, entries space-separated, top row first."""
    if not t:
        return "(empty)"
    return "\n".join([" ".join(map(str, row)) for row in t])


def parse_tableau(text: str) -> Tableau:
    t = tuple([parse_ints(tokens)
               for tokens in map(str.split, text.replace(";", "\n").splitlines())
               if tokens and tokens != ["(empty)"]])
    if not is_tableau(t) and t:
        raise ValueError("not a valid tableau")
    return t
