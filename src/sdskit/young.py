"""Young tableaux, the two Schensted insertions, and the column machinery.

Tableaux are tuples of rows (top row first); rows weakly increase, columns
strictly increase, and row lengths weakly decrease.  Both the row-bumping
right insertion and the column-bumping left insertion are provided, along
with the Knuth presentations, the column and row generating sets, the
commutativity check for the Knuth-rule squares over column rewriting, and
the column complement involution.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations

from .rewriting import (
    LEFTMOST,
    Alphabet,
    RewritingSystem,
    is_normal_form,
    normalize,
    words_up_to,
)
from .sds import (
    GENERATING,
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    GeneratingSet,
    Presentation,
    StringDataStructure,
    build_srs,
    datum_label,
)

Tableau = tuple[tuple[int, ...], ...]

EMPTY: Tableau = ()


def is_tableau(t: Tableau) -> bool:
    """Rows weakly increase, columns strictly increase, lengths weakly decrease."""
    for i, row in enumerate(t):
        if not row:
            return False
        if any(a > b for a, b in zip(row, row[1:])):
            return False
        if i > 0:
            if len(t[i - 1]) < len(row):
                return False
            if any(t[i - 1][j] >= row[j] for j in range(len(row))):
                return False
    return True


def schensted_right(t: Tableau, x: int) -> Tableau:
    """Row bumping: x enters the top row, bumped entries cascade downwards."""
    rows = [list(r) for r in t]
    cur = x
    for row in rows:
        if cur >= row[-1]:
            row.append(cur)
            return tuple(tuple(r) for r in rows)
        k = bisect_right(row, cur)
        cur, row[k] = row[k], cur
    rows.append([cur])
    return tuple(tuple(r) for r in rows)


def schensted_left(x: int, t: Tableau) -> Tableau:
    """Column bumping: x enters the leftmost column, bumps cascade rightwards."""
    cols = [list(c) for c in columns(t)]
    cur = x
    for col in cols:
        if cur > col[-1]:
            col.append(cur)
            return from_columns(cols)
        k = bisect_left(col, cur)
        cur, col[k] = col[k], cur
    cols.append([cur])
    return from_columns(cols)


def columns(t: Tableau) -> list[tuple[int, ...]]:
    if not t:
        return []
    return [tuple(row[k] for row in t if len(row) > k) for k in range(len(t[0]))]


def from_columns(cols) -> Tableau:
    if not cols:
        return ()
    return tuple(tuple(col[i] for col in cols if len(col) > i) for i in range(len(cols[0])))


READ_COL = "col"
READ_ROW = "row"
READ_COL_OP = "col_op"


def read_tableau(t: Tableau, mode: str = READ_COL) -> tuple[int, ...]:
    """col: columns left to right, bottom to top; row: rows bottom to top;
    col_op: columns right to left, top to bottom."""
    if mode == READ_COL:
        return tuple(x for col in columns(t) for x in reversed(col))
    if mode == READ_ROW:
        return tuple(x for row in reversed(t) for x in row)
    if mode == READ_COL_OP:
        return tuple(x for col in reversed(columns(t)) for x in col)
    raise ValueError(f"unknown reading {mode!r}")


def young_right(n: int) -> StringDataStructure:
    """Right structure: row insertion with the column reading."""
    return StringDataStructure("young-right", n, EMPTY, schensted_right,
                               read_tableau, LEFT_TO_RIGHT)


def young_left(n: int) -> StringDataStructure:
    """Left structure: column insertion with the column reading."""
    return StringDataStructure("young-left", n, EMPTY,
                               lambda t, x: schensted_left(x, t),
                               read_tableau, RIGHT_TO_LEFT)


def young_right_mirror(n: int) -> StringDataStructure:
    # row insertion fed right-to-left; its product is not associative
    return StringDataStructure("young-right-mirror", n, EMPTY, schensted_right,
                               read_tableau, RIGHT_TO_LEFT)


def knuth_srs(n: int, variant: str = "standard") -> RewritingSystem:
    """The Knuth relations (or their reversed pairing) as oriented rules."""
    alphabet = Alphabet(tuple(str(x) for x in range(1, n + 1)))
    pairs = []
    if variant == "standard":
        xi = [(x, y, z) for x in range(1, n + 1) for y in range(x, n + 1)
              for z in range(y + 1, n + 1)]
        zeta = [(x, y, z) for x in range(1, n + 1) for y in range(x + 1, n + 1)
                for z in range(y, n + 1)]
    elif variant == "reversed":
        xi = [(x, y, z) for x in range(1, n + 1) for y in range(x + 1, n + 1)
              for z in range(y, n + 1)]
        zeta = [(x, y, z) for x in range(1, n + 1) for y in range(x, n + 1)
                for z in range(y + 1, n + 1)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    for x, y, z in xi:
        pairs.append(((z - 1, x - 1, y - 1), (x - 1, z - 1, y - 1)))
    for x, y, z in zeta:
        pairs.append(((y - 1, z - 1, x - 1), (y - 1, x - 1, z - 1)))
    return RewritingSystem.from_pairs(alphabet, pairs)


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
                                    lambda t: read_tableau(t, READ_ROW), LEFT_TO_RIGHT)
    gens = tuple(enumerate_rows(n, max_len))
    def decompose(t: Tableau) -> tuple[Tableau, ...]:
        return tuple((row,) for row in reversed(t))
    return GeneratingSet(structure, gens, decompose)


def column_presentation(n: int) -> Presentation:
    gen = column_generating_set(n)
    return build_srs(gen.structure, GENERATING, generating=gen)


def row_presentation(n: int, max_len: int) -> Presentation:
    """Bounded slice of the (infinite) row presentation: only products that
    stay within the row-length bound contribute rules."""
    gen = row_generating_set(n, max_len)
    structure = gen.structure
    index = {structure.read(c): i for i, c in enumerate(gen.generators)}
    labels = tuple(datum_label(structure, c) for c in gen.generators)
    pairs = []
    for i, c in enumerate(gen.generators):
        for j, e in enumerate(gen.generators):
            if len(c[0]) + len(e[0]) > max_len:
                continue
            product = structure.star(c, e)
            rhs = tuple(index[structure.read(f)] for f in gen.decompose(product))
            if (i, j) != rhs:
                pairs.append(((i, j), rhs))
    return Presentation(RewritingSystem.from_pairs(Alphabet(labels), pairs),
                        tuple(gen.generators))


def column_length_less(pres: Presentation):
    """Letter comparison for the column termination certificate: a strictly
    longer column is strictly smaller."""
    gens = pres.generators
    def less(a: int, b: int) -> bool:
        return len(gens[a]) > len(gens[b])
    return less


def verify_knuth_decomposition(n: int) -> dict:
    """Both sides of every Knuth relation must reach the same column word.

    Embeds each relation instance as a word of single-letter columns and
    normalizes both sides over the column presentation.
    """
    pres = column_presentation(n)
    system = pres.system
    index = {read_tableau(c): i for i, c in enumerate(pres.generators)}
    def embed(letters):
        return tuple(index[(x,)] for x in letters)
    checked = 0
    for rule in knuth_srs(n).rules:
        lhs = tuple(x + 1 for x in rule.lhs)
        rhs = tuple(x + 1 for x in rule.rhs)
        a = normalize(system, embed(lhs), LEFTMOST)
        b = normalize(system, embed(rhs), LEFTMOST)
        if not (a.reached_normal_form and b.reached_normal_form) or a.target != b.target:
            return {"check": "knuth-decomposition", "params": {"n": n}, "result": "fail",
                    "witness": {"lhs": list(lhs), "rhs": list(rhs)}}
        checked += 1
    return {"check": "knuth-decomposition", "params": {"n": n}, "result": "pass",
            "instances": checked}


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
    gens = pres.generators
    index = {read_tableau(c): i for i, c in enumerate(gens)}

    def star_letter(i: int) -> tuple[int, ...]:
        image = column_complement(gens[i], n)
        if not image:
            return ()
        return (index[read_tableau(image)],)

    def star_word(word):
        out = ()
        for letter in reversed(word):
            out += star_letter(letter)
        return out

    involutive = all(
        (not star_letter(i)) or star_word(star_letter(i)) == (i,)
        for i in range(len(gens)))
    full = index[read_tableau(tuple((x,) for x in range(1, n + 1)))]
    # the full column maps to the empty word and back to the full column
    involutive = involutive and star_letter(full) == ()

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
        "map": {system.alphabet.name(i): (system.alphabet.name(star_letter(i)[0])
                                          if star_letter(i) else "e")
                for i in range(len(gens))},
    }


def format_tableau(t: Tableau) -> str:
    """One row per line, entries space-separated, top row first."""
    if not t:
        return "(empty)"
    return "\n".join(" ".join(str(x) for x in row) for row in t)


def parse_tableau(text: str) -> Tableau:
    rows = []
    for line in text.replace(";", "\n").splitlines():
        line = line.strip()
        if not line or line == "(empty)":
            continue
        rows.append(tuple(int(tok) for tok in line.split()))
    t = tuple(rows)
    if not is_tableau(t) and t:
        raise ValueError("not a valid tableau")
    return t
