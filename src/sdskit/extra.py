"""Quasi-ribbon tableaux, binary search trees, and patience sorting tableaux.

Each carrier gets its insertion(s), its reading, and the rewriting system
of its congruence; a commutation probe tests whether a right and a left
insertion commute on all data reachable within a bound and reports either
a concrete counterexample or exhaustion.  The probe never asserts the
general statement.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right

from .rewriting import Alphabet, RewritingSystem
from .sds import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    StringDataStructure,
    first_noncommuting,
    report,
)

# --- quasi-ribbon tableaux ------------------------------------------------
#
# Rows are stored top to bottom; the horizontal offset of each row is
# forced by the ribbon shape (each row starts under the last box of the
# previous one), so it is derived rather than stored.

QuasiRibbon = tuple[tuple[int, ...], ...]


def qr_offsets(t: QuasiRibbon) -> tuple[int, ...]:
    offsets = []
    pos = 0
    for row in t:
        offsets.append(pos)
        pos += len(row) - 1
    return tuple(offsets)


def is_quasi_ribbon(t: QuasiRibbon) -> bool:
    for row in t:
        if not row or any(a > b for a, b in zip(row, row[1:])):
            return False
    return all(prev[-1] < nxt[0] for prev, nxt in zip(t, t[1:]))


def _ribbon_sequence(t: QuasiRibbon) -> list[int]:
    return [x for row in t for x in row]


def hypoplactic_insert(t: QuasiRibbon, x: int, side: str = "right") -> QuasiRibbon:
    """Split the ribbon at the pivot entry and attach the loose part around x.

    Right insertion places x after the last entry <= x, with everything
    beyond hanging below; left insertion places x before the first entry
    >= x, with everything before hanging above.
    """
    rows = [list(r) for r in t]
    seq = _ribbon_sequence(t)
    if side == "right":
        k = bisect_right(seq, x)
        if k == 0:
            return ((x,),) + t
        i, j = _locate(rows, k - 1)
        head = rows[:i] + [rows[i][:j + 1] + [x]]
        rest = rows[i][j + 1:]
        tail = ([rest] if rest else []) + rows[i + 1:]
        return tuple(tuple(r) for r in head + tail)
    if side == "left":
        k = bisect_left(seq, x)
        if k == len(seq):
            return t + ((x,),)
        i, j = _locate(rows, k)
        head = rows[:i] + ([rows[i][:j]] if j else [])
        tail = [[x] + rows[i][j:]] + rows[i + 1:]
        return tuple(tuple(r) for r in head + tail)
    raise ValueError(f"unknown side {side!r}")


def _locate(rows, flat_index):
    for i, row in enumerate(rows):
        if flat_index < len(row):
            return i, flat_index
        flat_index -= len(row)
    raise IndexError(flat_index)


def qr_read(t: QuasiRibbon) -> tuple[int, ...]:
    """Column reading: columns left to right, each bottom to top."""
    offsets = qr_offsets(t)
    cols: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(t):
        for j, x in enumerate(row):
            cols.setdefault(offsets[i] + j, []).append((i, x))
    out = []
    for c in sorted(cols):
        for _, x in sorted(cols[c], reverse=True):
            out.append(x)
    return tuple(out)


def hypoplactic_right(n: int) -> StringDataStructure:
    return StringDataStructure("hypoplactic-right", n, (),
                               lambda t, x: hypoplactic_insert(t, x, "right"),
                               qr_read, LEFT_TO_RIGHT)


def hypoplactic_left(n: int) -> StringDataStructure:
    return StringDataStructure("hypoplactic-left", n, (),
                               lambda t, x: hypoplactic_insert(t, x, "left"),
                               qr_read, RIGHT_TO_LEFT)


def qr_to_json(t: QuasiRibbon) -> dict:
    return {"rows": [list(r) for r in t], "offsets": list(qr_offsets(t))}


# --- binary search trees --------------------------------------------------
#
# A tree is None or (label, left, right); labels in the left subtree are
# at most the node label, labels in the right subtree strictly exceed it.

Tree = None | tuple[int, "Tree", "Tree"]


def sylvester_insert(x: int, t: Tree) -> Tree:
    """Leaf insertion: strictly greater descends right, everything else left.

    This branch choice keeps the search invariant and lets the reading
    rebuild every reachable tree.
    """
    if t is None:
        return (x, None, None)
    root, left, right = t
    if x > root:
        return (root, left, sylvester_insert(x, right))
    return (root, sylvester_insert(x, left), right)


def is_search_tree(t: Tree) -> bool:
    def between(t, lo, hi):
        if t is None:
            return True
        root, left, right = t
        if not (lo <= root <= hi):
            return False
        return between(left, lo, root) and between(right, root + 1, hi)
    return between(t, float("-inf"), float("inf"))


def tree_read(t: Tree) -> tuple[int, ...]:
    """Right subtree, then left subtree, then the root."""
    if t is None:
        return ()
    root, left, right = t
    return tree_read(right) + tree_read(left) + (root,)


def sylvester_left(n: int) -> StringDataStructure:
    return StringDataStructure("sylvester-left", n, None,
                               lambda t, x: sylvester_insert(x, t),
                               tree_read, RIGHT_TO_LEFT)


def format_tree(t: Tree) -> str:
    """Nested parenthesized form "(label left right)" with "·" for empty."""
    if t is None:
        return "·"
    root, left, right = t
    return f"({root} {format_tree(left)} {format_tree(right)})"


def parse_tree(text: str) -> Tree:
    """Inverse of `format_tree` ("." also marks an empty subtree); raises ValueError."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("unexpected end of tree")
        pos += 1
        return tokens[pos - 1]

    def parse():
        tok = take()
        if tok in ("·", "."):
            return None
        if tok != "(":
            raise ValueError(f"unexpected token {tok!r}")
        root = int(take())
        left = parse()
        right = parse()
        if take() != ")":
            raise ValueError("expected ')'")
        return (root, left, right)

    tree = parse()
    if pos != len(tokens):
        raise ValueError("trailing input")
    return tree


# --- patience sorting tableaux ---------------------------------------------
#
# Columns are stored left to right, each bottom to top.

PatienceTableau = tuple[tuple[int, ...], ...]

LPS = "lps"
RPS = "rps"


def patience_insert(t: PatienceTableau, x: int, variant: str) -> PatienceTableau:
    """Bump the leftmost too-large bottom entry, stacking its column on x."""
    cols = [list(c) for c in t]
    bottoms = [c[0] for c in cols]
    if variant == LPS:
        k = bisect_right(bottoms, x)
    elif variant == RPS:
        k = bisect_left(bottoms, x)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if k == len(cols):
        cols.append([x])
    else:
        cols[k] = [x] + cols[k]
    return tuple(tuple(c) for c in cols)


def is_patience_tableau(t: PatienceTableau, variant: str) -> bool:
    bottoms = [c[0] for c in t if c]
    if variant == LPS:
        rows_ok = all(a <= b for a, b in zip(bottoms, bottoms[1:]))
        cols_ok = all(a < b for c in t for a, b in zip(c, c[1:]))
    else:
        rows_ok = all(a < b for a, b in zip(bottoms, bottoms[1:]))
        cols_ok = all(a <= b for c in t for a, b in zip(c, c[1:]))
    return rows_ok and cols_ok and all(t)


def ps_read(t: PatienceTableau) -> tuple[int, ...]:
    """Columns left to right, each top to bottom."""
    return tuple(x for col in t for x in reversed(col))


def lps_right(n: int) -> StringDataStructure:
    return StringDataStructure("lps-right", n, (),
                               lambda t, x: patience_insert(t, x, LPS),
                               ps_read, LEFT_TO_RIGHT)


def rps_right(n: int) -> StringDataStructure:
    return StringDataStructure("rps-right", n, (),
                               lambda t, x: patience_insert(t, x, RPS),
                               ps_read, LEFT_TO_RIGHT)


def ps_to_json(t: PatienceTableau) -> dict:
    return {"columns_bottom_up": [list(c) for c in t]}


# --- congruences -----------------------------------------------------------


def _letter_alphabet(n: int) -> Alphabet:
    return Alphabet(tuple(str(x) for x in range(1, n + 1)))


def hypoplactic_srs(n: int) -> RewritingSystem:
    """Knuth relations plus the two quartic exchange families."""
    from .young import knuth_srs
    base = knuth_srs(n)
    pairs = [(r.lhs, r.rhs) for r in base.rules]
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            for z in range(y + 1, n + 1):
                for t in range(z, n + 1):
                    pairs.append(((z - 1, x - 1, t - 1, y - 1),
                                  (x - 1, z - 1, y - 1, t - 1)))
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            for z in range(y, n + 1):
                for t in range(z + 1, n + 1):
                    pairs.append(((t - 1, y - 1, z - 1, x - 1),
                                  (y - 1, t - 1, x - 1, z - 1)))
    return RewritingSystem.from_pairs(base.alphabet, pairs)


def sylvester_srs(n: int, max_w: int) -> RewritingSystem:
    """Exchange rules z x w y -> x z w y with the inner word bounded."""
    pairs = []
    for wlen in range(max_w + 1):
        for w in itertools.product(range(n), repeat=wlen):
            for x in range(1, n + 1):
                for y in range(x, n + 1):
                    for z in range(y + 1, n + 1):
                        pairs.append(((z - 1, x - 1) + w + (y - 1,),
                                      (x - 1, z - 1) + w + (y - 1,)))
    return RewritingSystem.from_pairs(_letter_alphabet(n), pairs)


def _ps_pairs(n: int, max_p: int, strict_head: bool):
    # strict_head selects between x < y <= x1 < ... and x <= y < x1 <= ...
    pairs = []
    for p in range(1, max_p + 1):
        for x in range(1, n + 1):
            ys = range(x + 1, n + 1) if strict_head else range(x, n + 1)
            for y in ys:
                lows = range(y, n + 1) if strict_head else range(y + 1, n + 1)
                for chain in _chains(lows, p, strict=strict_head):
                    xs = tuple(c - 1 for c in reversed(chain))
                    lhs = (y - 1,) + xs + (x - 1,)
                    rhs = (y - 1, x - 1) + xs
                    pairs.append((lhs, rhs))
    return pairs


def _chains(values, length, strict):
    values = list(values)
    if strict:
        return itertools.combinations(values, length)
    return itertools.combinations_with_replacement(values, length)


def lps_srs(n: int, max_p: int) -> RewritingSystem:
    """Rules y x_p..x_1 x -> y x x_p..x_1 for x < y <= x_1 < ... < x_p."""
    return RewritingSystem.from_pairs(_letter_alphabet(n), _ps_pairs(n, max_p, True))


def rps_srs(n: int, max_p: int) -> RewritingSystem:
    """Rules y x_p..x_1 x -> y x x_p..x_1 for x <= y < x_1 <= ... <= x_p."""
    return RewritingSystem.from_pairs(_letter_alphabet(n), _ps_pairs(n, max_p, False))


def commutation_probe(right: StringDataStructure, left: StringDataStructure,
                      n: int, max_len: int) -> dict:
    """Search for a commutation counterexample over all reachable data.

    Returns a definitive bounded report: either a witness (datum, x, y)
    with both evaluation orders, or exhaustion of the search space.  No
    general claim is made either way.  `pairs_tested` counts the (datum,
    x, y) triples examined, up to and including a counterexample.
    """
    data, bad = first_noncommuting(right, left, max_len)
    name, params = f"{right.name}|{left.name}", {"n": n, "max_len": max_len}
    k = right.n
    if bad is None:
        return report("probe", name, params, "exhausted",
                      pairs_tested=len(data) * k * k, data_count=len(data))
    key, x, y = bad
    d = data[key]
    a = left.insert_one(right.insert_one(d, x), y)
    b = right.insert_one(left.insert_one(d, y), x)
    position = sorted(data).index(key)
    return report("probe", name, params, "counterexample",
                  witness={"datum": list(key), "x": x, "y": y,
                           "left_after_right": list(right.read(a)),
                           "right_after_left": list(right.read(b))},
                  pairs_tested=(position * k + x - 1) * k + y)


def derived_right_insertion(left: StringDataStructure) -> StringDataStructure:
    """The canonical right-insertion candidate built from a left structure:
    appending a letter to the reading and reconstructing."""
    def insert(d, x):
        return left.constructor(left.read(d) + (x,))
    return StringDataStructure(left.name + "-derived-right", left.n, left.empty,
                               insert, left.read, LEFT_TO_RIGHT)
