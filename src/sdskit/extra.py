"""Quasi-ribbon tableaux, binary search trees, and patience sorting tableaux.

Each carrier gets its insertion(s), its reading, and the rule pairs of
its congruence.  Each insertion is a function of (datum, letter) that
its structure takes as it is: `hypoplactic_right_insert` and
`hypoplactic_left_insert`, `sylvester_insert` (a left insertion, which the
paper writes with the letter first), and `lps_insert` and `rps_insert`,
which differ only in their column search.  A commutation probe tests
whether a right and a left insertion commute on all data reachable within
a bound and reports either a concrete counterexample or exhaustion.  The
probe never asserts the general statement.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from math import inf
from operator import itemgetter, le, lt
from typing import Iterator

from .rewriting import Word
from .sds import (
    LEFT_TO_RIGHT,
    NUMERALS,
    RIGHT_TO_LEFT,
    StringDataStructure,
    first_noncommuting,
    parse_ints,
    report,
    rows_kernel,
)
from .young import knuth_pairs

_first, _last = itemgetter(0), itemgetter(-1)
_but_first, _but_last = itemgetter(slice(1, None)), itemgetter(slice(None, -1))

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
    """No row is empty, the entries read row after row weakly increase, and
    each row starts above the last entry of the row before it."""
    if not all(t):
        return False
    entries = tuple(itertools.chain.from_iterable(t))
    return all(map(le, entries, entries[1:])) and \
        all(map(lt, map(_last, t), map(_first, t[1:])))


def hypoplactic_right_insert(t: QuasiRibbon, x: int) -> QuasiRibbon:
    """Split the ribbon after its last entry <= x, append x there and hang
    the entries beyond it below.

    The entries read row after row weakly increase, so that entry lies in
    the last row starting <= x; the other rows are shared.
    """
    i = bisect_right(t, x, key=_first) - 1
    if i < 0:
        return ((x,),) + t
    row = t[i]
    j = bisect_right(row, x)
    rest = row[j:]
    return t[:i] + (row[:j] + (x,),) + ((rest,) if rest else ()) + t[i + 1:]


def hypoplactic_left_insert(t: QuasiRibbon, x: int) -> QuasiRibbon:
    """The mirror of `hypoplactic_right_insert`: split the ribbon before its
    first entry >= x, which lies in the first row ending >= x, put x there
    and hang the entries before it above."""
    i = bisect_left(t, x, key=_last)
    if i == len(t):
        return t + ((x,),)
    row = t[i]
    j = bisect_left(row, x)
    return t[:i] + ((row[:j],) if j else ()) + ((x,) + row[j:],) + t[i + 1:]


def _ribbon_right(rows: list[list[int]], x: int) -> None:
    """`hypoplactic_right_insert` in place: x is appended to the
    last row starting <= x, once the row's entries greater than x have split
    off into a row of their own below it.  Rows never merge and each holds
    at least one letter the others lack, so a ribbon over n letters splits
    at most n - 1 times in all; every other letter is a bisection and an
    append."""
    i = bisect_right(rows, x, key=_first) - 1
    if i < 0:
        rows.insert(0, [x])
        return
    row = rows[i]
    if row[-1] > x:
        j = bisect_right(row, x)
        rows.insert(i + 1, row[j:])
        del row[j:]
    row.append(x)


def _ribbon_left(rows: list[list[int]], x: int) -> None:
    """`hypoplactic_left_insert` in place, the mirror of
    `_ribbon_right`: x goes to the head of the first row ending >= x, once
    the row's entries less than x have split off into a row above it."""
    i = bisect_left(rows, x, key=_last)
    if i == len(rows):
        rows.append([x])
        return
    row = rows[i]
    if row[0] < x:
        j = bisect_left(row, x)
        rows.insert(i, row[:j])
        del row[:j]
    row.insert(0, x)


def qr_read(t: QuasiRibbon) -> tuple[int, ...]:
    """Column reading: columns left to right, each bottom to top.

    Each row starts under the last box of the row above, so a column holds
    the last box of one row and the first boxes of the rows below it, down
    to the next row of two or more boxes; a row's middle boxes stand alone.
    So one walk keeps the open column, top to bottom, and a row of two or
    more boxes closes it, emits its middle and opens the next column with
    its last box."""
    out: list[int] = []
    column: list[int] = []
    for row in t:
        column.append(row[0])
        if len(row) > 1:
            out += reversed(column)
            out += row[1:-1]
            column = [row[-1]]
    out += reversed(column)
    return tuple(out)


def hypoplactic_right(n: int) -> StringDataStructure:
    return StringDataStructure("hypoplactic-right", n, (), hypoplactic_right_insert,
                               qr_read, LEFT_TO_RIGHT, rows_kernel(_ribbon_right))


def hypoplactic_left(n: int) -> StringDataStructure:
    return StringDataStructure("hypoplactic-left", n, (), hypoplactic_left_insert,
                               qr_read, RIGHT_TO_LEFT, rows_kernel(_ribbon_left))


# --- binary search trees --------------------------------------------------
#
# A tree is None or (label, left, right); labels in the left subtree are
# at most the node label, labels in the right subtree strictly exceed it.

Tree = None | tuple[int, "Tree", "Tree"]


def sylvester_insert(t: Tree, x: int) -> Tree:
    """Leaf insertion of x into t (the paper writes x before t): strictly
    greater descends right, everything else left.

    This branch choice keeps the search invariant and lets the reading
    rebuild every reachable tree.  The walk is a loop, so a degenerate
    tree of any depth is fine.
    """
    path = []
    while t is not None:
        path.append(t)
        t = t[2] if x > t[0] else t[1]
    t = (x, None, None)
    for root, left, right in reversed(path):
        t = (root, left, t) if x > root else (root, t, right)
    return t


def sylvester_insert_word(t: Tree, letters) -> Tree:
    """`sylvester_insert` of each letter in turn, on nodes copied once to
    mutable [label, left, right] lists and frozen once.

    Leaf insertion puts x just before, in symmetric order, every node
    labelled x or more.  So its leaf hangs off one of its two neighbours
    there: as the right child of `before`, the last node labelled below x,
    when that slot is free, and otherwise as the left child of `after`,
    the first node labelled x or more, whose slot is then free.  Keeping
    each label's first and last node in that order finds them with one
    bisection, without walking down the tree; no step recurses, so a tree
    of any depth is fine.
    """
    root = None if t is None else list(t)
    nodes = [] if root is None else [root]      # every node, each after its parent
    for node in nodes:
        for side in (1, 2):
            if node[side] is not None:
                node[side] = child = list(node[side])
                nodes.append(child)
    # label -> its first node, and its last, in symmetric order
    first: dict[int, list] = {}
    last: dict[int, list] = {}
    stack, node = [], root
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            node = node[1]
        node = stack.pop()
        first.setdefault(node[0], node)
        last[node[0]] = node
        node = node[2]
    labels = sorted(first)
    for x in letters:
        leaf = [x, None, None]
        nodes.append(leaf)
        i = bisect_left(labels, x)
        before = last[labels[i - 1]] if i else None
        if before is not None and before[2] is None:
            before[2] = leaf
        elif i < len(labels):
            first[labels[i]][1] = leaf
        else:
            root = leaf
        if i == len(labels) or labels[i] != x:
            labels.insert(i, x)
            last[x] = leaf
        first[x] = leaf
    # each node is frozen into a fourth slot after its children, which come
    # later in `nodes`
    for node in reversed(nodes):
        left, right = node[1], node[2]
        node.append((node[0], left and left[3], right and right[3]))
    return None if root is None else root[3]


def is_search_tree(t: Tree) -> bool:
    stack = [(t, float("-inf"), float("inf"))]
    while stack:
        t, lo, hi = stack.pop()
        if t is None:
            continue
        root, left, right = t
        if not (lo <= root <= hi):
            return False
        stack.append((right, root + 1, hi))
        stack.append((left, lo, root))
    return True


def tree_read(t: Tree) -> tuple[int, ...]:
    """Right subtree, then left subtree, then the root.

    Reversed, this is the preorder root, left, right, built with a stack.
    """
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if t is not None:
            root, left, right = t
            out.append(root)
            stack.append(right)
            stack.append(left)
    out.reverse()
    return tuple(out)


def sylvester_left(n: int) -> StringDataStructure:
    return StringDataStructure("sylvester-left", n, None, sylvester_insert,
                               tree_read, RIGHT_TO_LEFT, sylvester_insert_word)


def format_tree(t: Tree) -> str:
    """Nested parenthesized form "(label left right)" with "·" for empty."""
    # every subtree is written with a leading space, cut off the root's at
    # the end; each left spine is walked at once, leaving on the stack what
    # follows its nodes' left subtrees, innermost last
    parts, stack = [], [t]
    append, push, pop = parts.append, stack.append, stack.pop
    while stack:
        t = pop()
        if t.__class__ is str:
            append(t)
            continue
        while t is not None:
            root, t, right = t
            append(f" ({root}")
            if right is None:
                push(" ·)")
            else:
                push(")")
                push(right)
        append(" ·")
    return "".join(parts)[1:]


def parse_tree(text: str) -> Tree:
    """Inverse of `format_tree` ("." also marks an empty subtree); raises ValueError."""
    return parse_tree_bounds(text)[0]


def parse_tree_bounds(text: str) -> tuple[Tree, bool, int | None, int | None]:
    """The tree of `parse_tree`, whether it is a search tree, and, if it is
    one and not empty, its least and greatest label, from one pass over the
    text; malformed text raises ValueError first, whatever the order.

    A node comes in symmetric order once its left subtree has closed.  The
    labels of a search tree weakly increase in that order, and strictly
    from a node to the first node of its right subtree; that is all that
    `is_search_tree` checks.  Labels are integers, so `floor`, the least
    label the next node may have, is the last node's label plus one, or
    that label itself once the node's right subtree closed empty.  The last
    node has the greatest label, and the end of the left spine the least."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    open_nodes: list[list] = []     # [label], then [label, left subtree]
    floor = -inf
    ordered = True
    i = 0
    try:        # reading past the last token is the only IndexError
        while True:
            tok = tokens[i]
            if tok == "(":
                label = NUMERALS.get(tokens[i + 1])
                if label is None:   # int()'s reading, or the token's error
                    (label,) = parse_ints((tokens[i + 1],))
                open_nodes.append([label])
                i += 2
                continue
            i += 1
            if tok != "·" and tok != ".":
                raise ValueError(f"unexpected token {tok!r}")
            tree = None
            # a finished subtree closes every open node it completes
            while open_nodes and len(open_nodes[-1]) == 2:
                if tokens[i] != ")":
                    raise ValueError("expected ')'")
                i += 1
                if tree is None:    # the last node's right subtree is empty
                    floor -= 1
                root, left = open_nodes.pop()
                tree = (root, left, tree)
            if not open_nodes:
                if i < len(tokens):
                    raise ValueError("trailing input")
                break
            node = open_nodes[-1]
            node.append(tree)
            if node[0] < floor:
                ordered = False
            floor = node[0] + 1
    except IndexError:
        raise ValueError("unexpected end of tree") from None
    if tree is None or not ordered:
        return tree, ordered, None, None
    least = tree
    while least[1] is not None:
        least = least[1]
    return tree, True, least[0], floor


# --- patience sorting tableaux ---------------------------------------------
#
# Columns are stored left to right, each bottom to top.

PatienceTableau = tuple[tuple[int, ...], ...]

LPS = "lps"
RPS = "rps"


def _pile(bisect):
    """The insertion whose column search is `bisect`: x starts a new column
    or goes to the bottom of column k, the first whose bottom entry is too
    large; and the same in place, for its word kernel."""
    def insert(t: PatienceTableau, x: int) -> PatienceTableau:
        k = bisect(t, x, key=_first)
        if k == len(t):
            return t + ((x,),)
        return t[:k] + ((x,) + t[k],) + t[k + 1:]

    def step(columns: list[list[int]], x: int) -> None:
        k = bisect(columns, x, key=_first)
        if k == len(columns):
            columns.append([x])
        else:
            columns[k].insert(0, x)
    return insert, rows_kernel(step)


lps_insert, _lps_kernel = _pile(bisect_right)
rps_insert, _rps_kernel = _pile(bisect_left)


def is_patience_tableau(t: PatienceTableau, variant: str) -> bool:
    """No column is empty, the bottoms rise weakly (lps) or strictly (rps)
    from left to right, and each column rises strictly (lps) or weakly
    (rps) from its bottom up."""
    if not all(t):
        return False
    across, up = (le, lt) if variant == LPS else (lt, le)
    bottoms = tuple(map(_first, t))
    return all(map(across, bottoms, bottoms[1:])) and \
        all(map(up, itertools.chain.from_iterable(map(_but_last, t)),
                itertools.chain.from_iterable(map(_but_first, t))))


def ps_read(t: PatienceTableau) -> tuple[int, ...]:
    """Columns left to right, each top to bottom."""
    return tuple(x for col in t for x in reversed(col))


def lps_right(n: int) -> StringDataStructure:
    return StringDataStructure("lps-right", n, (), lps_insert,
                               ps_read, LEFT_TO_RIGHT, _lps_kernel)


def rps_right(n: int) -> StringDataStructure:
    return StringDataStructure("rps-right", n, (), rps_insert,
                               ps_read, LEFT_TO_RIGHT, _rps_kernel)


# --- congruences -----------------------------------------------------------
#
# Each family ranges over the alphabet's indices: index i is the paper's
# letter i + 1 (`Alphabet.letters`), a monotone shift that keeps every
# inequality of the paper's relations.


def hypoplactic_pairs(n: int) -> Iterator[tuple[Word, Word]]:
    """The Knuth rules, then the quartic exchanges z x t y -> x z y t for
    x <= y < z <= t and t y z x -> y t x z for x < y <= z < t."""
    yield from knuth_pairs(n)
    yield from (((z, x, t, y), (x, z, y, t))
                for x in range(n) for y in range(x, n) for z in range(y + 1, n)
                for t in range(z, n))
    yield from (((t, y, z, x), (y, t, x, z))
                for x in range(n) for y in range(x + 1, n) for z in range(y, n)
                for t in range(z + 1, n))


def sylvester_pairs(n: int, max_w: int) -> Iterator[tuple[Word, Word]]:
    """Exchange rules z x w y -> x z w y for x <= y < z, the inner word w
    of at most max_w letters."""
    return (((z, x) + w + (y,), (x, z) + w + (y,))
            for wlen in range(max_w + 1)
            for w in itertools.product(range(n), repeat=wlen)
            for x in range(n) for y in range(x, n) for z in range(y + 1, n))


def _ps_pairs(n: int, max_p: int, strict_head: bool) -> Iterator[tuple[Word, Word]]:
    # strict_head selects the inequalities of lps_pairs, else those of rps_pairs
    chains = itertools.combinations if strict_head else itertools.combinations_with_replacement
    for p in range(1, max_p + 1):
        for x in range(n):
            for y in (range(x + 1, n) if strict_head else range(x, n)):
                lows = range(y, n) if strict_head else range(y + 1, n)
                for chain in chains(lows, p):
                    xs = chain[::-1]
                    yield (y,) + xs + (x,), (y, x) + xs


def lps_pairs(n: int, max_p: int) -> Iterator[tuple[Word, Word]]:
    """Rules y x_p..x_1 x -> y x x_p..x_1 for x < y <= x_1 < ... < x_p."""
    return _ps_pairs(n, max_p, True)


def rps_pairs(n: int, max_p: int) -> Iterator[tuple[Word, Word]]:
    """Rules y x_p..x_1 x -> y x x_p..x_1 for x <= y < x_1 <= ... <= x_p."""
    return _ps_pairs(n, max_p, False)


def commutation_probe(right: StringDataStructure, left: StringDataStructure,
                      max_len: int) -> dict:
    """Search for a commutation counterexample over all reachable data.

    Returns a definitive bounded report: either a witness (datum, x, y)
    with both evaluation orders, or exhaustion of the search space.  No
    general claim is made either way.  `pairs_tested` counts the (datum,
    x, y) triples examined, up to and including a counterexample.
    """
    count, bad = first_noncommuting(right, left, max_len)
    k = right.n
    name, params = f"{right.name}|{left.name}", {"n": k, "max_len": max_len}
    if bad is None:
        return report("probe", name, params, "exhausted",
                      pairs_tested=count * k * k, data_count=count)
    position, key, x, y, a, b = bad
    return report("probe", name, params, "counterexample",
                  witness={"datum": list(key), "x": x, "y": y,
                           "left_after_right": list(a), "right_after_left": list(b)},
                  pairs_tested=(position * k + x - 1) * k + y)


def derived_right_insertion(left: StringDataStructure) -> StringDataStructure:
    """The canonical right-insertion candidate built from a left structure:
    appending a letter to the reading and reconstructing."""
    def insert(d, x):
        return left.constructor(left.read(d) + (x,))
    return StringDataStructure(left.name + "-derived-right", left.n, left.empty,
                               insert, left.read, LEFT_TO_RIGHT)
