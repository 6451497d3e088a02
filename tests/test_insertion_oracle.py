"""Test-only oracle for the one-letter insertions and the search-tree helpers.

The insertions as they were before they learned to copy only what they
change (column bumping through a transpose of the whole tableau, patience
and quasi-ribbon insertion through lists of every row, recursive tree
code), copied verbatim, are compared letter by letter with the ones in
`sdskit`: exhaustively on every word of length <= 6 over n <= 3 letters,
and on random words of up to 300 letters over n <= 9, which are long
enough to hold the long runs of equal entries that column bumping jumps.

The quasi-ribbon column reading as it was before it became one walk over
the rows is compared with `extra.qr_read` on random ribbons.

The tableau readings as they were before the column reading became one
pass over the rows are compared with `young.read_tableau` and
`young.read_rows` on random tableaux.

The word kernels behind `insert_long` are compared with the fold of the
one-letter insertions, `insert_word`, on long random words; the young-left
kernel, which row-inserts by the plactic duality, also on words made of
long runs of one letter and of strictly decreasing runs.

The staircase steps as they were before they cached each row's extreme
nonzero column, which scan every row they visit, are compared with the
one-letter staircase insertions on every datum reachable within a length
bound at n = 1, 2, 4 and 6 (which must also share every row they leave
alone), and, folded, with both staircase kernels, whose one cache serves
a whole word, on words made of runs n..1, runs 1..n and runs of one letter,
which empty a row's cached column and fill it again.

The datum validators as they were before they compared with `map` (the
JSON rows, quasi-ribbon and patience tableau checks) are compared with
the ones in `sdskit` on random rows, and the one-pass tree parse with
`is_search_tree` and the least and greatest label on any tree.

`parse_ints` as it was before it read numerals through a table, which
converted every token with `int()`, is compared with `sds.parse_ints` on
token lists that mix the table's numerals with numerals past it, padded,
signed and non-ASCII ones and tokens that are no integer at all.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from sdskit import chinese, extra, registry, sds, young
from sdskit.registry import STRUCTURES, get_structure
from sdskit.sds import LEFT_TO_RIGHT, RIGHT_TO_LEFT, StringDataStructure

# --- the functions before the change, verbatim ---------------------------------


def schensted_right(t, x: int):
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


def schensted_left(x: int, t):
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


def columns(t) -> list[tuple[int, ...]]:
    if not t:
        return []
    return [tuple(row[k] for row in t if len(row) > k) for k in range(len(t[0]))]


def from_columns(cols):
    if not cols:
        return ()
    return tuple(tuple(col[i] for col in cols if len(col) > i) for i in range(len(cols[0])))


def read_tableau(t, mode: str = "col") -> tuple[int, ...]:
    """col: columns left to right, bottom to top; row: rows bottom to top;
    col_op: columns right to left, top to bottom."""
    if mode == "col":
        return tuple(x for col in columns(t) for x in reversed(col))
    if mode == "row":
        return tuple(x for row in reversed(t) for x in row)
    if mode == "col_op":
        return tuple(x for col in reversed(columns(t)) for x in col)
    raise ValueError(f"unknown reading {mode!r}")


def _ribbon_sequence(t) -> list[int]:
    return [x for row in t for x in row]


def hypoplactic_insert(t, x: int, side: str = "right"):
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


def qr_offsets(t) -> tuple[int, ...]:
    offsets = []
    pos = 0
    for row in t:
        offsets.append(pos)
        pos += len(row) - 1
    return tuple(offsets)


def qr_read(t) -> tuple[int, ...]:
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


def sylvester_insert(x: int, t):
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


def is_search_tree(t) -> bool:
    def between(t, lo, hi):
        if t is None:
            return True
        root, left, right = t
        if not (lo <= root <= hi):
            return False
        return between(left, lo, root) and between(right, root + 1, hi)
    return between(t, float("-inf"), float("inf"))


def tree_read(t) -> tuple[int, ...]:
    """Right subtree, then left subtree, then the root."""
    if t is None:
        return ()
    root, left, right = t
    return tree_read(right) + tree_read(left) + (root,)


def format_tree(t) -> str:
    """Nested parenthesized form "(label left right)" with "·" for empty."""
    if t is None:
        return "·"
    root, left, right = t
    return f"({root} {format_tree(left)} {format_tree(right)})"


def parse_tree(text: str):
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


def patience_insert(t, x: int, variant: str):
    """Bump the leftmost too-large bottom entry, stacking its column on x."""
    cols = [list(c) for c in t]
    bottoms = [c[0] for c in cols]
    if variant == extra.LPS:
        k = bisect_right(bottoms, x)
    elif variant == extra.RPS:
        k = bisect_left(bottoms, x)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if k == len(cols):
        cols.append([x])
    else:
        cols[k] = [x] + cols[k]
    return tuple(tuple(c) for c in cols)


def _right_insert(rows: list[list[int]], x: int) -> None:
    """The right insertion of x in 1..n, changing the rows in place."""
    r = len(rows)
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


def _left_insert(rows: list[list[int]], x: int) -> None:
    """The left insertion of x in 1..n, changing the rows in place."""
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


def _json_rows(text: str, key: str) -> tuple[dict, tuple[tuple[int, ...], ...]]:
    """The JSON object in `text` and its `key` field as rows of integers."""
    data = json.loads(text)
    rows = data.get(key) if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in rows):
        raise ValueError(f"expected a JSON object with a list of integer lists under {key!r}")
    return data, tuple(tuple(row) for row in rows)


def is_quasi_ribbon(t) -> bool:
    for row in t:
        if not row or any(a > b for a, b in zip(row, row[1:])):
            return False
    return all(prev[-1] < nxt[0] for prev, nxt in zip(t, t[1:]))


_INTEGER = re.compile(r"-?[0-9]+")


def parse_ints(tokens) -> tuple[int, ...]:
    """The integers that ASCII `-?[0-9]+` tokens spell; the first other token
    raises `int()`'s ValueError.  `int()` alone also reads `1_2`, `+3`, padded
    and non-ASCII digits, but of tokens of 0-9 and `-` only, just that form."""
    digits = "".join(tokens).replace("-", "")
    if digits and not (digits.isascii() and digits.isdigit()):
        bad = next(t for t in tokens if not _INTEGER.fullmatch(t))
        raise ValueError(f"invalid literal for int() with base 10: {bad!r:.200}")
    return tuple(map(int, tokens))


def is_patience_tableau(t, variant: str) -> bool:
    bottoms = [c[0] for c in t if c]
    if variant == extra.LPS:
        rows_ok = all(a <= b for a, b in zip(bottoms, bottoms[1:]))
        cols_ok = all(a < b for c in t for a, b in zip(c, c[1:]))
    else:
        rows_ok = all(a < b for a, b in zip(bottoms, bottoms[1:]))
        cols_ok = all(a <= b for c in t for a, b in zip(c, c[1:]))
    return rows_ok and cols_ok and all(t)


# --- comparisons -------------------------------------------------------------

# name -> (empty datum, insertion under test, oracle), both as (datum, x) -> datum;
# the insertion under test is looked up through its module at each call, so
# that a mutant patched into the module reaches it
INSERTIONS = {
    "young-right": ((), lambda t, x: young.schensted_right(t, x), schensted_right),
    "young-left": ((), lambda t, x: young.schensted_left(t, x),
                   lambda t, x: schensted_left(x, t)),
    "hypoplactic-right": ((), lambda t, x: extra.hypoplactic_right_insert(t, x),
                          lambda t, x: hypoplactic_insert(t, x, "right")),
    "hypoplactic-left": ((), lambda t, x: extra.hypoplactic_left_insert(t, x),
                         lambda t, x: hypoplactic_insert(t, x, "left")),
    "sylvester-left": (None, lambda t, x: extra.sylvester_insert(t, x),
                       lambda t, x: sylvester_insert(x, t)),
    "lps": ((), lambda t, x: extra.lps_insert(t, x),
            lambda t, x: patience_insert(t, x, extra.LPS)),
    "rps": ((), lambda t, x: extra.rps_insert(t, x),
            lambda t, x: patience_insert(t, x, extra.RPS)),
}


def _same_tree_helpers(t):
    assert extra.tree_read(t) == tree_read(t)
    assert extra.is_search_tree(t) == is_search_tree(t)
    text = extra.format_tree(t)
    assert text == format_tree(t)
    assert extra.parse_tree(text) == parse_tree(text) == t


@pytest.mark.parametrize("name", sorted(INSERTIONS))
def test_insertions_match_the_oracle_on_every_short_word(name):
    empty, insert, oracle = INSERTIONS[name]
    for n in (1, 2, 3):
        # depth-first over the words of length <= 6: every prefix's datum is
        # shared, so each (datum, letter) of the walk is compared once
        stack = [(empty, 0)]
        while stack:
            d, length = stack.pop()
            if name == "sylvester-left":
                _same_tree_helpers(d)
            if length == 6:
                continue
            for x in range(1, n + 1):
                got = insert(d, x)
                assert got == oracle(d, x), (name, d, x)
                stack.append((got, length + 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_insertions_match_the_oracle_on_long_words(data):
    n = data.draw(st.integers(1, 9), label="n")
    length = data.draw(st.integers(0, 300), label="length")
    word = data.draw(st.lists(st.integers(1, n), min_size=length, max_size=length),
                     label="word")
    for name, (empty, insert, oracle) in INSERTIONS.items():
        d = empty
        for x in word:
            got = insert(d, x)
            assert got == oracle(d, x), (name, d, x)
            d = got
        if name == "sylvester-left":
            _same_tree_helpers(d)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_qr_read_matches_the_oracle(data):
    # ribbons built by right and left insertion mixed letter by letter; a
    # falling run inserted on the right builds a chain of one-box rows
    n = data.draw(st.integers(1, 9), label="n")
    steps = data.draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from(["right", "left"])),
                               max_size=80), label="steps")
    insert = {"right": extra.hypoplactic_right_insert, "left": extra.hypoplactic_left_insert}
    t = ()
    for x, side in steps:
        t = insert[side](t, x)
        assert extra.qr_read(t) == qr_read(t), t


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_tableau_matches_the_oracle(data):
    # a random tableau, or one row (a weakly increasing word), one column
    # (a strictly decreasing one) or the empty tableau
    n = data.draw(st.integers(1, 9), label="n")
    word = data.draw(st.lists(st.integers(1, n), max_size=120), label="word")
    shape = data.draw(st.sampled_from(["random", "row", "column", "empty"]), label="shape")
    word = {"random": word, "row": sorted(word), "column": sorted(set(word), reverse=True),
            "empty": []}[shape]
    t = young.young_right(n).constructor(tuple(word))
    if shape == "row":
        assert len(t) <= 1
    if shape == "column":
        assert all(len(row) == 1 for row in t)
    assert young.read_tableau(t) == read_tableau(t, "col")
    assert young.read_rows(t) == read_tableau(t, "row")


def _any_tree(labels):
    # binary trees whose labels need not respect the search order
    return st.recursive(st.none(), lambda sub: st.tuples(labels, sub, sub), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_any_tree(st.integers(0, 300)))
@example((99, (100, None, None), (7, None, None)))
def test_tree_helpers_match_the_oracle_on_any_tree(t):
    _same_tree_helpers(t)
    # every truncation of the text fails (or parses) the same way
    text = extra.format_tree(t)
    for cut in range(len(text)):
        assert _parse_outcome(extra.parse_tree, text[:cut]) == _parse_outcome(parse_tree,
                                                                              text[:cut])


@pytest.mark.parametrize("text", ["", "(", "(1", "(x · ·)", "(1 · · ·)", "(1 · ·) ·",
                                  ")", "(1 (2 · ·)", "· ·", "(1 · )", "(1 · · x",
                                  # labels past the numeral table, read by int()
                                  "(007 · ·)", "(-0 · ·)", "(100 · ·)", "(99 (100 · ·) ·)"])
def test_parse_tree_errors_match_the_oracle(text):
    assert _parse_outcome(extra.parse_tree, text) == _parse_outcome(parse_tree, text)


def _parse_outcome(parse, text):
    try:
        return "tree", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def test_tree_helpers_handle_a_chain_deeper_than_the_recursion_limit():
    t = None
    for _ in range(3000):
        t = extra.sylvester_insert(t, 1)
    text = extra.format_tree(t)
    assert text == "(1 " * 3000 + "·" + " ·)" * 3000
    assert extra.tree_read(t) == (1,) * 3000
    assert extra.is_search_tree(t)
    # compare through the text: == on tuples this deep recurses in C
    assert extra.format_tree(extra.parse_tree(text)) == text


# --- word kernels ----------------------------------------------------------------

KERNELS = ("young-right", "young-left", "chinese-right", "chinese-left", "sylvester-left",
           "hypoplactic-right", "hypoplactic-left", "lps-right", "rps-right")


def test_every_registered_structure_has_a_kernel():
    assert {name for name in STRUCTURES if get_structure(name, 3).insert_many} == \
        set(KERNELS) == set(STRUCTURES)


def _outcome(insert, d, word):
    try:
        return "datum", insert(d, word)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_insert_long_is_the_fold(data):
    # from the empty datum or one built from a random word, over every
    # registered structure: those without a kernel fold too
    name = data.draw(st.sampled_from(sorted(STRUCTURES)), label="name")
    n = data.draw(st.integers(1, 9), label="n")
    structure = get_structure(name, n)
    letters = st.integers(1, n)
    d = structure.constructor(tuple(data.draw(st.lists(letters, max_size=300), label="v")))
    word = data.draw(st.lists(letters, max_size=300), label="u")
    # a letter out of range is reported first in reading order, as the fold does
    for _ in range(data.draw(st.integers(0, 2), label="bad letters") if word else 0):
        i = data.draw(st.integers(0, len(word) - 1), label="at")
        word[i] = data.draw(st.sampled_from([0, -1, n + 1]), label="bad")
    word = tuple(word)
    assert _outcome(structure.insert_long, d, word) == \
        _outcome(structure.insert_word, d, word)


def _young_word(data, n: int, label: str) -> tuple[int, ...]:
    """Up to 600 letters: pieces of uniform letters, runs of one letter
    (which build one long row) and strictly decreasing runs n, ..., 1
    (each a column of height n)."""
    piece = st.one_of(
        st.lists(st.integers(1, n), max_size=150),
        st.tuples(st.integers(1, n), st.integers(1, 600)).map(lambda p: [p[0]] * p[1]),
        st.integers(1, 8).map(lambda k: list(range(n, 0, -1)) * k))
    pieces = data.draw(st.lists(piece, max_size=6), label=label)
    return tuple(x for p in pieces for x in p)[:600]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_young_left_kernel_is_the_fold(data):
    # the kernel row-inserts the word and then the datum's reading; the
    # fold column-inserts the word's letters from the last one
    n = data.draw(st.integers(1, 9), label="n")
    s = young.young_left(n)
    d = s.constructor(_young_word(data, n, "v"))
    word = _young_word(data, n, "u")
    assert s.insert_long(d, word) == s.insert_word(d, word)


def test_the_tree_kernel_builds_a_chain_deeper_than_the_recursion_limit():
    s = get_structure("sylvester-left", 2)
    chain = s.insert_long(None, (1,) * 3000)
    text = "(1 " * 3000 + "·" + " ·)" * 3000
    # compare through the text: == on tuples this deep recurses in C
    assert extra.format_tree(chain) == text
    # and the chain as a starting datum: the 2, inserted first, hangs right
    # of the root, and the 1 at the bottom of the chain
    longer = extra.format_tree(s.insert_long(chain, (1, 2)))
    assert longer == "(1 " + text + " (2 · ·))"
    assert longer == extra.format_tree(s.insert_word(chain, (1, 2)))


def test_the_row_kernel_builds_one_long_row():
    s = get_structure("young-right", 3)
    word = (1,) * 1000 + (2,) * 1000 + (3,) * 1000
    assert s.insert_long((), word) == (word,) == s.insert_word((), word)


@pytest.mark.parametrize("name,expected", [
    ("lps-right", ((1,),) * 3000),
    ("rps-right", ((1,) * 3000,)),
    ("hypoplactic-right", ((1,) * 3000,)),
    ("hypoplactic-left", ((1,) * 3000,)),
])
def test_equal_letters_build_one_long_row_or_column(name, expected):
    # lps starts a column at every equal letter, rps stacks them all in one,
    # and a quasi-ribbon keeps them in one row from either side
    s = get_structure(name, 1)
    word = (1,) * 3000
    assert s.insert_long((), word) == expected == s.insert_word((), word)


def _zigzag(n: int, runs: int, shift: int) -> tuple[int, ...]:
    """Rising and falling runs between troughs and peaks that move from run
    to run: a falling run after a rising one splits quasi-ribbon rows."""
    word: list[int] = []
    for k in range(shift, shift + runs):
        low, high = 1 + k % (n - 1), n - k % 3
        word += range(low, high + 1)
        word += range(high - 1, low, -1)
    return tuple(word)


@pytest.mark.parametrize("name", ["hypoplactic-right", "hypoplactic-left", "lps-right",
                                  "rps-right"])
@pytest.mark.parametrize("start", ["empty", "zigzag"])
def test_zigzag_words_split_rows_as_the_fold_does(name, start):
    s = get_structure(name, 9)
    # a datum over 1..5 leaves the pairs of the letters above 5 new, and the
    # word's first trough is 4, so later troughs bring new least letters
    d = s.empty if start == "empty" else s.constructor(_zigzag(5, 40, 0))
    word = _zigzag(9, 60, 3)
    assert s.insert_long(d, word) == s.insert_word(d, word)


@pytest.mark.parametrize("direction", [LEFT_TO_RIGHT, RIGHT_TO_LEFT])
def test_a_structure_without_a_kernel_calls_the_fold(direction):
    calls = []

    def insert_one(d, x):
        calls.append((d, x))
        return d + (x,)

    s = StringDataStructure("recording", 3, (), insert_one, lambda d: d, direction)
    assert s.insert_many is None
    got, fold = s.insert_long((), (1, 2, 3)), s.insert_word((), (1, 2, 3))
    assert got == fold and calls[:3] == calls[3:]


# --- staircase caches --------------------------------------------------------


def _fold(step, t, letters):
    """The rows of t with `step` applied to each letter in turn."""
    rows = [list(row) for row in t]
    for x in letters:
        step(rows, x)
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("n, length, count", [(1, 12, 13), (2, 12, 252), (4, 8, 4191),
                                               (6, 6, 8114)])
def test_one_letter_staircase_insertions_match_the_scanning_steps(n, length, count):
    # every datum reachable within `length` letters, by either side: the
    # `count` staircases of weight <= length (a descent weighs 2); the
    # input is left as it was, and every row an insertion leaves equal is
    # the input's own row
    seen, frontier = {chinese.empty_staircase(n)}, [chinese.empty_staircase(n)]
    for _ in range(length):
        nxt = []
        for t in frontier:
            before = tuple(map(tuple, t))
            for x in range(1, n + 1):
                right = chinese.chinese_right_insert(t, x)
                left = chinese.chinese_left_insert(t, x)
                assert right == _fold(_right_insert, t, (x,)), (t, x)
                assert left == _fold(_left_insert, t, (x,)), (t, x)
                assert t == before, (t, x)
                for u in (right, left):
                    assert all(new is old for new, old in zip(u, t) if new == old), (t, x, u)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    assert len(seen) == count


def _staircase_word(data, n: int, label: str) -> tuple[int, ...]:
    """Up to 600 letters: pieces of uniform letters, runs n..1 (each moves a
    row's last nonzero column down and empties it), runs 1..n and runs of
    one letter."""
    piece = st.one_of(
        st.lists(st.integers(1, n), max_size=150),
        st.integers(1, 20).map(lambda k: list(range(n, 0, -1)) * k),
        st.integers(1, 20).map(lambda k: list(range(1, n + 1)) * k),
        st.tuples(st.integers(1, n), st.integers(1, 300)).map(lambda p: [p[0]] * p[1]))
    pieces = data.draw(st.lists(piece, max_size=8), label=label)
    return tuple(x for p in pieces for x in p)[:600]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_staircase_kernels_are_the_fold(data):
    # from the empty staircase, or from one built by either side; one cache
    # serves the kernel's whole word, a fresh one each letter of the fold
    n = data.draw(st.integers(1, 9), label="n")
    start = data.draw(st.sampled_from(["empty", "chinese-right", "chinese-left"]), label="start")
    v = _staircase_word(data, n, "v")
    d = chinese.empty_staircase(n) if start == "empty" else get_structure(start, n).constructor(v)
    word = _staircase_word(data, n, "u")
    right, left = chinese.chinese_right(n), chinese.chinese_left(n)
    assert right.insert_long(d, word) == right.insert_word(d, word) == \
        _fold(_right_insert, d, word)
    assert left.insert_long(d, word) == left.insert_word(d, word) == \
        _fold(_left_insert, d, word[::-1])


def test_a_run_down_and_up_again_rescans_each_row():
    # 3 2 1 empties and refills the cached columns of rows 3 and 2 at
    # every turn, and 1 2 3 moves the first nonzero column along the rows
    for name in ("chinese-right", "chinese-left"):
        s = get_structure(name, 3)
        for word in ((3, 2, 1) * 50 + (1, 2, 3) * 50, (1, 2, 3) * 50 + (3, 2, 1) * 50,
                     (3,) * 40 + (1,) * 40 + (2,) * 40):
            assert s.insert_long(s.empty, word) == s.insert_word(s.empty, word), (name, word)


# --- datum validators ----------------------------------------------------------


_ROW = st.lists(st.integers(-1, 5), max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROW, max_size=5).map(lambda rows: tuple(map(tuple, rows))))
def test_the_shape_validators_match_the_oracle(rows):
    assert extra.is_quasi_ribbon(rows) == is_quasi_ribbon(rows)
    for variant in (extra.LPS, extra.RPS):
        assert extra.is_patience_tableau(rows, variant) == is_patience_tableau(rows, variant)


@pytest.mark.parametrize("text", ['{"rows": [[1, true]]}', '{"rows": [[1], 2]}', '{"rows": [[1.0]]}',
                                  '{"rows": [["1"]]}', '{"rows": [[null]]}', '{"rows": [[1, [2]]]}',
                                  '{"rows": {}}', '{"rows": []}', '{"rows": [[]]}', '{"n": 1}',
                                  '[[1]]', '5', '{"rows": [[1, 2], [3]]}'])
def test_json_rows_matches_the_oracle_on_each_kind_of_entry(text):
    assert _parse_outcome(lambda t: registry._json_rows(t, "rows"), text) == \
        _parse_outcome(lambda t: _json_rows(t, "rows"), text)


@settings(max_examples=300, deadline=None)
@given(st.recursive(st.one_of(st.integers(-2, 5), st.booleans(), st.none(), st.text(max_size=2),
                              st.floats(allow_nan=False)),
                    lambda sub: st.one_of(st.lists(sub, max_size=4),
                                          st.dictionaries(st.sampled_from(["rows", "n"]), sub,
                                                          max_size=2)),
                    max_leaves=12))
def test_json_rows_matches_the_oracle(value):
    text = json.dumps(value)
    assert _parse_outcome(lambda t: registry._json_rows(t, "rows"), text) == \
        _parse_outcome(lambda t: _json_rows(t, "rows"), text)


@settings(max_examples=300, deadline=None)
@given(_any_tree(st.integers(-1, 5)))
def test_the_one_pass_tree_parse_is_the_search_check(t):
    tree, ordered, least, greatest = extra.parse_tree_bounds(extra.format_tree(t))
    assert tree == t and ordered == is_search_tree(t)
    labels = tree_read(t)
    if ordered and labels:
        assert (least, greatest) == (min(labels), max(labels))
    else:
        assert (least, greatest) == (None, None)


# --- numerals ------------------------------------------------------------------

# the table's numerals, numerals past it, padded and signed ones, tokens that
# int() reads but parse_ints refuses, tokens that neither reads, and strings
# of all of these characters
_TOKEN = st.one_of(
    st.integers(0, 99).map(str),
    st.integers(100, 10**6).map(str),
    st.integers(0, 300).map(lambda i: f"0{i}"),
    st.integers(-300, 300).map(lambda i: f"{i:+}"),
    st.sampled_from(["007", "-0", "-7", "+7", "1_0", "", "-", "--1", "1-2",
                     "\uff17", "\u0663", "1\u0663", "x"]),
    st.text(alphabet="0129-+_x \uff17\u0663", max_size=4))


@settings(max_examples=500, deadline=None)
@example(["7"])
@example(["99", "100", "07"])
@given(st.lists(_TOKEN, max_size=8))
def test_parse_ints_matches_the_oracle(tokens):
    assert _parse_outcome(sds.parse_ints, tokens) == _parse_outcome(parse_ints, tokens)
