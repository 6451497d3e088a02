"""String data structures: insertion, readings, products, and bounded verifiers.

A structure couples a set of data with a one-element insertion, a reading
map back to words, and a reading direction.  Everything downstream (the
internal product, the induced rewriting systems, the cross-section and
compatibility checks) is derived from those four ingredients, so the
verifiers here work uniformly over tableaux, staircases, trees and the
rest.  All checks are exhaustive over the data reachable from words up to
a stated length bound, and every report embeds that bound.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Sequence

from .rewriting import (
    Alphabet,
    RewritingSystem,
    Word,
    congruence_classes,
    is_normal_form,
)

LEFT_TO_RIGHT = "left_to_right"
RIGHT_TO_LEFT = "right_to_left"

Datum = Any


_INTEGER = re.compile(r"-?[0-9]+")

# the numeral table: the canonical decimal spelling of each int 0-99, which
# every reader of letters looks up before it falls back to int()
NUMERALS = {str(i): i for i in range(100)}


def parse_ints(tokens: Sequence[str]) -> tuple[int, ...]:
    """The integers that ASCII `-?[0-9]+` tokens spell; the first other token
    raises `int()`'s ValueError.  `int()` alone also reads `1_2`, `+3`, padded
    and non-ASCII digits, but of tokens of 0-9 and `-` only, just that form.
    The tokens are read through `NUMERALS`, or all by `int()` if one of
    them (100 and more, padded or signed) is not in it."""
    digits = "".join(tokens).replace("-", "")
    if digits and not (digits.isascii() and digits.isdigit()):
        bad = next(t for t in tokens if not _INTEGER.fullmatch(t))
        raise ValueError(f"invalid literal for int() with base 10: {bad!r:.200}")
    try:
        return tuple(map(NUMERALS.__getitem__, tokens))
    except KeyError:
        return tuple(map(int, tokens))


@dataclass(frozen=True)
class StringDataStructure:
    """A data carrier with one-element insertion and a reading back to words.

    `insert_one(d, x)` inserts letter x (in 1..n) into datum d; `read`
    produces the datum's word.  `direction` fixes how `insert_word` orders
    the letters of a word: left-to-right structures fold from the first
    letter, right-to-left structures from the last.

    `insert_many(d, letters)` is the word kernel, and every registered
    structure has one: given letters already checked and in reading order,
    it returns what folding `insert_one` over them returns, but works on a
    mutable copy of d made once and frozen once.  Most kernels are
    `rows_kernel` of an in-place step; the two staircase kernels are not,
    since their step also keeps a cache of each row's extreme nonzero
    column across the word.  Only `insert_long` calls it;
    `insert_one` stays persistent, since the verifiers insert one letter at
    a time into small shared data, where such a copy costs more than it saves.
    """

    name: str
    n: int
    empty: Datum
    insert_one: Callable[[Datum, int], Datum]
    read: Callable[[Datum], tuple[int, ...]]
    direction: str = LEFT_TO_RIGHT
    insert_many: Callable[[Datum, tuple[int, ...]], Datum] | None = None

    def _check_letter(self, x: int):
        if not 1 <= x <= self.n:
            raise ValueError(f"letter {x} out of range 1..{self.n}")

    def insert_word(self, d: Datum, word: tuple[int, ...]) -> Datum:
        """Fold the one-element insertion over the word in reading order."""
        letters = word if self.direction == LEFT_TO_RIGHT else tuple(reversed(word))
        for x in letters:
            self._check_letter(x)
            d = self.insert_one(d, x)
        return d

    def insert_long(self, d: Datum, word: tuple[int, ...]) -> Datum:
        """`insert_word`, by the word kernel where the structure has one.

        Every letter is checked first, in reading order, so a word with a
        letter out of range raises on the same letter as the fold."""
        if self.insert_many is None:
            return self.insert_word(d, word)
        letters = word if self.direction == LEFT_TO_RIGHT else tuple(reversed(word))
        if letters and not 1 <= min(letters) <= max(letters) <= self.n:
            for x in letters:
                self._check_letter(x)
        return self.insert_many(d, letters)

    def constructor(self, word: tuple[int, ...]) -> Datum:
        return self.insert_word(self.empty, word)

    def iota(self, x: int) -> Datum:
        self._check_letter(x)
        return self.insert_one(self.empty, x)

    def star(self, d: Datum, e: Datum) -> Datum:
        """Internal product: insert the reading of `e` into `d`."""
        return self.insert_word(d, self.read(e))


def rows_kernel(step: Callable[[list[list[int]], int], None]):
    """The word kernel of a structure whose data are tuples of int tuples:
    the rows are copied to lists once, `step(rows, x)` inserts each letter
    in place, and the rows are frozen once.  The staircase kernels
    (`chinese-right`, `chinese-left`) do not use it: their step also takes
    a cache of row extremes that lasts the whole word."""
    def insert_many(d, letters):
        rows = [list(row) for row in d]
        for x in letters:
            step(rows, x)
        return tuple(map(tuple, rows))
    return insert_many


class Row:
    """One structure's insertions and readings over data interned to ids,
    each computed once.

    Two ids are equal exactly when their data are.  Every insertion made
    from an id is interned too, so a row holds what the verifiers walked,
    not only what `reachable_set` reached: each (structure, datum, letter)
    is inserted at most once per row, also past the bound.  A row built
    `like` another shares its data and ids, so the two structures' ids
    agree.  `delta` and `reads` grow to cover the ids only when an id past
    their end is asked for, so interning through one row touches no other.
    `products` memoises the structure's product of two ids, and belongs to
    this row alone.
    """

    def __init__(self, structure: StringDataStructure, like: Row | None = None):
        self.data: list[Datum] = [] if like is None else like.data
        self.ids: dict[Datum, int] = {} if like is None else like.ids
        self.structure, self.n = structure, structure.n
        self.delta: list = []       # id after letter x from id i, at i * n + x - 1
        self.reads: list = []       # id -> reading
        self.products: dict[tuple[int, int], int] = {}     # (i, j) -> id of i star j

    def state(self, d: Datum) -> int:
        """The id of datum d, interning it."""
        new = len(self.data)
        i = self.ids.setdefault(d, new)
        if i == new:
            self.data.append(d)
        return i

    def step(self, i: int, x: int) -> int:
        """The id after inserting letter x (unchecked) into id i."""
        delta, k = self.delta, i * self.n + x - 1
        if k >= len(delta):
            delta += [None] * (len(self.data) * self.n - len(delta))
        j = delta[k]
        if j is None:
            j = delta[k] = self.state(self.structure.insert_one(self.data[i], x))
        return j

    def read(self, i: int) -> tuple[int, ...]:
        reads = self.reads
        if i >= len(reads):
            reads += [None] * (len(self.data) - len(reads))
        key = reads[i]
        if key is None:
            key = reads[i] = self.structure.read(self.data[i])
        return key

    def walk(self, i: int, word: tuple[int, ...]) -> int:
        """`insert_word` from id i: each letter checked, in reading order.
        A letter already in `delta` is read there; `step` runs on a miss."""
        structure, n, delta = self.structure, self.n, self.delta
        for x in word if structure.direction == LEFT_TO_RIGHT else reversed(word):
            if not 1 <= x <= n:
                structure._check_letter(x)
            k = i * n + x - 1
            j = delta[k] if k < len(delta) else None
            i = self.step(i, x) if j is None else j
        return i

    def product(self, i: int, j: int) -> int:
        """The id of data[i] star data[j]: the reading of j walked from i,
        memoised, so the row walks each pair once."""
        products = self.products
        k = products.get((i, j))
        if k is None:
            k = products[i, j] = self.walk(i, self.read(j))
        return k


@dataclass
class ReachableSet:
    """The data a structure reaches from words of length <= max_len, one per
    reading, as ids of `row`."""

    row: Row
    index: dict[tuple[int, ...], int]       # reading -> id in `row`

    @cached_property
    def data(self) -> list[Datum]:
        return [self.row.data[i] for i in self.index.values()]

    @cached_property
    def by_read(self) -> dict[tuple[int, ...], Datum]:
        return {key: self.row.data[i] for key, i in self.index.items()}


def reachable_set(structure: StringDataStructure, max_len: int,
                  like: Row | None = None) -> ReachableSet:
    """All data obtainable from words of length <= max_len, keyed by reading.

    Breadth first from the empty datum, in a new row (built `like` the
    given one); every datum met is interned, but only one with a new
    reading is kept and expanded.
    """
    row, n = Row(structure, like), structure.n
    start = row.state(structure.empty)
    index = {row.read(start): start}
    frontier = [start]
    for _ in range(max_len):
        nxt = []
        for i in frontier:
            for x in range(1, n + 1):
                j = row.step(i, x)
                key = row.read(j)
                if key not in index:
                    nxt.append(j)
                    index[key] = j
        frontier = nxt
    return ReachableSet(row, index)


def report(check: str, structure, params: dict, result: str, **extra) -> dict:
    """A verifier's report: check, structure, bounds and verdict, then the
    extra fields in order, leaving out the structure and the extra fields
    given as None."""
    fields = {"check": check, "structure": structure, "params": params, "result": result,
              **extra}
    return {key: value for key, value in fields.items() if value is not None}


def check_axioms(structure: StringDataStructure, max_len: int) -> dict:
    """Bounded check of the structure axioms.

    Verifies single-letter readings, reading injectivity with the empty
    datum reading to the empty word, and that the constructor is a section
    of the reading on every reachable datum.
    """
    params = {"n": structure.n, "max_len": max_len}
    for x in range(1, structure.n + 1):
        if structure.read(structure.iota(x)) != (x,):
            return report("axioms", structure.name, params, "fail",
                          witness={"axiom": "single_letter_reading", "letter": x})
    if structure.read(structure.empty) != ():
        return report("axioms", structure.name, params, "fail",
                      witness={"axiom": "empty_reading"})
    reach = reachable_set(structure, max_len)
    row, index = reach.row, reach.index
    empty = row.ids[structure.empty]
    # the search interns every datum it meets, so a reading collision is an
    # id that lost its reading to an earlier one
    for i in range(len(row.data)):
        key = row.read(i)
        if index[key] != i:
            return report("axioms", structure.name, params, "fail",
                          witness={"axiom": "reading_injective", "reading": list(key)})
    for key, i in index.items():
        if row.walk(empty, key) != i:
            return report("axioms", structure.name, params, "fail",
                          witness={"axiom": "constructor_section", "reading": list(key)})
    return report("axioms", structure.name, params, "pass", data_count=len(index))


def check_associativity(structure: StringDataStructure, max_len: int) -> dict:
    """Exhaustively compare the two bracketings of the internal product."""
    params = {"n": structure.n, "max_len": max_len}
    reach = reachable_set(structure, max_len)
    row = reach.row
    by_weight: dict[int, list[int]] = {}
    for key, i in reach.index.items():
        by_weight.setdefault(len(key), []).append(i)
    weights = sorted(by_weight)
    for wa, wb, wc in itertools.product(weights, repeat=3):
        if wa + wb + wc > max_len:
            continue
        for a in by_weight[wa]:
            for b in by_weight[wb]:
                ab = row.product(a, b)
                for c in by_weight[wc]:
                    if row.product(ab, c) != row.product(a, row.product(b, c)):
                        return report("associativity", structure.name, params, "fail",
                                      witness={"a": list(row.read(a)),
                                               "b": list(row.read(b)),
                                               "c": list(row.read(c))})
    return report("associativity", structure.name, params, "pass")


def first_noncommuting(right: StringDataStructure, left: StringDataStructure,
                       max_len: int) -> tuple[dict[tuple[int, ...], Datum], tuple | None]:
    """The data reachable by either insertion within the bound, keyed by reading,
    and the first (reading, x, y), in sorted order, on which inserting x on the
    right and y on the left depends on the order; None if there is none."""
    if right.n != left.n:
        raise ValueError("structures must share the alphabet size")
    reach_r = reachable_set(right, max_len)
    reach_l = reachable_set(left, max_len, like=reach_r.row)
    r, l = reach_r.row, reach_l.row
    ids = {**reach_l.index, **reach_r.index}    # a shared reading keeps the right's id
    data = {key: r.data[i] for key, i in ids.items()}
    letters = range(1, right.n + 1)
    for key in sorted(ids):
        i = ids[key]
        rights = [r.step(i, x) for x in letters]
        lefts = [l.step(i, y) for y in letters]
        for x, rx in zip(letters, rights):
            for y, ly in zip(letters, lefts):
                if l.step(rx, y) != r.step(ly, x):
                    return data, (key, x, y)
    return data, None


def check_commutation(right: StringDataStructure, left: StringDataStructure,
                      max_len: int) -> dict:
    """Check that the two one-element insertions commute on reachable data."""
    params = {"n": right.n, "max_len": max_len}
    name = f"{right.name}|{left.name}"
    data, bad = first_noncommuting(right, left, max_len)
    if bad is not None:
        key, x, y = bad
        return report("commutation", name, params, "fail",
                      witness={"datum": list(key), "x": x, "y": y})
    return report("commutation", name, params, "pass", data_count=len(data))


def _letters_to_indices(word: tuple[int, ...]) -> Word:
    return tuple(x - 1 for x in word)


def _constructor_walks(row: Row, max_len: int):
    """(word, state of its constructor) for every word of length <= max_len,
    shortest first and lexicographic within a length, the word as letter
    indices (letter x is x - 1, as in a congruence).  Each state is one step
    from the word a letter shorter: its prefix for a left-to-right structure,
    its suffix for a right-to-left one."""
    structure = row.structure
    n, forward = structure.n, structure.direction == LEFT_TO_RIGHT
    states = [row.state(structure.empty)]
    yield (), states[0]
    for k in range(1, max_len + 1):
        shorter, states, span = states, [], n ** (k - 1)
        for j, word in enumerate(itertools.product(range(n), repeat=k)):
            if forward:
                s = row.step(shorter[j // n], word[-1] + 1)
            else:
                s = row.step(shorter[j % span], word[0] + 1)
            states.append(s)
            yield word, s


def _constructor_fibers(structure: StringDataStructure, max_len: int) -> set[frozenset[Word]]:
    row = Row(structure)
    fibers: dict[tuple[int, ...], set[Word]] = {}
    for word, s in _constructor_walks(row, max_len):
        fibers.setdefault(row.read(s), set()).add(word)
    return {frozenset(v) for v in fibers.values()}


def check_cross_section(structure: StringDataStructure, congruence: RewritingSystem,
                        max_len: int) -> dict:
    """Constructor fibers must coincide with the congruence classes."""
    params = {"n": structure.n, "max_len": max_len}
    classes = set(congruence_classes(congruence, max_len).classes())
    fibers = _constructor_fibers(structure, max_len)
    if fibers == classes:
        return report("cross-section", structure.name, params, "pass",
                      exact=True, class_count=len(classes))
    bad = next(iter(fibers.symmetric_difference(classes)))
    return report("cross-section", structure.name, params, "fail", exact=True,
                  witness={"block": sorted([list(w) for w in bad])[:4]})


def check_compatibility(structure: StringDataStructure, congruence: RewritingSystem,
                        max_len: int) -> dict:
    """Congruent words insert identically, and read-after-construct is congruent.

    Both halves are checked over all reachable data and words up to the
    bound.  The congruence must keep length (`congruence_classes` names a
    rule that does not) and be over the structure's n letters, or a
    ValueError says so.  Rule by rule (`_rules_compatible`) decides the
    first half; the walk of every class from every datum runs only when
    that check fails, to find the witness.
    """
    params = {"n": structure.n, "max_len": max_len}
    partition = congruence_classes(congruence, max_len)
    if len(congruence.alphabet) != structure.n:
        raise ValueError(f"congruence over {len(congruence.alphabet)} letters, but "
                         f"{structure.name} is over n = {structure.n}")
    reach = reachable_set(structure, max_len)
    row = reach.row
    data = [reach.index[k] for k in sorted(reach.index)]
    # a rule-level failure is a class-level one; this loop finds its witness
    blocks = [] if _rules_compatible(row, congruence, data, max_len) else partition.classes()
    for block in blocks:
        words = sorted(block)
        if len(words) > 1:
            w_first = tuple(x + 1 for x in words[0])
            firsts = [row.walk(d, w_first) for d in data]
            for other in words[1:]:
                w_other = tuple(x + 1 for x in other)
                for d, first in zip(data, firsts):
                    if first != row.walk(d, w_other):
                        return report("compatibility", structure.name, params, "fail",
                                      witness={"u": list(w_first), "v": list(w_other),
                                               "datum": list(row.read(d))})
    representative = partition.representative
    for word, s in _constructor_walks(row, max_len):
        rc = row.read(s)
        irc = _letters_to_indices(rc)
        if irc not in representative or representative[word] != representative[irc]:
            return report("compatibility", structure.name, params, "fail",
                          witness={"word": [x + 1 for x in word], "reading": list(rc)})
    return report("compatibility", structure.name, params, "pass")


def _rules_compatible(row: Row, congruence: RewritingSystem, data: list[int],
                      max_len: int) -> bool:
    """Whether every rule lhs -> rhs walks alike, `row.walk(e, lhs) ==
    row.walk(e, rhs)`, from every state e within max_len - |lhs| letters
    of the data.

    For a length-preserving system this is class-level compatibility on the
    words of length <= max_len: their partition is generated by single rule
    applications a.lhs.b ~ a.rhs.b, a walk over a concatenation is a walk of
    walks, and equal states stay equal, so only the context walked first
    counts (a for a right structure, b for a left one).

    The sides of the rules that fit after k context letters form a trie in
    reading order, walked once from each state first reached after k
    letters, so a prefix that several sides share is inserted once; a rule
    holds at a state when its two sides end on one id.  The rules go into
    the trie shortest lhs first, so for every cut c the trie of the rules
    with |lhs| <= c is a prefix of its nodes.
    """
    forward = row.structure.direction == LEFT_TO_RIGHT
    rules = sorted((rule for rule in congruence.rules if len(rule.lhs) <= max_len),
                   key=lambda rule: len(rule.lhs))
    # node t > 0 is letter x past an earlier node u, with edges[t - 1] ==
    # (t, u, x); node 0 is the state walked from
    edges: list[tuple[int, int, int]] = []
    child: dict[tuple[int, int], int] = {}

    def end(word: Word) -> int:
        t = 0
        for x in word if forward else reversed(word):
            x += 1          # a rule's letter indices are letters - 1
            u = child.get((t, x))
            if u is None:
                u = child[t, x] = len(edges) + 1
                edges.append((u, t, x))
            t = u
        return t

    ends, used = [], [0]    # each rule's two end nodes; the edges of the first r rules
    for rule in rules:
        ends.append((end(rule.lhs), end(rule.rhs)))
        used.append(len(edges))
    lengths = [len(rule.lhs) for rule in rules]
    letters = range(1, row.structure.n + 1)
    step = row.step
    levels = [data]         # the states first reached after k letters
    seen = set(data)
    for _ in range(max_len - (lengths[0] if rules else max_len)):
        level = []
        for i in levels[-1]:
            for x in letters:
                j = step(i, x)
                if j not in seen:
                    seen.add(j)
                    level.append(j)
        levels.append(level)
    for k, level in enumerate(levels):
        r = bisect_right(lengths, max_len - k)
        walk, pairs, nodes = edges[:used[r]], ends[:r], [0] * (used[r] + 1)
        for e in level:
            nodes[0] = e
            for t, u, x in walk:
                nodes[t] = step(nodes[u], x)
            if any(nodes[a] != nodes[b] for a, b in pairs):
                return False
    return True


@dataclass(frozen=True)
class GeneratingSet:
    """A subset of the data that generates everything under the product.

    `decompose` must return the canonical factorization of a datum whose
    adjacent products leave the generating set and whose readings
    concatenate to the datum's reading.  Generator i is id i of the set's
    `row`, and of the validator's own row, which interns the generators in
    the same order; words over the generators are tuples of those ids,
    `index` maps readings to them, and `word`/`product` translate between
    data and such words.
    """

    structure: StringDataStructure
    generators: tuple[Datum, ...]
    decompose: Callable[[Datum], tuple[Datum, ...]]

    @cached_property
    def row(self) -> Row:
        """The generators interned in order; a repeated one would shift the
        ids, so it raises."""
        row = Row(self.structure)
        if len({row.state(c) for c in self.generators}) < len(self.generators):
            raise ValueError("a generating set repeats a generator")
        return row

    @cached_property
    def alphabet(self) -> Alphabet:
        """The generators named by `datum_label`, in order."""
        return Alphabet(tuple(datum_label(self.structure, c) for c in self.generators))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Reading -> generator id."""
        read = self.row.read
        return {read(i): i for i in range(len(self.generators))}

    @cached_property
    def _words(self) -> dict[Datum, tuple[int, ...] | None]:
        """Datum -> `word` of it, for the data asked for so far."""
        return {}

    def word(self, d: Datum) -> tuple[int, ...] | None:
        """The generator ids of d's canonical factorization; None if a factor
        is not a generator.  Each datum is decomposed once."""
        words = self._words
        if d not in words:
            index, row = self.index, self.row
            word = tuple(index.get(row.read(row.state(f))) for f in self.decompose(d))
            words[d] = None if None in word else word
        return words[d]

    def product(self, word: tuple[int, ...]) -> Datum:
        """The product of a nonempty generator word, walked in the set's row."""
        row, i = self.row, word[0]
        for j in word[1:]:
            i = row.product(i, j)
        return row.data[i]


def datum_label(structure: StringDataStructure, d: Datum) -> str:
    """The name of d as a presentation letter: "c_" and its reading, whose
    letters are concatenated up to rank 9 and joined with "-" from rank 10
    on, so distinct readings get distinct names at every rank; "e" for the
    empty reading."""
    word = structure.read(d)
    if not word:
        return "e"
    return "c_" + ("" if structure.n <= 9 else "-").join(map(str, word))


@dataclass(frozen=True)
class Presentation:
    """A rewriting system together with the data its alphabet letters stand for.

    `generating` is the generating set whose generators the letters stand
    for, letter i for generator i; None for a presentation over plain
    letters.  It takes no part in equality: two builds of one presentation
    hold distinct generating sets, whose `decompose` closures never compare
    equal, and must still be equal presentations.
    """

    system: RewritingSystem
    generating: GeneratingSet | None = field(default=None, compare=False)


FULL = "full"
MINIMAL = "minimal"
READINGS = "readings"


def build_srs(structure: StringDataStructure, mode: str, *, bound: int) -> Presentation:
    """Build one of the rewriting systems induced by the structure's data.

    full:       rules d.d' -> [d star d'] over all reachable data
    minimal:    rules d.[x] -> [d star x] only
    readings:   rules R(d)R(d') -> R(d star d') over the letter alphabet
    All three are bounded truncations of infinite systems; the bound is the
    word length feeding the reachable set.  The non-unit reachable data
    generate themselves, so full is their generating presentation, minimal
    keeps its rules whose right factor is a letter, and readings reads every
    product of two of them in their set's row, also past the bound.
    """
    if mode not in (FULL, MINIMAL, READINGS):
        raise ValueError(f"unknown mode {mode!r}")
    reach = reachable_set(structure, bound)
    data = tuple(reach.row.data[i] for key, i in reach.index.items() if key)
    gen = GeneratingSet(structure, data, lambda d: (d,))
    row = gen.row
    if mode == READINGS:
        words = [row.read(i) for i in range(len(data))]
        seen = {(u + v, row.read(row.product(i, j)))
                for i, u in enumerate(words) for j, v in enumerate(words)}
        pairs = sorted((_letters_to_indices(l), _letters_to_indices(r))
                       for l, r in seen if l != r)
        return Presentation(RewritingSystem.from_pairs(Alphabet.letters(structure.n), pairs))
    full = generating_presentation(gen, bound)
    if mode == FULL:
        return full
    system = full.system
    pairs = [(r.lhs, r.rhs) for r in system.rules if len(row.read(r.lhs[1])) == 1]
    return Presentation(RewritingSystem.from_pairs(system.alphabet, pairs), full.generating)


def generating_presentation(gen: GeneratingSet, bound: int | None = None) -> Presentation:
    """Rules c.c' -> decomposition of c star c' over the generating set.

    Complete without a bound, where a product that leaves the set raises;
    with one, it keeps the pairs whose readings have at most `bound` letters
    in all and skips the products that leave the set.
    """
    read = gen.row.read
    sizes = [len(read(i)) for i in range(len(gen.generators))]
    pairs = []
    for i, a in enumerate(sizes):
        for j, b in enumerate(sizes):
            if bound is not None and a + b > bound:
                continue
            rhs = gen.word(gen.product((i, j)))
            if rhs is None:
                if bound is None:
                    raise ValueError(f"product of generators {i},{j} leaves the set")
                continue
            if (i, j) != rhs:
                pairs.append(((i, j), rhs))
    return Presentation(RewritingSystem.from_pairs(gen.alphabet, pairs), gen)


def validate_generating_set(gen: GeneratingSet, max_len: int) -> dict:
    """Bounded check of the generating-set conditions.

    Single letters must be generators, and every reachable datum must
    decompose with adjacent products outside the set and concatenating
    readings.  Uniqueness is checked by enumerating all factorizations of
    the datum's reading over the generators' readings that satisfy those
    conditions: exactly one of them may be irreducible in the induced
    rewriting system, and it must be the canonical one.  The raw count of
    valid factorizations is reported as well; it can exceed one (two
    generators sharing a letter run can swap), which is why irreducibility
    picks the canonical representative.
    """
    structure = gen.structure
    params = {"n": structure.n, "max_len": max_len}
    name = structure.name
    index = gen.index
    for x in range(1, structure.n + 1):
        if structure.read(structure.iota(x)) not in index:
            return report("generating-set", name, params, "fail",
                          witness={"condition": "letters", "letter": x})
    # a twin set: generator i is id i in its row too, and the set's row and
    # memo of words stay as they were, with no reachable datum kept in them
    twin = replace(gen)
    reach = reachable_set(structure, max_len, like=twin.row)
    # a rule longer than every reading matches no factorization checked here
    induced = generating_presentation(gen, max(map(len, reach.index))).system
    row = reach.row
    read, empty = row.read, row.ids[structure.empty]

    def valid(word: tuple[int, ...], d: int) -> bool:
        # the generators multiply to datum d, and no adjacent two multiply to a generator
        s = empty
        for i in word:
            s = row.product(s, i)
        return s == d and all(read(row.product(a, b)) not in index
                              for a, b in zip(word, word[1:]))

    max_valid = 1
    for key in sorted(reach.index):
        d = reach.index[key]
        dec = twin.word(row.data[d])
        if dec is None or sum(map(read, dec), ()) != key or not valid(dec, d):
            return report("generating-set", name, params, "fail",
                          witness={"condition": "decomposition", "reading": list(key)})
        factorizations = [w for w in _factorizations(key, index) if valid(w, d)]
        max_valid = max(max_valid, len(factorizations))
        normal = [w for w in factorizations if is_normal_form(induced, w)]
        if len(normal) != 1 or normal[0] != dec:
            return report("generating-set", name, params, "fail",
                          witness={"condition": "uniqueness", "reading": list(key),
                                   "valid": len(factorizations),
                                   "normal": len(normal)})
    return report("generating-set", name, params, "pass",
                  data_count=len(reach.index), max_valid_factorizations=max_valid)


def _factorizations(key: tuple[int, ...], index: dict) -> list[tuple[int, ...]]:
    """Every cut of the reading `key` into generator readings, as generator ids."""
    out = []
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        pos, word = stack.pop()
        if pos == len(key):
            out.append(word)
            continue
        for r, i in index.items():
            if key[pos:pos + len(r)] == r:
                stack.append((pos + len(r), word + (i,)))
    return out
