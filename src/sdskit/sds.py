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
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from .rewriting import (
    Alphabet,
    RewritingSystem,
    Word,
    congruence_classes,
)

LEFT_TO_RIGHT = "left_to_right"
RIGHT_TO_LEFT = "right_to_left"

Datum = Any


@dataclass(frozen=True)
class StringDataStructure:
    """A data carrier with one-element insertion and a reading back to words.

    `insert_one(d, x)` inserts letter x (in 1..n) into datum d; `read`
    produces the datum's word.  `direction` fixes how `insert_word` orders
    the letters of a word: left-to-right structures fold from the first
    letter, right-to-left structures from the last.
    """

    name: str
    n: int
    empty: Datum
    insert_one: Callable[[Datum, int], Datum]
    read: Callable[[Datum], tuple[int, ...]]
    direction: str = LEFT_TO_RIGHT

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

    def constructor(self, word: tuple[int, ...]) -> Datum:
        return self.insert_word(self.empty, word)

    def iota(self, x: int) -> Datum:
        self._check_letter(x)
        return self.insert_one(self.empty, x)

    def star(self, d: Datum, e: Datum) -> Datum:
        """Internal product: insert the reading of `e` into `d`."""
        return self.insert_word(d, self.read(e))


class Table:
    """Data interned to ids by equality, with one `Row` of memoised
    insertions and readings per structure.

    A verifier builds one table per call and fills it with the breadth-first
    search of `reachable_set`, which interns exactly the data it reaches
    within its bound.  An insertion that leaves those data is computed on each request
    and neither interned nor stored, so the table stays the size of the
    reachable set.  Rows act on states: an id, or the 1-tuple `(datum,)` for
    a datum the table does not hold.  Two states are equal exactly when
    their data are.
    """

    def __init__(self):
        self.data: list[Datum] = []
        self.ids: dict[Datum, int] = {}
        self.rows: dict[int, Row] = {}

    def intern(self, d: Datum) -> int:
        i = self.ids.get(d)
        if i is None:
            i = self.ids[d] = len(self.data)
            self.data.append(d)
            for row in self.rows.values():
                row.grow()
        return i

    def row(self, structure: StringDataStructure) -> Row:
        row = self.rows.get(id(structure))
        if row is None:
            row = self.rows[id(structure)] = Row(self, structure)
        return row


class Row:
    """One structure's insertions and readings over the states of a table."""

    def __init__(self, table: Table, structure: StringDataStructure):
        # the table's lists, not the table: a cycle would keep every table
        # alive until the cyclic collector runs
        self.data, self.ids, self.structure = table.data, table.ids, structure
        self.blank = [None] * structure.n
        self.delta: list = []       # state after letter x from id i, at i * n + x - 1
        self.reads: list = []       # id -> reading
        for _ in table.data:
            self.grow()

    def grow(self):
        self.delta += self.blank
        self.reads.append(None)

    def state(self, d: Datum):
        """The id of datum d, or (d,) if the table does not hold it."""
        i = self.ids.get(d)
        return (d,) if i is None else i

    def step(self, s, x: int):
        """The state after inserting letter x (unchecked) into state s.
        Only a result the table holds is memoised."""
        if type(s) is not int:
            return self.state(self.structure.insert_one(s[0], x))
        k = s * self.structure.n + x - 1
        t = self.delta[k]
        if t is None:
            t = self.state(self.structure.insert_one(self.data[s], x))
            if type(t) is int:
                self.delta[k] = t
        return t

    def expand(self, table: Table, i: int, x: int) -> int:
        """The id after inserting letter x into id i, interning the result."""
        k = i * self.structure.n + x - 1
        j = self.delta[k]
        if j is None:
            j = self.delta[k] = table.intern(self.structure.insert_one(self.data[i], x))
        return j

    def read(self, s) -> tuple[int, ...]:
        if type(s) is not int:
            return self.structure.read(s[0])
        key = self.reads[s]
        if key is None:
            key = self.reads[s] = self.structure.read(self.data[s])
        return key

    def walk(self, s, word: tuple[int, ...]):
        """`insert_word` from state s: each letter checked, in reading order."""
        structure = self.structure
        for x in word if structure.direction == LEFT_TO_RIGHT else reversed(word):
            structure._check_letter(x)
            s = self.step(s, x)
        return s


@dataclass
class ReachableSet:
    """The data a structure reaches from words of length <= max_len, one per
    reading, as ids of `table`."""

    structure: StringDataStructure
    max_len: int
    table: Table
    index: dict[tuple[int, ...], int]       # reading -> id in `table`
    # how each reading after the first was reached, in the order of `index`:
    # position of the reading it extends * n + the letter inserted - 1
    via: array

    @cached_property
    def data(self) -> list[Datum]:
        return [self.table.data[i] for i in self.index.values()]

    @cached_property
    def by_read(self) -> dict[tuple[int, ...], Datum]:
        return {key: self.table.data[i] for key, i in self.index.items()}

    @cached_property
    def witness(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The first word, in breadth-first order, reaching each reading."""
        n, append_right = self.structure.n, self.structure.direction == LEFT_TO_RIGHT
        words: list[tuple[int, ...]] = [()]
        for link in self.via:
            p, x = divmod(link, n)
            words.append(words[p] + (x + 1,) if append_right else (x + 1,) + words[p])
        return dict(zip(self.index, words))

    def __contains__(self, key):
        return key in self.index


def reachable_set(structure: StringDataStructure, max_len: int,
                  table: Table | None = None) -> ReachableSet:
    """All data obtainable from words of length <= max_len, keyed by reading.

    The search interns what it reaches in `table` (a new one if none is
    given), whose row for the structure then holds every insertion made.
    """
    return _search(Table() if table is None else table, structure, max_len)


def _search(table: Table, structure: StringDataStructure, max_len: int) -> ReachableSet:
    # breadth first from the empty datum; every datum met is interned, but
    # only one with a new reading is kept and expanded.  check_axioms and the
    # cross-section fibers, which ran searches of their own before the table,
    # call this directly, so the traced benchmark's counts of reachable_set
    # keep measuring the same calls.
    row, n = table.row(structure), structure.n
    start = table.intern(structure.empty)
    index, via = {row.read(start): start}, array("q")
    frontier = [(start, 0)]             # (id, position in index)
    for _ in range(max_len):
        nxt = []
        for i, p in frontier:
            for x in range(1, n + 1):
                j = row.expand(table, i, x)
                key = row.read(j)
                if key not in index:
                    nxt.append((j, len(index)))
                    index[key] = j
                    via.append(p * n + x - 1)
        frontier = nxt
    return ReachableSet(structure, max_len, table, index, via)


def report(check: str, structure, params: dict, result: str, **extra) -> dict:
    """A verifier's report: check, structure, bounds and verdict, then the
    extra fields in order, leaving out those given as None."""
    rep = {"check": check, "structure": structure, "params": params, "result": result}
    rep.update((key, value) for key, value in extra.items() if value is not None)
    return rep


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
    table = Table()
    index = _search(table, structure, max_len).index
    row, empty = table.row(structure), table.ids[structure.empty]
    # the search interns every datum it meets, so a reading collision is an
    # id that lost its reading to an earlier one
    for i in range(len(table.data)):
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
    row = reach.table.row(structure)
    by_weight: dict[int, list[int]] = {}
    for key, i in reach.index.items():
        by_weight.setdefault(len(key), []).append(i)
    weights = sorted(by_weight)
    for wa, wb, wc in itertools.product(weights, repeat=3):
        if wa + wb + wc > max_len:
            continue
        for a in by_weight[wa]:
            for b in by_weight[wb]:
                ab = row.walk(a, row.read(b))
                for c in by_weight[wc]:
                    rc = row.read(c)
                    if row.walk(ab, rc) != row.walk(a, row.read(row.walk(b, rc))):
                        return report("associativity", structure.name, params, "fail",
                                      witness={"a": list(row.read(a)),
                                               "b": list(row.read(b)),
                                               "c": list(rc)})
    return report("associativity", structure.name, params, "pass")


def first_noncommuting(right: StringDataStructure, left: StringDataStructure,
                       max_len: int) -> tuple[dict[tuple[int, ...], Datum], tuple | None]:
    """The data reachable by either insertion within the bound, keyed by reading,
    and the first (reading, x, y), in sorted order, on which inserting x on the
    right and y on the left depends on the order; None if there is none."""
    table = Table()
    ids: dict[tuple[int, ...], int] = {}
    for s in (right, left):
        for key, i in reachable_set(s, max_len, table).index.items():
            ids.setdefault(key, i)
    data = {key: table.data[i] for key, i in ids.items()}
    r, l = table.row(right), table.row(left)
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
    if right.n != left.n:
        raise ValueError("structures must share the alphabet size")
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


def _words(n: int, max_len: int):
    return itertools.chain.from_iterable(
        itertools.product(range(1, n + 1), repeat=k) for k in range(max_len + 1))


def _constructor_fibers(structure: StringDataStructure, max_len: int) -> set[frozenset[Word]]:
    table = Table()
    _search(table, structure, max_len)
    row, empty = table.row(structure), table.ids[structure.empty]
    fibers: dict[tuple[int, ...], set[Word]] = {}
    for word in _words(structure.n, max_len):
        key = row.read(row.walk(empty, word))
        fibers.setdefault(key, set()).add(_letters_to_indices(word))
    return {frozenset(v) for v in fibers.values()}


def check_cross_section(structure: StringDataStructure, congruence: RewritingSystem,
                        max_len: int) -> dict:
    """Constructor fibers must coincide with the congruence classes."""
    params = {"n": structure.n, "max_len": max_len}
    fibers = _constructor_fibers(structure, max_len)
    partition = congruence_classes(congruence, max_len)
    classes = partition.as_partition()
    if fibers == classes:
        return report("cross-section", structure.name, params, "pass",
                      exact=partition.exact, class_count=len(classes))
    bad = next(iter(fibers.symmetric_difference(classes)))
    return report("cross-section", structure.name, params, "fail",
                  exact=partition.exact,
                  witness={"block": sorted([list(w) for w in bad])[:4]})


def check_compatibility(structure: StringDataStructure, congruence: RewritingSystem,
                        max_len: int) -> dict:
    """Congruent words insert identically, and read-after-construct is congruent.

    Both halves are checked over all reachable data and words up to the
    bound.
    """
    params = {"n": structure.n, "max_len": max_len}
    partition = congruence_classes(congruence, max_len)
    reach = reachable_set(structure, max_len)
    row = reach.table.row(structure)
    data = [reach.index[k] for k in sorted(reach.index)]
    for block in partition.classes():
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
    empty = reach.table.ids[structure.empty]
    for word in _words(structure.n, max_len):
        rc = row.read(row.walk(empty, word))
        iw, irc = _letters_to_indices(word), _letters_to_indices(rc)
        if irc not in partition.representative or \
                partition.representative[iw] != partition.representative[irc]:
            return report("compatibility", structure.name, params, "fail",
                          witness={"word": list(word), "reading": list(rc)})
    return report("compatibility", structure.name, params, "pass")


@dataclass(frozen=True)
class GeneratingSet:
    """A subset of the data that generates everything under the product.

    `decompose` must return the canonical factorization of a datum whose
    adjacent products leave the generating set and whose readings
    concatenate to the datum's reading.
    """

    structure: StringDataStructure
    generators: tuple[Datum, ...]
    decompose: Callable[[Datum], tuple[Datum, ...]]


def datum_label(structure: StringDataStructure, d: Datum) -> str:
    word = structure.read(d)
    if not word:
        return "e"
    if all(x <= 9 for x in word):
        return "c_" + "".join(str(x) for x in word)
    return "c_" + "-".join(str(x) for x in word)


@dataclass(frozen=True)
class Presentation:
    """A rewriting system together with the data its alphabet letters stand for."""

    system: RewritingSystem
    generators: tuple[Datum, ...] | None = None


FULL = "full"
MINIMAL = "minimal"
READINGS = "readings"
GENERATING = "generating"


def build_srs(structure: StringDataStructure, mode: str, *, bound: int | None = None,
              generating: GeneratingSet | None = None) -> Presentation:
    """Build one of the rewriting systems induced by the structure.

    full:       rules d.d' -> [d star d'] over all reachable data
    minimal:    rules d.[x] -> [d star x] only
    readings:   rules R(d)R(d') -> R(d star d') over the letter alphabet
    generating: rules c.c' -> decomposition of c star c' over a generating set
    The first three are bounded truncations of infinite systems; the bound
    is the word length feeding the reachable set.
    """
    if mode == GENERATING:
        if generating is None:
            raise ValueError("generating mode needs a generating set")
        return _build_generating(structure, generating)
    if bound is None:
        raise ValueError(f"{mode} mode needs a bound")
    reach = reachable_set(structure, bound)
    data = [d for d in reach.data if structure.read(d)]  # the unit is not a generator
    keys = {structure.read(d): i for i, d in enumerate(data)}
    labels = tuple(datum_label(structure, d) for d in data)
    alphabet = Alphabet(labels)
    pairs = []
    if mode == FULL:
        for i, d in enumerate(data):
            for j, e in enumerate(data):
                key = structure.read(structure.star(d, e))
                if key in keys:
                    pairs.append(((i, j), (keys[key],)))
    elif mode == MINIMAL:
        for i, d in enumerate(data):
            for x in range(1, structure.n + 1):
                key = structure.read(structure.star(d, structure.iota(x)))
                if key in keys:
                    pairs.append(((i, keys[(x,)]), (keys[key],)))
    elif mode == READINGS:
        letter_alphabet = Alphabet(tuple(str(x) for x in range(1, structure.n + 1)))
        seen = set()
        for d in data:
            for e in data:
                lhs = structure.read(d) + structure.read(e)
                rhs = structure.read(structure.star(d, e))
                if lhs != rhs and (lhs, rhs) not in seen:
                    seen.add((lhs, rhs))
        pairs = sorted((_letters_to_indices(l), _letters_to_indices(r)) for l, r in seen)
        return Presentation(RewritingSystem.from_pairs(letter_alphabet, pairs), None)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Presentation(RewritingSystem.from_pairs(alphabet, pairs), tuple(data))


def _build_generating(structure: StringDataStructure, gen: GeneratingSet,
                      strict: bool = True) -> Presentation:
    index = {structure.read(c): i for i, c in enumerate(gen.generators)}
    labels = tuple(datum_label(structure, c) for c in gen.generators)
    alphabet = Alphabet(labels)
    pairs = []
    for i, c in enumerate(gen.generators):
        for j, e in enumerate(gen.generators):
            product = structure.star(c, e)
            factors = gen.decompose(product)
            if any(structure.read(f) not in index for f in factors):
                if strict:
                    raise ValueError(f"product of generators {i},{j} leaves the set")
                continue  # truncated generating set; skip the out-of-range product
            rhs = tuple(index[structure.read(f)] for f in factors)
            if (i, j) != rhs:
                pairs.append(((i, j), rhs))
    return Presentation(RewritingSystem.from_pairs(alphabet, pairs), tuple(gen.generators))


def validate_generating_set(structure: StringDataStructure, gen: GeneratingSet,
                            max_len: int) -> dict:
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
    params = {"n": structure.n, "max_len": max_len}
    name = structure.name
    gen_reads = {structure.read(c) for c in gen.generators}
    by_read = {structure.read(c): c for c in gen.generators}
    for x in range(1, structure.n + 1):
        if structure.read(structure.iota(x)) not in gen_reads:
            return report("generating-set", name, params, "fail",
                          witness={"condition": "letters", "letter": x})
    induced = _build_generating(structure, gen, strict=False)
    gen_index = {structure.read(c): i for i, c in enumerate(gen.generators)}
    from .rewriting import is_normal_form
    reach = reachable_set(structure, max_len)
    max_valid = 1
    for key in sorted(reach.by_read):
        d = reach.by_read[key]
        dec = gen.decompose(d)
        if not _valid_decomposition(structure, gen_reads, d, dec):
            return report("generating-set", name, params, "fail",
                          witness={"condition": "decomposition", "reading": list(key)})
        factorizations = _valid_factorizations(structure, by_read, d, key, gen_reads)
        max_valid = max(max_valid, len(factorizations))
        normal = [f for f in factorizations
                  if is_normal_form(induced.system,
                                    tuple(gen_index[structure.read(c)] for c in f))]
        if len(normal) != 1 or normal[0] != dec:
            return report("generating-set", name, params, "fail",
                          witness={"condition": "uniqueness", "reading": list(key),
                                   "valid": len(factorizations),
                                   "normal": len(normal)})
    return report("generating-set", name, params, "pass",
                  data_count=len(reach.by_read), max_valid_factorizations=max_valid)


def _valid_decomposition(structure, gen_reads, d, dec) -> bool:
    if any(structure.read(c) not in gen_reads for c in dec):
        return False
    reading = ()
    product = structure.empty
    for c in dec:
        reading += structure.read(c)
        product = structure.star(product, c)
    if reading != structure.read(d) or product != d:
        return False
    for a, b in zip(dec, dec[1:]):
        if structure.read(structure.star(a, b)) in gen_reads:
            return False
    return True


def _valid_factorizations(structure, by_read, d, key, gen_reads) -> list[tuple]:
    # factorizations of the reading over generator readings, filtered by
    # the adjacent-product and total-product conditions
    out = []
    stack: list[tuple[int, tuple]] = [(0, ())]
    while stack:
        pos, factors = stack.pop()
        if pos == len(key):
            dec = tuple(by_read[r] for r in factors)
            if _valid_decomposition(structure, gen_reads, d, dec):
                out.append(dec)
            continue
        for r in by_read:
            if key[pos:pos + len(r)] == r:
                stack.append((pos + len(r), factors + (r,)))
    return out
