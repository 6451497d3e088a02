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
from dataclasses import dataclass
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


@dataclass
class ReachableSet:
    structure: StringDataStructure
    max_len: int
    data: list[Datum]
    by_read: dict[tuple[int, ...], Datum]
    witness: dict[tuple[int, ...], tuple[int, ...]]

    def __contains__(self, key):
        return key in self.by_read


def reachable_set(structure: StringDataStructure, max_len: int) -> ReachableSet:
    """All data obtainable from words of length <= max_len, keyed by reading."""
    empty = structure.empty
    data = [empty]
    by_read = {structure.read(empty): empty}
    witness = {structure.read(empty): ()}
    frontier: list[tuple[Datum, tuple[int, ...]]] = [(empty, ())]
    append_right = structure.direction == LEFT_TO_RIGHT
    for _ in range(max_len):
        nxt = []
        for d, w in frontier:
            for x in range(1, structure.n + 1):
                d2 = structure.insert_one(d, x)
                key = structure.read(d2)
                if key not in by_read:
                    w2 = w + (x,) if append_right else (x,) + w
                    by_read[key] = d2
                    witness[key] = w2
                    data.append(d2)
                    nxt.append((d2, w2))
        frontier = nxt
    return ReachableSet(structure, max_len, data, by_read, witness)


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
    # walk deduplicating by datum so a reading collision is observable
    seen: dict[Any, Datum] = {structure.empty: ()}
    reads: dict[tuple[int, ...], Datum] = {(): structure.empty}
    frontier = [structure.empty]
    for _ in range(max_len):
        nxt = []
        for d in frontier:
            for x in range(1, structure.n + 1):
                d2 = structure.insert_one(d, x)
                if d2 in seen:
                    continue
                seen[d2] = d2
                key = structure.read(d2)
                if key in reads and reads[key] != d2:
                    return report("axioms", structure.name, params, "fail",
                                  witness={"axiom": "reading_injective", "reading": list(key)})
                reads[key] = d2
                nxt.append(d2)
        frontier = nxt
    for key, d in reads.items():
        if structure.constructor(key) != d:
            return report("axioms", structure.name, params, "fail",
                          witness={"axiom": "constructor_section", "reading": list(key)})
    return report("axioms", structure.name, params, "pass", data_count=len(reads))


def _data_by_weight(structure: StringDataStructure, max_len: int) -> dict[int, list[Datum]]:
    reach = reachable_set(structure, max_len)
    by_weight: dict[int, list[Datum]] = {}
    for key, d in reach.by_read.items():
        by_weight.setdefault(len(key), []).append(d)
    return by_weight


def check_associativity(structure: StringDataStructure, max_len: int) -> dict:
    """Exhaustively compare the two bracketings of the internal product."""
    params = {"n": structure.n, "max_len": max_len}
    by_weight = _data_by_weight(structure, max_len)
    weights = sorted(by_weight)
    for wa, wb, wc in itertools.product(weights, repeat=3):
        if wa + wb + wc > max_len:
            continue
        for a in by_weight[wa]:
            for b in by_weight[wb]:
                ab = structure.star(a, b)
                for c in by_weight[wc]:
                    if structure.star(ab, c) != structure.star(a, structure.star(b, c)):
                        return report("associativity", structure.name, params, "fail",
                                      witness={"a": list(structure.read(a)),
                                               "b": list(structure.read(b)),
                                               "c": list(structure.read(c))})
    return report("associativity", structure.name, params, "pass")


def first_noncommuting(right: StringDataStructure, left: StringDataStructure,
                       max_len: int) -> tuple[dict[tuple[int, ...], Datum], tuple | None]:
    """The data reachable by either insertion within the bound, keyed by reading,
    and the first (reading, x, y), in sorted order, on which inserting x on the
    right and y on the left depends on the order; None if there is none."""
    data: dict[tuple[int, ...], Datum] = {}
    for s in (right, left):
        for key, d in reachable_set(s, max_len).by_read.items():
            data.setdefault(key, d)
    for key in sorted(data):
        d = data[key]
        for x in range(1, right.n + 1):
            rx = right.insert_one(d, x)
            for y in range(1, right.n + 1):
                if left.insert_one(rx, y) != right.insert_one(left.insert_one(d, y), x):
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


def _constructor_fibers(structure: StringDataStructure, max_len: int) -> set[frozenset[Word]]:
    fibers: dict[tuple[int, ...], set[Word]] = {}
    for word in itertools.chain.from_iterable(
            itertools.product(range(1, structure.n + 1), repeat=k) for k in range(max_len + 1)):
        key = structure.read(structure.constructor(word))
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
    data = [reach.by_read[k] for k in sorted(reach.by_read)]
    for block in partition.classes():
        words = sorted(block)
        if len(words) > 1:
            first = words[0]
            w_first = tuple(x + 1 for x in first)
            for other in words[1:]:
                w_other = tuple(x + 1 for x in other)
                for d in data:
                    if structure.insert_word(d, w_first) != structure.insert_word(d, w_other):
                        return report("compatibility", structure.name, params, "fail",
                                      witness={"u": list(w_first), "v": list(w_other),
                                               "datum": list(structure.read(d))})
    for k in range(max_len + 1):
        for word in itertools.product(range(1, structure.n + 1), repeat=k):
            rc = structure.read(structure.constructor(word))
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
