"""Test-only oracle for the transition table under the structure verifiers.

The verifiers as they were before the table (a fresh fold of `insert_one`
per word, no memo), copied verbatim with the reachable set they searched,
are compared with the table-backed ones in `sdskit.sds` on every registered
structure, commutation pair and probe pair at small bounds, and on
structures with a broken reading, a broken pair or a mirrored product, so
that every verdict, witness and counter must agree.

The last section checks the row's memoised product (`Row.product`) against
a fold of `star` on the same structures, and generating-set products against
the same fold.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

import pytest

from sdskit import chinese, extra, registry, sds, young
from sdskit.registry import build_presentation
from sdskit.rewriting import RewritingSystem, Word, congruence_classes
from sdskit.sds import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    Datum,
    StringDataStructure,
    _letters_to_indices,
    report,
)
from sdskit.young import read_tableau, young_right, young_right_mirror

# --- the verifiers before the table, verbatim ---------------------------------


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


def _constructor_fibers(structure: StringDataStructure, max_len: int) -> set[frozenset[Word]]:
    fibers: dict[tuple[int, ...], set[Word]] = {}
    for word in itertools.chain.from_iterable(
            itertools.product(range(1, structure.n + 1), repeat=k) for k in range(max_len + 1)):
        key = structure.read(structure.constructor(word))
        fibers.setdefault(key, set()).add(_letters_to_indices(word))
    return {frozenset(v) for v in fibers.values()}


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


# --- comparisons ----------------------------------------------------------------

SMALL = [(n, max_len) for n in (1, 2, 3) for max_len in range(5)]


def _same_reachable_set(structure, max_len):
    new, old = sds.reachable_set(structure, max_len), reachable_set(structure, max_len)
    assert (new.data, new.by_read) == (old.data, old.by_read)


def _same_single_structure_reports(structure, congruence, max_len):
    _same_reachable_set(structure, max_len)
    assert sds.check_axioms(structure, max_len) == check_axioms(structure, max_len)
    assert sds.check_associativity(structure, max_len) == \
        check_associativity(structure, max_len)
    assert sds._constructor_fibers(structure, max_len) == \
        _constructor_fibers(structure, max_len)
    assert sds.check_compatibility(structure, congruence, max_len) == \
        check_compatibility(structure, congruence, max_len)


def _same_commutation(right, left, max_len, monkeypatch):
    assert sds.first_noncommuting(right, left, max_len) == \
        first_noncommuting(right, left, max_len)
    probe = extra.commutation_probe(right, left, max_len)
    with monkeypatch.context() as m:
        m.setattr(extra, "first_noncommuting", first_noncommuting)
        assert probe == extra.commutation_probe(right, left, max_len)
    return probe


@pytest.mark.parametrize("name", sorted(registry.STRUCTURES))
def test_registered_structures_match_the_oracle(name):
    for n, max_len in SMALL:
        _same_single_structure_reports(registry.get_structure(name, n),
                                       registry.STRUCTURES[name].congruence(n, max_len), max_len)


PAIRS = {**{name: (lambda n, r=r, l=l: (registry.get_structure(r, n),
                                        registry.get_structure(l, n)))
            for name, (r, l) in registry.COMMUTATION_PAIRS.items()},
         **{f"probe-{name}": pair for name, pair in registry.PROBE_PAIRS.items()}}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_commutation_and_probe_pairs_match_the_oracle(name, monkeypatch):
    for n, max_len in SMALL:
        right, left = PAIRS[name](n)
        _same_commutation(right, left, max_len, monkeypatch)


def _with_reading(name, read):
    base = young_right(3)
    return StringDataStructure(name, 3, base.empty, base.insert_one, read, base.direction)


FAULTS = {
    # reading loses its last letter: single letters read as the empty word
    "broken-reading": _with_reading("broken", lambda t: read_tableau(t)[:-1]),
    # sorted reading: two tableaux share a reading
    "sorted-reading": _with_reading("sorted", lambda t: tuple(sorted(read_tableau(t)))),
    # reversed reading: injective, but the constructor is no section of it
    "reversed-reading": _with_reading("reversed", lambda t: read_tableau(t)[::-1]),
    # row insertion fed right to left: the product is not associative
    "mirror-star": young_right_mirror(3),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_injected_structures_match_the_oracle(name):
    knuth = build_presentation("knuth", 3).system
    for max_len in range(6):
        _same_single_structure_reports(FAULTS[name], knuth, max_len)


def test_fault_injection_reaches_every_failure_path():
    # the comparisons above only mean something if the faults are seen
    axioms = {name: check_axioms(s, 4)["witness"]["axiom"] for name, s in FAULTS.items()
              if name != "mirror-star"}
    assert axioms == {"broken-reading": "single_letter_reading",
                      "sorted-reading": "reading_injective",
                      "reversed-reading": "constructor_section"}
    assert check_associativity(FAULTS["mirror-star"], 4)["result"] == "fail"
    knuth = build_presentation("knuth", 3).system
    assert check_compatibility(FAULTS["sorted-reading"], knuth, 4)["result"] == "fail"


def test_broken_pairs_match_the_oracle(monkeypatch):
    # the right insertion paired with itself as a fake left structure, and
    # the same for patience sorting: both probes end on a counterexample
    fake_young = StringDataStructure("fake-left", 2, (), young_right(2).insert_one,
                                     read_tableau, RIGHT_TO_LEFT)
    fake_lps = StringDataStructure("fake-left", 2, (), extra.lps_insert,
                                   extra.ps_read, RIGHT_TO_LEFT)
    for right, left in ((young_right(2), fake_young), (extra.lps_right(2), fake_lps)):
        for max_len in range(5):
            probe = _same_commutation(right, left, max_len, monkeypatch)
        assert probe["result"] == "counterexample"


def _left_after_ties(t, x):
    # left quasi-ribbon insertion that puts x after the entries equal to it,
    # not before them: it differs from the real one only when x occurs in t
    i = bisect_right(t, x, key=lambda row: row[-1])
    if i == len(t):
        return t + ((x,),)
    row = t[i]
    j = bisect_right(row, x)
    return t[:i] + ((row[:j],) if j else ()) + ((x,) + row[j:],) + t[i + 1:]


def test_a_pair_failing_only_on_the_diagonal_is_reported(monkeypatch):
    # the pair commutes for every x != y, so only the x = y diagonal of the
    # commutation loop can see the fault
    right = extra.hypoplactic_right(3)
    left = StringDataStructure("ties-after-left", 3, (), _left_after_ties, extra.qr_read,
                               RIGHT_TO_LEFT)
    data, _ = first_noncommuting(right, left, 4)
    assert all(left.insert_one(right.insert_one(d, x), y) ==
               right.insert_one(left.insert_one(d, y), x)
               for d in data.values() for x in range(1, 4) for y in range(1, 4) if x != y)
    witness = {"datum": [], "x": 1, "y": 1}
    result = sds.check_commutation(right, left, 4)
    assert (result["result"], result["witness"]) == ("fail", witness)
    probe = _same_commutation(right, left, 4, monkeypatch)
    assert probe["result"] == "counterexample"
    assert {key: probe["witness"][key] for key in witness} == witness


# --- the product of two ids ----------------------------------------------------


PRODUCT_CASES = {**{f"{name}-{n}": (lambda name=name, n=n: registry.get_structure(name, n))
                    for name in registry.STRUCTURES for n in (1, 2, 3)},
                 **{f"fault-{name}": (lambda s=s: s) for name, s in FAULTS.items()}}


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_row_products_match_the_star_fold(case):
    # every product of two reachable data, each asked for twice so that the
    # second answer comes from the memo, is the fold of `star`
    structure = PRODUCT_CASES[case]()
    for max_len in range(5):
        reach = sds.reachable_set(structure, max_len)
        row, ids = reach.row, list(reach.index.values())
        for _ in range(2):
            for i, j in itertools.product(ids, repeat=2):
                assert row.data[row.product(i, j)] == structure.star(row.data[i], row.data[j])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generating_set_products_match_the_star_fold(n):
    # generator words of length <= 3 over the column, row (rows of length
    # <= 3) and staircase generating sets
    for gen in (young.column_generating_set(n), young.row_generating_set(n, 3),
                chinese.qn_generating_set(n)):
        ids = range(len(gen.generators))
        for length in (1, 2, 3):
            for word in itertools.product(ids, repeat=length):
                d = gen.generators[word[0]]
                for j in word[1:]:
                    d = gen.structure.star(d, gen.generators[j])
                assert gen.product(word) == d


@pytest.mark.parametrize("case", ["young-right-3", "chinese-right-3", "sylvester-left-3",
                                  "fault-mirror-star"])
def test_associativity_walks_each_product_once(case, monkeypatch):
    # b star c is asked for once per a, and a star c once per b; the memo
    # walks each pair of ids once per row
    walked = []

    class Recorded(sds.Row):
        def walk(self, i, word):
            walked.append((self, i, word))
            return super().walk(i, word)

    monkeypatch.setattr(sds, "Row", Recorded)
    structure = PRODUCT_CASES[case]()
    assert sds.check_associativity(structure, 5) == check_associativity(structure, 5)
    assert walked and len(set(walked)) == len(walked)
