"""Test-only oracle for the one-pass word-space layer.

`congruence_classes` and `_find_factor` below are the bounded congruence
closure as it was when it scanned every word for both sides of every rule,
and `_words`, `_constructor_fibers`, `check_cross_section` (the set
comparison of those fibers with the classes) and `check_compatibility` are
the constructor walks as they were when each word was walked from the empty
datum on its own, all copied verbatim but for the partition, which has one
field now that every congruence keeps length, and the row that each search
is given.  Partitions must agree with `sdskit.rewriting.congruence_classes`
in key order and representatives, and cross-section and compatibility
reports with `sdskit.sds`, on every registered
congruence, on every registered presentation whose rules keep length (the
others are refused) and structure at small bounds, on random systems whose
rules keep length, and on the compatibility oracle's fault structures.
"""

from __future__ import annotations

import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from sdskit import registry, rewriting, sds
from sdskit.registry import build_presentation
from sdskit.rewriting import (
    Alphabet,
    CongruencePartition,
    RewritingSystem,
    Word,
    words_up_to,
)
from sdskit.sds import (
    Row,
    StringDataStructure,
    _letters_to_indices,
    _rules_compatible,
    reachable_set,
    report,
)
from sdskit.young import young_left, young_right
from test_compatibility_oracle import _dropping

# --- the closure and the walks before the one-pass layer, verbatim --------------


def congruence_classes(system: RewritingSystem, max_len: int) -> CongruencePartition:
    """Partition of all words of length <= max_len under the congruence of the rules.

    Both orientations of every rule are used.  The closure is computed over
    words of length up to max_len plus one rule-length gap, so that joins
    through slightly longer internal witnesses are found when rules change
    length; the reported partition is restricted to length <= max_len.
    """
    gap = max((abs(len(r.lhs) - len(r.rhs)) for r in system.rules), default=0)
    work_len = max_len + gap
    words = words_up_to(len(system.alphabet), work_len)
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    sides = [(r.lhs, r.rhs) for r in system.rules] + [(r.rhs, r.lhs) for r in system.rules if r.rhs]
    for word in words:
        i = index[word]
        for lhs, rhs in sides:
            if not lhs:
                continue
            start = 0
            while True:
                p = _find_factor(word, lhs, start)
                if p < 0:
                    break
                other = word[:p] + rhs + word[p + len(lhs):]
                if len(other) <= work_len:
                    union(i, index[other])
                start = p + 1
    rep: dict[Word, Word] = {}
    root_word: dict[int, Word] = {}
    for word in words:  # shortest-first order makes the first-seen root word minimal
        if len(word) > max_len:
            continue
        root = find(index[word])
        if root not in root_word:
            root_word[root] = word
        rep[word] = root_word[root]
    return CongruencePartition(rep)


def _find_factor(word: Word, factor: Word, start: int) -> int:
    for p in range(start, len(word) - len(factor) + 1):
        if word[p:p + len(factor)] == factor:
            return p
    return -1


def _words(n: int, max_len: int):
    return itertools.chain.from_iterable(
        itertools.product(range(1, n + 1), repeat=k) for k in range(max_len + 1))


def _constructor_fibers(structure: StringDataStructure, max_len: int) -> set[frozenset[Word]]:
    row = reachable_set(Row(structure), max_len).row
    empty = row.ids[structure.empty]
    fibers: dict[tuple[int, ...], set[Word]] = {}
    for word in _words(structure.n, max_len):
        key = row.read(row.walk(empty, word))
        fibers.setdefault(key, set()).add(_letters_to_indices(word))
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
    bound.  A partition is checked rule by rule (`_rules_compatible`); the
    walk of every class from every datum runs only when that check fails,
    to find the witness, or when the alphabets differ.
    """
    params = {"n": structure.n, "max_len": max_len}
    partition = congruence_classes(congruence, max_len)
    reach = reachable_set(Row(structure), max_len)
    row = reach.row
    data = [reach.index[k] for k in sorted(reach.index)]
    # the rule-level contexts run over the structure's letters, the classes
    # over the congruence's, so the two checks agree only when those match
    rule_level = len(congruence.alphabet) == structure.n
    if rule_level and _rules_compatible(row, congruence, data, max_len):
        blocks = []
    else:   # a rule-level failure is a class-level one; this loop finds its witness
        blocks = partition.classes()
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
    empty = reach.row.ids[structure.empty]
    for word in _words(structure.n, max_len):
        rc = row.read(row.walk(empty, word))
        iw, irc = _letters_to_indices(word), _letters_to_indices(rc)
        if irc not in partition.representative or \
                partition.representative[iw] != partition.representative[irc]:
            return report("compatibility", structure.name, params, "fail",
                          witness={"word": list(word), "reading": list(rc)})
    return report("compatibility", structure.name, params, "pass")


# --- comparisons ----------------------------------------------------------------


def _same_partition(system: RewritingSystem, max_len: int):
    new, old = rewriting.congruence_classes(system, max_len), congruence_classes(system, max_len)
    # the key order carries the class order of classes() and the witnesses
    assert list(new.representative.items()) == list(old.representative.items())


@pytest.mark.parametrize("name", sorted(registry.STRUCTURES))
def test_registered_congruences_match_the_two_sided_scan(name):
    for n in (1, 2, 3):
        for max_len in range(7):
            _same_partition(registry.STRUCTURES[name].congruence(n, max_len), max_len)


# the generator presentations, whose rules take two generators to the one
# or two factors of their product, so that some rules change length; the
# counting certificate of ROADMAP item 15 is the route to their congruences
GENERATOR_PRESENTATIONS = ("column", "row", "chinese-precolumn", "chinese-completed")


def _label(system: RewritingSystem, word: Word) -> str:
    return ".".join(map(system.alphabet.name, word))


@pytest.mark.parametrize("name", registry.PRESENTATION_NAMES)
def test_registered_presentations_match_the_two_sided_scan(name):
    refused = 0
    for n in (1, 2, 3):
        for max_len in range(6):
            system = registry.build_presentation(name, n, max_len).system
            rule = next((r for r in system.rules if len(r.lhs) != len(r.rhs)), None)
            if rule is None:
                _same_partition(system, max_len)
                continue
            text = f"rule {_label(system, rule.lhs)} -> {_label(system, rule.rhs)} changes length"
            with pytest.raises(ValueError, match=f"^{re.escape(text)};"):
                rewriting.congruence_classes(system, max_len)
            refused += 1
    assert (refused > 0) == (name in GENERATOR_PRESENTATIONS)


@st.composite
def systems(draw):
    """Systems over 2-3 letters whose lhs come from a small pool holding one
    drawn lhs's factors, so that lhs repeat with different rhs and nest;
    each rhs has its lhs's length."""
    size = draw(st.integers(2, 3))
    letters = st.integers(0, size - 1)
    first = tuple(draw(st.lists(letters, min_size=1, max_size=3)))
    pool = sorted({first[i:j] for i in range(len(first)) for j in range(i + 1, len(first) + 1)})
    pool += [tuple(w) for w in draw(st.lists(st.lists(letters, min_size=1, max_size=3),
                                             max_size=2))]
    pair = st.sampled_from(pool).flatmap(lambda lhs: st.tuples(
        st.just(lhs), st.lists(letters, min_size=len(lhs), max_size=len(lhs)).map(tuple)))
    pairs = draw(st.lists(pair, max_size=6))
    pairs = list(dict.fromkeys((l, r) for l, r in pairs if l != r))
    return RewritingSystem.from_pairs(Alphabet(tuple("abc"[:size])), pairs)


@settings(max_examples=300, deadline=None)
@given(systems(), st.integers(0, 3))
def test_random_systems_match_the_two_sided_scan(system, max_len):
    _same_partition(system, max_len)


def test_a_duplicate_lhs_keeps_every_rhs():
    # ab -> ba and ab -> bb: both rewrites of ab join its class
    system = RewritingSystem.from_pairs(Alphabet(("a", "b")),
                                        [((0, 1), (1, 0)), ((0, 1), (1, 1))])
    _same_partition(system, 3)
    partition = rewriting.congruence_classes(system, 2)
    assert partition.representative[(1, 0)] == partition.representative[(1, 1)]


def _same_walks(structure, congruence, max_len):
    assert json.dumps(sds.check_cross_section(structure, congruence, max_len)) == \
        json.dumps(check_cross_section(structure, congruence, max_len))
    assert json.dumps(sds.check_compatibility(structure, congruence, max_len)) == \
        json.dumps(check_compatibility(structure, congruence, max_len))


@pytest.mark.parametrize("name", sorted(registry.STRUCTURES))
def test_registered_structures_match_the_walk_per_word(name):
    for n in (1, 2, 3):
        for max_len in range(6):
            _same_walks(registry.get_structure(name, n),
                        registry.STRUCTURES[name].congruence(n, max_len), max_len)


@pytest.mark.parametrize("base", [young_right, young_left])
@pytest.mark.parametrize("max_len", [4, 5])
def test_fault_structures_match_the_walk_per_word(base, max_len):
    for size in (2 * max_len - 1, 2 * max_len):
        _same_walks(_dropping(base(3), size), build_presentation("knuth", 3).system, max_len)


def test_constructor_walks_follow_the_reading_direction():
    for structure in (young_right(3), young_left(3)):
        row = Row(structure)
        walks = list(sds._constructor_walks(row, 4))
        assert [word for word, _ in walks] == list(map(_letters_to_indices, _words(3, 4)))
        assert all(row.read(s) == row.read(row.walk(row.state(structure.empty),
                                                    tuple(x + 1 for x in word)))
                   for word, s in walks)
