"""Test-only oracles for the rule-level compatibility check.

`check_compatibility` below is the class-level check as it was before the
rule-level test, copied verbatim: it walks every member of every
congruence class from every reachable datum.  Its reports must agree, as
JSON text, with `sdskit.sds.check_compatibility` on every registered
structure at small bounds, and on structures whose fault shows only when a
rule is applied inside a context at the very end of the bound.  The check
takes a congruence that keeps length and is over the structure's n
letters, and refuses any other with a ValueError: the rule-level test
decides, and the class walk runs only to find a failure's witness.

`_rules_compatible` below is the rule-level check as it was before the
trie walk: it walks both sides of every rule from every context state.
Its verdict must agree with `sdskit.sds._rules_compatible` on every
registered congruence, on the same fault structures, and on drawn systems
with shared prefixes, nested and duplicate lhs, and sides of unequal
length.
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
    congruence_classes,
)
from sdskit.sds import (
    LEFT_TO_RIGHT,
    StringDataStructure,
    _letters_to_indices,
    reachable_set,
    report,
)
from sdskit.young import young_left, young_right

# --- the class-level check, verbatim ------------------------------------------


def _words(n: int, max_len: int):
    return itertools.chain.from_iterable(
        itertools.product(range(1, n + 1), repeat=k) for k in range(max_len + 1))


def check_compatibility(structure: StringDataStructure, congruence: RewritingSystem,
                        max_len: int) -> dict:
    """Congruent words insert identically, and read-after-construct is congruent.

    Both halves are checked over all reachable data and words up to the
    bound.
    """
    params = {"n": structure.n, "max_len": max_len}
    partition = congruence_classes(congruence, max_len)
    reach = reachable_set(structure, max_len)
    row = reach.row
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
    empty = reach.row.ids[structure.empty]
    for word in _words(structure.n, max_len):
        rc = row.read(row.walk(empty, word))
        iw, irc = _letters_to_indices(word), _letters_to_indices(rc)
        if irc not in partition.representative or \
                partition.representative[iw] != partition.representative[irc]:
            return report("compatibility", structure.name, params, "fail",
                          witness={"word": list(word), "reading": list(rc)})
    return report("compatibility", structure.name, params, "pass")


# --- the rule-level check before the trie walk, verbatim but for one call -------
# (`row.expand(table, i, x)`, which interned its result, is `row.step(i, x)`
# now that every step interns, so the table argument is gone)


def _rules_compatible(row, congruence: RewritingSystem, data: list[int],
                      max_len: int) -> bool:
    sides = [(tuple(x + 1 for x in rule.lhs), tuple(x + 1 for x in rule.rhs))
             for rule in congruence.rules if len(rule.lhs) <= max_len]
    letters = range(1, row.structure.n + 1)
    levels = [data]         # the states first reached after k letters
    seen = set(data)
    for _ in range(max_len - min((len(lhs) for lhs, _ in sides), default=max_len)):
        level = []
        for i in levels[-1]:
            for x in letters:
                j = row.step(i, x)
                if j not in seen:
                    seen.add(j)
                    level.append(j)
        levels.append(level)
    walk = row.walk
    return all(walk(e, lhs) == walk(e, rhs)
               for lhs, rhs in sides
               for level in levels[:max_len - len(lhs) + 1]
               for e in level)


# --- comparisons ----------------------------------------------------------------


def _same_report(structure, congruence, max_len) -> dict:
    new = sds.check_compatibility(structure, congruence, max_len)
    assert json.dumps(new) == json.dumps(check_compatibility(structure, congruence, max_len))
    return new


@pytest.mark.parametrize("name", sorted(registry.STRUCTURES))
def test_registered_structures_match_the_class_level_check(name):
    for n in (1, 2, 3):
        for max_len in range(6):
            _same_report(registry.get_structure(name, n),
                         registry.STRUCTURES[name].congruence(n, max_len), max_len)


def _dropping(base: StringDataStructure, size: int) -> StringDataStructure:
    """`base`, except that a letter inserted into a datum of `size` letters is lost."""
    def insert_one(d, x):
        return d if len(base.read(d)) == size else base.insert_one(d, x)
    return StringDataStructure(f"{base.name}-drops-at-{size}", base.n, base.empty,
                               insert_one, base.read, base.direction)


@pytest.mark.parametrize("base", [young_right, young_left])
@pytest.mark.parametrize("max_len", [4, 5])
def test_a_fault_inside_the_deepest_context_fails_with_the_class_level_witness(base, max_len):
    # the class-level check walks words of max_len letters from data of
    # max_len letters, so its last insertion goes into a datum of
    # 2 * max_len - 1 letters; the rule-level check reaches it through a
    # context of max_len - 3 letters before a Knuth rule's three
    structure = _dropping(base(3), 2 * max_len - 1)
    result = _same_report(structure, build_presentation("knuth", 3).system, max_len)
    assert result["result"] == "fail"
    witness = result["witness"]
    # a Knuth rule inside a context of max_len - 3 >= 1 letters
    assert len(witness["datum"]) == len(witness["u"]) == max_len
    # one letter later the fault is past the bound on both sides
    knuth = build_presentation("knuth", 3).system
    assert _same_report(_dropping(base(3), 2 * max_len), knuth, max_len)["result"] \
        == "pass"


def test_exact_partitions_that_pass_walk_no_class(monkeypatch):
    def classes(self):
        raise AssertionError("class-level walk on a passing check")

    monkeypatch.setattr(CongruencePartition, "classes", classes)
    for name in sorted(registry.STRUCTURES):
        structure = registry.get_structure(name, 3)
        assert sds.check_compatibility(structure, registry.STRUCTURES[name].congruence(3, 5),
                                       5)["result"] == "pass"


LENGTH_CHANGING = [
    ([((0, 0), (0,))], "1.1 -> 1"),
    ([((0, 1), (1, 0)), ((1, 1), (1,)), ((0,), (0, 0))], "2.2 -> 2"),
]


@pytest.mark.parametrize("pairs,named", LENGTH_CHANGING)
def test_a_rule_that_changes_length_is_refused(pairs, named):
    # the first such rule in rule order is named, by the closure and by
    # both checks that read it; the mutation gate calls this test directly
    congruence = RewritingSystem.from_pairs(Alphabet(("1", "2")), pairs)
    message = f"^rule {re.escape(named)} changes length"
    for max_len in range(5):
        with pytest.raises(ValueError, match=message):
            rewriting.congruence_classes(congruence, max_len)
        for check in (sds.check_cross_section, sds.check_compatibility):
            with pytest.raises(ValueError, match=message):
                check(young_right(2), congruence, max_len)


# (structure n, congruence n)
OTHER_LETTERS = [(3, 2), (2, 3), (1, 3)]


@pytest.mark.parametrize("structure_n,congruence_n", OTHER_LETTERS)
def test_a_congruence_over_other_letters_is_refused(structure_n, congruence_n):
    # the mutation gate calls this test directly
    congruence = build_presentation("knuth", congruence_n).system
    with pytest.raises(ValueError, match=f"^congruence over {congruence_n} letters, but "
                                         f"young-right is over n = {structure_n}$"):
        sds.check_compatibility(young_right(structure_n), congruence, 4)


# --- the trie walk against the walk per rule ------------------------------------


def _same_verdict(structure, congruence, max_len) -> bool:
    """Both rule-level verdicts, each from a row of its own, must agree."""
    verdicts = []
    for rules_compatible in (sds._rules_compatible, _rules_compatible):
        reach = reachable_set(structure, max_len)
        data = [reach.index[k] for k in sorted(reach.index)]
        verdicts.append(rules_compatible(reach.row, congruence, data, max_len))
    assert verdicts[0] == verdicts[1], (structure.name, congruence.rules, max_len)
    return verdicts[0]


@pytest.mark.parametrize("name", sorted(registry.STRUCTURES))
def test_registered_congruences_match_the_walk_per_rule(name):
    for n in (1, 2, 3):
        for max_len in range(7):
            assert _same_verdict(registry.get_structure(name, n),
                                 registry.STRUCTURES[name].congruence(n, max_len), max_len)


@pytest.mark.parametrize("name", ["young-right", "young-left", "sylvester-left", "lps-right",
                                  "rps-right", "hypoplactic-right"])
@pytest.mark.parametrize("max_len", [4, 5])
def test_fault_structures_match_the_walk_per_rule(name, max_len):
    # the fault seen through the deepest context, and one letter past it,
    # where only a rule walked from a level its lhs does not fit would see
    # it (the last four congruences have lhs of several lengths)
    base = registry.get_structure(name, 3)
    congruence = registry.STRUCTURES[name].congruence(3, max_len)
    assert not _same_verdict(_dropping(base, 2 * max_len - 1), congruence, max_len)
    assert _same_verdict(_dropping(base, 2 * max_len), congruence, max_len)


def _support(n: int) -> StringDataStructure:
    """The set of letters inserted: idempotent and commutative, so rules
    that permute or repeat letters hold even when their sides differ in
    length."""
    return StringDataStructure("support", n, (), lambda d, x: tuple(sorted({*d, x})),
                               lambda d: d, LEFT_TO_RIGHT)


@st.composite
def _rule_systems(draw):
    """(structure, system, max_len): a registered structure or `_support`,
    perhaps dropping letters at some size, with some rules of its congruence
    and rules around one stem, so that lhs share prefixes, nest, repeat with
    another rhs and have rhs of another length."""
    n, max_len = draw(st.integers(2, 3)), draw(st.integers(0, 5))
    name = draw(st.sampled_from([*sorted(registry.STRUCTURES), "support"]))
    if name == "support":
        structure, known = _support(n), []
    else:
        structure = registry.get_structure(name, n)
        known = [(r.lhs, r.rhs) for r in registry.STRUCTURES[name].congruence(n, max_len).rules]
    if draw(st.booleans()):
        # 2 * max_len is the first size that no walk within the bound reaches
        size = st.integers(0, 2 * max_len + 1) | st.just(2 * max_len)
        structure = _dropping(structure, draw(size))
    pairs = draw(st.lists(st.sampled_from(known), max_size=8)) if known else []
    letter = st.integers(0, n - 1)
    stem = tuple(draw(st.lists(letter, min_size=1, max_size=4)))
    for _ in range(draw(st.integers(0, 6))):
        lhs = stem[:draw(st.integers(1, len(stem)))] + tuple(draw(st.lists(letter, max_size=2)))
        variants = [tuple(sorted(lhs)), lhs[::-1], lhs[1:], lhs + lhs[-1:], lhs[:1] + lhs]
        for rhs in draw(st.lists(st.sampled_from(variants), min_size=1, max_size=2)):
            pairs.append((lhs, rhs))
    pairs = [p for p in dict.fromkeys(pairs) if p[0] != p[1]]
    alphabet = Alphabet(tuple(str(x) for x in range(1, n + 1)))
    return structure, RewritingSystem.from_pairs(alphabet, pairs), max_len


@settings(max_examples=300, deadline=None)
@given(_rule_systems())
def test_drawn_systems_match_the_walk_per_rule(case):
    _same_verdict(*case)
