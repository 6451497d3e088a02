"""Test-only oracle for the rule-level compatibility check.

`check_compatibility` below is the class-level check as it was before the
rule-level test, copied verbatim: it walks every member of every
congruence class from every reachable datum.  Its reports must agree, as
JSON text, with `sdskit.sds.check_compatibility` on every registered
structure at small bounds, on structures whose fault shows only when a
rule is applied inside a context at the very end of the bound, and on a
congruence whose partition is only a lower bound.
"""

from __future__ import annotations

import itertools
import json

import pytest

from sdskit import registry, sds
from sdskit.rewriting import (
    Alphabet,
    CongruencePartition,
    RewritingSystem,
    congruence_classes,
)
from sdskit.sds import (
    StringDataStructure,
    _letters_to_indices,
    reachable_set,
    report,
)
from sdskit.young import knuth_srs, young_left, young_right

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


# --- comparisons ----------------------------------------------------------------


def _same_report(structure, congruence, max_len) -> dict:
    new = sds.check_compatibility(structure, congruence, max_len)
    assert json.dumps(new) == json.dumps(check_compatibility(structure, congruence, max_len))
    return new


@pytest.mark.parametrize("name", sorted(registry.DEFAULT_CONGRUENCE))
def test_registered_structures_match_the_class_level_check(name):
    for n in (1, 2, 3):
        for max_len in range(6):
            _same_report(registry.get_structure(name, n),
                         registry.DEFAULT_CONGRUENCE[name](n, max_len), max_len)


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
    result = _same_report(structure, knuth_srs(3), max_len)
    assert result["result"] == "fail"
    witness = result["witness"]
    # a Knuth rule inside a context of max_len - 3 >= 1 letters
    assert len(witness["datum"]) == len(witness["u"]) == max_len
    # one letter later the fault is past the bound on both sides
    assert _same_report(_dropping(base(3), 2 * max_len), knuth_srs(3), max_len)["result"] \
        == "pass"


def test_exact_partitions_that_pass_walk_no_class(monkeypatch):
    def classes(self):
        raise AssertionError("class-level walk on a passing exact partition")

    monkeypatch.setattr(CongruencePartition, "classes", classes)
    for name in sorted(registry.DEFAULT_CONGRUENCE):
        structure = registry.get_structure(name, 3)
        assert sds.check_compatibility(structure, registry.DEFAULT_CONGRUENCE[name](3, 5),
                                       5)["result"] == "pass"


def test_a_lower_bound_partition_takes_the_class_level_path(monkeypatch):
    # 1.1 = 1 changes length, so the partition is only a lower bound and the
    # rule-level test does not decide it
    def rules_compatible(*args):
        raise AssertionError("rule-level check on a lower-bound partition")

    monkeypatch.setattr(sds, "_rules_compatible", rules_compatible)
    congruence = RewritingSystem.from_pairs(Alphabet(("1",)), [((0, 0), (0,))])
    assert not congruence_classes(congruence, 3).exact
    for max_len in range(5):
        result = _same_report(young_right(1), congruence, max_len)
    assert result["result"] == "fail"
