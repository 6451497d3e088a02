"""Registry-wide invariants: every named structure obeys the shared contract."""

import itertools

import pytest

from sdskit.registry import (
    CELLS,
    COMMUTATION_PAIRS,
    DEFAULT_CONGRUENCE,
    PRESENTATION_NAMES,
    PRESENTATIONS,
    PROBE_PAIRS,
    STRUCTURES,
    TERMINATION_ORDERS,
    build_presentation,
    get_structure,
    lookup,
)
from sdskit.rewriting import LEFTMOST, RIGHTMOST, normalize, words_up_to
from sdskit.sds import check_axioms, reachable_set

ALL_NAMES = sorted(STRUCTURES)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_structure_satisfies_the_axioms(name):
    assert check_axioms(get_structure(name, 3), 4)["result"] == "pass"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_star_is_unitary_everywhere(name):
    s = get_structure(name, 3)
    for key, d in reachable_set(s, 4).by_read.items():
        assert s.star(d, s.empty) == d
        assert s.star(s.empty, d) == d


@pytest.mark.parametrize("name", ALL_NAMES)
def test_constructor_preserves_letter_multiset(name):
    s = get_structure(name, 3)
    for word in itertools.product(range(1, 4), repeat=4):
        assert sorted(s.read(s.constructor(word))) == sorted(word)


@pytest.mark.parametrize("name", sorted(COMMUTATION_PAIRS))
def test_registered_pairs_share_carrier(name):
    right_name, left_name = COMMUTATION_PAIRS[name]
    right, left = get_structure(right_name, 2), get_structure(left_name, 2)
    assert right.empty == left.empty
    assert right.read(right.empty) == left.read(left.empty) == ()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_default_congruences_build(name):
    rs = DEFAULT_CONGRUENCE[name](3, 5)
    assert len(rs.alphabet) == 3


@pytest.mark.parametrize("name", ["column", "chinese-completed"])
def test_strategies_agree_on_convergent_presentations(name):
    # leftmost and rightmost normalization reach the same target once the
    # system is confluence-verified
    pres = build_presentation(name, 3)
    k = len(pres.system.alphabet)
    for word in words_up_to(k, 3):
        left = normalize(pres.system, word, LEFTMOST)
        right = normalize(pres.system, word, RIGHTMOST)
        assert left.reached_normal_form and right.reached_normal_form
        assert left.target == right.target


def test_presentation_names_all_build():
    for name in PRESENTATION_NAMES:
        pres = build_presentation(name, 2, 3)
        assert pres.system.alphabet.labels


def test_family_names_resolve_to_their_presentations():
    assert build_presentation("young", 3) == build_presentation("column", 3)
    assert build_presentation("chinese", 3) == build_presentation("chinese-completed", 3)
    assert lookup(TERMINATION_ORDERS, "chinese", "order") is TERMINATION_ORDERS["chinese-completed"]
    assert lookup(CELLS, "young", "cells") is CELLS["column"]
    for table in (COMMUTATION_PAIRS, PROBE_PAIRS, TERMINATION_ORDERS, CELLS, PRESENTATIONS):
        with pytest.raises(KeyError):
            lookup(table, "bogus", "entry")
    with pytest.raises(KeyError):
        get_structure("young", 3)  # families are not structures


def test_presentation_names_follow_the_table():
    assert PRESENTATION_NAMES == tuple(PRESENTATIONS)


def test_tables_resolve_functions_when_called(monkeypatch):
    # a rebound module function (as a tracer installs) must be the one used
    from sdskit import coherence
    monkeypatch.setattr(coherence, "verify_cell_shapes_chinese", lambda n, budget: {"n": n})
    assert CELLS["chinese-completed"].verify_shapes(2, None) == {"n": 2}
