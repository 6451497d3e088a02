"""Registry-wide invariants: every named structure obeys the shared contract."""

import itertools
import sys

import pytest

from sdskit.registry import (
    CELLS,
    COMMUTATION_PAIRS,
    LETTER_FAMILIES,
    PRESENTATION_NAMES,
    PRESENTATIONS,
    PROBE_PAIRS,
    STRUCTURES,
    TERMINATION_ORDERS,
    build_presentation,
    get_structure,
    lookup,
    presentation_rules,
)
from sdskit.rewriting import LEFTMOST, RIGHTMOST, normalize, words_up_to
from sdskit.sds import check_axioms, reachable_set
import test_family_oracle as family

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


@pytest.mark.parametrize("name", ALL_NAMES)
def test_datum_text_round_trip(name):
    # the text of every datum reached within 5 letters, the empty one first,
    # parses back to that datum and is written again unchanged
    entry = STRUCTURES[name]
    for n in range(1, 5):
        structure = entry.factory(n)
        for d in [structure.empty, *reachable_set(structure, 5).data]:
            text = entry.format_datum(d)
            parsed = entry.parse_datum(text, n)
            assert parsed == d, (n, text)
            assert entry.format_datum(parsed) == text


@pytest.mark.parametrize("name,text", [
    ("lps-right", '{"columns_bottom_up": [[1], [1, 2, 4], [2, 3], [4]]}'),
    ("rps-right", '{"columns_bottom_up": [[1, 1], [2, 2, 4], [3], [4]]}'),
])
def test_patience_text_writes_each_column_bottom_up(name, text):
    # the patience tableaux of 1 4 2 3 2 4 1; a column written top down
    # fails to parse back rather than fails the round trip's assertion, so
    # the mutation gate calls this test directly
    entry = STRUCTURES[name]
    assert entry.format_datum(entry.factory(4).constructor((1, 4, 2, 3, 2, 4, 1))) == text


@pytest.mark.parametrize("name", ALL_NAMES)
def test_insertion_and_reading_are_functions_their_module_names(name):
    # a structure takes its family's (datum, letter) insertion and its
    # reading as they are, not through an adapter
    s = get_structure(name, 3)
    for fn in (s.insert_one, s.read):
        assert fn.__name__ != "<lambda>", (name, fn)
        assert fn in vars(sys.modules[fn.__module__]).values(), (name, fn)


@pytest.mark.parametrize("name", sorted(COMMUTATION_PAIRS))
def test_registered_pairs_share_carrier(name):
    right_name, left_name = COMMUTATION_PAIRS[name]
    right, left = get_structure(right_name, 2), get_structure(left_name, 2)
    assert right.empty == left.empty
    assert right.read(right.empty) == left.read(left.empty) == ()


# each structure's congruence at the word-length bound L, as the verbatim
# family builders make it: the bounded families shrink their bound with L
CONGRUENCE_ORACLES = {
    "young-right": lambda n, L: family.knuth_srs(n),
    "young-left": lambda n, L: family.knuth_srs(n),
    "chinese-right": lambda n, L: family.chinese_relations(n),
    "chinese-left": lambda n, L: family.chinese_relations(n),
    "hypoplactic-right": lambda n, L: family.hypoplactic_srs(n),
    "hypoplactic-left": lambda n, L: family.hypoplactic_srs(n),
    "sylvester-left": lambda n, L: family.sylvester_srs(n, max(0, L - 3)),
    "lps-right": lambda n, L: family.lps_srs(n, max(1, L - 2)),
    "rps-right": lambda n, L: family.rps_srs(n, max(1, L - 2)),
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_default_congruences_build(name):
    assert set(CONGRUENCE_ORACLES) == set(STRUCTURES)
    for n in range(1, 5):
        for L in range(8):
            assert STRUCTURES[name].congruence(n, L) == CONGRUENCE_ORACLES[name](n, L), (n, L)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_default_congruences_keep_length_over_their_n_letters(name):
    # the premise of `check cross-section` and `check compatibility`, which
    # refuse a congruence with a rule that changes length or over other letters
    for n in range(1, 6):
        for L in range(1, 8):
            system = STRUCTURES[name].congruence(n, L)
            assert len(system.alphabet) == n, (n, L)
            assert all(len(rule.lhs) == len(rule.rhs) for rule in system.rules), (n, L)


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


@pytest.mark.parametrize("name", sorted(TERMINATION_ORDERS))
def test_termination_orders_are_strict_orders(name):
    # a termination proof by length-lex needs a strict order on the letters
    for n in range(1, 7):
        pres = build_presentation(name, n)
        less = TERMINATION_ORDERS[name](pres)
        letters = range(len(pres.system.alphabet))
        above = [{b for b in letters if less(a, b)} for a in letters]
        for a in letters:
            assert a not in above[a]
            for b in above[a]:
                assert above[b] <= above[a], (n, a, b)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cells_presentations_carry_their_generating_set(name):
    # strategy cells read the generating set off the presentation
    for n in (1, 2, 3, 4):
        assert build_presentation(name, n).generating is not None


def test_presentation_names_follow_the_table():
    assert PRESENTATION_NAMES == tuple(PRESENTATIONS)


@pytest.mark.parametrize("name", PRESENTATION_NAMES)
def test_presentation_rules_read_twice_are_the_built_system_s(name):
    for n, max_len in [(1, 2), (3, 2), (3, None)]:
        rules = presentation_rules(name, n, max_len)
        system = build_presentation(name, n, max_len).system
        assert rules.alphabet == system.alphabet
        assert list(rules) == list(rules) == [(r.lhs, r.rhs) for r in system.rules]


def test_letter_presentations_read_their_family_when_called(monkeypatch):
    # each letter family is registered once, in LETTER_FAMILIES, whose
    # entries look up the module's generator when called
    from sdskit import extra
    assert set(LETTER_FAMILIES) < set(PRESENTATIONS)
    monkeypatch.setattr(extra, "sylvester_pairs", lambda n, max_w: iter([((1, 0), (0, 1))]))
    assert build_presentation("sylvester", 2, 3).system.pairs == {((1, 0), (0, 1))}
    assert list(presentation_rules("sylvester", 2, 3)) == [((1, 0), (0, 1))]


def test_tables_resolve_functions_when_called(monkeypatch):
    # a rebound module function (as a tracer installs) must be the one used
    from sdskit import coherence
    monkeypatch.setattr(coherence, "verify_cell_shapes_chinese", lambda n, budget: {"n": n})
    assert CELLS["chinese-completed"](2, None) == {"n": 2}
