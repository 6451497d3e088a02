"""Framework-level tests: insertion, products, reachability, and bounded verifiers."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from sdskit.chinese import (
    chinese_left,
    chinese_relations,
    chinese_right,
    qn_generating_set,
)
from sdskit import sds
from sdskit.extra import commutation_probe
from sdskit.registry import COMMUTATION_PAIRS, get_structure
from sdskit.rewriting import normalize, words_up_to
from sdskit.sds import (
    FULL,
    GENERATING,
    MINIMAL,
    READINGS,
    StringDataStructure,
    build_srs,
    check_associativity,
    check_axioms,
    check_commutation,
    check_compatibility,
    check_cross_section,
    datum_label,
    reachable_set,
    validate_generating_set,
)
from sdskit.young import (
    column_generating_set,
    knuth_srs,
    read_tableau,
    row_generating_set,
    young_left,
    young_right,
    young_right_mirror,
)

letter_words = st.lists(st.integers(1, 3), max_size=5).map(tuple)


def test_insert_word_empty_is_identity():
    s = young_right(3)
    t = s.constructor((2, 1, 3))
    assert s.insert_word(t, ()) == t


def test_insert_word_golden():
    s = young_right(6)
    assert s.insert_word((), (4, 5, 3, 1, 2, 6)) == ((1, 2, 6), (3, 5), (4,))


@given(letter_words, letter_words)
@settings(max_examples=50, deadline=None)
def test_right_insert_word_splits(u, v):
    s = young_right(3)
    assert s.insert_word((), u + v) == s.insert_word(s.insert_word((), u), v)


@given(letter_words, letter_words)
@settings(max_examples=50, deadline=None)
def test_left_insert_word_splits(u, v):
    # for the mirror reading the split goes the other way around
    s = chinese_left(3)
    d = s.constructor((1, 2))
    assert s.insert_word(d, u + v) == s.insert_word(s.insert_word(d, v), u)


def test_insert_word_rejects_out_of_range_letter():
    s = young_right(2)
    with pytest.raises(ValueError):
        s.insert_word((), (3,))


def test_constructor_empty_word():
    assert chinese_right(3).constructor(()) == chinese_right(3).empty


def test_constructor_section_of_reading_chinese():
    s = chinese_right(4)
    reach = reachable_set(s, 5)
    for key, d in reach.by_read.items():
        assert s.constructor(key) == d


def test_constructor_knuth_pairs_agree():
    s = young_right(3)
    for x in range(1, 4):
        for y in range(x, 4):
            for z in range(y + 1, 4):
                assert s.constructor((z, x, y)) == s.constructor((x, z, y))


def test_star_unit_laws():
    for s in (young_right(3), chinese_right(3)):
        d = s.constructor((2, 1, 2))
        assert s.star(d, s.empty) == d
        assert s.star(s.empty, d) == d


def test_star_young_golden():
    # the product from the non-associativity display: row insertion driven
    # by the mirror reading
    m = young_right_mirror(6)
    a = ((1,), (4,), (6,))
    b = ((2,), (3,))
    assert m.star(a, b) == ((1, 2, 3), (4,), (6,))


def test_star_mirror_reading_not_associative():
    m = young_right_mirror(6)
    a, b, c = ((1,), (4,), (6,)), ((2,), (3,)), ((1,),)
    left = m.star(m.star(a, b), c)
    right = m.star(a, m.star(b, c))
    assert left == ((1, 1, 3), (2,), (4,), (6,))
    assert right == ((1, 1, 2, 3), (4,), (6,))
    assert left != right


def test_check_axioms_pass_young_and_chinese():
    assert check_axioms(young_right(3), 6)["result"] == "pass"
    assert check_axioms(chinese_right(3), 6)["result"] == "pass"
    assert check_axioms(young_left(3), 5)["result"] == "pass"
    assert check_axioms(chinese_left(3), 5)["result"] == "pass"


def test_check_axioms_fault_injection():
    # dropping the last letter of the reading breaks the section axiom
    base = young_right(3)
    broken = StringDataStructure("broken", 3, base.empty, base.insert_one,
                                 lambda t: read_tableau(t)[:-1], base.direction)
    report = check_axioms(broken, 3)
    assert report["result"] == "fail"
    assert "witness" in report


def test_check_associativity():
    assert check_associativity(young_right(3), 6)["result"] == "pass"
    assert check_associativity(chinese_right(3), 6)["result"] == "pass"
    report = check_associativity(young_right_mirror(6), 6)
    assert report["result"] == "fail"
    assert report["witness"]


def test_check_commutation_pass_and_trivial():
    assert check_commutation(young_right(4), young_left(4), 4)["result"] == "pass"
    assert check_commutation(chinese_right(4), chinese_left(4), 4)["result"] == "pass"
    assert check_commutation(young_right(1), young_left(1), 3)["result"] == "pass"


def test_check_commutation_witness_on_broken_pair():
    # pairing the right insertion with itself as a fake left structure fails
    fake_left = StringDataStructure("fake-left", 2, (), young_right(2).insert_one,
                                    read_tableau, "right_to_left")
    report = check_commutation(young_right(2), fake_left, 3)
    assert report["result"] == "fail"
    assert set(report["witness"]) == {"datum", "x", "y"}


@pytest.mark.parametrize("family", ["young", "chinese"])
def test_commutation_tables_hold_only_the_reachable_data(family, monkeypatch):
    right, left = (get_structure(name, 3) for name in COMMUTATION_PAIRS[family])
    reachable = {d for s in (right, left) for d in reachable_set(s, 4).data}
    tables = []

    class Recorded(sds.Table):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(sds, "Table", Recorded)
    reports = [check_commutation(right, left, 4), commutation_probe(right, left, 3, 4)]
    assert [r["data_count"] for r in reports] == [len(reachable)] * 2
    assert len(tables) == 2
    for table in tables:
        # insertions from data of length 4 leave the bound: computed and
        # compared, but neither interned nor memoised
        assert set(table.data) == reachable and len(table.ids) == len(reachable)
        assert len(table.rows) == 2
        assert all(t is None or type(t) is int for row in table.rows.values() for t in row.delta)


def test_cross_section_young_and_chinese():
    assert check_cross_section(young_right(3), knuth_srs(3), 5)["result"] == "pass"
    assert check_cross_section(chinese_right(3), chinese_relations(3), 5)["result"] == "pass"


def test_cross_section_wrong_congruence_fails():
    report = check_cross_section(young_right(3), knuth_srs(3, "reversed"), 5)
    assert report["result"] == "fail"


def test_compatibility_matches_cross_section():
    cases = [
        (young_right(3), knuth_srs(3)),
        (chinese_right(3), chinese_relations(3)),
        (young_right(3), knuth_srs(3, "reversed")),
    ]
    for structure, congruence in cases:
        a = check_cross_section(structure, congruence, 4)["result"]
        b = check_compatibility(structure, congruence, 4)["result"]
        assert a == b


def test_build_srs_full_bound_zero_empty():
    assert build_srs(chinese_right(2), FULL, bound=0).system.rules == ()


def test_build_srs_full_rules_reduce_generator_count():
    pres = build_srs(chinese_right(2), FULL, bound=3)
    for rule in pres.system.rules:
        assert len(rule.lhs) == 2 and len(rule.rhs) == 1


def test_build_srs_minimal_is_subset_of_full():
    full = build_srs(chinese_right(2), FULL, bound=3)
    minimal = build_srs(chinese_right(2), MINIMAL, bound=3)
    assert minimal.system.pairs <= full.system.pairs


def test_build_srs_readings_rules_are_congruent_rearrangements():
    pres = build_srs(young_right(2), READINGS, bound=3)
    s = young_right(2)
    for rule in pres.system.rules:
        lhs = tuple(x + 1 for x in rule.lhs)
        rhs = tuple(x + 1 for x in rule.rhs)
        assert s.constructor(lhs) == s.constructor(rhs)
        assert sorted(lhs) == sorted(rhs)


def test_build_srs_generating_no_identity_rules():
    pres = build_srs(young_right(3), GENERATING, generating=column_generating_set(3))
    for rule in pres.system.rules:
        assert rule.lhs != rule.rhs
        assert len(rule.lhs) == 2 and len(rule.rhs) <= 2


def test_generating_normal_forms_are_canonical_readings():
    # leftmost normalization of any generator word reaches the canonical
    # decomposition of the folded product
    gen = qn_generating_set(3)
    pres = build_srs(chinese_right(3), GENERATING, generating=gen)
    s = gen.structure
    index = {s.read(c): i for i, c in enumerate(gen.generators)}
    for word in words_up_to(len(gen.generators), 3):
        product = s.empty
        for i in word:
            product = s.star(product, gen.generators[i])
        expected = tuple(index[s.read(c)] for c in gen.decompose(product))
        assert normalize(pres.system, word).target == expected


def test_validate_generating_sets():
    assert validate_generating_set(young_right(3), column_generating_set(3), 6)["result"] == "pass"
    rows = row_generating_set(3, 6)
    assert validate_generating_set(rows.structure, rows, 6)["result"] == "pass"
    report = validate_generating_set(chinese_right(3), qn_generating_set(3), 6)
    assert report["result"] == "pass"
    # a diagonal run of an inner letter factors in more than one valid way;
    # only the canonical factorization is irreducible
    assert report["max_valid_factorizations"] > 1


def test_validate_generating_set_rejects_missing_letters():
    gen = column_generating_set(3)
    pruned = type(gen)(gen.structure, gen.generators[1:], gen.decompose)
    assert validate_generating_set(young_right(3), pruned, 3)["result"] == "fail"


def test_bistructure_star_exchange_and_shared_constructor():
    pairs = [(young_right(3), young_left(3)), (chinese_right(3), chinese_left(3))]
    for right, left in pairs:
        reach = reachable_set(right, 4)
        data = [reach.by_read[k] for k in sorted(reach.by_read)]
        for d in data[:20]:
            for e in data[:20]:
                assert right.star(d, e) == left.star(e, d)
        for word in itertools.chain.from_iterable(
                itertools.product(range(1, 4), repeat=k) for k in range(5)):
            assert right.constructor(word) == left.constructor(word)


def test_derived_insertion_identities_small():
    for right, left in [(young_right(3), young_left(3)),
                        (chinese_right(3), chinese_left(3))]:
        reach = reachable_set(right, 4)
        for key, d in reach.by_read.items():
            for x in range(1, 4):
                assert right.insert_one(d, x) == \
                    left.insert_word(left.constructor((x,)), key)
                assert left.insert_one(d, x) == \
                    right.insert_word(right.constructor((x,)), key)


def test_datum_label():
    s = young_right(3)
    assert datum_label(s, s.empty) == "e"
    assert datum_label(s, ((1,), (3,))) == "c_31"
