"""Framework-level tests: insertion, products, reachability, and bounded verifiers."""

import dataclasses
import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from sdskit.chinese import (
    chinese_left,
    chinese_right,
    completed_presentation,
    precolumn_presentation,
    qn_generating_set,
)
from sdskit import registry, sds
from sdskit.coherence import strategy_cells
from sdskit.extra import commutation_probe
from sdskit.registry import COMMUTATION_PAIRS, build_presentation, get_structure
from sdskit.rewriting import normalize, words_up_to
from sdskit.sds import (
    FULL,
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
    generating_presentation,
    reachable_set,
    validate_generating_set,
)
from sdskit.young import (
    column_generating_set,
    column_presentation,
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


def test_check_commutation_refuses_two_alphabet_sizes():
    with pytest.raises(ValueError, match="^structures must share the alphabet size$"):
        check_commutation(chinese_right(3), chinese_left(2), 2)


def test_check_commutation_witness_on_broken_pair():
    # pairing the right insertion with itself as a fake left structure fails
    fake_left = StringDataStructure("fake-left", 2, (), young_right(2).insert_one,
                                    read_tableau, "right_to_left")
    report = check_commutation(young_right(2), fake_left, 3)
    assert report["result"] == "fail"
    assert set(report["witness"]) == {"datum", "x", "y"}


@pytest.mark.parametrize("family", ["young", "chinese"])
def test_commutation_inserts_each_datum_and_letter_once(family, monkeypatch):
    # every insertion made from an id is interned, also past the bound, so
    # one verifier call inserts no (structure, datum, letter) twice
    pair = [get_structure(name, 3) for name in COMMUTATION_PAIRS[family]]
    reachable = {d for s in pair for d in reachable_set(s, 4).data}
    calls, rows = [], []

    def counted(structure):
        def insert_one(d, x):
            calls.append((structure.name, d, x))
            return structure.insert_one(d, x)
        return dataclasses.replace(structure, insert_one=insert_one)

    class Recorded(sds.Row):
        def __init__(self, structure, like=None):
            super().__init__(structure, like)
            rows.append(self)

    monkeypatch.setattr(sds, "Row", Recorded)
    right, left = map(counted, pair)
    for run in (lambda: check_commutation(right, left, 4),
                lambda: commutation_probe(right, left, 4)):
        calls.clear()
        assert run()["data_count"] == len(reachable)
        assert calls and len(set(calls)) == len(calls)
    assert [row.structure for row in rows] == [right, left, right, left]
    for r, l in (rows[:2], rows[2:]):
        # the two rows of one call intern into the same data and ids
        assert l.data is r.data and l.ids is r.ids
        # insertions from data of length 4 leave the bound and are interned
        assert reachable < set(r.data) and len(r.ids) == len(r.data)
        assert all(t is None or type(t) is int for row in (r, l) for t in row.delta)


@pytest.mark.parametrize("name", sorted(registry.STRUCTURES))
def test_reachable_set_and_axioms_insert_each_datum_and_letter_once(name):
    # the search steps each id's letters once and the constructor walks
    # read them back from `delta`; only the n single-letter checks, which
    # insert through `iota`, run outside the row
    structure = get_structure(name, 3)
    calls = []

    def insert_one(d, x):
        calls.append((d, x))
        return structure.insert_one(d, x)

    counted = dataclasses.replace(structure, insert_one=insert_one)
    reach = reachable_set(counted, 4)
    assert calls and len(set(calls)) == len(calls)
    assert len(calls) == len(reach.row.delta) - reach.row.delta.count(None)
    calls.clear()
    assert check_axioms(counted, 4)["data_count"] == len(reach.index)
    iotas, walked = calls[:3], calls[3:]
    assert iotas == [(structure.empty, x) for x in (1, 2, 3)]
    assert walked and len(set(walked)) == len(walked)


@pytest.mark.parametrize("make", [column_generating_set, qn_generating_set])
def test_generating_layer_inserts_each_datum_and_letter_once(make):
    # products walk the set's row, which interns every insertion, so the
    # presentation and its strategy cells insert no (datum, letter) twice
    gen = make(4)
    calls = []

    def insert_one(d, x):
        calls.append((d, x))
        return gen.structure.insert_one(d, x)

    counted = dataclasses.replace(
        gen, structure=dataclasses.replace(gen.structure, insert_one=insert_one))
    strategy_cells(generating_presentation(counted))
    assert calls and len(set(calls)) == len(calls)


def test_a_repeated_generator_raises():
    # generator i is id i of the set's row; a repeat would shift the ids
    gen = column_generating_set(2)
    repeated = dataclasses.replace(gen, generators=gen.generators + gen.generators[:1])
    with pytest.raises(ValueError, match="repeats a generator"):
        generating_presentation(repeated)


@pytest.mark.parametrize("make", [column_generating_set, qn_generating_set])
def test_the_validator_leaves_the_sets_row_as_its_presentation_does(make):
    # the validator searches in a row of its own, so the set's row and its
    # memo of words keep only what the induced presentation at the longest
    # reading interned and decomposed
    gen, twin = make(3), make(3)
    report = validate_generating_set(gen, 6)
    generating_presentation(twin, 6)
    assert report["result"] == "pass"
    assert gen.row.data == twin.row.data
    assert gen._words == twin._words


def test_rows_are_freed_without_the_cyclic_collector(monkeypatch):
    # a row caught in a reference cycle, with every datum it interned, would
    # live until the cyclic collector ran and raise the peak memory of a
    # batch of verifier calls
    refs = []

    class Recorded(sds.Row):
        def __init__(self, structure, like=None):
            super().__init__(structure, like)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(sds, "Row", Recorded)
    calls = [lambda: check_axioms(young_right(3), 4),
             lambda: check_commutation(young_right(3), young_left(3), 4),
             lambda: check_compatibility(young_right(3), build_presentation("knuth", 3).system, 4),
             lambda: validate_generating_set(column_generating_set(3), 4),
             lambda: column_presentation(3),
             lambda: strategy_cells(completed_presentation(3)),
             lambda: registry.probe("sylvester", 3, 4)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in calls:
            refs.clear()
            call()
            assert refs and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()


def test_cross_section_young_and_chinese():
    knuth = build_presentation("knuth", 3).system
    chinese = build_presentation("chinese-relations", 3).system
    assert check_cross_section(young_right(3), knuth, 5)["result"] == "pass"
    assert check_cross_section(chinese_right(3), chinese, 5)["result"] == "pass"


def test_cross_section_wrong_congruence_fails():
    report = check_cross_section(young_right(3), build_presentation("knuth-reversed", 3).system, 5)
    assert report["result"] == "fail"


def test_compatibility_matches_cross_section():
    cases = [
        (young_right(3), build_presentation("knuth", 3).system),
        (chinese_right(3), build_presentation("chinese-relations", 3).system),
        (young_right(3), build_presentation("knuth-reversed", 3).system),
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
    pres = generating_presentation(column_generating_set(3))
    for rule in pres.system.rules:
        assert rule.lhs != rule.rhs
        assert len(rule.lhs) == 2 and len(rule.rhs) <= 2


def test_generating_normal_forms_are_canonical_readings():
    # leftmost normalization of any generator word reaches the canonical
    # decomposition of the folded product
    gen = qn_generating_set(3)
    pres = generating_presentation(gen)
    s = gen.structure
    index = {s.read(c): i for i, c in enumerate(gen.generators)}
    for word in words_up_to(len(gen.generators), 3):
        product = s.empty
        for i in word:
            product = s.star(product, gen.generators[i])
        expected = tuple(index[s.read(c)] for c in gen.decompose(product))
        assert normalize(pres.system, word).target == expected


def test_validate_generating_sets():
    assert validate_generating_set(column_generating_set(3), 6)["result"] == "pass"
    rows = row_generating_set(3, 6)
    assert validate_generating_set(rows, 6)["result"] == "pass"
    report = validate_generating_set(qn_generating_set(3), 6)
    assert report["result"] == "pass"
    # a diagonal run of an inner letter factors in more than one valid way;
    # only the canonical factorization is irreducible
    assert report["max_valid_factorizations"] > 1


def test_validate_generating_set_rejects_missing_letters():
    gen = column_generating_set(3)
    pruned = type(gen)(gen.structure, gen.generators[1:], gen.decompose)
    assert validate_generating_set(pruned, 3)["result"] == "fail"


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
    # through the module, since the mutation gate calls this test directly
    s = young_right(3)
    assert sds.datum_label(s, s.empty) == "e"
    assert sds.datum_label(s, ((1,), (3,))) == "c_31"
    assert sds.datum_label(young_right(9), ((1,), (9,))) == "c_91"
    # from rank 10 on, the letters of every label are joined with "-"
    assert sds.datum_label(young_right(10), ((1,), (3,))) == "c_3-1"
    assert sds.datum_label(young_right(11), ((2, 11), (10,))) == "c_10-2-11"
    assert sds.datum_label(young_right(11), ((11,),)) == "c_11"


@pytest.mark.parametrize("gen", [lambda: row_generating_set(12, 3),
                                 lambda: column_generating_set(12),
                                 lambda: qn_generating_set(21)],
                         ids=["row-12-3", "column-12", "qn-21"])
def test_datum_label_names_generators_apart(gen):
    # the row 1 1 and the letter 11, the column 2 1 and the letter 21
    gen = gen()
    labels = [datum_label(gen.structure, c) for c in gen.generators]
    assert len(set(labels)) == len(labels)
    assert gen.alphabet.labels == tuple(labels)


@pytest.mark.parametrize("n", [9, 10, 12, 21])
def test_datum_label_names_words_apart(n):
    # words are their own data, read as they are
    words = StringDataStructure("words", n, (), lambda d, x: d + (x,), lambda d: d)
    labels = {datum_label(words, w) for k in range(4)
              for w in itertools.product(range(1, n + 1), repeat=k)}
    assert len(labels) == sum(n ** k for k in range(4))


@pytest.mark.parametrize("n", [10, 12])
def test_staircase_presentations_share_one_alphabet(n):
    alphabet = precolumn_presentation(n).system.alphabet
    assert alphabet == completed_presentation(n).system.alphabet
    assert "c_10-1" in alphabet.labels


def test_full_srs_builds_past_rank_nine():
    # its data of at most two letters: 12 letters, 78 rows and 66 columns
    pres = build_srs(young_right(12), FULL, bound=2)
    labels = pres.system.alphabet.labels
    assert len(labels) == 12 + 78 + 66
    assert {"c_11", "c_1-1", "c_2-1"} <= set(labels)
