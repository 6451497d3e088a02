"""Quasi-ribbon, search-tree, and patience-sorting structures with their probes."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from sdskit.extra import (
    commutation_probe,
    derived_right_insertion,
    format_tree,
    hypoplactic_left,
    hypoplactic_left_insert,
    hypoplactic_right,
    hypoplactic_right_insert,
    is_patience_tableau,
    is_quasi_ribbon,
    is_search_tree,
    lps_insert,
    lps_right,
    parse_tree,
    ps_read,
    qr_offsets,
    qr_read,
    rps_insert,
    rps_right,
    sylvester_insert,
    sylvester_left,
    tree_read,
)
from sdskit.registry import build_presentation
from sdskit.rewriting import congruence_classes
from sdskit.sds import check_axioms, check_cross_section
from sdskit.young import knuth_pairs, young_left, young_right


def test_hypoplactic_right_golden():
    s = hypoplactic_right(5)
    t = s.constructor((1, 4, 2, 2, 1, 5))
    assert t == ((1, 1), (2, 2), (4, 5))
    assert qr_offsets(t) == (0, 1, 2)


def test_hypoplactic_left_reaches_same_tableau():
    left = hypoplactic_left(5)
    right = hypoplactic_right(5)
    word = (1, 4, 2, 2, 1, 5)
    assert left.constructor(word) == right.constructor(word)


@pytest.mark.parametrize("insert, what", [
    (lambda: next(knuth_pairs(2, "mirror")), "variant 'mirror'"),
])
def test_an_unknown_side_or_variant_is_refused(insert, what):
    with pytest.raises(ValueError, match=f"^unknown {what}$"):
        insert()


def test_hypoplactic_single_box():
    assert hypoplactic_right_insert((), 4) == ((4,),)
    assert hypoplactic_left_insert((), 4) == ((4,),)


def test_qr_reading_golden():
    t = ((1, 1, 5), (6, 6, 6), (7,), (8, 8, 9))
    assert is_quasi_ribbon(t)
    assert qr_read(t) == (1, 1, 6, 5, 6, 8, 7, 6, 8, 9)


@given(st.lists(st.integers(1, 4), max_size=7))
@settings(max_examples=80, deadline=None)
def test_hypoplactic_insertions_preserve_invariants(word):
    t = u = ()
    for x in word:
        t = hypoplactic_right_insert(t, x)
        u = hypoplactic_left_insert(u, x)
        assert is_quasi_ribbon(t) and is_quasi_ribbon(u)
    assert sorted(qr_read(t)) == sorted(word)
    assert sum(len(r) for r in t) == len(word)


def test_hypoplactic_cross_section():
    hypoplactic = build_presentation("hypoplactic", 3).system
    report = check_cross_section(hypoplactic_right(3), hypoplactic, 5)
    assert report["result"] == "pass"


def test_hypoplactic_srs_families():
    # at rank 2 the first quartic family has one instance, the second none
    quartic = (build_presentation("hypoplactic", 2).system.pairs
               - build_presentation("knuth", 2).system.pairs)
    assert quartic == {((1, 0, 1, 0), (0, 1, 0, 1))}


def test_sylvester_golden_tree():
    s = sylvester_left(8)
    t = s.constructor((8, 7, 4, 7, 6))
    assert t == (6, (4, None, None), (7, (7, None, None), (8, None, None)))
    assert is_search_tree(t)


def test_sylvester_round_trip():
    s = sylvester_left(3)
    from sdskit.sds import reachable_set
    for key, t in reachable_set(s, 5).by_read.items():
        assert s.constructor(tree_read(t)) == t


def test_sylvester_insert_duplicates_go_left():
    t = sylvester_insert(None, 5)
    t = sylvester_insert(t, 5)
    assert t == (5, (5, None, None), None)


def test_sylvester_cross_section():
    sylvester = build_presentation("sylvester", 3, 2).system
    report = check_cross_section(sylvester_left(3), sylvester, 5)
    assert report["result"] == "pass"


def _sylvester_pairs(n, max_w):
    # the family as a list, built by the same nested loops in the same
    # order: the reference for the streamed sylvester family
    pairs = []
    for wlen in range(max_w + 1):
        for w in itertools.product(range(n), repeat=wlen):
            for x in range(1, n + 1):
                for y in range(x, n + 1):
                    for z in range(y + 1, n + 1):
                        pairs.append(((z - 1, x - 1) + w + (y - 1,),
                                      (x - 1, z - 1) + w + (y - 1,)))
    return pairs


@pytest.mark.parametrize("max_w", range(4))
@pytest.mark.parametrize("n", range(1, 5))
def test_sylvester_srs_matches_the_list_oracle(n, max_w):
    rules = build_presentation("sylvester", n, max_w).system.rules
    assert len(rules) == comb(n + 1, 3) * sum(n**k for k in range(max_w + 1))
    assert [(r.lhs, r.rhs) for r in rules] == _sylvester_pairs(n, max_w)


def test_sylvester_srs_zero_inner_word_is_knuth_xi():
    rs = build_presentation("sylvester", 3, 0).system
    knuth = build_presentation("knuth", 3).system
    xi = {(l, r) for l, r in knuth.pairs if len(l) == 3 and l[0] > l[1]
          and (l[1] < l[2] or l[1] == l[2]) and (l, r)[1][0] == l[1]}
    # zxy -> xzy with x <= y < z: compare against the directly filtered family
    expected = set()
    for x in range(1, 4):
        for y in range(x, 4):
            for z in range(y + 1, 4):
                expected.add(((z - 1, x - 1, y - 1), (x - 1, z - 1, y - 1)))
    assert rs.pairs == expected


def test_patience_goldens():
    lps = lps_right(4)
    assert lps.constructor((1, 4, 2, 3, 2, 4, 1)) == ((1,), (1, 2, 4), (2, 3), (4,))
    rps = rps_right(4)
    assert rps.constructor((1, 4, 2, 3, 2, 4, 1)) == ((1, 1), (2, 2, 4), (3,), (4,))
    assert lps_insert((), 2) == ((2,),)


def test_ps_reading_goldens():
    assert ps_read(((1,), (1, 2, 4), (2, 3), (4,))) == (1, 4, 2, 1, 3, 2, 4)
    assert ps_read(((1, 2, 4), (2, 2), (4, 4), (5,))) == (4, 2, 1, 2, 2, 4, 4, 5)


@given(st.lists(st.integers(1, 4), max_size=7))
@settings(max_examples=80, deadline=None)
def test_patience_insertions_preserve_invariants(word):
    t = u = ()
    for x in word:
        t = lps_insert(t, x)
        u = rps_insert(u, x)
        assert is_patience_tableau(t, "lps")
        assert is_patience_tableau(u, "rps")
    assert sorted(ps_read(t)) == sorted(word)
    assert sum(len(c) for c in t) == len(word)


def test_ps_srs_instances():
    # rank 2, one inner letter: x < y <= x1 forces 221 -> 212, while
    # x <= y < x1 forces 121 -> 112
    assert build_presentation("lps", 2, 1).system.pairs == {((1, 1, 0), (1, 0, 1))}
    assert build_presentation("rps", 2, 1).system.pairs == {((0, 1, 0), (0, 0, 1))}
    # rank 3, inner chains of length two
    expected = set()
    for x in range(1, 4):
        for y in range(x + 1, 4):
            for x1 in range(y, 4):
                for x2 in range(x1 + 1, 4):
                    expected.add(((y - 1, x2 - 1, x1 - 1, x - 1),
                                  (y - 1, x - 1, x2 - 1, x1 - 1)))
    two_inner = {(l, r) for l, r in build_presentation("lps", 3, 2).system.pairs if len(l) == 4}
    assert two_inner == expected


def test_extra_axioms():
    for s in (hypoplactic_right(3), hypoplactic_left(3), sylvester_left(3),
              lps_right(3), rps_right(3)):
        assert check_axioms(s, 5)["result"] == "pass"


def test_constructor_fibers_refine_congruence_classes():
    cases = [
        (hypoplactic_right(3), build_presentation("hypoplactic", 3).system),
        (sylvester_left(3), build_presentation("sylvester", 3, 2).system),
        (lps_right(3), build_presentation("lps", 3, 3).system),
        (rps_right(3), build_presentation("rps", 3, 3).system),
    ]
    for structure, congruence in cases:
        part = congruence_classes(congruence, 5)
        fibers = {}
        for k in range(6):
            for w in itertools.product(range(1, 4), repeat=k):
                key = structure.read(structure.constructor(w))
                fibers.setdefault(key, set()).add(tuple(x - 1 for x in w))
        for block in fibers.values():
            assert len({part.representative[w] for w in block}) == 1


def test_probe_reports_are_definitive():
    report = commutation_probe(hypoplactic_right(3), hypoplactic_left(3), 4)
    assert report["result"] in ("exhausted", "counterexample")
    assert report["pairs_tested"] > 0
    control = commutation_probe(young_right(3), young_left(3), 4)
    assert control["result"] == "exhausted"


def test_probe_reports_the_structures_rank():
    report = commutation_probe(hypoplactic_right(3), hypoplactic_left(3), 3)
    assert report["params"] == {"n": 3, "max_len": 3}


def test_probe_refuses_two_alphabet_sizes():
    with pytest.raises(ValueError, match="^structures must share the alphabet size$"):
        commutation_probe(hypoplactic_right(2), hypoplactic_left(3), 3)


def test_probe_counterexample_reporting():
    # an intentionally wrong pairing on the same carrier yields a witness
    from sdskit.sds import RIGHT_TO_LEFT, StringDataStructure
    fake_left = StringDataStructure("fake-left", 2, (), lps_insert, ps_read, RIGHT_TO_LEFT)
    report = commutation_probe(lps_right(2), fake_left, 3)
    assert report["result"] == "counterexample"
    assert set(report["witness"]) >= {"datum", "x", "y"}


def test_derived_right_insertion_is_a_right_structure():
    candidate = derived_right_insertion(sylvester_left(3))
    assert check_axioms(candidate, 4)["result"] == "pass"
    report = commutation_probe(candidate, sylvester_left(3), 4)
    assert report["result"] in ("exhausted", "counterexample")


def test_tree_serialization_round_trip():
    t = (6, (4, None, None), (7, (7, None, None), (8, None, None)))
    assert parse_tree(format_tree(t)) == t
    assert format_tree(None) == "·"
    assert parse_tree("·") is None
    assert parse_tree(".") is None  # plain dot accepted on input
