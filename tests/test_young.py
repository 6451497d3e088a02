"""Tableau mechanics: insertions, readings, presentations, and the involution."""

import pytest
from hypothesis import given, settings, strategies as st

from sdskit.coherence import legs_witness
from sdskit.registry import build_presentation
from sdskit.rewriting import (
    LEFTMOST,
    check_local_confluence,
    classify,
    is_normal_form,
    normalize,
    termination_witness,
)
from sdskit.sds import Row, reachable_set
from sdskit import young
from sdskit.young import (
    column_complement,
    column_length_less,
    column_presentation,
    columns,
    enumerate_columns,
    enumerate_rows,
    format_tableau,
    is_tableau,
    parse_tableau,
    read_rows,
    read_tableau,
    row_presentation,
    schensted_left,
    schensted_right,
    schuetzenberger_involution,
    verify_knuth_decomposition,
    young_right,
)

FIGURE = ((1, 3, 5), (2, 4), (6,))


def test_right_insertion_figure():
    assert schensted_right(FIGURE, 2) == ((1, 2, 5), (2, 3), (4,), (6,))


def test_left_insertion_figure():
    assert schensted_left(FIGURE, 2) == ((1, 2, 3, 5), (2, 4), (6,))


def test_insert_into_empty():
    assert schensted_right((), 3) == ((3,),)
    assert schensted_left((), 3) == ((3,),)


def test_left_insertion_matches_derived_form():
    # left insertion equals right-inserting the reading into a single box
    s = young_right(3)
    for key, t in reachable_set(Row(s), 5).by_read.items():
        for x in range(1, 4):
            assert schensted_left(t, x) == s.insert_word(((x,),), key)


@given(st.lists(st.integers(1, 4), max_size=7))
@settings(max_examples=80, deadline=None)
def test_insertions_preserve_tableau_invariants(word):
    t = ()
    u = ()
    for x in word:
        t = schensted_right(t, x)
        u = schensted_left(u, x)
        assert is_tableau(t)
        assert is_tableau(u)
    assert sorted(read_tableau(t)) == sorted(word)
    assert sum(len(r) for r in t) == len(word)


def test_readings_golden():
    t = ((1, 2, 6), (3, 5), (4,))
    assert read_tableau(t) == (4, 3, 1, 5, 2, 6)
    assert read_rows(t) == (4, 3, 5, 1, 2, 6)
    assert read_tableau(()) == ()


def test_reading_injective_on_reachable():
    s = young_right(3)
    seen = {}
    for key, t in reachable_set(Row(s), 6).by_read.items():
        assert seen.setdefault(key, t) == t


def test_columns_round_trip():
    t = ((1, 2, 2), (2, 3), (4,))
    assert columns(t) == [(1, 2, 4), (2, 3), (2,)]
    assert columns(tuple(columns(t))) == list(t)


def test_knuth_srs_n2_exact():
    rs = build_presentation("knuth", 2).system
    assert rs.pairs == {((1, 0, 0), (0, 1, 0)), ((1, 1, 0), (1, 0, 1))}
    assert build_presentation("knuth", 1).system.rules == ()


def test_knuth_srs_count_matches_enumeration():
    n = 3
    xi = [(x, y, z) for x in range(1, n + 1) for y in range(x, n + 1)
          for z in range(y + 1, n + 1)]
    zeta = [(x, y, z) for x in range(1, n + 1) for y in range(x + 1, n + 1)
            for z in range(y, n + 1)]
    assert len(build_presentation("knuth", n).system.rules) == len(xi) + len(zeta)


def test_knuth_reversed_pairs_swap_index_ranges():
    std = build_presentation("knuth", 3).system.pairs
    rev = build_presentation("knuth-reversed", 3).system.pairs
    assert std != rev
    assert len(std) == len(rev)


def test_enumerate_columns_counts():
    assert len(enumerate_columns(3)) == 7
    assert len(enumerate_columns(1)) == 1
    assert all(is_tableau(c) for c in enumerate_columns(4))


def test_enumerate_rows_counts():
    rows = enumerate_rows(2, 2)
    assert {r[0] for r in rows} == {(1,), (2,), (1, 1), (1, 2), (2, 2)}


def test_column_presentation_shape():
    pres = column_presentation(3)
    assert len(pres.system.alphabet) == 7
    flags = classify(pres.system)
    assert flags.semi_quadratic
    # normal-form pairs are exactly those whose product reads as the pair
    s = young_right(3)
    lhs = {r.lhs for r in pres.system.rules}
    for i, c in enumerate(pres.generating.generators):
        for j, e in enumerate(pres.generating.generators):
            product_cols = columns(s.star(c, e))
            as_pair = len(product_cols) == 2 and \
                (tuple((x,) for x in product_cols[0]),
                 tuple((x,) for x in product_cols[1])) == (c, e)
            assert ((i, j) in lhs) == (not as_pair)


def test_column_presentation_convergent_n3():
    pres = column_presentation(3)
    assert not any(legs_witness(b.source, left, right)
                   for b, left, right in check_local_confluence(pres.system))
    assert termination_witness(pres.system, column_length_less(pres)) is None


def test_row_presentation_bounded():
    pres = row_presentation(2, 4)
    assert all(len(r.lhs) == 2 for r in pres.system.rules)
    # the walk is lazy, and a generator is true even when it yields nothing
    assert list(check_local_confluence(pres.system))


def test_verify_knuth_decomposition():
    assert verify_knuth_decomposition(1)["instances"] == 0
    assert verify_knuth_decomposition(2)["result"] == "pass"
    assert verify_knuth_decomposition(3)["result"] == "pass"


def test_column_complement():
    assert column_complement(((1,), (3,), (5,)), 6) == ((1,), (3,), (5,))
    assert column_complement(((1,), (2,), (3,)), 3) == ()
    for c in enumerate_columns(3):
        image = column_complement(c, 3)
        back = column_complement(image, 3) if image else ((1,), (2,), (3,))
        assert back == c


def test_schuetzenberger_report():
    report = schuetzenberger_involution(3)
    assert report["involutive_on_columns"] is True
    assert report["map"]["c_1"] == "c_21"
    assert report["map"]["c_321"] == "e"
    # the letterwise complement-reverse map does not preserve the congruence
    # or the normal forms of the column presentation; the report records the
    # computed outcome with witnesses
    assert report["congruence_preserved"]["result"] == "fail"
    assert report["normal_forms_preserved"]["result"] == "fail"
    assert report["normalization_commutes"]["result"] == "fail"
    assert "witness" in report["normal_forms_preserved"]
    assert not any("budget_hits" in value for value in report.values()
                   if isinstance(value, dict))


@pytest.mark.parametrize("n", [2, 3])
def test_schuetzenberger_witnesses_hold_for_the_reversed_complement(n):
    """The word map complements each column and reverses their order; the
    report's witnesses are witnesses for that map, computed here column by
    column."""
    pres = column_presentation(n)
    system, gens, index = pres.system, pres.generating.generators, pres.generating.index
    def image(word):
        images = (column_complement(gens[i], n) for i in reversed(word))
        return tuple(index[read_tableau(c)] for c in images if c)
    def nf(word):
        return normalize(system, word, LEFTMOST).target
    report = schuetzenberger_involution(n)
    assert report["normal_forms_preserved"]["result"] == "fail"
    word = tuple(report["normal_forms_preserved"]["witness"]["word"])
    assert is_normal_form(system, word) and not is_normal_form(system, image(word))
    assert report["normalization_commutes"]["result"] == "fail"
    word = tuple(report["normalization_commutes"]["witness"]["word"])
    assert nf(image(word)) != image(nf(word))


def test_schuetzenberger_counts_budget_hits(monkeypatch):
    real = young.normalize
    monkeypatch.setattr(young, "normalize",
                        lambda system, word, strategy: real(system, word, strategy, budget=1))
    report = schuetzenberger_involution(3)
    assert report["normalization_commutes"]["result"] == "fail"
    assert report["normalization_commutes"]["budget_hits"] > 0
    # the congruence check stops at its first witness, before any hit
    assert "budget_hits" not in report["congruence_preserved"]
    assert "budget_hits" not in report["normal_forms_preserved"]


def test_tableau_text_format_round_trip():
    t = ((1, 2, 6), (3, 5), (4,))
    assert parse_tableau(format_tableau(t)) == t
    assert parse_tableau("(empty)") == ()
    assert format_tableau(()) == "(empty)"


@pytest.mark.parametrize("text, ok", [
    ("1 2 2;3 3;4", True),
    ("1 3 2", False),           # a row decreases
    ("1 2;1 3", False),         # a column does not strictly increase
    ("1 2;2 2", False),
    ("1;2 3", False),           # a row longer than the one above
    ("1 1;2 2;3 3 3", False),
])
def test_parse_tableau_checks_rows_and_columns(text, ok):
    t = tuple(tuple(map(int, row.split())) for row in text.split(";"))
    assert is_tableau(t) == ok
    if ok:
        assert parse_tableau(text) == t
    else:
        with pytest.raises(ValueError, match="^not a valid tableau$"):
            parse_tableau(text)


def test_a_tableau_has_no_empty_row():
    assert not is_tableau(((1, 2), (), (3,)))
    assert not is_tableau(((),))
