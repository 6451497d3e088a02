"""Tableau mechanics: insertions, readings, presentations, and the involution."""

from hypothesis import given, settings, strategies as st

from sdskit.rewriting import check_local_confluence, classify, termination_certificate
from sdskit.sds import reachable_set
from sdskit import young
from sdskit.young import (
    column_complement,
    column_length_less,
    column_presentation,
    columns,
    enumerate_columns,
    enumerate_rows,
    format_tableau,
    from_columns,
    is_tableau,
    knuth_srs,
    parse_tableau,
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
    assert schensted_left(2, FIGURE) == ((1, 2, 3, 5), (2, 4), (6,))


def test_insert_into_empty():
    assert schensted_right((), 3) == ((3,),)
    assert schensted_left(3, ()) == ((3,),)


def test_left_insertion_matches_derived_form():
    # left insertion equals right-inserting the reading into a single box
    s = young_right(3)
    for key, t in reachable_set(s, 5).by_read.items():
        for x in range(1, 4):
            assert schensted_left(x, t) == s.insert_word(((x,),), key)


@given(st.lists(st.integers(1, 4), max_size=7))
@settings(max_examples=80, deadline=None)
def test_insertions_preserve_tableau_invariants(word):
    t = ()
    u = ()
    for x in word:
        t = schensted_right(t, x)
        u = schensted_left(x, u)
        assert is_tableau(t)
        assert is_tableau(u)
    assert sorted(read_tableau(t)) == sorted(word)
    assert sum(len(r) for r in t) == len(word)


def test_readings_golden():
    t = ((1, 2, 6), (3, 5), (4,))
    assert read_tableau(t, "col") == (4, 3, 1, 5, 2, 6)
    assert read_tableau(t, "row") == (4, 3, 5, 1, 2, 6)
    assert read_tableau(t, "col_op") == (6, 2, 5, 1, 3, 4)
    assert read_tableau((), "col") == ()


def test_reading_injective_on_reachable():
    s = young_right(3)
    seen = {}
    for key, t in reachable_set(s, 6).by_read.items():
        assert seen.setdefault(key, t) == t


def test_columns_round_trip():
    t = ((1, 2, 2), (2, 3), (4,))
    assert from_columns(columns(t)) == t


def test_knuth_srs_n2_exact():
    rs = knuth_srs(2)
    assert rs.pairs == {((1, 0, 0), (0, 1, 0)), ((1, 1, 0), (1, 0, 1))}
    assert knuth_srs(1).rules == ()


def test_knuth_srs_count_matches_enumeration():
    n = 3
    xi = [(x, y, z) for x in range(1, n + 1) for y in range(x, n + 1)
          for z in range(y + 1, n + 1)]
    zeta = [(x, y, z) for x in range(1, n + 1) for y in range(x + 1, n + 1)
            for z in range(y, n + 1)]
    assert len(knuth_srs(n).rules) == len(xi) + len(zeta)


def test_knuth_reversed_pairs_swap_index_ranges():
    std = knuth_srs(3).pairs
    rev = knuth_srs(3, "reversed").pairs
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
    for i, c in enumerate(pres.generators):
        for j, e in enumerate(pres.generators):
            product_cols = columns(s.star(c, e))
            as_pair = len(product_cols) == 2 and \
                (tuple((x,) for x in product_cols[0]),
                 tuple((x,) for x in product_cols[1])) == (c, e)
            assert ((i, j) in lhs) == (not as_pair)


def test_column_presentation_convergent_n3():
    pres = column_presentation(3)
    assert check_local_confluence(pres.system).confluent
    cert = termination_certificate(pres.system, len, column_length_less(pres))
    assert cert.passes


def test_row_presentation_bounded():
    pres = row_presentation(2, 4)
    assert all(len(r.lhs) == 2 for r in pres.system.rules)
    assert check_local_confluence(pres.system).confluent is not None


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
