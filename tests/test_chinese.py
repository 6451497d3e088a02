"""Staircase mechanics: insertions, readings, presentations, shapes, and bounds."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from sdskit import chinese
from sdskit.chinese import (
    chinese_left,
    chinese_left_insert,
    chinese_relations,
    chinese_right,
    chinese_right_insert,
    commutation_rule_pairs,
    completed_order_less,
    completed_presentation,
    completion_pairs,
    empty_staircase,
    gen_label,
    gen_staircase,
    is_staircase,
    order_ch_less,
    precolumn_presentation,
    qn_generators,
    read_qn,
    read_rr,
    staircase_from_display,
    staircase_from_json,
    staircase_to_json,
    verify_path_bounds,
    verify_rule_shape,
    weight,
)
from sdskit.registry import build_presentation
from sdskit.rewriting import check_local_confluence, classify, knuth_bendix_pass, termination_certificate
from sdskit.sds import reachable_set


def test_right_insert_figure():
    t = staircase_from_display(4, [[1], [1, 0], [0, 1, 1], [0, 0, 2, 0]])
    expected = staircase_from_display(4, [[1], [2, 0], [0, 1, 1], [0, 0, 1, 1]])
    assert chinese_right_insert(t, 1) == expected


def test_right_insert_into_empty():
    for n in (1, 3):
        for x in range(1, n + 1):
            t = chinese_right_insert(empty_staircase(n), x)
            assert read_rr(t) == (x,)


def test_right_insert_top_letter_increments_diagonal():
    t = staircase_from_display(3, [[1], [0, 1], [2, 0, 0]])
    r = chinese_right_insert(t, 3)
    assert staircase_to_json(r)["rows"][2] == [3, 0, 0]


@given(st.lists(st.integers(1, 4), max_size=8))
@settings(max_examples=80, deadline=None)
def test_right_insert_weight_and_nonnegativity(word):
    t = empty_staircase(4)
    for k, x in enumerate(word, start=1):
        t = chinese_right_insert(t, x)
        assert is_staircase(t)
        assert weight(t) == k
    assert len(read_rr(t)) == len(word)


def test_left_insert_trivial():
    t = chinese_left_insert(2, empty_staircase(3))
    assert read_rr(t) == (2,)


def test_left_insert_worked_example_matches_oracle():
    t = staircase_from_display(4, [[0], [1, 0], [0, 1, 1], [0, 0, 2, 0]])
    s = chinese_right(4)
    oracle = s.insert_word(s.iota(4), read_rr(t))
    assert chinese_left_insert(4, t) == oracle


def test_left_insert_equals_derived_oracle_exhaustively():
    # acceptance runs this at rank 4 and length 6; keep the unit test small
    s = chinese_right(3)
    for key, t in reachable_set(s, 5).by_read.items():
        for x in range(1, 4):
            assert chinese_left_insert(x, t) == s.insert_word(s.iota(x), key)


def test_commutation_instances():
    s_r, s_l = chinese_right(3), chinese_left(3)
    for key, t in reachable_set(s_r, 5).by_read.items():
        for x in range(1, 4):
            rx = s_r.insert_one(t, x)
            for y in range(1, 4):
                assert s_l.insert_one(rx, y) == s_r.insert_one(s_l.insert_one(t, y), x)


def test_read_rr_round_trip():
    s = chinese_right(3)
    for key, t in reachable_set(s, 6).by_read.items():
        assert read_rr(t) == key
        assert s.constructor(read_rr(t)) == t
    assert read_rr(empty_staircase(4)) == ()


def test_read_qn_paper_example_at_rank_five():
    # the same triangle embedded one rank up keeps its fourth-row squares
    t = staircase_from_display(5, [[1], [3, 0], [0, 1, 3], [4, 0, 2, 1], [0, 0, 0, 0, 0]])
    labels = [gen_label(g) for g in read_qn(t)]
    assert labels == ["c_1", "c_2", "c_22", "c_31", "c_31", "c_31", "c_32",
                      "c_41", "c_42", "c_42", "c_44", "c_44"]


def test_read_qn_top_rank_run_stays_single():
    # no square generator exists for the extreme letters
    t = staircase_from_display(4, [[1], [3, 0], [0, 1, 3], [4, 0, 2, 1]])
    labels = [gen_label(g) for g in read_qn(t)]
    assert labels == ["c_1", "c_2", "c_22", "c_31", "c_31", "c_31", "c_32",
                      "c_41", "c_42", "c_42", "c_4", "c_4", "c_4", "c_4"]
    t1 = staircase_from_display(2, [[3], [0, 0]])
    assert [gen_label(g) for g in read_qn(t1)] == ["c_1", "c_1", "c_1"]


def test_read_qn_concatenates_to_row_reading():
    s = chinese_right(4)
    for key, t in reachable_set(s, 5).by_read.items():
        flattened = tuple(x for g in read_qn(t)
                          for x in ((g[0],) if g[1] == 0 else (g[0], g[1])))
        assert flattened == key


def test_qn_generator_counts():
    assert [gen_label(g) for g in qn_generators(3)] == \
        ["c_1", "c_2", "c_3", "c_21", "c_31", "c_32", "c_22"]
    assert len(qn_generators(2)) == 3
    assert len(qn_generators(4)) == 12


def test_gen_staircase_values():
    assert weight(gen_staircase((2, 0), 3)) == 1
    assert weight(gen_staircase((3, 1), 3)) == 2
    sq = gen_staircase((2, 2), 3)
    assert staircase_to_json(sq)["rows"][1] == [2, 0]


def test_chinese_relations_n2():
    rs = chinese_relations(2)
    assert rs.pairs == {((1, 1, 0), (1, 0, 1)), ((1, 0, 0), (0, 1, 0))}


def test_chinese_relations_families_n3():
    # two strict-chain rules plus two families over each of the three pairs
    assert len(chinese_relations(3).rules) == 2 + 2 * 3


def test_precolumn_matches_presentation_dispatch():
    assert build_presentation("chinese-precolumn", 3).system.pairs == \
        precolumn_presentation(3).system.pairs
    assert build_presentation("chinese-relations", 3).system.pairs == \
        chinese_relations(3).pairs


def test_completed_equals_precolumn_plus_families():
    for n in (2, 3, 4):
        comp = completed_presentation(n)
        pre = precolumn_presentation(n)
        gens = qn_generators(n)
        idx = {g: i for i, g in enumerate(gens)}
        families = {(tuple(idx[g] for g in l), tuple(idx[g] for g in r))
                    for l, r in completion_pairs(n)}
        assert comp.system.pairs == pre.system.pairs | families


def test_completed_semi_quadratic_and_confluent():
    for n in (2, 3):
        system = completed_presentation(n).system
        flags = classify(system)
        assert flags.semi_quadratic and flags.reduced
        assert check_local_confluence(system).confluent


def test_completion_by_one_knuth_bendix_pass():
    for n in (2, 3):
        pre = precolumn_presentation(n)
        result = knuth_bendix_pass(pre.system, completed_order_less(n))
        assert result.unorientable == ()
        assert result.system.pairs == completed_presentation(n).system.pairs


def test_order_ch_clauses():
    assert order_ch_less((2, 1), (2, 0))        # column below its head letter
    assert not order_ch_less((2, 0), (2, 1))
    assert order_ch_less((1, 0), (2, 1))        # shorter below longer
    assert order_ch_less((1, 0), (2, 0))        # lexicographic tie-break
    assert not order_ch_less((2, 2), (2, 0))    # squares do not use the head clause
    assert order_ch_less((2, 0), (2, 2))


def test_order_ch_total_and_antisymmetric_on_q4():
    gens = qn_generators(4)
    for a, b in itertools.combinations(gens, 2):
        assert order_ch_less(a, b) != order_ch_less(b, a)
    for a in gens:
        assert not order_ch_less(a, a)


def test_termination_certificate_completed():
    for n in (3, 4):
        system = completed_presentation(n).system
        gens = qn_generators(n)
        cert = termination_certificate(system, len,
                                       lambda a, b: order_ch_less(gens[a], gens[b]))
        assert cert.passes


def test_commutation_rules_present():
    gens = qn_generators(3)
    idx = {g: i for i, g in enumerate(gens)}
    comm = commutation_rule_pairs(3)
    assert (((2, 0), (2, 1)), ((2, 1), (2, 0))) in comm
    comp_pairs = completed_presentation(3).system.pairs
    for l, r in comm:
        assert (tuple(idx[g] for g in l), tuple(idx[g] for g in r)) in comp_pairs


def test_verify_rule_shape():
    for n in (3, 4):
        report = verify_rule_shape(n)
        assert report["result"] == "pass"
        assert report["family_counts"]["commutation"] > 0
    assert verify_rule_shape(4)["family_counts"]["square"] == 5


def test_verify_path_bounds():
    for n in (3, 4):
        report = verify_path_bounds(n)
        assert report["length_bounds"] == "pass"
        assert report["max_left"] <= 5 and report["max_right"] <= 5
        assert report["max_right_square_led"] <= 5
        # the late-step claim has genuine counterexamples: the forced fourth
        # step on c_yy.c_y.c_x merges two equal letters into a square
        assert report["late_steps_commutation"] == "fail"
        witnesses = report["late_step_witnesses"]
        assert witnesses[0]["triple"] == ["c_22", "c_2", "c_1"]
        assert witnesses[0]["late_rules"] == [["c_2", "c_2"]]
        assert "budget_hits" not in report
    assert verify_path_bounds(3)["late_step_violations"] == 1
    assert verify_path_bounds(4)["late_step_violations"] == 3


def test_verify_path_bounds_fails_on_budget_hits(monkeypatch):
    # with one step allowed every path looks short and no late step is
    # seen: only the counted budget hits keep the truncated run from passing
    real = chinese.normalize
    monkeypatch.setattr(chinese, "normalize",
                        lambda system, word, strategy: real(system, word, strategy, budget=1))
    report = verify_path_bounds(3)
    assert report["length_bounds"] == "pass"
    assert report["late_steps_commutation"] == "pass"
    assert report["result"] == "fail"
    assert 0 < report["budget_hits"] <= 2 * report["triples"]


def test_staircase_json_round_trip():
    t = staircase_from_display(3, [[1], [2, 0], [0, 1, 1]])
    assert staircase_from_json(staircase_to_json(t)) == t
    with pytest.raises(ValueError):
        staircase_from_json({"n": 2, "rows": [[1]]})
