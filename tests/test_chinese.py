"""Staircase mechanics: insertions, readings, presentations, shapes, and bounds."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from sdskit import chinese
from sdskit.chinese import (
    chinese_left,
    chinese_left_insert,
    chinese_right,
    chinese_right_insert,
    commutation_rule_pairs,
    completed_order_less,
    completed_presentation,
    completion_pairs,
    empty_staircase,
    gen_staircase,
    is_staircase,
    precolumn_presentation,
    qn_generators,
    read_qn,
    read_rr,
    staircase_display,
    staircase_from_display,
    verify_path_bounds,
    verify_rule_shape,
)
from sdskit.coherence import legs_witness
from sdskit.registry import build_presentation
from sdskit.rewriting import check_local_confluence, classify, knuth_bendix_pass, termination_witness
from sdskit.sds import Row, datum_label, reachable_set


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
    assert staircase_display(r)[2] == [3, 0, 0]


@given(st.lists(st.integers(1, 4), max_size=8))
@settings(max_examples=80, deadline=None)
def test_right_insert_weight_and_nonnegativity(word):
    t = empty_staircase(4)
    for k, x in enumerate(word, start=1):
        t = chinese_right_insert(t, x)
        assert is_staircase(t)
        assert len(read_rr(t)) == k
    assert len(read_rr(t)) == len(word)


@pytest.mark.parametrize("insert", [chinese_right_insert, chinese_left_insert])
@pytest.mark.parametrize("x", [0, 4])
def test_an_insertion_refuses_a_letter_out_of_range(insert, x):
    with pytest.raises(ValueError, match=rf"^letter {x} out of range 1\.\.3$"):
        insert(empty_staircase(3), x)


def test_left_insert_trivial():
    t = chinese_left_insert(empty_staircase(3), 2)
    assert read_rr(t) == (2,)


def test_left_insert_worked_example_matches_oracle():
    t = staircase_from_display(4, [[0], [1, 0], [0, 1, 1], [0, 0, 2, 0]])
    s = chinese_right(4)
    oracle = s.insert_word(s.iota(4), read_rr(t))
    assert chinese_left_insert(t, 4) == oracle


def test_left_insert_equals_derived_oracle_exhaustively():
    # acceptance runs this at rank 4 and length 6; keep the unit test small
    s = chinese_right(3)
    for key, t in reachable_set(Row(s), 5).by_read.items():
        for x in range(1, 4):
            assert chinese_left_insert(t, x) == s.insert_word(s.iota(x), key)


def test_commutation_instances():
    s_r, s_l = chinese_right(3), chinese_left(3)
    for key, t in reachable_set(Row(s_r), 5).by_read.items():
        for x in range(1, 4):
            rx = s_r.insert_one(t, x)
            for y in range(1, 4):
                assert s_l.insert_one(rx, y) == s_r.insert_one(s_l.insert_one(t, y), x)


def test_read_rr_round_trip():
    s = chinese_right(3)
    for key, t in reachable_set(Row(s), 6).by_read.items():
        assert read_rr(t) == key
        assert s.constructor(read_rr(t)) == t
    assert read_rr(empty_staircase(4)) == ()


def _labels(gens, n):
    """The presentation letters of the generators, as `datum_label` names them."""
    s = chinese_right(n)
    return [datum_label(s, gen_staircase(g, n)) for g in gens]


def test_read_qn_paper_example_at_rank_five():
    # the same triangle embedded one rank up keeps its fourth-row squares
    t = staircase_from_display(5, [[1], [3, 0], [0, 1, 3], [4, 0, 2, 1], [0, 0, 0, 0, 0]])
    labels = _labels(read_qn(t), len(t))
    assert labels == ["c_1", "c_2", "c_22", "c_31", "c_31", "c_31", "c_32",
                      "c_41", "c_42", "c_42", "c_44", "c_44"]


def test_read_qn_top_rank_run_stays_single():
    # no square generator exists for the extreme letters
    t = staircase_from_display(4, [[1], [3, 0], [0, 1, 3], [4, 0, 2, 1]])
    labels = _labels(read_qn(t), len(t))
    assert labels == ["c_1", "c_2", "c_22", "c_31", "c_31", "c_31", "c_32",
                      "c_41", "c_42", "c_42", "c_4", "c_4", "c_4", "c_4"]
    t1 = staircase_from_display(2, [[3], [0, 0]])
    assert _labels(read_qn(t1), 2) == ["c_1", "c_1", "c_1"]


def test_read_qn_concatenates_to_row_reading():
    s = chinese_right(4)
    for key, t in reachable_set(Row(s), 5).by_read.items():
        flattened = tuple(x for g in read_qn(t)
                          for x in ((g[0],) if g[1] == 0 else (g[0], g[1])))
        assert flattened == key


def test_qn_generator_counts():
    assert _labels(qn_generators(3), 3) == \
        ["c_1", "c_2", "c_3", "c_21", "c_31", "c_32", "c_22"]
    assert len(qn_generators(2)) == 3
    assert len(qn_generators(4)) == 12


def test_gen_staircase_values():
    assert len(read_rr(gen_staircase((2, 0), 3))) == 1
    assert len(read_rr(gen_staircase((3, 1), 3))) == 2
    sq = gen_staircase((2, 2), 3)
    assert staircase_display(sq)[1] == [2, 0]


@pytest.mark.parametrize("name", ["chinese-precolumn", "chinese-completed"])
def test_staircase_letters_stand_for_the_generators_in_order(name):
    # the termination order, verify_rule_shape and verify_path_bounds read
    # letter i as qn_generators(n)[i]
    for n in range(1, 8):
        gen = build_presentation(name, n).generating
        gens = qn_generators(n)
        assert len(gen.generators) == len(gens)
        assert [gen.row.read(i) for i in range(len(gens))] == \
            [(y,) if x == 0 else (y, x) for y, x in gens]


def test_chinese_relations_n2():
    rs = build_presentation("chinese-relations", 2).system
    assert rs.pairs == {((1, 1, 0), (1, 0, 1)), ((1, 0, 0), (0, 1, 0))}


def test_chinese_relations_families_n3():
    # two strict-chain rules plus two families over each of the three pairs
    assert len(build_presentation("chinese-relations", 3).system.rules) == 2 + 2 * 3


def test_precolumn_matches_presentation_dispatch():
    assert build_presentation("chinese-precolumn", 3).system.pairs == \
        precolumn_presentation(3).system.pairs
    assert build_presentation("chinese-relations", 3).system.pairs == set(chinese.chinese_pairs(3))


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
        assert not any(legs_witness(b.source, left, right)
                       for b, left, right in check_local_confluence(system))


def test_completion_by_one_knuth_bendix_pass():
    # to n = 5, the rank of the benchmark's completion job
    for n in range(2, 6):
        pre = precolumn_presentation(n)
        result = knuth_bendix_pass(pre.system, completed_order_less(n))
        assert result.unorientable == ()
        assert result.system.pairs == completed_presentation(n).system.pairs


def test_order_ch_clauses():
    less = chinese.order_ch_less
    assert less((2, 1), (2, 0))        # column below its head letter
    assert not less((2, 0), (2, 1))
    assert less((1, 0), (2, 1))        # one head's generators below the next head's
    assert less((1, 0), (2, 0))
    assert not less((2, 2), (2, 0))    # squares sit above their head letter
    assert less((2, 0), (2, 2))


def test_order_ch_is_a_strict_total_order():
    # through the module, so that a mutant patched into it is reached; a
    # comparator that puts a letter below every longer generator closes
    # c_2 < c_3 < c_21 < c_2 from n = 3
    less = chinese.order_ch_less
    for n in range(2, 9):
        gens = qn_generators(n)
        above = {a: {b for b in gens if less(a, b)} for a in gens}
        for a, b in itertools.combinations(gens, 2):
            assert (b in above[a]) != (a in above[b])
        for a in gens:
            assert a not in above[a]
            for b in above[a]:
                assert above[b] <= above[a], (n, a, b)


def test_termination_witness_precolumn_and_completed():
    for n in range(1, 9):
        less = chinese.generator_less(n)
        for pres in (precolumn_presentation(n), completed_presentation(n)):
            assert termination_witness(pres.system, less) is None


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


def test_verify_path_bounds_fails_on_budget_hits():
    # with one step allowed every path looks short and no late step is
    # seen: only the counted budget hits keep the truncated run from passing
    report = verify_path_bounds(3, budget=1)
    assert report["length_bounds"] == "pass"
    assert report["late_steps_commutation"] == "pass"
    assert report["result"] == "fail"
    assert 0 < report["budget_hits"] <= 2 * report["triples"]


def test_staircase_display_round_trip():
    # through the module, since the mutation gate calls this test directly
    t = staircase_from_display(3, [[1], [2, 0], [0, 1, 1]])
    assert chinese.staircase_display(t) == [[1], [2, 0], [0, 1, 1]]
    assert staircase_from_display(3, chinese.staircase_display(t)) == t
    with pytest.raises(ValueError):
        staircase_from_display(2, [[1]])
