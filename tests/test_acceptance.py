"""Acceptance suite: each criterion runs at its stated bound and prints one line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 10 contains a deliberate red assertion: the late-step
commutation claim it encodes has concrete counterexamples (the forced
fourth step on c_yy.c_y.c_x merges two equal letters into a square
generator, which is not a commutation rule); see the package README for
the analysis.  The reduction-length bounds of the same criterion hold and
are asserted first.
"""

import time

from sdskit import chinese, coherence, extra, young
from sdskit.registry import build_presentation
from sdskit.rewriting import (
    check_local_confluence,
    classify,
    knuth_bendix_pass,
    termination_witness,
)
from sdskit.sds import (
    Row,
    check_commutation,
    check_cross_section,
    reachable_set,
)


def report(num, ok, desc, t0, limit):
    elapsed = time.monotonic() - t0
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:6.1f}s / limit {limit}s] {desc}")
    assert elapsed <= limit, f"criterion {num} exceeded its {limit}s budget"
    return ok


def _confluent(system) -> bool:
    return not any(coherence.legs_witness(b.source, left, right)
                   for b, left, right in check_local_confluence(system))


def test_criterion_01_schensted_commutation():
    t0 = time.monotonic()
    out = check_commutation(young.young_right(4), young.young_left(4), 6)
    ok = out["result"] == "pass"
    assert report(1, ok, "Schensted insertions commute (n=4, L=6)", t0, 60)


def test_criterion_02_chinese_commutation():
    t0 = time.monotonic()
    out = check_commutation(chinese.chinese_right(4), chinese.chinese_left(4), 6)
    ok = out["result"] == "pass"
    assert report(2, ok, "staircase insertions commute (n=4, L=6)", t0, 120)


def _identities_hold(right, left, max_len):
    for key, d in reachable_set(Row(right), max_len).by_read.items():
        for x in range(1, right.n + 1):
            if right.insert_one(d, x) != left.insert_word(left.constructor((x,)), key):
                return False
            if left.insert_one(d, x) != right.insert_word(right.constructor((x,)), key):
                return False
    return True


def test_criterion_03_derived_insertion_identities():
    t0 = time.monotonic()
    ok = _identities_hold(young.young_right(4), young.young_left(4), 6) and \
        _identities_hold(chinese.chinese_right(4), chinese.chinese_left(4), 6)
    assert report(3, ok, "each insertion equals the derived form of the other "
                         "(both families, n=4, L=6)", t0, 60)


def test_criterion_04_non_associativity_counterexample():
    t0 = time.monotonic()
    m = young.young_right_mirror(6)
    a, b, c = ((1,), (4,), (6,)), ((2,), (3,)), ((1,),)
    left = m.star(m.star(a, b), c)
    right = m.star(a, m.star(b, c))
    ok = left == ((1, 1, 3), (2,), (4,), (6,)) and \
        right == ((1, 1, 2, 3), (4,), (6,)) and left != right
    assert report(4, ok, "mirror-reading product is not associative "
                         "(exact displayed triple)", t0, 60)


def test_criterion_05_plactic_cross_section():
    t0 = time.monotonic()
    out = check_cross_section(young.young_right(3), build_presentation("knuth", 3).system, 6)
    assert report(5, out["result"] == "pass",
                  "tableaux cut the Knuth congruence (n=3, L=6)", t0, 60)


def test_criterion_06_chinese_cross_section():
    t0 = time.monotonic()
    out = check_cross_section(chinese.chinese_right(3),
                              build_presentation("chinese-relations", 3).system, 6)
    assert report(6, out["result"] == "pass",
                  "staircases cut the Chinese congruence (n=3, L=6)", t0, 60)


def test_criterion_07_column_presentation_convergence():
    t0 = time.monotonic()
    pres = young.column_presentation(4)
    terminates = termination_witness(pres.system, young.column_length_less(pres)) is None
    confluent = _confluent(pres.system)
    assert report(7, terminates and confluent,
                  "column presentation terminates and joins all branchings (n=4)",
                  t0, 60)


def test_criterion_08_completed_presentation():
    t0 = time.monotonic()
    ok = True
    for n in (3, 4):
        system = chinese.completed_presentation(n).system
        flags = classify(system)
        witness = termination_witness(system, chinese.generator_less(n))
        ok = ok and flags.semi_quadratic and witness is None and \
            _confluent(system)
    assert report(8, ok, "completed staircase presentation is semi-quadratic, "
                         "confluent, terminating (n=3,4)", t0, 120)


def test_criterion_09_completion_equivalence():
    t0 = time.monotonic()
    ok = True
    for n in (3, 4):
        pre = chinese.precolumn_presentation(n)
        result = knuth_bendix_pass(pre.system, chinese.completed_order_less(n))
        ok = ok and result.system.pairs == chinese.completed_presentation(n).system.pairs
    assert report(9, ok, "one completion pass on the precolumn rules yields "
                         "the generator presentation (n=3,4)", t0, 60)


def test_criterion_10_path_bounds():
    t0 = time.monotonic()
    reports = {n: chinese.verify_path_bounds(n) for n in (3, 4)}
    bounds_ok = all(r["length_bounds"] == "pass" for r in reports.values())
    late_ok = all(r["late_steps_commutation"] == "pass" for r in reports.values())
    report(10, bounds_ok and late_ok,
           "reduction paths of critical triples: length bounds and "
           "late-step commutation (n=3,4)", t0, 120)
    assert bounds_ok, "leftmost/rightmost path length exceeded five steps"
    assert late_ok, (
        "late-step commutation fails as stated: "
        + "; ".join(
            f"n={n}: {r['late_step_violations']} counterexample(s), first "
            f"{'.'.join(r['late_step_witnesses'][0]['triple'])} with late rule "
            f"{'.'.join(r['late_step_witnesses'][0]['late_rules'][0])}"
            for n, r in reports.items())
        + " (the forced fourth step merges two equal letters into a square)")


def test_criterion_11_cell_shapes():
    t0 = time.monotonic()
    hexagon = coherence.verify_cell_shapes_young(4)
    decagon = coherence.verify_cell_shapes_chinese(4)
    ok = hexagon["result"] == "pass" and decagon["result"] == "pass"
    assert report(11, ok, "hexagon legs within three steps after branching; "
                          "decagon legs within five, five forces four (n=4)",
                  t0, 120)


def test_criterion_12_knuth_decomposition_squares():
    t0 = time.monotonic()
    out = young.verify_knuth_decomposition(4)
    assert report(12, out["result"] == "pass",
                  "both sides of every Knuth relation reach one column word (n=4)",
                  t0, 30)


def test_criterion_13_worked_figure_goldens():
    t0 = time.monotonic()
    qn5 = chinese.qn_generating_set(5)
    figure = ((1, 3, 5), (2, 4), (6,))
    checks = [
        young.schensted_right(figure, 2) == ((1, 2, 5), (2, 3), (4,), (6,)),
        young.schensted_left(figure, 2) == ((1, 2, 3, 5), (2, 4), (6,)),
        young.young_right(6).constructor((4, 5, 3, 1, 2, 6))
        == ((1, 2, 6), (3, 5), (4,)),
        chinese.chinese_right_insert(
            chinese.staircase_from_display(4, [[1], [1, 0], [0, 1, 1], [0, 0, 2, 0]]), 1)
        == chinese.staircase_from_display(4, [[1], [2, 0], [0, 1, 1], [0, 0, 1, 1]]),
        [qn5.alphabet.name(i) for i in qn5.word(
            chinese.staircase_from_display(
                5, [[1], [3, 0], [0, 1, 3], [4, 0, 2, 1], [0, 0, 0, 0, 0]]))]
        == ["c_1", "c_2", "c_22", "c_31", "c_31", "c_31", "c_32",
            "c_41", "c_42", "c_42", "c_44", "c_44"],
        extra.hypoplactic_right(5).constructor((1, 4, 2, 2, 1, 5))
        == ((1, 1), (2, 2), (4, 5)),
        extra.sylvester_left(8).constructor((8, 7, 4, 7, 6))
        == (6, (4, None, None), (7, (7, None, None), (8, None, None))),
        extra.lps_right(4).constructor((1, 4, 2, 3, 2, 4, 1))
        == ((1,), (1, 2, 4), (2, 3), (4,)),
        extra.rps_right(4).constructor((1, 4, 2, 3, 2, 4, 1))
        == ((1, 1), (2, 2, 4), (3,), (4,)),
    ]
    assert report(13, all(checks), "worked-figure golden values match exactly",
                  t0, 60)


def test_criterion_14_open_problem_probes():
    t0 = time.monotonic()
    hypo = extra.commutation_probe(extra.hypoplactic_right(3),
                                   extra.hypoplactic_left(3), 5)
    left = extra.sylvester_left(3)
    sylv = extra.commutation_probe(extra.derived_right_insertion(left), left, 5)
    ok = True
    for probe in (hypo, sylv):
        ok = ok and probe["result"] in ("exhausted", "counterexample")
        ok = ok and probe["pairs_tested"] > 0
        ok = ok and probe["params"] == {"n": 3, "max_len": 5}
        if probe["result"] == "counterexample":
            ok = ok and {"datum", "x", "y"} <= set(probe["witness"])
    assert report(14, ok, "commutation probes complete with definitive reports "
                          f"(hypoplactic: {hypo['result']}, sylvester candidate: "
                          f"{sylv['result']})", t0, 120)
