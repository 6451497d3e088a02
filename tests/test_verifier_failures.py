"""The failure branches of the verifiers, each reached by an injected fault.

The registered structures and presentations pass these verifiers, so each
test swaps in a fault: a presentation with one rule's right side changed,
a crafted cell whose legs are too long, a reading of the empty datum that
is not empty, a false relation, or a letter order that orients nothing.
Each failure must carry its witness, and where a `check` or `cells` name
reaches the branch, the CLI must exit 1, `check` with the report, never
with a traceback.
"""

import json
from dataclasses import replace

import pytest

from sdskit import chinese, coherence, registry, rewriting, young
from sdskit.cli import main
from sdskit.rewriting import (
    NormalizeResult,
    RewritePath,
    RewriteStep,
    RewritingSystem,
    branching_legs,
    critical_branchings,
)
from sdskit.sds import check_axioms


def _with_rhs(pres, lhs: tuple[str, ...], rhs: tuple[str, ...]):
    """The presentation with the right side of the rule `lhs` set to `rhs`,
    both given as generator labels."""
    labels = pres.system.alphabet.labels
    old, new = (tuple(labels.index(x) for x in w) for w in (lhs, rhs))
    assert old in {r.lhs for r in pres.system.rules}
    pairs = [(r.lhs, new if r.lhs == old else r.rhs) for r in pres.system.rules]
    return replace(pres, system=RewritingSystem.from_pairs(pres.system.alphabet, pairs))


def _check(argv, capsys) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    return code, json.loads(out.out)


# --- chinese.verify_rule_shape ----------------------------------------------


@pytest.mark.parametrize("lhs, rhs, reason", [
    # the last right-hand generator no longer starts with the head letter 2
    (("c_2", "c_1"), ("c_1",), None),
    # the head is kept, but index 1 became 0
    (("c_2", "c_1"), ("c_2",), "index multiset"),
    # head-led on both sides with the indices kept, but neither shape
    (("c_22", "c_1"), ("c_2", "c_21"), "unclassified head-led rule"),
])
def test_rule_shape_names_the_first_bad_rule(lhs, rhs, reason, monkeypatch):
    faulty = _with_rhs(chinese.completed_presentation(3), lhs, rhs)
    monkeypatch.setattr(chinese, "completed_presentation", lambda n: faulty)
    out = chinese.verify_rule_shape(3)
    assert out["result"] == "fail"
    witness = {"rule": list(lhs)}
    if reason is not None:
        witness["reason"] = reason
    assert out["witness"] == witness


# --- coherence.verify_cell_shapes_young / _chinese ---------------------------


def _cell(left: int, right: int) -> coherence.ThreeCell:
    """A cell on the source c.c' whose legs take `left` and `right` steps."""
    def leg(k: int) -> RewritePath:
        return RewritePath((0, 1), (RewriteStep(0, 0),) * k, (2,))
    return coherence.ThreeCell((0, 1), leg(left), leg(right))


@pytest.mark.parametrize("left, right", [(5, 2), (2, 5)])
def test_a_hexagon_leg_past_three_further_steps_fails(left, right, monkeypatch, capsys):
    cells = [_cell(2, 2), _cell(left, right)]
    monkeypatch.setattr(coherence, "squier_cells", lambda system, budget=None: cells)
    out = coherence.verify_cell_shapes_young(3)
    assert out["result"] == "fail"
    assert out["witness"] == {"source": [0, 1], "steps_after": 4}
    assert _check(["check", "cell-shapes", "--structure", "young", "--n", "3"],
                  capsys) == (1, out)


@pytest.mark.parametrize("left, right", [(6, 1), (1, 6), (5, 5)])
def test_a_decagon_leg_past_its_bound_fails(left, right, monkeypatch, capsys):
    cells = [_cell(3, 2), _cell(left, right)]
    monkeypatch.setattr(coherence, "strategy_cells", lambda pres, budget=None: cells)
    out = coherence.verify_cell_shapes_chinese(3)
    assert out["result"] == "fail"
    assert out["witness"] == {"source": [0, 1], "left": left, "right": right}
    assert _check(["check", "cell-shapes", "--structure", "chinese", "--n", "3"],
                  capsys) == (1, out)


@pytest.mark.parametrize("left, right", [(5, 4), (4, 5)])
def test_a_five_step_leg_beside_a_four_step_leg_passes(left, right, monkeypatch):
    monkeypatch.setattr(coherence, "strategy_cells",
                        lambda pres, budget=None: [_cell(left, right)])
    out = coherence.verify_cell_shapes_chinese(3)
    assert out["result"] == "pass" and out["max_leg_pair"] == [left, right]


# --- coherence.squier_cells ----------------------------------------------------


def _column_cut(n: int):
    """The column presentation whose first rule keeps only its first letter,
    so the legs of a branching through it end in two different normal forms."""
    pres = young.column_presentation(n)
    labels = pres.system.alphabet.labels
    lhs = tuple(labels[i] for i in pres.system.rules[0].lhs)
    return _with_rhs(pres, lhs, lhs[:1])


def test_a_non_confluent_branching_is_a_verified_failure(monkeypatch, capsys):
    faulty = _column_cut(3)
    # the first branching whose legs end apart, walked here on its own
    left, right = next((left.target, right.target)
                       for left, right in (branching_legs(faulty.system, b)
                                           for b in critical_branchings(faulty.system))
                       if left.target != right.target)
    with pytest.raises(coherence.CellFailure,
                       match=r"^non-confluent branching \(") as exc:
        coherence.squier_cells(faulty.system)
    bad = exc.value
    # recorded before this was a verified failure, as its exit-2 stderr line
    assert str(bad) == "non-confluent branching (0, 4, 3)"
    # the legs' normal forms, not a budget hit
    assert bad.witness == {"source": [0, 4, 3], "left": list(left), "right": list(right)}
    assert (0, 4, 3) in {b.source for b in critical_branchings(faulty.system)}
    assert left != right
    assert all(rewriting.is_normal_form(faulty.system, w) for w in (left, right))
    # a verified failure exits 1, never 2 (the usage-error code)
    monkeypatch.setattr(young, "column_presentation", lambda n: faulty)
    out = coherence.verify_cell_shapes_young(3)
    assert out["result"] == "fail"
    assert out["witness"] == bad.witness
    assert _check(["check", "cell-shapes", "--structure", "young", "--n", "3"],
                  capsys) == (1, out)
    assert main(["cells", "--structure", "young", "--n", "3", "--kind", "squier"]) == 1
    assert capsys.readouterr() == ("", "error: non-confluent branching (0, 4, 3)\n")


@pytest.mark.parametrize("faulty", [False, True], ids=["column", "column-faulty"])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("budget", [None, 0, 1, 2])
def test_the_three_failure_surfaces_agree(n, budget, faulty, monkeypatch, capsys):
    # `check confluence`, `check cell-shapes` and `cells --kind squier` walk
    # the same branchings and take their witness from `legs_witness`: they
    # fail together, on the same first source, with equal witnesses
    if faulty:
        bad = _column_cut(n)
        monkeypatch.setattr(young, "column_presentation", lambda n: bad)
    extra = ["--n", str(n)] + ([] if budget is None else ["--budget", str(budget)])
    code, confluence = _check(["check", "confluence", "--structure", "column", *extra], capsys)
    shapes_code, shapes = _check(["check", "cell-shapes", "--structure", "young", *extra],
                                 capsys)
    cells_code = main(["cells", "--structure", "young", "--kind", "squier", *extra])
    err = capsys.readouterr().err
    witness = confluence.get("witness")
    assert shapes.get("witness") == witness
    if witness is None:
        assert (code, shapes_code, shapes["result"], cells_code, err) == (0, 0, "pass", 0, "")
        return
    assert (code, shapes_code, cells_code) == (1, 1, 1)
    what = "budget exhausted on" if "reason" in witness else "non-confluent"
    assert err == f"error: {what} branching {tuple(witness['source'])}\n"


# --- coherence.strategy_cells --------------------------------------------------


def test_strategy_targets_that_miss_the_decomposition_raise(monkeypatch, capsys):
    # c_2.c_1 now rewrites to the other order, so the triples through it
    # end away from the canonical decomposition of their product
    faulty = _with_rhs(chinese.completed_presentation(3), ("c_2", "c_1"), ("c_1", "c_2"))
    with pytest.raises(coherence.CellFailure,
                       match=r"^strategy targets disagree on \(") as exc:
        coherence.strategy_cells(faulty)
    mismatch = exc.value
    source = tuple(mismatch.witness["source"])
    assert source in {b.source for b in critical_branchings(faulty.system)}
    # both normalizations and the decomposition, computed here on their own
    gen_set = faulty.generating
    expected = gen_set.word(gen_set.product(source))
    left = rewriting.normalize(faulty.system, source, rewriting.LEFTMOST)
    right = rewriting.normalize(faulty.system, source, rewriting.RIGHTMOST)
    assert left.reached_normal_form and right.reached_normal_form
    left, right = left.target, right.target
    assert str(mismatch) == (f"strategy targets disagree on {source}: {left}"
                             f" / {right} / expected {expected}")
    assert (left, right) != (expected,) * 2
    witness = {"source": list(source), "left": list(left), "right": list(right),
               "expected": list(expected)}
    assert mismatch.witness == witness
    # a verified failure exits 1, never 2 (the usage-error code)
    monkeypatch.setattr(chinese, "completed_presentation", lambda n: faulty)
    assert main(["cells", "--structure", "chinese", "--n", "3", "--kind", "strategy"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {mismatch}\n"
    out = coherence.verify_cell_shapes_chinese(3)
    assert out["result"] == "fail"
    assert out["witness"] == witness
    assert _check(["check", "cell-shapes", "--structure", "chinese", "--n", "3"],
                  capsys) == (1, out)


# --- young.verify_knuth_decomposition -------------------------------------------


def test_a_false_relation_fails_the_knuth_decomposition(monkeypatch):
    # 21 and 12 are two different tableaux, so their column words differ
    monkeypatch.setattr(young, "knuth_pairs",
                        lambda n, variant="standard": iter([((1, 0), (0, 1))]))
    out = young.verify_knuth_decomposition(3)
    assert out["result"] == "fail"
    assert out["witness"] == {"lhs": [2, 1], "rhs": [1, 2]}


# --- chinese.verify_path_bounds -------------------------------------------------


def test_a_path_past_five_steps_is_the_length_witness(monkeypatch, capsys):
    real = rewriting.strategy_paths
    padded = {}

    def strategy_paths(system, budget=None):
        # the first triple's leftmost path repeats its last step up to six
        for k, (word, left, right) in enumerate(real(system, budget)):
            if k == 0:
                steps = left.path.steps
                steps += (steps[-1],) * (6 - len(steps))
                left = NormalizeResult(RewritePath(word, steps, left.target), True)
                padded.update(word=word, right=len(right.path.steps))
            yield word, left, right

    monkeypatch.setattr(chinese, "strategy_paths", strategy_paths)
    out = chinese.verify_path_bounds(3)
    name = chinese.completed_presentation(3).system.alphabet.name
    labels = [name(i) for i in padded["word"]]
    assert out["result"] == "fail" and out["length_bounds"] == "fail"
    assert out["max_left"] == 6
    assert out["witness"] == {"triple": labels, "left": 6, "right": padded["right"]}
    assert _check(["check", "path-bounds", "--n", "3"], capsys) == (1, out)


# --- sds.check_axioms -----------------------------------------------------------


def _empty_reads_a_letter(n: int):
    """young-right, but the empty tableau reads as the letter 1."""
    structure = young.young_right(n)
    return replace(structure, read=lambda t: young.read_tableau(t) or (1,))


def test_an_empty_datum_with_a_nonempty_reading_fails_the_axioms(monkeypatch, capsys):
    out = check_axioms(_empty_reads_a_letter(2), 3)
    assert out["result"] == "fail"
    assert out["witness"] == {"axiom": "empty_reading"}
    entry = registry.STRUCTURES["young-right"]
    monkeypatch.setitem(registry.STRUCTURES, "young-right",
                        replace(entry, factory=_empty_reads_a_letter))
    assert _check(["check", "axioms", "--structure", "young-right", "--n", "2",
                   "--max-len", "3"], capsys) == (1, out)


# --- cli._termination ------------------------------------------------------------


def test_a_failing_certificate_names_its_rule(monkeypatch, capsys):
    # an order under which no letter is less: the first length-preserving
    # rule cannot be oriented
    monkeypatch.setitem(registry.TERMINATION_ORDERS, "column",
                        lambda pres: lambda a, b: False)
    rules = young.column_presentation(3).system.rules
    first = next(r for r in rules if len(r.rhs) == len(r.lhs))
    code, out = _check(["check", "termination", "--structure", "column", "--n", "3"], capsys)
    assert code == 1 and out["result"] == "fail"
    assert out["witness"] == {"lhs": list(first.lhs), "rhs": list(first.rhs)}
