"""Coherence witnesses: pairs of parallel reduction paths per critical branching.

A three-cell records two rewriting paths with the same source and target.
Squier cells follow each branching leg with leftmost normalization.
Strategy cells pair the leftmost and rightmost normalizations of each
critical-branching source (`rewriting.strategy_paths`; for a presentation
built from a generating set, the two insertion orders).  Shape verifiers
bound the leg lengths for the column presentation of tableaux (hexagons)
and the completed staircase presentation (decagons).  A cell that cannot
close raises `CellFailure`, whose witness (`legs_witness`, the one rule
that `check confluence` reports too) a shape verifier reports as its
failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chinese, young
from .rewriting import (
    Branching,
    NormalizeResult,
    RewritePath,
    RewritingSystem,
    Word,
    check_local_confluence,
    strategy_paths,
)
from .sds import Presentation, report


@dataclass(frozen=True)
class ThreeCell:
    source: Word
    left_path: RewritePath
    right_path: RewritePath
    branching: Branching | None = None

    def __post_init__(self):
        ok = (self.left_path.source == self.source == self.right_path.source
              and self.left_path.target == self.right_path.target)
        if not ok:
            raise ValueError("three-cell paths must share source and target")


class CellFailure(ValueError):
    """A cell that cannot close: a normalization that hit its step budget,
    or a verified failure of the presentation, not bad input.  The message
    is what `sdskit cells` prints; `witness` is what `check cell-shapes`
    reports."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


def legs_witness(source: Word, left: NormalizeResult, right: NormalizeResult,
                 expected: Word | None = None) -> dict | None:
    """None when both legs reached a normal form and end together (at
    `expected`, when given); otherwise the witness of the two legs: the
    source with `"reason": "budget exhausted"` when a leg hit its budget
    (its target is then no normal form), else the source and both targets,
    and `expected` when given."""
    if not (left.reached_normal_form and right.reached_normal_form):
        return {"source": list(source), "reason": "budget exhausted"}
    if left.target == right.target and expected in (None, left.target):
        return None
    witness = {"source": list(source), "left": list(left.target), "right": list(right.target)}
    if expected is not None:
        witness["expected"] = list(expected)
    return witness


def squier_cells(system: RewritingSystem, budget: int | None = None) -> list[ThreeCell]:
    """One cell per critical branching: each leg is the branching step
    followed by leftmost normalization.  The system must be convergent: a
    branching whose legs end apart, or a leg that hits the budget, raises
    `CellFailure`."""
    cells = []
    for branching, left, right in check_local_confluence(system, budget):
        source = branching.source
        witness = legs_witness(source, left, right)
        if witness:
            what = "budget exhausted on" if "reason" in witness else "non-confluent"
            raise CellFailure(f"{what} branching {source}", witness)
        cells.append(ThreeCell(source, left.path, right.path, branching))
    return cells


def strategy_cells(presentation: Presentation, budget: int | None = None) -> list[ThreeCell]:
    """Leftmost-versus-rightmost cells on the critical triples of a
    presentation built from a generating set.

    Both paths must reach the canonical decomposition of the folded product
    of the three generators; a mismatch raises `CellFailure`, since it
    contradicts the commutation the presentation was built from, and so
    does a path that hits the budget.
    """
    gen_set = presentation.generating
    cells = []
    for word, top, bottom in strategy_paths(presentation.system, budget):
        expected = gen_set.word(gen_set.product(word))
        witness = legs_witness(word, top, bottom, expected)
        if witness and "reason" in witness:
            raise CellFailure(f"budget exhausted on triple {word}", witness)
        if witness:
            raise CellFailure(f"strategy targets disagree on {word}: "
                              f"{top.target} / {bottom.target} / expected {expected}",
                              witness)
        cells.append(ThreeCell(word, top.path, bottom.path))
    return cells


def verify_cell_shapes_young(n: int, budget: int | None = None) -> dict:
    """Hexagon bound for the column presentation: at most three further
    steps per leg after the branching step."""
    try:
        cells = squier_cells(young.column_presentation(n).system, budget)
    except CellFailure as exc:
        return report("cell-shapes", "young", {"n": n}, "fail", witness=exc.witness)
    max_after = 0
    for cell in cells:
        for leg in (cell.left_path, cell.right_path):
            after = len(leg.steps) - 1
            max_after = max(max_after, after)
            if after > 3:
                return report("cell-shapes", "young", {"n": n}, "fail",
                              witness={"source": list(cell.source), "steps_after": after})
    return report("cell-shapes", "young", {"n": n}, "pass",
                  cells=len(cells), max_steps_after_branching=max_after)


def verify_cell_shapes_chinese(n: int, budget: int | None = None) -> dict:
    """Decagon bound for the completed staircase presentation: legs of
    length at most five, and a length-five leg forces the other leg to
    four or less."""
    try:
        cells = strategy_cells(chinese.completed_presentation(n), budget=budget)
    except CellFailure as exc:
        return report("cell-shapes", "chinese", {"n": n}, "fail", witness=exc.witness)
    max_pair = (0, 0)
    for cell in cells:
        ll, lr = len(cell.left_path.steps), len(cell.right_path.steps)
        if ll > 5 or lr > 5 or (ll == 5 and lr > 4) or (lr == 5 and ll > 4):
            return report("cell-shapes", "chinese", {"n": n}, "fail",
                          witness={"source": list(cell.source), "left": ll, "right": lr})
        if ll + lr > sum(max_pair):
            max_pair = (ll, lr)
    return report("cell-shapes", "chinese", {"n": n}, "pass",
                  cells=len(cells), max_leg_pair=list(max_pair))


def cell_to_json(cell: ThreeCell) -> dict:
    return {
        "source_word": cell.source,
        "left": [{"rule": s.rule_id, "pos": s.position} for s in cell.left_path.steps],
        "right": [{"rule": s.rule_id, "pos": s.position} for s in cell.right_path.steps],
    }
