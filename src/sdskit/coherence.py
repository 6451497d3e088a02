"""Coherence witnesses: pairs of parallel reduction paths per critical branching.

A three-cell records two rewriting paths with the same source and target.
Squier cells follow each branching leg with leftmost normalization.
Strategy cells pair the leftmost and rightmost normalizations of each
critical-branching source (`rewriting.strategy_paths`; for a presentation
built from a generating set, the two insertion orders).  Shape verifiers
bound the leg lengths for the column presentation of tableaux (hexagons)
and the completed staircase presentation (decagons).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chinese import completed_presentation
from .rewriting import (
    Branching,
    RewritePath,
    RewritingSystem,
    Word,
    branching_legs,
    critical_branchings,
    strategy_paths,
)
from .sds import Presentation, report
from .young import column_presentation


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


class BudgetExhausted(ValueError):
    """A normalization hit its step budget on the cell with this source word."""

    def __init__(self, what: str, source: Word):
        super().__init__(f"budget exhausted on {what} {source}")
        self.source = source


class StrategyMismatch(ValueError):
    """A normalization of the critical triple `source` missed the canonical
    decomposition `expected` of its product: a verified failure of the
    presentation, not bad input."""

    def __init__(self, source: Word, left: Word, right: Word, expected: Word):
        super().__init__(f"strategy targets disagree on {source}: "
                         f"{left} / {right} / expected {expected}")
        self.source, self.left, self.right, self.expected = source, left, right, expected


class NonConfluentBranching(ValueError):
    """The two legs of the critical branching at `source` end in the
    distinct normal forms `left` and `right`: a verified failure of the
    presentation, not bad input."""

    def __init__(self, source: Word, left: Word, right: Word):
        super().__init__(f"non-confluent branching {source}")
        self.source, self.left, self.right = source, left, right


def squier_cells(system: RewritingSystem, budget: int | None = None) -> list[ThreeCell]:
    """One cell per critical branching: each leg is the branching step
    followed by leftmost normalization.  The system must be convergent: a
    branching whose legs end apart raises `NonConfluentBranching`."""
    cells = []
    for branching in critical_branchings(system):
        left, right = branching_legs(system, branching, budget)
        if not (left.reached_normal_form and right.reached_normal_form):
            raise BudgetExhausted("branching", branching.source)
        if left.target != right.target:
            raise NonConfluentBranching(branching.source, left.target, right.target)
        cells.append(ThreeCell(branching.source, left.path, right.path, branching))
    return cells


def strategy_cells(presentation: Presentation, budget: int | None = None) -> list[ThreeCell]:
    """Leftmost-versus-rightmost cells on the critical triples of a
    presentation built from a generating set.

    Both paths must reach the canonical decomposition of the folded product
    of the three generators; a mismatch raises `StrategyMismatch`, since it
    contradicts the commutation the presentation was built from.
    """
    gen_set = presentation.generating
    cells = []
    for word, top, bottom in strategy_paths(presentation.system, budget):
        expected = gen_set.word(gen_set.product(word))
        if not (top.reached_normal_form and bottom.reached_normal_form):
            raise BudgetExhausted("triple", word)
        if top.target != expected or bottom.target != expected:
            raise StrategyMismatch(word, top.target, bottom.target, expected)
        cells.append(ThreeCell(word, top.path, bottom.path))
    return cells


def verify_cell_shapes_young(n: int, budget: int | None = None) -> dict:
    """Hexagon bound for the column presentation: at most three further
    steps per leg after the branching step."""
    try:
        cells = squier_cells(column_presentation(n).system, budget)
    except BudgetExhausted as exc:
        return _exhausted("young", n, exc)
    except NonConfluentBranching as exc:
        return report("cell-shapes", "young", {"n": n}, "fail",
                      witness={"source": list(exc.source), "left": list(exc.left),
                               "right": list(exc.right)})
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
        cells = strategy_cells(completed_presentation(n), budget=budget)
    except BudgetExhausted as exc:
        return _exhausted("chinese", n, exc)
    except StrategyMismatch as exc:
        return report("cell-shapes", "chinese", {"n": n}, "fail",
                      witness={"source": list(exc.source), "left": list(exc.left),
                               "right": list(exc.right), "expected": list(exc.expected)})
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


def _exhausted(family: str, n: int, exc: BudgetExhausted) -> dict:
    # a truncated normalization cannot support a bound on the cells' legs
    return report("cell-shapes", family, {"n": n}, "fail",
                  witness={"source": list(exc.source), "reason": "budget exhausted"})


def cell_to_json(cell: ThreeCell) -> dict:
    return {
        "source_word": list(cell.source),
        "left": [{"rule": s.rule_id, "pos": s.position} for s in cell.left_path.steps],
        "right": [{"rule": s.rule_id, "pos": s.position} for s in cell.right_path.steps],
    }
