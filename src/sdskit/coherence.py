"""Coherence witnesses: pairs of parallel reduction paths per critical branching.

A three-cell records two rewriting paths with the same source and target.
Squier cells follow each branching leg with leftmost normalization; the
strategy cells pair the full leftmost path against the full rightmost one,
which for the presentations built from a generating set realises the two
insertion orders.  Shape verifiers bound the leg lengths for the column
presentation of tableaux (hexagons) and the completed staircase
presentation (decagons).
"""

from __future__ import annotations

from dataclasses import dataclass

from .rewriting import (
    LEFTMOST,
    RIGHTMOST,
    Branching,
    RewritePath,
    RewritingSystem,
    Word,
    apply_step,
    critical_branchings,
    normalize,
)
from .sds import GeneratingSet, Presentation, report


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


def squier_cells(system: RewritingSystem, budget: int | None = None) -> list[ThreeCell]:
    """One cell per critical branching: each leg is the branching step
    followed by leftmost normalization.  The system must be convergent."""
    cells = []
    for branching in critical_branchings(system):
        legs = []
        for step in (branching.left, branching.right):
            after = apply_step(system, branching.source, step)
            res = normalize(system, after, LEFTMOST, budget)
            if not res.reached_normal_form:
                raise ValueError(f"budget exhausted on branching {branching.source}")
            legs.append(RewritePath(branching.source, (step,) + res.path.steps,
                                    res.target))
        left, right = legs
        if left.target != right.target:
            raise ValueError(f"non-confluent branching {branching.source}")
        cells.append(ThreeCell(branching.source, left, right, branching))
    return cells


def strategy_cells(presentation: Presentation, gen_set: GeneratingSet, triples=None,
                   budget: int | None = None) -> list[ThreeCell]:
    """Leftmost-versus-rightmost cells on the critical triples.

    Both paths must reach the canonical decomposition of the folded product
    of the three generators; a mismatch is fatal since it contradicts the
    commutation the presentation was built from.
    """
    system = presentation.system
    structure = gen_set.structure
    gens = presentation.generators
    if triples is None:
        triples = [b.source for b in critical_branchings(system)]
    index = {structure.read(g): i for i, g in enumerate(gens)}
    cells = []
    for word in triples:
        product = structure.empty
        for i in word:
            product = structure.star(product, gens[i])
        expected = tuple(index[structure.read(f)] for f in gen_set.decompose(product))
        top = normalize(system, word, LEFTMOST, budget)
        bottom = normalize(system, word, RIGHTMOST, budget)
        if not (top.reached_normal_form and bottom.reached_normal_form):
            raise ValueError(f"budget exhausted on triple {word}")
        if top.target != expected or bottom.target != expected:
            raise ValueError(f"strategy targets disagree on {word}: "
                             f"{top.target} / {bottom.target} / expected {expected}")
        cells.append(ThreeCell(word, top.path, bottom.path))
    return cells


def verify_cell_shapes_young(n: int, budget: int | None = None) -> dict:
    """Hexagon bound for the column presentation: at most three further
    steps per leg after the branching step."""
    from .young import column_presentation
    pres = column_presentation(n)
    cells = squier_cells(pres.system, budget)
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
    from .chinese import completed_presentation, qn_generating_set
    pres = completed_presentation(n)
    cells = strategy_cells(pres, qn_generating_set(n), budget=budget)
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
        "source_word": list(cell.source),
        "left": [{"rule": s.rule_id, "pos": s.position} for s in cell.left_path.steps],
        "right": [{"rule": s.rule_id, "pos": s.position} for s in cell.right_path.steps],
    }
