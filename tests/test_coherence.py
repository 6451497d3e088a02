"""Three-cells: boundary invariants, counts, strategy pairs, and leg shapes."""

from dataclasses import replace

import pytest

from sdskit.chinese import completed_presentation
from sdskit.coherence import (
    ThreeCell,
    cell_to_json,
    squier_cells,
    strategy_cells,
    verify_cell_shapes_chinese,
    verify_cell_shapes_young,
)
from sdskit.registry import build_presentation
from sdskit.rewriting import (
    LEFTMOST,
    RIGHTMOST,
    Alphabet,
    RewritingSystem,
    critical_branchings,
    normalize,
    replay,
)
from sdskit.sds import generating_presentation
from sdskit.young import column_generating_set, column_presentation, read_tableau


def test_squier_cells_empty_without_branchings():
    rs = RewritingSystem.from_pairs(Alphabet(("a", "b", "c", "d")),
                                    [((0, 1), (0,)), ((2, 3), (2,))])
    assert squier_cells(rs) == []


def test_squier_cells_boundary_and_count_column():
    pres = column_presentation(3)
    cells = squier_cells(pres.system)
    assert len(cells) == len(critical_branchings(pres.system))
    for cell in cells:
        assert replay(pres.system, cell.left_path) == cell.left_path.target
        assert replay(pres.system, cell.right_path) == cell.right_path.target
        assert cell.left_path.target == cell.right_path.target


def test_squier_cells_boundary_and_count_chinese():
    pres = completed_presentation(3)
    cells = squier_cells(pres.system)
    assert len(cells) == len(critical_branchings(pres.system))
    for cell in cells:
        assert cell.left_path.steps[0] == cell.branching.left
        assert cell.right_path.steps[0] == cell.branching.right


def test_three_cell_rejects_mismatched_paths():
    pres = completed_presentation(2)
    cells = squier_cells(pres.system)
    good = cells[0]
    with pytest.raises(ValueError):
        ThreeCell(good.source + (0,), good.left_path, good.right_path)


def test_strategy_cells_chinese_close():
    pres = completed_presentation(3)
    cells = strategy_cells(pres)
    assert len(cells) == len(critical_branchings(pres.system))
    for cell in cells:
        assert cell.left_path.target == cell.right_path.target


def test_strategy_cells_young_worked_triple():
    # the three columns of the five-row example reach the same reading on
    # both strategies
    pres = column_presentation(5)
    gen = pres.generating
    idx = {read_tableau(c): i for i, c in enumerate(pres.generating.generators)}
    triple = (idx[(5, 3, 1)], idx[(5, 4, 3, 1)], idx[(3, 2, 1)])
    targets = {normalize(pres.system, triple, strategy).target
               for strategy in (LEFTMOST, RIGHTMOST)}
    assert targets == {gen.word(gen.product(triple))}
    (target,) = targets
    assert [pres.system.alphabet.name(i) for i in target] == ["c_54321", "c_531", "c_31"]


def test_strategy_cells_need_a_generating_set():
    # a plain ValueError: a CellFailure is a verified failure, which the
    # CLI would map to exit 1
    with pytest.raises(ValueError, match="^strategy cells need a presentation built "
                                         "from a generating set$") as caught:
        strategy_cells(build_presentation("knuth", 3))
    assert type(caught.value) is ValueError


def test_squier_and_strategy_cells_share_endpoints():
    pres = completed_presentation(3)
    squier = {c.source: c.left_path.target for c in squier_cells(pres.system)}
    strategy = {c.source: c.left_path.target
                for c in strategy_cells(pres)}
    assert squier == strategy


def test_cell_shapes_young():
    assert verify_cell_shapes_young(1)["cells"] == 0
    for n in (2, 3):
        report = verify_cell_shapes_young(n)
        assert report["result"] == "pass"
        assert report["max_steps_after_branching"] <= 3


def test_cell_shapes_chinese():
    for n in (2, 3):
        report = verify_cell_shapes_chinese(n)
        assert report["result"] == "pass"
        assert max(report["max_leg_pair"]) <= 5


def test_cell_json_shape():
    pres = completed_presentation(2)
    cell = squier_cells(pres.system)[0]
    data = cell_to_json(cell)
    assert set(data) == {"source_word", "left", "right"}
    assert all(set(step) == {"rule", "pos"} for step in data["left"] + data["right"])


def test_each_datum_is_decomposed_once():
    # the presentation asks for the word of every generator pair's product,
    # and the strategy cells for that of every critical triple's product;
    # many of them are the same datum
    gen = column_generating_set(5)
    seen = []

    def decompose(d):
        seen.append(d)
        return gen.decompose(d)

    counted = replace(gen, decompose=decompose)
    assert strategy_cells(generating_presentation(counted))
    assert seen and len(seen) == len(set(seen))
