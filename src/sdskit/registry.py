"""Name-based registry of structures, presentations, datum formats, and the
per-family data the verifiers need.  Table entries look their functions up
when called, so rebinding a module's function (as a tracer does) takes effect."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from . import chinese, coherence, extra, young
from .rewriting import RewritingSystem
from .sds import GeneratingSet, Presentation, StringDataStructure


@dataclass(frozen=True)
class StructureEntry:
    factory: Callable[[int], StringDataStructure]
    format_datum: Callable
    parse_datum: Callable


def _json_rows(text: str, key: str) -> tuple[dict, tuple[tuple[int, ...], ...]]:
    """The JSON object in `text` and its `key` field as rows of integers."""
    data = json.loads(text)
    rows = data.get(key) if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in rows):
        raise ValueError(f"expected a JSON object with a list of integer lists under {key!r}")
    return data, tuple(tuple(row) for row in rows)


def _format_staircase(t):
    return json.dumps(chinese.staircase_to_json(t))


def _parse_staircase(text: str, n: int):
    if not text.strip():
        return chinese.empty_staircase(n)
    data, rows = _json_rows(text, "rows")
    return chinese.staircase_from_json({"n": data.get("n"), "rows": rows})


def _format_qr(t):
    return json.dumps(extra.qr_to_json(t))


def _parse_qr(text: str, n: int):
    if not text.strip():
        return ()
    _, rows = _json_rows(text, "rows")
    if not extra.is_quasi_ribbon(rows):
        raise ValueError("not a valid quasi-ribbon tableau")
    return rows


def _format_ps(t):
    return json.dumps(extra.ps_to_json(t))


def _parse_ps(text: str, variant: str):
    if not text.strip():
        return ()
    _, columns = _json_rows(text, "columns_bottom_up")
    if not extra.is_patience_tableau(columns, variant):
        raise ValueError("not a valid patience sorting tableau")
    return columns


def _parse_tree(text: str, n: int):
    if not text.strip():
        return None
    tree = extra.parse_tree(text)
    if not extra.is_search_tree(tree):
        raise ValueError("not a valid binary search tree")
    return tree


STRUCTURES: dict[str, StructureEntry] = {
    "young-right": StructureEntry(young.young_right, young.format_tableau,
                                  lambda text, n: young.parse_tableau(text)),
    "young-left": StructureEntry(young.young_left, young.format_tableau,
                                 lambda text, n: young.parse_tableau(text)),
    "chinese-right": StructureEntry(chinese.chinese_right, _format_staircase, _parse_staircase),
    "chinese-left": StructureEntry(chinese.chinese_left, _format_staircase, _parse_staircase),
    "hypoplactic-right": StructureEntry(extra.hypoplactic_right, _format_qr, _parse_qr),
    "hypoplactic-left": StructureEntry(extra.hypoplactic_left, _format_qr, _parse_qr),
    "sylvester-left": StructureEntry(extra.sylvester_left, extra.format_tree, _parse_tree),
    "lps-right": StructureEntry(extra.lps_right, _format_ps,
                                lambda text, n: _parse_ps(text, extra.LPS)),
    "rps-right": StructureEntry(extra.rps_right, _format_ps,
                                lambda text, n: _parse_ps(text, extra.RPS)),
}

COMMUTATION_PAIRS: dict[str, tuple[str, str]] = {
    "young": ("young-right", "young-left"),
    "chinese": ("chinese-right", "chinese-left"),
    "hypoplactic": ("hypoplactic-right", "hypoplactic-left"),
}

# right and left insertion whose commutation is probed, by family
PROBE_PAIRS: dict[str, Callable[[int], tuple[StringDataStructure, StringDataStructure]]] = {
    "hypoplactic": lambda n: (get_structure("hypoplactic-right", n),
                              get_structure("hypoplactic-left", n)),
    "sylvester": lambda n: _with_derived_right(get_structure("sylvester-left", n)),
}


def _with_derived_right(left: StringDataStructure):
    return extra.derived_right_insertion(left), left


# congruence paired with each structure for cross-section style checks;
# bounds for the variable-length families come from the word-length bound
DEFAULT_CONGRUENCE: dict[str, Callable[[int, int], RewritingSystem]] = {
    "young-right": lambda n, L: young.knuth_srs(n),
    "young-left": lambda n, L: young.knuth_srs(n),
    "chinese-right": lambda n, L: chinese.chinese_relations(n),
    "chinese-left": lambda n, L: chinese.chinese_relations(n),
    "hypoplactic-right": lambda n, L: extra.hypoplactic_srs(n),
    "hypoplactic-left": lambda n, L: extra.hypoplactic_srs(n),
    "sylvester-left": lambda n, L: extra.sylvester_srs(n, max(0, L - 3)),
    "lps-right": lambda n, L: extra.lps_srs(n, max(1, L - 2)),
    "rps-right": lambda n, L: extra.rps_srs(n, max(1, L - 2)),
}

# presentations by name; L bounds the variable-length families
PRESENTATIONS: dict[str, Callable[[int, int], Presentation]] = {
    "knuth": lambda n, L: Presentation(young.knuth_srs(n), None),
    "knuth-reversed": lambda n, L: Presentation(young.knuth_srs(n, "reversed"), None),
    "column": lambda n, L: young.column_presentation(n),
    "row": lambda n, L: young.row_presentation(n, L),
    "chinese-relations": lambda n, L: Presentation(chinese.chinese_relations(n), None),
    "chinese-precolumn": lambda n, L: chinese.precolumn_presentation(n),
    "chinese-completed": lambda n, L: chinese.completed_presentation(n),
    "hypoplactic": lambda n, L: Presentation(extra.hypoplactic_srs(n), None),
    "sylvester": lambda n, L: Presentation(extra.sylvester_srs(n, L), None),
    "lps": lambda n, L: Presentation(extra.lps_srs(n, L), None),
    "rps": lambda n, L: Presentation(extra.rps_srs(n, L), None),
}

PRESENTATION_NAMES = tuple(PRESENTATIONS)

# the convergent presentation a family name stands for
FAMILY_PRESENTATION: dict[str, str] = {"young": "column", "chinese": "chinese-completed"}


def _generator_order(pres: Presentation, n: int) -> Callable[[int, int], bool]:
    gens = chinese.qn_generators(n)
    return lambda a, b: chinese.order_ch_less(gens[a], gens[b])


# letter order of each presentation's termination certificate, from (pres, n)
TERMINATION_ORDERS: dict[str, Callable[[Presentation, int], Callable[[int, int], bool]]] = {
    "column": lambda pres, n: young.column_length_less(pres),
    "chinese-precolumn": _generator_order,
    "chinese-completed": _generator_order,
}


# the generating set behind a presentation's strategy cells, and the
# verifier of its cell shapes, (n, budget) -> report
@dataclass(frozen=True)
class CellFamily:
    generating_set: Callable[[int], GeneratingSet]
    verify_shapes: Callable[[int, int | None], dict]


CELLS: dict[str, CellFamily] = {
    "column": CellFamily(lambda n: young.column_generating_set(n),
                         lambda n, budget: coherence.verify_cell_shapes_young(n, budget)),
    "chinese-completed": CellFamily(
        lambda n: chinese.qn_generating_set(n),
        lambda n, budget: coherence.verify_cell_shapes_chinese(n, budget)),
}


def lookup(table: dict, name: str, what: str):
    """The entry of `table` for `name`, or for the presentation the family
    `name` stands for; KeyError naming `what` if neither is registered."""
    key = name if name in table else FAMILY_PRESENTATION.get(name)
    if key not in table:
        raise KeyError(f"no {what} registered for {name!r}")
    return table[key]


def get_structure(name: str, n: int) -> StringDataStructure:
    return lookup(STRUCTURES, name, "structure").factory(n)


def build_presentation(name: str, n: int, max_len: int | None = None) -> Presentation:
    """Presentations by name; max_len bounds the variable-length families."""
    builder = lookup(PRESENTATIONS, name, "presentation")
    return builder(n, max_len if max_len is not None else 4)
