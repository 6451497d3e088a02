"""Name-based registry of structures, presentations, datum formats, and the
per-family verifiers.  The entries of `LETTER_FAMILIES`, `PRESENTATIONS`,
`PROBE_PAIRS`, `TERMINATION_ORDERS`, `CELLS` and `PATH_BOUNDS`, and the
congruences of `STRUCTURES`, look up the functions of the other sdskit
modules when called, so rebinding such a function (as a tracer does)
takes effect.
The factories, `format_datum` and `parse_datum` of `STRUCTURES` are bound
at import: rebinding a module's function leaves them as they are, and a
tracer replaces the entries."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable

from . import chinese, coherence, extra, rewriting, young
from .rewriting import Alphabet, RewritingSystem, Rules, Word
from .sds import Presentation, StringDataStructure

_last = itemgetter(-1)

# the default bound of the variable-length families
MAX_LEN = 4


@dataclass(frozen=True)
class StructureEntry:
    """A structure's factory, the congruence it is checked against, and its
    datum text.  `congruence(n, L)` bounds a variable-length family by the
    word-length bound L; `parse_datum(text, n)` is the datum over the
    letters 1..n that `text` writes, or a ValueError."""
    factory: Callable[[int], StringDataStructure]
    congruence: Callable[[int, int], RewritingSystem]
    format_datum: Callable
    parse_datum: Callable


def _json_rows(text: str, key: str) -> tuple[dict, tuple[tuple[int, ...], ...]]:
    """The JSON object in `text` and its `key` field as rows of integers."""
    try:
        data = json.loads(text)
    except RecursionError:      # json's decoder recurses once per nesting level
        raise ValueError("datum text is nested too deeply") from None
    rows = data.get(key) if isinstance(data, dict) else None
    if not isinstance(rows, list) or not set(map(type, rows)) <= {list} or \
            not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise ValueError(f"expected a JSON object with a list of integer lists under {key!r}")
    return data, tuple(map(tuple, rows))


def _in_range(least: int, greatest: int, n: int) -> None:
    """Raise unless a datum's least and greatest letter, read off its
    validated shape, lie in 1..n."""
    if not 1 <= least <= greatest <= n:
        raise ValueError(f"datum has a letter out of range 1..{n}")


def _parse_tableau(text: str, n: int):
    # rows weakly increase and columns strictly: the corner is the least
    # entry, and the greatest ends a row
    t = young.parse_tableau(text)
    if t:
        _in_range(t[0][0], max(map(_last, t)), n)
    return t


def _format_staircase(t):
    return json.dumps({"n": len(t), "rows": chinese.staircase_display(t)})


def _parse_staircase(text: str, n: int):
    # a staircase of rank n holds only the letters 1..n
    if not text.strip():
        return chinese.empty_staircase(n)
    data, rows = _json_rows(text, "rows")
    if type(data.get("n")) is not int or data["n"] != n:
        raise ValueError(f"staircase rank {json.dumps(data.get('n'))} is not n = {n}")
    return chinese.staircase_from_display(n, rows)


def _format_qr(t):
    return json.dumps({"rows": t, "offsets": extra.qr_offsets(t)})


def _parse_qr(text: str, n: int):
    if not text.strip():
        return ()
    data, rows = _json_rows(text, "rows")
    if not extra.is_quasi_ribbon(rows):
        raise ValueError("not a valid quasi-ribbon tableau")
    # the offsets are derived from the rows: given ones must be those
    offsets = list(extra.qr_offsets(rows))
    if "offsets" in data and (data["offsets"] != offsets
                              or not set(map(type, data["offsets"])) <= {int}):
        raise ValueError(f"offsets {json.dumps(data['offsets'])} are not "
                         f"the rows' offsets {offsets}")
    # read row after row, the entries weakly increase
    if rows:
        _in_range(rows[0][0], rows[-1][-1], n)
    return rows


def _format_ps(t):
    return json.dumps({"columns_bottom_up": t})


def _parse_ps(text: str, n: int, variant: str):
    if not text.strip():
        return ()
    _, columns = _json_rows(text, "columns_bottom_up")
    if not extra.is_patience_tableau(columns, variant):
        raise ValueError("not a valid patience sorting tableau")
    # the bottoms rise from left to right and each column rises from its bottom
    if columns:
        _in_range(columns[0][0], max(map(_last, columns)), n)
    return columns


def _parse_tree(text: str, n: int):
    if not text.strip():
        return None
    tree, ordered, least, greatest = extra.parse_tree_bounds(text)
    if not ordered:
        raise ValueError("not a valid binary search tree")
    if tree is not None:
        _in_range(least, greatest, n)
    return tree


def _congruence(family: str, bound: Callable[[int], int] = lambda L: L):
    """The congruence `(n, L) -> system` of the letter family `family`, at
    the family bound `bound(L)`; the system is built when called."""
    return lambda n, L: build_presentation(family, n, bound(L)).system


STRUCTURES: dict[str, StructureEntry] = {
    "young-right": StructureEntry(young.young_right, _congruence("knuth"),
                                  young.format_tableau, _parse_tableau),
    "young-left": StructureEntry(young.young_left, _congruence("knuth"),
                                 young.format_tableau, _parse_tableau),
    "chinese-right": StructureEntry(chinese.chinese_right, _congruence("chinese-relations"),
                                    _format_staircase, _parse_staircase),
    "chinese-left": StructureEntry(chinese.chinese_left, _congruence("chinese-relations"),
                                   _format_staircase, _parse_staircase),
    "hypoplactic-right": StructureEntry(extra.hypoplactic_right, _congruence("hypoplactic"),
                                        _format_qr, _parse_qr),
    "hypoplactic-left": StructureEntry(extra.hypoplactic_left, _congruence("hypoplactic"),
                                       _format_qr, _parse_qr),
    "sylvester-left": StructureEntry(extra.sylvester_left,
                                     _congruence("sylvester", lambda L: max(0, L - 3)),
                                     extra.format_tree, _parse_tree),
    "lps-right": StructureEntry(extra.lps_right, _congruence("lps", lambda L: max(1, L - 2)),
                                _format_ps, lambda text, n: _parse_ps(text, n, extra.LPS)),
    "rps-right": StructureEntry(extra.rps_right, _congruence("rps", lambda L: max(1, L - 2)),
                                _format_ps, lambda text, n: _parse_ps(text, n, extra.RPS)),
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


# the rules of each letter family by presentation name, (n, L) -> the
# (lhs, rhs) pairs over the letters 1..n, made afresh by each call; L
# bounds the variable-length families
LETTER_FAMILIES: dict[str, Callable[[int, int], Iterable[tuple[Word, Word]]]] = {
    "knuth": lambda n, L: young.knuth_pairs(n),
    "knuth-reversed": lambda n, L: young.knuth_pairs(n, "reversed"),
    "chinese-relations": lambda n, L: chinese.chinese_pairs(n),
    "hypoplactic": lambda n, L: extra.hypoplactic_pairs(n),
    "sylvester": lambda n, L: extra.sylvester_pairs(n, L),
    "lps": lambda n, L: extra.lps_pairs(n, L),
    "rps": lambda n, L: extra.rps_pairs(n, L),
}


def _letter_presentation(name: str) -> Callable[[int, int], Presentation]:
    return lambda n, L: Presentation(RewritingSystem.from_pairs(
        Alphabet.letters(n), LETTER_FAMILIES[name](n, L)))


# presentations by name; L bounds the variable-length families
PRESENTATIONS: dict[str, Callable[[int, int], Presentation]] = {
    **{name: _letter_presentation(name) for name in LETTER_FAMILIES},
    "column": lambda n, L: young.column_presentation(n),
    "row": lambda n, L: young.row_presentation(n, L),
    "chinese-precolumn": lambda n, L: chinese.precolumn_presentation(n),
    "chinese-completed": lambda n, L: chinese.completed_presentation(n),
}

PRESENTATION_NAMES = tuple(PRESENTATIONS)

# the convergent presentation a family name stands for
FAMILY_PRESENTATION: dict[str, str] = {"young": "column", "chinese": "chinese-completed"}


# letter order of each presentation's termination witness, from the presentation
TERMINATION_ORDERS: dict[str, Callable[[Presentation], Callable[[int, int], bool]]] = {
    "column": lambda pres: young.column_length_less(pres),
    "chinese-precolumn": lambda pres: chinese.generator_less(pres.generating.structure.n),
    "chinese-completed": lambda pres: chinese.generator_less(pres.generating.structure.n),
}


# the cell-shape verifier of a presentation built from a generating set,
# (n, budget) -> report; its strategy cells read that set off the presentation
CELLS: dict[str, Callable[[int, int | None], dict]] = {
    "column": lambda n, budget: coherence.verify_cell_shapes_young(n, budget),
    "chinese-completed": lambda n, budget: coherence.verify_cell_shapes_chinese(n, budget),
}


# the reduction-path bound verifier of a presentation, (n, budget) -> report
PATH_BOUNDS: dict[str, Callable[[int, int | None], dict]] = {
    "chinese-completed": lambda n, budget: chinese.verify_path_bounds(n, budget),
}


def probe(name: str, n: int, max_len: int) -> dict:
    """The commutation probe of the family `name`'s right and left insertions."""
    right, left = lookup(PROBE_PAIRS, name, "probe pair")(n)
    return extra.commutation_probe(right, left, max_len)


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
    return builder(n, max_len if max_len is not None else MAX_LEN)


def presentation_rules(name: str, n: int, max_len: int | None = None) -> Rules:
    """The rules of the presentation `name`, checked.  A letter family's
    come from its `LETTER_FAMILIES` generator and are checked here, in one
    pass that holds a hash per rule, with no system built; any other
    presentation's are read off its system, which checked them when built."""
    L = max_len if max_len is not None else MAX_LEN
    family = LETTER_FAMILIES.get(name)
    if family is None:
        return build_presentation(name, n, L).system.rule_pairs
    rules = Rules(Alphabet.letters(n), lambda: family(n, L))
    rewriting.check_rule_pairs(rules.alphabet, rules)
    return rules
