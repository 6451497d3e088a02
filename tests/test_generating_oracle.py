"""Test-only oracle for the generating-set layer.

The generating-set code as it was before `GeneratingSet` indexed, multiplied
and read back its generators (a `star` fold per product, a reading ->
generator map per caller, a `strict` flag for truncated sets), copied
verbatim, is compared with `sdskit` on every registered structure, on the
column, staircase and row generating sets with and without each single
generator, on a staircase set with one decomposition swapped and on a column
set whose constructor is no section of the reading, so that every
presentation, report and cell must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from sdskit import coherence, registry, sds, young
from sdskit.chinese import gen_staircase, qn_generating_set
from sdskit.rewriting import (
    LEFTMOST,
    RIGHTMOST,
    Alphabet,
    RewritingSystem,
    critical_branchings,
    normalize,
)
from sdskit.sds import (
    FULL,
    MINIMAL,
    READINGS,
    GeneratingSet,
    StringDataStructure,
    _letters_to_indices,
    datum_label,
    reachable_set,
    report,
)
from sdskit.young import (
    column_generating_set,
    columns,
    enumerate_columns,
    read_tableau,
    row_generating_set,
    young_right,
    young_right_mirror,
)

# --- the generating-set code before `GeneratingSet.index/word/product`, verbatim ---

GENERATING = "generating"


@dataclass(frozen=True)
class Presentation:
    """A presentation as this oracle builds it: the system and the data its
    letters stand for (None over plain letters)."""

    system: RewritingSystem
    generators: tuple | None


def build_srs(structure: StringDataStructure, mode: str, *, bound: int | None = None,
              generating: GeneratingSet | None = None) -> Presentation:
    if mode == GENERATING:
        if generating is None:
            raise ValueError("generating mode needs a generating set")
        return _build_generating(structure, generating)
    if bound is None:
        raise ValueError(f"{mode} mode needs a bound")
    reach = reachable_set(structure, bound)
    data = [d for d in reach.data if structure.read(d)]  # the unit is not a generator
    keys = {structure.read(d): i for i, d in enumerate(data)}
    labels = tuple(datum_label(structure, d) for d in data)
    alphabet = Alphabet(labels)
    pairs = []
    if mode == FULL:
        for i, d in enumerate(data):
            for j, e in enumerate(data):
                key = structure.read(structure.star(d, e))
                if key in keys:
                    pairs.append(((i, j), (keys[key],)))
    elif mode == MINIMAL:
        for i, d in enumerate(data):
            for x in range(1, structure.n + 1):
                key = structure.read(structure.star(d, structure.iota(x)))
                if key in keys:
                    pairs.append(((i, keys[(x,)]), (keys[key],)))
    elif mode == READINGS:
        letter_alphabet = Alphabet(tuple(str(x) for x in range(1, structure.n + 1)))
        seen = set()
        for d in data:
            for e in data:
                lhs = structure.read(d) + structure.read(e)
                rhs = structure.read(structure.star(d, e))
                if lhs != rhs and (lhs, rhs) not in seen:
                    seen.add((lhs, rhs))
        pairs = sorted((_letters_to_indices(l), _letters_to_indices(r)) for l, r in seen)
        return Presentation(RewritingSystem.from_pairs(letter_alphabet, pairs), None)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Presentation(RewritingSystem.from_pairs(alphabet, pairs), tuple(data))


def _build_generating(structure: StringDataStructure, gen: GeneratingSet,
                      strict: bool = True) -> Presentation:
    index = {structure.read(c): i for i, c in enumerate(gen.generators)}
    labels = tuple(datum_label(structure, c) for c in gen.generators)
    alphabet = Alphabet(labels)
    pairs = []
    for i, c in enumerate(gen.generators):
        for j, e in enumerate(gen.generators):
            product = structure.star(c, e)
            factors = gen.decompose(product)
            if any(structure.read(f) not in index for f in factors):
                if strict:
                    raise ValueError(f"product of generators {i},{j} leaves the set")
                continue  # truncated generating set; skip the out-of-range product
            rhs = tuple(index[structure.read(f)] for f in factors)
            if (i, j) != rhs:
                pairs.append(((i, j), rhs))
    return Presentation(RewritingSystem.from_pairs(alphabet, pairs), tuple(gen.generators))


def row_presentation(n: int, max_len: int) -> Presentation:
    gen = row_generating_set(n, max_len)
    structure = gen.structure
    index = {structure.read(c): i for i, c in enumerate(gen.generators)}
    labels = tuple(datum_label(structure, c) for c in gen.generators)
    pairs = []
    for i, c in enumerate(gen.generators):
        for j, e in enumerate(gen.generators):
            if len(c[0]) + len(e[0]) > max_len:
                continue
            product = structure.star(c, e)
            rhs = tuple(index[structure.read(f)] for f in gen.decompose(product))
            if (i, j) != rhs:
                pairs.append(((i, j), rhs))
    return Presentation(RewritingSystem.from_pairs(Alphabet(labels), pairs),
                        tuple(gen.generators))


def validate_generating_set(structure: StringDataStructure, gen: GeneratingSet,
                            max_len: int) -> dict:
    params = {"n": structure.n, "max_len": max_len}
    name = structure.name
    gen_reads = {structure.read(c) for c in gen.generators}
    by_read = {structure.read(c): c for c in gen.generators}
    for x in range(1, structure.n + 1):
        if structure.read(structure.iota(x)) not in gen_reads:
            return report("generating-set", name, params, "fail",
                          witness={"condition": "letters", "letter": x})
    induced = _build_generating(structure, gen, strict=False)
    gen_index = {structure.read(c): i for i, c in enumerate(gen.generators)}
    from sdskit.rewriting import is_normal_form
    reach = reachable_set(structure, max_len)
    max_valid = 1
    for key in sorted(reach.by_read):
        d = reach.by_read[key]
        dec = gen.decompose(d)
        if not _valid_decomposition(structure, gen_reads, d, dec):
            return report("generating-set", name, params, "fail",
                          witness={"condition": "decomposition", "reading": list(key)})
        factorizations = _valid_factorizations(structure, by_read, d, key, gen_reads)
        max_valid = max(max_valid, len(factorizations))
        normal = [f for f in factorizations
                  if is_normal_form(induced.system,
                                    tuple(gen_index[structure.read(c)] for c in f))]
        if len(normal) != 1 or normal[0] != dec:
            return report("generating-set", name, params, "fail",
                          witness={"condition": "uniqueness", "reading": list(key),
                                   "valid": len(factorizations),
                                   "normal": len(normal)})
    return report("generating-set", name, params, "pass",
                  data_count=len(reach.by_read), max_valid_factorizations=max_valid)


def _valid_decomposition(structure, gen_reads, d, dec) -> bool:
    if any(structure.read(c) not in gen_reads for c in dec):
        return False
    reading = ()
    product = structure.empty
    for c in dec:
        reading += structure.read(c)
        product = structure.star(product, c)
    if reading != structure.read(d) or product != d:
        return False
    for a, b in zip(dec, dec[1:]):
        if structure.read(structure.star(a, b)) in gen_reads:
            return False
    return True


def _valid_factorizations(structure, by_read, d, key, gen_reads) -> list[tuple]:
    # factorizations of the reading over generator readings, filtered by
    # the adjacent-product and total-product conditions
    out = []
    stack: list[tuple[int, tuple]] = [(0, ())]
    while stack:
        pos, factors = stack.pop()
        if pos == len(key):
            dec = tuple(by_read[r] for r in factors)
            if _valid_decomposition(structure, gen_reads, d, dec):
                out.append(dec)
            continue
        for r in by_read:
            if key[pos:pos + len(r)] == r:
                stack.append((pos + len(r), factors + (r,)))
    return out


def strategy_cells(presentation: sds.Presentation, gen_set: GeneratingSet, triples=None,
                   budget: int | None = None) -> list[coherence.ThreeCell]:
    system = presentation.system
    structure = gen_set.structure
    gens = gen_set.generators
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
        cells.append(coherence.ThreeCell(word, top.path, bottom.path))
    return cells


# --- comparisons ----------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """A function's value, or the kind and message of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:       # coherence.CellFailure is one
        return ("ValueError", str(exc))
    except KeyError as exc:
        return ("KeyError", str(exc))


def _as_oracle(build):
    """`build` returning its presentation as the oracle's: the system and the
    generators of its generating set, so that both are compared."""
    def call(*args, **kwargs):
        pres = build(*args, **kwargs)
        gen = pres.generating
        return Presentation(pres.system, None if gen is None else tuple(gen.generators))
    return call


def _broken_reading(n):
    # the reading drops its last letter: single letters read as the empty word
    base = young_right(n)
    return StringDataStructure("broken", n, base.empty, base.insert_one,
                               lambda t: read_tableau(t)[:-1], base.direction)


STRUCTURES = {**{name: entry.factory for name, entry in registry.STRUCTURES.items()},
              "young-right-mirror": young_right_mirror, "broken-reading": _broken_reading}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_reachable_data_modes_match_the_oracle(name):
    for n in (1, 2, 3):
        structure = STRUCTURES[name](n)
        for bound in range(5):
            for mode in (FULL, MINIMAL, READINGS):
                assert _outcome(_as_oracle(sds.build_srs), structure, mode, bound=bound) == \
                    _outcome(build_srs, structure, mode, bound=bound)


def test_build_srs_usage_errors_match_the_oracle():
    s = young_right(2)
    assert _outcome(_as_oracle(sds.build_srs), s, "bogus", bound=2) == \
        _outcome(build_srs, s, "bogus", bound=2)


def _without(gen, k):
    return GeneratingSet(gen.structure, gen.generators[:k] + gen.generators[k + 1:],
                         gen.decompose)


def _qn_with_swapped_run(n):
    # decomposes the diagonal run (2,2,2) as c_22 . c_2, not c_2 . c_22:
    # both factorizations are valid
    gen = qn_generating_set(n)
    s = gen.structure

    def decompose(t):
        if s.read(t) == (2, 2, 2):
            return (gen_staircase((2, 2), n), gen_staircase((2, 0), n))
        return gen.decompose(t)
    return GeneratingSet(s, gen.generators, decompose)


SETS = {"column": lambda n, L: column_generating_set(n),
        "qn": lambda n, L: qn_generating_set(n),
        "row": row_generating_set}


def _same_generating(gen, max_len):
    s = gen.structure
    assert sds.validate_generating_set(gen, max_len) == \
        validate_generating_set(s, gen, max_len)
    assert _outcome(_as_oracle(sds.generating_presentation), gen) == \
        _outcome(build_srs, s, GENERATING, generating=gen)
    # with a bound: the pairs of at most max_len letters of the truncated
    # (non-strict) presentation, which skips the products that leave the set
    old = _build_generating(s, gen, strict=False)
    size = [len(s.read(c)) for c in gen.generators]
    kept = [(r.lhs, r.rhs) for r in old.system.rules
            if size[r.lhs[0]] + size[r.lhs[1]] <= max_len]
    new = _as_oracle(sds.generating_presentation)(gen, max_len)
    assert [(r.lhs, r.rhs) for r in new.system.rules] == kept
    assert (new.system.alphabet, new.generators) == (old.system.alphabet, old.generators)


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("max_len", [0, 3, 6])
def test_generating_sets_match_the_oracle(name, n, max_len):
    gen = SETS[name](n, max_len)
    _same_generating(gen, max_len)
    # the oracle multiplies all pairs of the 83 (n=3) and 209 (n=4) rows of
    # at most 6 letters on every call, 0.2-1.1 s a drop, so those sets are
    # compared whole only
    if name != "row" or max_len < 6 or n <= 2:
        for k in range(len(gen.generators)):
            _same_generating(_without(gen, k), max_len)


@pytest.mark.parametrize("n", [3, 4])
def test_a_decomposition_that_is_not_irreducible_matches_the_oracle(n):
    # alone, the swapped run is consistent with the rules it induces; the
    # first datum that sees the swap is c_1 . c_2 . c_22
    gen = _qn_with_swapped_run(n)
    reports = {}
    for max_len in (3, 4, 6):
        reports[max_len] = sds.validate_generating_set(gen, max_len)
        assert reports[max_len] == validate_generating_set(gen.structure, gen, max_len)
    assert reports[3]["result"] == "pass"
    assert reports[4]["witness"] == {"condition": "uniqueness", "reading": [1, 2, 2, 2],
                                     "valid": 2, "normal": 1}


def _columns_on_reversed_reading(n):
    # the reversed column reading is injective, but the constructor is no
    # section of it; the columns, right to left, still concatenate to it
    base = young_right(n)
    s = StringDataStructure("reversed", n, base.empty, base.insert_one,
                            lambda t: read_tableau(t)[::-1], base.direction)
    return GeneratingSet(s, tuple(enumerate_columns(n)),
                         lambda t: tuple(tuple((x,) for x in col) for col in columns(t))[::-1])


def test_a_constructor_that_is_no_section_matches_the_oracle():
    gen = _columns_on_reversed_reading(3)
    for max_len in range(5):
        _same_generating(gen, max_len)
    # only the product of the canonical factorization tells this apart
    assert sds.validate_generating_set(gen, 4)["witness"] == \
        {"condition": "decomposition", "reading": [1, 1, 1, 2]}


def test_dropped_generators_reach_the_failure_paths():
    # the comparisons above only mean something if these paths are taken
    conditions = {sds.validate_generating_set(g, 3)
                  .get("witness", {}).get("condition")
                  for name in ("column", "qn") for n in (2, 3)
                  for gen in [SETS[name](n, 3)]
                  for g in (_without(gen, k) for k in range(len(gen.generators)))}
    assert {"letters", "decomposition"} <= conditions
    # without the column c_21, the product c_2.c_1 leaves the set: the
    # unbounded build raises, the bounded one skips it
    dropped = _without(column_generating_set(3), 3)
    c_1, c_2 = 0, 1
    assert _outcome(sds.generating_presentation, dropped)[0] == "ValueError"
    lhs = {r.lhs for r in sds.generating_presentation(dropped, 3).system.rules}
    assert (c_1, c_2) not in lhs and (c_2, c_1) not in lhs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_presentation_matches_the_oracle(n):
    for max_len in range(7):
        assert _as_oracle(young.row_presentation)(n, max_len) == row_presentation(n, max_len)


@pytest.mark.parametrize("name", ["column", "chinese-completed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_strategy_cells_match_the_oracle(name, n):
    pres = registry.build_presentation(name, n)
    gen = pres.generating
    # the oracle multiplies the generators of the set the presentation names
    set_name = {"column": "column", "chinese-completed": "qn"}[name]
    assert gen.generators == SETS[set_name](n, 0).generators
    for budget in (None, 0, 1, 3):
        assert _outcome(coherence.strategy_cells, pres, budget=budget) == \
            _outcome(strategy_cells, pres, gen, budget=budget)
