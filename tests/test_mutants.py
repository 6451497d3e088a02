"""Mutation gate: faults that the tests must keep noticing.

Each row patches one fault into one function of an sdskit module or
class, or into one entry of a registry table, in process, and names the
change that first ran that mutant (by its `CHANGES.md` heading, or the
ROADMAP item that measured it) and the tests that must notice it.  A
killer must call a module's function through its module, since a name
imported before the patch is not patched; a class attribute or a table
entry is reached through any name for the class or the table.  With the
fault in place, every named test must fail an assertion or a
`pytest.raises`; a mutant that some named test lets pass survives, and
fails the gate.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import islice
from types import ModuleType

import pytest

from sdskit import chinese, cli, coherence, extra, registry, rewriting, sds, young
from sdskit.rewriting import RewriteStep
import test_branching_oracle as oracle
import test_build_stream as build
import test_chinese
import test_cli
import test_compatibility_oracle as compatibility
import test_congruence_oracle as congruence
import test_family_oracle as family
import test_insertion_oracle as insertion
import test_registry
import test_rewriting
import test_sds
import test_table_oracle as table
import test_young

_rules_by_first_letter = rewriting._rules_by_first_letter


def _last_step_forward(system, word):
    """`_last_step` reading each letter's rules forward: the lowest id at
    the rightmost match."""
    table = rewriting._rules_by_first_letter(system)
    for i in range(len(word) - 1, -1, -1):
        for rule_id, lhs in table.get(word[i], ()):
            if word[i:i + len(lhs)] == lhs:
                return RewriteStep(rule_id, i)
    return None


def _table_out_of_id_order(system):
    """`_rules_by_first_letter` with each letter's rules in falling id order."""
    return {letter: pairs[::-1] for letter, pairs in _rules_by_first_letter(system).items()}


def _schensted_right_bisect_left(t, x):
    """`young.schensted_right` bumping the first entry >= x, not > x."""
    rows = list(t)
    cur = x
    for i, row in enumerate(rows):
        if cur >= row[-1]:
            rows[i] = row + (cur,)
            return tuple(rows)
        k = bisect_left(row, cur)
        rows[i] = row[:k] + (cur,) + row[k + 1:]
        cur = row[k]
    rows.append((cur,))
    return tuple(rows)


def _witness_passing_ties(system, letter_less):
    """`termination_witness` passing every rule that keeps its length,
    whatever its first letters."""
    return next((rule for rule in system.rules if len(rule.rhs) > len(rule.lhs)), None)


def _hypoplactic_left_bisect_right(t, x):
    """`extra.hypoplactic_left_insert` splitting its row after the entries
    equal to x, not before them."""
    i = bisect_left(t, x, key=extra._last)
    if i == len(t):
        return t + ((x,),)
    row = t[i]
    j = bisect_right(row, x)
    return t[:i] + ((row[:j],) if j else ()) + ((x,) + row[j:],) + t[i + 1:]


_length_lex = rewriting.length_lex


def _length_lex_on_equal_words(letter_less):
    """`rewriting.length_lex` holding between a word and itself."""
    less = _length_lex(letter_less)
    return lambda u, v: u == v or less(u, v)


def _order_ch_shorter_below_longer(a, b):
    """`chinese.order_ch_less` as three clauses: a column below its head
    letter, else a shorter generator below a longer one, else the
    lexicographic order of their words; c_2 < c_3 < c_21 < c_2."""
    ya, xa = a
    yb, xb = b
    if 0 < xa < ya and b == (ya, 0):
        return True
    if 0 < xb < yb and a == (yb, 0):
        return False
    wa, wb = ((ya,) if xa == 0 else a), ((yb,) if xb == 0 else b)
    if len(wa) != len(wb):
        return len(wa) < len(wb)
    return wa < wb


def _replay_without_target_check(system, path):
    """`rewriting.replay` returning the replayed word whatever the path's target."""
    word = path.source
    for step in path.steps:
        word = rewriting.apply_step(system, word, step)
    return word


def _rule_check_with(fault):
    """A copy of `rewriting.check_rule_pairs` with the one fault `fault`:
    "one-shot" reads a one-shot iterator, "letter-at-size" accepts a letter
    equal to the alphabet size, "short-reread" reads the stream again one
    rule short of the repeat, and "no-repeats" never flags a repeated hash."""
    def check(alphabet, pairs):
        if fault != "one-shot" and isinstance(pairs, Iterator):
            raise TypeError("rule pairs must be re-readable, not a one-shot iterator")
        n = len(alphabet)
        letters = frozenset(range(n + (fault == "letter-at-size")))
        within = letters.issuperset
        hashes = set()
        for i, pair in enumerate(pairs):
            lhs, rhs = pair
            if not lhs:
                raise ValueError("rule lhs must be non-empty")
            if lhs == rhs:
                raise ValueError("rule lhs and rhs must differ")
            if not (within(lhs) and within(rhs)):
                letter = next(x for x in lhs + rhs if x not in letters)
                raise ValueError(f"letter {letter} out of range for alphabet of size {n}")
            size = len(hashes)
            hashes.add(hash(pair))
            if len(hashes) == size and fault != "no-repeats" and \
                    pair in islice(pairs, i - (fault == "short-reread")):
                raise ValueError(f"duplicate rule {lhs} -> {rhs}")
    return check


def _staircase_display_unreversed(t):
    """`chinese.staircase_display` writing each row as it is stored."""
    return [list(row) for row in t]


def _with_congruence_at_max_len_0(name, n, L):
    """`cli._with_congruence` without its `--max-len 0` guard."""
    entry = registry.lookup(registry.STRUCTURES, name, "congruence")
    return entry.factory(n), entry.congruence(n, L)


def _ps_text_top_down(t):
    """`registry._format_ps` writing each patience column top down."""
    return json.dumps({"columns_bottom_up": [col[::-1] for col in t]})


def _datum_label_concatenating(structure, d):
    """`sds.datum_label` concatenating the letters at every rank."""
    word = structure.read(d)
    return "c_" + "".join(map(str, word)) if word else "e"


_legs_witness = coherence.legs_witness


def _legs_witness_right_from_left(source, left, right, expected=None):
    """`coherence.legs_witness` taking `right` from the left leg."""
    witness = _legs_witness(source, left, right, expected)
    if witness and "right" in witness:
        witness["right"] = list(left.target)
    return witness


_knuth_pairs = young.knuth_pairs


def _knuth_standard_pairs_reversed(n, variant="standard"):
    """`young.knuth_pairs` with its weak and strict triples swapped for "standard"."""
    return _knuth_pairs(n, "reversed" if variant == "standard" else variant)


def _hypoplactic_t_from_z(n):
    """`extra.hypoplactic_pairs` with the t of its second quartic family
    ranging from z, not z + 1.  A z ranging from y, not y + 1, in a family
    with x <= y < z is no row: at x = y = z it adds a rule whose two sides
    are equal, which `RewritingSystem` refuses with a ValueError."""
    yield from young.knuth_pairs(n)
    yield from (((z, x, t, y), (x, z, y, t))
                for x in range(n) for y in range(x, n) for z in range(y + 1, n)
                for t in range(z, n))
    yield from (((t, y, z, x), (y, t, x, z))
                for x in range(n) for y in range(x + 1, n) for z in range(y, n)
                for t in range(z, n))


def _rule_shapes_precolumn_only(n):
    """`chinese.rule_shapes` reading the head-led rules of `precolumn_pairs`
    alone, without the completion families."""
    return {(lhs, rhs): "commutation" if rhs == lhs[::-1] else "square"
            for lhs, rhs in chinese.precolumn_pairs(n)
            if len(rhs) == 2 and rhs[0][0] == lhs[0][0]}


_rule_shapes = chinese.rule_shapes


def _rule_shapes_all_commutation(n):
    """`chinese.rule_shapes` tagging every head-led rule "commutation"."""
    return dict.fromkeys(_rule_shapes(n), "commutation")


def _column_complement_unreflected(col, n):
    """`young.column_complement` keeping the entries outside the column as
    they are, not as n + 1 - a."""
    entries = {row[0] for row in col}
    return tuple((a,) for a in range(1, n + 1) if a not in entries)


def _right_insert_scanning_from_r_minus_1(t, x):
    """`chinese.chinese_right_insert` scanning row r for its last nonzero
    column from r - 1, not r, so a nonzero diagonal is never seen."""
    rows = list(t)
    r = len(t)
    while True:
        row = t[r - 1]
        if x == r:
            rows[r - 1] = row[:-1] + (row[-1] + 1,)
            return tuple(rows)
        y = r - 1
        while y > x and not row[y - 1]:
            y -= 1
        if y > x:
            new = list(row)
            new[y - 1] -= 1
            new[x - 1] += 1
            rows[r - 1] = tuple(new)
            if y == r:
                return tuple(rows)
            x = y
        r -= 1


def _left_insert_landing_on_x(t, x):
    """`chinese.chinese_left_insert` landing in column x of row x even
    after a marker was set."""
    rows = list(t)
    y = 0
    for i in range(1, x):
        row = t[i - 1]
        end = y - 1 if y else i
        z = 1
        while z <= end and not row[z - 1]:
            z += 1
        if z > end:
            continue
        new = list(row)
        new[z - 1] -= 1
        if z < i:
            new[(y or i) - 1] += 1
        rows[i - 1] = tuple(new)
        y = z
    row = t[x - 1]
    rows[x - 1] = row[:-1] + (row[-1] + 1,)
    return tuple(rows)


_flat = cli._flat


class _KeyedWithoutIndent:
    """A template table that keys each shape without its indent."""

    def __init__(self, table):
        self.table = table

    def get(self, shape):
        return self.table.get(shape[1:])

    def __setitem__(self, shape, template):
        self.table[shape[1:]] = template


def _flat_keyed_without_indent(value, indent, templates):
    """`cli._flat` with its template table keyed by shape without the indent."""
    return _flat(value, indent, _KeyedWithoutIndent(templates))


def _product_keyed_by_left_id(self, i, j):
    """`sds.Row.product` with its memo keyed by the left id alone."""
    products = self.products
    k = products.get(i)
    if k is None:
        k = products[i] = self.walk(i, self.read(j))
    return k


def _walk_offset_by_one(self, i, word):
    """`sds.Row.walk` reading `delta` one slot past the letter's."""
    structure, n, delta = self.structure, self.n, self.delta
    for x in word if structure.direction == sds.LEFT_TO_RIGHT else reversed(word):
        if not 1 <= x <= n:
            structure._check_letter(x)
        k = i * n + x
        j = delta[k] if k < len(delta) else None
        i = self.step(i, x) if j is None else j
    return i


def _presentation_rules_checking_as_read(name, n, max_len):
    """`registry.presentation_rules` checking a letter family's rules as
    they are read, so that a build writes each rule before the check ends."""
    L = max_len if max_len is not None else registry.MAX_LEN
    family = registry.LETTER_FAMILIES.get(name)
    if family is None:
        return registry.build_presentation(name, n, L).system.rule_pairs
    alphabet = rewriting.Alphabet.letters(n)

    def checked():
        read = []
        for pair in family(n, L):
            read.append(pair)
            yield pair
        rewriting.check_rule_pairs(alphabet, read)

    return rewriting.Rules(alphabet, checked)


def _parse_ints_without_fallback(tokens):
    """`sds.parse_ints` reading every valid token through the numeral table,
    with no fallback to `int()` on a token that misses it."""
    digits = "".join(tokens).replace("-", "")
    if digits and not (digits.isascii() and digits.isdigit()):
        bad = next(t for t in tokens if not sds._INTEGER.fullmatch(t))
        raise ValueError(f"invalid literal for int() with base 10: {bad!r:.200}")
    return tuple(map(sds.NUMERALS.get, tokens))


def _congruence_partition_taking_any_alphabet(structure, congruence, max_len):
    """`sds._congruence_partition` without its letter test: a congruence
    over other letters than the structure's n is taken as it is."""
    return rewriting.congruence_classes(congruence, max_len)


def _cross_section_pairing_one_way(structure, congruence, max_len):
    """`sds.check_cross_section` pairing each class with one reading, but
    not each reading with one class, so two classes that read alike pass."""
    params = {"n": structure.n, "max_len": max_len}
    partition = sds._congruence_partition(structure, congruence, max_len)
    row = sds.Row(structure)
    reading_of = {}
    for word, s in sds._constructor_walks(row, max_len):
        reading = row.read(s)
        if reading_of.setdefault(partition.representative[word], reading) != reading:
            return sds.report("cross-section", structure.name, params, "fail", exact=True,
                              witness={"block": [list(word)]})
    return sds.report("cross-section", structure.name, params, "pass",
                      exact=True, class_count=len(reading_of))


def _noncommuting_orders_swapped(right, left, max_len):
    """`sds.first_noncommuting` naming the witness's two orders the wrong
    way round."""
    count, bad = sds.first_noncommuting(right, left, max_len)
    if bad is not None:
        position, key, x, y, a, b = bad
        bad = position, key, x, y, b, a
    return count, bad


def _axioms_letters_off_the_row(structure, max_len):
    """`sds.check_axioms` checking the single letters through `iota`,
    beside its row, whose search then inserts them again."""
    params = {"n": structure.n, "max_len": max_len}
    for x in range(1, structure.n + 1):
        if structure.read(structure.iota(x)) != (x,):
            return sds.report("axioms", structure.name, params, "fail",
                              witness={"axiom": "single_letter_reading", "letter": x})
    if structure.read(structure.empty) != ():
        return sds.report("axioms", structure.name, params, "fail",
                          witness={"axiom": "empty_reading"})
    row = sds.Row(structure)
    index = sds.reachable_set(row, max_len).index
    empty = row.ids[structure.empty]
    for i in range(len(row.data)):
        key = row.read(i)
        if index[key] != i:
            return sds.report("axioms", structure.name, params, "fail",
                              witness={"axiom": "reading_injective", "reading": list(key)})
    for key, i in index.items():
        if row.walk(empty, key) != i:
            return sds.report("axioms", structure.name, params, "fail",
                              witness={"axiom": "constructor_section", "reading": list(key)})
    return sds.report("axioms", structure.name, params, "pass", data_count=len(index))


def _confluence_counting_first_budget_hit(name, n, L, budget):
    """`cli._confluence` counting only the first leg that hits its budget."""
    branchings, witness = 0, None
    for b, left, right in rewriting.check_local_confluence(
            registry.build_presentation(name, n, L).system, budget):
        branchings += 1
        witness = witness or coherence.legs_witness(b.source, left, right)
    if not branchings:
        raise ValueError(f"{name} at n={n}, --max-len {L} has no critical branching: "
                         "nothing to check")
    return sds.report("confluence", name, {"n": n}, "fail" if witness else "pass",
                      branchings=branchings,
                      budget_hits=int("reason" in witness) if witness else None,
                      witness=witness)


def _case(test, *args):
    """The case `args` of a parametrized test, as a killer."""
    def killer():
        test(*args)
    killer.__name__ = f"{test.__name__}[{'-'.join(map(str, args))}]"
    return killer


def _on_short_words(name):
    return _case(insertion.test_insertions_match_the_oracle_on_every_short_word, name)


_duplicate_family = _case(
    build.test_a_faulty_family_exits_2_with_the_system_s_error_and_writes_nothing,
    "duplicate", "json")

_staircase_steps_at_4 = _case(
    insertion.test_one_letter_staircase_insertions_match_the_scanning_steps, 4, 8, 4191)


@dataclass(frozen=True)
class Mutant:
    name: str
    first_run: str
    module: ModuleType | type | dict
    target: str
    fault: object
    killers: tuple[Callable[[], None], ...]


MUTANTS = [
    Mutant("last-step-reads-forward",
           "One step-selection rule in the rewriting engine",
           rewriting, "_last_step", _last_step_forward,
           (oracle.test_picks_where_two_rules_match_at_one_position,)),
    Mutant("first-letter-table-out-of-id-order",
           "A rule is its two sides, and its id is its position",
           rewriting, "_rules_by_first_letter", _table_out_of_id_order,
           (oracle.test_picks_where_two_rules_match_at_one_position,)),
    Mutant("schensted-right-bisect-left",
           "ROADMAP item 11, census",
           young, "schensted_right", _schensted_right_bisect_left,
           (_on_short_words("young-right"),)),
    Mutant("termination-witness-passes-ties",
           "A generator presentation carries its generating set once",
           rewriting, "termination_witness", _witness_passing_ties,
           (test_rewriting.test_termination_witness_ties_need_letter_drop,)),
    Mutant("hypoplactic-left-bisect-right",
           "One signature for every insertion",
           extra, "hypoplactic_left_insert", _hypoplactic_left_bisect_right,
           (_on_short_words("hypoplactic-left"),)),
    Mutant("lps-searches-like-rps",
           "One signature for every insertion",
           extra, "lps_insert", extra.rps_insert,
           (_on_short_words("lps"),)),
    Mutant("qword-less-on-equal-words",
           "One failure type for the cell builders",
           rewriting, "length_lex", _length_lex_on_equal_words,
           (test_rewriting.test_length_lex_compares_lengths_first_and_is_strict,)),
    Mutant("order-ch-shorter-below-longer",
           "One reduction order",
           chinese, "order_ch_less", _order_ch_shorter_below_longer,
           (test_chinese.test_order_ch_is_a_strict_total_order,)),
    Mutant("replay-skips-target-check",
           "One failure type for the cell builders",
           rewriting, "replay", _replay_without_target_check,
           (test_rewriting.test_replay_checks_target,)),
    Mutant("system-passes-duplicate-rules",
           "A presentation's rules cost their two sides and nothing more",
           rewriting, "check_rule_pairs", _rule_check_with("short-reread"),
           (test_rewriting.test_duplicate_rule_rejected,
            *(_case(test_rewriting.test_faults_are_named_in_rule_order, *case)
              for case in test_rewriting.RULE_ORDER_FAULTS[:2]))),
    Mutant("system-accepts-letter-at-alphabet-size",
           "A presentation's rules cost their two sides and nothing more",
           rewriting, "check_rule_pairs", _rule_check_with("letter-at-size"),
           (test_rewriting.test_rule_letter_out_of_range_rejected,)),
    Mutant("one-shot-stream-accepted",
           "One rule check",
           rewriting, "check_rule_pairs", _rule_check_with("one-shot"),
           (_case(test_rewriting.test_rule_pair_check_refuses_a_one_shot_stream,
                  [test_rewriting.P, test_rewriting.P]),)),
    # `_rules_by_first_letter` keeping its tables in a plain dict, which
    # holds every system it has a table for
    Mutant("step-tables-pin-their-systems",
           "A step table lives as long as its system",
           rewriting, "_step_tables", {},
           (test_rewriting.test_a_step_table_lives_as_long_as_its_system,)),
    # the closure as it was before the refusal, which closes a rule that
    # changes length over a working length past the bound
    Mutant("congruence-closes-a-length-changing-rule",
           "One congruence contract",
           rewriting, "congruence_classes", congruence.congruence_classes,
           tuple(_case(compatibility.test_a_rule_that_changes_length_is_refused, pairs, named)
                 for pairs, named in compatibility.LENGTH_CHANGING)),
    Mutant("cross-section-pairs-one-way",
           "Verifiers hold only what their report needs",
           sds, "check_cross_section", _cross_section_pairing_one_way,
           (_case(compatibility.test_cross_section_matches_the_set_comparison,
                  "hypoplactic-right"),)),
    # `main` reads the check through its table, which holds the function
    Mutant("confluence-counts-first-budget-hit-only",
           "Verifiers hold only what their report needs",
           cli.CHECKS, "confluence", _confluence_counting_first_budget_hit,
           (_case(test_cli.test_check_confluence_keeps_its_recorded_output,
                  "check confluence --structure column --n 3 --budget 0"),)),
    # each verifier that reads a congruence must notice it on its own
    Mutant("congruence-gate-takes-any-alphabet",
           "One congruence gate",
           sds, "_congruence_partition", _congruence_partition_taking_any_alphabet,
           tuple(_case(compatibility.test_a_congruence_over_other_letters_is_refused, *ns, check)
                 for check in compatibility.VERIFIERS for ns in compatibility.OTHER_LETTERS)),
    # `commutation_probe` reads the function through its own module
    Mutant("probe-orders-swapped",
           "One row per structure verifier",
           extra, "first_noncommuting", _noncommuting_orders_swapped,
           (table.test_broken_pairs_match_the_oracle,)),
    # the reports are the oracle's, so only the count of insertions sees it
    Mutant("axioms-letters-off-the-row",
           "One row per structure verifier",
           sds, "check_axioms", _axioms_letters_off_the_row,
           (_case(test_sds.test_reachable_set_and_axioms_insert_each_datum_and_letter_once,
                  "young-right"),)),
    Mutant("staircase-display-unreversed",
           "One registry entry per structure",
           chinese, "staircase_display", _staircase_display_unreversed,
           (test_chinese.test_staircase_display_round_trip,)),
    Mutant("max-len-0-guard-removed",
           "One registry entry per structure",
           cli, "_with_congruence", _with_congruence_at_max_len_0,
           tuple(_case(test_cli.test_degenerate_bounds_exit_2,
                       ["check", check, "--structure", name, "--n", "2", "--max-len", "0"])
                 for check, name in [("cross-section", "young-right"),
                                     ("compatibility", "sylvester-left")])),
    Mutant("patience-columns-written-top-down",
           "One registry entry per structure",
           registry.STRUCTURES, "lps-right",
           replace(registry.STRUCTURES["lps-right"], format_datum=_ps_text_top_down),
           (_case(test_registry.test_patience_text_writes_each_column_bottom_up, "lps-right",
                  '{"columns_bottom_up": [[1], [1, 2, 4], [2, 3], [4]]}'),)),
    Mutant("datum-label-concatenates-two-digit-letters",
           "One naming rule for generators",
           sds, "datum_label", _datum_label_concatenating,
           (test_sds.test_datum_label,)),
    Mutant("legs-witness-right-from-left-leg",
           "One walk and one witness rule for critical branchings",
           coherence, "legs_witness", _legs_witness_right_from_left,
           (test_rewriting.test_local_confluence_detects_failure,)),
    Mutant("knuth-standard-pairs-like-reversed",
           "The letter rule families range over alphabet indices",
           young, "knuth_pairs", _knuth_standard_pairs_reversed,
           (_case(family.test_knuth_matches_the_oracle, "standard", 3),)),
    Mutant("hypoplactic-t-from-z",
           "The letter rule families range over alphabet indices",
           extra, "hypoplactic_pairs", _hypoplactic_t_from_z,
           (_case(family.test_hypoplactic_matches_the_oracle, 3),)),
    Mutant("rule-shapes-precolumn-only",
           "The staircase rule shapes are read off the paper's rule families",
           chinese, "rule_shapes", _rule_shapes_precolumn_only,
           (test_chinese.test_verify_rule_shape,)),
    Mutant("rule-shapes-all-commutation",
           "The staircase rule shapes are read off the paper's rule families",
           chinese, "rule_shapes", _rule_shapes_all_commutation,
           (_case(oracle.test_rule_shape_matches_the_oracle, 3),)),
    Mutant("column-complement-unreflected",
           "The staircase rule shapes are read off the paper's rule families",
           young, "column_complement", _column_complement_unreflected,
           (test_young.test_schuetzenberger_report,)),
    Mutant("templates-keyed-without-indent",
           "One writer, one %-template per record shape",
           cli, "_flat", _flat_keyed_without_indent,
           (test_cli.test_emitter_matches_json_dumps_indent_2,)),
    Mutant("staircase-right-scans-from-r-minus-1",
           "A staircase's one-letter insertion copies only the rows it changes",
           chinese, "chinese_right_insert", _right_insert_scanning_from_r_minus_1,
           (_staircase_steps_at_4,)),
    Mutant("staircase-left-lands-on-x-after-a-marker",
           "A staircase's one-letter insertion copies only the rows it changes",
           chinese, "chinese_left_insert", _left_insert_landing_on_x,
           (_staircase_steps_at_4,)),
    Mutant("product-memo-keyed-by-left-id",
           "The structure monoid's product gets one memoised home on the Row",
           sds.Row, "product", _product_keyed_by_left_id,
           (_case(table.test_row_products_match_the_star_fold, "young-right-3"),)),
    Mutant("walk-table-offset-by-one",
           "The structure monoid's product gets one memoised home on the Row",
           sds.Row, "walk", _walk_offset_by_one,
           (_case(table.test_row_products_match_the_star_fold, "young-right-3"),)),
    Mutant("build-check-misses-repeats",
           "A `build` holds no rules",
           rewriting, "check_rule_pairs", _rule_check_with("no-repeats"),
           (_duplicate_family,)),
    Mutant("build-writes-while-checking",
           "A `build` holds no rules",
           registry, "presentation_rules", _presentation_rules_checking_as_read,
           (_duplicate_family,)),
    Mutant("sylvester-congruence-bound-off-by-one",
           "One way to build a letter family's system",
           registry.STRUCTURES, "sylvester-left",
           replace(registry.STRUCTURES["sylvester-left"], congruence=lambda n, L:
                   registry.build_presentation("sylvester", n, max(0, L - 2)).system),
           (_case(test_registry.test_default_congruences_build, "sylvester-left"),)),
    Mutant("patience-congruence-floor-dropped",
           "One way to build a letter family's system",
           registry.STRUCTURES, "lps-right",
           replace(registry.STRUCTURES["lps-right"], congruence=lambda n, L:
                   registry.build_presentation("lps", n, L - 2).system),
           (_case(test_registry.test_default_congruences_build, "lps-right"),)),
    # the table is one dict, which the tree parser reads too
    Mutant("numeral-table-entry-off-by-one",
           "A letter costs one lookup",
           sds.NUMERALS, "7", 8,
           (insertion.test_parse_ints_matches_the_oracle,
            insertion.test_tree_helpers_match_the_oracle_on_any_tree)),
    Mutant("numeral-fallback-dropped",
           "A letter costs one lookup",
           sds, "parse_ints", _parse_ints_without_fallback,
           (insertion.test_parse_ints_matches_the_oracle,)),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, monkeypatch):
    if isinstance(mutant.module, dict):
        monkeypatch.setitem(mutant.module, mutant.target, mutant.fault)
    else:
        monkeypatch.setattr(mutant.module, mutant.target, mutant.fault)
    survived_by = []
    for killer in mutant.killers:
        try:
            killer()
        except (AssertionError, pytest.fail.Exception):
            continue
        survived_by.append(killer.__name__)
    assert not survived_by, f"{mutant.name} survives {survived_by}"
