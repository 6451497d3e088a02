"""Mutation gate: faults that the tests must keep noticing.

Each row patches one fault into one function of an sdskit module or
class, in process, and names the change that first ran that mutant (by its
`CHANGES.md` heading, or the ROADMAP item that measured it) and the tests
that must notice it.  A killer must call a module's function through its
module, since a name imported before the patch is not patched; a class
attribute is reached through any name for the class.  With the fault in
place, every named test must fail an assertion or a `pytest.raises`; a
mutant that some named test lets pass survives, and fails the gate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import pytest

from sdskit import chinese, extra, rewriting, young
from sdskit.rewriting import RewriteStep
import test_branching_oracle as oracle
import test_chinese
import test_cli
import test_insertion_oracle as insertion
import test_rewriting

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


_qword_less = chinese.qword_less


def _qword_less_on_equal_words(u, v, gens):
    """`chinese.qword_less` holding between a word and itself."""
    return u == v or _qword_less(u, v, gens)


def _replay_without_target_check(system, path):
    """`rewriting.replay` returning the replayed word whatever the path's target."""
    word = path.source
    for step in path.steps:
        word = rewriting.apply_step(system, word, step)
    return word


def _post_init_passing_duplicates(self):
    """`RewritingSystem.__post_init__` letting a repeated rule through."""
    n = len(self.alphabet)
    for rule in self.rules:
        for letter in rule.lhs + rule.rhs:
            if not 0 <= letter < n:
                raise ValueError(f"letter {letter} out of range for alphabet of size {n}")


def _post_init_letter_at_size(self):
    """`RewritingSystem.__post_init__` accepting a letter equal to the
    alphabet size."""
    n = len(self.alphabet)
    seen = set()
    for rule in self.rules:
        for letter in rule.lhs + rule.rhs:
            if not 0 <= letter <= n:
                raise ValueError(f"letter {letter} out of range for alphabet of size {n}")
        if rule in seen:
            raise ValueError(f"duplicate rule {rule.lhs} -> {rule.rhs}")
        seen.add(rule)


def _release_no_step_table():
    """`rewriting.release_step_tables` leaving every cached table in place."""


def _on_short_words(name):
    def killer():
        insertion.test_insertions_match_the_oracle_on_every_short_word(name)
    killer.__name__ = f"test_insertions_match_the_oracle_on_every_short_word[{name}]"
    return killer


@dataclass(frozen=True)
class Mutant:
    name: str
    first_run: str
    module: ModuleType | type
    target: str
    fault: Callable
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
           chinese, "qword_less", _qword_less_on_equal_words,
           (test_chinese.test_qword_less_compares_lengths_first_and_is_strict,)),
    Mutant("replay-skips-target-check",
           "One failure type for the cell builders",
           rewriting, "replay", _replay_without_target_check,
           (test_rewriting.test_replay_checks_target,)),
    Mutant("system-passes-duplicate-rules",
           "A presentation's rules cost their two sides and nothing more",
           rewriting.RewritingSystem, "__post_init__", _post_init_passing_duplicates,
           (test_rewriting.test_duplicate_rule_rejected,
            test_rewriting.test_faults_are_named_in_rule_order)),
    Mutant("system-accepts-letter-at-alphabet-size",
           "A presentation's rules cost their two sides and nothing more",
           rewriting.RewritingSystem, "__post_init__", _post_init_letter_at_size,
           (test_rewriting.test_rule_letter_out_of_range_rejected,)),
    Mutant("command-keeps-its-step-tables",
           "A command's step tables die with the command",
           rewriting, "release_step_tables", _release_no_step_table,
           (test_cli.test_a_command_releases_its_step_tables_on_every_exit,)),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, monkeypatch):
    monkeypatch.setattr(mutant.module, mutant.target, mutant.fault)
    survived_by = []
    for killer in mutant.killers:
        try:
            killer()
        except (AssertionError, pytest.fail.Exception):
            continue
        survived_by.append(killer.__name__)
    assert not survived_by, f"{mutant.name} survives {survived_by}"
