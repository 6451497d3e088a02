"""Mutation gate: faults that the tests must keep noticing.

Each row patches one fault into one `rewriting` function, in process, and
names the change that first ran that mutant (by its `CHANGES.md` heading)
and the tests that must notice it.  With the fault in place, every named
test must fail an assertion; a mutant that some named test lets pass
survives, and fails the gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from sdskit import rewriting
from sdskit.rewriting import RewriteStep
import test_branching_oracle as oracle

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


@dataclass(frozen=True)
class Mutant:
    name: str
    first_run: str
    target: str
    fault: Callable
    killers: tuple[Callable[[], None], ...]


MUTANTS = [
    Mutant("last-step-reads-forward",
           "One step-selection rule in the rewriting engine",
           "_last_step", _last_step_forward,
           (oracle.test_picks_where_two_rules_match_at_one_position,)),
    Mutant("first-letter-table-out-of-id-order",
           "A rule is its two sides, and its id is its position",
           "_rules_by_first_letter", _table_out_of_id_order,
           (oracle.test_picks_where_two_rules_match_at_one_position,)),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, monkeypatch):
    monkeypatch.setattr(rewriting, mutant.target, mutant.fault)
    survived_by = []
    for killer in mutant.killers:
        try:
            killer()
        except AssertionError:
            continue
        survived_by.append(killer.__name__)
    assert not survived_by, f"{mutant.name} survives {survived_by}"
