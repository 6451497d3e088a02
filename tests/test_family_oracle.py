"""Test-only oracle for the letter rule families.

The family builders as they were when they ranged over the letters 1..n
and shifted every letter of every rule down by one (`knuth_srs`,
`chinese_relations`, `hypoplactic_srs`, `sylvester_srs`, and `lps_srs`
and `rps_srs` through `_ps_pairs` and `_chains`), copied verbatim, are
compared with the systems of the registry's letter families, which range
over the alphabet's indices: `build_presentation(name, n, L).system`, its
alphabet and its rules in order, must equal the oracle's.  The registry
reads each family's pair generator through its module when called, so
the mutation gate can patch the generators.
"""

from __future__ import annotations

import itertools

import pytest

from sdskit.registry import build_presentation
from sdskit.rewriting import Alphabet, RewritingSystem


def knuth_srs(n: int, variant: str = "standard") -> RewritingSystem:
    """The Knuth relations (or their reversed pairing) as oriented rules."""
    pairs = []
    if variant == "standard":
        xi = [(x, y, z) for x in range(1, n + 1) for y in range(x, n + 1)
              for z in range(y + 1, n + 1)]
        zeta = [(x, y, z) for x in range(1, n + 1) for y in range(x + 1, n + 1)
                for z in range(y, n + 1)]
    elif variant == "reversed":
        xi = [(x, y, z) for x in range(1, n + 1) for y in range(x + 1, n + 1)
              for z in range(y, n + 1)]
        zeta = [(x, y, z) for x in range(1, n + 1) for y in range(x, n + 1)
                for z in range(y + 1, n + 1)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    for x, y, z in xi:
        pairs.append(((z - 1, x - 1, y - 1), (x - 1, z - 1, y - 1)))
    for x, y, z in zeta:
        pairs.append(((y - 1, z - 1, x - 1), (y - 1, x - 1, z - 1)))
    return RewritingSystem.from_pairs(Alphabet.letters(n), pairs)


def chinese_relations(n: int) -> RewritingSystem:
    """The defining relations on single letters, as four oriented families."""
    pairs = []
    for x, y, z in itertools.combinations(range(1, n + 1), 3):
        pairs.append(((z - 1, y - 1, x - 1), (y - 1, z - 1, x - 1)))
        pairs.append(((z - 1, x - 1, y - 1), (y - 1, z - 1, x - 1)))
    for x, y in itertools.combinations(range(1, n + 1), 2):
        pairs.append(((y - 1, y - 1, x - 1), (y - 1, x - 1, y - 1)))
        pairs.append(((y - 1, x - 1, x - 1), (x - 1, y - 1, x - 1)))
    return RewritingSystem.from_pairs(Alphabet.letters(n), pairs)


def hypoplactic_srs(n: int) -> RewritingSystem:
    """Knuth relations plus the two quartic exchange families."""
    base = knuth_srs(n)
    pairs = itertools.chain(
        ((r.lhs, r.rhs) for r in base.rules),
        (((z - 1, x - 1, t - 1, y - 1), (x - 1, z - 1, y - 1, t - 1))
         for x in range(1, n + 1)
         for y in range(x, n + 1)
         for z in range(y + 1, n + 1)
         for t in range(z, n + 1)),
        (((t - 1, y - 1, z - 1, x - 1), (y - 1, t - 1, x - 1, z - 1))
         for x in range(1, n + 1)
         for y in range(x + 1, n + 1)
         for z in range(y, n + 1)
         for t in range(z + 1, n + 1)))
    return RewritingSystem.from_pairs(base.alphabet, pairs)


def sylvester_srs(n: int, max_w: int) -> RewritingSystem:
    """Exchange rules z x w y -> x z w y with the inner word bounded."""
    return RewritingSystem.from_pairs(Alphabet.letters(n), (
        ((z - 1, x - 1) + w + (y - 1,), (x - 1, z - 1) + w + (y - 1,))
        for wlen in range(max_w + 1)
        for w in itertools.product(range(n), repeat=wlen)
        for x in range(1, n + 1)
        for y in range(x, n + 1)
        for z in range(y + 1, n + 1)))


def _ps_pairs(n: int, max_p: int, strict_head: bool):
    # strict_head selects between x < y <= x1 < ... and x <= y < x1 <= ...
    for p in range(1, max_p + 1):
        for x in range(1, n + 1):
            ys = range(x + 1, n + 1) if strict_head else range(x, n + 1)
            for y in ys:
                lows = range(y, n + 1) if strict_head else range(y + 1, n + 1)
                for chain in _chains(lows, p, strict=strict_head):
                    xs = tuple(c - 1 for c in reversed(chain))
                    lhs = (y - 1,) + xs + (x - 1,)
                    rhs = (y - 1, x - 1) + xs
                    yield lhs, rhs


def _chains(values, length, strict):
    values = list(values)
    if strict:
        return itertools.combinations(values, length)
    return itertools.combinations_with_replacement(values, length)


def lps_srs(n: int, max_p: int) -> RewritingSystem:
    """Rules y x_p..x_1 x -> y x x_p..x_1 for x < y <= x_1 < ... < x_p."""
    return RewritingSystem.from_pairs(Alphabet.letters(n), _ps_pairs(n, max_p, True))


def rps_srs(n: int, max_p: int) -> RewritingSystem:
    """Rules y x_p..x_1 x -> y x x_p..x_1 for x <= y < x_1 <= ... <= x_p."""
    return RewritingSystem.from_pairs(Alphabet.letters(n), _ps_pairs(n, max_p, False))


RANKS = range(1, 7)
BOUNDED_RANKS = range(1, 6)
BOUNDS = range(5)


@pytest.mark.parametrize("n", RANKS)
@pytest.mark.parametrize("variant", ["standard", "reversed"])
def test_knuth_matches_the_oracle(variant, n):
    name = "knuth" if variant == "standard" else "knuth-reversed"
    assert build_presentation(name, n).system == knuth_srs(n, variant)


@pytest.mark.parametrize("n", RANKS)
def test_chinese_relations_match_the_oracle(n):
    # "chinese" alone names the completed staircase presentation
    assert build_presentation("chinese-relations", n).system == chinese_relations(n)


@pytest.mark.parametrize("n", RANKS)
def test_hypoplactic_matches_the_oracle(n):
    assert build_presentation("hypoplactic", n).system == hypoplactic_srs(n)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("n", BOUNDED_RANKS)
@pytest.mark.parametrize("family,oracle", [("sylvester", sylvester_srs),
                                           ("lps", lps_srs), ("rps", rps_srs)],
                         ids=["sylvester", "lps", "rps"])
def test_bounded_families_match_the_oracle(family, oracle, n, bound):
    assert build_presentation(family, n, bound).system == oracle(n, bound)
