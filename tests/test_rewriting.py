"""Unit tests for the string rewriting engine."""

import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sdskit import coherence, rewriting
from sdskit.registry import build_presentation
from sdskit.rewriting import (
    Alphabet,
    LEFTMOST,
    RIGHTMOST,
    RewritePath,
    RewriteStep,
    RewritingSystem,
    Rule,
    _first_step,
    _last_step,
    apply_step,
    check_local_confluence,
    check_rule_pairs,
    classify,
    congruence_classes,
    critical_branchings,
    is_normal_form,
    knuth_bendix_pass,
    normalize,
    replay,
    termination_witness,
    words_up_to,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
P = ((0, 1), (1, 0))  # a well-formed rule over AB


def make(alphabet, pairs):
    return RewritingSystem.from_pairs(alphabet, pairs)


def brute_force_steps(system, word):
    # independent oracle: scan every position against every rule lhs
    found = []
    for i in range(len(word)):
        for rule_id, rule in enumerate(system.rules):
            if word[i:i + len(rule.lhs)] == rule.lhs:
                found.append(RewriteStep(rule_id, i))
    return sorted(found, key=lambda s: (s.position, s.rule_id))


def test_alphabet_labels_must_be_distinct():
    with pytest.raises(ValueError, match="^alphabet labels must be distinct$"):
        Alphabet(("a", "b", "a"))


def test_rule_letter_out_of_range_rejected():
    with pytest.raises(ValueError, match="^letter 2 out of range for alphabet of size 2$"):
        make(AB, [((0, 1), (1, 2))])
    with pytest.raises(ValueError, match="^letter -1 out of range for alphabet of size 2$"):
        make(AB, [((0, -1), (1, 0))])


def test_apply_step_replaces_at_position():
    rs = make(ABC, [((0, 1), (2,))])  # ab -> c
    assert apply_step(rs, (0, 0, 1, 1), RewriteStep(0, 1)) == (0, 2, 1)


def test_apply_step_rejects_mismatch():
    rs = make(AB, [((0, 1), (1, 0))])
    with pytest.raises(ValueError):
        apply_step(rs, (1, 1), RewriteStep(0, 0))


@pytest.mark.parametrize("word,step,message", [
    ((1, 1), RewriteStep(-1, 0), "rule id -1 out of range for 2 rules"),  # rules[-1] matches
    ((0, 1), RewriteStep(2, 0), "rule id 2 out of range for 2 rules"),
    ((1, 0), RewriteStep(1, -2), "negative position -2"),  # word[-2:-1] is b, rule 1's lhs
], ids=["id-below-zero", "id-past-the-last-rule", "negative-position"])
def test_apply_step_and_replay_reject_a_bad_id_or_position(word, step, message):
    rs = make(AB, [((0, 1), (1, 0)), ((1,), (0,))])
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_step(rs, word, step)
    with pytest.raises(ValueError, match=f"^{message}$"):
        replay(rs, RewritePath(word, (step,), word))


def test_rule_with_equal_sides_rejected():
    with pytest.raises(ValueError, match="^rule lhs and rhs must differ$"):
        RewritingSystem(AB, (Rule((1, 0), (1, 0)),))


def test_empty_lhs_rejected():
    with pytest.raises(ValueError, match="^rule lhs must be non-empty$"):
        RewritingSystem(AB, (Rule((), (1,)),))


def test_duplicate_rule_rejected():
    with pytest.raises(ValueError, match=r"^duplicate rule \(0, 1\) -> \(1, 0\)$"):
        make(AB, [((0, 1), (1, 0)), ((0, 1), (1, 0))])


# rules with two faults and the first one's message; in the first two the
# second rule repeats the first, so the duplicate is named
RULE_ORDER_FAULTS = [
    ([P, P, ((0, 2), (1,))], r"^duplicate rule \(0, 1\) -> \(1, 0\)$"),
    ([P, P, ((), (1,))], r"^duplicate rule \(0, 1\) -> \(1, 0\)$"),
    ([((0, 2), (1,)), ((1,), (1,))], r"^letter 2 out of range for alphabet of size 2$"),
]


@pytest.mark.parametrize("pairs,message", RULE_ORDER_FAULTS)
def test_faults_are_named_in_rule_order(pairs, message):
    with pytest.raises(ValueError, match=message):
        make(AB, pairs)
    with pytest.raises(ValueError, match=message):
        rewriting.check_rule_pairs(AB, pairs)


def _system_error(alphabet, pairs) -> str | None:
    try:
        make(alphabet, pairs)
    except ValueError as exc:
        return str(exc)
    return None


def _first_fault(alphabet, pairs) -> str | None:
    """The message for the first faulty pair in rule order, by a plain scan."""
    n = len(alphabet)
    for i, (lhs, rhs) in enumerate(pairs):
        bad = [x for x in lhs + rhs if not 0 <= x < n]
        if not lhs:
            return "rule lhs must be non-empty"
        if lhs == rhs:
            return "rule lhs and rhs must differ"
        if bad:
            return f"letter {bad[0]} out of range for alphabet of size {n}"
        if (lhs, rhs) in pairs[:i]:
            return f"duplicate rule {lhs} -> {rhs}"
    return None


def _check_error(alphabet, pairs) -> str | None:
    try:
        check_rule_pairs(alphabet, pairs)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-1, 2), max_size=2).map(tuple),
                          st.lists(st.integers(-1, 2), max_size=2).map(tuple)),
                max_size=6))
def test_rule_pair_check_raises_what_the_system_raises(pairs):
    # pairs over a tiny range meet every fault: an empty lhs, equal sides,
    # a letter out of range (-1 or 2) and a repeat, alone and together
    assert _check_error(AB, pairs) == _system_error(AB, pairs) == _first_fault(AB, pairs)


def test_rule_pair_check_reads_its_pairs_once_when_they_are_good():
    reads = []

    class Counted:
        def __iter__(self):
            reads.append(1)
            return iter([((0, 1), (1, 0)), ((1, 1), (0,))])

    assert check_rule_pairs(AB, Counted()) is None
    assert len(reads) == 1


@pytest.mark.parametrize("pairs", [[P, P], [((0, 5), (1,))], [P]])
def test_rule_pair_check_refuses_a_one_shot_stream(pairs):
    # a repeat is confirmed by reading the stream again, which a one-shot
    # iterator cannot give; it is refused before it is read
    stream = iter(pairs)
    with pytest.raises(TypeError, match="^rule pairs must be re-readable"):
        rewriting.check_rule_pairs(AB, stream)
    assert list(stream) == pairs


def test_rule_pair_check_survives_hash_collisions(monkeypatch):
    # with every hash equal each repeat test is a doubt, which a second
    # read of the pairs settles: distinct rules pass and a real repeat is
    # still named
    monkeypatch.setattr(rewriting, "hash", lambda value: 0, raising=False)
    good = [((0, 1), (1, 0)), ((1, 0), (0,)), ((1, 1), ())]
    assert check_rule_pairs(AB, good) is None
    with pytest.raises(ValueError, match=r"^duplicate rule \(1, 0\) -> \(0,\)$"):
        check_rule_pairs(AB, good + [((1, 0), (0,))])


def _assert_picks(system, word):
    # the leftmost pick is the least step by (position, rule id), the
    # rightmost the greatest; both are None on a normal form
    steps = brute_force_steps(system, word)
    assert _first_step(system, word) == (steps[0] if steps else None)
    assert _last_step(system, word) == (steps[-1] if steps else None)


def test_picks_ordering_and_oracle():
    # zzx with the rank-3 Knuth rules, z=3 > x=1
    rs = build_presentation("knuth", 3).system
    for word in [(2, 2, 0), (2, 0, 1), (1, 2, 0, 2), (0, 0, 0)]:
        _assert_picks(rs, word)
    # three rules match at one position
    _assert_picks(make(AB, [((0, 1), (1,)), ((0,), (1,)), ((0, 1), (0,))]), (0, 1))


def test_picks_on_normal_form_are_none():
    rs = make(AB, [((0, 1), (1, 0))])
    assert _first_step(rs, (1, 1, 0)) is None and _last_step(rs, (1, 1, 0)) is None


def test_picks_two_positions():
    rs = make(AB, [((0,), (1,))])  # a -> b
    assert _first_step(rs, (0, 0)) == RewriteStep(0, 0)
    assert _last_step(rs, (0, 0)) == RewriteStep(0, 1)


def test_normalize_trivial_on_normal_form():
    rs = make(AB, [((0, 1), (1, 0))])
    res = normalize(rs, (1, 1))
    assert res.reached_normal_form and res.path.steps == ()


def test_normalize_leftmost_hand_simulation():
    # aba with ab -> ba reduces in one step to baa
    rs = make(AB, [((0, 1), (1, 0))])
    res = normalize(rs, (0, 1, 0), LEFTMOST)
    assert res.reached_normal_form
    assert res.target == (1, 0, 0)
    assert len(res.path.steps) == 1


def test_normalize_budget_exhaustion_flagged():
    rs = make(AB, [((0,), (0, 0))])  # a -> aa never terminates
    res = normalize(rs, (0,), budget=7)
    assert not res.reached_normal_form
    assert len(res.path.steps) == 7


def test_normalize_refuses_a_negative_budget_and_an_unknown_strategy():
    rs = make(AB, [((0, 1), (1, 0))])
    with pytest.raises(ValueError, match="^budget must be >= 0$"):
        normalize(rs, (0, 1), budget=-1)
    with pytest.raises(ValueError, match="^unknown strategy 'middle'$"):
        normalize(rs, (0, 1), "middle")


def test_normalize_rightmost_differs_from_leftmost_in_steps():
    rs = make(AB, [((0, 1), (1, 0))])
    word = (0, 1, 0, 1)
    left = normalize(rs, word, LEFTMOST)
    right = normalize(rs, word, RIGHTMOST)
    assert left.target == right.target == (1, 1, 0, 0)
    assert left.path.steps[0].position == 0
    assert right.path.steps[0].position == 2


def test_normalize_column_presentation_golden():
    from sdskit.young import column_presentation, read_tableau
    pres = column_presentation(6)
    idx = {read_tableau(c): i for i, c in enumerate(pres.generating.generators)}
    word = tuple(idx[(x,)] for x in (4, 5, 3, 1, 2, 6))
    res = normalize(pres.system, word, LEFTMOST)
    assert res.reached_normal_form
    labels = [pres.system.alphabet.name(i) for i in res.target]
    assert labels == ["c_431", "c_52", "c_6"]


def test_replay_checks_target():
    rs = make(AB, [((0, 1), (1, 0))])
    res = normalize(rs, (0, 1))
    # through the module, so that a mutant patched into it is reached
    assert rewriting.replay(rs, res.path) == (1, 0)
    with pytest.raises(ValueError, match="^path target does not match replayed word$"):
        rewriting.replay(rs, replace(res.path, target=(0, 1)))


def test_critical_branchings_disjoint_alphabets_empty():
    rs = make(Alphabet(("a", "b", "c", "d")), [((0, 1), (0,)), ((2, 3), (2,))])
    assert critical_branchings(rs) == []


def test_critical_branchings_self_overlap():
    rs = make(AB, [((0, 0), (1,))])  # aa -> b overlaps itself on aaa
    branchings = critical_branchings(rs)
    assert len(branchings) == 1
    assert branchings[0].source == (0, 0, 0)
    # the rule at 0 and at 1: together the two steps span the source
    assert (branchings[0].left, branchings[0].right) == (RewriteStep(0, 0), RewriteStep(0, 1))


def test_critical_branchings_inclusion():
    rs = make(ABC, [((0, 1, 0), (2,)), ((1,), (2,))])
    sources = {b.source for b in critical_branchings(rs)}
    assert (0, 1, 0) in sources


def test_semi_quadratic_sources_have_length_three():
    from sdskit.chinese import completed_presentation
    system = completed_presentation(3).system
    assert classify(system).semi_quadratic
    branchings = critical_branchings(system)
    assert all(len(b.source) == 3 for b in branchings)
    # branching count equals the number of generator triples with both
    # overlapping pairs reducible (brute-force oracle)
    lhs = {r.lhs for r in system.rules}
    k = len(system.alphabet)
    count = sum(1 for u in range(k) for v in range(k) for t in range(k)
                if (u, v) in lhs and (v, t) in lhs)
    assert len(branchings) == count


def _witnesses(system) -> list:
    # through the module, since the mutation gate calls its callers directly
    return [coherence.legs_witness(b.source, left, right)
            for b, left, right in check_local_confluence(system)]


def test_local_confluence_empty_system_vacuous():
    rs = make(AB, [])
    assert list(check_local_confluence(rs)) == []


def test_local_confluence_detects_failure():
    # ba -> x, ab -> y join nothing on aba and bab
    rs = make(Alphabet(("a", "b", "x", "y")), [((1, 0), (2,)), ((0, 1), (3,))])
    assert _witnesses(rs) == [{"source": [0, 1, 0], "left": [3, 0], "right": [0, 2]},
                              {"source": [1, 0, 1], "left": [2, 1], "right": [1, 3]}]


def test_precolumn_has_the_expected_nonconfluent_branchings():
    from sdskit.chinese import precolumn_presentation
    assert any(_witnesses(precolumn_presentation(3).system))


def test_congruence_classes_chinese_321():
    part = congruence_classes(build_presentation("chinese-relations", 3).system, 4)
    block, = (c for c in part.classes() if (2, 1, 0) in c)  # the word 3 2 1
    assert block == frozenset({(2, 1, 0), (2, 0, 1), (1, 2, 0)})


def test_congruence_classes_empty_system_singletons():
    part = congruence_classes(make(AB, []), 3)
    assert all(len(c) == 1 for c in part.classes())


def test_congruence_classes_knuth_matches_fibers():
    from sdskit.young import young_right
    part = congruence_classes(build_presentation("knuth", 3).system, 4)
    structure = young_right(3)
    for block in part.classes():
        images = {structure.read(structure.constructor(tuple(x + 1 for x in w)))
                  for w in block}
        assert len(images) == 1


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_congruence_refinement_monotone(max_len):
    rs = build_presentation("chinese-relations", 3).system
    small = congruence_classes(rs, max_len)
    large = congruence_classes(rs, max_len + 1)
    for block in small.classes():
        reps = {large.representative[w] for w in block}
        assert len(reps) == 1


def test_knuth_bendix_pass_confluent_input_unchanged():
    from sdskit.chinese import completed_presentation, completed_order_less
    system = completed_presentation(3).system
    result = knuth_bendix_pass(system, completed_order_less(3))
    assert result.added == ()
    assert result.system.pairs == system.pairs


def test_knuth_bendix_pass_keeps_input_rules():
    from sdskit.chinese import precolumn_presentation, completed_order_less
    pre = precolumn_presentation(3)
    result = knuth_bendix_pass(pre.system, completed_order_less(3))
    assert pre.system.pairs <= result.system.pairs


def test_knuth_bendix_unorientable_reported():
    # a -> b and a -> c cannot be joined under an order where b, c tie
    rs = make(ABC, [((0,), (1,)), ((0,), (2,))])
    result = knuth_bendix_pass(rs, lambda u, v: False)
    assert result.unorientable


def test_knuth_bendix_flags_an_added_right_side_it_could_not_normalize():
    # ab -> 1 against ab -> a adds a -> 1, and aab adds b -> a; with no
    # step to spare b -> a keeps its right side a, which a -> 1 rewrites
    rs = make(AB, [((0, 0), ()), ((0, 1), ()), ((0, 1), (0,))])
    shortlex = lambda u, v: (len(u), u) < (len(v), v)
    result = knuth_bendix_pass(rs, shortlex, budget=0)
    assert result.added == (((1,), (0,)), ((0,), ()))
    assert not is_normal_form(result.system, (0,))
    assert result.budget_exhausted
    unbounded = knuth_bendix_pass(rs, shortlex)
    assert unbounded.added == (((1,), ()), ((0,), ()))
    assert not unbounded.budget_exhausted


def test_classify_shapes():
    assert not classify(build_presentation("knuth", 3).system).semi_quadratic
    from sdskit.chinese import commutation_rule_pairs, qn_generating_set, qn_generators
    idx = {g: i for i, g in enumerate(qn_generators(3))}
    pairs = [(tuple(idx[g] for g in l), tuple(idx[g] for g in r))
             for l, r in sorted(commutation_rule_pairs(3))]
    flags = classify(make(qn_generating_set(3).alphabet, pairs))
    assert flags.quadratic and flags.semi_quadratic


def test_classify_reduced():
    reducible = make(AB, [((0, 1), (1,)), ((0, 1, 1), (0,))])
    assert not classify(reducible).reduced


def test_a_step_table_lives_as_long_as_its_system():
    # a library caller's tables live while it holds the system and die
    # with it; the tables are read through the module, so that a patched
    # dict is the one counted (the mutation gate calls this test directly)
    from sdskit.chinese import completed_order_less, precolumn_presentation
    from sdskit.young import column_presentation
    tables = rewriting._step_tables
    before = len(tables)
    system = column_presentation(3).system
    rewriting.classify(system)
    assert system in tables and len(tables) == before + 1
    held = weakref.ref(system)
    del system
    assert held() is None and len(tables) == before
    # one pass selects steps in 82 systems, the input and one per rule added
    result = rewriting.knuth_bendix_pass(precolumn_presentation(5).system,
                                         completed_order_less(5))
    assert len(result.added) == 81
    del result
    assert len(tables) == before


def test_termination_witness_rejects_growth():
    rs = make(AB, [((0,), (0, 0))])
    assert termination_witness(rs, lambda a, b: False) is rs.rules[0]


def test_termination_witness_ties_need_letter_drop():
    # called through the module, so that a patched function is the one run
    # the sides are compared at their first differing letter: 0 0 < 0 1
    for pair in [((1, 0), (0, 1)), ((0, 1), (0, 0))]:
        rs = make(AB, [pair])
        assert rewriting.termination_witness(rs, lambda a, b: a < b) is None
        assert rewriting.termination_witness(rs, lambda a, b: a > b) is rs.rules[0]


def test_length_lex_compares_lengths_first_and_is_strict():
    # through the module, so that a mutant patched into it is reached
    less = rewriting.length_lex(lambda a, b: a < b)
    last = 9
    assert less((last,), (0, 0))        # shorter below longer
    assert not less((0, 0), (last,))
    assert not less((1, last), (1, last))   # a word is not below itself


@st.composite
def _ranked_words(draw):
    """A random rank of at most 5 letters, and a list of words over them of
    at most 6 letters each."""
    k = draw(st.integers(1, 5))
    rank = draw(st.permutations(range(k)))
    words = draw(st.lists(st.lists(st.integers(0, k - 1), max_size=6).map(tuple),
                          min_size=2, max_size=12))
    return k, rank, words


@settings(max_examples=300, deadline=None)
@given(_ranked_words(), st.data())
def test_length_lex_is_the_length_then_rank_key(drawn, data):
    k, rank, words = drawn
    def key(word):
        return len(word), [rank[x] for x in word]
    less = rewriting.length_lex(lambda a, b: rank[a] < rank[b])
    for u in words:
        for v in words:
            assert less(u, v) == (key(u) < key(v))
    # a system whose rhs keeps its lhs's length or shrinks it: the witness is
    # the first rule that the key comparison does not decrease
    pairs = []
    for lhs in words:
        if lhs:
            rhs = data.draw(st.lists(st.integers(0, k - 1), max_size=len(lhs)).map(tuple)
                            | st.permutations(lhs).map(tuple))
            if rhs != lhs:
                pairs.append((lhs, rhs))
    system = make(Alphabet.letters(k), dict.fromkeys(pairs))
    expected = next((r for r in system.rules if not key(r.rhs) < key(r.lhs)), None)
    assert rewriting.termination_witness(system, lambda a, b: rank[a] < rank[b]) is expected


def test_words_up_to_order():
    words = words_up_to(2, 2)
    assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


@st.composite
def random_system_and_word(draw):
    n_letters = draw(st.integers(2, 3))
    n_rules = draw(st.integers(1, 3))
    pairs = []
    seen = set()
    for _ in range(n_rules):
        lhs = tuple(draw(st.lists(st.integers(0, n_letters - 1), min_size=1, max_size=3)))
        rhs = tuple(draw(st.lists(st.integers(0, n_letters - 1), min_size=0, max_size=3)))
        if lhs != rhs and (lhs, rhs) not in seen:
            seen.add((lhs, rhs))
            pairs.append((lhs, rhs))
    alphabet = Alphabet(tuple("abcdef"[:n_letters]))
    word = tuple(draw(st.lists(st.integers(0, n_letters - 1), max_size=6)))
    return RewritingSystem.from_pairs(alphabet, pairs), word


@given(random_system_and_word())
@settings(max_examples=60, deadline=None)
def test_normalize_path_replays(data):
    system, word = data
    res = normalize(system, word, budget=20)
    assert replay(system, res.path) == res.target
    if res.reached_normal_form:
        assert is_normal_form(system, res.target)


@given(random_system_and_word())
@settings(max_examples=60, deadline=None)
def test_picks_match_brute_force(data):
    system, word = data
    _assert_picks(system, word)
