"""Driver behavior: subcommands, exit codes, and byte-level determinism."""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sdskit import rewriting, young
from sdskit.cli import CHECKS, _to_json, main
from sdskit.registry import COMMUTATION_PAIRS, PRESENTATION_NAMES, PROBE_PAIRS, STRUCTURES

RUN = [sys.executable, "-m", "sdskit.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def test_insert_young_golden(capsys):
    assert main(["insert", "--structure", "young-right", "--word", "4 5 3 1 2 6"]) == 0
    assert capsys.readouterr().out == "1 2 6\n3 5\n4\n"


def test_insert_empty_word_gives_empty_staircase(capsys):
    assert main(["insert", "--structure", "chinese-right", "--word", ""]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 0, "rows": []}


def test_insert_round_trip_via_reading(capsys):
    word = "2 3 1 3 2 4 2 4 2"
    assert main(["insert", "--structure", "chinese-right", "--n", "4",
                 "--word", word]) == 0
    payload = json.loads(capsys.readouterr().out)
    from sdskit.chinese import chinese_right, read_rr, staircase_from_display
    t = staircase_from_display(payload["n"], payload["rows"])
    s = chinese_right(4)
    assert s.constructor(read_rr(t)) == t
    assert t == s.constructor(tuple(int(x) for x in word.split()))


def test_insert_with_starting_datum(capsys):
    assert main(["insert", "--structure", "young-right", "--datum", "1 3 5;2 4;6",
                 "--n", "6", "--word", "2"]) == 0
    assert capsys.readouterr().out == "1 2 5\n2 3\n4\n6\n"


@pytest.mark.parametrize("structure", ["hypoplactic-right", "hypoplactic-left"])
def test_quasi_ribbon_offsets_must_be_the_rows_offsets(structure, capsys):
    # the offsets are derived from the rows; a datum that gives others
    # contradicts itself
    argv = ["insert", "--structure", structure, "--n", "3", "--word", "2", "--datum"]
    for offsets in ("[7, 9]", "[0.0, 1.0]", "[0]", '"0 1"'):
        assert main(argv + ['{"rows": [[1, 2], [3]], "offsets": %s}' % offsets]) == 2
        assert capsys.readouterr() == \
            ("", f"error: offsets {offsets} are not the rows' offsets [0, 1]\n")
    # the offsets that insert writes, or none, are accepted alike
    assert main(argv + ['{"rows": [[1, 2], [3]], "offsets": [0, 1]}']) == 0
    out = capsys.readouterr().out
    assert main(argv + ['{"rows": [[1, 2], [3]]}']) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("given,shown", [
    ('"n": "3", ', '"3"'), ("", "null"), ('"n": true, ', "true"), ('"n": 1.0, ', "1.0")])
def test_staircase_rank_error_writes_the_given_rank_as_json(given, shown, capsys):
    datum = '{%s"rows": [[1], [0, 0], [0, 0, 0]]}' % given
    assert main(["insert", "--structure", "chinese-right", "--n", "3", "--word", "1",
                 "--datum", datum]) == 2
    assert capsys.readouterr() == ("", f"error: staircase rank {shown} is not n = 3\n")


def test_insert_unknown_structure_exits_2():
    assert main(["insert", "--structure", "nope", "--word", "1"]) == 2


def test_insert_bad_datum_exits_2():
    assert main(["insert", "--structure", "young-right", "--datum", "2 1",
                 "--n", "2", "--word", "1"]) == 2


def test_build_knuth_n1_empty(capsys):
    assert main(["build", "knuth", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rules"] == []


def test_build_column_n3(capsys):
    assert main(["build", "column", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["alphabet"]) == 7


def test_build_chinese_completed_semi_quadratic(capsys):
    assert main(["build", "chinese-completed", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["alphabet"]) == 7
    assert all(len(r["lhs"]) == 2 and len(r["rhs"]) <= 2 for r in payload["rules"])


def test_check_commutation_exit_zero(capsys):
    assert main(["check", "commutation", "--structure", "chinese",
                 "--n", "3", "--max-len", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "pass"


def test_check_embeds_bounds(capsys):
    main(["check", "axioms", "--structure", "young-right", "--n", "2", "--max-len", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"n": 2, "max_len": 3}


def test_check_path_bounds_reports_failure_exit_one(capsys):
    # the late-step sub-check has genuine counterexamples, so the overall
    # verdict is a verified failure with a witness
    assert main(["check", "path-bounds", "--n", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["length_bounds"] == "pass"
    assert payload["late_steps_commutation"] == "fail"


@pytest.mark.parametrize("name", ["bogus", "column", "young-right"])
def test_check_path_bounds_unregistered_name_exits_2(name):
    proc = run_cli("check", "path-bounds", "--structure", name, "--n", "3")
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_check_path_bounds_honours_budget(capsys):
    # one step per path cannot normalize a reducible triple
    assert main(["check", "path-bounds", "--n", "3", "--budget", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "fail"
    assert 0 < payload["budget_hits"] <= 2 * payload["triples"]


def test_check_confluence_reports_budget_hits(capsys):
    # no step after the branching step: every leg is truncated
    assert main(["check", "confluence", "--structure", "column", "--n", "3",
                 "--budget", "0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "fail"
    assert payload["budget_hits"] == payload["branchings"] == 42
    assert main(["check", "confluence", "--structure", "column", "--n", "3",
                 "--budget", "100"]) == 0
    assert "budget_hits" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("family", ["young", "chinese"])
def test_check_cell_shapes_fails_on_budget_hits(family, capsys):
    assert main(["check", "cell-shapes", "--structure", family, "--n", "3",
                 "--budget", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "fail"
    assert payload["witness"]["reason"] == "budget exhausted"
    assert payload["witness"]["source"]


def test_cells_budget_hit_is_a_failure_not_a_usage_error(capsys):
    assert main(["cells", "--structure", "chinese", "--n", "3", "--kind", "strategy",
                 "--budget", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: budget exhausted on triple")


def test_closed_pipe_exits_1_without_a_traceback():
    # the report is larger than a pipe's buffer, so the writer sees the close
    proc = subprocess.Popen(RUN + ["build", "sylvester", "--n", "4", "--max-len", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), len(head), err) == (1, 10, b"")


def test_check_probe_always_exit_zero(capsys):
    assert main(["check", "probe", "--structure", "hypoplactic",
                 "--n", "3", "--max-len", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] in ("exhausted", "counterexample")


def test_check_unknown_name_exits_2():
    assert main(["check", "termination", "--structure", "hypoplactic", "--n", "3"]) == 2


def test_lookup_error_message_is_not_quoted(capsys):
    # str() of the registry's KeyError would wrap the message in quotes
    assert main(["check", "cross-section", "--structure", "young", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no congruence registered for 'young'\n"


def test_cells_deterministic_output():
    a = run_cli("cells", "--structure", "chinese", "--n", "3", "--kind", "strategy")
    b = run_cli("cells", "--structure", "chinese", "--n", "3", "--kind", "strategy")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout


def test_check_deterministic_output():
    args = ("check", "cross-section", "--structure", "young-right",
            "--n", "3", "--max-len", "4")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0 and a.stdout == b.stdout


def test_out_file_and_text_format(tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "axioms", "--structure", "lps-right", "--n", "2",
                 "--max-len", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"] == "pass"
    assert main(["check", "axioms", "--structure", "lps-right", "--n", "2",
                 "--max-len", "3", "--format", "text", "--out", str(out)]) == 0
    assert "result" in out.read_text()


# text that may hold "%", which a template must not read as a directive
TEXT = st.text() | st.text("%sd(){}")

REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner) | st.lists(st.integers()) |
    st.dictionaries(TEXT | st.integers() | st.booleans() | st.none(), inner),
    max_leaves=30)


@st.composite
def repeated_shapes(draw):
    """Dicts of one shape (the same keys, each with an int or an int list
    of one length) nested in lists and dicts at several depths."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    sizes = [draw(st.integers(-1, 3)) for _ in keys]    # -1: a bare int

    def record():
        return {k: draw(st.integers() if m < 0 else st.lists(st.integers(), min_size=m,
                                                               max_size=m))
                for k, m in zip(keys, sizes)}

    value = [record() for _ in range(draw(st.integers(1, 3)))]
    for key in draw(st.lists(TEXT, min_size=1, max_size=3)):
        value = [record(), {key: value}, record()]
    return value


def one_shot(value, rng):
    """`value` with each list, at random, given as a one-shot iterator, as
    a tuple or as itself."""
    if isinstance(value, dict):
        return {k: one_shot(v, rng) for k, v in value.items()}
    if isinstance(value, list):
        items = [one_shot(x, rng) for x in value]
        return rng.choice((iter(items), tuple(items), items))
    return value


RECORD = {"lhs": (1, 0), "rhs": [0, 1], "id": 7, "%s": "100%"}


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES | repeated_shapes(), st.randoms(use_true_random=False))
# one shape at several indents, and keys that hash alike but are written apart
@example({"rules": [RECORD, {"inner": [RECORD, [RECORD]]}, RECORD], "last": RECORD},
         random.Random(0))
@example([{1: 0}, {True: 0}, {1.0: 0}, {"1": 0}, {None: [2]}, {"null": [2]}],
         random.Random(0))
def test_emitter_matches_json_dumps_indent_2(value, rng):
    assert "".join(_to_json(one_shot(value, rng))) == json.dumps(value, indent=2)


def test_emitter_rejects_keys_json_rejects():
    with pytest.raises(TypeError):
        json.dumps({(1,): 0}, indent=2)
    with pytest.raises(TypeError):
        "".join(_to_json({(1,): 0}))


class RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("args,digest", [
    ("--n 4 --max-len 3", "8520063570b50da07af4a172e2a2a567dc2423a06fd69a27d6779e28fa393bd0"),
    ("--n 5 --max-len 3 --format text",
     "c316ab2244d5ba33aef7c553fd2e79956827abede7170c9cd950ceecef824166"),
])
def test_reports_are_written_in_chunks(args, digest):
    # a report is never held whole: no single write carries much of it
    stream = RecordingStream()
    with contextlib.redirect_stdout(stream):
        assert main(["build", "sylvester", *args.split()]) == 0
    text = "".join(stream.writes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert max(map(len, stream.writes)) <= len(text) / 8


@pytest.mark.parametrize("argv,err", [
    (["--structure", "young-right", "--n", "2", "--word", "3 0"], "letter 3"),
    (["--structure", "chinese-right", "--n", "2", "--word", "1 3 2 0 1"], "letter 3"),
    (["--structure", "sylvester-left", "--n", "2", "--word", "3 0"], "letter 0"),
    (["--structure", "chinese-left", "--n", "2", "--word", "1 3 2 0 1"], "letter 0"),
    (["--structure", "young-left", "--n", "3", "--word", "1 4 2 -1 1"], "letter -1"),
    (["--structure", "hypoplactic-right", "--n", "2", "--word", "1 3 2 0 1"], "letter 3"),
    (["--structure", "hypoplactic-left", "--n", "2", "--word", "1 3 2 0 1"], "letter 0"),
    (["--structure", "lps-right", "--n", "2", "--word", "3 0"], "letter 3"),
    (["--structure", "rps-right", "--n", "3", "--word", "1 4 2 -1 1"], "letter 4"),
])
def test_insert_rejects_the_first_bad_letter_in_reading_order(argv, err, capsys):
    # a right-to-left structure reads the word from its last letter
    assert main(["insert", *argv]) == 2
    n = argv[argv.index("--n") + 1]
    assert capsys.readouterr() == ("", f"error: {err} out of range 1..{n}\n")


@pytest.mark.parametrize("argv", [
    ["--word", "-1"], ["--word", "0"], ["--word", "0 -2"], ["--word", "", "--datum", "1 2"],
    ["--word", "", "--datum", "1", "--format", "text"]])
def test_insert_without_n_needs_a_letter_of_at_least_1(argv, capsys):
    # --n defaults to the word's largest letter, which gives no range when
    # that letter is below 1; the empty word alone is still the empty datum
    assert main(["insert", "--structure", "young-right", *argv]) == 2
    assert capsys.readouterr() == \
        ("", "error: --n is needed, since the word has no letter of at least 1\n")
    assert main(["insert", "--structure", "young-right", "--word", ""]) == 0
    assert capsys.readouterr() == ("(empty)\n", "")


def test_usage_error_exits_2():
    proc = run_cli("build", "not-a-presentation", "--n", "2")
    assert proc.returncode == 2


def test_insert_deep_search_tree_exits_0_and_round_trips():
    # equal letters all descend left: a chain deeper than the recursion limit
    base = ["insert", "--structure", "sylvester-left", "--n", "1"]
    proc = run_cli(*base, "--word", " ".join(["1"] * 1500))
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert proc.stdout == "(1 " * 1500 + "·" + " ·)" * 1500 + "\n"
    again = run_cli(*base, "--datum", proc.stdout.rstrip("\n"), "--word", "")
    assert again.returncode == 0 and "Traceback" not in again.stderr
    assert again.stdout == proc.stdout


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_insert_reads_letters_past_the_numeral_table(name):
    # letters of 100 and more, in the word and in the datum text of the
    # second stage, and letters spelled with leading zeros are read by int()
    rng = random.Random(120)
    v, u = (rng.sample(range(100, 121), 21) + [rng.randint(1, 120) for _ in range(40)]
            for _ in range(2))
    entry = STRUCTURES[name]
    s = entry.factory(120)
    first = s.insert_long(s.empty, tuple(v))
    want = [entry.format_datum(first) + "\n",
            entry.format_datum(s.insert_long(first, tuple(u))) + "\n"]
    for spell in (str, "{:03}".format):
        datum = ""
        for word, out in zip((v, u), want):
            argv = ["insert", "--structure", name, "--n", "120", "--datum", datum,
                    "--word", " ".join(map(spell, word))]
            assert _main_in_process(argv) == (0, out), (spell(7), word)
            datum = out.rstrip("\n")


def _main_in_process(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def test_shared_parser_carries_no_state_between_calls():
    # one process parses every argv with the same parser object; each call
    # must behave as the first call of a fresh process
    sequence = [
        ["insert", "--structure", "young-left", "--n", "4", "--datum", "1 2;3",
         "--word", "4 1 2"],
        ["check", "path-bounds", "--n", "3"],
        ["check", "axioms", "--structure", "young-right", "--n", "0"],
        ["insert", "--structure", "young-left", "--word", "3 1 2 2"],
    ]
    in_process = [_main_in_process(argv) for argv in sequence]
    fresh = [(proc.returncode, proc.stdout) for proc in (run_cli(*argv) for argv in sequence)]
    assert in_process == fresh
    assert [code for code, _ in in_process] == [0, 1, 2, 0]


def test_a_command_releases_its_step_tables_on_every_exit():
    # a pass, a verified failure with a report, and a verified failure
    # raised as a CellFailure: each leaves no step table, since a table
    # dies with the command's systems; tables that other tests hold may
    # be alive throughout, so the count is taken before each command
    for argv, code, err in [
        (["check", "confluence", "--structure", "column", "--n", "3"], 0, ""),
        (["check", "path-bounds", "--n", "4"], 1, ""),
        (["cells", "--structure", "chinese", "--n", "4", "--budget", "1"], 1,
         "error: budget exhausted"),
    ]:
        before = len(rewriting._step_tables)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert _main_in_process(argv)[0] == code, argv
        assert stderr.getvalue().startswith(err), argv
        assert len(rewriting._step_tables) == before, argv


def test_tables_left_by_earlier_calls_do_not_change_a_command_s_bytes():
    argv = ["check", "confluence", "--structure", "column", "--n", "3"]
    first = _main_in_process(argv)
    assert _main_in_process(argv) == first
    # a library caller holds its system, so its table is alive, and the
    # command's equal system finds that table
    system = young.column_presentation(3).system
    before = len(rewriting._step_tables)
    rewriting.classify(system)
    assert system in rewriting._step_tables
    assert len(rewriting._step_tables) == before + 1
    assert _main_in_process(argv) == first
    assert len(rewriting._step_tables) == before + 1


@pytest.mark.parametrize("argv", [
    ["--structure", "young-right", "--word", "1 x"],
    ["--structure", "sylvester-left", "--datum", "(", "--word", "1"],
    ["--structure", "chinese-right", "--datum", "[1]", "--word", "1"],
    ["--structure", "hypoplactic-right", "--datum", "[1]", "--word", "1"],
    ["--structure", "lps-right", "--datum", "[1]", "--word", "1"],
    ["--structure", "hypoplactic-right", "--datum", '{"rows": 5}', "--word", "1"],
    ["--structure", "lps-right", "--datum", '{"columns_bottom_up": [[]]}', "--word", "1"],
    # parse but fail their shape predicate: a decreasing lps column, a
    # left child above its parent
    ["--structure", "lps-right", "--datum", '{"columns_bottom_up": [[3,1]]}', "--word", "2"],
    ["--structure", "sylvester-left", "--datum", "(1 (3 . .) .)", "--word", "1"],
    # valid data whose letters leave 1..n, and a staircase of another rank
    ["--structure", "young-right", "--datum", "5", "--n", "3", "--word", "1"],
    ["--structure", "young-right", "--datum", "0", "--n", "3", "--word", "1"],
    ["--structure", "young-right", "--datum", "-1", "--n", "3", "--word", "1"],
    ["--structure", "hypoplactic-right", "--datum", '{"rows":[[7]]}', "--n", "2",
     "--word", "1"],
    ["--structure", "lps-right", "--datum", '{"columns_bottom_up":[[8]]}', "--n", "2",
     "--word", "1"],
    ["--structure", "chinese-right", "--datum", '{"n":3,"rows":[[0],[0,0],[0,0,0]]}',
     "--n", "2", "--word", "1"],
    # a rank that equals n only as a bool or a float
    ["--structure", "chinese-right", "--n", "1", "--datum", '{"n": true, "rows": [[1]]}',
     "--word", "1"],
    ["--structure", "chinese-right", "--n", "1", "--datum", '{"n": 1.0, "rows": [[1]]}',
     "--word", "1"],
    # JSON nested past what json's recursive decoder can take
    *[["--structure", name, "--datum", "[" * 100_000 + "]" * 100_000, "--word", "1"]
      for name in ("chinese-right", "hypoplactic-right", "lps-right")],
], ids=["word-junk", "tree-truncated", "staircase-list", "ribbon-list", "patience-list",
        "ribbon-rows-int", "patience-empty-column", "patience-invalid", "tree-invalid",
        "tableau-letter-above-n", "tableau-letter-0", "tableau-letter-negative",
        "ribbon-letter-above-n", "patience-letter-above-n", "staircase-rank-above-n",
        "staircase-rank-bool", "staircase-rank-float", "staircase-nested", "ribbon-nested",
        "patience-nested"])
def test_malformed_insert_input_exits_2(argv, capsys):
    assert main(["insert", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name,datum,n,err", [
    # the least and greatest letters are read off the validated shape: a
    # tableau's corner and its row ends, a ribbon's first and last box, a
    # patience tableau's first bottom and its column tops, a tree's labels
    ("young-right", "1 2;3 4;5", 4, "datum has a letter out of range 1..4"),
    ("young-left", "0 2;3", 3, "datum has a letter out of range 1..3"),
    ("young-right", "1 1 1;2 2;3", 2, "datum has a letter out of range 1..2"),
    ("hypoplactic-right", '{"rows":[[1,2],[3]]}', 2, "datum has a letter out of range 1..2"),
    ("hypoplactic-left", '{"rows":[[0,2],[3]]}', 3, "datum has a letter out of range 1..3"),
    ("lps-right", '{"columns_bottom_up":[[1,2],[1,5]]}', 4,
     "datum has a letter out of range 1..4"),
    ("rps-right", '{"columns_bottom_up":[[0,2],[1,1]]}', 4,
     "datum has a letter out of range 1..4"),
    ("sylvester-left", "(2 (1 · ·) (3 · ·))", 2, "datum has a letter out of range 1..2"),
    ("sylvester-left", "(2 (0 · ·) ·)", 2, "datum has a letter out of range 1..2"),
    # a shape or parse error comes before the range
    ("rps-right", '{"columns_bottom_up":[[2,2],[1]]}', 1, "not a valid patience sorting tableau"),
    ("sylvester-left", "(2 (3 · ·) (9 · ·))", 3, "not a valid binary search tree"),
    ("sylvester-left", "(2 (1 · ·) (9 · ", 3, "unexpected end of tree"),
    ("sylvester-left", "(1 · (1 · ·))", 3, "not a valid binary search tree"),
    ("hypoplactic-right", '{"rows":[[2],[1]]}', 3, "not a valid quasi-ribbon tableau"),
])
def test_a_datum_out_of_range_is_named_after_any_parse_error(name, datum, n, err, capsys):
    # recorded before the range was read off the shape
    assert main(["insert", "--structure", name, "--n", str(n), "--datum", datum,
                 "--word", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("word,token", [("1 x", "x"), ("1 2.5 3", "2.5"), ("1 4 x", "x")])
def test_a_word_token_that_is_not_an_integer_is_named(word, token, capsys):
    # recorded before the word was parsed with map(int, ...)
    assert main(["insert", "--structure", "hypoplactic-left", "--n", "3", "--word", word]) == 2
    assert capsys.readouterr() == ("", f"error: invalid literal for int() with base 10: "
                                       f"'{token}'\n")


@pytest.mark.parametrize("argv,message", [
    (["insert", "--structure", "young-right", "--word", "1_2 ３"],
     "invalid literal for int() with base 10: '1_2'"),
    (["check", "axioms", "--structure", "young-right", "--n", "2", "--max-len", "1_0"],
     "argument --max-len: invalid integer value: '1_0'"),
    (["insert", "--structure", "young-right", "--n", "10", "--word", "1", "--datum", "1_0"],
     "invalid literal for int() with base 10: '1_0'"),
    (["insert", "--structure", "sylvester-left", "--n", "3", "--word", "1",
      "--datum", "(+2 · ·)"], "invalid literal for int() with base 10: '+2'"),
], ids=["word", "bound", "tableau", "tree"])
def test_an_integer_is_ascii_digits_with_an_optional_minus(argv, message, capsys):
    # int() alone reads 1_2, +2 and fullwidth digits
    try:
        code = main(argv)
    except SystemExit as exc:     # the parser refuses the bound
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: ") == 1 and err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["check", "axioms", "--structure", "young-right", "--n", "3", "--max-len", "-1"],
    ["check", "commutation", "--structure", "young", "--n", "0"],
    ["cells", "--structure", "young", "--n", "0"],
    ["build", "knuth", "--n", "0"],
    ["build", "row", "--n", "2", "--max-len", "-1"],
    ["build", "sylvester", "--n", "2", "--max-len", "-3"],
    ["insert", "--structure", "young-right", "--n", "-1", "--word", ""],
    # a negative budget is refused even where no normalization would run
    ["check", "axioms", "--structure", "young-right", "--n", "2", "--max-len", "3",
     "--budget", "-5"],
    ["check", "path-bounds", "--n", "2", "--budget", "-5"],
    ["check", "confluence", "--structure", "column", "--n", "2", "--budget", "-5"],
    ["cells", "--structure", "young", "--n", "2", "--budget", "-1"],
    # bounded presentations with no critical branching, so confluence would
    # pass with nothing examined: row has no rules at these bounds (nor
    # letters at --max-len 0), and sylvester has one rule that overlaps nothing
    ["check", "confluence", "--structure", "row", "--n", "2", "--max-len", "0"],
    ["check", "confluence", "--structure", "row", "--n", "2", "--max-len", "1"],
    ["check", "confluence", "--structure", "sylvester", "--n", "2", "--max-len", "0"],
    # below --max-len 3 each triple holds the empty datum, so associativity
    # would pass on the section property alone
    ["check", "associativity", "--structure", "chinese-left", "--n", "2", "--max-len", "0"],
    ["check", "associativity", "--structure", "lps-right", "--n", "2", "--max-len", "1"],
    # at --max-len 0 the empty word alone would be examined
    ["check", "cross-section", "--structure", "young-right", "--n", "2", "--max-len", "0"],
    ["check", "compatibility", "--structure", "sylvester-left", "--n", "2", "--max-len", "0"],
    # at n=1 these presentations have no rules, so no cell, path triple or
    # rule would be examined
    ["check", "cell-shapes", "--structure", "young", "--n", "1"],
    ["check", "cell-shapes", "--structure", "chinese", "--n", "1"],
    ["check", "path-bounds", "--n", "1"],
    ["check", "termination", "--structure", "young", "--n", "1"],
    ["check", "termination", "--structure", "chinese", "--n", "1"],
    ["check", "termination", "--structure", "chinese-precolumn", "--n", "1"],
])
def test_degenerate_bounds_exit_2(argv):
    # the parser exits on a bound it refuses; a bound it accepts but that
    # leaves nothing to check makes main return 2 with a message; the
    # mutation gate calls this test directly
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, out = _main_in_process(argv)
    assert code == 2
    assert out == ""
    err = stderr.getvalue()
    if argv[1] in ("confluence", "associativity", "cross-section", "compatibility") and \
            "--max-len" in argv:
        assert "n=2" in err and f"--max-len {argv[-1]}" in err
    if argv[-2:] == ["--n", "1"]:
        assert "n=1" in err


@pytest.mark.parametrize("check", ["cross-section", "compatibility"])
def test_a_congruence_rule_that_changes_length_exits_2(check, monkeypatch, capsys):
    # a registered congruence holding 1.1 -> 1 is refused, not checked on a
    # partition that is only a lower bound
    monkeypatch.setitem(STRUCTURES, "young-right", replace(
        STRUCTURES["young-right"], congruence=lambda n, L: rewriting.RewritingSystem.from_pairs(
            rewriting.Alphabet.letters(n), [((0, 0), (0,))])))
    assert main(["check", check, "--structure", "young-right", "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: rule 1.1 -> 1 changes length") and err.count("\n") == 1
    assert "Traceback" not in err


def _word(n: int, length: int, seed: int) -> str:
    """A fixed word of `length` letters in 1..n, "_"-joined for a GOLDEN line."""
    letters, x = [], seed
    for _ in range(length):
        x = (x * 1103515245 + 12345) % 2 ** 31
        letters.append(str(1 + (x >> 16) % n))
    return "_".join(letters)


# starting data for the word insertions, in each structure's text format
YOUNG_DATUM = "1_1_2_3_5_8;2_3_4_6_9;4_5_7;6_8;9"
STAIRCASE_DATUM = ('{"n":9,"rows":[[2],[1,3],[0,2,1],[3,0,0,1],[1,1,0,2,0],[0,0,4,0,1,2],'
                   '[2,1,0,0,0,3,1],[0,1,1,0,2,0,0,1],[1,0,0,3,0,1,0,2,1]]}')
TREE_DATUM = "(5_(2_(1_·_·)_(4_(3_·_·)_·))_(8_(6_·_(7_·_·))_(9_·_·)))"
RIBBON_DATUM = '{"rows":[[1,1,3],[4,4,6],[7],[8,9]]}'
# JSON's \u005f escape spells the underscores of the key, since "_" in a
# GOLDEN line stands for a space
LPS_DATUM = r'{"columns\u005fbottom\u005fup":[[1,3,6],[1,2],[2,5,7,9],[4],[4,8]]}'
RPS_DATUM = r'{"columns\u005fbottom\u005fup":[[1,1,3,6],[2,2,5],[4,7,7,9],[8]]}'
TALL_DATUM = "1_1;2_3;3;4;5;6;7;8;9"
EMPTY_DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
JUNK_TABLEAU_LINE = "insert --structure young-left --n 2 --datum 1_x;2 --word 1"
# malformed trees (truncated, a stray token, a subtree too many, trailing
# input), each insert line with its stderr
TREE_ERROR_LINES = {
    f"insert --structure sylvester-left --n 3 --datum {tree} --word 1": f"error: {message}\n"
    for tree, message in [("(2_(1_·_·)", "unexpected end of tree"),
                          ("(2_x_·)", "unexpected token 'x'"),
                          ("(2_·_·_3)", "expected ')'"),
                          ("(1_·_·)_·", "trailing input")]}
# below --max-len 3 each triple holds the empty datum, so associativity has
# nothing to check
SHORT_ASSOCIATIVITY_LINE = "check associativity --structure young-right --n 2 --max-len 2"

# (argv, exit code, sha256 of stdout), recorded before the CLI dispatched
# through the registry tables; "_" stands for a space inside an argument
GOLDEN = [
    ("check axioms --structure young-right --n 3 --max-len 4", 0,
     "882a9b0372ab72b29e1d1d7888055d13440ff06f2ac7a24cc5bc78291cb485a2"),
    ("check axioms --structure lps-right --n 2 --max-len 3 --format text", 0,
     "3f949c76d59e356d54f250ed454388f2a693b1b7dc3ca75d35d7b13fb6c97107"),
    ("check associativity --structure young-right --n 2 --max-len 4", 0,
     "8a77e8e4fd217b4f231fc21f5161df55b4098aba6a85386867b98ca77ef45a46"),
    ("check commutation --structure chinese --n 3 --max-len 4", 0,
     "1411c22f9c79b0d335a59125882f2c19e91469017ebefbbc814d3e27f8b5baf1"),
    ("check cross-section --structure sylvester-left --n 3 --max-len 4", 0,
     "bb4bc6dcc19d30a807ff66456cbc16e543afa01b019d5dfa805269674c220f40"),
    ("check compatibility --structure hypoplactic-right --n 2 --max-len 4", 0,
     "80f4a0bc611914dc7071e1990abcc644dd06514a9295880c04e2831bc08fd4dd"),
    ("check confluence --structure knuth --n 3", 1,
     "fda39ac721d924601eced4005071086e70bbc83066b09ba1b5c08397444e7622"),
    ("check confluence --structure young --n 3", 0,
     "b002d07f1c219aae3b3deaf13a46d6d94237030fc1b23114d16219b784e58221"),
    ("check termination --structure chinese --n 3", 0,
     "39047647666dc206be0e2babf54babe6c1ad336c196b8809afb0d8b9da64f805"),
    ("check termination --structure young --n 4", 0,
     "ca05b94db7fdb2b199ba8cb7653f911e7f30e02182654532ae248bbf4f79ac7a"),
    ("check termination --structure chinese-precolumn --n 4", 0,
     "b242b70eb3a171256b968494458fa9304a91359e2950ebd9e931213e8521d4bd"),
    ("check path-bounds --n 3", 1,
     "f0c6c74750907bc34c215a3af5e584d22b2a569f2a933099ef92b8aedd596af5"),
    ("check path-bounds --structure chinese-completed --n 3", 1,
     "f0c6c74750907bc34c215a3af5e584d22b2a569f2a933099ef92b8aedd596af5"),
    ("check path-bounds --structure chinese --n 4", 1,
     "67633c18d098a6bf3401c5353455e005578d4ccf3aaa9685a7d6bda42174096f"),
    # the commutation rules feed the late-step witness list
    ("check path-bounds --n 5", 1,
     "56c9d3e2bc9398f2643fa3d3e5970621eeac54dc9558cbf2029a7b9d096c9d3b"),
    ("check cell-shapes --structure chinese --n 3", 0,
     "eb808e7f7f4620da3b961ec988c68b08e7acd9fd01e499d34551842465938444"),
    ("check cell-shapes --structure young --n 4", 0,
     "8357493df4240da4bc50518d883b2f1eddd294358b7797669104f8f727e702c3"),
    ("check cell-shapes --structure young --n 3 --budget 0", 1,
     "1ed6afafdae4f954bbe77e14d382fe5838e739468c10fe3ef316ef3192ff5038"),
    ("check cell-shapes --structure chinese --n 3 --budget 1", 1,
     "12e039b32b23710a66a75e74a5f587d9688379dc81de696f5d34ac0e5a055a7a"),
    ("check path-bounds --n 3 --budget 1", 1,
     "289f122407da78534c65658ba75ed95b7eb85b33f7ee16b15ff5a53758d434b4"),
    ("cells --structure young --n 3 --kind strategy", 0,
     "6db968cc16c7557f2c86fe582d2536da0a4d872fdb4d8abb89fb278e12c29a39"),
    ("check probe --structure sylvester --n 3 --max-len 4", 0,
     "90f95877cf089c56e818a1dbe495b80820ea2b7ff8ecce7684bf5c78f241ec74"),
    ("cells --structure young --n 3 --kind squier", 0,
     "c68e41899d4c4b7d87c53dd97c45b8bc3acde5da3b3fcc8920949556349fc9d8"),
    ("cells --structure chinese --n 3 --kind strategy", 0,
     "cb1dae803460cf2b2285ea6ff0ef62c31577229d052db13b4612cff1abeac5b6"),
    # the largest cell exports, 115 and 68 rules, whose steps name rule ids
    # well past those of the n=3 systems
    ("cells --structure young --n 4 --kind squier", 0,
     "7f8037ce3e390b2a2ce9121be53cf1a581db894b784fd3f52904c7adc6a17efb"),
    ("cells --structure chinese --n 4 --kind strategy", 0,
     "a2a242aaa4c9e0f826ac9cf4d00020ab912b36ac659e3a06b744b384630b97c3"),
    # the cells export of the coherence benchmark, 432,735 characters,
    # recorded while each flat dict was written field by field
    ("cells --structure chinese --n 5 --kind squier", 0,
     "a75122ac8362bdc30fab10b7441e783b682eba3bd210d89d7ee59561474c73d3"),
    ("build row --n 3 --max-len 3", 0,
     "f9dd5d7f9803e1d409acaa2e2e192bd42137f64b99be78e532b30b23224d107e"),
    ("insert --structure chinese-right --n 3 --word 2_3_1_3_2", 0,
     "0d7e09d0465bcfb861a02538231170c3bdb48eeca165e219e816174ea3c1b584"),
    # the output paths of streamed reports, recorded while reports were
    # still built whole: a text report, an empty rules array, a larger build
    # and the cells of a text report
    ("build knuth --n 2 --format text", 0,
     "70e1b710b4ef0cb4c2893dc8c604963c6c3c99167abd60db8fa680dd584aff3b"),
    ("build row --n 2 --max-len 0", 0,
     "39f4c6ee11544d0ced6f6add3b479b8ffa8f2d4f479f7e23c8317974f8662c65"),
    ("build sylvester --n 4 --max-len 2", 0,
     "6f5ccac06245d29a9859ed3c6bc48c06da53e3e37bd824b3f0d20377a726abc5"),
    ("cells --structure chinese --n 3 --kind squier --format text", 0,
     "3dc247b028b09ab18066f936d9c93f5c7d73c6f336460396863668a44a246051"),
    # text reports, recorded while they were still built whole
    ("build sylvester --n 4 --max-len 2 --format text", 0,
     "82268ee279d388f0adf4b72c129d8a25588a120e0dcf74312153ab0b53e590aa"),
    ("cells --structure young --n 3 --kind strategy --format text", 0,
     "d83b8113ca2f69b33ec88bc6d4630263ef5459524cb311bfb7ad01f40ac15e61"),
    # long words on the structures with a word kernel, from the empty datum
    # and from a given one, recorded while every letter was folded in
    (f"insert --structure young-right --n 9 --word {_word(9, 320, 1)}", 0,
     "78cad1b6502c194be83964acf9426be4a42699cbdb1c44ce3380c86afe904844"),
    (f"insert --structure young-left --n 4 --word {_word(4, 360, 2)}", 0,
     "97528b5887414dc1fcefe9dc2e3e46679a2e66baea956247d8591a282fead0ca"),
    (f"insert --structure chinese-right --n 9 --word {_word(9, 340, 3)}", 0,
     "31e44913805311671da1261fdf3760ed395198114dd1b2a0f4be92ba786ade7a"),
    (f"insert --structure chinese-left --n 5 --word {_word(5, 310, 4)}", 0,
     "3cde8eb7526cba4eec36814b420fe0a1a9670e243f65da523fbf621481d39241"),
    (f"insert --structure sylvester-left --n 3 --word {_word(3, 380, 5)}", 0,
     "6ea8d01205f6f65cd889c6754ea1673743f23dbd1465d27aef633083fc6aa015"),
    (f"insert --structure young-right --n 9 --datum {YOUNG_DATUM} --word {_word(9, 330, 6)}",
     0, "7be988476b92ceb0373afc0c86b7d829431f92230521481abf9fa0b4aa8babec"),
    (f"insert --structure young-left --n 9 --datum {YOUNG_DATUM} --word {_word(9, 350, 7)}",
     0, "1e0763c5f94b70ff37fe5346262bcbd0e3233f2e89600a3c52eb8bc19fda2989"),
    (f"insert --structure chinese-right --n 9 --datum {STAIRCASE_DATUM} "
     f"--word {_word(9, 305, 8)}",
     0, "331e863e4964c9036a393d0b66c257bc646d37b06dc2577e95777420dc76d429"),
    (f"insert --structure chinese-left --n 9 --datum {STAIRCASE_DATUM} "
     f"--word {_word(9, 315, 9)}",
     0, "977beaadae77d90a31d4f16657393f3f28661480d2804d4cf30a14e3c2c8fe94"),
    (f"insert --structure sylvester-left --n 9 --datum {TREE_DATUM} --word {_word(9, 345, 10)}",
     0, "9ace9a03d1f17d4a5f8f18f60fa99a62d2b468e9c7ed279fcc0278c8288a1338"),
    # the same on the quasi-ribbon and patience structures, recorded while
    # they still folded every letter in
    (f"insert --structure hypoplactic-right --n 9 --word {_word(9, 325, 11)}", 0,
     "0011d0857fb6a878bc9703b0426d4fd4fc91080b1a53170444dd5df4a72c315f"),
    (f"insert --structure hypoplactic-left --n 6 --word {_word(6, 355, 12)}", 0,
     "574447acdf6fd6fef46e44313fd61a54d2760a16ab87b0326710b21b2b10650a"),
    (f"insert --structure lps-right --n 9 --word {_word(9, 390, 13)}", 0,
     "5af133c22600e8a31795dc3873c6201354cd920b5ada6b0ec1b21c720e93e7f1"),
    (f"insert --structure rps-right --n 5 --word {_word(5, 335, 14)}", 0,
     "59b77bf0888a8b407eb4f367a9c3bf2e535e76b4a5127027d488eab78ea808c9"),
    (f"insert --structure hypoplactic-right --n 9 --datum {RIBBON_DATUM} "
     f"--word {_word(9, 340, 15)}",
     0, "e51fdc6680f4a8ea1f1b57b18f6eb71363ac55d7a7a02040f4d849e3fe8c3fc4"),
    (f"insert --structure hypoplactic-left --n 9 --datum {RIBBON_DATUM} "
     f"--word {_word(9, 310, 16)}",
     0, "c514d269333d47de70fa11eff41b7a04537591910fa505214f62d1366c203148"),
    (f"insert --structure lps-right --n 9 --datum {LPS_DATUM} --word {_word(9, 375, 17)}",
     0, "b840618a9aaeb9b385cf234e49cf3d43ff7719a9c16eb77af2945cc305dc5338"),
    (f"insert --structure rps-right --n 9 --datum {RPS_DATUM} --word {_word(9, 360, 18)}",
     0, "261b111cfd8b9907a3a77d083c8bb03b04bfa6ceda29191bfc62402afb22e65e"),
    # a tall tableau and 2,000 equal letters into the left structure, a
    # datum with a non-integer entry, and four malformed trees, each with the
    # stderr in GOLDEN_STDERR; recorded while young-left bumped column by
    # column and parse_tree read its tokens through a closure
    (f"insert --structure young-left --n 9 --datum {TALL_DATUM} --word {'_'.join(['5'] * 2000)}",
     0, "3e5babbe339f8b0ebf7ec1ce6589a7ebd963a3a1053e4f08c53bfc490fb06309"),
    (JUNK_TABLEAU_LINE, 2, EMPTY_DIGEST),
    *[(line, 2, EMPTY_DIGEST) for line in TREE_ERROR_LINES],
    (SHORT_ASSOCIATIVITY_LINE, 2, EMPTY_DIGEST),
    # a truncated first failing branching: its witness is the source and the
    # budget hit, since its legs' targets are not normal forms
    ("check confluence --structure column --n 3 --budget 0", 1,
     "3ac55c00ec9beea68b1f4bd0545bf2a08433574eff8fac29fc75418ffcb27f3f"),
    # past rank nine every label joins its letters with "-", so the row 1 1
    # (c_1-1) is no longer named like the letter 11 (c_11), and the
    # precolumn presentation names the column 10 1 c_10-1, as the completed
    # one does; the L=2 slice of the row presentation is not confluent
    ("build row --n 12 --max-len 2", 0,
     "d1319261ef4a7e64acbc7bb911783cff5c2c93b550d2ef9c6892a42023e568a0"),
    ("check confluence --structure row --n 12 --max-len 2", 1,
     "f49dc5903255801cdc0e677b69ef5991adba68c301c86088d81dbf58cd581e87"),
    ("build chinese-precolumn --n 10", 0,
     "b0e38bf7428315d1b300f3fd53510fad4af583f6019ca11e358fd054676bb1a6"),
]

GOLDEN_STDERR = {JUNK_TABLEAU_LINE: "error: invalid literal for int() with base 10: 'x'\n",
                 **TREE_ERROR_LINES,
                 SHORT_ASSOCIATIVITY_LINE: "error: young-right at n=2, --max-len 2 has no "
                                           "triple of nonempty data: nothing to check\n"}


def test_golden_covers_every_check():
    assert {line.split()[1] for line, _, _ in GOLDEN if line.startswith("check")} == set(CHECKS)


@pytest.mark.parametrize("line,code,digest", GOLDEN, ids=[g[0][:80] for g in GOLDEN])
def test_report_bytes_are_pinned(line, code, digest, capsys):
    assert main([arg.replace("_", " ") for arg in line.split()]) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == GOLDEN_STDERR.get(line, "")


def test_out_file_holds_the_pinned_stdout(tmp_path, capsys):
    out = tmp_path / "rules.json"
    assert main(["build", "row", "--n", "3", "--max-len", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "f9dd5d7f9803e1d409acaa2e2e192bd42137f64b99be78e532b30b23224d107e"


# check name -> [exit code, sha256 of stdout] for every structure verifier
# on every structure and family name at n = 2, 3 and --max-len 4, recorded
# before the verifiers walked a transition table
CHECK_MATRIX = json.loads(Path(__file__).with_name("check_matrix_golden.json").read_text())


def test_check_matrix_covers_every_structure_verifier():
    checks = ("axioms", "associativity", "commutation", "cross-section", "compatibility",
              "probe")
    names = (*STRUCTURES, *COMMUTATION_PAIRS, *PROBE_PAIRS)
    assert set(CHECK_MATRIX) == {f"check {c} --structure {s} --n {n} --max-len 4"
                                 for c in checks for s in names for n in (2, 3)}


@pytest.mark.parametrize("line", list(CHECK_MATRIX))
def test_check_matrix_bytes_are_pinned(line, capsys):
    code, digest = CHECK_MATRIX[line]
    assert main(line.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# check line -> [exit code, sha256 of stdout] for the checks past the
# matrix's bound: cross-section and compatibility on every structure at
# n = 3, --max-len 5 and 6, and on hypoplactic-right at n = 4, --max-len 6,
# recorded before the congruence closure looked factors up by lhs; then
# compatibility on the long-rule families at --max-len 7, commutation
# and probes past the matrix, recorded before every insertion from an id
# was interned, and associativity past the matrix, recorded before a row
# memoised its products
BOUNDS = json.loads(Path(__file__).with_name("bounds_golden.json").read_text())


def test_bounds_golden_covers_every_structure():
    lines = {f"check {c} --structure {s} --n 3 --max-len {L}"
             for c in ("cross-section", "compatibility") for s in STRUCTURES for L in (5, 6)}
    lines |= {f"check {c} --structure hypoplactic-right --n 4 --max-len 6"
              for c in ("cross-section", "compatibility")}
    lines |= {f"check compatibility --structure {s} --n 3 --max-len 7"
              for s in ("sylvester-left", "lps-right", "rps-right")}
    lines |= {f"check commutation --structure {s} --n 4 --max-len 8"
              for s in ("young", "chinese", "hypoplactic")}
    lines |= {"check probe --structure hypoplactic --n 4 --max-len 7",
              "check probe --structure sylvester --n 3 --max-len 8"}
    lines |= {"check associativity --structure young-right --n 3 --max-len 8",
              "check associativity --structure chinese-right --n 4 --max-len 7"}
    assert set(BOUNDS) == lines


@pytest.mark.parametrize("line", list(BOUNDS))
def test_word_space_bytes_are_pinned_past_the_matrix(line, capsys):
    code, digest = BOUNDS[line]
    assert main(line.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,out", [
    (["check", "axioms", "--structure", "young-right", "--n", "2", "--max-len", "2"],
     "missing/x.json"),
    (["build", "knuth", "--n", "2"], "."),
], ids=["out-in-missing-dir", "out-is-a-dir"])
def test_unwritable_out_exits_2(argv, out, tmp_path, capsys):
    # an --out that cannot be opened is a usage error, not a verified failure
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
def test_out_write_error_part_way_exits_2(capsys):
    # the file opens, and the streamed writes fail with "no space left"
    assert main(["build", "sylvester", "--n", "4", "--max-len", "3", "--out", "/dev/full"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ")


def run_in_process(argv) -> tuple[int, str]:
    """Exit code and stderr of one invocation; an escaping exception is
    written to stderr as the interpreter would, with exit code 1."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


NAMES = sorted({*STRUCTURES, *PRESENTATION_NAMES, *COMMUTATION_PAIRS, *PROBE_PAIRS, "bogus"})
JUNK = ["", "x", "1 x", "-", "--nope", "bogus", "--format", "text"]
DATUMS = ["", "(", "(1 . .)", "(1 (3 . .) .)", "1 3;2", "2 1", "[1]", '{"rows": 5}',
          '{"rows": [[1, 2]]}', '{"n": 2, "rows": [[0], [1, 0]]}', '{"columns_bottom_up": [[]]}',
          '{"columns_bottom_up": [[3, 1]]}']
INT = st.integers(-1, 2).map(lambda k: [str(k)])


def token(*choices):
    return st.sampled_from(choices).map(lambda tok: [tok])


def optional(flag, value):
    return st.one_of(st.just([]), value.map(lambda tokens: [flag, *tokens]))


def command(*parts):
    """argv from fixed token lists and strategies of token lists, in order."""
    return st.tuples(*[p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts]) \
        .map(lambda lists: [tok for tokens in lists for tok in tokens])


# every subcommand with its required arguments, so that most draws get past
# the argument parser; --max-len is always given because the default bound
# makes some checks slow
ARGV = st.one_of(
    command(["insert", "--structure"], token(*STRUCTURES, "bogus"),
            ["--word"], token("1 2", "3 1 2", "", "1 x"),
            optional("--datum", token(*DATUMS)), optional("--n", INT)),
    command(["build"], token(*PRESENTATION_NAMES), ["--n"], INT, optional("--max-len", INT)),
    command(["check"], token(*CHECKS), ["--structure"], token(*NAMES), ["--n"], INT,
            ["--max-len"], INT, optional("--budget", INT)),
    command(["cells", "--structure"], token(*NAMES), ["--n"], INT,
            ["--kind"], token("squier", "strategy"), optional("--budget", INT)),
)


@settings(max_examples=300, deadline=None)
@given(ARGV, st.lists(st.sampled_from(JUNK), max_size=1))
def test_cli_fuzz_exit_contract(argv, junk):
    code, err = run_in_process(argv + junk)
    assert code in (0, 1, 2), (argv + junk, err)
    assert "Traceback" not in err, (argv + junk, err)
