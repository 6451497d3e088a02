"""Driver behavior: subcommands, exit codes, and byte-level determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdskit.cli import CHECKS, main
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
    from sdskit.chinese import chinese_right, read_rr, staircase_from_json
    t = staircase_from_json(payload)
    s = chinese_right(4)
    assert s.constructor(read_rr(t)) == t
    assert t == s.constructor(tuple(int(x) for x in word.split()))


def test_insert_with_starting_datum(capsys):
    assert main(["insert", "--structure", "young-right", "--datum", "1 3 5;2 4;6",
                 "--n", "6", "--word", "2"]) == 0
    assert capsys.readouterr().out == "1 2 5\n2 3\n4\n6\n"


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


def test_check_probe_always_exit_zero(capsys):
    assert main(["check", "probe", "--structure", "hypoplactic",
                 "--n", "3", "--max-len", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] in ("exhausted", "counterexample")


def test_check_unknown_name_exits_2():
    assert main(["check", "termination", "--structure", "hypoplactic", "--n", "3"]) == 2


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


def test_usage_error_exits_2():
    proc = run_cli("build", "not-a-presentation", "--n", "2")
    assert proc.returncode == 2


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
], ids=["word-junk", "tree-truncated", "staircase-list", "ribbon-list", "patience-list",
        "ribbon-rows-int", "patience-empty-column", "patience-invalid", "tree-invalid"])
def test_malformed_insert_input_exits_2(argv, capsys):
    assert main(["insert", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["check", "axioms", "--structure", "young-right", "--n", "3", "--max-len", "-1"],
    ["check", "commutation", "--structure", "young", "--n", "0"],
    ["cells", "--structure", "young", "--n", "0"],
    ["build", "knuth", "--n", "0"],
    ["insert", "--structure", "young-right", "--n", "-1", "--word", ""],
])
def test_degenerate_bounds_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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
    ("check path-bounds --n 3", 1,
     "f0c6c74750907bc34c215a3af5e584d22b2a569f2a933099ef92b8aedd596af5"),
    ("check cell-shapes --structure chinese --n 3", 0,
     "eb808e7f7f4620da3b961ec988c68b08e7acd9fd01e499d34551842465938444"),
    ("check probe --structure sylvester --n 3 --max-len 4", 0,
     "90f95877cf089c56e818a1dbe495b80820ea2b7ff8ecce7684bf5c78f241ec74"),
    ("cells --structure young --n 3 --kind squier", 0,
     "c68e41899d4c4b7d87c53dd97c45b8bc3acde5da3b3fcc8920949556349fc9d8"),
    ("cells --structure chinese --n 3 --kind strategy", 0,
     "cb1dae803460cf2b2285ea6ff0ef62c31577229d052db13b4612cff1abeac5b6"),
    ("build row --n 3 --max-len 3", 0,
     "f9dd5d7f9803e1d409acaa2e2e192bd42137f64b99be78e532b30b23224d107e"),
    ("insert --structure chinese-right --n 3 --word 2_3_1_3_2", 0,
     "0d7e09d0465bcfb861a02538231170c3bdb48eeca165e219e816174ea3c1b584"),
]


def test_golden_covers_every_check():
    assert {line.split()[1] for line, _, _ in GOLDEN if line.startswith("check")} == set(CHECKS)


@pytest.mark.parametrize("line,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_bytes_are_pinned(line, code, digest, capsys):
    assert main([arg.replace("_", " ") for arg in line.split()]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
