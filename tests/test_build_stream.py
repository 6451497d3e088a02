"""The streamed `build` against the materialising one it replaced.

`build` reads each presentation's rules as a stream: `presentation_rules`
checks them in a first pass that holds one hash per rule, and `build`
writes a second pass.  The oracle is `build` as it was when it built a
`RewritingSystem` and wrote its rules: `cli.cmd_build` and
`rewriting.system_to_json`, copied verbatim, writing through `cli._emit`.  Every test reaches the check and
the families through their modules, so the mutation gate can patch them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from sdskit import cli, extra, registry, rewriting
from sdskit.cli import _emit, main
from sdskit.registry import LETTER_FAMILIES, PRESENTATION_NAMES
from sdskit.rewriting import Alphabet, RewritingSystem


def system_to_json(system: RewritingSystem) -> dict:
    """The system as JSON data; its rules are an iterator that makes one
    dict per rule as it is consumed, so a writer need not hold them all."""
    return {
        "alphabet": list(system.alphabet.labels),
        "rules": ({"lhs": r.lhs, "rhs": r.rhs} for r in system.rules),
    }


def cmd_build(args) -> int:
    _emit(args, system_to_json(registry.build_presentation(args.name, args.n,
                                                           args.max_len).system))
    return 0


def _oracle(name: str, n: int, max_len: int | None, fmt: str) -> str:
    args = argparse.Namespace(name=name, n=n, max_len=max_len, format=fmt, out=None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cmd_build(args) == 0
    return out.getvalue()


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _build_argv(name: str, n: int, max_len: int | None, fmt: str) -> list[str]:
    bound = [] if max_len is None else ["--max-len", str(max_len)]
    return ["build", name, "--n", str(n), *bound, "--format", fmt]


# every bound, and no --max-len at all (the default bound)
BOUNDS = [*range(5), None]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", PRESENTATION_NAMES)
def test_streamed_build_writes_the_oracle_s_bytes(name, fmt):
    # n = 6 included: the largest, sylvester at --max-len 4, takes about 0.6 s
    for n in range(1, 7):
        for max_len in BOUNDS:
            expected = _oracle(name, n, max_len, fmt)
            assert _run(_build_argv(name, n, max_len, fmt)) == (0, expected, ""), \
                (name, n, max_len)


def test_build_report_holds_the_alphabet_and_the_rules():
    data = cli._build_report("knuth", 2, None)
    assert data["alphabet"] == ["1", "2"]
    assert {(tuple(r["lhs"]), tuple(r["rhs"])) for r in data["rules"]} == \
        {((1, 0, 0), (0, 1, 0)), ((1, 1, 0), (1, 0, 1))}


@contextlib.contextmanager
def _systems_counted():
    """A list that gains an entry per `RewritingSystem` built in the block."""
    built = []
    post_init = RewritingSystem.__post_init__

    def counted(self):
        built.append(len(self.rules))
        post_init(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewritingSystem, "__post_init__", counted)
        yield built


@pytest.mark.parametrize("name", sorted(LETTER_FAMILIES))
def test_a_letter_family_s_build_builds_no_system(name):
    with _systems_counted() as built:
        code, out, _ = _run(_build_argv(name, 4, 3, "json"))
    assert (code, built) == (0, [])
    assert out == _oracle(name, 4, 3, "json")


def test_hash_collisions_leave_every_build_as_the_oracle_writes_it():
    # with every hash equal each rule after the first is a doubt, which a
    # second read of the stream up to that rule settles, and a letter
    # family still builds no system; the oracle is read unpatched
    for name in PRESENTATION_NAMES:
        for n in range(1, 5):
            for max_len in range(4):
                for fmt in ("json", "text"):
                    expected = _oracle(name, n, max_len, fmt)
                    with pytest.MonkeyPatch.context() as mp, _systems_counted() as built:
                        mp.setattr(rewriting, "hash", lambda value: 0, raising=False)
                        result = _run(_build_argv(name, n, max_len, fmt))
                    assert result == (0, expected, ""), (name, n, max_len, fmt)
                    if name in LETTER_FAMILIES:
                        assert built == [], (name, n, max_len)


# each fault, made from the family's first rule and n, is yielded after the
# family's own rules, so that a build writing while it checks would write
FAULTS = {
    "duplicate": lambda first, n: first,
    "letter-out-of-range": lambda first, n: ((n,), (0,)),
    "empty-lhs": lambda first, n: ((), (0,)),
    "equal-sides": lambda first, n: ((0, 1), (0, 1)),
}

MESSAGES = {
    "duplicate": "duplicate rule (1, 0, 0) -> (0, 1, 0)",
    "letter-out-of-range": "letter 4 out of range for alphabet of size 4",
    "empty-lhs": "rule lhs must be non-empty",
    "equal-sides": "rule lhs and rhs must differ",
}


def _faulty_sylvester(fault: str):
    real = extra.sylvester_pairs

    def pairs(n, max_w):
        first = None
        for pair in real(n, max_w):
            first = first or pair
            yield pair
        yield FAULTS[fault](first, n)

    return pairs


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_faulty_family_exits_2_with_the_system_s_error_and_writes_nothing(fault, fmt):
    pairs = _faulty_sylvester(fault)
    with pytest.raises(ValueError) as system_error:
        RewritingSystem.from_pairs(Alphabet.letters(4), pairs(4, 3))
    assert str(system_error.value) == MESSAGES[fault]
    argv = _build_argv("sylvester", 4, 3, fmt)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(extra, "sylvester_pairs", pairs)
        assert _run(argv) == (2, "", f"error: {MESSAGES[fault]}\n")
        # nor is an --out file opened before the check ends
        out = Path(tmp) / "rules.json"
        assert _run([*argv, "--out", str(out)]) == (2, "", f"error: {MESSAGES[fault]}\n")
        assert not out.exists()


class CountingStream:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_a_build_does_not_hold_its_rules():
    # build sylvester --n 5 --max-len 4 writes 15,620 rules; its hash set
    # takes about 1 MiB under tracemalloc, where a system of its rules took
    # 3.8 MiB; the parser is made first, as it is once per process
    cli.build_parser()
    stream = CountingStream()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stream):
            assert main(["build", "sylvester", "--n", "5", "--max-len", "4"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.chars == len(_oracle("sylvester", 5, 4, "json"))
    assert peak < 2 * 1024 * 1024, f"peak {peak / 2**20:.2f} MiB"
