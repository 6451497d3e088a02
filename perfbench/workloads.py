"""Workload definitions: job lists, job execution and verdict checks.

A job is one thing a user of sdskit does: a CLI invocation (run in-process
through ``sdskit.cli.main`` with stdout captured), a direct call to a
public library function that has no CLI subcommand, or, for
``long-words``, a pipeline of two ``insert`` invocations.  Every job's
verdict is checked: against the frozen answers in ``expected.json`` for
the fixed workloads, and against independent oracles for ``long-words``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("coherence", "exhaustive", "long-words")

# report fields that make up a check's verdict; counters and other fields
# may change without changing the verdict
WITNESS_KEYS = ("witness", "late_step_witnesses")

STRUCTURES = ("young-right", "young-left", "chinese-right", "chinese-left",
              "hypoplactic-right", "hypoplactic-left", "sylvester-left",
              "lps-right", "rps-right")
PRESENTATIONS = ("knuth", "knuth-reversed", "column", "row", "chinese-relations",
                 "chinese-precolumn", "chinese-completed", "hypoplactic",
                 "sylvester", "lps", "rps")

LONG_WORDS_PER_STRUCTURE = 24
LONG_WORDS_N = (4, 9)
LONG_WORDS_LEN = (20, 600)


def load_sdskit(root: Path):
    """Import sdskit from ``root/src`` and return its modules by short name.

    Refuses an sdskit found anywhere else, so a checkout without sources
    fails instead of measuring some other copy.
    """
    src = root / "src"
    if not (src / "sdskit" / "__init__.py").is_file():
        raise ImportError(f"no sdskit sources under {src}")
    sys.path.insert(0, str(src))
    names = ("rewriting", "sds", "young", "chinese", "extra", "coherence",
             "registry", "cli")
    mods = {name: importlib.import_module(f"sdskit.{name}") for name in names}
    if Path(mods["cli"].__file__).resolve().parent != (src / "sdskit").resolve():
        raise ImportError(f"sdskit imported from {mods['cli'].__file__}, not from {src}")
    return mods


@dataclass(frozen=True)
class Job:
    """One unit of user work.

    kind is ``check``, ``build`` or ``cells`` for a CLI call (``args`` is
    its argv), ``lib`` for a library call (``args`` is the function name
    and its parameters) and ``insert`` for a long-words pipeline (``args``
    is structure, n, v, u).
    """

    kind: str
    args: tuple

    @property
    def id(self) -> str:
        if self.kind == "insert":
            name, n, v, u = self.args
            digest = hashlib.sha1(repr((v, u)).encode()).hexdigest()[:12]
            return f"insert {name} n={n} |v|={len(v)} |u|={len(u)} {digest}"
        return " ".join(str(a) for a in self.args)


def _cli(text: str) -> Job:
    argv = tuple(text.split())
    return Job("check" if argv[0] == "check" else argv[0], argv)


def fixed_jobs(workload: str) -> list[Job]:
    """The fixed workloads, at bounds small enough for several batches per run."""
    if workload == "coherence":
        return [
            # queries: step selection in normalize and critical branchings
            _cli("check confluence --structure column --n 4"),
            _cli("check confluence --structure chinese --n 6"),
            _cli("check path-bounds --n 5"),
            _cli("check cell-shapes --structure chinese --n 5"),
            Job("lib", ("knuth_bendix_pass", "chinese-precolumn", 5)),
            _cli("cells --structure chinese --n 5 --kind squier"),
            _cli("cells --structure young --n 4 --kind strategy"),
            # construction: congruence closure, system builds, JSON output
            _cli("check cross-section --structure hypoplactic-right --n 4 --max-len 6"),
            _cli("check cross-section --structure sylvester-left --n 3 --max-len 6"),
            Job("lib", ("classify", "column", 4)),
            _cli("check termination --structure young --n 6"),
            _cli("check termination --structure chinese --n 6"),
            *[_cli(f"build {p} --n 6 --max-len 4") for p in PRESENTATIONS],
        ]
    if workload == "exhaustive":
        return [
            _cli("check commutation --structure young --n 4 --max-len 7"),
            _cli("check commutation --structure chinese --n 4 --max-len 7"),
            _cli("check commutation --structure hypoplactic --n 4 --max-len 7"),
            _cli("check associativity --structure young-right --n 3 --max-len 6"),
            *[_cli(f"check axioms --structure {s} --n 4 --max-len 7") for s in STRUCTURES],
            _cli("check probe --structure hypoplactic --n 4 --max-len 6"),
            _cli("check probe --structure sylvester --n 3 --max-len 6"),
            _cli("check compatibility --structure young-right --n 3 --max-len 5"),
        ]
    raise KeyError(f"unknown workload {workload!r}")


def long_words_jobs(seed: int) -> list[Job]:
    """Random deep insertions cycling over the registered structures.

    Each structure's n and word lengths are stratified: every n in
    LONG_WORDS_N comes up equally often, and for each n the lengths of v
    (and of u) take one uniform draw from each of as many equal slices of
    LONG_WORDS_LEN, in random order.  Every draw is still uniform on its
    range, but the batch's total work, which grows faster than linearly
    with the lengths, varies far less from seed to seed.
    The letters are uniform and not filtered: whatever the seed yields is
    run.
    """
    rng = random.Random(seed)
    lo, hi = LONG_WORDS_LEN
    n_values = range(LONG_WORDS_N[0], LONG_WORDS_N[1] + 1)
    k = LONG_WORDS_PER_STRUCTURE // len(n_values)     # jobs per (structure, n)

    def shuffled(values):
        values = list(values)
        rng.shuffle(values)
        return values

    def lengths():
        return shuffled(lo + int((hi - lo + 1) * (i + rng.random()) / k) for i in range(k))

    draws = {name: shuffled((n, len_v, len_u) for n in n_values
                            for len_v, len_u in zip(lengths(), lengths()))
             for name in STRUCTURES}
    jobs = []
    for i in range(LONG_WORDS_PER_STRUCTURE * len(STRUCTURES)):
        name = STRUCTURES[i % len(STRUCTURES)]
        n, len_v, len_u = draws[name][i // len(STRUCTURES)]
        v = tuple(rng.randint(1, n) for _ in range(len_v))
        u = tuple(rng.randint(1, n) for _ in range(len_u))
        jobs.append(Job("insert", (name, n, v, u)))
    return jobs


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list.  The seed draws the long-words inputs; the
    other workloads run their fixed jobs in a fixed order, because job
    order changes what earlier jobs leave cached and so the time and the
    peak memory of later ones."""
    if workload == "long-words":
        return long_words_jobs(seed)
    return fixed_jobs(workload)


# --- running ---------------------------------------------------------------

def _run_cli(sdk, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sdk["cli"].main(list(argv))
    return code, buf.getvalue()


def _run_lib(sdk, fn: str, family: str, n: int):
    pres = sdk["registry"].build_presentation(family, n)
    if fn == "knuth_bendix_pass":
        return sdk["rewriting"].knuth_bendix_pass(pres.system,
                                                  sdk["chinese"].completed_order_less(n))
    if fn == "classify":
        return sdk["rewriting"].classify(pres.system)
    raise KeyError(f"unknown library job {fn!r}")


def run_job(sdk, job: Job):
    """Execute the job; returns its raw outcome and the bytes it wrote to
    stdout.  A job that raises is reported by its exception."""
    if job.kind == "lib":
        return _run_lib(sdk, *job.args), 0
    if job.kind == "insert":
        name, n, v, u = job.args
        base = ["insert", "--structure", name, "--n", str(n)]
        code1, out1 = _run_cli(sdk, base + ["--word", _word_text(v)])
        code2, out2 = _run_cli(sdk, base + ["--datum", out1.rstrip("\n"),
                                           "--word", _word_text(u)])
        return [code1, out1, code2, out2], len(out1) + len(out2)
    code, out = _run_cli(sdk, job.args)
    return (code, out), len(out)


def _word_text(word) -> str:
    return " ".join(str(x) for x in word)


# Speed sampling.  On a shared host the CPU speed can swing: on a 2-vCPU
# cloud VM with no steal time it moved between two levels about 1.7x
# apart, on time scales from a fraction of a second to minutes.  So while
# a batch runs, a timer signal interrupts it every SAMPLE_EVERY_S seconds
# to time a fixed piece of pure-Python work, made of the operations
# sdskit's inner loops are made of: tuple hashing, dict updates and integer
# arithmetic.  The samples are spread evenly over the batch's wall time, so
# the mean of their speeds (1 / duration) is the batch's mean speed, and
# scaling the batch time by it takes the swings out (see run.py).  The
# sampling time is subtracted from the jobs' times; its working set is a
# few kB.
SAMPLE_EVERY_S = 0.02
SAMPLE_ITERS = 4000


def calibrate() -> float:
    """Seconds taken by the fixed sampling work."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(SAMPLE_ITERS):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += i * i % 7
    return time.perf_counter() - t0


@contextlib.contextmanager
def sampling_speed(samples: list):
    """Append a calibrate() duration to `samples` on every timer tick."""
    def tick(signum, frame):
        samples.append(calibrate())

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Batch:
    seconds: float      # sum of the jobs' wall times, sampling excluded
    rows: list          # per job: [id, seconds, stdout bytes]
    verdicts: list      # per job: what the verifier checks, JSON-serialisable
    cal: list           # durations of the speed samples taken during the batch


def run_batch(sdk, jobs: list[Job]) -> Batch:
    """Run every job once, timing each, while sampling the machine's speed.
    Verdicts are extracted between jobs, outside the timed spans."""
    rows, verdicts, cal = [], [], []
    total = 0.0
    with sampling_speed(cal):
        for job in jobs:
            n0 = len(cal)
            t0 = time.perf_counter()
            try:
                outcome, nbytes = run_job(sdk, job)
            except (Exception, SystemExit) as exc:  # a raising job is a wrong verdict
                outcome, nbytes = exc, 0
            dt = time.perf_counter() - t0 - sum(cal[n0:])
            total += dt
            rows.append([job.id, dt, nbytes])
            verdicts.append(_verdict_or_error(job, outcome))
    return Batch(total, rows, verdicts, cal)


# --- verdicts ----------------------------------------------------------------

def _verdict_or_error(job: Job, outcome):
    if not isinstance(outcome, BaseException):
        if job.kind == "insert":
            return outcome
        try:
            return verdict(job, outcome)
        except (ValueError, AttributeError) as exc:  # output is not a report
            outcome = exc
    return {"raised": repr(outcome)}


def verdict(job: Job, outcome):
    """The part of a fixed job's outcome that the frozen answer pins down."""
    if job.kind == "lib":
        if job.args[0] == "knuth_bendix_pass":
            return {"rules_added": len(outcome.added),
                    "unorientable": len(outcome.unorientable),
                    "budget_exhausted": outcome.budget_exhausted}
        return {"semi_quadratic": outcome.semi_quadratic,
                "quadratic": outcome.quadratic, "reduced": outcome.reduced}
    code, out = outcome
    if job.kind == "build":
        return {"exit": code, "rules": out.count('"lhs"')}
    if job.kind == "cells":
        return {"exit": code, "cells": out.count('"source_word"')}
    report = json.loads(out)
    found = {"exit": code, "result": report.get("result")}
    for key in WITNESS_KEYS:
        if key in report:
            found[key] = report[key]
    return found


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Verifier:
    """Checks outcomes against the frozen answers or the oracles.

    The long-words oracles cost about as much as the job, so a long-words
    outcome identical to one already verified for the same job is accepted
    without running them again.
    """

    def __init__(self, sdk, expected: dict):
        self.sdk = sdk
        self.expected = expected
        self._verified: dict[str, list] = {}

    def ok(self, job: Job, found) -> bool:
        """Whether `found`, a verdict from ``run_batch``, is right."""
        if job.kind != "insert":
            return job.id in self.expected and found == self.expected[job.id]
        if not isinstance(found, list):
            return False
        if self._verified.get(job.id) == found:
            return True
        good = long_words_ok(self.sdk, job, found)
        if good:
            self._verified[job.id] = found
        return good

    def wrong(self, jobs: list[Job], verdicts: list) -> list[str]:
        """Ids of the jobs whose verdict is wrong."""
        return [job.id for job, found in zip(jobs, verdicts, strict=True)
                if not self.ok(job, found)]


# --- long-words oracles --------------------------------------------------------

SIBLINGS = {"young-right": "young-left", "young-left": "young-right",
            "chinese-right": "chinese-left", "chinese-left": "chinese-right",
            "hypoplactic-right": "hypoplactic-left",
            "hypoplactic-left": "hypoplactic-right"}


def shape_ok(sdk, name: str, n: int, d) -> bool:
    family = name.split("-")[0]
    if family == "young":
        return sdk["young"].is_tableau(d) and all(1 <= x <= n for row in d for x in row)
    if family == "chinese":
        return sdk["chinese"].is_staircase(d) and len(d) == n
    if family == "hypoplactic":
        return sdk["extra"].is_quasi_ribbon(d)
    if family == "sylvester":
        return sdk["extra"].is_search_tree(d)
    return sdk["extra"].is_patience_tableau(d, family)


def long_words_ok(sdk, job: Job, found: list) -> bool:
    """Independent checks of one long-words pipeline.

    The final datum must equal the constructor of the whole word (v then u
    in reading order, so u+v for right-to-left structures) and, for the
    families with both a right and a left insertion, the other insertion's
    constructor of the same word; it must satisfy its shape predicate,
    keep the letter multiset, and survive a parse/format round trip.
    """
    name, n, v, u = job.args
    code1, out1, code2, out2 = found
    if code1 != 0 or code2 != 0:
        return False
    registry = sdk["registry"]
    entry = registry.STRUCTURES[name]
    structure = registry.get_structure(name, n)
    whole = v + u if structure.direction == sdk["sds"].LEFT_TO_RIGHT else u + v
    d = structure.constructor(whole)
    if out1.rstrip("\n") != entry.format_datum(structure.constructor(v)):
        return False
    if out2.rstrip("\n") != entry.format_datum(d):
        return False
    if name in SIBLINGS and registry.get_structure(SIBLINGS[name], n).constructor(whole) != d:
        return False
    if entry.parse_datum(out2.rstrip("\n"), n) != d:
        return False
    return shape_ok(sdk, name, n, d) and sorted(structure.read(d)) == sorted(v + u)
