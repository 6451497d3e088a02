"""Tests of the benchmark itself (not of sdskit).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import signal
import time

import pytest

import freeze
import tracing
import workloads

ROOT = workloads.HERE.parent
SDK = workloads.load_sdskit(ROOT)

TINY = [
    workloads.Job("check", ("check", "axioms", "--structure", "young-right",
                            "--n", "2", "--max-len", "3")),
    workloads.Job("check", ("check", "confluence", "--structure", "column", "--n", "3")),
    workloads.Job("insert", ("sylvester-left", 4, (3, 1, 4, 1), (2, 4, 2))),
    workloads.Job("insert", ("chinese-left", 4, (4, 2, 3), (1, 1, 4))),
]


def tiny_expected():
    return {"check axioms --structure young-right --n 2 --max-len 3":
            {"exit": 0, "result": "pass"},
            "check confluence --structure column --n 3": {"exit": 0, "result": "pass"}}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert workloads.build_jobs(workload, 7) == workloads.build_jobs(workload, 7)


def test_long_words_seeds_differ_and_cycle_structures():
    a, b = workloads.build_jobs("long-words", 1), workloads.build_jobs("long-words", 2)
    assert a != b
    assert [job.args[0] for job in a[:9]] == list(workloads.STRUCTURES)
    lo, hi = workloads.LONG_WORDS_LEN
    assert all(lo <= len(job.args[2]) <= hi and lo <= len(job.args[3]) <= hi for job in a)


def test_fixed_workloads_ignore_the_seed():
    for workload in ("coherence", "exhaustive"):
        assert workloads.build_jobs(workload, 3) == workloads.fixed_jobs(workload)


def test_every_fixed_job_has_a_frozen_verdict_that_matches_known_answers():
    expected = workloads.load_expected()
    for workload in ("coherence", "exhaustive"):
        for job in workloads.fixed_jobs(workload):
            assert job.id in expected
            assert freeze.known_answer_problem(job, expected[job.id]) is None, job.id


def test_known_answer_check_refuses_a_passing_path_bounds():
    job = workloads.Job("check", ("check", "path-bounds", "--n", "5"))
    assert freeze.known_answer_problem(job, {"exit": 0, "result": "pass"})


def test_correct_verdicts_pass():
    batch = workloads.run_batch(SDK, TINY)
    verifier = workloads.Verifier(SDK, tiny_expected())
    assert verifier.wrong(TINY, batch.verdicts) == []


def test_planted_wrong_expected_verdict_is_counted():
    expected = tiny_expected()
    expected[TINY[1].id] = {"exit": 1, "result": "fail"}
    batch = workloads.run_batch(SDK, TINY)
    assert workloads.Verifier(SDK, expected).wrong(TINY, batch.verdicts) == [TINY[1].id]


def test_long_words_oracles_reject_a_wrong_datum():
    batch = workloads.run_batch(SDK, TINY)
    verdicts = json.loads(json.dumps(batch.verdicts))  # as a worker sends them
    verdicts[2] = verdicts[2][:3] + [verdicts[3][3]]  # another job's datum
    verifier = workloads.Verifier(SDK, tiny_expected())
    assert verifier.wrong(TINY, verdicts) == [TINY[2].id]


def test_raising_job_is_a_wrong_verdict():
    job = workloads.Job("lib", ("no_such_function", "column", 2))
    batch = workloads.run_batch(SDK, [job])
    assert "raised" in batch.verdicts[0]
    assert workloads.Verifier(SDK, {job.id: {}}).wrong([job], batch.verdicts) == [job.id]


def test_traced_batch_records_layers_and_restores_originals():
    rewriting, sds, registry = SDK["rewriting"], SDK["sds"], SDK["registry"]
    normalize = rewriting.normalize
    bound = [m for m in SDK.values() if getattr(m, "normalize", None) is normalize]
    assert len(bound) > 1  # imported into other modules too
    post_init = rewriting.RewritingSystem.__post_init__
    init = sds.StringDataStructure.__init__
    entries = dict(registry.STRUCTURES)

    rec = tracing.Recorder()
    with tracing.installed(SDK, rec):
        assert all(m.normalize is not normalize for m in bound)
        batch = workloads.run_batch(SDK, TINY)
    values = rec.metrics()
    assert values["rewriting.normalize.calls"] > 0
    assert values["rewriting.systems_built"] > 0
    assert values["cli.main.calls"] == 2 + 2 * 2
    assert values["sds.insert_one.calls"] > 0
    assert 0 < values["sds.insert_one.distinct_ratio"] <= 1
    assert values["registry.parse_datum.calls"] == 2 * 2
    assert values["trace.spans"] == len(rec.spans) > 0
    assert all(s is not None and s[3] < i for i, s in enumerate(rec.spans))
    assert workloads.Verifier(SDK, tiny_expected()).wrong(TINY, batch.verdicts) == []

    # the untraced run that follows sees the original functions
    assert all(m.normalize is normalize for m in bound)
    assert rewriting.RewritingSystem.__post_init__ is post_init
    assert sds.StringDataStructure.__init__ is init
    assert registry.STRUCTURES == entries
    assert all(registry.STRUCTURES[k] is v for k, v in entries.items())
    structure = registry.get_structure("young-right", 3)
    assert structure.insert_one is SDK["young"].schensted_right


def test_self_time_excludes_children():
    rec = tracing.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(5)])
    outer()
    assert rec.calls == {"inner": 5, "outer": 1}
    outer_span = next(s for s in rec.spans if s[0] == "outer")
    total = outer_span[2] - outer_span[1]
    assert rec.self_s["outer"] + rec.self_s["inner"] == pytest.approx(total)
    assert all(s[3] == rec.spans.index(outer_span) for s in rec.spans if s[0] == "inner")


def test_benchmark_json_lists_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "batch_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_batch_samples_speed_and_excludes_it_from_job_times():
    job = workloads.Job("check", ("check", "confluence", "--structure", "column", "--n", "4"))
    t0 = time.perf_counter()
    batch = workloads.run_batch(SDK, [job])
    wall = time.perf_counter() - t0
    assert len(batch.cal) >= 5
    assert batch.seconds + sum(batch.cal) <= wall
    assert batch.seconds == batch.rows[0][1] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_missing_sources_refuse_to_load(tmp_path):
    with pytest.raises(ImportError):
        workloads.load_sdskit(tmp_path)
