"""Regenerate ``expected.json``, the frozen verdicts of the fixed workloads.

    python3 perfbench/freeze.py

Runs every job of the fixed workloads once and records its verdict, after
checking each against the answers already known from the README and the
test suite: every theorem check passes, the commutation probes come back
``exhausted``, and ``path-bounds`` fails on the late-step commutation
sub-check with the ``c_22.c_2.c_1`` witness (criterion 10).  A verdict that
contradicts those answers is refused, not frozen.
"""

from __future__ import annotations

import json
import sys

import workloads


def known_answer_problem(job: workloads.Job, found: dict) -> str | None:
    """Why `found` contradicts what is known about `job`, or None."""
    if job.kind == "lib":
        if job.args[0] == "knuth_bendix_pass" and (found["budget_exhausted"]
                                                   or found["unorientable"]):
            return "completion pass incomplete"
        if job.args[0] == "classify" and not (found["semi_quadratic"] and found["reduced"]):
            return "column presentation not semi-quadratic and reduced"
        return None
    if job.kind in ("build", "cells"):
        return None if found["exit"] == 0 else "nonzero exit"
    check = job.args[1]
    if check == "probe":
        return None if (found["exit"], found["result"]) == (0, "exhausted") else "probe"
    if check == "path-bounds":
        triples = [w["triple"] for w in found.get("late_step_witnesses", [])]
        if (found["exit"], found["result"]) != (1, "fail") or \
                ["c_22", "c_2", "c_1"] not in triples:
            return "path-bounds must fail with the c_22.c_2.c_1 late-step witness"
        return None
    return None if (found["exit"], found["result"]) == (0, "pass") else "theorem check failed"


def freeze(sdk) -> dict:
    expected = {}
    for workload in workloads.WORKLOADS:
        if workload == "long-words":
            continue
        jobs = workloads.fixed_jobs(workload)
        batch = workloads.run_batch(sdk, jobs)
        for job, found in zip(jobs, batch.verdicts):
            problem = "raised" if "raised" in found else known_answer_problem(job, found)
            if problem:
                raise RuntimeError(f"{job.id}: {problem}: {found}")
            expected[job.id] = found
    return expected


def main() -> int:
    sdk = workloads.load_sdskit(workloads.HERE.parent)
    expected = freeze(sdk)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(expected)} verdicts to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
