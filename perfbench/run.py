"""sdskit benchmark: time to verdict on three verifier workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coherence --seed 1 --seconds 30 --trace 0

sdskit is driven the way its users drive it: serially, one client in a
closed loop.  A run executes the workload's batch of jobs (see
``workloads.py``) in a fresh worker process, so every batch pays its
imports and builds again as a CLI user does, and repeats that until
``--seconds`` is used up, at least three times.  Every verdict is checked
against the frozen answers or the oracles.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the run's batches:

- ``setup_s``: seconds from starting a worker process until its first
  job starts (interpreter start, sdskit import, job list);
- ``batch_s``: summed wall time of the batch's jobs;
- ``peak_rss_mb``: peak resident memory of the worker process.

``setup_s`` and ``batch_s`` are given at the reference speed: while a
worker runs its jobs it times a fixed piece of work every 20 ms
(``workloads.sampling_speed``), and its times are multiplied by its mean
speed relative to the reference, the mean of CAL_REF_S / sample time
(set-up, which comes before the samples, takes the same factor).
This takes out swings of the host's CPU speed, which moved raw times by
up to 1.7x on a shared 2-vCPU VM.  The raw times and the samples are kept
in the diagnostics.

With ``--trace 1`` one worker runs the batch with every wrapper of
``tracing.py`` installed and a second runs it plain; the metrics are the
traced worker's per-layer figures plus the tracing overhead (traced minus
plain ``batch_s``, both at the reference speed).

Diagnostics (machine facts, per-job wall times, every batch, and the spans
of traced runs) are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_BATCHES = 3
CAL_REF_S = 0.001    # sample time that defines the reference speed
WORKER_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement time of a run (workers ignore it)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true",
                   help="run one batch in this process and print it as JSON")
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD's commit id, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(ROOT), "loadavg": list(os.getloadavg())}


# --- worker ------------------------------------------------------------------

def worker(args, sdk, jobs) -> int:
    """One batch: say 'ready' when set up, then print the batch as JSON."""
    rec = tracing.Recorder() if args.trace else None
    if rec is None:
        print("ready", flush=True)
        batch = workloads.run_batch(sdk, jobs)
    else:
        with tracing.installed(sdk, rec):
            print("ready", flush=True)
            batch = workloads.run_batch(sdk, jobs)
    out = {"seconds": batch.seconds, "rows": batch.rows, "verdicts": batch.verdicts,
           "cal": batch.cal,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if rec is not None:
        out["layers"] = rec.metrics()
        RESULTS.mkdir(exist_ok=True)
        rec.write_spans(RESULTS / f"{run_name(args)}.spans.jsonl")
    print(json.dumps(out), flush=True)
    return 0


def run_name(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def spawn_batch(args, trace: int) -> dict:
    """Run one batch in a fresh worker process; its set-up time runs until
    the worker says 'ready'.  Adds the times at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    batch = json.loads(rest.strip().splitlines()[-1])
    scale = statistics.fmean(CAL_REF_S / c for c in batch["cal"])
    batch.update(raw_setup_s=setup_s, setup_s=setup_s * scale,
                 raw_seconds=batch["seconds"], seconds=batch["seconds"] * scale)
    return batch


# --- coordinator ---------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, check) -> tuple[dict, list]:
    batches = []
    t0 = time.perf_counter()
    while True:
        b0 = time.perf_counter()
        batches.append(check(spawn_batch(args, 0)))
        last = time.perf_counter() - b0
        if len(batches) >= MIN_BATCHES and time.perf_counter() - t0 + last > args.seconds:
            break
    metrics = {"setup_s": metric(statistics.median(b["setup_s"] for b in batches), "s"),
               "batch_s": metric(statistics.median(b["seconds"] for b in batches), "s"),
               "peak_rss_mb": metric(statistics.median(b["rss_mb"] for b in batches), "MB")}
    return metrics, batches


def per_layer(args, check) -> tuple[dict, list]:
    traced = check(spawn_batch(args, 1))
    plain = check(spawn_batch(args, 0))
    values = dict(traced["layers"])
    values["cli.output_bytes"] = sum(nbytes for _, _, nbytes in traced["rows"])
    values["wrong_verdicts"] = (len(traced["wrong"]) + len(plain["wrong"])) / \
        (len(traced["rows"]) + len(plain["rows"]))
    values["trace.batch_s"] = traced["seconds"]
    values["trace.overhead_s"] = traced["seconds"] - plain["seconds"]
    metrics = {name: metric(values.get(name, 0), unit) for name, unit, _ in tracing.PER_LAYER}
    return metrics, [traced, plain]


def main(argv=None) -> int:
    args = parse_args(argv)
    facts = machine_facts()
    try:
        sdk = workloads.load_sdskit(ROOT)
    except ImportError as exc:
        print(f"error: cannot load sdskit: {exc}", file=sys.stderr)
        return 2
    jobs = workloads.build_jobs(args.workload, args.seed)
    if args.worker:
        return worker(args, sdk, jobs)
    verifier = workloads.Verifier(sdk, workloads.load_expected())

    def check(batch: dict) -> dict:
        batch["wrong"] = verifier.wrong(jobs, batch.pop("verdicts"))
        return batch

    if args.trace:
        metrics, batches = per_layer(args, check)
    else:
        metrics, batches = end_to_end(args, check)
    failed = sum(len(b["wrong"]) for b in batches)
    result = {"correct": failed == 0, "attempted": sum(len(b["rows"]) for b in batches),
              "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{run_name(args)}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "machine": facts, "result": result,
                   "batches": [{k: b[k] for k in ("setup_s", "seconds", "raw_setup_s",
                                                   "raw_seconds", "cal", "rss_mb", "wrong")}
                               for b in batches],
                   "jobs": [[row[0], [b["rows"][i][1] for b in batches], row[2]]
                            for i, row in enumerate(batches[0]["rows"])]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
