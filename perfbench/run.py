#!/usr/bin/env python3
"""End-to-end benchmark of the qcap command line, one fresh process per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qcap source tree; it imports qcap from ``src/``.
Every job runs ``qcap.cli.main(argv)`` in a new child interpreter
(child.py), because every user invocation pays for its own process, and so
no job can gain from a cache that an earlier job warmed.  Jobs run one at a
time from this one parent process (a closed loop with one client), with
``--threads 1`` and single-threaded BLAS.  A run has a fixed number of jobs,
S divided by the workload's measured wall time per job, so it lasts about S
seconds at the commit that defined the benchmark; a faster program finishes
sooner.  The workload seed picks each job's ``--seed``.  BENCHMARK.json
names the workloads that gate changes; every workload in `WORKLOADS` runs
by name.

--trace 0 reports the end-to-end metrics (`END_TO_END`):
  setup_s       median over jobs of the child's ``import qcap.cli`` time
  job_s         mean over jobs of the wall time of ``cli.main(argv)``:
                channel build, compute, render and write
  run_s         wall time of all the run's jobs, process spawns included
  peak_rss_mib  largest peak RSS of any job's process
and prints fail_frac, failed jobs over attempted jobs, beside them; the
result line carries the same two counts as ``failed`` and ``attempted``.

--trace 1 runs pairs of identical jobs, one plain and one traced
(tracer.py), requires both to write the same report bytes, and reports the
per-layer metrics in `tracer.PER_LAYER`.

Every job's report is checked against references.json (verify.py).  A job
fails on a non-zero exit, a timeout or any failed check.  Ensemble runs
also re-run their first job with ``--threads 2``, untimed, and require a
byte-identical report.  The last line of stdout is the JSON result; the
full record, with provenance and every job, is written to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

import tracer
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}

MIN_JOBS = 3
JOB_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 150.0  # the whole run must end within 180 s

# (name, unit) of each end-to-end metric, in the order they are printed.
END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB"))


@dataclass(frozen=True)
class Workload:
    """qcap arguments shared by every job of a workload.

    `sizes` holds the extra arguments of the "full" benchmark size and of
    the "tiny" self-test size; `job_wall_s` is the measured wall time of
    one full-size job, spawn included, at the commit that defined the
    benchmark.  `channel_seed` is the seed pinned inside the channel spec
    and `branch` the reduced_channel_report branch the channel takes.
    """

    argv: tuple[str, ...]
    sizes: dict[str, tuple[str, ...]]
    job_wall_s: float
    channel_seed: int | None = None
    branch: str | None = None


WORKLOADS = {
    # ROADMAP baseline configuration: every sample is a 2x2 problem, so the
    # per-sample Python/numpy overhead (stream setup, haar_isometry, the D
    # kernel) is almost all of the time; batching and a single Monte Carlo
    # pass should show here.
    "ensemble-qubit": Workload(
        ("ensemble", "--channel", "builtin:depolarizing:0.3", "--code-dim", "2"),
        {"full": ("--samples", "1000"), "tiny": ("--samples", "40")},
        job_wall_s=0.85),
    # The 8-qubit two-unitary mixture of scripts/hamming_demo.py (its channel
    # seed 505): dense BLAS on 256-dimensional operators and large fixed
    # costs per job (Haar channel build, averaged_fidelity_bound); batching
    # saves little here and stacked batches would show in peak_rss_mib.
    "ensemble-wide": Workload(
        ("ensemble", "--channel", "builtin:random_unitary:256,2,505", "--code-dim", "2"),
        {"full": ("--samples", "200"), "tiny": ("--samples", "10")},
        job_wall_s=1.15, channel_seed=505),
    # Diagonal branch of reduced_channel_report: one Kronecker chain of
    # length-2^n vectors per typical Kraus sequence (5940 sequences at
    # n=12); three equal Kraus weights, so type sums and equal-weight
    # grouping both act here.
    "rate-diag": Workload(
        ("rate-demo", "--channel", "builtin:depolarizing:0.3", "--rate", "0.1",
         "--epsilon", "0.1", "--n-min", "2"),
        {"full": ("--n-max", "12"), "tiny": ("--n-max", "6")},
        job_wall_s=2.80, branch="diagonal"),
    # Dense branch: 2^n x 2^n Kronecker products per sequence, bound by
    # memory bandwidth, and the only workload that runs typical_set_series
    # and verify_reduction_bounds.  Three Kraus operators keep the channel
    # off the diagonal branch; the channel seed is pinned because the cost
    # at n=9 varies 15-fold across seeds.
    "typicality-dense": Workload(
        ("typicality", "--channel", "builtin:haar_random:2,2,3,1", "--epsilon", "0.1",
         "--n-min", "2"),
        {"full": ("--n-max", "9"), "tiny": ("--n-max", "5")},
        job_wall_s=2.40, channel_seed=1, branch="dense"),
}


def requested_samples(argv) -> int | None:
    """The --samples value of a qcap argument list, or None when it has none."""
    return int(argv[argv.index("--samples") + 1]) if "--samples" in argv else None


def job_seeds(reference: dict, seed: int, count: int) -> list[int]:
    """Per-job --seed values drawn from the workload seed.

    Ensemble jobs draw from the reference's seed pool, screened at the
    defining commit to pass both 4-sigma checks: each check raises a false
    alarm for about 6e-5 of seeds, which would otherwise read as a failed
    job now and then.  Other subcommands draw no random numbers once the
    channel is built, so any seed serves.
    """
    rng = random.Random(seed)
    pool = reference.get("seed_pool")
    if pool is None:
        return [rng.randrange(1, 1 << 31) for _ in range(count)]
    order = rng.sample(pool, len(pool))
    return [order[i % len(order)] for i in range(count)]


def run_job(job_id: int, argv: list[str], work: Path, deadline: float, *,
            traced: bool = False) -> dict:
    """Run one job in a child process; the record's `errors` is empty if it succeeded."""
    out = work / f"job{job_id}.json"
    spans = work / f"job{job_id}.spans.json"
    record = {"id": job_id, "argv": argv, "traced": traced, "errors": [],
              "out": out, "spans": spans if traced else None}
    timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        record["errors"].append("run deadline passed before the job started")
        return record
    cmd = [sys.executable, str(CHILD), "job", str(spans) if traced else "-", str(job_id),
           *argv, "--out", str(out)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        record["errors"].append(f"timed out after {timeout:.0f} s")
        return record
    record["wall_s"] = time.perf_counter() - start
    try:
        timings = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        timings = None
    if proc.returncode != 0 or timings is None:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        record["errors"].append(f"exit code {proc.returncode}: {tail[0]}")
        return record
    record.update(timings)
    if not Path(timings["qcap_file"]).resolve().is_relative_to(SRC):
        record["errors"].append(f"qcap imported from {timings['qcap_file']}, not {SRC}")
    return record


def check_job(record: dict, subcommand: str, reference: dict, samples: int | None) -> None:
    """Append the failed output checks of a finished job to its errors."""
    if record["errors"]:
        return
    text = record["out"].read_text(encoding="utf-8")
    record["report_bytes"] = len(text.encode("utf-8"))
    record["errors"] += verify.check_report(subcommand, text, reference, samples)


def _same_report(first: dict, second: dict, what: str) -> None:
    if first["errors"] or second["errors"]:
        return
    if first["out"].read_bytes() != second["out"].read_bytes():
        second["errors"].append(f"{what} report bytes differ from job {first['id']}")


def _timed_run(job_argv, seeds, work, deadline, check, determinism: bool):
    start = time.perf_counter()
    records = [run_job(i, job_argv(s, 1), work, deadline) for i, s in enumerate(seeds)]
    run_s = time.perf_counter() - start
    timed = [r for r in records if "job_s" in r]
    if not timed:
        raise RuntimeError("no job reported timings: " + "; ".join(records[0]["errors"]))
    for record in records:
        check(record)
    metrics = {"setup_s": median(r["setup_s"] for r in timed),
               # A mean, not a median: on hosts whose speed shifts for seconds at
               # a time, a run's median jumps between the speed modes while the
               # mean moves with the time spent in each, so it varies less.
               "job_s": fmean(r["job_s"] for r in timed),
               "run_s": run_s,
               "peak_rss_mib": max(r["peak_rss_mib"] for r in timed)}
    if determinism:
        again = run_job(len(records), job_argv(seeds[0], 2), work, deadline)
        check(again)
        _same_report(records[0], again, "--threads 2")
        records.append(again)
    return records, metrics


def _traced_run(job_argv, seeds, work, deadline, check, workload, samples):
    records, dumps = [], []
    for i, seed in enumerate(seeds):
        # Alternate which of the pair goes first, so neither side always runs warm.
        pair = [run_job(2 * i, job_argv(seed, 1), work, deadline, traced=bool(i % 2)),
                run_job(2 * i + 1, job_argv(seed, 1), work, deadline, traced=not i % 2)]
        plain, traced = sorted(pair, key=lambda r: r["traced"])
        for record in pair:
            check(record)
        _same_report(plain, traced, "traced")
        if not traced["errors"]:
            dumps.append(json.loads(traced["spans"].read_text(encoding="utf-8")))
        records += pair
    plain_s = [r["job_s"] for r in records if not r["traced"] and "job_s" in r]
    traced_s = [r["job_s"] for r in records if r["traced"] and "job_s" in r]
    if not dumps or not plain_s:
        raise RuntimeError("no traced job succeeded: " + "; ".join(
            e for r in records for e in r["errors"]))
    report_bytes = [r["report_bytes"] for r in records if "report_bytes" in r]
    metrics = tracer.layer_metrics(
        dumps, samples=samples or 0, branch=workload.branch,
        report_bytes=median(report_bytes),
        overhead_frac=median(traced_s) / median(plain_s) - 1.0)
    return records, metrics


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, seed: int, workload: Workload) -> dict:
    """Versions, machine and source identity; starting this child also warms the bytecode cache."""
    proc = subprocess.run([sys.executable, str(CHILD), "provenance"], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import qcap: {proc.stderr.strip()}")
    info = json.loads(proc.stdout.splitlines()[-1])
    info.update(nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                blas_env=BLAS_ENV, git_commit=_git_commit(), source_sha256=_source_digest(),
                workload=name, workload_seed=seed, pinned_channel_seed=workload.channel_seed)
    return info


def run_workload(name: str, seed: int, jobs: int, trace: bool, size: str = "full") -> dict:
    """Run `jobs` jobs (pairs of jobs when tracing) and return the full record."""
    workload = WORKLOADS[name]
    reference = verify.load_references()[name][size]
    base = [*workload.argv, *workload.sizes[size]]
    samples = requested_samples(base)

    def job_argv(job_seed: int, threads: int) -> list[str]:
        return [*base, "--seed", str(job_seed), "--threads", str(threads)]

    def check(record: dict) -> None:
        check_job(record, base[0], reference, samples)

    deadline = time.perf_counter() + RUN_DEADLINE_S
    seeds = job_seeds(reference, seed, jobs)
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        info = provenance(name, seed, workload)
        if trace:
            records, metrics = _traced_run(job_argv, seeds, Path(tmp), deadline, check,
                                           workload, samples)
            info["job_counts"] = {"traced": jobs, "untraced": jobs}
        else:
            records, metrics = _timed_run(job_argv, seeds, Path(tmp), deadline, check,
                                          determinism=base[0] == "ensemble")
            info["job_counts"] = {"timed": jobs, "determinism": len(records) - jobs}
    for record in records:
        record.pop("out")
        record.pop("spans")
    failed = sum(1 for r in records if r["errors"])
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics, "size": size, "provenance": info, "jobs": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qcap" / "cli.py").is_file():
        print(f"error: no qcap sources at {SRC / 'qcap'}; run from a qcap source tree",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    per_job = workload.job_wall_s * (2 if args.trace else 1)
    jobs = max(MIN_JOBS, round(args.seconds / per_job))
    try:
        result = run_workload(args.workload, args.seed, jobs, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in tracer.PER_LAYER}
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    record_path = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced pairs' if args.trace else 'jobs'} {jobs}  record {record_path}")
    for record in result["jobs"]:
        for error in record["errors"]:
            print(f"  job {record['id']} FAILED: {error}")
    for name, entry in metrics.items():
        print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'fail_frac':<48} {result['failed'] / result['attempted']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
