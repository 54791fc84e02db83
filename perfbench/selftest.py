#!/usr/bin/env python3
"""Self-test of the benchmark itself; runs in well under a minute.

    python3 perfbench/selftest.py

1. BENCHMARK.json lists exactly the metrics, with the units, that run.py
   (trace 0) and tracer.py (trace 1) report.
2. Every workload runs at its tiny size, plain and traced, and every output
   check passes.  Ensemble runs read codes_per_sample 2.0, and count
   channels.kraus_stack calls made through the name ``codes`` imported.
3. The verifier accepts each tiny report as written and rejects it with any
   one count, flag or closed-form value changed.
4. run.py exits non-zero, printing no result, in a directory that holds
   only BENCHMARK.json and perfbench/.

Exits 0 when all of this holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import tracer
import verify

# Paths into a report, by subcommand, of the values a corrupted report changes.
CORRUPTIONS = {
    "ensemble": [("deviation_sq", "closed_form"), ("fidelity_bound", "closed_form"),
                 ("deviation_sq", "upper_bound"), ("deviation_sq", "pass"),
                 ("fidelity_bound", "estimate", "sample_count")],
    "rate-demo": [("rows", -1, "code_dim"), ("rows", -1, "reduced_length"),
                  ("rows", -1, "transmission"), ("coherent_information",)],
    "typicality": [("channel_reports", -1, "length"), ("sequence_reports", -1, "typical_count"),
                   ("channel_reports", -1, "frobenius_sq"), ("counts_within_bounds",)],
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def corrupted(report: dict, path: tuple) -> dict:
    copy = json.loads(json.dumps(report))
    *parents, key = path
    node = copy
    for step in parents:
        node = node[step]
    value = node[key]
    if isinstance(value, bool):
        node[key] = not value
    elif isinstance(value, int):
        node[key] = value + 1
    else:
        node[key] = value + max(abs(value), 1.0) * 1e-9
    return copy


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == list(tracer.PER_LAYER), "BENCHMARK.json per_layer matches tracer.PER_LAYER")
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json workloads are defined in run.WORKLOADS")


def check_workload(name: str, work: Path) -> None:
    workload = run.WORKLOADS[name]
    subcommand = workload.argv[0]
    plain = run.run_workload(name, seed=1, jobs=2, trace=False, size="tiny")
    expect(plain["correct"] and set(plain["metrics"]) == {n for n, _ in run.END_TO_END},
           f"{name}: tiny run passes its checks and reports every end-to-end metric")
    traced = run.run_workload(name, seed=1, jobs=1, trace=True, size="tiny")
    layers = traced["metrics"]
    expect(traced["correct"] and set(layers) == {n for n, _, _ in tracer.PER_LAYER},
           f"{name}: tiny traced run passes its checks and reports every per-layer metric")
    if subcommand == "ensemble":
        expect(layers["random_coding.codes_per_sample"] == 2.0,
               f"{name}: codes_per_sample is 2.0")
        kernel_calls = (layers["codes.deviation_frobenius_sq.calls"]
                        + layers["codes.fidelity_bound_kraus.calls"])
        expect(layers["channels.kraus_stack.calls"] >= kernel_calls,
               f"{name}: kraus_stack calls through imported names are traced")

    reference = verify.load_references()[name]["tiny"]
    argv = [*workload.argv, *workload.sizes["tiny"], "--seed",
            str(run.job_seeds(reference, 1, 1)[0])]
    record = run.run_job(0, argv, work, time.perf_counter() + run.RUN_DEADLINE_S)
    report = json.loads(record["out"].read_text(encoding="utf-8"))
    samples = run.requested_samples(argv)

    def errors(rep):
        return verify.check_report(subcommand, json.dumps(rep), reference, samples)

    expect(not errors(report), f"{name}: verifier accepts the report as written")
    for path in CORRUPTIONS[subcommand]:
        expect(bool(errors(corrupted(report, path))),
               f"{name}: verifier rejects a changed {'.'.join(map(str, path))}")


def check_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "ensemble-qubit", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py fails without a result where there are no qcap sources")


def main() -> int:
    check_benchmark_json()
    run.OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as tmp:
        for name in run.WORKLOADS:
            check_workload(name, Path(tmp))
        check_bare_directory(Path(tmp))
    print(f"selftest: {'PASS' if not failures else f'{len(failures)} FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
