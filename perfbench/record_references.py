#!/usr/bin/env python3
"""Record the reference outputs that verify.py checks, from the current sources.

    python3 perfbench/record_references.py

For each workload and size ("full" for the benchmark, "tiny" for the
self-test) this runs jobs in this process and writes references.json:

* ensemble workloads: the closed forms and the upper bound, and a pool of
  job seeds.  Candidate seeds 1, 2, ... are run in turn, and the first
  `POOL_SIZE` whose report passes both 4-sigma checks form the pool; seeds
  that raised a false alarm are listed under ``rejected_seeds``.
* typicality and rate-demo workloads: the whole report except ``config``,
  which does not depend on the job seed.

Re-record only for a change that is meant to alter these numbers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import OUT_ROOT, SRC, WORKLOADS
from verify import REFERENCES

sys.path.insert(0, str(SRC))
import qcap.cli  # noqa: E402  (needs SRC on sys.path)

POOL_SIZE = {"full": 64, "tiny": 8}


def run_report(argv: list[str], work: Path) -> dict:
    out = work / "report.json"
    code = qcap.cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise SystemExit(f"qcap {' '.join(argv)} exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def record(argv: list[str], size: str, work: Path) -> dict:
    if argv[0] != "ensemble":
        report = run_report([*argv, "--seed", "1"], work)
        report.pop("config")
        return {"report": report}
    pool, rejected, seed = [], [], 0
    while len(pool) < POOL_SIZE[size]:
        seed += 1
        report = run_report([*argv, "--seed", str(seed)], work)
        passed = report["deviation_sq"]["pass"] and report["fidelity_bound"]["pass"]
        (pool if passed else rejected).append(seed)
    return {"closed_form": {q: report[q]["closed_form"]
                            for q in ("deviation_sq", "fidelity_bound")},
            "upper_bound": report["deviation_sq"]["upper_bound"],
            "seed_pool": pool, "rejected_seeds": rejected}


def main() -> None:
    OUT_ROOT.mkdir(exist_ok=True)
    references = {}
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            references[name] = {size: record([*workload.argv, *extra], size, Path(tmp))
                                for size, extra in workload.sizes.items()}
            print(f"recorded {name}", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    main()
