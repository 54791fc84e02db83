"""Each gated benchmark workload, run in process at full size, meets its recorded reference.

The benchmark (perfbench/run.py) checks every job's report against
perfbench/references.json; running one job of each workload that
BENCHMARK.json gates here makes a drifting report field fail in the suite
rather than in the benchmark.  The files under perfbench/ are only read.
"""

import importlib
import json
from pathlib import Path

import pytest

from qcap import cli

ROOT = Path(__file__).resolve().parents[1]
GATED = [workload["name"] for workload in
         json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_meets_its_reference(name, tmp_path, monkeypatch):
    # perfbench's modules import each other by bare name, as scripts run from their directory
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run, verify = importlib.import_module("run"), importlib.import_module("verify")
    reference = verify.load_references()[name]["full"]
    argv = [*run.WORKLOADS[name].argv, *run.WORKLOADS[name].sizes["full"]]
    seed = (reference.get("seed_pool") or [1])[0]
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--seed", str(seed), "--threads", "1", "--out", str(out)]) == 0
    assert verify.check_report(argv[0], out.read_text(encoding="utf-8"), reference,
                               run.requested_samples(argv)) == []
