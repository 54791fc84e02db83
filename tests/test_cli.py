"""CLI grammar, exit codes, format discipline, and run-to-run determinism."""

import ast
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qcap import channels as qch
from qcap import cli, codes, errors, linalg, serialize
from qcap import random_coding as rc
from qcap import typicality as tp
import oracles


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_json(capsys):
    code, out, _ = run_cli(capsys, "info", "--channel", "builtin:phase_flip:0.25",
                           "--seed", "1")
    assert code == 0
    record = json.loads(out)
    assert record["config"]["master_seed"] == 1
    assert record["report"]["is_unital"] is True
    assert record["report"]["coherent_information"] == pytest.approx(0.188722, abs=1e-6)


def test_info_from_file(tmp_path, capsys):
    path = tmp_path / "chan.json"
    oracles.save_channel(qch.identity_channel(2), path)
    code, out, _ = run_cli(capsys, "info", "--channel", str(path), "--seed", "0")
    assert code == 0
    assert json.loads(out)["report"]["length"] == 1


def test_bound_identity(capsys):
    code, out, _ = run_cli(capsys, "bound", "--channel", "builtin:identity:4",
                           "--code-dim", "2", "--samples", "3", "--seed", "11")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 3
    for rep in reports:
        assert rep["bound_kraus"] == pytest.approx(1.0, abs=1e-10)
        assert rep["bound_states"] == pytest.approx(1.0, abs=1e-10)


def test_ensemble_passes_and_embeds_config(capsys):
    code, out, _ = run_cli(capsys, "ensemble", "--channel", "builtin:phase_flip:0.25",
                           "--code-dim", "2", "--samples", "500", "--seed", "5")
    assert code == 0
    record = json.loads(out)
    assert record["deviation_sq"]["pass"] is True
    assert record["fidelity_bound"]["pass"] is True
    assert record["config"]["samples"] == 500


def test_moments_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "moments", "--channel", "builtin:identity:2",
                           "--samples", "2000", "--seed", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "estimate", "std_error", "target", "passed"]
    assert len(rows) == 4
    for row in rows[1:]:
        estimate = float(row[1])            # 17-digit cells parse back exactly
        assert 0.0 <= estimate <= 1.0
        assert row[4] == "true"


def test_typicality_reports(capsys):
    code, out, _ = run_cli(capsys, "typicality", "--channel", "builtin:phase_flip:0.1",
                           "--epsilon", "0.1", "--n-min", "2", "--n-max", "8",
                           "--seed", "2")
    assert code == 0
    record = json.loads(out)
    assert record["counts_within_bounds"] is True
    assert record["norms_within_bounds"] is True
    assert len(record["sequence_reports"]) == 7
    assert record["kraus_weights"] == pytest.approx([0.9, 0.1])


def test_rate_demo_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "rate-demo", "--channel", "builtin:phase_flip:0.25",
                           "--rate", "0.1", "--epsilon", "0.2", "--n-min", "2",
                           "--n-max", "6", "--seed", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "K_n", "reduced_length", "transmission", "penalty", "bound"]
    assert [r[0] for r in rows[1:]] == ["2", "3", "4", "5", "6"]


def test_rate_demo_includes_unital_curve(capsys):
    code, out, _ = run_cli(capsys, "rate-demo", "--channel", "builtin:phase_flip:0.25",
                           "--rate", "0.1", "--epsilon", "0.01", "--n-min", "2",
                           "--n-max", "5", "--seed", "2")
    record = json.loads(out)
    assert code == 0
    assert record["geometric_decay_expected"] is True
    assert "unital_curve" in record
    majorants = [row["penalty_majorant"] for row in record["rows"]]
    assert all(b < a for a, b in zip(majorants, majorants[1:]))


def test_minimal_kraus_runs_once_per_command(monkeypatch, capsys):
    # the n-independent reduction work is prepared once per table, not once per n
    spy = mock.Mock(wraps=qch.minimal_kraus)
    monkeypatch.setattr(qch, "minimal_kraus", spy)
    monkeypatch.setattr(tp, "minimal_kraus", spy)
    for argv in (("typicality", "--channel", "builtin:haar_random:2,2,3,1", "--epsilon", "0.1"),
                 ("rate-demo", "--channel", "builtin:phase_flip:0.1", "--rate", "0.1",
                  "--epsilon", "0.1")):
        spy.reset_mock()
        code, _, _ = run_cli(capsys, *argv, "--n-min", "2", "--n-max", "9", "--seed", "1")
        assert code == 0 and spy.call_count == 1


@pytest.mark.parametrize("argv, grams", [
    (("typicality", "--channel", "builtin:phase_flip:0.25", "--epsilon", "0.1"), 1),
    # the Haar family is not diagonal: its weights are the eigenvalues of the one Gram matrix
    (("typicality", "--channel", "builtin:haar_random:2,2,3,1", "--epsilon", "0.1"), 1),
    # minimal_kraus feeds both the reduced series and the channel report
    (("rate-demo", "--channel", "builtin:depolarizing:0.3", "--rate", "0.1",
      "--epsilon", "0.1"), 1),
    (("ensemble", "--channel", "builtin:depolarizing:0.3", "--code-dim", "2",
      "--samples", "20"), 1),
], ids=["typicality-diagonal", "typicality-recombined", "rate-demo", "ensemble"])
def test_gram_matrices_per_command(monkeypatch, capsys, argv, grams):
    # each family's Gram spectrum is decided from one Gram matrix
    spy = mock.Mock(wraps=qch.gram_matrix)
    for module in (qch, rc, tp):
        monkeypatch.setattr(module, "gram_matrix", spy, raising=False)
    code, _, _ = run_cli(capsys, *argv, "--n-min", "2", "--n-max", "6", "--seed", "11")
    assert code == 0 and spy.call_count == grams


def test_rate_demo_classifies_once(monkeypatch, capsys):
    # the reduced series builds the channel report; rate-demo does not classify again
    classify, report = mock.Mock(wraps=qch.classify), mock.Mock(wraps=qch._info_report)
    for module in (qch, rc, tp, cli):
        monkeypatch.setattr(module, "classify", classify, raising=False)
        monkeypatch.setattr(module, "_info_report", report, raising=False)
    code, out, _ = run_cli(capsys, "rate-demo", "--channel", "builtin:depolarizing:0.3",
                           "--rate", "0.1", "--epsilon", "0.1", "--n-min", "2", "--n-max", "6",
                           "--seed", "11")
    assert code == 0 and "unital_curve" in json.loads(out)
    assert report.call_count == 1 and classify.call_count == 0


# names that left the package: the dense reference paths in oracles.py, and those deleted
_REMOVED_NAMES = {"transmission_probability", "deviation_operator", "average_fidelity_from_fe",
                  "frobenius_norm", "trace_norm", "kraus_stack", "stinespring_isometry",
                  "kraus_from_isometry", "minimal_length", "reduced_channel_reports",
                  "DegenerateTransmissionError", "full_space", "standard", "_stack",
                  "sample_code", "CodeSubspace", "BoundReport", "bound_report"}


def test_no_command_can_reach_an_oracle():
    # the reference paths (such as the W-matrix entropy exchange, or apply) live in oracles.py:
    # the package defines none of them, and neither it nor a demo script imports from the tests
    oracle_names = {name for name, obj in vars(oracles).items()
                    if getattr(obj, "__module__", None) == "oracles"}
    assert {"apply", "entropy_exchange", "channels_equal", "partial_trace"} <= oracle_names
    for module in (qch, cli, codes, errors, linalg, rc, serialize, tp):
        assert not (oracle_names | _REMOVED_NAMES) & set(vars(module)), module.__name__
    assert not _REMOVED_NAMES & {*vars(qch.KrausChannel),
                                 *(f.name for f in dataclasses.fields(qch.KrausChannel))}
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    for path in [*Path(cli.__file__).parent.glob("*.py"), *scripts.glob("*.py")]:
        tree = ast.parse(path.read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [m for m in imported if m.startswith(("oracles", "tests", "test_", "conftest"))], path


@pytest.mark.parametrize("argv, solves, groups", [
    (("info",), 1, 0),
    (("typicality", "--epsilon", "0.2", "--n-min", "1", "--n-max", "3"), 2, 4),
    (("rate-demo", "--rate", "0.1", "--epsilon", "0.2", "--n-min", "1", "--n-max", "3"), 2, 4),
    (("ensemble", "--code-dim", "2", "--samples", "8"), None, 0),
], ids=["info", "typicality", "rate-demo", "ensemble"])
def test_uniform_output_is_formed_once_and_decomposed_once_per_spectrum(monkeypatch, capsys,
                                                                        argv, solves, groups):
    # M' = 5 is neither N = 4 (the Gram matrix) nor M = 3 (sum A^dagger A), so every 5 x 5
    # eigensolve is of N(pi): info's eigvalsh, and the reduced series' eigh for its eigenbasis.
    # N(pi) is formed once, from the channel's 4 operators; the reduced series forms each
    # of its 4 weight groups' factors with the same kernel, from the group's one operator
    eigensolves = []
    for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _solver=solver, **kw: (
            eigensolves.append(np.shape(a)) or _solver(a, *args, **kw)))
    uniform_output = mock.Mock(wraps=qch._uniform_output)
    for module in (qch, rc, tp):
        monkeypatch.setattr(module, "_uniform_output", uniform_output, raising=False)
    code, _, err = run_cli(capsys, *argv, "--channel", "builtin:haar_random:3,5,4,2", "--seed", "1")
    assert code == 0, err
    shapes = [np.shape(call.args[0]) for call in uniform_output.call_args_list]
    assert shapes == [(4, 5, 3)] + [(1, 5, 3)] * groups
    if solves is not None:
        assert eigensolves.count((5, 5)) == solves, eigensolves


@pytest.mark.parametrize("argv", [
    ("info", "--channel", "builtin:haar_random:4,4,3"),
    ("rate-demo", "--channel", "builtin:depolarizing:0.3", "--rate", "0.1",
     "--epsilon", "0.1", "--n-min", "2", "--n-max", "6"),
    # three operators of rank at most M = 2: the minimal family recombines and drops one
    ("info", "--channel", "builtin:haar_random:2,1,3"),
    ("typicality", "--channel", "builtin:haar_random:2,1,3", "--epsilon", "0.2",
     "--n-min", "1", "--n-max", "4"),
], ids=["info", "rate-demo", "info-dropped", "typicality-dropped"])
def test_completeness_defect_is_formed_once_per_channel(monkeypatch, capsys, argv):
    # construction decides trace preservation; nothing downstream builds a channel or forms
    # sum A^dagger A again, not even for the minimal Kraus family.  The Gram matrix is the
    # same kernel's product of the (M'M, N) flattened operators, so only the products of
    # the (N M', M) stacked rows count; N != M in every channel here, so the shapes differ
    products, built = [], []
    lower, post_init = qch._lower_product, qch.KrausChannel.__post_init__
    monkeypatch.setattr(qch, "_lower_product", lambda x: products.append(x.shape) or lower(x))
    monkeypatch.setattr(qch.KrausChannel, "__post_init__", lambda self, *a: built.append(
        (len(self.kraus_ops) * self.output_dim, self.input_dim)) or post_init(self, *a))
    code, _, _ = run_cli(capsys, *argv, "--seed", "11")
    assert code == 0
    assert len(built) == 1 and products.count(built[0]) == 1, (products, built)


# ---------------------------------------------------------------- grammar

def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "{info,bound,ensemble,moments,typicality,rate-demo}" in capsys.readouterr().out


def test_misspelled_subcommand_is_a_one_line_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["typicalty", "--channel", "builtin:identity:2", "--seed", "0"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("\n") == 1 and "'typicalty'" in err


def test_options_may_precede_the_subcommand(capsys):
    _, usual, _ = run_cli(capsys, "info", "--channel", "builtin:phase_flip:0.25", "--seed", "1")
    code, out, _ = run_cli(capsys, "--seed", "1", "--channel", "builtin:phase_flip:0.25", "info")
    assert code == 0 and out == usual


# ---------------------------------------------------------------- exit codes

def test_exit_2_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "info", "--channel", str(path), "--seed", "0")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("subcommand, extra", [
    ("info", []),
    ("typicality", ["--epsilon", "0.1", "--n-min", "1", "--n-max", "2"]),
    ("bound", ["--code-dim", "1"]),
    ("ensemble", ["--code-dim", "1", "--samples", "2"]),
])
def test_boolean_dimensions_are_an_input_error(tmp_path, capsys, subcommand, extra):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"input_dim": True, "output_dim": True, "kraus": [[[[1, 0]]]]}))
    code, out, err = run_cli(capsys, subcommand, "--channel", str(path), *extra, "--seed", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err and "must be integers" in err


def test_non_utf8_channel_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    code, out, err = run_cli(capsys, "info", "--channel", str(path), "--seed", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and str(path) in err


def test_exit_3_non_cp_channel(tmp_path, capsys):
    data = oracles.channel_to_dict(qch.identity_channel(2))
    data["kraus"].append(data["kraus"][0])
    path = tmp_path / "noncp.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "info", "--channel", str(path), "--seed", "0")
    assert code == 3 and "error" in err


def test_exit_2_missing_required_option(capsys):
    code, _, err = run_cli(capsys, "bound", "--channel", "builtin:identity:2",
                           "--seed", "0")
    assert code == 2 and "--code-dim" in err


def test_exit_2_bad_builtin_params(capsys):
    code, _, err = run_cli(capsys, "info", "--channel", "builtin:phase_flip:oops",
                           "--seed", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "info", "--channel", "builtin:wormhole:1", "--seed", "0")
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_exit_2_seed_outside_64_bits(capsys, seed):
    # a stream key holds 64 bits, so a wider seed would alias one inside [0, 2^64)
    code, out, err = run_cli(capsys, "ensemble", "--channel", "builtin:phase_flip:0.25",
                             "--code-dim", "1", "--samples", "2", "--seed", seed)
    assert code == 2 and out == "" and err.count("\n") == 1 and "--seed" in err
    code, out, err = run_cli(capsys, "info", "--channel", f"builtin:haar_random:3,3,2,{seed}",
                             "--seed", "1")
    assert code == 2 and out == "" and err.count("\n") == 1 and "SEED" in err


def test_largest_seed_runs(capsys):
    top = str(2**64 - 1)
    code, out, err = run_cli(capsys, "ensemble", "--channel", f"builtin:haar_random:3,3,2,{top}",
                             "--code-dim", "2", "--samples", "3", "--seed", top)
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["master_seed"] == 2**64 - 1


def test_exit_3_invalid_probability(capsys):
    code, _, err = run_cli(capsys, "info", "--channel", "builtin:phase_flip:1.5",
                           "--seed", "0")
    assert code == 2        # parameter validation is an input error


def test_exit_4_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "typicality", "--channel", "builtin:phase_flip:0.25",
                           "--epsilon", "1.5", "--n-min", "41", "--n-max", "41",
                           "--seed", "0")
    assert code == 4 and "error" in err


def test_diagonal_typicality_runs_past_n16(capsys):
    # the diagonal branch holds two levels of half sums, vectors of 2^r entries with
    # r = n - n // 2, not a 2^n vector: n = 40 fits the cap, n = 41 not
    code, out, err = run_cli(capsys, "typicality", "--channel", "builtin:phase_flip:0.25",
                             "--epsilon", "1.5", "--n-min", "40", "--n-max", "40",
                             "--seed", "0")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["counts_within_bounds"] is True and record["norms_within_bounds"] is True
    code, out, err = run_cli(capsys, "typicality", "--channel", "builtin:phase_flip:0.25",
                             "--epsilon", "1.5", "--n-min", "41", "--n-max", "41",
                             "--seed", "0")
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "diagonal reduced report at n=41" in err and "cap 2^26" in err


def test_dense_typicality_runs_at_n16_and_caps_at_n21(capsys):
    # the dense branch holds half sums of 2^r x 2^r entries, r = n - n // 2, not a
    # 2^n x 2^n block: n = 16 runs, and n = 21 is refused from its prediction alone
    common = ("--channel", "builtin:haar_random:2,2,3,1", "--epsilon", "0.1", "--seed", "1")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "typicality", *common, "--n-min", "16", "--n-max", "16")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    report = json.loads(out)["channel_reports"][0]
    assert report["length"] > 0 and 0.0 < report["transmission"] < 1.0
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "typicality", *common, "--n-min", "21", "--n-max", "21")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == "" and err.count("\n") == 1
    assert "dense reduced report at n=21" in err and "cap 2^26" in err


def test_rank_deficient_output_stays_under_the_composition_cap(capsys):
    # N(pi) has rank 8 at M' = 1024: the rounding noise of its other eigenvalues (1e-21
    # to 1e-16) is zero weight, not 480 output groups whose classes pass 2^16 at n = 2
    code, out, err = run_cli(capsys, "typicality", "--channel", "builtin:haar_random:1,1024,8,1",
                             "--epsilon", "0.5", "--n-min", "2", "--n-max", "2", "--seed", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["channel_reports"][0]["length"] > 0


def test_unknown_builtin_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "info", "--channel", "builtin:squeeze:1", "--seed", "0")
    assert code == 2
    assert err.count("\n") == 1 and "squeeze" in err


def test_readme_lists_exactly_the_registered_builtins():
    # each builtin:NAME:P1,P2[,OPT] of the README, with its required and optional parameter counts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = sorted((name, required.count(",") + 1, bool(optional)) for name, required, optional
                    in re.findall(r"builtin:(\w+):([A-Z]+(?:,[A-Z]+)*)(\[,[A-Z]+\])?", readme))
    registry = sorted((name, len(required), optional is not None)
                      for name, (_, required, optional) in cli._BUILTINS.items())
    assert listed == registry


@pytest.mark.parametrize("spec", ["depolarizing:0.3,0", "identity:0"])
def test_builtin_dimension_below_one_is_an_input_error(capsys, spec):
    code, out, err = run_cli(capsys, "info", "--channel", f"builtin:{spec}", "--seed", "1")
    name = spec.split(":")[0]
    assert code == 2 and out == ""
    assert err == (f"error: bad parameters for builtin channel {name!r}: "
                   f"{name} channel needs sizes >= 1, got dim=0\n")


@pytest.mark.parametrize("spec", ["random_unitary:4,2,5,junk", "haar_random:2,2,3,1,99",
                                  "depolarizing:0.3,3,7", "haar_random:2,,2,3",
                                  "phase_flip:,0.1"])
def test_builtin_takes_exactly_its_parameters(capsys, spec):
    # an extra or empty field is refused, not dropped beside a config that embeds it
    code, out, err = run_cli(capsys, "info", "--channel", f"builtin:{spec}", "--seed", "1")
    name = spec.split(":")[0]
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: bad parameters for builtin channel {name!r}: ")


@pytest.mark.parametrize("spec", ["identity:100000", "depolarizing:0.3,300",
                                  "random_unitary:60000,2", "identity:8192", "identity:4376"])
def test_oversized_builtin_is_a_cap(capsys, spec):
    # each would need GBs; the construction peak, not only the Kraus stack,
    # is checked before building (identity:8192 has a 1 GiB stack)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "info", "--channel", f"builtin:{spec}", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and spec.split(":")[0] in err and "cap 2^26" in err


@pytest.mark.parametrize("subcommand, extra, spec, code_dim", [
    # K*N = 16 * 1024: one code's D alone would hold 2^28 complex entries (4 GiB)
    ("bound", [], "haar_random:16,1,1024", "16"),
    ("ensemble", ["--samples", "2"], "haar_random:16,1,1024", "16"),
    # one D is 2^24 entries, under the cap, but the kernel and the state form are
    # predicted at six such arrays
    ("bound", [], "haar_random:32,32,128", "32"),
], ids=["bound", "ensemble", "bound-peak"])
def test_oversized_code_kernel_is_a_cap(capsys, subcommand, extra, spec, code_dim):
    # the kernel checks the predicted peak before allocating
    start = time.perf_counter()
    code, out, err = run_cli(capsys, subcommand, "--channel", f"builtin:{spec}",
                             "--code-dim", code_dim, *extra, "--seed", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "D kernel" in err and "cap 2^26" in err


@pytest.mark.parametrize("subcommand, extra", [
    ("info", []),
    ("typicality", ["--epsilon", "0.1", "--n-min", "2", "--n-max", "3"]),
], ids=["info", "typicality"])
def test_many_kraus_gram_matrix_is_a_cap(capsys, subcommand, extra):
    # a 10^5-entry Kraus stack, but its Gram matrix alone would be 149 GiB
    start = time.perf_counter()
    code, out, err = run_cli(capsys, subcommand, "--channel", "builtin:haar_random:1,1,100000",
                             *extra, "--seed", "1")
    assert time.perf_counter() - start < 3.0
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "Gram matrix" in err and "cap 2^26" in err


def test_output_factor_matrices_are_a_cap(capsys):
    # 512 Kraus operators of distinct weight into 512 output dimensions: the 512 group
    # factors alone would hold 2^27 entries, past the cap
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "typicality", "--channel", "builtin:haar_random:1,512,512",
                             "--epsilon", "0.1", "--n-min", "1", "--n-max", "1", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "cap 2^26" in err
    assert "output factor matrices of 512 weight groups" in err


def test_output_factor_matrices_of_128_groups_fit(capsys):
    # 128 group factors of 512 x 512 entries, 2^25, fit beside the step's blocks
    code, out, err = run_cli(capsys, "typicality", "--channel", "builtin:haar_random:1,512,128",
                             "--epsilon", "0.1", "--n-min", "1", "--n-max", "1", "--seed", "1")
    assert code == 0, err
    assert json.loads(out)["channel_reports"][0]["n"] == 1


@pytest.mark.parametrize("epsilon", ["0", "-0.1", "inf"])
@pytest.mark.parametrize("subcommand, extra", [
    ("typicality", []),
    ("rate-demo", ["--rate", "0.1"]),
], ids=["typicality", "rate-demo"])
def test_nonpositive_epsilon_is_an_input_error(capsys, subcommand, extra, epsilon):
    code, out, err = run_cli(capsys, subcommand, "--channel", "builtin:phase_flip:0.25",
                             *extra, "--epsilon", epsilon, "--n-min", "2", "--n-max", "4",
                             "--seed", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--epsilon" in err


def test_moments_without_samples_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "moments", "--channel", "builtin:identity:2",
                             "--samples", "0", "--seed", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "sample_count" in err


@pytest.mark.parametrize("subcommand", ["bound", "ensemble"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_nonpositive_samples_is_an_input_error(capsys, subcommand, samples):
    code, out, err = run_cli(capsys, subcommand, "--channel", "builtin:depolarizing:0.3",
                             "--code-dim", "2", "--samples", samples, "--seed", "1")
    assert code == 2 and out == ""
    assert err == "error: sample_count must be >= 1\n"


def test_rate_above_log2_input_dim_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "rate-demo", "--channel", "builtin:phase_flip:0.25",
                             "--rate", "200", "--epsilon", "0.1", "--n-min", "2",
                             "--n-max", "6", "--seed", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "rate" in err


@pytest.mark.parametrize("argv", [
    # code dimensions 2^1030 and 2^1025 are beyond the float range
    ("rate-demo", "--rate", "1", "--epsilon", "0.001", "--n-min", "1030", "--n-max", "1030"),
    ("rate-demo", "--rate", "1", "--epsilon", "0.0001", "--n-min", "1025", "--n-max", "1025"),
    # class counts beyond the float range: refused from the half-block dimension 2^550
    ("typicality", "--epsilon", "0.001", "--n-min", "1100", "--n-max", "1100"),
], ids=["rate-demo-1030", "rate-demo-1025", "typicality-1100"])
def test_large_block_length_is_a_cap(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--channel", "builtin:phase_flip:0.25",
                             *argv[1:], "--seed", "0")
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    # the dimension shows as a power of two, not as its 332 decimal digits
    assert len(err) < 200
    if argv[0] == "typicality":
        assert "half-block dimension 2^550," in err


@pytest.mark.parametrize("n, exit_code", [("1100", 0), ("3000", 2)])
def test_rate_demo_past_the_float_range(capsys, n, exit_code):
    # a one-dimensional output: sqrt(K_n length) and the unital curve's (2^R |N| / M')^(n/2)
    # are formed in the log domain, so n = 1100 reports a finite penalty, and n = 3000
    # an infinite one, which the report refuses as it refuses any non-finite float
    code, out, err = run_cli(capsys, "rate-demo", "--channel", "builtin:haar_random:2,1,2",
                             "--rate", "0", "--epsilon", "0.1", "--n-min", n, "--n-max", n,
                             "--seed", "1")
    assert code == exit_code and "Traceback" not in err
    if exit_code == 0:
        assert err == "" and math.isfinite(json.loads(out)["rows"][0]["penalty"])
    else:
        assert out == "" and err == "error: report.rows[0].penalty is inf, not a finite number\n"


@pytest.mark.parametrize("channel, n_min, n_max, cap", [
    # C(259, 4) ~ 1.8e8 type classes over 256 Kraus weights: refused before enumerating
    ("builtin:haar_random:16,16,256,1", "4", "4", "cap 2^16"),
    # half-block dimension 2^1500 at n = 3000, before any report or the typical-set series
    ("builtin:depolarizing:0.3", "2", "3000", "cap 2^26"),
    # a one-dimensional output: no block grows, but the series' kept compositions,
    # at most C(r + G, G) per n, pass 2^16 at n = 510, before any report
    ("builtin:identity:1", "1", "100000000", "cap 2^16"),
    ("builtin:haar_random:2,1,2,1", "1", "100000000", "cap 2^16"),
], ids=["composition-cap", "dimension-cap", "one-dimensional-identity", "one-dimensional-haar"])
def test_predictable_typicality_caps_exit_fast(capsys, channel, n_min, n_max, cap):
    elapsed = []
    for _ in range(2):      # best of two: one run alone shows host speed phases
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "typicality", "--channel", channel, "--epsilon", "0.1",
                                 "--n-min", n_min, "--n-max", n_max, "--seed", "1")
        elapsed.append(time.perf_counter() - start)
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err and cap in err
    assert min(elapsed) < 1.0


@pytest.mark.parametrize("argv, message", [
    (("typicality", "--channel", "builtin:haar_random:2,2,3,1", "--n-min", "2", "--n-max", "21"),
     "dense reduced report at n=21,"),
    (("rate-demo", "--channel", "builtin:phase_flip:0.1", "--rate", "0.1", "--n-min", "4",
      "--n-max", "43"), "diagonal reduced report at n=43,"),
], ids=["dense", "diagonal"])
def test_top_n_prediction_is_a_cap_before_any_report(capsys, argv, message):
    # the top n's predicted peak is checked first: the smaller n are not built before it
    elapsed = []
    for _ in range(2):      # best of two: one run alone shows host speed phases
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--epsilon", "0.1", "--seed", "1")
        elapsed.append(time.perf_counter() - start)
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and message in err and "cap 2^26" in err
    assert min(elapsed) < 0.1


def test_equal_weight_groups_reach_block_cap(capsys):
    # 9 Kraus symbols in 2 weight groups: C(n + 1, 1) compositions, so the
    # entry cap on the half sums, not the composition cap, ends the reach
    common = ("--channel", "builtin:depolarizing:0.3,3", "--epsilon", "0.3", "--seed", "1")
    code, out, err = run_cli(capsys, "typicality", *common, "--n-min", "26", "--n-max", "26")
    assert code == 0, err
    report = json.loads(out)["channel_reports"][0]
    assert report["length"] > 0 and 0.0 < report["transmission"] < 1.0
    code, out, err = run_cli(capsys, "typicality", *common, "--n-min", "27", "--n-max", "27")
    assert code == 4 and out == "" and err.count("\n") == 1
    assert "n=27, 10 half sums of dimension 2^22.1895" in err and "type classes" not in err


@pytest.mark.parametrize("n_max", ["100000000", "1000000000"])
@pytest.mark.parametrize("subcommand, extra", [
    ("typicality", []),
    ("rate-demo", ["--rate", "0"]),
])
def test_long_n_range_is_a_cap_before_it_is_built(capsys, subcommand, extra, n_max):
    # the largest n is read off the range's ends, and the cap decided from r log2(2),
    # r = n - n // 2: neither the range nor 2^r is ever formed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, subcommand, "--channel", "builtin:phase_flip:0.25", *extra,
                             "--epsilon", "0.1", "--n-min", "1", "--n-max", n_max, "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"at n={n_max}, half-block dimension 2^{int(n_max) - int(n_max) // 2:.6g}," in err


@pytest.mark.parametrize("argv, output_format, field", [
    (("typicality",), "json", "report.sequence_reports[0].count_bound"),
    (("typicality",), "csv", "length_bound"),
    (("rate-demo", "--rate", "0.1"), "json", "report.rows[0].penalty_majorant"),
])
def test_non_finite_report_float_is_an_input_error(tmp_path, capsys, argv, output_format, field):
    # 2^(n (S + eps)) overflows at eps = 1e300; JSON has no Infinity
    path = tmp_path / "report"
    code, out, err = run_cli(capsys, *argv, "--channel", "builtin:phase_flip:0.25",
                             "--epsilon", "1e300", "--n-min", "2", "--n-max", "3", "--seed", "0",
                             "--format", output_format, "--out", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and field in err and "Traceback" not in err
    assert not path.exists()


def test_rate_demo_csv_at_huge_epsilon_is_finite(capsys):
    # the CSV leaves out penalty_majorant, the one rate-demo field that overflows here
    code, out, _ = run_cli(capsys, "rate-demo", "--channel", "builtin:phase_flip:0.25",
                           "--rate", "0.1", "--epsilon", "1e300", "--n-min", "2", "--n-max", "3",
                           "--seed", "0", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 2 and all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_oversized_classify_is_a_cap(capsys):
    # a 6000 x 6000 output state: the build is cheap, classify's M'^2 steps are not
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "info", "--channel", "builtin:haar_random:1,6000,1",
                             "--seed", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "classifying" in err and "cap 2^26" in err


@pytest.mark.parametrize("argv", [
    ("ensemble", "--code-dim", "1", "--samples", str(2**64)),
    ("bound", "--code-dim", "1", "--samples", "1000000000000"),
    ("moments", "--samples", "1000000000000"),
], ids=["ensemble", "bound", "moments"])
def test_kept_sample_results_are_a_cap(capsys, argv):
    # the per-sample results a run would keep are predicted before the first sample
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--channel", "builtin:phase_flip:0.25", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "cap 2^26" in err


def test_haar_finish_is_a_cap_before_any_draw(monkeypatch, tmp_path, capsys):
    # moments finishes one M x M Haar unitary per sample, 4 M^2 entries and np.triu's
    # mask of M^2 bytes; on a channel file with a 128-dimensional input, under a cap
    # lowered to 2^15 entries, the channel's construction fits but one sample's finish
    # passes the cap, so the run exits before any draw
    functional = np.zeros((1, 128))
    functional[0, 0] = 1.0
    path = tmp_path / "wide.json"
    oracles.save_channel(qch.KrausChannel(input_dim=128, output_dim=1, kraus_ops=(functional,)),
                         path)
    monkeypatch.setattr(linalg, "ENTRY_CAP", 1 << 15)
    drawn, streams = [], rc._rekeyed_streams
    monkeypatch.setattr(rc, "_rekeyed_streams", lambda *a: drawn.append(a) or streams(*a))
    code, out, err = run_cli(capsys, "moments", "--channel", str(path), "--samples", "10",
                             "--seed", "1")
    assert code == 4 and out == "" and not drawn
    assert err == ("error: one 128 x 128 Haar sample and its moments needs 2^16.0224 entries, "
                   "above cap 2^15\n")


def test_channel_file_construction_is_a_cap(monkeypatch, tmp_path, capsys):
    # a file holding one 1 x 1500 functional: building the channel forms the 1500 x 1500
    # sum A^dagger A, so under a cap lowered to 2^20 entries the file is refused first
    functional = np.full((1, 1500), 1e-3)
    path = tmp_path / "wide.json"
    oracles.save_channel(qch.KrausChannel(input_dim=1500, output_dim=1, kraus_ops=(functional,)),
                         path)
    monkeypatch.setattr(linalg, "ENTRY_CAP", 1 << 20)
    products, lower = [], qch._lower_product
    monkeypatch.setattr(qch, "_lower_product", lambda x: products.append(x.shape) or lower(x))
    code, out, err = run_cli(capsys, "info", "--channel", str(path), "--seed", "1")
    assert code == 4 and out == "" and not products
    assert err.count("\n") == 1
    assert "building a 1500 -> 1 channel of 1 Kraus operators" in err and "cap 2^20" in err


@pytest.mark.parametrize("subcommand", ["ensemble", "bound"])
@pytest.mark.parametrize("code_dim", ["0", "-1", "3"])
def test_code_dim_outside_the_input_is_an_input_error(capsys, subcommand, code_dim):
    code, _, err = run_cli(capsys, subcommand, "--channel", "builtin:phase_flip:0.25",
                           "--code-dim", code_dim, "--samples", "3", "--seed", "1")
    assert code == 2 and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("code_dim", ["0", "3"])
def test_bound_checks_the_code_dim_as_ensemble_does(capsys, code_dim):
    # the code dimension is checked before any code is drawn, not by the Haar sampler
    runs = [run_cli(capsys, subcommand, "--channel", "builtin:phase_flip:0.25",
                    "--code-dim", code_dim, "--samples", "3", "--seed", "1")
            for subcommand in ("bound", "ensemble")]
    assert runs[0] == runs[1] == (2, "", "error: need 1 <= code_dim <= input_dim\n")


def test_overflowing_channel_file_is_one_invariant_line(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"input_dim": 2, "output_dim": 2,
                                "kraus": [[[[1e200, 0], [1e200, 0]], [[0, 0], [0, 0]]]]}))
    code, out, err = run_cli(capsys, "info", "--channel", str(path), "--seed", "1")
    assert code == 3 and out == ""
    assert err == "error: Kraus family is not trace-nonincreasing: defect inf\n"


def test_boolean_channel_entries_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "boolean.json"
    path.write_text('{"input_dim": 1, "output_dim": 1, "kraus": [[[[true, false]]]]}')
    code, out, err = run_cli(capsys, "info", "--channel", str(path), "--seed", "1")
    assert code == 2 and out == "" and err.count("\n") == 1


@pytest.mark.parametrize("dims, kraus", [
    ((2, 2), [[[[1, 0], [0, 0]]]]),                      # a 1 x 2 operator where 2 x 2 is declared
    ((2, 2), [[[[1, 0], [0, 0]], [[0, 0]]]]),            # ragged rows
    ((1, 1), [[[[1, 0, 0]]]]),                           # a three-number entry
    ((1, 1), []),                                        # no operator
    ((1, 0), [[[]]]),                                    # input_dim 0
    ((1, -1), [[[[1, 0]]]]),                             # input_dim -1
    ((1, 1), [[[["1", 0]]]]),                            # a string entry
], ids=["wrong-shape", "ragged", "three-numbers", "empty", "input-dim-0", "input-dim-minus-1",
        "string"])
def test_malformed_kraus_structure_is_one_input_error_line(tmp_path, capsys, dims, kraus):
    # every structural refusal is one message naming the declared shape
    output_dim, input_dim = dims
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"input_dim": input_dim, "output_dim": output_dim,
                                "kraus": kraus}))
    code, out, err = run_cli(capsys, "info", "--channel", str(path), "--seed", "1")
    assert code == 2 and out == ""
    assert err == (f"error: kraus must be a nonempty array of {output_dim} x {input_dim} "
                   "(output_dim x input_dim, each at least 1) matrices of [re, im] number pairs\n")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_channel_entries_are_an_input_error(tmp_path, capsys, literal):
    # Python's json reads these as nan and inf; the file is malformed, not the channel
    path = tmp_path / "non_finite.json"
    path.write_text('{"input_dim": 1, "output_dim": 1, "kraus": [[[[%s, 0]]]]}' % literal)
    code, out, err = run_cli(capsys, "info", "--channel", str(path), "--seed", "1")
    assert code == 2 and out == "" and err == "error: matrix entries must be finite\n"


def test_csv_writes_a_missing_value_as_an_empty_cell(tmp_path, capsys):
    # a trace-decreasing channel has no entropies: null in JSON, an empty cell in CSV
    path = tmp_path / "half.json"
    path.write_text('{"input_dim": 1, "output_dim": 1, "kraus": [[[[0.5, 0]]]]}')
    code, out, _ = run_cli(capsys, "info", "--channel", str(path), "--seed", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "false,false,true,1,,,"


def test_zero_entropies_are_positive_zero(capsys):
    _, out, _ = run_cli(capsys, "info", "--channel", "builtin:identity:1", "--seed", "1")
    report = json.loads(out)["report"]
    assert '"entropy_exchange": 0.0' in out and '"output_entropy": 0.0' in out
    assert math.copysign(1.0, report["entropy_exchange"]) == 1.0
    _, out, _ = run_cli(capsys, "info", "--channel", "builtin:identity:1", "--seed", "1",
                        "--format", "csv")
    assert "-0" not in out.splitlines()[1]
    _, out, _ = run_cli(capsys, "typicality", "--channel", "builtin:identity:2", "--epsilon",
                        "0.1", "--n-min", "1", "--n-max", "2", "--seed", "1")
    assert "-0.0" not in out
    assert [r["entropy"] for r in json.loads(out)["sequence_reports"]] == [0.0, 0.0]


@pytest.mark.parametrize("spec", ["haar_random:4,4,3,7", "haar_random:3,5,4,2",
                                  "haar_random:2,3,4,9", "haar_random:2,2,3,1",
                                  "depolarizing:0.3,3", "phase_flip:0.1"])
def test_info_rate_demo_and_typicality_report_one_channel(capsys, spec):
    # one kernel: the same Kraus weights and N(pi) give the same bits in every command
    channel = ("--channel", f"builtin:{spec}", "--seed", "1")
    _, out, _ = run_cli(capsys, "info", *channel)
    report = json.loads(out)["report"]
    _, out, _ = run_cli(capsys, "rate-demo", *channel, "--rate", "0", "--epsilon", "0.2",
                        "--n-min", "1", "--n-max", "1")
    assert json.loads(out)["coherent_information"] == report["coherent_information"]
    _, out, _ = run_cli(capsys, "typicality", *channel, "--epsilon", "0.2",
                        "--n-min", "1", "--n-max", "3")
    rows = json.loads(out)["sequence_reports"]
    assert [r["entropy"] for r in rows] == [report["entropy_exchange"]] * 3


def test_near_trace_preserving_file_runs(tmp_path, capsys):
    # defect 5e-11: construction certifies it trace-preserving, so the weights are a distribution
    a0 = math.sqrt(0.75 + 5e-11) * np.eye(2)
    a1 = 0.5 * np.diag([1.0, -1.0])
    path = tmp_path / "near.json"
    oracles.save_channel(qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(a0, a1)), path)
    common = ("--channel", str(path), "--epsilon", "0.1", "--n-min", "1", "--n-max", "8",
              "--seed", "1")
    code, out, err = run_cli(capsys, "typicality", *common)
    assert code == 0, err
    assert json.loads(out)["counts_within_bounds"] is True
    code, out, err = run_cli(capsys, "rate-demo", *common, "--rate", "0.1")
    assert code == 0, err


@pytest.mark.parametrize("channel, n_max", [
    ("builtin:phase_flip:0.5", 16),
    ("builtin:depolarizing:1", 8),
])
def test_unit_masses_rounded_above_one_are_not_errors(capsys, channel, n_max):
    # every sequence is typical and the summed masses reach 1 + 2^-52
    code, out, err = run_cli(capsys, "typicality", "--channel", channel, "--epsilon", "0.1",
                             "--n-min", "1", "--n-max", str(n_max), "--seed", "1")
    assert code == 0 and err == ""
    record = json.loads(out)
    for fit in ("sequence_decay", "typical_decay", "reduced_decay"):
        assert record[fit]["deviations"] == [0.0] * n_max


def test_seed_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["info", "--channel", "builtin:identity:2"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- determinism

def test_repeat_runs_byte_identical(capsys):
    argv = ["ensemble", "--channel", "builtin:haar_random:2,2,2", "--code-dim", "2",
            "--samples", "64", "--seed", "123"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def run_with_blas_threads(argv, threads: int) -> bytes:
    """stdout of `qcap argv` in a child process whose BLAS runs `threads` threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "MKL_NUM_THREADS": str(threads), "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", "import sys; from qcap import cli; "
                           "sys.exit(cli.main(sys.argv[1:]))", *argv],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_thread_count_does_not_change_bytes():
    # one and two BLAS threads: the ensemble's kernels and the reduced reports'
    # type-block GEMMs, on the dense branch past n = 12 and on the diagonal one; at
    # M = 256 the Haar draws' QR and, in info, the eigensolves of N(pi) at M' = 256,
    # which OpenBLAS splits over threads unless they are pinned to one
    for argv in (["ensemble", "--channel", "builtin:phase_flip:0.25", "--code-dim", "2",
                  "--samples", "96", "--seed", "7"],
                 ["ensemble", "--channel", "builtin:random_unitary:256,2,505", "--code-dim", "2",
                  "--samples", "20", "--seed", "3"],
                 ["info", "--channel", "builtin:haar_random:64,256,4", "--seed", "1"],
                 # M' = 200 in four row blocks: the group factors' `_uniform_output`
                 ["typicality", "--channel", "builtin:haar_random:8,200,3,4", "--epsilon", "0.5",
                  "--n-min", "1", "--n-max", "1", "--seed", "1"],
                 ["typicality", "--channel", "builtin:haar_random:2,2,3,1", "--epsilon", "0.1",
                  "--n-min", "2", "--n-max", "14", "--seed", "7"],
                 ["rate-demo", "--channel", "builtin:phase_flip:0.1", "--rate", "0.1",
                  "--epsilon", "0.1", "--n-min", "4", "--n-max", "24", "--seed", "7"]):
        assert run_with_blas_threads(argv, 1) == run_with_blas_threads(argv, 2)


def test_pinned_gemms_keep_their_bytes_on_two_threads():
    # OpenBLAS rounds the Gram matrix of 40 operators of 17 x 33, and the dense type-block
    # Grams at n = 15, differently on two threads than on one; both run on one thread
    for argv in (["typicality", "--channel", "builtin:haar_random:33,17,40,1", "--epsilon", "0.5",
                  "--n-min", "1", "--n-max", "1", "--seed", "1"],
                 ["typicality", "--channel", "builtin:haar_random:2,2,3,1", "--epsilon", "0.1",
                  "--n-min", "15", "--n-max", "15", "--seed", "1"]):
        assert run_with_blas_threads(argv, 1) == run_with_blas_threads(argv, 2)


def test_out_into_missing_directory_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "info", "--channel", "builtin:identity:2",
                             "--seed", "0", "--out", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not path.parent.exists()


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "info", "--channel", "builtin:identity:2",
                           "--seed", "0", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["report"]["length"] == 1
