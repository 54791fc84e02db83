"""Each guarded step's predicted peak bounds what it allocates.

Every dense step calls `linalg.check_entries` with its predicted peak before
it allocates.  Here each step runs under tracemalloc at two shapes of at
least 16 MiB, with `check_entries` wrapped to record the prediction; the
traced peak must lie between a third of 16 B per predicted entry and 16 B
per entry.  tracemalloc sees numpy's array data but not the workspaces that
LAPACK and OpenBLAS allocate themselves (the eigensolvers' and QR's scratch),
so the predictions count those while the measured peaks do not.
"""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qcap import channels as qch
from qcap import cli, linalg
from qcap import random_coding as rc
from qcap import typicality as tp
import oracles

MIB = 1 << 20


def traced(monkeypatch, step):
    """The traced peak of step() in bytes, and its largest predicted peak in bytes."""
    predictions = []
    check = linalg.check_entries

    def recording_check(entries, what):
        predictions.append(entries)
        check(entries, what)

    monkeypatch.setattr(linalg, "check_entries", recording_check)
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(linalg, "check_entries", check)
    return peak, 16 * max(predictions)


def assert_prediction_bounds_peak(monkeypatch, step):
    peak, predicted = traced(monkeypatch, step)
    assert peak >= 16 * MIB
    assert predicted / 3 <= peak <= predicted, (peak / MIB, predicted / MIB)


def assert_prediction_bounds_growth(monkeypatch, step, small, large):
    """The same window for a peak that grows with a count: kept per-sample results.

    The traced peak's growth from step(small) to step(large) must lie between
    a third of the predicted growth and all of it; taking the difference
    drops the fixed part of a run (the channel, the first chunk), so the
    growth need only reach 2 MiB.  A first, untraced step(small) keeps
    one-time imports out of both peaks.
    """
    step(small)
    peak_small, predicted_small = traced(monkeypatch, lambda: step(small))
    peak_large, predicted_large = traced(monkeypatch, lambda: step(large))
    growth, predicted = peak_large - peak_small, predicted_large - predicted_small
    assert growth >= 2 * MIB
    assert predicted / 3 <= growth <= predicted, (growth / MIB, predicted / MIB)


@pytest.mark.parametrize("spec", [
    "identity:640", "identity:768",
    "depolarizing:0.3,28", "depolarizing:0.3,30",
    "haar_random:64,64,96", "haar_random:256,64,24",
    "random_unitary:160,24", "random_unitary:64,128", "random_unitary:512,2",
    # one operator: the draw phase, its normals in the stack's one slot, sets the peak
    "random_unitary:600,1",
])
def test_builtin_construction_peak(monkeypatch, spec):
    assert_prediction_bounds_peak(monkeypatch, lambda: cli._parse_builtin(f"builtin:{spec}", 1))


def test_stack_construction_peak(monkeypatch):
    # a fresh 16 MiB stack of four 512 x 512 operators is held beside Delta (4 MiB)
    # and a block, then beside its copy, never beside all three
    stack = qch.random_unitary_channel(512, 4, np.random.default_rng(1)).kraus_ops
    peak, predicted = traced(monkeypatch, lambda: qch.KrausChannel(
        input_dim=512, output_dim=512, kraus_ops=stack.copy()))
    assert 16 * MIB <= peak < 2 * stack.nbytes + 16 * 512 * 512, peak / MIB
    assert predicted / 3 <= peak <= predicted, (peak / MIB, predicted / MIB)


def rebuilt(ch):
    return qch.KrausChannel(input_dim=ch.input_dim, output_dim=ch.output_dim,
                            kraus_ops=ch.kraus_ops)


@pytest.mark.parametrize("spec, step, held", [
    # a build from the operators of another channel: the stack, Delta and one block
    ("random_unitary:64,96", rebuilt, qch._construction_entries),
    # N(pi), a row block of V and a conjugated one
    ("haar_random:64,64,96", lambda ch: qch._uniform_output(ch.kraus_ops),
     lambda n, mp, m: mp * mp + 2 * linalg._widest_block(mp) * n * m),
    # the Gram matrix and a conjugated block of operators
    ("haar_random:16,16,100", qch.gram_matrix,
     lambda n, mp, m: n * n + linalg._widest_block(n) * mp * m),
], ids=["construction", "uniform-output", "gram"])
def test_kraus_passes_hold_their_result_and_blocks(spec, step, held):
    # no pass over the stack holds a conjugated or transposed copy of all of it
    ch = cli._parse_builtin(f"builtin:{spec}", 1)
    step(ch)
    tracemalloc.start()
    try:
        step(ch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = held(len(ch), ch.output_dim, ch.input_dim)
    assert peak <= 16 * (entries + 1024), (peak / 16, entries)     # 16 KiB of objects


@pytest.mark.parametrize("make, dims, code_dim, samples", [
    (qch.haar_random_channel, (16, 16, 32), 16, 1), (qch.haar_random_channel, (16, 1, 256), 2, 1),
    # 64 codes, each about 0.34 MiB at its peak
    (qch.haar_random_channel, (8, 8, 16), 4, 64),
    # K*N = 4 on 256 dims: the codes, the panel, the product of the Kraus rows by it and
    # that product's conjugate set the peak, about 48 KiB a code
    (qch.random_unitary_channel, (256, 2), 2, 400),
], ids=["dims0-16", "dims1-2", "chunk", "product"])
def test_bound_report_peak(monkeypatch, make, dims, code_dim, samples):
    # the D kernel's peak, then the state form's; the chunk budget is lifted so
    # that the sampling loop puts every code in one kernel call
    monkeypatch.setattr(rc, "_CHUNK_ENTRIES", 1 << 26)
    ch = make(*dims, np.random.default_rng(1))
    assert_prediction_bounds_peak(monkeypatch, lambda: rc.bound_values(ch, code_dim, samples, 2))


@pytest.mark.parametrize("spec", ["haar_random:8,8,16", "haar_random:32,32,16,3"])
def test_kernel_heavy_ensemble_chunk_peak_within_budget(monkeypatch, spec):
    # K*N = 64: the D kernel, not the codes' finish, sets the chunk, which must hold
    # to the 2 MiB `_CHUNK_ENTRIES` budget; the run's fixed part is its kept values
    ch = cli._parse_builtin(f"builtin:{spec}", 1)
    samples = 64
    rc.mc_code_values(ch, 4, 1, 2)
    peak, _ = traced(monkeypatch, lambda: rc.mc_code_values(ch, 4, samples, 2))
    assert peak <= 16 * (rc._CHUNK_ENTRIES + 4 * samples), peak / MIB


def test_ensemble_wide_peak(capsys):
    # the 8-qubit two-unitary mixture: each unitary is drawn in its slot of the 2 MiB
    # stack, and a chunk of codes fits 2 MiB, so the job peaks at the stack and one QR
    # (5.08 MiB); a separate normals buffer beside the stack lifts it past 5.5 MiB
    argv = ["ensemble", "--channel", "builtin:random_unitary:256,2,505", "--code-dim", "2",
            "--samples", "200", "--seed", "77"]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 5.5 * MIB, peak / MIB


def test_moment_chunk_peak_within_budget(monkeypatch):
    # identity:3's unitaries, 37 entries of finish and 4 of moments each, come
    # thousands to a chunk, which must hold to the `_CHUNK_ENTRIES` budget; the
    # run's fixed part is its kept values
    chunks = []
    finish = linalg.haar_isometries
    monkeypatch.setattr(linalg, "haar_isometries",
                        lambda stack, streams: chunks.append(len(stack)) or finish(stack, streams))
    samples = 5000
    rc.haar_moment_suite(3, 10, 3)
    peak, _ = traced(monkeypatch, lambda: rc.haar_moment_suite(3, samples, 3))
    assert chunks[-2:] == [3196, samples - 3196]
    assert rc._CHUNK_ENTRIES / 3 <= peak / 16 <= rc._CHUNK_ENTRIES + 5 * samples, peak / MIB


@pytest.mark.parametrize("ch, n", [
    (qch.phase_flip(0.25), 35),
    (oracles.tensor_power(qch.phase_flip(0.25), 2), 16),
], ids=["qubit", "two-qubit"])
def test_diagonal_reduced_report_peak(monkeypatch, ch, n):
    assert_prediction_bounds_peak(monkeypatch,
                                  lambda: tp.verify_reduction_bounds(ch, (n,), 0.1).reports[0])


@pytest.mark.parametrize("dims, n", [((2, 2, 3), 16), ((4, 4, 2), 9)])
def test_dense_reduced_report_peak(monkeypatch, dims, n):
    ch = qch.haar_random_channel(*dims, np.random.default_rng(1))
    assert_prediction_bounds_peak(monkeypatch,
                                  lambda: tp.verify_reduction_bounds(ch, (n,), 0.1).reports[0])


@pytest.mark.parametrize("dims", [(1, 256, 16), (4, 128, 64)])
def test_output_factor_matrices_peak(monkeypatch, dims):
    ch = qch.haar_random_channel(*dims, np.random.default_rng(1))
    assert_prediction_bounds_peak(monkeypatch, lambda: tp.verify_reduction_bounds(ch, (1,), 0.5))


def reduced_norms_step(monkeypatch, ch, n, eps):
    """The contraction step's own traced peak, from its entry on, and its prediction, in bytes."""
    norms, check, steps = tp._reduced_norms, linalg.check_entries, []

    def measured_norms(*args):
        predictions = []

        def recording_check(entries, what):
            predictions.append(entries)
            check(entries, what)

        monkeypatch.setattr(linalg, "check_entries", recording_check)
        tracemalloc.reset_peak()
        try:
            return norms(*args)
        finally:
            steps.append((tracemalloc.get_traced_memory()[1], 16 * max(predictions)))
            monkeypatch.setattr(linalg, "check_entries", check)

    monkeypatch.setattr(tp, "_reduced_norms", measured_norms)
    tracemalloc.start()
    try:
        tp.verify_reduction_bounds(ch, (n,), eps)
    finally:
        tracemalloc.stop()
    (step,) = steps
    return step


@pytest.mark.parametrize("dims, n, eps", [((4, 128, 64), 1, 0.5), ((4, 4, 2), 9, 0.1)],
                         ids=["groups64", "dense-n9"])
def test_reduced_norms_own_peak(monkeypatch, dims, n, eps):
    # the contraction step's own traced peak, from its entry on, counts what the series
    # holds beside it (the group factors, the typical classes); at (4, 128, 64) that is
    # 16 MiB of factors against 10 MiB made in the step
    ch = qch.haar_random_channel(*dims, np.random.default_rng(1))
    peak, predicted = reduced_norms_step(monkeypatch, ch, n, eps)
    assert peak >= 16 * MIB
    assert predicted / 3 <= peak <= predicted, (peak / MIB, predicted / MIB)


@pytest.mark.parametrize("dims", [(1, 256, 16), (1, 1024, 8)])
def test_reduced_norms_peak_of_a_rank_deficient_output(monkeypatch, dims):
    # N(pi) has rank 16 or 8: the rounding noise of its other eigenvalues forms no
    # output groups, whose arrays and indicator rows the prediction would not count
    ch = qch.haar_random_channel(*dims, np.random.default_rng(1))
    peak, predicted = reduced_norms_step(monkeypatch, ch, 1, 0.5)
    assert peak <= predicted, (peak / MIB, predicted / MIB)


@pytest.mark.parametrize("dims", [(1, 1, 1100), (2, 2, 1500)])
def test_gram_matrix_peak(monkeypatch, dims):
    ch = qch.haar_random_channel(*dims, np.random.default_rng(1))
    assert_prediction_bounds_peak(monkeypatch, lambda: qch.gram_matrix(ch))


@pytest.mark.parametrize("spec", [
    # 1600 operators: the Gram matrix and the diagonal test's magnitudes (1.5 N^2 entries;
    # its norm is read from the triangle without a temporary) stay within the Gram
    # step's count of 2.25 N^2 entries
    "depolarizing:0.3,40",
    # three 768 x 768 operators: N(pi) is read and released before the Gram step gathers
    # and conjugates a block of the operators, so neither step holds the other's arrays
    "random_unitary:768,3",
])
def test_closed_forms_peak(monkeypatch, spec):
    ch = cli._parse_builtin(f"builtin:{spec}", 1)
    assert_prediction_bounds_peak(monkeypatch, lambda: rc.closed_forms(ch, 2))


@pytest.mark.parametrize("dims", [(1, 1, 1024), (2, 2, 1024)])
def test_minimal_kraus_peak(monkeypatch, dims):
    ch = qch.haar_random_channel(*dims, np.random.default_rng(1))
    assert_prediction_bounds_peak(monkeypatch, lambda: qch.minimal_kraus(ch))


@pytest.mark.parametrize("spec", ["identity:1024", "haar_random:8,1024,1"])
def test_classify_peak(monkeypatch, spec):
    ch = cli._parse_builtin(f"builtin:{spec}", 1)
    assert_prediction_bounds_peak(monkeypatch, lambda: qch.classify(ch))


def fixed_normals(monkeypatch, shape):
    """Every stream of the sampling loop draws the same normals, without a Philox rekey."""
    normals = np.random.default_rng(1).standard_normal(shape)

    def standard_normal(out):
        out[...] = normals

    stream = SimpleNamespace(standard_normal=standard_normal)
    monkeypatch.setattr(rc, "_rekeyed_streams", lambda seed, indices: itertools.repeat(stream))


def test_kept_ensemble_values_peak(monkeypatch):
    # two values per sample; the codes' finish and kernel are per chunk, so fixed
    # normals stand in for the per-stream draw
    fixed_normals(monkeypatch, (2, 2, 1))
    assert_prediction_bounds_growth(
        monkeypatch, lambda samples: rc.mc_code_values(qch.phase_flip(0.25), 1, samples, 0),
        2000, 82000)


def test_kept_moment_values_peak(monkeypatch):
    # three values per sample; fixed normals stand in for the per-stream draw
    fixed_normals(monkeypatch, (2, 2, 2))
    assert_prediction_bounds_growth(
        monkeypatch, lambda samples: rc.haar_moment_suite(2, samples, 0), 2000, 62000)


def test_kept_bound_reports_peak(monkeypatch):
    def run(samples):
        cli.run(cli.build_parser().parse_args(
            ["bound", "--channel", "builtin:identity:2", "--code-dim", "1",
             "--samples", str(samples), "--seed", "1"]))

    assert_prediction_bounds_growth(monkeypatch, run, 100, 1300)
