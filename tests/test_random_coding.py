"""Haar code ensembles: exact averages, Monte Carlo agreement, moment checks."""

import math

import numpy as np
import pytest

from qcap import channels as qch
from qcap import cli, codes, linalg
from qcap import random_coding as rc
from qcap.errors import InvariantViolationError
import oracles
from test_codes import bound_report


def weyl_pair(dim):
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    return [np.eye(dim, dtype=complex), shift]


# ---------------------------------------------------------------- streams

def test_sample_streams_are_reproducible_and_distinct():
    a = rc.sample_stream(123, 0).standard_normal(4)
    b = rc.sample_stream(123, 0).standard_normal(4)
    c = rc.sample_stream(123, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5])
def test_rekeyed_streams_match_fresh_streams_bit_for_bit(seed):
    indices = [0, 1, 63, 64, 2**48, 2**64 - 1]
    draws = [lambda rng: linalg.haar_isometry(256, 2, rng),
             lambda rng: linalg.haar_isometry(5, 3, rng),
             lambda rng: linalg.haar_isometry(4, 4, rng)]
    for draw in draws:
        got = [draw(rng) for rng in rc._rekeyed_streams(seed, indices)]
        want = [draw(rc.sample_stream(seed, i)) for i in indices]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # one generator through every shape in turn: nothing of a stream carries into the next
    mixed = [(i, j % 3) for j, i in enumerate(indices * 3)]
    got = [draws[d](rng) for rng, (_, d) in zip(rc._rekeyed_streams(seed, [i for i, _ in mixed]),
                                              mixed)]
    want = [draws[d](rc.sample_stream(seed, i)) for i, d in mixed]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


# ---------------------------------------------------------------- sampled codes

def sampled_codes(m, k, count, seed):
    """The code bases that the sampling loop draws from streams (seed, 0..count-1)."""
    return rc._code_values(qch.identity_channel(m), k, count, seed, lambda bases, _: bases)


def test_sample_code_full_dimension_is_uniform():
    for code in sampled_codes(3, 3, 5, 2):
        assert np.allclose(oracles.normalized_projector(code), oracles.max_mixed(3), atol=1e-10)


def test_sample_code_mean_projector_is_uniform():
    m, k, n = 3, 2, 4000
    total = np.zeros((m, m), dtype=complex)
    for code in sampled_codes(m, k, n, 9):
        total += oracles.normalized_projector(code)
    assert np.max(np.abs(total / n - oracles.max_mixed(m))) <= 0.015


def test_sample_code_overlap_second_moment():
    # <(<psi| pi_C |psi>)^2> = (1 + 1/K) / (M^2 + M)
    m, k, n = 3, 2, 10000
    psi = np.zeros(m, dtype=complex)
    psi[0] = 1.0
    vals = np.empty(n)
    for i, code in enumerate(sampled_codes(m, k, n, 17)):
        pi = oracles.normalized_projector(code)
        vals[i] = np.real(psi.conj() @ pi @ psi) ** 2
    target = (1 + 1 / k) / (m**2 + m)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - target) <= 4 * se


# ---------------------------------------------------------------- exact averages

def test_exact_average_identity_channel():
    for k in (1, 2, 4):
        assert rc.closed_forms(qch.identity_channel(4), k).deviation_sq == pytest.approx(0.0, abs=1e-14)


def test_exact_average_full_code_is_deterministic(rng):
    # K = M leaves no ensemble randomness; closed form equals the direct value
    for _ in range(5):
        m = int(rng.integers(2, 5))
        ch = qch.haar_random_channel(m, m, int(rng.integers(1, 4)), rng)
        direct = bound_report(np.eye(m), ch).deviation_frobenius_sq
        assert rc.closed_forms(ch, m).deviation_sq == pytest.approx(direct, abs=1e-12)


def test_exact_average_matches_mc_phase_flip():
    ch = qch.phase_flip(0.25)
    exact = rc.closed_forms(ch, 2).deviation_sq
    est, _ = rc.mc_code_values(ch, 2, 2000, master_seed=3)
    assert abs(est.mean - exact) <= max(4 * est.std_error, 1e-12)


def test_exact_average_representation_independent(rng):
    ch = qch.haar_random_channel(3, 3, 2, rng)
    assert rc.closed_forms(ch, 2).deviation_sq == pytest.approx(
        rc.closed_forms(oracles.minimal_channel(ch), 2).deviation_sq, abs=1e-12)


def test_exact_average_rejects_scalar_space():
    ch = qch.identity_channel(1)
    with pytest.raises(InvariantViolationError):
        rc.closed_forms(ch, 1)


def test_upper_bound_values(rng):
    assert rc.closed_forms(qch.identity_channel(2), 1).upper_bound == pytest.approx(0.5)
    assert rc.closed_forms(qch.phase_flip(0.3), 1).upper_bound == pytest.approx(0.5)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        ch = qch.haar_random_channel(m, m, int(rng.integers(1, 4)), rng)
        k = int(rng.integers(1, m + 1))
        forms = rc.closed_forms(ch, k)
        assert forms.deviation_sq <= forms.upper_bound + 1e-12


def oracle_closed_forms(ch, k):
    """The closed forms as first written: N^2 Gram products and N(pi) by apply."""
    m = ch.input_dim
    stack = ch.kraus_ops
    grams = np.einsum("iab,jac->ijbc", stack.conj(), stack, optimize=True)
    sum_sq = float(np.sum(np.abs(grams) ** 2))
    sum_tr = float(np.sum(np.abs(np.einsum("ijbb->ij", grams)) ** 2))
    image = oracles.apply(ch, oracles.max_mixed(m))
    fro = float(np.linalg.norm(image))
    return ((1.0 - k**-2) / (m**2 - 1) * (sum_sq - sum_tr / m), fro**2,
            float(np.real(np.trace(image))) - math.sqrt(k * len(qch.minimal_kraus(ch)[1])) * fro)


def test_closed_forms_match_gram_oracle(rng):
    a = linalg.haar_isometry(3, 3, rng)
    lossy = qch.haar_random_channel(4, 3, 2, rng)
    families = [
        qch.haar_random_channel(4, 4, 3, rng),                       # square
        qch.haar_random_channel(3, 5, 4, rng),                       # out > in
        qch.haar_random_channel(6, 2, 4, rng),                       # out < in
        qch.KrausChannel(input_dim=4, output_dim=3,                  # trace-decreasing
                         kraus_ops=tuple(0.8 * op for op in lossy.kraus_ops)),
        qch.KrausChannel(input_dim=3, output_dim=3,                  # redundant Kraus
                         kraus_ops=(a / math.sqrt(2), a / math.sqrt(2))),
        qch.depolarizing(0.3, 3),
    ]
    for ch in families:
        for k in range(1, ch.input_dim + 1):
            forms = rc.closed_forms(ch, k)
            got = (forms.deviation_sq, forms.upper_bound, forms.fidelity_bound)
            # the floor covers exact zeros, e.g. the deviation of a unitary channel
            for value, expected in zip(got, oracle_closed_forms(ch, k)):
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------- averaged bound

def test_averaged_bound_identity_arithmetic():
    assert rc.closed_forms(qch.identity_channel(4), 1).fidelity_bound == pytest.approx(0.5, abs=1e-12)


def test_averaged_bound_phase_flip_vacuous():
    got = rc.closed_forms(qch.phase_flip(0.25), 2).fidelity_bound
    assert got == pytest.approx(1 - math.sqrt(4) / math.sqrt(2), abs=1e-12)
    assert got < 0.0


def test_averaged_bound_minimizes_kraus_first(rng):
    a = linalg.haar_isometry(2, 2, rng)
    redundant = qch.KrausChannel(input_dim=2, output_dim=2,
                                 kraus_ops=(a / math.sqrt(2), a / math.sqrt(2)))
    plain = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(a,))
    assert rc.closed_forms(redundant, 1).fidelity_bound == pytest.approx(
        rc.closed_forms(plain, 1).fidelity_bound, abs=1e-12)


def test_mc_average_bound_identity():
    _, est = rc.mc_code_values(qch.identity_channel(4), 2, 50, master_seed=1)
    assert est.mean == pytest.approx(1.0, abs=1e-10)
    assert est.std_error <= 1e-10


@pytest.mark.parametrize("code_dim", [0, 3])
def test_mc_code_values_refuses_code_dims_outside_the_input(code_dim):
    with pytest.raises(ValueError, match="code_dim <= input_dim"):
        rc.mc_code_values(qch.phase_flip(0.25), code_dim, 10, master_seed=1)


def test_mc_average_bound_dominates_analytic_bound():
    ch = qch.phase_flip(0.25)
    _, est = rc.mc_code_values(ch, 1, 1000, master_seed=2)
    assert 0.0 <= est.mean <= 1.0
    assert est.mean >= rc.closed_forms(ch, 1).fidelity_bound - 4 * est.std_error


# ---------------------------------------------------------------- Haar moments

@pytest.mark.parametrize("dim,m4,mc", [(2, 1 / 3, 1 / 6), (3, 1 / 6, 1 / 12)])
def test_haar_moment_targets(dim, m4, mc):
    rep = rc.haar_moment_suite(dim, 5000, master_seed=10)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["abs_u11_fourth"].target == pytest.approx(m4)
    assert by_name["abs_u11_sq_abs_u12_sq"].target == pytest.approx(mc)
    assert rep.all_pass


@pytest.mark.parametrize("dim", [2, 3])
def test_haar_moment_values_are_python_abs_squared(monkeypatch, dim):
    # each sample's |U_11|^2, |U_11|^4 and |U_11|^2 |U_12|^2 has the bits of Python's
    # abs(u) ** 2 on the same unitaries; the report means alone, fsum-rounded, can
    # hide a last-bit drift in the per-sample values
    unitaries, columns = [], []
    finish, estimate = linalg.haar_isometries, rc._estimate
    monkeypatch.setattr(linalg, "haar_isometries", lambda stack, streams: (
        unitaries.append(finish(stack, streams)) or unitaries[-1]))
    monkeypatch.setattr(rc, "_estimate", lambda values, seed: (
        columns.append(values.tolist()) or estimate(values, seed)))
    rc.haar_moment_suite(dim, 20000, master_seed=11)
    rows = np.concatenate(unitaries)[:, 0, :2].tolist()
    a2, b2 = zip(*([abs(u) ** 2 for u in row] for row in rows))
    assert len(a2) == 20000
    assert columns == [list(a2), [a * a for a in a2], [a * b for a, b in zip(a2, b2)]]


def test_haar_moment_degenerate_code_consistency():
    # K = M: <psi| pi_C |psi> = 1/M deterministically, squared moment 1/M^2
    m = 4
    psi = np.zeros(m, dtype=complex)
    psi[1] = 1.0
    vals = []
    for code in sampled_codes(m, m, 50, 12):
        pi = oracles.normalized_projector(code)
        vals.append(np.real(psi.conj() @ pi @ psi) ** 2)
    assert np.allclose(vals, 1 / m**2, atol=1e-10)


# ---------------------------------------------------------------- unital rate curve

def test_hamming_curve_vacuous_for_tight_space():
    curve = rc.hamming_rate_curve(qch.classify(qch.phase_flip(0.3)), 2, rate=0.5, ns=range(1, 8))
    assert not curve.converges
    assert all(row.bound <= 0.0 for row in curve.rows)


def test_hamming_curve_converges_when_room():
    ch = oracles.unitary_mixture(weyl_pair(4))
    curve = rc.hamming_rate_curve(qch.classify(ch), ch.output_dim, rate=0.5, ns=range(1, 30))
    assert curve.converges and curve.capacity_bound == pytest.approx(1.0)
    bounds = [row.bound for row in curve.rows]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] > 0.99 * (1 - (math.sqrt(2) / 2) ** 29 / (math.sqrt(2) / 2))
    assert bounds[-1] == pytest.approx(1 - (2**0.5 * 2 / 4) ** (29 / 2), abs=1e-12)


def test_hamming_curve_boundary_rate_is_zero():
    ch = oracles.unitary_mixture(weyl_pair(4))
    curve = rc.hamming_rate_curve(qch.classify(ch), ch.output_dim, rate=1.0, ns=[2, 4, 6])
    assert all(row.bound == pytest.approx(0.0, abs=1e-12) for row in curve.rows)
    assert not curve.converges


def test_hamming_curve_rejects_non_unital():
    a0 = np.array([[1.0, 0.0], [0.0, math.sqrt(0.5)]], dtype=complex)
    a1 = np.array([[0.0, math.sqrt(0.5)], [0.0, 0.0]], dtype=complex)
    damp = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(a0, a1))
    with pytest.raises(InvariantViolationError):
        rc.hamming_rate_curve(qch.classify(damp), 2, rate=0.1, ns=[1, 2])


# ---------------------------------------------------------------- chunked sampling

@pytest.fixture
def kernel_sizes(monkeypatch):
    """The number of codes in each `codes._deviation_batch` call, in call order."""
    sizes = []
    kernel = codes._deviation_batch

    def spy(bases, ch):
        sizes.append(len(bases))
        return kernel(bases, ch)

    monkeypatch.setattr(codes, "_deviation_batch", spy)
    return sizes


@pytest.mark.parametrize("subcommand, channel", [
    ("ensemble", "builtin:haar_random:4,4,3"),
    ("ensemble", "builtin:random_unitary:16,2,5"),
    ("bound", "builtin:haar_random:4,4,3"),
], ids=["builtin:haar_random:4,4,3", "builtin:random_unitary:16,2,5", "bound"])
def test_ensemble_bytes_do_not_depend_on_chunk_size(monkeypatch, capsys, kernel_sizes,
                                                    subcommand, channel):
    argv = [subcommand, "--channel", channel, "--code-dim", "2", "--samples", "150",
            "--seed", "31"]
    ch = cli._parse_builtin(channel, 31)
    outputs = []
    for chunk in (1, 7, 64, 150, 1000):
        # the budget that the finish and the D kernel of exactly `chunk` codes fill
        monkeypatch.setattr(rc, "_CHUNK_ENTRIES", chunk * linalg._haar_entries(ch.input_dim, 2)
                            + codes._stack_entries(chunk, 2, ch))
        kernel_sizes.clear()
        assert cli.main(argv) == 0
        assert kernel_sizes[0] == min(chunk, 150) and sum(kernel_sizes) == 150
        outputs.append(capsys.readouterr().out)
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.parametrize("subcommand", ["ensemble", "bound"])
def test_qubit_chunks_hold_hundreds_of_codes(monkeypatch, capsys, kernel_sizes, subcommand):
    # depolarizing(0.3) at K = 2: 17 entries of finish and 424 of D kernel per code and
    # 320 fixed fill the budget at 296 codes; the bytes equal those of one code per chunk
    argv = [subcommand, "--channel", "builtin:depolarizing:0.3", "--code-dim", "2",
            "--samples", "1200", "--seed", "42"]
    assert cli.main(argv) == 0
    assert kernel_sizes == [296, 296, 296, 296, 16]
    chunked = capsys.readouterr().out
    monkeypatch.setattr(rc, "_CHUNK_ENTRIES", 0)
    kernel_sizes.clear()
    assert cli.main(argv) == 0
    assert kernel_sizes == [1] * 1200
    assert capsys.readouterr().out == chunked


@pytest.mark.parametrize("subcommand", ["ensemble", "bound"])
def test_bytes_do_not_depend_on_chunk_budget(monkeypatch, capsys, kernel_sizes, subcommand):
    # K*N = 64, where `_CHUNK_ENTRIES` sets the chunk: one code, a few codes, all codes
    argv = [subcommand, "--channel", "builtin:haar_random:8,8,16", "--code-dim", "4",
            "--samples", "20", "--seed", "31"]
    outputs = []
    for budget, chunk in ((1 << 15, 1), (1 << 17, 4), (1 << 26, 20)):
        monkeypatch.setattr(rc, "_CHUNK_ENTRIES", budget)
        kernel_sizes.clear()
        assert cli.main(argv) == 0
        assert kernel_sizes[0] == chunk and sum(kernel_sizes) == 20
        outputs.append(capsys.readouterr().out)
    assert all(out == outputs[0] for out in outputs[1:])


def test_chunks_shrink_for_large_codes(kernel_sizes):
    sizes = kernel_sizes
    # qubit codes fill no budget at 100 samples, which come in one chunk
    rc.mc_code_values(qch.depolarizing(0.3), 2, 100, 1)
    assert sizes == [100]
    sizes.clear()
    # K = 128 on a 256-dim identity: the finish's 3*256*128 + 128^2 and the D kernel's
    # 6*128^2 + 2*(256 + 256)*128 entries per code, 344064, and the panel's 16384 more
    # are past the budget at one code, which comes alone
    rc.mc_code_values(qch.identity_channel(256), 128, 7, 1)
    assert sizes == [1] * 7


def test_ensemble_estimates_equal_bound_columns(kernel_sizes):
    # both of mc_code_values' estimates against `_estimate` of bound_values' columns on the
    # same codes, bit for bit, at sample counts on both sides of a chunk boundary
    sizes = kernel_sizes
    for spec, code_dim, chunk in [
        # the finish's 23 entries and the D kernel's 2064 per code, beside the panel's
        # 960, cap a chunk at 62 codes
        ("depolarizing:0.2,3", 2, 62),
        # the finish's 401 entries and the D kernel's 28928 per code, beside the panel's
        # 17408, cap a chunk at 3 codes, for ensemble and bound alike
        ("haar_random:32,32,16,3", 4, 3),
    ]:
        ch = cli._parse_builtin(f"builtin:{spec}", 1)
        for samples in sorted({1, 64, 65, 130, chunk, chunk + 1}):
            sizes.clear()
            got = rc.mc_code_values(ch, code_dim, samples, 4)
            assert sizes[0] == min(chunk, samples) and sum(sizes) == samples
            sizes.clear()
            columns = rc.bound_values(ch, code_dim, samples, 4)
            assert sizes[0] == min(chunk, samples) and sum(sizes) == samples
            want = [rc._estimate(columns[:, codes.BOUND_COLUMNS.index(name)], 4)
                    for name in ("deviation_frobenius_sq", "bound_kraus")]
            assert list(got) == want, (spec, samples)
