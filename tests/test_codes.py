"""Code bases, entanglement fidelity, and the two forms of the fidelity bound."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcap import channels as qch
from qcap import codes, linalg
from qcap.errors import InvariantViolationError
import oracles


def random_code(rng, m, k):
    """A Haar-random code: its M x K isometry."""
    return linalg.haar_isometry(m, k, rng)


def bound_report(code, ch):
    """The `codes.BOUND_COLUMNS` of one code, as attributes."""
    return SimpleNamespace(**dict(zip(codes.BOUND_COLUMNS, codes.bound_columns(code[None], ch)[0])))


def random_square_channel(rng, dim, n_kraus, trace_decreasing=False):
    ch = qch.haar_random_channel(dim, dim, n_kraus, rng)
    if trace_decreasing and n_kraus > 1:
        keep = sorted(rng.choice(n_kraus, size=int(rng.integers(1, n_kraus + 1)), replace=False))
        ch = oracles.reduce_channel(ch, keep)
    return ch


def deviation_operator(code, ch):
    """The Hermitian (K*N) x (K*N) block operator D of one code, from the kernel."""
    return codes._deviation_batch(code[None], ch)[2][0]


def ambient_deviation_operator(code, ch):
    """Oracle: assemble the block operator at full ambient dimension M*N."""
    pi = oracles.normalized_projector(code)
    m, k = code.shape
    n = len(ch)
    d = np.zeros((m * n, m * n), dtype=complex)
    for i, ai in enumerate(ch.kraus_ops):
        for j, aj in enumerate(ch.kraus_ops):
            w = ai.conj().T @ aj
            block = k * (pi @ w @ pi - np.trace(pi @ w @ pi) * pi)
            eij = np.zeros((n, n))
            eij[i, j] = 1.0
            d += np.kron(block, eij)
    return d


# ---------------------------------------------------------------- code bases

def test_code_validation():
    # equal columns, and more columns than rows, are not orthonormal; the stack check
    # names no code, so one bad code among good ones is rejected too
    good = random_code(np.random.default_rng(1), 3, 2)
    for bad in (np.ones((3, 2)), np.eye(3, 2) * (1 + 2e-10)):
        with pytest.raises(InvariantViolationError, match="not orthonormal"):
            codes._orthonormal(np.stack([good, bad]))
    with pytest.raises(InvariantViolationError, match="not orthonormal"):
        codes._orthonormal(np.eye(2, 3)[None])
    stack = good[None]
    assert codes._orthonormal(stack) is stack
    # codes in a three-dimensional space do not fit a qubit channel's input
    with pytest.raises(ValueError, match="does not match channel input"):
        codes._deviation_batch(stack, qch.phase_flip(0.25))


def test_normalized_projector_full_space():
    code = np.eye(4)
    assert np.allclose(oracles.normalized_projector(code), oracles.max_mixed(4))


def test_normalized_projector_rank_one(rng):
    code = random_code(rng, 4, 1)
    pi = oracles.normalized_projector(code)
    oracles.assert_density_operator(pi)
    assert np.linalg.matrix_rank(pi) == 1


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_projector_purity(seed, m):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, m + 1))
    pi = oracles.normalized_projector(random_code(rng, m, k))
    assert np.real(np.trace(pi @ pi)) == pytest.approx(1.0 / k, abs=1e-10)


# ---------------------------------------------------------------- entanglement fidelity

def test_fe_identity(rng):
    rho = oracles.random_density(3, rng)
    assert oracles.entanglement_fidelity(rho, qch.identity_channel(3)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.6])
def test_fe_phase_flip_on_uniform(p):
    got = oracles.entanglement_fidelity(oracles.max_mixed(2), qch.phase_flip(p))
    assert got == pytest.approx(1.0 - p, abs=1e-12)


def test_fe_reduction_never_higher():
    full = qch.phase_flip(0.3)
    reduced = oracles.reduce_channel(full, [0])
    pi = oracles.max_mixed(2)
    fe_red = oracles.entanglement_fidelity(pi, reduced)
    assert fe_red == pytest.approx(0.7, abs=1e-12)
    assert fe_red <= oracles.entanglement_fidelity(pi, full) + 1e-12


def test_fe_reduction_monotone_battery(rng):
    # subsets of Kraus operators can only lower the fidelity
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        ch = random_square_channel(rng, dim, int(rng.integers(2, 5)))
        rho = oracles.random_density(dim, rng)
        size = int(rng.integers(1, len(ch)))
        subset = sorted(rng.choice(len(ch), size=size, replace=False))
        fe_full = oracles.entanglement_fidelity(rho, ch)
        fe_red = oracles.entanglement_fidelity(rho, oracles.reduce_channel(ch, subset))
        assert fe_red <= fe_full + 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_fe_two_paths_agree(seed, dim):
    rng = np.random.default_rng(seed)
    ch = random_square_channel(rng, dim, int(rng.integers(1, 4)),
                               trace_decreasing=bool(rng.integers(2)))
    rho = oracles.random_density(dim, rng)
    a = oracles.entanglement_fidelity(rho, ch)
    b = oracles.entanglement_fidelity_via_purification(rho, ch)
    assert a == pytest.approx(b, abs=1e-9)
    assert -1e-12 <= a <= 1.0 + 1e-9


# ---------------------------------------------------------------- deviation operator

def test_deviation_zero_for_identity(rng):
    for m, k in [(2, 1), (4, 2), (8, 8)]:
        code = random_code(rng, m, k)
        d = deviation_operator(code, qch.identity_channel(m))
        assert np.linalg.norm(d) <= 1e-12


def test_deviation_matches_ambient_oracle(rng):
    for _ in range(10):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, m + 1))
        ch = random_square_channel(rng, m, int(rng.integers(1, 4)))
        code = random_code(rng, m, k)
        d_small = deviation_operator(code, ch)
        d_big = ambient_deviation_operator(code, ch)
        assert np.max(np.abs(d_small - d_small.conj().T)) <= 1e-12
        assert np.linalg.norm(d_small) == pytest.approx(np.linalg.norm(d_big), abs=1e-10)
        assert codes._trace_norms(d_small) == pytest.approx(codes._trace_norms(d_big), abs=1e-9)


def test_deviation_blocks_traceless(rng):
    m, k = 4, 2
    ch = random_square_channel(rng, m, 3)
    code = random_code(rng, m, k)
    d = deviation_operator(code, ch).reshape(k, len(ch), k, len(ch))
    for i in range(len(ch)):
        for j in range(len(ch)):
            assert abs(np.einsum("ll->", d[:, i, :, j])) <= 1e-12


def test_deviation_frobenius_formula_full_space():
    # K = M: direct evaluation of the explicit double sum
    p = 0.35
    ch = qch.phase_flip(p)
    code = np.eye(2)
    pi = oracles.max_mixed(2)
    k = 2
    oracle = 0.0
    for ai in ch.kraus_ops:
        for aj in ch.kraus_ops:
            w = ai.conj().T @ aj
            oracle += np.real(np.trace(pi @ w.conj().T @ pi @ w)) \
                - abs(np.trace(pi @ w)) ** 2 / k
    got = bound_report(code, ch).deviation_frobenius_sq
    assert got == pytest.approx(oracle, abs=1e-12)
    d = deviation_operator(code, ch)
    assert got == pytest.approx(np.linalg.norm(d) ** 2, abs=1e-12)


def test_bound_columns_of_a_stack_equal_one_code_at_a_time(rng):
    # rectangular (out 5 != in 3) with N = 4 Kraus operators; the padded panel
    # keeps each code's A_i B bits, and every code gets its own Gram product,
    # state-form products and eigensolver calls, so equality is exact
    ch = qch.haar_random_channel(3, 5, 4, rng)
    for k in (1, 2, 3):
        bases = np.stack([random_code(rng, 3, k) for _ in range(9)])
        columns = codes.bound_columns(bases, ch)
        p, fro_sq, d, _ = codes._deviation_batch(bases, ch)
        assert np.array_equal(columns[:, 0], p) and np.array_equal(columns[:, 2], fro_sq)
        for i, code in enumerate(bases):
            assert columns[i].tobytes() == codes.bound_columns(code[None], ch)[0].tobytes()
            assert np.array_equal(d[i], deviation_operator(code, ch))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_gram_holds_every_w_ij_in_the_layout_of_d(rng, n, k):
    # W_ij = B^dagger A_i^dagger A_j B, formed pair by pair and laid out at [(l, i), (m, j)],
    # on rectangular channels (out 5 != in 3); the state form reads this Gram
    ch = qch.haar_random_channel(3, 5, n, rng)
    bases = np.stack([random_code(rng, 3, k) for _ in range(5)])
    gram = codes._deviation_batch(bases, ch)[3]
    for code, got in zip(bases, gram):
        want = np.zeros((k, n, k, n), dtype=complex)
        for i, ai in enumerate(ch.kraus_ops):
            for j, aj in enumerate(ch.kraus_ops):
                want[:, i, :, j] = code.conj().T @ ai.conj().T @ aj @ code
        assert np.max(np.abs(got - want.reshape(k * n, k * n))) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", ["rectangular", "one_row"])
def test_kernel_bits_do_not_depend_on_stack_size(rng, family, k):
    # stacks of 1, 7, 8, 9 and 64 codes put S*K on both sides of the panel
    # padding multiple; one_row is an N = 1, out = 1 Kraus stack
    if family == "rectangular":
        ch = qch.haar_random_channel(3, 5, 4, rng)
    else:
        row = 0.9 * linalg.haar_isometry(4, 1, rng).T
        ch = qch.KrausChannel(input_dim=4, output_dim=1, kraus_ops=(row,))
    bases = np.stack([linalg.haar_isometry(ch.input_dim, k, rng) for _ in range(64)])
    whole = codes._deviation_batch(bases, ch)
    for size in (1, 7, 8, 9):
        parts = [codes._deviation_batch(bases[i:i + size], ch)
                 for i in range(0, len(bases), size)]
        for field, expected in enumerate(whole):
            assert np.array_equal(np.concatenate([part[field] for part in parts]), expected)


# ---------------------------------------------------------------- bounds

def test_bound_kraus_identity(rng):
    for m in (2, 4, 8):
        for k in (1, m // 2 or 1, m):
            code = random_code(rng, m, k)
            rep = bound_report(code, qch.identity_channel(m))
            assert rep.transmission == pytest.approx(1.0, abs=1e-12)
            assert rep.bound_kraus == pytest.approx(1.0, abs=1e-12)


def test_bound_kraus_trace_decreasing_scaling(rng):
    ops = (math.sqrt(0.5) * np.eye(2, dtype=complex),)
    ch = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=ops)
    code = random_code(rng, 2, 1)
    rep = bound_report(code, ch)
    assert rep.transmission == pytest.approx(0.5, abs=1e-12)
    assert rep.deviation_trace_norm == pytest.approx(0.0, abs=1e-12)
    assert rep.bound_kraus == pytest.approx(0.5, abs=1e-12)


def test_bound_kraus_never_above_one(rng):
    for _ in range(20):
        m = int(rng.integers(2, 6))
        ch = random_square_channel(rng, m, int(rng.integers(1, 4)),
                                   trace_decreasing=bool(rng.integers(2)))
        code = random_code(rng, m, int(rng.integers(1, m + 1)))
        rep = bound_report(code, ch)
        assert rep.bound_kraus <= 1.0 + 1e-12


def test_bound_states_identity(rng):
    code = random_code(rng, 4, 2)
    rep = bound_report(code, qch.identity_channel(4))
    assert rep.bound_states == pytest.approx(1.0, abs=1e-12)


def test_bound_states_phase_flip_pointer_code():
    # span{|0>}: fixed up to phase
    code = np.eye(2, 1)
    rep = bound_report(code, qch.phase_flip(0.25))
    assert rep.bound_states == pytest.approx(1.0, abs=1e-10)
    assert rep.bound_kraus == pytest.approx(1.0, abs=1e-10)


def test_bound_states_rejects_zero_transmission():
    # single Kraus operator that kills |0>; code = span{|0>} has p = 0
    a = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    ch = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(a,))
    code = np.eye(2, 1)
    with pytest.raises(InvariantViolationError, match="too small to normalize"):
        bound_report(code, ch)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bound_forms_agree(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, m + 1))
    out = int(rng.integers(2, 5))
    if out * n < m:
        out = m
    ch = qch.haar_random_channel(m, out, n, rng)
    if n > 1 and rng.integers(2):
        keep = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        ch = oracles.reduce_channel(ch, keep)
    code = random_code(rng, m, k)
    rep = bound_report(code, ch)
    assert rep.bound_kraus == pytest.approx(rep.bound_states, abs=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_bound_states_equal_the_dense_state_form(rng, m):
    # the state form reads the D kernel's product A_j B, so a fault there could pass
    # test_bound_forms_agree; the oracle purifies pi_C and applies the Stinespring
    # isometry densely, on rectangular channels (out != M) and reduced sub-channels
    wide = qch.haar_random_channel(m, m + 1, 3, rng)
    for ch in (wide, qch.haar_random_channel(m, 2, m, rng), oracles.reduce_channel(wide, [0, 2]),
               oracles.reduce_channel(wide, [1])):
        for k in range(1, m + 1):
            bases = np.stack([random_code(rng, m, k) for _ in range(3)])
            states = codes.bound_columns(bases, ch)[:, codes.BOUND_COLUMNS.index("bound_states")]
            for code, got in zip(bases, states):
                assert got == pytest.approx(oracles.state_form_bound(code, ch), abs=1e-12)


def test_bound_kraus_eight_qubit_mixture():
    # two-unitary mixture on 2^8 dims, one sampled 2-dim code: the bound is
    # comfortably inside [0, 1] (the ensemble mean is >= 0.875)
    rng = np.random.default_rng(808)
    dim = 256
    us = [linalg.haar_isometry(dim, dim, rng) for _ in range(2)]
    ch = oracles.unitary_mixture(us)
    code = random_code(rng, dim, 2)
    rep = bound_report(code, ch)
    assert rep.transmission == pytest.approx(1.0, abs=1e-10)
    assert 0.8 <= rep.bound_kraus <= 1.0


# ---------------------------------------------------------------- recovery witnesses

def test_transpose_recovery_is_valid_channel(rng):
    ch = random_square_channel(rng, 3, 2)
    code = random_code(rng, 3, 2)
    rec = oracles.transpose_recovery(code, ch)
    lo, hi = oracles.completeness_defect_bounds(rec.kraus_ops)
    assert hi <= 1e-9


def test_some_recovery_achieves_the_bound(rng):
    # one-sided soundness: the bound promises a good recovery exists
    for _ in range(25):
        m = int(rng.integers(2, 5))
        ch = random_square_channel(rng, m, int(rng.integers(1, 4)))
        code = random_code(rng, m, int(rng.integers(1, m + 1)))
        bound = bound_report(code, ch).bound_kraus
        # transpose-recovery fidelity F_T = sum_kl |tr(pi_C R_k A_l)|^2
        recovery = oracles.transpose_recovery(code, ch).kraus_ops
        amps = np.einsum("ij,kjb,lbi->kl", oracles.normalized_projector(code),
                         recovery, ch.kraus_ops)
        achieved = float(np.sum(np.abs(amps) ** 2))
        assert achieved >= bound - 1e-6
