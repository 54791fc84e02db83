"""Linear algebra: the oracles' tensor and partial trace, the trace norm, entropies, Haar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcap import codes, linalg
from qcap.errors import CapExceededError, InvariantViolationError
import oracles

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def binary_entropy(p: float) -> float:
    # independent oracle for two-outcome entropies
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# ---------------------------------------------------------------- tensor

def test_tensor_identity():
    assert np.allclose(oracles.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diagonal():
    got = oracles.tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (random_complex(rng, 2, 2) for _ in range(4))
    lhs = oracles.tensor(a, b) @ oracles.tensor(c, d)
    rhs = oracles.tensor(a @ c, b @ d)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor_dimension_cap():
    big = np.eye(300)
    with pytest.raises(CapExceededError, match=r"^Kronecker product 2\^16\.4576 x 2\^16\.4576 "
                                               r"needs 2\^32\.9153 entries, above cap 2\^26$"):
        oracles.tensor(big, big)


def test_dimension_cap_names_powers_of_two():
    assert linalg.check_entries(linalg.ENTRY_CAP, "block") is None
    with pytest.raises(CapExceededError, match=r"^block needs 2\^1100 entries, above cap 2\^26$"):
        linalg.check_entries(2**1100, "block")


# ---------------------------------------------------------------- partial trace

def test_partial_trace_product_state(rng):
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 2, 2)
    m = oracles.tensor(a, b)
    assert np.allclose(oracles.partial_trace(m, 3, 2, keep="A"), a * np.trace(b))
    assert np.allclose(oracles.partial_trace(m, 3, 2, keep="B"), b * np.trace(a))


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(oracles.partial_trace(rho, 2, 2, keep="A"), np.eye(2) / 2)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_partial_trace_preserves_trace(seed, da, db):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, da * db, da * db)
    m = m + m.conj().T
    red = oracles.partial_trace(m, da, db, keep="A")
    assert np.trace(red) == pytest.approx(np.trace(m), abs=1e-10)


def test_partial_trace_positivity(rng):
    rho = oracles.random_density(6, rng)
    red = oracles.partial_trace(rho, 2, 3, keep="B")
    assert np.min(np.linalg.eigvalsh(red)) >= -1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError):
        oracles.partial_trace(np.eye(5), 2, 2)


# ---------------------------------------------------------------- eigh

def test_eigh_diagonal():
    w, _ = oracles.checked_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eigh_pauli_x():
    w, _ = oracles.checked_eigh(X)
    assert np.allclose(w, [-1.0, 1.0])


@pytest.mark.parametrize("dim", [8, 64, 512])
def test_eigh_reconstruction(dim, rng):
    h = random_complex(rng, dim, dim)
    h = h + h.conj().T
    w, v = oracles.checked_eigh(h)
    err = np.linalg.norm((v * w) @ v.conj().T - h)
    assert err <= 1e-9 * np.linalg.norm(h)
    assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(InvariantViolationError):
        oracles.checked_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------- trace norm

def random_hermitian(rng, dim, rank=None):
    g = random_complex(rng, dim, rank or dim)
    return g @ np.diag(rng.standard_normal(rank or dim)) @ g.conj().T


def test_trace_norm_diagonal():
    assert codes._spectral_norms(np.diag([1.0, -2.0])) == pytest.approx((3.0, 5.0))


def test_trace_norm_zero_difference(rng):
    rho = oracles.random_density(4, rng)
    assert codes._spectral_norms(rho - rho) == pytest.approx((0.0, 0.0), abs=1e-14)


def test_trace_norm_matches_singular_values(rng):
    # oracles: singular values from the eigenvalues of H^dagger H, and numpy's Frobenius norm
    for _ in range(10):
        h = random_hermitian(rng, 5)
        oracle = np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0)))
        trace_norm, fro_sq = codes._spectral_norms(h)
        assert trace_norm == pytest.approx(oracle, abs=1e-9)
        assert fro_sq == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)


def test_trace_norm_rank_bound(rng):
    # ||H||_1 <= sqrt(rank) ||H||_2 on random low-rank Hermitian H
    for rank in (1, 2, 3):
        h = random_hermitian(rng, 6, rank)
        assert codes._spectral_norms(h)[0] <= math.sqrt(rank) * np.linalg.norm(h) + 1e-9


# ---------------------------------------------------------------- entropies

def test_von_neumann_pure_state():
    psi = np.array([1.0, 1.0j]) / math.sqrt(2)
    assert oracles.von_neumann_entropy(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_max_mixed():
    assert oracles.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)


def test_von_neumann_binary():
    rho = np.diag([0.75, 0.25])
    assert oracles.von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert oracles.von_neumann_entropy(rho) == pytest.approx(0.811278, abs=1e-6)


def test_von_neumann_rejects_subnormalized():
    with pytest.raises(InvariantViolationError):
        oracles.von_neumann_entropy(np.eye(2) / 4)


def test_shannon_entropy_values():
    assert linalg.shannon_entropy([1.0, 0.0]) == pytest.approx(0.0)
    assert linalg.shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert linalg.shannon_entropy([0.9, 0.1]) == pytest.approx(binary_entropy(0.1), abs=1e-12)
    assert linalg.shannon_entropy([0.9, 0.1]) == pytest.approx(0.468996, abs=1e-6)


@pytest.mark.parametrize("weights, match", [
    ([0.5, 0.6], "sum to"), ([], "empty"), ([1.5, -0.5], "nonnegative"),
], ids=["unnormalized", "empty", "negative"])
def test_shannon_rejects_unnormalized(weights, match):
    with pytest.raises(InvariantViolationError, match=match):
        linalg.shannon_entropy(weights)


def test_clamped_spectrum_zeroes_rounding_and_rejects_worse():
    assert np.array_equal(linalg._clamped_spectrum(np.array([-1e-11, 0.5])), [0.0, 0.5])
    with pytest.raises(InvariantViolationError, match="not positive semidefinite"):
        linalg._clamped_spectrum(np.array([-2e-10, 0.5]))


# ---------------------------------------------------------------- purification

@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_purify_reduces_back(seed, dim):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim + 1))
    rho = oracles.random_density(dim, rng, rank=rank)
    psi_mat = oracles.purify(rho)
    r = psi_mat.shape[0]
    assert r == rank
    psi = psi_mat.ravel()
    full = np.outer(psi, psi.conj())
    assert np.allclose(oracles.partial_trace(full, r, dim, keep="B"), rho, atol=1e-10)


# ---------------------------------------------------------------- Haar sampling

def test_haar_unitary_is_unitary(rng):
    for dim in (1, 2, 5, 16):
        u = oracles.haar_isometry(dim, dim, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-10 * max(1, dim)


def test_haar_isometry_columns(rng):
    v = oracles.haar_isometry(6, 2, rng)
    assert v.shape == (6, 2)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("dim, cols", [(256, 2), (2, 2), (5, 3), (256, 256), (3, 1), (1, 1)])
def test_haar_isometry_keeps_the_bits_of_two_ginibre_draws(dim, cols):
    # the one-draw Ginibre matrix against the two-draw expression it replaced, both QRs
    # on one BLAS thread
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z = (rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))) / math.sqrt(2)
        with linalg.one_blas_thread():
            q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        want = q * (d / np.abs(d))
        got = oracles.haar_isometry(dim, cols, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, cols", [(2, 1), (2, 2), (3, 2), (5, 3), (256, 2), (64, 17)])
def test_stacked_finish_keeps_the_bits_of_each_isometry(dim, cols):
    # one stack of nine matrices, each drawn from its own seeded stream, against nine
    # one-matrix draws from the same streams
    stack = np.empty((9, dim, cols), dtype=np.complex128)
    got = linalg.haar_isometries(stack, (np.random.default_rng(seed) for seed in range(9)))
    assert got is stack
    want = [oracles.haar_isometry(dim, cols, np.random.default_rng(seed)) for seed in range(9)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_blocks_split_a_dimension_at_tile_multiples():
    for n in range(1, 1200):
        blocks = linalg._blocks(n)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert 1 <= len(blocks) <= linalg._MAX_BLOCKS
        assert all(b.start % linalg._TILE == 0 for b in blocks)
        # a one-wide product would go to gemv, whose sums round differently
        assert n == 1 or min(b.stop - b.start for b in blocks) >= 2
        assert linalg._widest_block(n) == max(b.stop - b.start for b in blocks)


def test_haar_first_moments_smoke():
    # quick seeded check; the full three-moment suite runs in acceptance
    rng = np.random.default_rng(7)
    m, n = 3, 20000
    m2 = np.empty(n)
    m4 = np.empty(n)
    for i in range(n):
        u = oracles.haar_isometry(m, m, rng)
        a2 = abs(u[0, 0]) ** 2
        m2[i] = a2
        m4[i] = a2 * a2
    se2 = m2.std(ddof=1) / math.sqrt(n)
    se4 = m4.std(ddof=1) / math.sqrt(n)
    assert abs(m2.mean() - 1 / m) <= 4 * se2
    assert abs(m4.mean() - 2 / (m * m + m)) <= 4 * se4


def test_random_density_is_density(rng):
    rho = oracles.random_density(5, rng, rank=2)
    oracles.assert_density_operator(rho)
    assert np.sum(np.linalg.eigvalsh(rho) > 1e-10) == 2
