"""Dense complex linear algebra and probability primitives.

Everything in this module operates on plain ``numpy`` arrays (``complex128``,
row-major) and is a pure function of its inputs.  Randomness always enters
through an explicit ``numpy.random.Generator``; no function touches global
RNG state.  Logarithms are base 2 throughout, so entropies are in qubits/bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceededError, InvariantViolationError

# The one memory cap: 2^26 complex entries (1 GiB).  Every dense step a
# command can reach predicts its peak, all the arrays it holds at once, and
# calls `check_entries` with it before allocating; a float64 or int64
# element counts as one entry.
ENTRY_CAP = 1 << 26

HERMITICITY_ATOL = 1e-10
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvariantViolationError("matrix contains non-finite entries")
    return m


def as_power_of_two(x: int) -> str:
    """x written as 2^log2(x), readable however many digits x has."""
    return f"2^{math.log2(x):.6g}"


def check_entries(entries: int, what: str) -> None:
    """CapExceededError naming ``what`` when its peak needs more than ENTRY_CAP entries."""
    if entries > ENTRY_CAP:
        raise CapExceededError(f"{what} needs {as_power_of_two(entries)} entries, "
                               f"above cap {as_power_of_two(ENTRY_CAP)}")


def tensor(a, b) -> np.ndarray:
    """Kronecker product under the entry cap; its peak is the product itself."""
    a, b = as_matrix(a), as_matrix(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    check_entries(rows * cols, f"Kronecker product {as_power_of_two(rows)} x {as_power_of_two(cols)}")
    return np.kron(a, b)


def partial_trace(m, dim_a: int, dim_b: int, keep: str = "A") -> np.ndarray:
    """Partial trace of an operator on H_A (x) H_B over the discarded factor.

    ``keep`` selects the surviving factor, "A" or "B".  The full trace is
    preserved: trace(partial_trace(m)) == trace(m).
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1] or m.shape[0] != dim_a * dim_b:
        raise ValueError(
            f"operator shape {m.shape} incompatible with dims ({dim_a}, {dim_b})"
        )
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ijkj->ik", r)
    if keep == "B":
        return np.einsum("ijil->jl", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def is_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= atol


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary of eigenvectors as columns) with
    h == V diag(w) V^dagger up to reconstruction error <= 1e-9 * ||h||_F.
    Rejects inputs that are not Hermitian within 1e-10.
    """
    h = as_matrix(h)
    if not is_hermitian(h):
        raise InvariantViolationError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(h)


def trace_norm(a) -> float:
    """Schatten-1 norm: sum of singular values (sum |eigenvalue| if Hermitian)."""
    a = as_matrix(a)
    if is_hermitian(a):
        return float(np.sum(np.abs(np.linalg.eigvalsh(a))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def frobenius_norm(a) -> float:
    """Schatten-2 norm sqrt(trace(A^dagger A))."""
    return float(np.linalg.norm(as_matrix(a), "fro"))


def _clamped_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out spurious negative eigenvalues in [-PSD_ATOL, 0); reject worse."""
    if w.size and w[0] < -PSD_ATOL:
        raise InvariantViolationError(
            f"operator is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    return np.maximum(w, 0.0)


def _psd_spectrum(m) -> np.ndarray:
    """One eigvalsh's `_clamped_spectrum` of a matrix that must be Hermitian within 1e-10."""
    m = as_matrix(m)
    if not is_hermitian(m):
        raise InvariantViolationError("density operator is not Hermitian")
    return _clamped_spectrum(np.linalg.eigvalsh(m))


def assert_density_operator(rho) -> np.ndarray:
    """Validate a density operator: Hermitian, and its spectrum a distribution (within 1e-10)."""
    rho = as_matrix(rho)
    assert_distribution(_psd_spectrum(rho))
    return rho


def von_neumann_entropy(rho) -> float:
    """Entropy of a density operator in bits: the Shannon entropy of its one-eigvalsh spectrum."""
    return shannon_entropy(_psd_spectrum(rho))


def assert_distribution(weights) -> np.ndarray:
    """Nonnegative weights summing to 1 within 1e-10, the tolerance of a density's trace."""
    p = np.asarray(weights, dtype=float).ravel()
    if p.size == 0:
        raise InvariantViolationError("empty probability distribution")
    if np.min(p) < 0.0:
        raise InvariantViolationError("probability weights must be nonnegative")
    if abs(float(np.sum(p)) - 1.0) > TRACE_ATOL:
        raise InvariantViolationError(f"probability weights sum to {np.sum(p)}, not 1")
    return p


def shannon_entropy(weights) -> float:
    """Shannon entropy of a distribution in bits, with 0 log 0 = 0 (+0.0, never -0.0)."""
    p = assert_distribution(weights)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p))) + 0.0


def purify(rho, rank_tol: float = 1e-12) -> np.ndarray:
    """Minimal purification of a density operator.

    Returns an (r, d) array Psi with r = rank(rho); the purifying vector in
    R (x) Q (reference-major layout) is ``Psi.ravel()`` and satisfies
    tr_R |psi><psi| = rho and tr_Q |psi><psi| = diag of the kept eigenvalues.
    """
    rho = as_matrix(rho)
    w, v = eigh(rho)
    w = _clamped_spectrum(w)
    keep = w > rank_tol
    if not np.any(keep):
        raise InvariantViolationError("cannot purify an (almost) zero operator")
    return (np.sqrt(w[keep])[:, None] * v[:, keep].T).astype(np.complex128)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a unitary from the Haar measure on U(dim): a square `haar_isometry`."""
    return haar_isometry(dim, dim, rng)


def haar_isometry(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """First ``cols`` columns of a Haar unitary, drawn directly.

    Reduced QR of a (dim, cols) complex Ginibre matrix, with the R-diagonal
    phases divided out; without that correction the raw QR output is not
    Haar distributed.  The resulting isometry is unitarily invariant.  The
    real parts, then the imaginary parts, come from one draw of normals
    scaled by 1/sqrt(2); numpy divides by a complex scalar by multiplying by
    its reciprocal, so these are the bits of (a + 1j b) / sqrt(2) from two
    draws a, b.
    """
    if not 1 <= cols <= dim:
        raise ValueError(f"need 1 <= cols <= dim, got cols={cols}, dim={dim}")
    normals = rng.standard_normal((2, dim, cols))
    normals *= 1 / math.sqrt(2)
    z = np.empty((dim, cols), dtype=np.complex128)
    z.real, z.imag = normals
    del normals     # so that the draw is not held through the QR
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density operator from a normalized Wishart matrix of given rank."""
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValueError(f"need 1 <= rank <= dim, got rank={rank}")
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / math.sqrt(2)
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def max_mixed(dim: int) -> np.ndarray:
    """The homogeneous density 1/dim on a dim-dimensional space."""
    return np.eye(dim, dtype=np.complex128) / dim
