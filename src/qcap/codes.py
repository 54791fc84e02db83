"""The computable fidelity lower bound over a stack of codes.

A code is a K-dimensional subspace of the |Q|-dimensional channel input,
stored as an M x K isometry of orthonormal columns; the functions here take
an (S, M, K) stack of them, one chunk of the sampling loop.  `bound_columns`
computes, per code, the lower bound on the recovery-optimized code
entanglement fidelity in its two equivalent forms

  Kraus form   p - || D ||_1
  state form   p - p * || rho'_RE - rho_R (x) rho'_E ||_1

with p the transmission probability of the normalized code projector and D
the Hermitian block operator

  D = K * sum_ij ( pi_C A_i^dagger A_j pi_C
                   - tr(pi_C A_i^dagger A_j pi_C) pi_C ) (x) |i><j| .

D is assembled in the K-dimensional code basis (size K*N, not ambient
M*N): pi_C has rank K, so the compression is exact and keeps 8-qubit demos
tractable.  Both forms agree because, in that basis,
p (rho'_RE - rho_R (x) rho'_E) is the complex conjugate of D, which has
D's trace norm.

One kernel computes each quantity: `_deviation_batch` gives p, ||D||_F^2,
D and each code's Gram matrix of W_ij = B^dagger A_i^dagger A_j B, laid
out as D is, and `_trace_norms`, one `linalg.eigvalsh` of the stack, gives
||D||_1 and the state form's trace norm.  D and the state form's operator
are Hermitian in the lower triangle that eigvalsh reads, as `linalg` holds
every Hermitian matrix; each is formed once, in place, and handed to
eigvalsh as formed.  The state form reads the
kernel's p and Gram, so each chunk of codes makes one product of the Kraus
rows and one Gram per code; the ensemble estimates drop the Gram and read
only the Kraus form.  Exact code entanglement fidelity (a maximum over
recovery operations) is never computed here; the bound above stands in for
it.  The entanglement fidelity and the transpose-channel recovery
R_k = pi_C^{1/2} A_k^dagger N(pi_C)^{-1/2}, whose fidelity
F_T = sum_kl |tr(pi_C R_k A_l)|^2 the test suite checks against the bound,
are reference paths in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .channels import KrausChannel
from .errors import InvariantViolationError

ORTHONORMALITY_ATOL = 1e-10

def _orthonormal(bases: np.ndarray) -> np.ndarray:
    """An (S, M, K) stack of bases, checked to have orthonormal columns within 1e-10."""
    defect = np.matmul(bases.conj().transpose(0, 2, 1), bases) - np.eye(bases.shape[2])
    if np.max(np.abs(defect)) > ORTHONORMALITY_ATOL:
        raise InvariantViolationError("basis columns are not orthonormal")
    return bases


def _stack_entries(stack: int, code_dim: int, ch: KrausChannel) -> int:
    """Peak entries of ``stack`` codes through the D kernel and the state form, panel included."""
    # per code, the Gram and D, tr W_ij, a quotient of it and numpy's two ufunc buffers of
    # one block, and the eigenvalues (2.05 (K*N)^2 measured at K*N = 512, in the kernel and the
    # state form alike); eigvalsh's copy of one matrix; per panel row, M entries of the codes
    # and M of the panel beside N*M' of y and N*M' of its conjugate
    n, kn = len(ch), code_dim * len(ch)
    return (stack * (2 * kn * kn + 4 * n * n + kn) + kn * kn
            + 2 * (n * ch.output_dim + ch.input_dim) * (stack * code_dim + linalg._TILE))


def _deviation_batch(bases: np.ndarray,
                     ch: KrausChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one D kernel, over an (S, M, K) stack of code bases.

    Returns length-S arrays of p and ||D||_F^2, the (S, K*N, K*N) stack of
    D, and the stack of Gram matrices that holds
    (W_ij)_lm = (B^dagger A_i^dagger A_j B)_lm at [(l, i), (m, j)], D's own
    layout, which the state form reads.  All A_i B come from one GEMM of a
    panel by the stacked Kraus rows; the panel holds every code's rows B^T,
    indexed (s, l) and zero-padded to a multiple of `linalg._TILE` rows, so
    that every code's rows land in full register tiles.  Row (l, i) of a
    code's y is column l of A_i B, so its Gram conj(y y^dagger) is one matrix
    product per code, and no code's bits depend on S.  From the Gram, tr W_ij
    is a partial trace over the code index, p = tr N(pi_C) = (1/K) sum_i tr W_ii,
    ||D||_F^2 = sum_ij [ ||W_ij||_F^2 / K^2 - |tr W_ij|^2 / K^3 ] and
    D = Gram / K less tr W_ij / K^2 on its K diagonal (l, l) blocks, whose
    every block is traceless.  D is formed from one copy of the Gram, in
    place, one diagonal block at a time; its lower triangle is the Hermitian
    matrix that `linalg.eigvalsh` reads, and its upper one, equal to
    rounding, is never read.  A stack whose `bound_columns` peak
    (`_stack_entries`) is above `linalg.ENTRY_CAP` raises CapExceededError
    before any allocation.
    """
    s, m, k = bases.shape
    if ch.input_dim != m:
        raise ValueError("code ambient dimension does not match channel input")
    n, out, width = len(ch), ch.output_dim, s * k
    what = f"{s} codes" if s > 1 else "one code"
    linalg.check_entries(_stack_entries(s, k, ch), f"D kernel for {what} (K={k}, N={n})")
    panel = np.zeros((-(-width // linalg._TILE) * linalg._TILE, m), dtype=np.complex128)
    panel[:width] = bases.transpose(0, 2, 1).reshape(width, m)
    y = (panel @ ch.kraus_ops.reshape(n * out, m).T)[:width].reshape(s, k * n, out)
    gram = np.matmul(y.conj(), y.transpose(0, 2, 1))
    traces = np.trace(gram.reshape(s, k, n, k, n), axis1=1, axis2=3)    # tr W_ij, axes (i, j)
    p = np.trace(traces, axis1=1, axis2=2).real / k
    fro_sq = (np.sum(np.abs(gram.reshape(s, -1)) ** 2, axis=1) / k**2
              - np.sum(np.abs(traces.reshape(s, -1)) ** 2, axis=1) / k**3)
    d = gram / k
    # one (l, l) block at a time: numpy cannot prove a view of all K blocks free of
    # self-overlap, so an in-place ufunc on it would copy that view first
    for l in range(k):
        d.reshape(s, k, n, k, n)[:, l, :, l] -= traces / k**2
    return p, fro_sq, d, gram


def _trace_norms(d: np.ndarray) -> np.ndarray:
    """Trace norms of a Hermitian matrix, or of each one in a stack; eigvalsh reads the lower triangle."""
    return np.sum(np.abs(linalg.eigvalsh(d)), axis=-1)


# The columns of `bound_columns`, one row per code:
#   transmission            p = tr N(pi_C)
#   deviation_trace_norm    ||D||_1            (Kraus form)
#   deviation_frobenius_sq  ||D||_F^2
#   bound_kraus             p - ||D||_1
#   bound_states            p - p * || rho'_RE - rho_R (x) rho'_E ||_1
BOUND_COLUMNS = ("transmission", "deviation_trace_norm", "deviation_frobenius_sq", "bound_kraus",
                 "bound_states")


def bound_columns(bases: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """The (S, 5) `BOUND_COLUMNS` of an (S, M, K) stack of code bases.

    The two bound forms agree within 1e-9.  The kernel's entry check counts
    the state form too, so it fires before either form allocates.  The state
    form reads the kernel's Gram: each code's maximally entangled
    purification of pi_C pushed through the Stinespring isometry
    sum_e |e> (x) A_e is (A_e B)^T / sqrt(K), so, normalized by the kernel's
    p, rho'_RE = conj(Gram) / (K p) with rows (r, e), and rho'_E is its
    partial trace over R.  The Gram, which D's eigensolve leaves, becomes
    rho'_RE in place, and rho'_RE - rho_R (x) rho'_E is rho'_RE less rho'_E / K
    on its diagonal blocks, so the state form allocates no matrix of its
    own.  It measures how far reference+environment is from a product state.
    Every step treats each code alone, so a code's row does not depend on S.
    """
    (s, _, k), n = bases.shape, len(ch)
    p, fro_sq, d, gram = _deviation_batch(bases, ch)
    trace_norm_d = _trace_norms(d)
    del d
    small = np.flatnonzero(p <= 1e-12)
    if small.size:
        raise InvariantViolationError(f"transmission probability {p[small[0]]:.3e} "
                                      "too small to normalize the final state")
    rho_re = np.divide(np.conjugate(gram, out=gram), (k * p)[:, None, None], out=gram)
    rho_e = np.trace(rho_re.reshape(s, k, n, k, n), axis1=1, axis2=3)
    # rho_R (x) rho'_E, rho_R = I/K, is rho'_E / K on each (l, l) block
    for l in range(k):
        rho_re.reshape(s, k, n, k, n)[:, l, :, l] -= rho_e / k
    bound_states = p - p * _trace_norms(rho_re)
    return np.stack([p, trace_norm_d, fro_sq, p - trace_norm_d, bound_states], axis=1)
