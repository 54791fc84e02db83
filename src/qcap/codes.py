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
D's trace norm: the state form equals the Kraus form by that identity, and
is computed as p - ||D||_1.  The dense reference path
``tests/oracles.state_form_bound`` builds the final state itself and is the
state form's independent check.

One kernel computes each quantity: `_deviation_batch` gives p and D, and
`_spectral_norms`, one `linalg.eigvalsh` of the stack, gives ||D||_1 and
||D||_F^2 from D's one spectrum.  D is Hermitian in the lower triangle that
eigvalsh reads, as `linalg` holds every Hermitian matrix; it is formed once,
in the Gram's own memory, and handed to eigvalsh as formed, so each chunk
of codes makes one product of the Kraus rows, one D and one eigensolve per
code.  Exact code entanglement fidelity (a maximum over recovery
operations) is never computed here; the bound above stands in for it.  The
entanglement fidelity and the transpose-channel recovery
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
    """Peak entries of ``stack`` codes through the D kernel and its eigensolve, panel included."""
    # per code, the Gram that becomes D, tr W_ij, a quotient of it and numpy's two ufunc
    # buffers of one block, and the eigenvalues (1.07 (K*N)^2 measured at K*N = 512, through
    # bound_columns and the ensemble alike); eigvalsh's copy of one matrix; per panel row, M
    # entries of the codes and M of the panel beside N*M' of y and N*M' of its conjugate
    n, kn = len(ch), code_dim * len(ch)
    return (stack * (kn * kn + 4 * n * n + kn) + kn * kn
            + 2 * (n * ch.output_dim + ch.input_dim) * (stack * code_dim + linalg._TILE))


def _deviation_batch(bases: np.ndarray, ch: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """The one D kernel, over an (S, M, K) stack of code bases.

    Returns the length-S array of p and the (S, K*N, K*N) stack of D.  All
    A_i B come from one GEMM of a panel by the stacked Kraus rows; the panel
    holds every code's rows B^T, indexed (s, l) and zero-padded to a multiple
    of `linalg._TILE` rows, so that every code's rows land in full register
    tiles.  Row (l, i) of a code's y is column l of A_i B, so its Gram
    conj(y y^dagger), which holds (W_ij)_lm = (B^dagger A_i^dagger A_j B)_lm
    at [(l, i), (m, j)], is one matrix product per code, and no code's bits
    depend on S.  From the Gram, tr W_ij is a partial trace over the code
    index, p = tr N(pi_C) = (1/K) sum_i tr W_ii, and D = Gram / K less
    tr W_ij / K^2 on its K diagonal (l, l) blocks, whose every block is
    traceless.  D is formed in the Gram's own memory, one diagonal block at a
    time; its lower triangle is the Hermitian matrix that `linalg.eigvalsh`
    reads, and its upper one, equal to rounding, is never read.  A stack
    whose `bound_columns` peak (`_stack_entries`) is above `linalg.ENTRY_CAP`
    raises CapExceededError before any allocation.
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
    d = np.divide(gram, k, out=gram)
    # one (l, l) block at a time: numpy cannot prove a view of all K blocks free of
    # self-overlap, so an in-place ufunc on it would copy that view first
    for l in range(k):
        d.reshape(s, k, n, k, n)[:, l, :, l] -= traces / k**2
    return p, d


def _spectral_norms(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||H||_1 = sum |lambda| and ||H||_F^2 = sum lambda^2 of a Hermitian matrix, or of each in a stack.

    Both read the one spectrum of `linalg.eigvalsh`, which reads the lower triangle.
    """
    spectrum = linalg.eigvalsh(d)
    return np.sum(np.abs(spectrum), axis=-1), np.sum(spectrum * spectrum, axis=-1)


# The columns of `bound_columns`, one row per code:
#   transmission            p = tr N(pi_C)
#   deviation_trace_norm    ||D||_1            (Kraus form)
#   deviation_frobenius_sq  ||D||_F^2
#   bound_kraus             p - ||D||_1
#   bound_states            p - p * || rho'_RE - rho_R (x) rho'_E ||_1   (= p - ||D||_1)
BOUND_COLUMNS = ("transmission", "deviation_trace_norm", "deviation_frobenius_sq", "bound_kraus",
                 "bound_states")


def bound_columns(bases: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """The (S, 5) `BOUND_COLUMNS` of an (S, M, K) stack of code bases.

    The kernel's entry check fires before anything of the stack is
    allocated.  Both norms read D's one spectrum (`_spectral_norms`).  The
    state form equals the Kraus form by identity: each code's maximally
    entangled purification of pi_C pushed through the Stinespring isometry
    sum_e |e> (x) A_e is (A_e B)^T / sqrt(K), so, normalized by p,
    rho'_RE - rho_R (x) rho'_E is conj(D) / p, whose trace norm is
    ||D||_1 / p, and bound_states is p - ||D||_1.  It still needs p above
    1e-12 to normalize that state, and ``tests/oracles.state_form_bound``
    checks it against the state formed densely.  Every step treats each
    code alone, so a code's row does not depend on S.
    """
    p, d = _deviation_batch(bases, ch)
    trace_norm_d, fro_sq = _spectral_norms(d)
    small = np.flatnonzero(p <= 1e-12)
    if small.size:
        raise InvariantViolationError(f"transmission probability {p[small[0]]:.3e} "
                                      "too small to normalize the final state")
    bound = p - trace_norm_d
    return np.stack([p, trace_norm_d, fro_sq, bound, bound], axis=1)
