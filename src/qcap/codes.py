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

Both forms agree because the state-form difference maps onto D under an
isometric relabeling that leaves the trace norm invariant.  D is assembled
in the K-dimensional code basis (size K*N, not ambient M*N): pi_C has rank
K, so the compression is exact and keeps 8-qubit demos tractable.

One kernel computes each quantity: `_deviation_batch` gives p, ||D||_F^2,
D and the product of the Kraus rows by the codes, every A_j B, and
`_trace_norms`, one `linalg.eigvalsh` of the stack, gives ||D||_1 and the
state form's trace norm.  The state form reads the kernel's product, which
is each code's Stinespring image, so each chunk of codes makes one product
of the Kraus rows; the ensemble estimates drop it and read only the Kraus
form.  Exact code entanglement fidelity (a maximum over
recovery operations) is never computed here; the bound above stands in for
it.  The entanglement fidelity and the transpose-channel recovery
R_k = pi_C^{1/2} A_k^dagger N(pi_C)^{-1/2}, whose fidelity
F_T = sum_kl |tr(pi_C R_k A_l)|^2 the test suite checks against the bound,
are reference paths in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

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
    # per code the kernel's five (K*N)^2 (5.0 at K*N = 1024), then the state form's three
    # and eigvalsh's copy; per panel column the GEMM's output, its product and y, of which
    # the state form holds two at most: the product, until phi is formed from it, beside phi
    return (6 * stack * (code_dim * len(ch)) ** 2
            + (3 * len(ch) * ch.output_dim + ch.input_dim) * (stack * code_dim + linalg._TILE))


def _deviation_batch(bases: np.ndarray,
                     ch: KrausChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one D kernel, over an (S, M, K) stack of code bases.

    Returns length-S arrays of p and ||D||_F^2, the (S, K*N, K*N) stack of
    Hermitian D, and the (S, N*M', K) product whose rows (i, a) are those of
    A_i B, which the state form reads.  W_ij = B^dagger A_i^dagger A_j B is
    formed in the K-dimensional code basis, p = tr N(pi_C) = (1/K) sum_i
    ||A_i B||_F^2 comes from the same intermediates, and
    ||D||_F^2 = sum_ij [ ||W_ij||_F^2 / K^2 - |tr W_ij|^2 / K^3 ].  Block
    (i, j) of D is (W_ij - tr(W_ij)/K) / K, and every block is traceless.
    All A_i B come from one GEMM of the stacked Kraus rows by the (M, S*K)
    panel of bases, zero-padded to a multiple of `linalg._TILE` columns so
    that every code's columns land in full register tiles, and the Gram
    blocks are one matrix product per code, so each code's bits do not
    depend on S.  A stack whose `bound_columns` peak (`_stack_entries`)
    is above `linalg.ENTRY_CAP` raises CapExceededError before any allocation.
    """
    s, m, k = bases.shape
    if ch.input_dim != m:
        raise ValueError("code ambient dimension does not match channel input")
    n, out, width = len(ch), ch.output_dim, s * k
    what = f"{s} codes" if s > 1 else "one code"
    linalg.check_entries(_stack_entries(s, k, ch), f"D kernel for {what} (K={k}, N={n})")
    flat = ch.kraus_ops.reshape(n * out, m)
    panel = np.zeros((m, -(-width // linalg._TILE) * linalg._TILE), dtype=np.complex128)
    panel[:, :width] = bases.transpose(1, 0, 2).reshape(m, width)
    # (S, N*out, K), rows (i, a), made contiguous so later steps see one layout for any S
    ab = np.ascontiguousarray((flat @ panel)[:, :width].reshape(n * out, s, k).transpose(1, 0, 2))
    p = np.sum(np.abs(ab.reshape(s, -1)) ** 2, axis=1) / k
    # row (j, m) of y is column m of A_j B, so y y^dagger holds (W_ij)_lm at [(j, m), (i, l)]
    y = ab.reshape(s, n, out, k).transpose(0, 1, 3, 2).reshape(s, n * k, out)
    gram = np.matmul(y, y.conj().transpose(0, 2, 1))
    blocks = gram.reshape(s, n, k, n, k)           # axes (j, m, i, l)
    traces = np.einsum("sjlil->sij", blocks)
    fro_sq = (np.sum(np.abs(gram.reshape(s, -1)) ** 2, axis=1) / k**2
              - np.sum(np.abs(traces.reshape(s, -1)) ** 2, axis=1) / k**3)
    eye = np.eye(k)[None, None, :, None, :]
    dev = (blocks - traces.transpose(0, 2, 1)[:, :, None, :, None] * eye / k) / k
    d = dev.transpose(0, 4, 3, 2, 1).reshape(s, k * n, k * n)   # rows (l, i), columns (m, j)
    return p, fro_sq, (d + d.conj().transpose(0, 2, 1)) / 2, ab


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
    form reads the kernel's product: each code's maximally entangled
    purification of pi_C pushed through the Stinespring isometry
    sum_e |e> (x) A_e is phi = (A_e B)^T / sqrt(K), so each chunk makes one
    product of the Kraus rows.  It normalizes phi by its own transmission
    probability and measures how far reference+environment is from a
    product state.  Every step treats each code alone, so a code's row does
    not depend on S.
    """
    (s, _, k), n, out = bases.shape, len(ch), ch.output_dim
    p, fro_sq, d, ab = _deviation_batch(bases, ch)
    trace_norm_d = _trace_norms(d)
    del d
    # indices (r, e, q'), laid out C-contiguous: a ufunc on the transposed view
    # keeps its strides, and the einsums below then run slower
    phi = np.divide(ab.transpose(0, 2, 1), math.sqrt(k), order="C").reshape(s, k, n, out)
    del ab
    p_states = np.sum(np.abs(phi.reshape(s, -1)) ** 2, axis=1)
    small = np.flatnonzero(p_states <= 1e-12)
    if small.size:
        raise InvariantViolationError(f"transmission probability {p_states[small[0]]:.3e} "
                                      "too small to normalize the final state")
    scale = p_states[:, None, None]
    rho_re = np.einsum("xreq,xsfq->xresf", phi, phi.conj()).reshape(s, k * n, k * n) / scale
    rho_e = np.einsum("xreq,xrfq->xef", phi, phi.conj()) / scale
    # rho_R (x) rho'_E, rho_R = I/K, is the Kronecker product of each code's rho'_E
    bound_states = p_states - p_states * _trace_norms(rho_re - np.kron(np.eye(k) / k, rho_e))
    return np.stack([p, trace_norm_d, fro_sq, p - trace_norm_d, bound_states], axis=1)
