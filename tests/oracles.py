"""Dense reference paths that the tests check the package's kernels against.

No `qcap` command reaches these.  Each computes a quantity the definitional
way, on full matrices: a channel's action, tensor powers and sub-channels,
the entropy exchange through the W matrix and through a purification, the
entanglement fidelity, the state form of the fidelity bound, the
transpose-channel recovery, and extensional channel equality.  The package
computes what the commands need with one kernel per quantity
(`channels._lower_blocks` for every Hermitian product of a Kraus stack,
`channels.minimal_kraus`, `codes._deviation_batch`, `codes._trace_norms`);
the tests compare the two.
The one-product forms of the passes the package forms in blocks (Delta,
N(pi), the Gram matrix) are kept here too, whole, as the bits whose lower
triangle each blocked pass must reproduce, and the per-operator output
factor matrices that each weight group's factor sums.  The package holds
its Hermitian matrices as lower triangles and checks none of them; the
reference paths here take any matrix, so they keep short, unblocked
density checks of their own (`as_matrix`, `is_hermitian`, `psd_spectrum`).
The per-operator lists that the builtin constructors once built
(`weyl_kraus_ops`, `scaled_unitaries`) are the bits of their stacks, or
for the depolarizing channel, its values to rounding.  The decay rate
that `typicality.fit_decay` reads off a centred slope is `np.polyfit`'s
here (`polyfit_decay_rate`).
Beside them are fixtures that no command needs: mixtures of given unitaries
(`unitary_mixture`), and the channel-file writer (`matrix_to_pairs`, which
writes a matrix as rows of [re, im] pairs, `channel_to_dict` and
`save_channel`), whose files `serialize.load_channel` reads.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from qcap import channels as qch
from qcap import linalg, serialize
from qcap.errors import InvariantViolationError


# ------------------------------------------------------------------ matrices and states

def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvariantViolationError("matrix contains non-finite entries")
    return m


def is_hermitian(m: np.ndarray) -> bool:
    """Whether m is square and every entry of m - m^dagger is within 1e-10."""
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= 1e-10


def psd_spectrum(m) -> np.ndarray:
    """The clamped eigvalsh spectrum of a matrix that must be Hermitian within 1e-10."""
    m = as_matrix(m)
    if not is_hermitian(m):
        raise InvariantViolationError("density operator is not Hermitian")
    return linalg._clamped_spectrum(np.linalg.eigvalsh(m))


def tensor(a, b) -> np.ndarray:
    """Kronecker product under the entry cap; its peak is the product itself."""
    a, b = as_matrix(a), as_matrix(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    linalg.check_entries(rows * cols, f"Kronecker product {linalg.as_power_of_two(rows)} x "
                                      f"{linalg.as_power_of_two(cols)}")
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


def checked_eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary of eigenvectors as columns) with
    h == V diag(w) V^dagger up to reconstruction error <= 1e-9 * ||h||_F.
    Rejects inputs that are not Hermitian within 1e-10.
    """
    h = as_matrix(h)
    if not is_hermitian(h):
        raise InvariantViolationError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(h)


def assert_density_operator(rho) -> np.ndarray:
    """Validate a density operator: Hermitian, and its spectrum a distribution (within 1e-10)."""
    rho = as_matrix(rho)
    linalg.assert_distribution(psd_spectrum(rho))
    return rho


def von_neumann_entropy(rho) -> float:
    """Entropy of a density operator in bits: the Shannon entropy of its one-eigvalsh spectrum."""
    return linalg.shannon_entropy(psd_spectrum(rho))


def purify(rho, rank_tol: float = 1e-12) -> np.ndarray:
    """Minimal purification of a density operator.

    Returns an (r, d) array Psi with r = rank(rho); the purifying vector in
    R (x) Q (reference-major layout) is ``Psi.ravel()`` and satisfies
    tr_R |psi><psi| = rho and tr_Q |psi><psi| = diag of the kept eigenvalues.
    """
    rho = as_matrix(rho)
    w, v = checked_eigh(rho)
    w = linalg._clamped_spectrum(w)
    keep = w > rank_tol
    if not np.any(keep):
        raise InvariantViolationError("cannot purify an (almost) zero operator")
    return (np.sqrt(w[keep])[:, None] * v[:, keep].T).astype(np.complex128)


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


# ------------------------------------------------------------------ channels

def completeness_defect_bounds(stack: np.ndarray) -> tuple[float, float]:
    """(min, max) eigenvalue of sum A^dagger A - 1 for an (N, M', M) Kraus stack.

    The eigvalsh oracle for construction's decision, from the same Delta; it
    takes a stack so that it also reaches families construction rejects.
    """
    delta = qch._lower_product(stack.reshape(-1, stack.shape[-1]))
    delta[np.diag_indices(len(delta))] -= 1.0
    w = np.linalg.eigvalsh(delta)
    return float(w[0]), float(w[-1])


# The one-product forms of the package's blocked passes over a Kraus stack, each on
# one BLAS thread, as `channels._lower_blocks` forms them; each blocked pass must give
# these bits (`linalg._blocks`).

def one_product_defect(stack: np.ndarray) -> np.ndarray:
    """Delta = sum A^dagger A - 1 from one product of the conjugated, transposed stack."""
    m = stack.shape[-1]
    flat = stack.reshape(-1, m)
    with linalg.one_blas_thread():
        delta = flat.conj().T @ flat
    delta[np.diag_indices(m)] -= 1.0
    return delta


def tril_norm_sq(delta: np.ndarray) -> float:
    """2 ||strict lower triangle||_F^2 + ||diagonal||^2, from a copy of the triangle."""
    return 2.0 * np.linalg.norm(np.tril(delta, -1)) ** 2 + np.linalg.norm(np.diagonal(delta)) ** 2


def one_product_uniform_output(ch: qch.KrausChannel) -> np.ndarray:
    """N(pi) = V V^dagger / M from V = [A_1 ... A_N] and its conjugate, whole."""
    n, m, mp = len(ch), ch.input_dim, ch.output_dim
    v = ch.kraus_ops.transpose(1, 0, 2).reshape(mp, n * m)
    with linalg.one_blas_thread():
        return (v @ v.conj().T) / m


def one_product_gram(ch: qch.KrausChannel) -> np.ndarray:
    """tr(A_i^dagger A_j): one GEMM of the conjugated (N, M'M) flat stack with the flat stack."""
    flat = ch.kraus_ops.reshape(len(ch), -1)
    with linalg.one_blas_thread():
        return flat.conj() @ flat.T


def one_product_factor_matrices(stack: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """A_j A_j^dagger / M in the output eigenbasis, one per operator of a Kraus stack."""
    prods = np.einsum("jab,jcb->jac", stack, stack.conj())
    rotated = np.einsum("da,jab,be->jde", basis.conj().T, prods, basis, optimize=True)
    return rotated / stack.shape[-1]


def minimal_channel(ch: qch.KrausChannel) -> qch.KrausChannel:
    """The channel whose Kraus operators are `channels.minimal_kraus`'s stack."""
    return qch.KrausChannel(input_dim=ch.input_dim, output_dim=ch.output_dim,
                            kraus_ops=qch.minimal_kraus(ch)[0], name=ch.name)


def apply(ch: qch.KrausChannel, rho) -> np.ndarray:
    """sum_k A_k rho A_k^dagger; positivity-preserving and trace-nonincreasing."""
    rho = as_matrix(rho)
    if rho.shape != (ch.input_dim, ch.input_dim):
        raise ValueError(f"state shape {rho.shape} != channel input dim {ch.input_dim}")
    return sum((a @ rho) @ a.conj().T for a in ch.kraus_ops)


def tensor_power(ch: qch.KrausChannel, n: int) -> qch.KrausChannel:
    """n independent uses of the channel, as a dense |N|^n-operator family."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return ch
    # the operators beside the channel's construction, an eigensolver's copy of Delta,
    # and array overhead per operator
    linalg.check_entries((len(ch) * ch.input_dim * ch.output_dim) ** n + ch.input_dim ** (2 * n)
                         + qch._construction_entries(len(ch) ** n, ch.output_dim ** n,
                                                     ch.input_dim ** n) + 64 * len(ch) ** n,
                         f"tensor power {len(ch)}^{n} of Kraus operators")
    ops = tuple(functools.reduce(tensor, combo)
                for combo in itertools.product(ch.kraus_ops, repeat=n))
    return qch.KrausChannel(input_dim=ch.input_dim ** n, output_dim=ch.output_dim ** n,
                            kraus_ops=ops, name=f"{ch.name}^{n}" if ch.name else "")


def reduce_channel(ch: qch.KrausChannel, indices) -> qch.KrausChannel:
    """Sub-channel keeping only the listed Kraus operators (trace-decreasing)."""
    indices = list(indices)
    if not indices:
        raise ValueError("reduction needs a nonempty index subset")
    if len(set(indices)) != len(indices):
        raise ValueError("reduction indices must be distinct")
    if not all(0 <= i < len(ch) for i in indices):
        raise ValueError(f"reduction indices out of range 0..{len(ch) - 1}")
    ops = tuple(ch.kraus_ops[i] for i in indices)
    return qch.KrausChannel(input_dim=ch.input_dim, output_dim=ch.output_dim,
                            kraus_ops=ops, name=ch.name)


def entropy_exchange(rho, ch: qch.KrausChannel) -> float:
    """Entropy passed to the environment, from the matrix W_ij = tr(A_i rho A_j^dagger).

    The oracle for any input (`classify` reads S_e at pi from the Kraus weights);
    trace-decreasing channels are rejected rather than silently renormalized.
    """
    rho = assert_density_operator(rho)
    if rho.shape != (ch.input_dim, ch.input_dim):
        raise ValueError("state dimension does not match channel input")
    if not ch.trace_preserving:
        raise InvariantViolationError("entropy exchange needs a trace-preserving channel")
    # three stack copies, W and an eigensolver's copy (measured 1.1 N^2 beside the stacks)
    linalg.check_entries(len(ch) * (3 * ch.output_dim * ch.input_dim + 2 * len(ch)),
                         f"entropy exchange of {len(ch)} Kraus operators")
    stack = ch.kraus_ops
    tmp = stack @ rho
    w = np.einsum("iab,jab->ij", tmp, stack.conj())
    return von_neumann_entropy(w)


def entropy_exchange_via_purification(rho, ch: qch.KrausChannel) -> float:
    """Same quantity through an explicit minimal purification; cross-check path."""
    rho = assert_density_operator(rho)
    if not ch.trace_preserving:
        raise InvariantViolationError("entropy exchange needs a trace-preserving channel")
    psi = purify(rho)                             # (r, input_dim)
    r = psi.shape[0]
    dim = r * ch.output_dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    for a in ch.kraus_ops:
        v = (psi @ a.T).ravel()
        out += np.outer(v, v.conj())
    return von_neumann_entropy(out)


def coherent_information(rho, ch: qch.KrausChannel) -> float:
    """Output entropy minus entropy exchange, in bits."""
    se = entropy_exchange(rho, ch)
    return von_neumann_entropy(apply(ch, rho)) - se


def channels_equal(a: qch.KrausChannel, b: qch.KrausChannel, *, states: int = 20,
                   seed: int = 0x51A7E5, atol: float = 1e-10) -> bool:
    """Extensional equality on a fixed battery of pseudo-random densities."""
    if (a.input_dim, a.output_dim) != (b.input_dim, b.output_dim):
        return False
    battery_rng = np.random.default_rng(seed)
    for _ in range(states):
        rho = random_density(a.input_dim, battery_rng)
        if np.max(np.abs(apply(a, rho) - apply(b, rho))) > atol:
            return False
    return True


def weyl_kraus_ops(p: float, dim: int) -> list[np.ndarray]:
    """The depolarizing channel's Kraus operators: each Weyl operator X^a Z^b formed alone."""
    shift = np.roll(np.eye(dim, dtype=np.complex128), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    weyl = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(dim) for b in range(dim)]
    w_id, w_err = 1.0 - p + p / dim**2, p / dim**2
    return [math.sqrt(w_id) * weyl[0]] + [math.sqrt(w_err) * w for w in weyl[1:]]


def polyfit_decay_rate(ns, deviations) -> float:
    """Minus the slope of np.polyfit's least-squares line through (n, log deviation)."""
    return float(-np.polyfit(np.asarray(ns, dtype=float), np.log(deviations), 1)[0])


def scaled_unitaries(dim: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The random-unitary channel's Kraus operators: count Haar unitaries, each scaled alone."""
    return [math.sqrt(1.0 / count) * linalg.haar_isometry(dim, dim, rng) for _ in range(count)]


def unitary_mixture(unitaries) -> qch.KrausChannel:
    """Equal-weight mixture rho -> (1/n) sum_i U_i rho U_i^dagger of the given n unitaries."""
    ops = [math.sqrt(1.0 / len(unitaries)) * np.asarray(u, dtype=np.complex128) for u in unitaries]
    return qch.KrausChannel(input_dim=len(ops[0]), output_dim=len(ops[0]), kraus_ops=ops)


def matrix_to_pairs(m) -> list[list[list[float]]]:
    """A matrix as rows of [re, im] float pairs: one operator of a `channel_from_dict` record."""
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def channel_to_dict(ch: qch.KrausChannel) -> dict:
    """The channel-file record that `serialize.channel_from_dict` reads."""
    return {
        "name": ch.name,
        "input_dim": ch.input_dim,
        "output_dim": ch.output_dim,
        "kraus": [matrix_to_pairs(a) for a in ch.kraus_ops],
    }


def save_channel(ch: qch.KrausChannel, path) -> None:
    """Write a channel file that `serialize.load_channel` reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize.canonical_json(channel_to_dict(ch)))


# ------------------------------------------------------------------ codes

def normalized_projector(basis: np.ndarray) -> np.ndarray:
    """pi_C = (projector onto the span of an M x K isometry) / K; a rank-K density operator."""
    return (basis @ basis.conj().T) / basis.shape[1]


def entanglement_fidelity(rho, ch: qch.KrausChannel) -> float:
    """sum_k |tr(rho A_k)|^2, valid for trace-decreasing channels as well."""
    rho = assert_density_operator(rho)
    if ch.input_dim != ch.output_dim:
        raise ValueError("entanglement fidelity needs matching input/output spaces")
    if rho.shape != (ch.input_dim, ch.input_dim):
        raise ValueError("state dimension does not match channel input")
    amps = np.einsum("ij,kji->k", rho, ch.kraus_ops)
    return float(np.sum(np.abs(amps) ** 2))


def entanglement_fidelity_via_purification(rho, ch: qch.KrausChannel) -> float:
    """Definitional path: overlap of a minimal purification with its image.

    Cross-checks the Kraus-sum path; the two agree within 1e-9.
    """
    rho = assert_density_operator(rho)
    if ch.input_dim != ch.output_dim:
        raise ValueError("entanglement fidelity needs matching input/output spaces")
    psi = purify(rho)                              # (r, d)
    vec = psi.ravel()
    total = 0.0
    for a in ch.kraus_ops:
        out = (psi @ a.T).ravel()
        total += abs(np.vdot(vec, out)) ** 2
    return float(total)


def state_form_bound(basis: np.ndarray, ch: qch.KrausChannel) -> float:
    """Definitional state form p - p * ||rho'_RE - rho_R (x) rho'_E||_1 of one M x K code.

    The maximally entangled purification sum_r |r>_R (x) B|r> / sqrt(K) of
    pi_C goes through the Stinespring isometry sum_j |j>_E (x) A_j into
    R (x) E (x) Q'; p is the image's squared norm.  rho'_RE is the normalized
    image with the output traced out, rho'_E its partial trace over R, and
    the trace norm is the sum of the difference's singular values.
    """
    k, n, out = basis.shape[1], len(ch), ch.output_dim
    reference = np.eye(k)
    psi = sum(tensor(reference[:, [r]], basis[:, [r]]) for r in range(k)) / math.sqrt(k)
    stinespring = sum(tensor(np.eye(n)[:, [j]], a) for j, a in enumerate(ch.kraus_ops))
    image = tensor(reference, stinespring) @ psi
    p = float(np.real(np.vdot(image, image)))
    rho_re = partial_trace(image @ image.conj().T / p, k * n, out, keep="A")
    rho_e = partial_trace(rho_re, k, n, keep="B")
    diff = rho_re - tensor(max_mixed(k), rho_e)
    return p - p * float(np.sum(np.linalg.svd(diff, compute_uv=False)))


def transpose_recovery(basis: np.ndarray, ch: qch.KrausChannel) -> qch.KrausChannel:
    """Transpose-channel recovery R_k = pi_C^{1/2} A_k^dagger N(pi_C)^{-1/2}.

    Trace-decreasing in general (it acts on the output support only), which
    still witnesses a lower bound: completing it to trace-preserving can
    only add Kraus terms and raise the entanglement fidelity.
    """
    pi_c = normalized_projector(basis)
    sigma = apply(ch, pi_c)
    w, u = checked_eigh(sigma)
    w = np.maximum(w, 0.0)
    inv = np.where(w > 1e-12 * max(float(w[-1]), 1e-300), 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)
    sigma_inv_sqrt = (u * inv) @ u.conj().T
    root_pi = basis @ basis.conj().T / math.sqrt(basis.shape[1])
    ops = tuple(root_pi @ a.conj().T @ sigma_inv_sqrt for a in ch.kraus_ops)
    return qch.KrausChannel(input_dim=ch.output_dim, output_dim=ch.input_dim,
                            kraus_ops=ops, name="transpose_recovery")
