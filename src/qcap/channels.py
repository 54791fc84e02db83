"""Quantum channels as Kraus families.

A channel is a completely positive map rho -> sum_k A_k rho A_k^dagger with
sum_k A_k^dagger A_k <= 1 (trace-decreasing families are first class; they
model transmission loss).  Construction decides once which kind a family is
and records it in ``trace_preserving``; the trace-preserving-only quantities
read that flag and reject trace-decreasing input instead of renormalizing.

Kraus lists are not canonical: unitary recombinations represent the same
map, so a channel compares (``==``, ``hash``, ``in``) by identity only.
Equality of maps is decided extensionally, by action on a fixed battery of
pseudo-random states, in the test suite's ``oracles.channels_equal``; the
dense reference paths (the channel's action, tensor powers, sub-channels,
the entropy exchange at any input) live beside it in ``tests/oracles.py``.
This module holds what the commands run: construction and its completeness
check, the Gram spectrum and minimal Kraus family, and the uniform-input
report, N(pi) with S_e read from the Kraus weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvariantViolationError

COMPLETENESS_ATOL = 1e-10
UNITAL_ATOL = 1e-9
UNIFORM_RTOL = 1e-9
GRAM_RANK_RTOL = 1e-10

# The certificate accepts a hair below the tolerance, so that rounding in the norm
# and in eigvalsh cannot let it accept a family whose eigvalsh spectrum lies past it.
_CERTIFICATE_SLACK = 1.0 - 1e-6


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A (possibly trace-decreasing) CP map given by its Kraus operators.

    Each operator has shape (output_dim, input_dim).  ``kraus_ops`` is the
    channel's one representation: the operators copied once into a read-only
    (N, output_dim, input_dim) complex128 stack, so later changes to the
    caller's arrays do not reach the channel.  Every channel is checked
    once, here: the defect Delta = sum A^dagger A - 1 is formed once, and a
    Frobenius norm ||Delta||_F below 1e-10 (less a rounding margin) certifies
    without an eigensolve that every |eigenvalue| is within 1e-10; a larger
    norm (every trace-decreasing family, and defects near the tolerance) falls
    back to `eigvalsh`.  A family with an eigenvalue above 1e-10 is rejected,
    and ``trace_preserving`` records whether all of them lie within 1e-10.
    """

    input_dim: int
    output_dim: int
    kraus_ops: np.ndarray
    name: str = ""
    trace_preserving: bool = field(init=False, repr=False)

    def __post_init__(self):
        ops = tuple(self.kraus_ops)
        if not ops:
            raise InvariantViolationError("channel needs at least one Kraus operator")
        for a in ops:
            if np.shape(a) != (self.output_dim, self.input_dim):
                raise InvariantViolationError(
                    f"Kraus operator shape {np.shape(a)} != ({self.output_dim}, {self.input_dim})"
                )
        stack = np.array(ops, dtype=np.complex128)
        if not all(np.all(np.isfinite(a)) for a in stack):     # no stack-sized temporary
            raise InvariantViolationError("Kraus operator has non-finite entries")
        stack.setflags(write=False)
        object.__setattr__(self, "kraus_ops", stack)
        with np.errstate(over="ignore", invalid="ignore"):     # an overflow is refused below
            delta = _completeness_defect(stack)
            # the norm of the Hermitian matrix that eigvalsh reads, Delta's lower triangle,
            # since rounding can leave Delta itself slightly non-Hermitian
            fro_sq = (2.0 * np.linalg.norm(np.tril(delta, -1)) ** 2
                      + np.linalg.norm(np.diagonal(delta)) ** 2)
        lo = hi = 0.0
        if not math.isfinite(fro_sq):       # sum A^dagger A, or its norm, overflowed
            hi = math.inf
        elif math.sqrt(fro_sq) > _CERTIFICATE_SLACK * COMPLETENESS_ATOL:
            with linalg.one_blas_thread():
                w = np.linalg.eigvalsh(delta)
            lo, hi = float(w[0]), float(w[-1])
        if hi > COMPLETENESS_ATOL:
            raise InvariantViolationError(f"Kraus family is not trace-nonincreasing: defect {hi:.3e}")
        # two-sided: with hi within the tolerance, every |eigenvalue| is iff lo is
        object.__setattr__(self, "trace_preserving", -lo <= COMPLETENESS_ATOL)

    def __len__(self) -> int:
        return len(self.kraus_ops)


def _completeness_defect(stack: np.ndarray) -> np.ndarray:
    """Delta = sum A^dagger A - 1 of an (N, M', M) Kraus stack, the identity subtracted in place."""
    m = stack.shape[-1]
    flat = stack.reshape(-1, m)
    delta = flat.conj().T @ flat
    delta[np.diag_indices(m)] -= 1.0
    return delta


def gram_matrix(ch: KrausChannel) -> np.ndarray:
    """Hermitian N x N matrix of overlaps tr(A_i^dagger A_j)."""
    # the stack and its conjugate, the result and an eigensolver's copy (measured 1.0 N^2 alone)
    linalg.check_entries(2 * len(ch) * (ch.output_dim * ch.input_dim + len(ch)),
                         f"Gram matrix of {len(ch)} Kraus operators")
    return np.einsum("iab,jab->ij", ch.kraus_ops.conj(), ch.kraus_ops)


def _nonzero(spectrum: np.ndarray) -> np.ndarray:
    """Mask of the Gram eigenvalues or weights above 1e-10 times the largest.

    The cutoff is scale-free; nothing counts when the largest is not positive.
    """
    top = float(np.max(spectrum))
    return spectrum > GRAM_RANK_RTOL * top if top > 0.0 else np.zeros(spectrum.shape, dtype=bool)


def _gram_spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The one decision of a Gram spectrum, and the unitary that reaches it, if any.

    A Gram matrix whose off-diagonal is within 1e-10 is taken as diagonal:
    its diagonal is the spectrum, and no recombination (None) is needed.
    Else eigh's eigenvalues and eigenvectors, in decreasing order.
    """
    if len(h) > 1 and np.max(np.abs(h - np.diag(np.diagonal(h)))) > COMPLETENESS_ATOL:
        with linalg.one_blas_thread():
            w, v = np.linalg.eigh(h)
        return w[::-1], v[:, ::-1]
    return np.real(np.diagonal(h)), None


def minimal_kraus(ch: KrausChannel) -> tuple[KrausChannel, np.ndarray]:
    """The minimal diagonal Kraus family and its weights tr(A_k^dagger A_k)/M.

    From one Gram matrix and its `_gram_spectrum`: a diagonal family is kept,
    else one product with the Gram eigenvectors recombines the flattened
    stack unitarily, in decreasing weight, the eigenvalues the weights.
    Operators whose weight is not `_nonzero` are dropped, unless all are (an
    all-zero family comes back whole).  The channel action is kept; for a
    trace-preserving channel the weights are a distribution whose Shannon
    entropy is the entropy exchange at the uniform input.
    """
    # the Gram matrix, its diagonal and off-diagonal copies, eigh's eigenvectors;
    # the stack, its recombination and re-stacking (measured 3.0 N^2 + 3 stacks)
    linalg.check_entries(4 * len(ch) * (ch.output_dim * ch.input_dim + len(ch)),
                         f"Gram matrix diagonalization of {len(ch)} Kraus operators")
    spectrum, rotation = _gram_spectrum(gram_matrix(ch))
    if rotation is not None:
        flat = ch.kraus_ops.reshape(len(ch), -1)
        ch = KrausChannel(input_dim=ch.input_dim, output_dim=ch.output_dim, name=ch.name,
                          kraus_ops=(rotation.T @ flat).reshape(ch.kraus_ops.shape))
    keep = _nonzero(spectrum)
    if keep.all() or not keep.any():
        return ch, spectrum / ch.input_dim
    return (KrausChannel(input_dim=ch.input_dim, output_dim=ch.output_dim, name=ch.name,
                         kraus_ops=ch.kraus_ops[keep]), spectrum[keep] / ch.input_dim)


# ------------------------------------------------------------------ information

@dataclass(frozen=True)
class ChannelInfoReport:
    is_trace_preserving: bool
    is_unital: bool
    is_uniform: bool
    length: int
    output_entropy: float | None
    entropy_exchange: float | None
    coherent_information: float | None


def classify(ch: KrausChannel) -> ChannelInfoReport:
    """Structural flags plus the information quantities at the uniform input.

    Read from the `minimal_kraus` weights and N(pi), as `typicality`'s reduced
    series reads them (`_info_report`).  Length: the `_nonzero` weights;
    uniform: they agree to relative deviation 1e-9;
    unital: N(pi) is maximally mixed (trace-norm deviation <= 1e-9).  S_e is
    their Shannon entropy, I = S(N(pi)) - S_e; both are None when trace-decreasing.
    """
    return _info_report(ch, minimal_kraus(ch)[1], _uniform_output(ch))


def _uniform_output(ch: KrausChannel) -> np.ndarray:
    """The one N(pi) kernel: V V^dagger / M, with V the (M', N M) matrix [A_1 ... A_N]."""
    # V and its conjugate beside N(pi), then N(pi) beside an eigensolver's copy (measured
    # 2.0 M'^2 at N M = M', 1.1 M'^2 at N M << M', 2.0 N M M' + 1.0 M'^2 at N M >> M')
    n, m, mp = len(ch), ch.input_dim, ch.output_dim
    linalg.check_entries(2 * n * m * mp + 3 * mp * mp, f"classifying a {m} -> {mp} channel")
    v = ch.kraus_ops.transpose(1, 0, 2).reshape(mp, n * m)
    return (v @ v.conj().T) / m


def _info_report(ch: KrausChannel, weights: np.ndarray, out: np.ndarray) -> ChannelInfoReport:
    """The `classify` report from the `minimal_kraus` weights and N(pi) = ``out``.

    One eigvalsh decides N(pi)'s spectrum: unital is sum |lambda - 1/M'| <= 1e-9,
    and S(N(pi)) is its Shannon entropy, whose sum check is the trace check.
    """
    nz = weights[_nonzero(weights)]
    uniform = bool(nz.size) and float((np.max(nz) - np.min(nz)) / np.max(nz)) <= UNIFORM_RTOL
    spectrum = linalg._psd_spectrum(out)
    unital = float(np.sum(np.abs(spectrum - 1.0 / ch.output_dim))) <= UNITAL_ATOL
    s_out = s_e = info = None
    if ch.trace_preserving:
        s_out, s_e = linalg.shannon_entropy(spectrum), linalg.shannon_entropy(weights)
        info = s_out - s_e
    return ChannelInfoReport(is_trace_preserving=ch.trace_preserving, is_unital=unital,
                             is_uniform=uniform, length=int(nz.size), output_entropy=s_out,
                             entropy_exchange=s_e, coherent_information=info)


# ------------------------------------------------------------------ constructors

def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel(input_dim=dim, output_dim=dim,
                        kraus_ops=(np.eye(dim, dtype=np.complex128),), name="identity")


def phase_flip(p: float) -> KrausChannel:
    """Qubit channel applying Z with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    ops = (math.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128), math.sqrt(p) * z)
    return KrausChannel(input_dim=2, output_dim=2, kraus_ops=ops, name=f"phase_flip({p})")


def _weyl_operators(dim: int) -> list[np.ndarray]:
    shift = np.roll(np.eye(dim, dtype=np.complex128), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(dim) for b in range(dim)
    ]


def depolarizing(p: float, dim: int = 2) -> KrausChannel:
    """rho -> (1-p) rho + p * tr(rho) * 1/dim, via the Weyl operator family."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    weyl = _weyl_operators(dim)
    w_id = 1.0 - p + p / dim**2
    w_err = p / dim**2
    ops = [math.sqrt(w_id) * weyl[0]]
    ops += [math.sqrt(w_err) * w for w in weyl[1:]]
    return KrausChannel(input_dim=dim, output_dim=dim, kraus_ops=tuple(ops),
                        name=f"depolarizing({p})")


def random_unitary_channel(dim: int, count: int, rng: np.random.Generator) -> KrausChannel:
    """Equal-weight mixture rho -> (1/n) sum_i U_i rho U_i^dagger of n = count Haar unitaries."""
    ops = [math.sqrt(1.0 / count) * linalg.haar_unitary(dim, rng) for _ in range(count)]
    return KrausChannel(input_dim=dim, output_dim=dim, kraus_ops=ops, name="random_unitary")


def haar_random_channel(input_dim: int, output_dim: int, kraus_count: int,
                        rng: np.random.Generator, name: str = "haar_random") -> KrausChannel:
    """Trace-preserving channel from a Haar-random Stinespring isometry."""
    if output_dim * kraus_count < input_dim:
        raise ValueError("output_dim * kraus_count must be >= input_dim for an isometry")
    v = linalg.haar_isometry(output_dim * kraus_count, input_dim, rng)
    ch = KrausChannel(input_dim=input_dim, output_dim=output_dim, name=name,
                      kraus_ops=v.reshape(kraus_count, output_dim, input_dim))
    if not ch.trace_preserving:
        raise InvariantViolationError("map is not an isometry within tolerance")
    return ch

