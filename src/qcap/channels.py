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
check, the Gram spectrum and minimal Kraus family, the uniform-input
report, N(pi) with S_e read from the Kraus weights, and the builtin
families, each of which refuses sizes below 1 and its build peak above the
entry cap (`_check_build`) before it allocates.

Each Hermitian product of a Kraus stack is formed once, as its lower
triangle, the half that eigh and eigvalsh read, by one kernel
(`_lower_blocks`), which decides in one place how the product is blocked
and pins it to one BLAS thread: of x^dagger x (`_lower_product`) it forms
the completeness defect and the Gram matrix, and of V V^dagger / M
(`_uniform_output`) N(pi) and the weight groups' factors.  N(pi)'s
spectrum is decided once, by one eigvalsh (`_output_spectrum`), and the
Gram spectrum once, by `_kraus_weights`, behind one entry check, for every
command that reads it: `info`, `ensemble` (the closed forms' |N| and
sum_ij |tr A_i^dagger A_j|^2), `typicality` and `rate-demo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    channel's one representation, a read-only (N, output_dim, input_dim)
    complex128 stack that no caller shares: a C-contiguous complex128 array
    of that shape is checked where it lies and copied once, after Delta is
    released, and any other array or sequence of operators is stacked once
    into it.  Every channel is checked once, here: the lower triangle of the
    defect Delta = sum A^dagger A - 1 (`_lower_product`) is formed once, and
    a Frobenius norm ||Delta||_F below 1e-10 (less a rounding margin)
    certifies without an eigensolve that every |eigenvalue| is within 1e-10;
    a larger norm (every trace-decreasing family, and defects near the
    tolerance) falls back to `eigvalsh`.  A family with an eigenvalue above
    1e-10 is rejected, and ``trace_preserving`` records whether all of them
    lie within 1e-10.  The operators' shape, then the whole construction
    (`_construction_entries`), are checked first.
    """

    input_dim: int
    output_dim: int
    kraus_ops: np.ndarray
    name: str = ""
    trace_preserving: bool = field(init=False, repr=False)

    def __post_init__(self):
        ops, shape = self.kraus_ops, (self.output_dim, self.input_dim)
        n = len(ops)
        if not n:
            raise InvariantViolationError("channel needs at least one Kraus operator")
        # read before anything is stacked, so an operator past its declared shape allocates nothing
        shapes = (ops.shape[1:],) if isinstance(ops, np.ndarray) else map(np.shape, ops)
        wrong = next((s for s in shapes if s != shape), None)
        if wrong is not None:
            raise InvariantViolationError(f"Kraus operator shape {wrong} != {shape}")
        mp, m = shape
        linalg.check_entries(_construction_entries(n, mp, m),
                             f"building a {m} -> {mp} channel of {n} Kraus operators")
        stack = np.ascontiguousarray(ops, dtype=np.complex128)
        if not all(np.isfinite(stack[block]).all() for block in linalg._blocks(n)):
            raise InvariantViolationError("Kraus operator has non-finite entries")
        with np.errstate(over="ignore", invalid="ignore"):     # an overflow is refused below
            delta = _lower_product(stack.reshape(-1, m))
            delta[np.diag_indices(m)] -= 1.0
            fro_sq = _lower_norm_sq(delta)
        lo = hi = 0.0
        if not math.isfinite(fro_sq):       # sum A^dagger A, or its norm, overflowed
            hi = math.inf
        elif math.sqrt(fro_sq) > _CERTIFICATE_SLACK * COMPLETENESS_ATOL:
            w = linalg.eigvalsh(delta)
            lo, hi = float(w[0]), float(w[-1])
        del delta                           # released before a passed stack is copied
        if hi > COMPLETENESS_ATOL:
            raise InvariantViolationError(f"Kraus family is not trace-nonincreasing: defect {hi:.3e}")
        if stack is ops or stack.base is not None:     # the caller's array, or a view of it
            stack = stack.copy()
        stack.setflags(write=False)
        object.__setattr__(self, "kraus_ops", stack)
        # two-sided: with hi within the tolerance, every |eigenvalue| is iff lo is
        object.__setattr__(self, "trace_preserving", -lo <= COMPLETENESS_ATOL)

    def __len__(self) -> int:
        return len(self.kraus_ops)


def _construction_entries(n: int, mp: int, m: int) -> int:
    """Peak entries of building a channel from a sequence of n M' x M operators.

    The caller's operators, their stack and Delta, and a block: the
    conjugated columns of one product of Delta with numpy's ufunc buffer, as
    the columns are strided, or the mask that zeroes the upper triangle of
    its diagonal block.  Before Delta, the finiteness check holds the boolean
    mask of one `linalg._blocks` block of operators, a byte per element: at
    most a quarter of the column block's entries, so that block's count
    covers it.  A stack passed in is checked where it lies: it is held beside
    Delta and a block, then beside its copy, never all three, so this count
    bounds it too.
    """
    return 2 * n * mp * m + m * m + linalg._widest_block(m) * (n * mp + m) + np.getbufsize()


def _lower_blocks(left, right, dim: int) -> np.ndarray:
    """The lower triangle of a dim x dim Hermitian product, zero above: the one kernel of them all.

    Block (r, c), c <= r, of the `linalg._blocks` of dim is one product
    left(r) @ right(c), so no pass holds whole an operand that the block
    functions gather or conjugate; left(r) is held across its row of blocks
    and released before the next row's is formed.  The upper corner of each
    diagonal block is zeroed; the triangle has the bits of one product.
    Every product runs under one `linalg.one_blas_thread`, as OpenBLAS
    rounds some shapes differently on two threads.  eigh and eigvalsh read
    only the lower triangle, and `_lower_norm_sq` takes the Hermitian
    matrix's norm from it.
    """
    lower = np.zeros((dim, dim), dtype=np.complex128)
    blocks = linalg._blocks(dim)
    with linalg.one_blas_thread():
        for j, r in enumerate(blocks):
            row = left(r)
            for c in blocks[:j + 1]:
                np.matmul(row, right(c), out=lower[r, c])
            del row
            corner = lower[r, r]
            corner[~np.tri(len(corner), dtype=bool)] = 0.0
    return lower


def _lower_product(x: np.ndarray) -> np.ndarray:
    """The lower triangle of x^dagger x for a 2-d x, zero above (`_lower_blocks`).

    A row block is a conjugated column block of x, a column block a view of
    x's columns.  Of the (N M', M) stacked operators it is sum A^dagger A; of
    the (M'M, N) flattened operators, the Gram matrix.
    """
    return _lower_blocks(lambda r: x[:, r].conj().T, lambda c: x[:, c], x.shape[-1])


def _lower_norm_sq(lower: np.ndarray) -> float:
    """||H||_F^2 of the Hermitian H whose lower triangle is ``lower``'s (`_lower_product`).

    2 ||strict lower triangle||_F^2 + ||diagonal||^2, with the bits of the
    norms of ``np.tril(lower, -1)`` and of the diagonal but without a copy of
    it: its diagonal is set aside while the norm of the rest runs.
    """
    diagonal = np.diagonal(lower).copy()
    np.fill_diagonal(lower, 0.0)
    strict = np.linalg.norm(lower)
    np.fill_diagonal(lower, diagonal)
    return float(2.0 * strict ** 2 + np.linalg.norm(diagonal) ** 2)


def gram_matrix(ch: KrausChannel) -> np.ndarray:
    """The lower triangle of the N x N Gram matrix tr(A_i^dagger A_j), zero above.

    `_lower_product` of the (M'M, N) flattened operators.
    """
    n = len(ch)
    # the result, a conjugated block of operators, and an eigensolver's copy of the result
    linalg.check_entries(2 * n * n + linalg._widest_block(n) * ch.output_dim * ch.input_dim,
                         f"Gram matrix of {n} Kraus operators")
    return _lower_product(ch.kraus_ops.reshape(n, -1).T)


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
    Else eigh's eigenvalues and eigenvectors, in decreasing order.  The test
    holds one real temporary: the magnitudes, whose diagonal is zeroed in place.
    """
    off = np.abs(h)
    off.reshape(-1)[::len(h) + 1] = 0.0
    if np.max(off) > COMPLETENESS_ATOL:
        w, v = linalg.eigh(h)
        return w[::-1], v[:, ::-1]
    return np.real(np.diagonal(h)), None


def _kraus_weights(ch: KrausChannel) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The minimal diagonal Kraus family's weights, and what recombines the stack into it.

    The weights are tr(A_k^dagger A_k)/M, from one Gram matrix and its
    `_gram_spectrum`: the Gram diagonal for a diagonal family, else the
    eigenvalues in decreasing order.  Beside them come the Gram eigenvectors
    (None for a diagonal family) and the mask of the kept operators: those
    whose weight is `_nonzero`, or all of them when none is (an all-zero
    family is kept whole).  It is the one place a Gram spectrum is decided:
    `classify`, `minimal_kraus` and `random_coding.closed_forms` read it.
    """
    n = len(ch)
    # the Gram matrix, its magnitudes, eigh's copy and eigenvectors
    linalg.check_entries(4 * n * n, f"Gram matrix diagonalization of {n} Kraus operators")
    spectrum, rotation = _gram_spectrum(gram_matrix(ch))
    keep = _nonzero(spectrum)
    keep |= not keep.any()
    return spectrum[keep] / ch.input_dim, rotation, keep


def minimal_kraus(ch: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """The minimal diagonal Kraus family, a read-only (N', M', M) stack, and its weights.

    The `_kraus_weights`: a diagonal family is the channel's own stack, else
    one product with the Gram eigenvectors recombines the flattened stack
    unitarily, in decreasing weight, on one BLAS thread, as OpenBLAS rounds
    it differently on two at large N; operators whose weight is not kept
    are then dropped.  The family keeps the channel's action, which
    construction checked, so it is not built as a channel again; for a
    trace-preserving channel the weights are a distribution whose Shannon
    entropy is the entropy exchange at the uniform input.
    """
    weights, rotation, keep = _kraus_weights(ch)
    stack, n = ch.kraus_ops, len(ch)
    if rotation is not None or not keep.all():
        # the rotation, the recombined stack and its kept operators
        linalg.check_entries(n * n + 2 * stack.size, f"recombining {n} Kraus operators")
        if rotation is not None:
            with linalg.one_blas_thread():
                stack = (rotation.T @ stack.reshape(n, -1)).reshape(stack.shape)
        if not keep.all():
            stack = stack[keep]
    stack.setflags(write=False)
    return stack, weights


# ------------------------------------------------------------------ information

class ChannelInfoReport(NamedTuple):
    is_trace_preserving: bool
    is_unital: bool
    is_uniform: bool
    length: int
    output_entropy: float | None
    entropy_exchange: float | None
    coherent_information: float | None


def classify(ch: KrausChannel) -> ChannelInfoReport:
    """Structural flags plus the information quantities at the uniform input.

    Read from the `_kraus_weights`, without recombining the stack, and
    N(pi)'s `_output_spectrum`, as
    `typicality`'s reduced series reads them (`_info_report`).  Length: the
    `_nonzero` weights; uniform: they agree to relative deviation 1e-9;
    unital: N(pi) is maximally mixed (trace-norm deviation <= 1e-9).  S_e is
    their Shannon entropy, I = S(N(pi)) - S_e; both are None when trace-decreasing.
    """
    return _info_report(ch, _kraus_weights(ch)[0], _output_spectrum(_uniform_output(ch.kraus_ops)))


def _uniform_output(stack: np.ndarray) -> np.ndarray:
    """The lower triangle of V V^dagger / M, V = [A_1 ... A_N] of an (N, M', M) stack, zero above.

    `_lower_blocks` of V's rows, each block gathered from views of the
    stack, with their conjugates; of a channel's stack it is N(pi).
    """
    n, mp, m = stack.shape
    # the result beside a row block of V and a conjugated one, then beside an
    # eigensolver's copy
    linalg.check_entries(2 * linalg._widest_block(mp) * n * m + 2 * mp * mp,
                         f"classifying a {m} -> {mp} channel")

    def rows(block):        # a fresh array: with N = 1 a reshape is a view of the stack
        return stack[:, block].transpose(1, 0, 2).copy().reshape(-1, n * m)

    def conjugated(block):
        v = rows(block)
        return np.conjugate(v, out=v).T

    image = _lower_blocks(rows, conjugated, mp)
    image /= m
    return image


def _output_spectrum(out: np.ndarray) -> np.ndarray:
    """N(pi)'s spectrum, ascending, from its lower triangle ``out`` (`_uniform_output`).

    The one decision of it: one `linalg.eigvalsh`, clamped by
    `linalg._clamped_spectrum`.
    """
    return linalg._clamped_spectrum(linalg.eigvalsh(out))


def _info_report(ch: KrausChannel, weights: np.ndarray, spectrum: np.ndarray) -> ChannelInfoReport:
    """The `classify` report from the `_kraus_weights` and N(pi)'s `_output_spectrum`.

    Unital is sum |lambda - 1/M'| <= 1e-9, and S(N(pi)) is the spectrum's
    Shannon entropy, whose sum check is the trace check.
    """
    nz = weights[_nonzero(weights)]
    uniform = bool(nz.size) and float((np.max(nz) - np.min(nz)) / np.max(nz)) <= UNIFORM_RTOL
    unital = float(np.sum(np.abs(spectrum - 1.0 / ch.output_dim))) <= UNITAL_ATOL
    s_out = s_e = info = None
    if ch.trace_preserving:
        s_out, s_e = linalg.shannon_entropy(spectrum), linalg.shannon_entropy(weights)
        info = s_out - s_e
    return ChannelInfoReport(is_trace_preserving=ch.trace_preserving, is_unital=unital,
                             is_uniform=uniform, length=int(nz.size), output_entropy=s_out,
                             entropy_exchange=s_e, coherent_information=info)


# ------------------------------------------------------------------ constructors

def _check_build(name: str, n: int, mp: int, m: int, draw: int = 0, **sizes: int) -> None:
    """Refuse sizes below 1, shapes no channel has, then a build peak above the cap.

    All three are decided before a constructor allocates.  n M' x M Kraus
    operators stack into an isometry only if n M' >= M.  The peak is the
    larger of the draw phase, ``draw`` entries beside a QR's workspace, and
    the construction of n M' x M operators (`_construction_entries`).
    """
    if min(sizes.values()) < 1:
        got = ", ".join(f"{key}={value}" for key, value in sizes.items())
        raise ValueError(f"{name} channel needs sizes >= 1, got {got}")
    if n * mp < m:
        raise ValueError("output_dim * kraus_count must be >= input_dim for an isometry")
    peak = max(draw + np.getbufsize(), _construction_entries(n, mp, m))
    linalg.check_entries(peak, f"building a {name} channel of {n} {mp} x {m} Kraus operators")


def identity_channel(dim: int) -> KrausChannel:
    _check_build("identity", 1, dim, dim, dim=dim)
    return KrausChannel(input_dim=dim, output_dim=dim,
                        kraus_ops=(np.eye(dim, dtype=np.complex128),), name="identity")


def phase_flip(p: float) -> KrausChannel:
    """Qubit channel applying Z with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    ops = (math.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128), math.sqrt(p) * z)
    return KrausChannel(input_dim=2, output_dim=2, kraus_ops=ops, name=f"phase_flip({p})")


def depolarizing(p: float, dim: int = 2) -> KrausChannel:
    """rho -> (1-p) rho + p tr(rho) 1/dim, via the Weyl operators X^a Z^b filled into one stack.

    X^a Z^b is a phased permutation: entry ((j + a) mod dim, j) is w_j^b, w_j =
    exp(2 pi i j / dim), the clock powers taken as repeated elementwise products.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _check_build("depolarizing", dim * dim, dim, dim, dim=dim)
    cols = np.arange(dim)
    clock = np.exp(2j * np.pi * cols / dim)
    powers = np.empty((dim, dim), dtype=np.complex128)    # row b: w^b
    powers[0] = 1.0
    for b in range(1, dim):
        np.multiply(powers[b - 1], clock, out=powers[b])
    ops = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    for a in range(dim):
        ops[a * dim:(a + 1) * dim, (cols + a) % dim, cols] = powers
    ops[0] *= math.sqrt(1.0 - p + p / dim**2)
    ops[1:] *= math.sqrt(p / dim**2)
    return KrausChannel(input_dim=dim, output_dim=dim, kraus_ops=ops, name=f"depolarizing({p})")


def random_unitary_channel(dim: int, count: int, rng: np.random.Generator) -> KrausChannel:
    """Equal-weight mixture rho -> (1/n) sum_i U_i rho U_i^dagger of n = count Haar unitaries.

    One stack is allocated before the first draw.  `linalg.haar_isometries`
    fills each one-slot view of it in turn, drawing the unitary's normals
    from ``rng`` into its own slot, so that one QR at a time is held beside
    the stack; the whole stack is then scaled by sqrt(1/count) once.
    """
    # the draw phase: one sampler call on a slot of the whole stack
    draw = count * dim * dim + linalg._haar_entries(dim, dim) - dim * dim
    _check_build("random_unitary", count, dim, dim, draw, dim=dim, count=count)
    ops = np.empty((count, dim, dim), dtype=np.complex128)
    for i in range(count):
        linalg.haar_isometries(ops[i:i + 1], [rng])
    ops *= math.sqrt(1.0 / count)
    return KrausChannel(input_dim=dim, output_dim=dim, kraus_ops=ops, name="random_unitary")


def haar_random_channel(input_dim: int, output_dim: int, kraus_count: int,
                        rng: np.random.Generator) -> KrausChannel:
    """Trace-preserving channel from a Haar-random Stinespring isometry.

    Its (N, M', M) Kraus stack is allocated once, and `linalg.haar_isometries`
    fills the stack's (1, N M', M) view with one isometry drawn from ``rng``.
    """
    _check_build("haar_random", kraus_count, output_dim, input_dim,
                 linalg._haar_entries(output_dim * kraus_count, input_dim),
                 input_dim=input_dim, output_dim=output_dim, kraus_count=kraus_count)
    ops = np.empty((kraus_count, output_dim, input_dim), dtype=np.complex128)
    linalg.haar_isometries(ops.reshape(1, -1, input_dim), [rng])
    ch = KrausChannel(input_dim=input_dim, output_dim=output_dim, kraus_ops=ops, name="haar_random")
    if not ch.trace_preserving:
        raise InvariantViolationError("map is not an isometry within tolerance")
    return ch
