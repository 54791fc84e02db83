"""Dense complex linear algebra and probability primitives.

Everything in this module operates on plain ``numpy`` arrays (``complex128``,
row-major) and is a pure function of its inputs, but for `haar_isometries`,
which fills the stack it is given.  Randomness always enters through explicit
``numpy.random.Generator`` streams; no function touches global RNG state.
Every Gaussian draw in the package is made here, by `haar_isometries`, so
the layout of a matrix's normals is known in this one place.  Logarithms
are base 2 throughout, so entropies are in qubits/bits.
Every LAPACK call in the package is made here, under `one_blas_thread`, so
its bits do not depend on the BLAS thread count: the eigensolvers `eigvalsh`
and `eigh`, and the QR of `haar_isometries`, the one Haar sampler.  Three
kinds of product run on one thread too, as OpenBLAS rounds them
differently on two at some shapes: every Hermitian product of a Kraus
stack, which one kernel forms (`channels._lower_blocks`: Delta, the Gram
matrix, N(pi) and the weight groups' factors), the recombination into the
minimal Kraus family (`channels.minimal_kraus`), and the reduced reports'
type-block products.  A Hermitian matrix is held as its lower triangle,
the half that eigh and eigvalsh read, so it is Hermitian by construction
and nothing here checks that; a spectrum of a positive semidefinite one is
only clamped (`_clamped_spectrum`).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os

import numpy as np

from .errors import CapExceededError, InvariantViolationError

# The one memory cap: 2^26 complex entries (1 GiB).  Every dense step a
# command can reach predicts its peak, all the arrays it holds at once, and
# calls `check_entries` with it before allocating; a float64 or int64
# element counts as one entry.
ENTRY_CAP = 1 << 26

# OpenBLAS rounds a row or column differently when it falls in a partial
# register tile at a product's edge.  Panels padded to a multiple of this
# width, and blocks that start at one, put every row and column in the tiles
# it meets in the whole product, so its bits do not depend on the split.
_TILE = 16
# `_blocks` splits a dimension into at most this many
_MAX_BLOCKS = 4

PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10


def as_power_of_two(x: int) -> str:
    """x written as 2^log2(x), readable however many digits x has."""
    return f"2^{math.log2(x):.6g}"


def _power_of_two(exponent: float) -> float:
    """2.0**exponent, or inf where the power overflows the float range."""
    try:
        return 2.0**exponent
    except OverflowError:
        return math.inf


def check_entries(entries: int, what: str) -> None:
    """CapExceededError naming ``what`` when its peak needs more than ENTRY_CAP entries."""
    if entries > ENTRY_CAP:
        raise CapExceededError(f"{what} needs {as_power_of_two(entries)} entries, "
                               f"above cap {as_power_of_two(ENTRY_CAP)}")


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None without them."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = os.listdir(libs) if os.path.isdir(libs) else []
    for name in sorted(n for n in names if n.startswith("libscipy_openblas64_")):
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its thread count.

    LAPACK rounds differently when OpenBLAS splits its work over threads, so
    an eigensolve or QR under this pin has its one-thread bits whatever
    OPENBLAS_NUM_THREADS says.  The library is looked up once; a count that is
    already 1 is left alone.  Without numpy's bundled OpenBLAS (no
    ``scipy_openblas_*_num_threads64_`` symbols) the block runs unpinned.
    """
    threads = _openblas_threads()
    count = threads[0]() if threads else 1
    if count == 1:
        yield
        return
    threads[1](1)
    try:
        yield
    finally:
        threads[1](count)


def _blocks(n: int) -> list[slice]:
    """At most `_MAX_BLOCKS` slices that cover range(n), each starting at a multiple of `_TILE`.

    A product formed block by block of its output rows or columns has the
    whole product's bits.  Only a whole dimension of 1 makes a one-wide block:
    numpy sends a one-wide product to gemv, which sums in another order than gemm.
    """
    width = max(1, -(-n // (_MAX_BLOCKS * _TILE))) * _TILE
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def _widest_block(n: int) -> int:
    """The width of the widest of `_blocks(n)`, which the peak predictions count."""
    return max((s.stop - s.start for s in _blocks(n)), default=0)


def _clamped_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out spurious negative eigenvalues in [-PSD_ATOL, 0); reject worse."""
    if w.size and w[0] < -PSD_ATOL:
        raise InvariantViolationError(
            f"operator is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    return np.maximum(w, 0.0)


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


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """numpy's eigvalsh of a Hermitian matrix, or of each in a stack, on one BLAS thread.

    It reads the lower triangle; the eigenvalues ascend.
    """
    with one_blas_thread():
        return np.linalg.eigvalsh(h)


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's eigh of a Hermitian matrix on one BLAS thread.

    It reads the lower triangle; it returns the ascending eigenvalues and the eigenvectors.
    """
    with one_blas_thread():
        return np.linalg.eigh(h)


def _haar_entries(dim: int, cols: int) -> int:
    """Peak entries per matrix of `haar_isometries`, the stack it draws into included."""
    # the stack, QR's copy, Q and R (3.0-3.1 dim*cols + cols^2), and the boolean
    # mask, a byte per entry of R, with which np.triu forms R
    return 3 * dim * cols + cols * cols + -(-cols * cols // 16)


def haar_isometries(stack: np.ndarray, streams) -> np.ndarray:
    """The complex128 (S, dim, cols) ``stack`` filled with Haar isometries: the one Haar sampler.

    It is the package's only Haar entry, and each caller owns the stack it
    passes: `random_coding._sample_values` a chunk of codes or unitaries,
    `channels.random_unitary_channel` one slot of its Kraus stack at a time,
    and `channels.haar_random_channel` its whole Kraus stack as one matrix.
    Matrix i's ``standard_normal`` normals a, b, real part then imaginary
    part, are drawn from the i-th generator of ``streams`` (one each, so a
    caller may pass one generator rekeyed per matrix) into the float view of
    slot i.  They make the Ginibre matrix (a + 1j b) / sqrt(2): they are
    scaled in place by 1/sqrt(2), the bits of that quotient (numpy divides by
    a complex scalar by multiplying by its reciprocal), and the matrix
    overwrites them.  One reduced QR follows, and the R-diagonal phases are
    divided out, as raw QR output is not Haar distributed (Mezzadri 2007);
    the isometries overwrite the stack, which is returned.  LAPACK runs on
    each matrix in turn, so each isometry's bits do not depend on S.
    """
    normals = stack.view(np.float64).reshape(len(stack), 2, *stack.shape[1:])
    for row, rng in zip(normals, streams):
        rng.standard_normal(out=row)
    normals *= 1 / math.sqrt(2)
    stack.real, stack.imag = normals.copy().swapaxes(0, 1)
    with one_blas_thread():
        q, r = np.linalg.qr(stack)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    np.multiply(q, (d / np.abs(d))[:, None, :], out=stack)
    return stack
