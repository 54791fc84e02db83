"""Haar-random code ensembles: Monte Carlo and exact averages.

Codes are drawn unitarily invariantly (a fixed subspace rotated by a Haar
unitary); the workhorse results are the closed-form ensemble average of the
squared deviation norm,

  < ||D||_F^2 >_K = (1 - K^-2) / (M^2 - 1)
                    * sum_ij ( tr(W_ij^dagger W_ij) - |tr W_ij|^2 / M ),

its upper bound ||N(pi)||_F^2, and the averaged fidelity bound

  < Fe >_K >= tr N(pi) - sqrt(K |N|) ||N(pi)||_F .

Reproducibility contract: every Monte Carlo sample draws from its own
counter-based Philox stream keyed by (master_seed, sample_index), one
generator rekeyed per sample, and aggregation uses exact (fsum) summation,
so results depend only on the seed and the sample count.  Sampling is one
serial pass over chunks of samples: a chunk takes one call of the Haar
sampler, `linalg.haar_isometries`, which draws each sample's normals from
its own stream into the chunk's stack (then Ginibre packing and batched
QR), and, for codes, one D-kernel call, for both ensemble estimates or for
every per-code bound column (`bound_values`); no bits depend on the chunk
size.  A chunk is the largest stack, at most the sample count, whose peak,
as the modules that allocate it predict (`linalg._haar_entries` for the
sampler, `codes._stack_entries` for the D kernel), fits `_CHUNK_ENTRIES`, a
2 MiB budget: 22 codes of `builtin:random_unitary:256,2` or 296 qubit codes
at K = 2, and 3196 `moments` unitaries on `builtin:identity:3`.
No function here takes a worker count; the CLI's ``--threads`` has no effect.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import codes, linalg
from .channels import (ChannelInfoReport, KrausChannel, _gram_spectrum, _lower_norm_sq, _nonzero,
                       _uniform_output, gram_matrix)
from .errors import InvariantViolationError
from .linalg import _power_of_two

# The budget of a chunk of the sampling loop: 2^17 complex entries (2 MiB) of
# predicted peak (`_sample_values`).  Twice that ran qubit ensembles and `moments`
# no faster, and held an 8-qubit ensemble's peak about 1 MiB higher.
_CHUNK_ENTRIES = 1 << 17


def _stream_key(master_seed: int, index: int) -> np.ndarray:
    return np.array([master_seed % (1 << 64), index % (1 << 64)], dtype=np.uint64)


def sample_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-sample RNG stream from a counter-based (seed, index) key."""
    return np.random.Generator(np.random.Philox(key=_stream_key(master_seed, index)))


def _rekeyed_streams(master_seed: int, indices):
    """sample_stream(master_seed, i) for each i in turn, bit for bit, from one rekeyed Philox.

    Each step resets the one generator to the fresh state of key (master_seed, i):
    zero counter, empty buffer.  The same Generator is yielded every time, so a
    caller must finish drawing from one stream before asking for the next.
    """
    rng = sample_stream(master_seed, 0)
    fresh = rng.bit_generator.state
    for i in indices:
        fresh["state"]["key"] = _stream_key(master_seed, i)
        rng.bit_generator.state = fresh
        yield rng


class EnsembleEstimate(NamedTuple):
    """Sample mean and its standard error."""

    mean: float
    std_error: float
    sample_count: int
    master_seed: int


def _sample_values(shape: tuple[int, int], sample_count: int, master_seed: int, reduce,
                   entries, what: str) -> np.ndarray:
    """reduce's results on Haar isometries of streams (master_seed, 0..sample_count-1), in order.

    Each chunk allocates a complex stack of ``shape`` (dim, cols) matrices and
    hands it, with the one rekeyed generator of `_rekeyed_streams`, to
    `linalg.haar_isometries`, which takes one stream per matrix, so sample i
    draws from stream i whatever the chunk; reduce turns the chunk's
    isometries into its results at once.  A chunk is the largest stack, at
    most sample_count, whose sampler (`linalg._haar_entries` per sample) and
    reduce's peak, entries(stack), fit `_CHUNK_ENTRIES` (one sample when none
    fits).  Every entries function is affine in the stack, so the chunk is
    solved for in closed form from entries(0) and entries(1).  A chunk
    batches only work that treats every sample alike, so the results do not
    depend on its size.  Before any draw, one sample's sampler peak and
    entries(1), reduce's peak named ``what``, are checked against
    `linalg.ENTRY_CAP`.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    fixed, per_sample = entries(0), linalg._haar_entries(*shape) + entries(1) - entries(0)
    linalg.check_entries(fixed + per_sample,
                         f"one {shape[0]} x {shape[1]} Haar sample and its {what}")
    chunk = max(1, min(sample_count, (_CHUNK_ENTRIES - fixed) // per_sample))
    streams = _rekeyed_streams(master_seed, range(sample_count))
    return np.concatenate([
        reduce(linalg.haar_isometries(
            np.empty((min(chunk, sample_count - start), *shape), dtype=np.complex128), streams))
        for start in range(0, sample_count, chunk)])


def _estimate(values: np.ndarray, master_seed: int) -> EnsembleEstimate:
    """Exact-sum mean and standard error of real samples."""
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values.tolist()) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return EnsembleEstimate(mean=mean, std_error=se, sample_count=n, master_seed=master_seed)


# ------------------------------------------------------------------ exact averages

class ClosedForms(NamedTuple):
    """Haar-code ensemble closed forms of one channel at one code dimension.

    deviation_sq    exact average of ||D||_F^2; representation independent
    upper_bound     ||N(pi)||_F^2, a simple majorant of deviation_sq
    fidelity_bound  tr N(pi) - sqrt(K |N|) ||N(pi)||_F with |N| the minimal
                    Kraus length (redundant operators would only weaken it);
                    may be negative (vacuous)
    """

    deviation_sq: float
    upper_bound: float
    fidelity_bound: float


def closed_forms(ch: KrausChannel, code_dim: int) -> ClosedForms:
    """All ensemble closed forms from the lower triangles of N(pi) and of the Gram matrix.

    N(pi) = V V^dagger / M with V = [A_1 ... A_N], so
    sum_ij ||A_i^dagger A_j||_F^2 = ||sum_k A_k A_k^dagger||_F^2 = M^2 ||N(pi)||_F^2
    replaces the N^2 Gram products of the exact average.  The Gram matrix
    G_ij = tr(A_i^dagger A_j) gives both ||G||_F^2 and |N|, the count of the
    `_nonzero` values of its `_gram_spectrum` (as `classify` counts the length).
    N(pi) is read and released before the Gram matrix is formed, so neither
    step's peak holds the other's.
    """
    m = ch.input_dim
    if m < 2:
        raise InvariantViolationError("closed form needs input dimension >= 2")
    if not 1 <= code_dim <= m:
        raise ValueError("need 1 <= code_dim <= input_dim")
    image = _uniform_output(ch.kraus_ops)
    fro_sq = _lower_norm_sq(image)
    transmission = float(np.real(np.trace(image)))
    del image
    gram = gram_matrix(ch)
    sum_tr = _lower_norm_sq(gram)
    deviation_sq = (1.0 - code_dim**-2) / (m**2 - 1) * (m**2 * fro_sq - sum_tr / m)
    length = int(np.count_nonzero(_nonzero(_gram_spectrum(gram)[0])))
    penalty = math.sqrt(code_dim * length * fro_sq)
    return ClosedForms(deviation_sq=deviation_sq, upper_bound=fro_sq,
                       fidelity_bound=transmission - penalty)


# ------------------------------------------------------------------ Monte Carlo

def _code_values(ch: KrausChannel, code_dim: int, sample_count: int, master_seed: int,
                 columns) -> np.ndarray:
    """columns(bases, ch) of the Haar codes of streams (master_seed, 0..sample_count-1), in order.

    Each stream draws one code; per chunk, one orthonormality check and one
    call of ``columns``, whose peak is the D kernel's (`codes._stack_entries`).
    """
    return _sample_values((ch.input_dim, code_dim), sample_count, master_seed,
                          lambda bases: columns(codes._orthonormal(bases), ch),
                          lambda stack: codes._stack_entries(stack, code_dim, ch),
                          f"D kernel (K={code_dim}, N={len(ch)})")


def mc_code_values(ch: KrausChannel, code_dim: int, sample_count: int,
                   master_seed: int) -> tuple[EnsembleEstimate, EnsembleEstimate]:
    """Monte Carlo estimates of < ||D||_F^2 >_K and of the mean per-code bound p - ||D||_1.

    One pass over the Haar codes: per chunk, the D kernel
    (`codes._deviation_batch`) and the trace norms of every code at once.
    """
    if not 1 <= code_dim <= ch.input_dim:
        raise ValueError("need 1 <= code_dim <= input_dim")
    # two values kept per chunk, the joined values, one column's list (measured 3.0)
    linalg.check_entries(4 * sample_count, f"keeping the results of {sample_count} samples")

    def values(bases, ch):
        # the kernel's Gram, which only the state form reads, is released here
        p, fro_sq, d = codes._deviation_batch(bases, ch)[:3]
        return np.stack([fro_sq, p - codes._trace_norms(d)], axis=1)

    both = _code_values(ch, code_dim, sample_count, master_seed, values)
    return _estimate(both[:, 0], master_seed), _estimate(both[:, 1], master_seed)


def bound_values(ch: KrausChannel, code_dim: int, sample_count: int,
                 master_seed: int) -> np.ndarray:
    """The (sample_count, 5) `codes.BOUND_COLUMNS` of the Haar codes, one row per sample.

    The codes and chunks of `mc_code_values`, and per chunk the same Kraus
    form, with the state form beside it reading the same kernel's p and Gram
    (`codes.bound_columns`).  The caller
    checks that 1 <= code_dim <= M, before it predicts the reports it keeps.
    """
    return _code_values(ch, code_dim, sample_count, master_seed, codes.bound_columns)


# ------------------------------------------------------------------ Haar moments

class MomentCheck(NamedTuple):
    name: str
    estimate: float
    std_error: float
    target: float
    passed: bool


class HaarMomentReport(NamedTuple):
    dim: int
    sample_count: int
    master_seed: int
    checks: tuple[MomentCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def haar_moment_suite(dim: int, sample_count: int, master_seed: int) -> HaarMomentReport:
    """Three matrix-element moments of the Haar sampler, checked at 4 sigma.

    Targets: E|U_11|^2 = 1/M, E|U_11|^4 = 2/(M^2+M), E|U_11|^2 |U_12|^2 =
    1/(M^2+M).  The suite samples the codes' sampler (per-stream Ginibre draws,
    batched QR), not a faster row-vector shortcut, since that is under test.
    """
    if dim < 2:
        raise InvariantViolationError("moment suite needs dim >= 2")
    # three values kept per sample, then one column's list in `_estimate` (measured 3.5)
    linalg.check_entries(5 * sample_count, f"keeping the results of {sample_count} samples")

    def moments(unitaries):
        # Python's abs(u) ** 2 bit for bit: hypot as its abs, pow as its ** (np.abs, ** 2 and
        # h * h round some last bits differently)
        first = unitaries[:, 0, :2]
        a2, b2 = np.float_power(np.hypot(first.real, first.imag), 2.0).T
        return np.stack([a2, a2 * a2, a2 * b2], axis=1)

    # per sample, moments' arrays (measured 3.5)
    raw = _sample_values((dim, dim), sample_count, master_seed, moments,
                         lambda stack: 4 * stack, "moments")
    targets = {
        "abs_u11_sq": 1.0 / dim,
        "abs_u11_fourth": 2.0 / (dim**2 + dim),
        "abs_u11_sq_abs_u12_sq": 1.0 / (dim**2 + dim),
    }
    checks = []
    for col, (name, target) in enumerate(targets.items()):
        est = _estimate(raw[:, col], master_seed)
        passed = abs(est.mean - target) <= 4.0 * est.std_error
        checks.append(MomentCheck(name=name, estimate=est.mean, std_error=est.std_error,
                                  target=target, passed=passed))
    return HaarMomentReport(dim=dim, sample_count=sample_count,
                            master_seed=master_seed, checks=tuple(checks))


# ------------------------------------------------------------------ unital rate curve

class HammingPoint(NamedTuple):
    n: int
    bound: float


class HammingCurve(NamedTuple):
    """Analytic block-length curve 1 - (2^R |N| / |Q'|)^(n/2) for unital channels."""

    rate: float
    kraus_length: int
    output_dim: int
    capacity_bound: float
    converges: bool
    rows: tuple[HammingPoint, ...]


def hamming_rate_curve(info: ChannelInfoReport, output_dim: int, rate: float, ns) -> HammingCurve:
    """Random-coding fidelity curve over block lengths for a unital channel.

    Reads the channel's `classify` report (unitality and minimal length) and
    its output dimension.  The bound tends to 1 exactly when the rate is below
    log2(output_dim) - log2(minimal length), the random-coding capacity
    bound that attains the quantum Hamming packing scaling.
    """
    if not info.is_unital:
        raise InvariantViolationError("rate curve is defined for unital channels")
    length = info.length
    capacity_bound = math.log2(output_dim) - math.log2(length)
    # (2^R |N| / |Q'|)^(n/2) in the log domain, so that a large n does not overflow
    rows = tuple(HammingPoint(n=int(n), bound=1.0 - _power_of_two((rate - capacity_bound) * n / 2))
                 for n in ns)
    return HammingCurve(rate=rate, kraus_length=length, output_dim=output_dim,
                        capacity_bound=capacity_bound, converges=rate < capacity_bound,
                        rows=rows)
