"""Typical sequences, typical output types, and reduced tensor-power channels.

Counting and probability mass over length-n sequences are computed through
type classes (compositions of n over the groups of equal weight): a sequence's
probability depends only on its group counts, so reports stay polynomial in
n even when the sequence space is exponential.  Class masses are summed in
the log domain, so counts far beyond the float range do not overflow.  The
number of compositions is checked against a cap before any is enumerated,
and each reduced report's block path checks its predicted peak
(`_reduced_norms`) against `linalg.ENTRY_CAP` before allocating.

The block-channel constructions follow the two-step reduction of an n-fold
product channel, which reads two spectra: keep only the Kraus products whose
weight is typical for the per-use Kraus weight distribution (the weights of
`channels.minimal_kraus`), then project the output onto the typical subspace
of the single-use output state (the typical classes of its spectrum).  A
series of reduced-channel reports prepares the n-independent part (minimal
Kraus family and weights, output spectrum and eigenbasis, group factors) once
(`_reduced_step`), whose per-n step picks each report's path, and never
enumerates sequences nor forms an M'^n-dimensional vector or matrix.  On the
block path (`_reduced_norms`), one sorted walk decides both halves of the
reduction: the compositions kept below the typical Kraus classes and those
kept below the typical output classes, level by level (`_kept_levels`), and
one 0/1 `_pairing` marks the prefix and suffix compositions of either kind
that sum to a typical class.  One recursion (`_sequence_sum`) builds both
steps' sums over the sequences of a type class on the two halves of the
block, each half one stack of its class sums, a row per kept composition:
on the Kraus group factors, the sums over the typical Kraus sequences; on
the output groups' 0/1 indicators, the multi-indices of each kept output
type of prefix and suffix, which split the projector.  The projector is
contracted with the Kraus halves by output-type block: each block of a
stack is gathered once and met with the Kraus pairing by one product
(`_type_blocks`, `_reduced_norms`).  The halves are matrices, or
vectors when every factor is diagonal in the output eigenbasis; a diagonal
operator is the case whose off-type blocks vanish, so one contraction and
one peak prediction (in k = 1 for vectors and k = 2 for matrices) serve both.

A series also builds the channel's `classify` report, from the same weights
and N(pi) spectrum as `info` (`channels._info_report`,
`channels._output_spectrum`): the S_e, S(N(pi)) and I(pi, N) that
`typicality` and `rate-demo` read are the bits that `info` prints, and the
output groups and typical output window read that spectrum and that
S(N(pi)); eigh of N(pi) gives only the eigenbasis.

Typicality is decided in one place, `_typical_classes`, per type class; its
inequalities are inclusive (<=).  Typical Kraus classes give a report's count
and typical mass, typical output classes the typical pairs of output types.
Count-versus-bound checks compare exact integer counts against real bounds.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

from . import linalg
from .channels import (ChannelInfoReport, KrausChannel, _info_report, _nonzero, _output_spectrum,
                       _uniform_output, minimal_kraus)
from .errors import CapExceededError, InvariantViolationError
from .linalg import _power_of_two

# guard on the number of group-count compositions enumerated per block length
_COMPOSITION_CAP = 1 << 16
# weights that agree within this relative tolerance form one group
_GROUP_RTOL = 1e-12


# ------------------------------------------------------------------ type classes

def _compositions(total: int, bins: int):
    """All tuples of nonnegative ints of length `bins` summing to `total`, by divider positions."""
    for dividers in itertools.combinations(range(total + bins - 1), bins - 1):
        edges = (-1, *dividers, total + bins - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


class TypeClass(NamedTuple):
    """One group-count composition: all its sequences share one probability."""

    counts: tuple[int, ...]
    log2_probability: float
    sequence_count: int


def _class_mass(classes) -> float:
    """Total probability of the given type classes, each term in the log domain.

    count * 2^log2p is formed as 2^(log2 count + log2p): the count alone may
    exceed the float range while the class mass never exceeds 1.
    """
    return math.fsum(2.0 ** (math.log2(c.sequence_count) + c.log2_probability)
                     for c in classes)


def _weight_groups(weights) -> list[np.ndarray]:
    """The symbols of the nonzero weights, in groups of equal weight, ordered by first symbol.

    Sorted weights whose gap is within `_GROUP_RTOL` relative share a group.
    Zero weights, decided by `channels._nonzero` as for the Kraus weights (the
    rounding noise of a rank-deficient N(pi)'s spectrum among them), join none.
    """
    p = linalg.assert_distribution(weights)
    nonzero = _nonzero(p)
    order = np.flatnonzero(nonzero)[np.argsort(p[nonzero], kind="stable")]
    starts = np.flatnonzero(np.diff(p[order]) > _GROUP_RTOL * p[order][1:]) + 1
    return sorted((np.sort(group) for group in np.split(order, starts)), key=lambda g: g[0])


def _class_size(groups, counts) -> int:
    """multinomial(t) prod_g |g|^(t_g): the symbol sequences whose group counts are t."""
    multinomial = math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
    return multinomial * math.prod(g.size**t for g, t in zip(groups, counts))


def _typical_classes(weights, groups, entropy: float, n: int, eps: float) -> list[TypeClass]:
    """The typical type classes of the product distribution over its `_weight_groups`.

    Class t's sequences share the log2 probability sum_g t_g log2 w_g, w_g the
    weight of group g's first symbol, and number `_class_size(groups, t)`.
    The window is read at the caller's entropy.  The compositions,
    C(n + G - 1, G - 1) over G groups, are capped before any is enumerated.
    """
    if math.comb(n + len(groups) - 1, len(groups) - 1) > _COMPOSITION_CAP:
        raise CapExceededError(f"type classes of {len(groups)} weight groups at n={n} exceed "
                               f"cap 2^{_COMPOSITION_CAP.bit_length() - 1}")
    logp = np.log2([weights[group[0]] for group in groups])
    lo = -n * (entropy + eps)
    hi = -n * (entropy - eps)
    classes = []
    for comp in _compositions(n, len(groups)):
        log2p = float(np.dot(np.asarray(comp, dtype=float), logp))
        if lo <= log2p <= hi:
            classes.append(TypeClass(counts=comp, log2_probability=log2p,
                                     sequence_count=_class_size(groups, comp)))
    return classes


def log_probability_variance(weights) -> float:
    """Variance of -log2 P(a) under P, the scale entering decay-rate estimates."""
    p = linalg.assert_distribution(weights)
    p = p[p > 0.0]
    return float(np.sum(p * (-np.log2(p) - linalg.shannon_entropy(p)) ** 2))


# ------------------------------------------------------------------ decay fits

class DecayFit(NamedTuple):
    """Log-linear fit of deviations-from-one against the block length.

    Only points with deviation strictly inside (0, 1) enter the fit (a
    deviation of exactly 1 means the typical set was empty, 0 means it is
    everything); fitted_rate, minus the least-squares slope of log deviation
    against n, is None with fewer than 3 usable points or with one block
    length among them.
    Deviations within 1e-12 below 0 are rounding in a mass of 1 and are
    stored as 0.
    """

    epsilon: float
    block_lengths: tuple[int, ...]
    deviations: tuple[float, ...]
    fitted_rate: float | None
    sigma_sq: float


def fit_decay(ns, deviations, epsilon: float, sigma_sq: float) -> DecayFit:
    ns = tuple(int(n) for n in ns)
    deviations = tuple(0.0 if -1e-12 <= d < 0.0 else d for d in map(float, deviations))
    if any(not 0.0 <= d <= 1.0 for d in deviations):
        raise ValueError("deviations must lie in [0, 1]")
    pts = [(n, d) for n, d in zip(ns, deviations) if 0.0 < d < 1.0]
    rate = None
    if len(pts) >= 3 and len({n for n, _ in pts}) > 1:
        # the least-squares slope of log d against n, centred: no Vandermonde matrix, no SVD
        xs = [float(n) for n, _ in pts]
        ys = [math.log(d) for _, d in pts]
        x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        dx = [x - x_mean for x in xs]
        rate = -math.fsum(u * (y - y_mean) for u, y in zip(dx, ys)) / math.fsum(u * u for u in dx)
    return DecayFit(epsilon=epsilon, block_lengths=ns, deviations=deviations,
                    fitted_rate=rate, sigma_sq=sigma_sq)


# ------------------------------------------------------------------ reduced-channel reports

class ReducedChannelReport(NamedTuple):
    """Per-n summary of the reduced block channel at the uniform input.

    length               Kraus sequence count of the reduced representation
    length_bound         2^(n (S_e + eps))
    typical_transmission tr of the unprojected typical channel
    transmission         tr of the projected (reduced) channel
    frobenius_sq         squared 2-norm of the reduced output
    frobenius_bound      2^(-n (S - 3 eps))
    """

    n: int
    epsilon: float
    length: int
    length_bound: float
    typical_transmission: float
    transmission: float
    frobenius_sq: float
    frobenius_bound: float

    @property
    def counts_within_bound(self) -> bool:
        return self.length <= self.length_bound

    @property
    def norm_within_bound(self) -> bool:
        return self.frobenius_sq <= self.frobenius_bound


def _group_factors(stack: np.ndarray, basis: np.ndarray, groups) -> np.ndarray:
    """Each weight group's factor F_g = sum_(j in g) A_j A_j^dagger / M in the output eigenbasis U.

    F_g is `_uniform_output` of the group's operators rotated by U^dagger, so
    the one Hermitian-product kernel (`channels._lower_blocks`) forms every
    factor's lower triangle, as it forms N(pi)'s.  Factors
    that are `_all_diagonal` come back as their (G, M') real diagonals, else
    the (G, M', M') matrices, each upper half filled in with the conjugate
    transpose of its lower.  `_reduced_step` checks the step's peak before
    it forms N(pi).
    """
    adjoint = basis.conj().T
    factors = np.empty((len(groups), *adjoint.shape), dtype=np.complex128)
    for factor, group in zip(factors, groups):
        factor[...] = _uniform_output(adjoint @ stack[group])
    if _all_diagonal(factors):
        return np.ascontiguousarray(np.real(np.einsum("jaa->ja", factors)))
    for factor in factors:
        factor += np.tril(factor, -1).conj().T
    return factors


def _all_diagonal(factors: np.ndarray) -> bool:
    """Whether no off-diagonal entry of a (G, M', M') stack passes 1e-12 times its largest entry.

    Read by `linalg._blocks` of matrices, with one temporary per block: its
    magnitudes, whose diagonal is then zeroed in place.
    """
    tops, offs = [], []
    for ops in linalg._blocks(len(factors)):
        size = np.abs(factors[ops])
        tops.append(np.max(size))
        size.reshape(len(size), -1)[:, ::factors.shape[-1] + 1] = 0.0      # the diagonals
        offs.append(np.max(size))
    return np.max(offs) <= 1e-12 * max(np.max(tops), 1e-300)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors or two matrices, bit for bit, without its overhead on small blocks."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def _kept_levels(tops, n: int, r: int) -> list[list]:
    """The compositions of each length m = 0..r that lie below some top (<= in every count), sorted.

    The tops are compositions of n; taking one count at a time off them
    reaches exactly the compositions below them, without comparing any
    composition with every top.  Each level is downward closed: taking a
    count off one of its compositions lands in the level below.
    """
    level, kept = set(tops), []
    for m in range(n, -1, -1):
        if m <= r:
            kept.append(sorted(level))
        level = {comp[:g] + (comp[g] - 1,) + comp[g + 1:]
                 for comp in level for g in range(len(comp)) if comp[g]}
    return kept[::-1]


def _pairing(prefixes, suffixes, tops) -> np.ndarray:
    """The 0/1 matrix whose (i, j) entry is 1 when prefixes[i] + suffixes[j] is one of the tops."""
    tops = set(tops)
    return np.array([[tuple(map(int.__add__, a, b)) in tops for b in suffixes] for a in prefixes],
                    dtype=float)


def _grown_level(comps: list, stack: np.ndarray, factors: np.ndarray, level: list) -> np.ndarray:
    """S_m(c) = sum_g S_(m-1)(c - e_g) (x) F_g for each composition c of `level`, one row each.

    `comps` is the level below, whose sums `stack` holds row by row; since
    the levels are downward closed, every c - e_g with c_g > 0 is among them.
    Each sum takes its terms in group order.
    """
    index = {comp: i for i, comp in enumerate(comps)}
    shape = tuple(a * b for a, b in zip(stack.shape[1:], factors.shape[1:]))
    grown = np.zeros((len(level), *shape), dtype=factors.dtype)
    for row, comp in zip(grown, level):
        for g, factor in enumerate(factors):
            if comp[g]:
                row += _kron(stack[index[comp[:g] + (comp[g] - 1,) + comp[g + 1:]]], factor)
    return grown


def _sequence_sum(factors: np.ndarray, classes, n: int, kept):
    """Halves of the sum over the sequences s in `classes` of factors[s_1] (x) ... (x) factors[s_n].

    `factors` is a (G, M') stack of vectors or a (G, M', M') stack of matrices,
    one per weight group: the sum of its symbols' factors, so that a group
    sequence sums all its symbol sequences.  The factors may be the (G', M')
    0/1 indicators of the output groups: S_m(c) is then the indicator of the
    length-m multi-indices (first factor major) of output type c, and the
    pairing marks the prefix and suffix types that sum to a typical output
    class, the typical pairs of the projector.  S_m(c), the sum over length-m
    sequences of composition c, obeys S_m(c) = sum_g S_(m-1)(c - e_g) (x) F_g;
    only compositions below some typical class are kept (``kept``, the
    sorted levels of `_kept_levels`), and each level is one stack of its
    S_m(c), one row per kept composition in the level's order.  A sequence
    of type T splits into a prefix of length h = n // 2 and type c <= T and
    a suffix of type T - c, so the sum is sum_c S_h(c) (x) sum_{T >= c}
    S_r(T - c) with r = n - h.  The recursion starts from kept[0], the empty
    composition, and stops at level r, and the sum is not formed: the result
    is (lefts, rights, pairing), the stacked S_h(c) and S_r(d) and the 0/1
    (K_h, K_r) `_pairing` whose (c, d) entry is 1 when c + d is a typical
    class (the suffix stack is the prefix stack when h = r).
    """
    h, r = n // 2, n - n // 2
    stack = lefts = np.ones((1,) * factors.ndim, dtype=factors.dtype)
    for m in range(1, r + 1):
        stack = _grown_level(kept[m - 1], stack, factors, kept[m])
        if m == h:
            lefts = stack
    return lefts, stack, _pairing(kept[h], kept[r], [cls.counts for cls in classes])


# ------------------------------------------------------------------ contraction by output type

def _type_blocks(stack: np.ndarray, index_sets, mix=None) -> tuple[np.ndarray, np.ndarray]:
    """Traces and Grams of the type blocks of X_c = sum_d mix[c, d] stack[d] (X = stack, no mix).

    Returns the (S, C) traces of every X_c over each index set and the Grams,
    whose (c, d) entry sums X_c conj(X_d) over a block: (S, S, C, C) for
    matrices, one per (u, u') block, and (S, C, C) for diagonal operators
    given by their diagonals, whose off-type blocks vanish.  Each block of
    the stack is gathered once and met with ``mix`` by one product: before
    its Gram for matrices, after it (mix G mix^T) for diagonals, so neither
    branch holds more than one gathered block of the K stacked operators.
    """
    k, count = stack.ndim - 1, len(stack if mix is None else mix)
    traces = np.empty((len(index_sets), len(stack)))
    grams = np.empty((len(index_sets),) * k + (count, count), dtype=stack.dtype)
    flat = stack.reshape(len(stack), -1)
    for u, rows in enumerate(index_sets):
        # row-major, unlike a fancy-indexed gather, so each row is summed pairwise
        diagonals = flat.take(rows if k == 1 else rows * (stack.shape[-1] + 1), axis=1)
        traces[u] = np.real(diagonals).sum(axis=1)
        if k == 1:
            gram = diagonals @ diagonals.T
            grams[u] = gram if mix is None else mix @ gram @ mix.T
            continue
        for w, cols in enumerate(index_sets):
            block = stack[:, rows[:, None], cols].reshape(len(stack), -1)
            if mix is not None:
                block = mix @ block
            grams[u, w] = block @ block.conj().T
    return (traces if mix is None else traces @ mix.T), grams


def _reduced_norms(factors: np.ndarray, output_groups, n: int, classes,
                   output_classes) -> tuple[float, float]:
    """tr(P S P) and ||P S P||_F^2 of the reduced output at n, never forming S or P.

    S = sum_c L_c (x) R'_c from `_sequence_sum`'s halves: L_c the stacked
    lefts, R'_c = sum_d pairing[c, d] R_d of the stacked rights, all
    Hermitian matrices (k = 2), or diagonal ones given by their diagonals
    (k = 1).  A multi-index is typical exactly when its prefix's output type
    u plus its suffix's v is a typical output class, so P = sum over the
    pairs (u, v) with pairs[u, v] = 1 of E_u (x) E'_v, the diagonal
    projectors onto prefix and suffix type sets.  Then tr(PSP) = sum_c
    sum_(u,v) pairs[u, v] tr(E_u L_c) tr(E'_v R'_c), and ||PSP||_F^2 =
    tr(PSPS) = sum_(c,d) sum over prefix blocks b and suffix blocks b' of
    alpha_cd(b) (pairs^(x)k)[b, b'] beta_cd(b'), where alpha_cd(b) sums
    L_c conj(L_d), entry by entry, over block b and beta does the same over
    R' (`_type_blocks`); a block is a pair of types for matrices, one type
    for diagonals.  Each term tr(V_c V_d), V_c = P (L_c (x) R'_c) P, is
    >= 0, so the sum does not cancel.  alpha and beta are held whole; the
    pairs meet beta one suffix type at a time.  The products run on one BLAS
    thread, so their bits do not depend on the thread count.

    The type sets come first: `_sequence_sum` on the output groups' 0/1
    indicators gives the stacked indicators of the prefix and suffix types
    and their pairing, pairs; each set is the flatnonzero of its row, the
    suffix's serve as the prefix's when h = r, and the 0/1 stacks are
    released before the Kraus halves are built.

    Needs a typical Kraus class: without one, kept[0] is empty, and
    `_sequence_sum` starts from it.  The predicted peak is checked before
    any half sum is formed.  Only the Kraus compositions and output types
    below some typical class (`_kept_levels`) enter: K_m Kraus compositions
    and V_m output types of each length m, U = V_h and V = V_r at h = n // 2
    and r = n - h, the largest of B multi-indices (`_class_size`).  The G
    group factors, the pairs, U V entries, and the type sets, at most
    M'^h + M'^r indices (the types are disjoint), count beside both phases,
    and the peak takes the larger phase.  The output recursion holds the 0/1
    stacks of levels r - 1 and r and a term, V_(r-1) M'^(r-1) + (V + 1) M'^r
    entries, or, once done, the pairs as they are built, U V more.  A
    length-m Kraus half sum has D_m = M'^(k m) entries; its recursion holds
    the stacks of levels r - 1 and r and a term, K_(r-1) D_(r-1) +
    (K_r + 1) D_r entries, and the pairing and a product of it 2 K_h K_r.  A
    type block holds one gathered block of a stack, K_r B^k, and for
    matrices its paired rows and their conjugate, 2 K_h B^k, for diagonals
    the K_r^2 Gram before pairing; the Grams of every block are kept,
    V^k + U^k of K_h^2 entries, and the pairs make U V^(k-1) + U^k more of
    them.  The typical classes and the kept compositions and types are
    tuples of one count per group, an entry each.
    """
    k, dim, h, r = factors.ndim - 1, factors.shape[-1], n // 2, n - n // 2
    kept = _kept_levels([cls.counts for cls in classes], n, r)
    output = _kept_levels([cls.counts for cls in output_classes], n, r)
    largest = max((_class_size(output_groups, t) for t in output[h] + output[r]), default=0)
    u, v, low, kh, kr = map(len, (output[h], output[r], kept[r - 1], kept[h], kept[r]))
    entries = (len(factors) * dim**k + dim**h + dim**r + u * v
               + max(len(output[r - 1]) * dim**(r - 1) + (v + 1) * dim**r + u * v,
                     low * dim**(k * r - k) + (kr + 1) * dim**(k * r) + 2 * kh * kr
                     + (kr + 2 * (k - 1) * kh) * largest**k + (2 - k) * kr**2
                     + kh**2 * (v**k + 2 * u**k + u * v**(k - 1)))
               + (len(classes) + sum(map(len, kept))) * len(factors)
               + (len(output_classes) + sum(map(len, output))) * len(output_groups))
    linalg.check_entries(entries, f"{('diagonal', 'dense')[k - 1]} reduced report at n={n}, "
                         f"{kr} half sums of dimension {linalg.as_power_of_two(dim**r)},")
    if not output_classes:
        return 0.0, 0.0
    indicators = np.array([np.isin(np.arange(dim), group) for group in output_groups])
    prefix_types, suffix_types, pairs = _sequence_sum(indicators, output_classes, n, output)
    suffix_sets = [np.flatnonzero(row) for row in suffix_types]
    prefix_sets = suffix_sets if h == r else [np.flatnonzero(row) for row in prefix_types]
    del prefix_types, suffix_types
    lefts, rights, pairing = _sequence_sum(factors, classes, n, kept)
    with linalg.one_blas_thread():
        suffix_traces, beta = _type_blocks(rights, suffix_sets, pairing)
        traces, alpha = _type_blocks(lefts, prefix_sets)
        weights = pairs @ beta.reshape(v, -1)
        if k == 2:
            weights = pairs @ weights.reshape(*pairs.shape, -1)
        frobenius_sq = np.dot(alpha.reshape(-1), weights.reshape(-1))
        transmission = np.sum(traces * (pairs @ suffix_traces))
    return float(transmission), float(np.real(frobenius_sq))


def _block_lengths(ns) -> tuple:
    """ns as a range or a tuple of ints, and the largest (1 if none); a range is read at its ends."""
    ns = ns if isinstance(ns, range) else tuple(map(int, ns))
    return ns, int(max((ns[0], ns[-1]) if isinstance(ns, range) and ns else ns, default=1))


def _reduced_step(ch: KrausChannel, eps: float):
    """The channel's `classify` report, its Kraus weights and group count, and the per-n step.

    The n-independent work runs once, in the eigenbasis of the single-use
    output state, where the typical projector is diagonal: the channel and
    epsilon are checked, then the group factors' predicted peak, before N(pi)
    is formed.  N(pi)'s one spectrum (`channels._output_spectrum`) gives the
    report, the output groups and, at `info`'s S(N(pi)), the typical output
    window; eigh gives only the eigenbasis.  The Kraus classes read `info`'s
    S_e.  The step, report(n), reads the weights, the output spectrum and
    the group factors alone, and it is the one place that picks a report's
    path: zeros when no Kraus class is typical, else the block path
    (`_reduced_norms`).
    """
    if not ch.trace_preserving:
        raise InvariantViolationError("Kraus weight distribution needs a trace-preserving channel")
    stack, weights = minimal_kraus(ch)
    if not eps > 0.0:
        raise InvariantViolationError("epsilon must be positive")
    kraus_groups, mp, m = _weight_groups(weights), ch.output_dim, ch.input_dim
    widest = max(group.size for group in kraus_groups)
    # `_group_factors`, with N(pi) released: the factors, U and U^dagger, a factor
    # being formed or two temporaries filling one in; one group's gathered and
    # rotated operators and `_uniform_output`'s blocks; `_all_diagonal`'s block temporary
    linalg.check_entries((len(kraus_groups) + 4 + linalg._widest_block(len(kraus_groups)))
                         * mp * mp + 2 * widest * m * (mp + linalg._widest_block(mp)),
                         f"output factor matrices of {len(kraus_groups)} weight groups")
    rho_out = _uniform_output(ch.kraus_ops)
    spectrum = _output_spectrum(rho_out)
    info = _info_report(ch, weights, spectrum)
    basis = linalg.eigh(rho_out)[1]
    del rho_out
    output_groups = _weight_groups(spectrum)
    factors = _group_factors(stack, basis, kraus_groups)

    def report(n: int) -> ReducedChannelReport:
        classes = _typical_classes(weights, kraus_groups, info.entropy_exchange, n, eps)
        output_classes = _typical_classes(spectrum, output_groups, info.output_entropy, n, eps)
        count = sum(c.sequence_count for c in classes)
        transmission = frobenius_sq = 0.0
        if count:
            transmission, frobenius_sq = _reduced_norms(factors, output_groups, n, classes,
                                                        output_classes)
        return ReducedChannelReport(
            n=n, epsilon=eps, length=count, typical_transmission=_class_mass(classes),
            length_bound=_power_of_two(n * (info.entropy_exchange + eps)),
            transmission=transmission, frobenius_sq=frobenius_sq,
            frobenius_bound=_power_of_two(-n * (info.output_entropy - 3.0 * eps)))

    return info, weights, len(kraus_groups), report


def _reduced_series(ch: KrausChannel, ns, eps: float):
    """The channel's `classify` report, Kraus weights and reduced-channel reports over ns.

    Before the preparation (`_reduced_step`), the top n's half block is
    refused from r log2 M' alone.  After it, and before any class is
    enumerated, so are more than 2^16 kept Kraus compositions in all, at
    most C(r + G, G) per n over G groups (this bounds a one-dimensional
    output).  The top n's report is built first, so its block path checks
    its peak before any other report is built.
    """
    ns, top = _block_lengths(ns)
    log2_half = (top - top // 2) * math.log2(ch.output_dim)
    if log2_half > math.log2(linalg.ENTRY_CAP):
        raise CapExceededError(f"reduced report at n={top}, half-block dimension 2^{log2_half:.6g},"
                               f" above cap {linalg.as_power_of_two(linalg.ENTRY_CAP)}")
    info, weights, group_count, report = _reduced_step(ch, eps)
    kept = 0
    for n in ns:
        if n < 1:
            raise InvariantViolationError("n must be >= 1")
        kept += math.comb(n - n // 2 + group_count, group_count)
        if kept > _COMPOSITION_CAP:
            raise CapExceededError(f"type classes of {group_count} weight groups kept through"
                                   f" n={n} exceed cap 2^{_COMPOSITION_CAP.bit_length() - 1}")
    reports = {n: report(n) for n in sorted(set(ns), key=lambda n: (n != top, n))}  # top n first
    return info, weights, tuple(reports[n] for n in ns)


class ReductionVerification(NamedTuple):
    """Reduced-channel reports over a block-length range plus decay diagnostics.

    The count and output-norm bounds are exact inequalities checked on every
    row; the two transmissions only approach 1 asymptotically, so they are
    reported as decay fits rather than pass/fail.
    """

    info: ChannelInfoReport              # the channel's `classify` report, S_e among it
    weights: tuple[float, ...]           # the minimal family's Kraus weights, as plain floats
    reports: tuple[ReducedChannelReport, ...]
    counts_within_bounds: bool
    norms_within_bounds: bool
    typical_decay: DecayFit
    reduced_decay: DecayFit


def verify_reduction_bounds(ch: KrausChannel, ns, eps: float) -> ReductionVerification:
    info, weights, reports = _reduced_series(ch, ns, eps)
    sigma_sq = log_probability_variance(weights)
    typical_fit = fit_decay([r.n for r in reports],
                            [1.0 - r.typical_transmission for r in reports], eps, sigma_sq)
    reduced_fit = fit_decay([r.n for r in reports],
                            [1.0 - r.transmission for r in reports], eps, sigma_sq)
    return ReductionVerification(
        info=info,
        weights=tuple(weights.tolist()),
        reports=reports,
        counts_within_bounds=all(r.counts_within_bound for r in reports),
        norms_within_bounds=all(r.norm_within_bound for r in reports),
        typical_decay=typical_fit,
        reduced_decay=reduced_fit,
    )


# ------------------------------------------------------------------ achievable rates

class RateRow(NamedTuple):
    """One block length of the rate demo.

    penalty is computed from the actual reduced channel,
    sqrt(K_n * length) * ||output||_2; penalty_majorant substitutes the
    analytic bounds for every factor (K_n -> 2^(nR), length and norm ->
    their typicality bounds), giving 2^((n/2)(R + S_e - S + 4 eps)), the
    quantity whose sign of exponent decides geometric decay.
    """

    n: int
    code_dim: int
    reduced_length: int
    transmission: float
    penalty: float
    bound: float
    penalty_majorant: float


class RateTable(NamedTuple):
    info: ChannelInfoReport              # the channel's `classify` report, I(pi, N) among it
    geometric_decay_expected: bool
    rows: tuple[RateRow, ...]


def achievable_rate_table(ch: KrausChannel, rate: float, eps: float, ns) -> RateTable:
    """Ensemble fidelity bound of the reduced block channel at rate R.

    The paper-level criterion R + 4 eps < I(pi, N) decides whether the
    analytic penalty majorant decays geometrically in n.
    """
    # A K_n-dimensional code lives inside the M^n-dimensional input, so R <= log2 M.
    max_rate = math.log2(ch.input_dim)
    if not 0.0 <= rate <= max_rate:
        raise ValueError(f"rate must lie in [0, log2 M] = [0, {max_rate:g}], got {rate:g}")
    # K_n = floor(2^(nR)) must be a finite float before any report is built.
    ns, top = _block_lengths(ns)
    if top * rate >= sys.float_info.max_exp:
        raise CapExceededError(
            f"code dimension 2^(n R) = 2^{top * rate:g} at n={top} exceeds the float range")
    info, _, reports = _reduced_series(ch, ns, eps)
    exponent_rate = rate + info.entropy_exchange - info.output_entropy + 4.0 * eps
    rows = []
    for rep in reports:
        n = rep.n
        code_dim = int(math.floor(2.0 ** (n * rate)))
        # sqrt(K_n * length) in the log domain: the product may pass the float range
        log2_size = math.log2(code_dim * rep.length) if rep.length else -math.inf
        penalty = _power_of_two(0.5 * log2_size) * math.sqrt(rep.frobenius_sq)
        rows.append(RateRow(
            n=n, code_dim=code_dim, reduced_length=rep.length,
            transmission=rep.transmission, penalty=penalty,
            bound=rep.transmission - penalty,
            penalty_majorant=_power_of_two(0.5 * n * exponent_rate)))
    return RateTable(info=info,
                     geometric_decay_expected=rate + 4.0 * eps < info.coherent_information,
                     rows=tuple(rows))

