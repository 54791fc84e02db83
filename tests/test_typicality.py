"""Typical sequences/subspaces and reduced block channels, with dense oracles."""

import collections
import functools
import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcap import channels as qch
from qcap import cli, linalg
from qcap import typicality as tp
from qcap.errors import CapExceededError, InvariantViolationError
import oracles
from test_channels import amplitude_damping


def brute_force_typical(weights, n, eps):
    """Oracle: enumerate the sequence space over the support, test each probability."""
    h = sum(-w * math.log2(w) for w in weights if w > 0)
    logw = np.array([math.log2(w) if w > 0 else 0.0 for w in weights])
    log2_probability = functools.cache(lambda counts: float(np.dot(counts, logw)))
    chosen = []
    mass = 0.0
    for seq in itertools.product([j for j, w in enumerate(weights) if w > 0], repeat=n):
        logp = log2_probability(tuple(map(seq.count, range(len(weights)))))
        if -n * (h + eps) <= logp <= -n * (h - eps):
            chosen.append(seq)
            mass += 2.0**logp
    return chosen, mass


TypicalSet = collections.namedtuple("TypicalSet", "count bound mass entropy")


def typical_classes(weights, n, eps):
    """The typical type classes over the weight groups, read at the weights' entropy."""
    entropy = linalg.shannon_entropy(weights)
    return entropy, tp._typical_classes(weights, tp._weight_groups(weights), entropy, n, eps)


def typical_set(weights, n, eps):
    """Count, count bound 2^(n (H + eps)), mass and entropy H of the typical set.

    Read from the type classes that every report counts (`_typical_classes`
    and `_class_mass`), as the `typicality` command's sequence rows are.
    """
    entropy, classes = typical_classes(weights, n, eps)
    return TypicalSet(count=sum(c.sequence_count for c in classes),
                      bound=linalg._power_of_two(n * (entropy + eps)),
                      mass=tp._class_mass(classes), entropy=entropy)


def binomial_typical(q, n, eps):
    """Oracle: count and mass of the typical sequences of the weights (1 - q, q)."""
    h = linalg.shannon_entropy([1 - q, q])
    count, mass = 0, 0.0
    for k in range(n + 1):
        logp = (n - k) * math.log2(1 - q) + k * math.log2(q)
        if -n * (h + eps) <= logp <= -n * (h - eps):
            count += math.comb(n, k)
            mass += math.comb(n, k) * 2.0**logp
    return count, mass


def classes_matching_brute_force(weights, n, eps):
    """Group-count classes, asserted equal to those of the brute-force typical sequences.

    Each brute-force sequence's symbol counts are summed into the counts of
    the weight groups its symbols fall in.
    """
    chosen, _ = brute_force_typical(weights, n, eps)
    groups = tp._weight_groups(weights)
    group_of = {int(j): g for g, members in enumerate(groups) for j in members}
    counts = {cls.counts: cls.sequence_count for cls in typical_classes(weights, n, eps)[1]}
    assert counts == collections.Counter(
        tuple(map(int, np.bincount([group_of[j] for j in seq], minlength=len(groups))))
        for seq in chosen)
    return counts


def typical_kraus_channel(ch, n, eps, *, project):
    """Oracle: the typical block channel as a dense Kraus family.

    One Kronecker product of base Kraus operators per sequence that
    `brute_force_typical` keeps; `project` left-multiplies each by the
    typical output projector: the eigenvectors of the output state, tensored
    along each index sequence that `brute_force_typical` keeps for its
    eigenvalues.
    """
    base, weights = oracles.minimal_channel(ch), qch.minimal_kraus(ch)[1]
    chosen, _ = brute_force_typical(tuple(weights), n, eps)
    ops = [functools.reduce(np.kron, [base.kraus_ops[j] for j in seq]) for seq in chosen]
    if project:
        w, v = oracles.checked_eigh(oracles.apply(base, oracles.max_mixed(base.input_dim)))
        w = np.maximum(w, 0.0)
        kept, _ = brute_force_typical(tuple(w / np.sum(w)), n, eps)
        cols = np.zeros((base.output_dim**n, len(kept)), dtype=complex)
        for i, seq in enumerate(kept):
            cols[:, i] = functools.reduce(np.kron, [v[:, j] for j in seq])
        proj = cols @ cols.conj().T
        ops = [proj @ op for op in ops]
    return qch.KrausChannel(input_dim=base.input_dim**n, output_dim=base.output_dim**n,
                            kraus_ops=tuple(ops))


# ---------------------------------------------------------------- typical sequences

def test_uniform_distribution_everything_typical():
    for n in (1, 4, 9):
        rep = typical_set((0.5, 0.5), n, 0.05)
        assert rep.count == 2**n
        assert rep.mass == pytest.approx(1.0, abs=1e-12)


def test_binomial_type_class_report():
    rep = typical_set((0.9, 0.1), 10, 0.1)
    assert rep.count == 10                             # exactly the k=1 class
    assert rep.mass == pytest.approx(10 * 0.9**9 * 0.1, abs=1e-15)
    assert rep.count <= rep.bound
    assert rep.bound == pytest.approx(2 ** (10 * (rep.entropy + 0.1)))


def test_large_epsilon_majority_sequence():
    # eps >= H makes the all-majority-symbol sequence typical by direct check
    w = (0.8, 0.2)
    h = linalg.shannon_entropy(w)
    eps = h + 0.01
    n = 5
    logp_majority = n * math.log2(0.8)
    assert -n * (h + eps) <= logp_majority <= -n * (h - eps)
    assert classes_matching_brute_force(w, n, eps)[(n, 0)] == 1


def test_zero_weight_symbols_never_typical():
    for eps in (0.2, 0.3):      # no typical sequence at 0.2, the one-minority class at 0.3
        rep = typical_set((0.9, 0.0, 0.1), 6, eps)
        ref = typical_set((0.9, 0.1), 6, eps)
        assert rep.count == ref.count
        assert rep.mass == pytest.approx(ref.mass, abs=1e-15)
        counts = classes_matching_brute_force((0.9, 0.0, 0.1), 6, eps)
    assert [list(g) for g in tp._weight_groups((0.9, 0.0, 0.1))] == [[0], [2]]
    assert counts == {(5, 1): 6}


def near_equal_kraus_weights():
    """`minimal_kraus` weights of depolarizing(0.3, 3) with its family first recombined
    by a Haar unitary: the eigensolve returns the eight equal weights tens of ulps apart."""
    ch = qch.depolarizing(0.3, 3)
    v = oracles.haar_isometry(len(ch), len(ch), np.random.default_rng(0))
    rotated = qch.KrausChannel(input_dim=3, output_dim=3,
                               kraus_ops=tuple(np.einsum("jk,kab->jab", v, ch.kraus_ops)))
    return tuple(qch.minimal_kraus(rotated)[1])


EQUAL_WEIGHTS = [
    (0.25,) * 4,
    (0.1, 0.3, 0.3, 0.3),
    (0.2, 0.4, 0.2, 0.2),            # one group's symbols on both sides of another's
    tuple(qch.minimal_kraus(qch.depolarizing(0.3, 3))[1]),
    near_equal_kraus_weights(),
]


def test_near_equal_weights_form_one_group():
    weights = near_equal_kraus_weights()
    assert len(set(weights)) > 2
    assert [list(g) for g in tp._weight_groups(weights)] == [[0], list(range(1, 9))]
    assert [list(g) for g in tp._weight_groups((0.2, 0.4, 0.2, 0.2))] == [[0, 2, 3], [1]]


def dirichlet_weights(seed_and_size):
    seed, size = seed_and_size
    raw = np.random.default_rng(seed).dirichlet(np.ones(size))
    return tuple(raw / raw.sum())


@given(st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 3)).map(dirichlet_weights)
       | st.sampled_from(EQUAL_WEIGHTS), st.integers(1, 7), st.floats(0.01, 1.5))
@settings(max_examples=40, deadline=None)
def test_type_classes_match_brute_force(weights, n, eps):
    n = min(n, int(math.log(30000, len(weights))))      # the oracle walks len(weights)^n sequences
    rep = typical_set(weights, n, eps)
    chosen, mass = brute_force_typical(weights, n, eps)
    assert rep.count == len(chosen)
    assert rep.mass == pytest.approx(mass, abs=1e-12)
    assert rep.count <= rep.bound
    classes_matching_brute_force(weights, n, eps)


def test_composition_cap_raises_before_enumerating(monkeypatch):
    # 256 equal weights are one group: n = 4 has one composition, of 256^4 sequences
    assert typical_set(np.full(256, 1 / 256), 4, 0.1).count == 256**4
    # 256 distinct weights: n = 1 has 256 compositions, n = 4 has C(259, 4) ~ 1.8e8
    distinct = np.arange(1, 257) / (256 * 257 // 2)
    assert typical_set(distinct, 1, 8.0).count == 256       # eps = 8 keeps every symbol
    monkeypatch.setattr(tp, "_compositions", mock.Mock(side_effect=AssertionError))
    with pytest.raises(CapExceededError, match="256 weight groups at n=4 exceed cap 2\\^16"):
        typical_set(distinct, 4, 0.1)


def test_mass_beyond_float_counts():
    # 2^1100 sequences: the count overflows a float, the log-domain mass does not
    rep = typical_set((0.5, 0.5), 1100, 0.1)
    assert rep.count == 2**1100
    assert rep.mass == pytest.approx(1.0, abs=1e-12)


def test_mass_grows_with_block_length():
    r10 = typical_set((0.9, 0.1), 10, 0.1)
    r60 = typical_set((0.9, 0.1), 60, 0.1)
    assert r60.mass > r10.mass
    assert r60.count <= r60.bound


def test_decay_fit_on_sequence_masses():
    ns = range(1, 61)
    deviations = [1.0 - typical_set((0.9, 0.1), n, 0.1).mass for n in ns]
    fit = tp.fit_decay(ns, deviations, 0.1, tp.log_probability_variance((0.9, 0.1)))
    assert fit.fitted_rate is not None and fit.fitted_rate > 0.0
    target = 0.1**2 / (2 * fit.sigma_sq)
    assert target / 4 <= fit.fitted_rate <= target * 4


def test_fit_decay_needs_three_interior_points():
    fit = tp.fit_decay([1, 2, 3], [1.0, 1.0, 0.5], 0.1, 1.0)
    assert fit.fitted_rate is None
    with pytest.raises(ValueError):
        tp.fit_decay([1], [1.5], 0.1, 1.0)


@pytest.mark.parametrize("ns", [range(2, 10), range(500, 4001, 500),
                                (500, 730, 1100, 1650, 2400, 3300, 4000)],
                         ids=["2-9", "500-4000", "500-4000-uneven"])
def test_fit_decay_rate_is_the_polyfit_slope(ns):
    # decays with a wobble, so that the points do not lie on one line
    rate = 3.0 / max(ns)
    deviations = [0.8 * math.exp(-rate * n) * (1.0 + 0.2 * math.sin(n)) for n in ns]
    fitted = tp.fit_decay(ns, deviations, 0.1, 1.0).fitted_rate
    assert math.isclose(fitted, oracles.polyfit_decay_rate(ns, deviations), rel_tol=1e-12)


@pytest.mark.parametrize("ns, deviations", [
    ((1, 2, 3, 4), (1.0, 0.0, 1.0, 0.0)),
    ((1, 2, 3, 4), (0.5, 0.0, 1.0, 0.0)),
    ((1, 2, 3, 4), (0.5, 0.25, 1.0, 0.0)),
    ((5, 5, 5), (0.5, 0.25, 0.125)),
], ids=["none", "one", "two", "one-length"])
def test_fit_decay_has_no_rate_without_three_usable_points_at_two_lengths(ns, deviations):
    assert tp.fit_decay(ns, deviations, 0.1, 1.0).fitted_rate is None


def test_fit_decay_stores_rounding_below_zero_as_zero():
    # 1 - mass with a mass of 1 + 2^-52 from summing class masses
    fit = tp.fit_decay([1, 2, 3], [-2.0**-52, -1e-12, 0.25], 0.1, 1.0)
    assert fit.deviations == (0.0, 0.0, 0.25)
    for bad in (-2e-12, -1e-6):
        with pytest.raises(ValueError, match="deviations"):
            tp.fit_decay([1], [bad], 0.1, 1.0)


# ---------------------------------------------------------------- typical subspaces

OutputSubspace = collections.namedtuple(
    "OutputSubspace", "eigenvalues eigenvectors n indicator rank rank_bound mass")


def typical_indicator(dim, groups, classes, n):
    """The typical multi-indices (first factor major), split as a reduced report splits them.

    A multi-index is typical exactly when the output type of its prefix of
    length n // 2 plus that of its suffix is a typical class: the typical
    pairs of the kept prefix and suffix types, whose multi-indices
    `_sequence_sum` marks when run on the groups' 0/1 indicators.
    """
    h, r = n // 2, n - n // 2
    types = tp._kept_levels([c.counts for c in classes], n, r)
    typical = {c.counts for c in classes}
    indicators = np.array([np.isin(np.arange(dim), group) for group in groups])
    prefix_types, suffix_types, _ = tp._sequence_sum(indicators, classes, n, types)
    mask = np.zeros((dim**h, dim**r), dtype=bool)
    for u, rows in zip(types[h], prefix_types):
        for v, cols in zip(types[r], suffix_types):
            mask[np.ix_(rows, cols)] = tuple(map(int.__add__, u, v)) in typical
    return mask.reshape(-1)


def output_subspace(rho, n, eps):
    """The typical subspace of rho^(x)n as a reduced report reads it.

    The typical classes of rho's eigh spectrum, clipped at 0 and normalized,
    over its weight groups, give its rank, rank bound 2^(n (S + eps)) and
    mass; `typical_indicator` marks its multi-indices in the Kronecker
    eigenbasis.
    """
    w, v = np.linalg.eigh(rho)
    w = np.maximum(w, 0.0)
    w /= np.sum(w)
    entropy, classes = typical_classes(w, n, eps)
    return OutputSubspace(eigenvalues=w, eigenvectors=v, n=n,
                          indicator=typical_indicator(w.size, tp._weight_groups(w), classes, n),
                          rank=sum(c.sequence_count for c in classes),
                          rank_bound=linalg._power_of_two(n * (entropy + eps)),
                          mass=tp._class_mass(classes))


def dense_projector(sub):
    """Oracle: the projector onto the Kronecker eigenvectors that the indicator keeps."""
    cols = functools.reduce(np.kron, [sub.eigenvectors] * sub.n)[:, sub.indicator]
    return cols @ cols.conj().T


def test_pure_state_block_subspace():
    psi = np.array([1.0, 1.0j]) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    sub = output_subspace(rho, 3, 0.2)
    assert sub.rank == 1
    proj = dense_projector(sub)
    block = rho
    for _ in range(2):
        block = np.kron(block, rho)
    assert np.allclose(proj, block, atol=1e-10)


def test_max_mixed_block_subspace_is_everything():
    sub = output_subspace(oracles.max_mixed(2), 5, 0.3)
    assert sub.rank == 32
    assert np.allclose(dense_projector(sub), np.eye(32), atol=1e-12)
    assert sub.mass == pytest.approx(1.0, abs=1e-12)


def test_block_subspace_binomial_mass():
    rho = np.diag([0.75, 0.25]).astype(complex)
    n, eps = 8, 0.1
    sub = output_subspace(rho, n, eps)
    rank, mass = binomial_typical(0.25, n, eps)
    assert sub.rank == rank
    assert sub.mass == pytest.approx(mass, abs=1e-14)
    assert sub.rank <= sub.rank_bound
    block = rho
    for _ in range(n - 1):
        block = np.kron(block, rho)
    assert np.real(np.trace(dense_projector(sub) @ block)) == pytest.approx(mass, abs=1e-12)


def random_spectrum(seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
    if rng.integers(2):
        w[rng.integers(w.size)] = 0.0
    return tuple(w / w.sum())


SPECTRA = st.one_of(
    st.integers(0, 2**32 - 1).map(random_spectrum),
    # dyadic: the log-probabilities and, at these epsilons, lo and hi are exact,
    # so whole classes sit on the inclusive edges of the window
    st.sampled_from([(0.5, 0.5), (0.5, 0.25, 0.25), (0.5, 0.25, 0.125, 0.125), (0.25,) * 4]),
    st.sampled_from([(1.0, 0.0), (0.5, 0.0, 0.5), (0.5, 0.25, 0.0, 0.25)]),
    st.sampled_from(EQUAL_WEIGHTS),
)


@given(SPECTRA, st.integers(1, 6), st.sampled_from([0.125, 0.25, 0.5, 0.75]) | st.floats(0.01, 1.5))
@settings(max_examples=60, deadline=None)
def test_indicator_matches_brute_force(spectrum, n, eps):
    n = min(n, int(math.log(30000, len(spectrum))))
    sub = output_subspace(np.diag(spectrum), n, eps)
    chosen, _ = brute_force_typical(tuple(sub.eigenvalues), n, eps)
    want = np.zeros(len(spectrum) ** n, dtype=bool)
    for seq in chosen:
        want[np.ravel_multi_index(seq, (len(spectrum),) * n)] = True
    assert np.array_equal(sub.indicator, want)
    assert int(sub.indicator.sum()) == sub.rank


def test_indicator_keeps_inclusive_edges():
    # H = 1.5 and eps = 0.5: the classes at log2 p = -4 = lo and -2 = hi are typical
    sub = output_subspace(np.diag([0.5, 0.25, 0.25]), 2, 0.5)
    assert sub.indicator.all() and sub.rank == 9


def test_dense_reduced_report_cap_at_n19():
    # the dense branch at eps = 1.5, where most sequences are typical, holds two levels
    # of half sums: 45 of 2^8 x 2^8 entries and 55 of 2^9 x 2^9 fit at n = 18, 55 of
    # 2^9 x 2^9 and 66 of 2^10 x 2^10 at n = 19 do not
    ch = cli._parse_builtin("builtin:haar_random:2,2,3,1", 0)
    rep = tp.verify_reduction_bounds(ch, (18,), 1.5).reports[0]
    assert 0 < rep.length <= 3**18 and rep.counts_within_bound and rep.norm_within_bound
    with pytest.raises(CapExceededError, match=r"dense reduced report at n=19, 66 half sums of "
                                               r"dimension 2\^10, needs 2\^26.5339 entries"):
        tp.verify_reduction_bounds(ch, (19,), 1.5).reports[0]


# ---------------------------------------------------------------- Kraus distribution

def test_kraus_distribution_phase_flip():
    weights = qch.minimal_kraus(qch.phase_flip(0.25))[1]
    assert np.allclose(sorted(weights), [0.25, 0.75])


def test_kraus_distribution_identity():
    assert np.allclose(qch.minimal_kraus(qch.identity_channel(3))[1], [1.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_kraus_distribution_of_non_diagonal_family(seed):
    # the weights are read off a recombined family whose Gram matrix is diagonal,
    # and they are the Gram eigenvalues of the original family over M
    rng = np.random.default_rng(seed)
    ch = qch.haar_random_channel(2, 2, int(rng.integers(2, 5)), rng)
    gram = qch.gram_matrix(ch)
    assert np.max(np.abs(gram - np.diag(np.diagonal(gram)))) > 1e-8
    out, weights = oracles.minimal_channel(ch), qch.minimal_kraus(ch)[1]
    out_gram = qch.gram_matrix(out)
    assert np.max(np.abs(out_gram - np.diag(np.diagonal(out_gram)))) <= 1e-10
    eigenvalues = np.linalg.eigvalsh(gram)[::-1][:len(out)] / ch.input_dim
    assert np.max(np.abs(weights - eigenvalues)) <= 1e-12


def test_kraus_distribution_rejects_trace_decreasing():
    # minimal_kraus weighs a trace-decreasing family; the reduced reports refuse it
    ch = oracles.reduce_channel(qch.phase_flip(0.3), [0])
    assert qch.minimal_kraus(ch)[1] == pytest.approx([0.7], abs=1e-15)
    with pytest.raises(InvariantViolationError, match="Kraus weight distribution needs a trace-preserving"):
        tp.verify_reduction_bounds(ch, (1, 2), 0.1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_kraus_entropy_equals_entropy_exchange(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    ch = qch.haar_random_channel(dim, dim, int(rng.integers(1, 4)), rng)
    weights = qch.minimal_kraus(ch)[1]
    se = oracles.entropy_exchange(oracles.max_mixed(dim), oracles.minimal_channel(ch))
    assert linalg.shannon_entropy(weights) == pytest.approx(se, abs=1e-10)


# ---------------------------------------------------------------- typical channels

def test_typical_channel_of_identity_is_identity():
    for n, eps in [(3, 0.05), (6, 0.5)]:
        rep = tp.verify_reduction_bounds(qch.identity_channel(2), (n,), eps).reports[0]
        assert rep.length == 1
        assert rep.typical_transmission == pytest.approx(1.0, abs=1e-12)
        dense = typical_kraus_channel(qch.identity_channel(2), n, eps, project=False)
        assert oracles.channels_equal(dense, qch.identity_channel(2**n))


def test_typical_channel_phase_flip_mass():
    ch = qch.phase_flip(0.25)
    n, eps = 8, 0.1
    rep = tp.verify_reduction_bounds(ch, (n,), eps).reports[0]
    count, mass = binomial_typical(0.25, n, eps)
    assert rep.length == count
    assert rep.typical_transmission == pytest.approx(mass, abs=1e-14)
    dense = typical_kraus_channel(ch, n, eps, project=False)
    got = np.real(np.trace(oracles.apply(dense, oracles.max_mixed(2**n))))
    assert got == pytest.approx(mass, abs=1e-12)
    assert 0.0 < got < 1.0


def test_uniform_gram_channel_everything_typical(rng):
    u = oracles.haar_isometry(2, 2, rng)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = oracles.unitary_mixture([u, u @ x])
    for eps in (0.01, 0.4):
        rep = tp.verify_reduction_bounds(ch, (6,), eps).reports[0]
        assert rep.length == 2**6
        assert rep.typical_transmission == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("ns, eps, message", [
    ((0,), 0.1, "n must be >= 1"),
    ((3, 0), 0.1, "n must be >= 1"),
    ((3,), 0.0, "epsilon must be positive"),
    ((3,), -0.1, "epsilon must be positive"),
])
def test_reduced_reports_reject_nonpositive_n_and_epsilon(ns, eps, message):
    with pytest.raises(InvariantViolationError, match=message):
        tp.verify_reduction_bounds(qch.phase_flip(0.25), ns, eps)


@pytest.mark.parametrize("make_channel, ns, eps, error, message", [
    (lambda: qch.phase_flip(0.25), (0,), 0.0, InvariantViolationError,
     "epsilon must be positive"),
    (lambda: oracles.reduce_channel(qch.phase_flip(0.3), [0]), (2,), 0.0,
     InvariantViolationError, "needs a trace-preserving channel"),
    (lambda: oracles.reduce_channel(qch.phase_flip(0.3), [0]), range(22, 10**8), 0.0,
     CapExceededError, "half-block dimension"),
    (lambda: qch.phase_flip(0.25), (0, 10**6), 0.1, CapExceededError, "half-block dimension"),
], ids=["epsilon-before-n", "trace-before-epsilon", "half-block-first", "half-block-before-n"])
def test_reduced_reports_refuse_in_order(make_channel, ns, eps, error, message):
    # the half-block check, then the preparation's channel and epsilon checks, then n
    with pytest.raises(error, match=message):
        tp.verify_reduction_bounds(make_channel(), ns, eps)


def test_typical_channel_needs_trace_preserving():
    with pytest.raises(InvariantViolationError):
        tp.verify_reduction_bounds(oracles.reduce_channel(qch.phase_flip(0.3), [0]), (2,), 0.1)


# ---------------------------------------------------------------- reduced channels

def test_reduced_channel_identity():
    rep = tp.verify_reduction_bounds(qch.identity_channel(2), (4,), 0.2).reports[0]
    assert rep.length == 1
    assert rep.transmission == pytest.approx(1.0, abs=1e-12)
    dense = typical_kraus_channel(qch.identity_channel(2), 4, 0.2, project=True)
    assert oracles.channels_equal(dense, qch.identity_channel(16))


def check_report_against_oracle(monkeypatch, ch, n, eps, *, diagonal):
    """Compare every report field with the dense oracle; assert the branch taken."""
    spy = mock.Mock(wraps=tp._sequence_sum)
    monkeypatch.setattr(tp, "_sequence_sum", spy)
    rep = tp.verify_reduction_bounds(ch, (n,), eps).reports[0]
    # one sum over the Kraus group factors, vectors on the diagonal branch and
    # matrices on the dense one, and one over the output groups' 0/1 indicators,
    # whose type sets contract the projector by output type on both branches
    (kraus,) = [c.args[0] for c in spy.call_args_list if c.args[0].dtype != bool]
    (output,) = [c.args[0] for c in spy.call_args_list if c.args[0].dtype == bool]
    assert kraus.ndim == (2 if diagonal else 3)
    groups = tp._weight_groups(qch._output_spectrum(qch._uniform_output(ch.kraus_ops)))
    assert output.shape == (len(groups), ch.output_dim)
    assert [np.flatnonzero(row).tolist() for row in output] == [g.tolist() for g in groups]
    dense = typical_kraus_channel(ch, n, eps, project=True)
    out = oracles.apply(dense, oracles.max_mixed(2**n))
    assert rep.length == len(dense.kraus_ops)
    assert rep.transmission == pytest.approx(float(np.real(np.trace(out))), abs=1e-12)
    assert rep.frobenius_sq == pytest.approx(float(np.sum(np.abs(out) ** 2)), abs=1e-12)
    typical = typical_kraus_channel(ch, n, eps, project=False)
    assert rep.typical_transmission == pytest.approx(
        np.real(np.trace(oracles.apply(typical, oracles.max_mixed(2**n)))), abs=1e-12)
    assert rep.counts_within_bound and rep.norm_within_bound
    return rep


def test_reduced_report_matches_dense_oracle(monkeypatch):
    # the output state is maximally mixed: the projector keeps everything
    check_report_against_oracle(monkeypatch, qch.phase_flip(0.25), 8, 0.1, diagonal=True)


def test_reduced_report_projection_matches_dense_oracle(monkeypatch):
    # amplitude damping: diagonal branch, projector rank 84 of 256
    gamma = 0.3
    ch = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])))
    rep = check_report_against_oracle(monkeypatch, ch, 8, 0.1, diagonal=True)
    assert rep.transmission == pytest.approx(0.209, abs=1e-3)
    assert rep.typical_transmission == pytest.approx(0.385, abs=1e-3)


def test_reduced_report_dense_oracle_nondiagonal(monkeypatch):
    # 15 sequences on the dense branch.  Two typical output classes make the
    # kept block complex; at n = 5 there is one and its imaginary part vanishes.
    ch = cli._parse_builtin("builtin:haar_random:2,2,3,1", 0)
    check_report_against_oracle(monkeypatch, ch, 6, 0.1, diagonal=False)


@st.composite
def kept_tops(draw):
    """Up to 4 groups, n <= 10, a level count r <= n and a nonempty set of compositions of n."""
    groups, n = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    tops = draw(st.lists(st.sampled_from(list(tp._compositions(n, groups))), min_size=1,
                         max_size=12, unique=True))
    return groups, n, draw(st.integers(0, n)), tops


@given(kept_tops())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_kept_levels_and_pairing_match_brute_force(case):
    # each kept level, sorted and downward closed, holds exactly the compositions below
    # some top; the pairing of two levels is 1 exactly where the sum is a top
    groups, n, r, tops = case
    levels = tp._kept_levels(tops, n, r)
    assert len(levels) == r + 1
    for m, level in enumerate(levels):
        assert level == sorted(level)
        assert level == [comp for comp in sorted(tp._compositions(m, groups))
                         if any(np.all(np.less_equal(comp, top)) for top in tops)]
        for comp in level:
            for g in np.flatnonzero(comp):
                assert tuple(np.subtract(comp, np.eye(groups, dtype=int)[g])) in levels[m - 1]
    levels = tp._kept_levels(tops, n, n - n // 2)
    prefixes, suffixes = levels[n // 2], levels[-1]
    brute = [[float(any(np.array_equal(np.add(a, b), top) for top in tops)) for b in suffixes]
             for a in prefixes]
    np.testing.assert_array_equal(tp._pairing(prefixes, suffixes, tops), np.array(brute))


def joined_halves(factors, classes, n):
    """Oracle: sum_c L_c (x) R'_c joined from `_sequence_sum`'s halves (first factor major)."""
    kept = tp._kept_levels([cls.counts for cls in classes], n, n - n // 2)
    lefts, rights, pairing = tp._sequence_sum(factors, classes, n, kept)
    return sum(np.kron(left, sum(rights[j] for j in np.flatnonzero(row)))
               for left, row in zip(lefts, pairing))


@pytest.mark.parametrize("channel, diagonal, ns", [
    ("builtin:haar_random:2,2,3,1", False, (1, 3, 5, 8, 9)),   # 2 classes at n=5, 8; 3 at n=9
    ("builtin:phase_flip:0.25", True, (4, 5, 7, 8)),           # one class each
    ("builtin:depolarizing:0.3", True, (4, 5, 8, 9)),          # one class of 2 groups each
    ("builtin:depolarizing:0.3,3", True, (4,)),                # groups of 1 and 8 symbols
])
def test_sequence_sum_matches_enumeration(channel, diagonal, ns):
    # the halves of the sum over group sequences of the group factors, joined,
    # equal the per-symbol enumeration
    ch = cli._parse_builtin(channel, 0)
    stack, weights = qch.minimal_kraus(ch)
    basis = oracles.checked_eigh(oracles.apply(ch, oracles.max_mixed(ch.input_dim)))[1]
    factors = oracles.one_product_factor_matrices(stack, basis)
    group_factors = tp._group_factors(stack, basis, tp._weight_groups(weights))
    assert group_factors.ndim == (3, 2)[diagonal]
    if diagonal:
        factors = np.real(np.einsum("jaa->ja", factors))
    for n in ns:
        _, classes = typical_classes(weights, n, 0.1)
        if not classes:
            continue
        chosen, _ = brute_force_typical(tuple(weights), n, 0.1)
        oracle = sum(functools.reduce(np.kron, factors[list(seq)]) for seq in chosen)
        got = joined_halves(group_factors, classes, n)
        assert got.shape == oracle.shape
        assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("spec", [
    "haar_random:3,5,4,2",
    "depolarizing:0.3,3",           # groups of 1 and 8 symbols, on the diagonal branch
    "haar_random:8,200,3,4",        # M' = 200 in four row blocks
    "random_unitary:4,3,7",
])
def test_group_factors_sum_the_per_operator_factors(spec):
    # each group's factor, one `_uniform_output` of its rotated operators, is the sum
    # of its operators' A A^dagger / M in the output eigenbasis
    ch = cli._parse_builtin(f"builtin:{spec}", 1)
    stack, weights = qch.minimal_kraus(ch)
    basis = np.linalg.eigh(qch._uniform_output(ch.kraus_ops))[1]
    groups = tp._weight_groups(weights)
    per_operator = oracles.one_product_factor_matrices(stack, basis)
    factors = tp._group_factors(stack, basis, groups)
    assert len(factors) == len(groups)
    for factor, group in zip(factors, groups):
        want = per_operator[group].sum(axis=0)
        if factor.ndim == 1:
            want = np.real(np.diagonal(want))
        assert np.linalg.norm(factor - want) <= 1e-14 * np.linalg.norm(want)


@st.composite
def reduced_norm_cases(draw):
    """Random group factors, an output partition and random Kraus and output class sets.

    The factors are PSD matrices (the dense branch) or the nonnegative
    diagonals of such (the diagonal branch).  Symbols labelled -1 belong to
    no output group, as zero output weights do.
    """
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8 if dim == 2 else 5))
    kraus_groups = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(-1, dim - 1), min_size=dim, max_size=dim)
                  .filter(lambda labels: max(labels) >= 0))
    output_groups = [np.flatnonzero(np.array(labels) == g)
                     for g in sorted(set(labels) - {-1}, key=labels.index)]
    classes = draw(st.lists(st.sampled_from(list(tp._compositions(n, kraus_groups))),
                            min_size=1, unique=True))
    output_classes = draw(st.lists(st.sampled_from(list(tp._compositions(n, len(output_groups)))),
                                   unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (kraus_groups, dim, dim)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    factors = x @ x.conj().transpose(0, 2, 1)
    if draw(st.booleans()):
        factors = np.ascontiguousarray(np.real(np.einsum("jaa->ja", factors)))
    return (factors, output_groups, n, [tp.TypeClass(c, 0.0, 1) for c in classes],
            [tp.TypeClass(c, 0.0, 1) for c in output_classes])


def masked_join_norms(factors, output_groups, n, classes, output_classes):
    """Oracle: the full M'^n-dimensional join of the halves, masked by brute-force typicality.

    A joined vector is the diagonal of the operator it stands for.
    """
    dim = factors.shape[-1]
    full = joined_halves(factors, classes, n)
    group_of = {int(a): g for g, group in enumerate(output_groups) for a in group}
    typical = {cls.counts for cls in output_classes}
    mask = np.zeros(dim**n, dtype=bool)
    for index, seq in enumerate(itertools.product(range(dim), repeat=n)):
        if all(a in group_of for a in seq):
            counts = collections.Counter(group_of[a] for a in seq)
            mask[index] = tuple(counts[g] for g in range(len(output_groups))) in typical
    kept = np.diag(full[mask]) if full.ndim == 1 else full[np.ix_(mask, mask)]
    return float(np.real(np.trace(kept))), float(np.sum(np.abs(kept) ** 2))


@given(reduced_norm_cases())
@example((np.eye(2)[None] + 0.5, [np.array([1])], 1, [tp.TypeClass((1,), 0.0, 1)],
          [tp.TypeClass((1,), 0.0, 1)]))        # n = 1; symbol 0 in no output group
@example((np.array([[1.5, 0.5]]), [np.array([1])], 1, [tp.TypeClass((1,), 0.0, 1)],
          [tp.TypeClass((1,), 0.0, 1)]))        # the same on the diagonal branch
@settings(max_examples=120, deadline=None, derandomize=True)
def test_dense_norms_match_the_masked_join(case):
    # the contraction by output type, of matrices (the dense branch) or vectors
    # (the diagonal one), against the full join of the same halves plus the mask
    factors, output_groups, *rest = case
    indicators = np.array([np.isin(np.arange(factors.shape[-1]), group) for group in output_groups])
    got = tp._reduced_norms(factors, output_groups, indicators, *rest)
    want = masked_join_norms(*case)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w)


@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 4), st.integers(1, 12),
       st.integers(1, 4))
@example(0, False, 1, 64, 3)          # K_r >> K_h, as at h = 0 over 64 weight groups
@example(0, True, 1, 64, 3)
@settings(max_examples=60, deadline=None)
def test_type_blocks_equal_the_paired_sums(seed, diagonal, kh, kr, set_count):
    # the traces and Grams of each type block of X_c = sum_d mix[c, d] stack[d], met with
    # the 0/1 mix by one product per block, against the X_c formed whole; with no mix, of
    # the stack itself
    rng = np.random.default_rng(seed)
    dim = 8
    x = rng.standard_normal((kr, dim, dim)) + 1j * rng.standard_normal((kr, dim, dim))
    stack = x @ x.conj().transpose(0, 2, 1)
    if diagonal:
        stack = np.ascontiguousarray(np.real(np.einsum("jaa->ja", stack)))
    mix = (rng.random((kh, kr)) < 0.5).astype(float)
    labels = rng.integers(-1, set_count, dim)        # -1: an index in no set
    index_sets = [np.flatnonzero(labels == u) for u in range(set_count)]
    for operators, got in [(np.tensordot(mix, stack, 1), tp._type_blocks(stack, index_sets, mix)),
                           (stack, tp._type_blocks(stack, index_sets))]:
        traces, grams = got
        for u, rows in enumerate(index_sets):
            diagonals = operators[:, rows] if diagonal else operators[:, rows, rows]
            assert np.allclose(traces[u], np.real(diagonals).sum(axis=1), rtol=1e-12, atol=1e-12)
            for w, cols in enumerate([rows] if diagonal else index_sets):
                block = (diagonals if diagonal else operators[:, rows][:, :, cols])
                block = block.reshape(len(operators), -1)
                want = block @ block.conj().T
                assert np.allclose(grams[u] if diagonal else grams[u, w], want,
                                   rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans(),
       st.tuples(st.integers(1, 16), st.integers(1, 16)),
       st.tuples(st.integers(1, 4), st.integers(1, 4)))
@example(0, 1, False, (1, 1), (2, 2))     # the (1,) and (1, 1) seed blocks of `_sequence_sum`
@example(0, 2, True, (1, 1), (2, 2))
@settings(max_examples=60, deadline=None)
def test_broadcast_kron_is_np_kron_bit_for_bit(seed, ndim, is_complex, a_shape, b_shape):
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = rng.standard_normal(shape[:ndim])
        return x + 1j * rng.standard_normal(shape[:ndim]) if is_complex else x

    a, b = draw(a_shape), draw(b_shape)
    got, want = tp._kron(a, b), np.kron(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make_channel", [
    lambda: qch.phase_flip(0.25),
    lambda: amplitude_damping(0.3),
    lambda: qch.depolarizing(0.3, 3),
    lambda: cli._parse_builtin("builtin:haar_random:2,2,3,1", 0),
], ids=["phase_flip", "amplitude_damping", "depolarizing-qutrit", "haar_random"])
def test_report_series_equals_single_reports(make_channel):
    ch = make_channel()
    ns = (9, 4, 1, 7, 10, 6)        # unsorted and gapped
    series = tp.verify_reduction_bounds(ch, ns, 0.1).reports
    assert series == tuple(tp.verify_reduction_bounds(ch, (n,), 0.1).reports[0] for n in ns)
    # one preparation, each n: its per-n step gives the same reports in either order
    report = tp._reduced_step(ch, 0.1)[-1]
    assert tuple(map(report, ns)) == series == tuple(map(report, ns[::-1]))[::-1]
    assert [rep.n for rep in series] == list(ns)
    # each channel has empty and nonempty typical sets among these n
    assert any(rep.length == 0 for rep in series) and any(rep.length for rep in series)


def test_report_series_reads_one_output_entropy(monkeypatch):
    # M' = 5 is not the N = 4 Kraus weights' length, so every 5-symbol entropy and
    # window is N(pi)'s: its entropy is taken once, for the channel report, and every
    # n's typical output classes are read at that report's S(N(pi))
    ch = cli._parse_builtin("builtin:haar_random:3,5,4,2", 1)
    entropies, windows = [], []
    entropy, classes = linalg.shannon_entropy, tp._typical_classes
    monkeypatch.setattr(linalg, "shannon_entropy", lambda p: entropies.append(len(p)) or entropy(p))
    monkeypatch.setattr(tp, "_typical_classes", lambda weights, groups, h, n, eps: (
        windows.append((len(weights), h)) or classes(weights, groups, h, n, eps)))
    verification = tp.verify_reduction_bounds(ch, range(1, 5), 0.2)
    assert entropies.count(5) == 1
    assert [h for size, h in windows if size == 5] == [verification.info.output_entropy] * 4
    assert any(rep.transmission for rep in verification.reports)


def test_report_series_refuses_a_capped_range_before_any_report():
    # n = 22..42 fit the diagonal branch, n = 43 does not: the series checks its top n
    # first, from its half-block dimension alone, then from its predicted peak
    for ns, message in [(range(22, 10**8), r"n=99999999, half-block dimension 2\^5e\+07,"),
                        (range(22, 44), "diagonal reduced report at n=43,")]:
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=message):
            tp.verify_reduction_bounds(qch.phase_flip(0.1), ns, 0.1)
        assert time.perf_counter() - start < 0.1


def test_reduced_report_beyond_sequence_cap():
    # 91,728 > 2^16 typical Kraus sequences: summed by type class, never enumerated
    start = time.perf_counter()
    rep = tp.verify_reduction_bounds(qch.depolarizing(0.3), (14,), 0.3).reports[0]
    assert time.perf_counter() - start < 1.0
    assert rep.length == 91728
    assert rep.counts_within_bound and rep.norm_within_bound


def test_reduced_transmission_lower_bound():
    # tr reduced >= subspace mass - (1 - typical mass)
    ch = qch.phase_flip(0.25)
    for n in (4, 8):
        for eps in (0.1, 0.2):
            rep = tp.verify_reduction_bounds(ch, (n,), eps).reports[0]
            out_mass = output_subspace(oracles.apply(ch, oracles.max_mixed(2)), n, eps).mass
            assert rep.transmission >= out_mass - (1.0 - rep.typical_transmission) - 1e-12


def test_verify_reduction_bounds_phase_flip():
    ver = tp.verify_reduction_bounds(qch.phase_flip(0.25), range(2, 11), 0.1)
    assert ver.counts_within_bounds and ver.norms_within_bounds
    assert len(ver.reports) == 9


def test_verify_reduction_bounds_identity_boundary():
    ver = tp.verify_reduction_bounds(qch.identity_channel(2), range(2, 7), 0.1)
    assert ver.counts_within_bounds and ver.norms_within_bounds
    for rep in ver.reports:
        assert rep.transmission == pytest.approx(1.0, abs=1e-12)
    assert ver.reduced_decay.fitted_rate is None       # no deviations to fit


def test_verify_reduction_bounds_huge_epsilon():
    # eps >= 1: everything typical; the reduction is projection only
    ver = tp.verify_reduction_bounds(qch.phase_flip(0.25), range(2, 7), 1.5)
    assert ver.counts_within_bounds and ver.norms_within_bounds
    for rep in ver.reports:
        assert rep.length == 2**rep.n
        assert rep.typical_transmission == pytest.approx(1.0, abs=1e-12)
        assert rep.transmission == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- achievable rates

def test_rate_table_decay_expected_flag():
    ch = qch.phase_flip(0.25)
    good = tp.achievable_rate_table(ch, 0.1, 0.01, range(6, 11))
    bad = tp.achievable_rate_table(ch, 0.5, 0.01, range(6, 11))
    assert good.geometric_decay_expected
    assert not bad.geometric_decay_expected
    ratios = [b.penalty_majorant / a.penalty_majorant
              for a, b in zip(good.rows, good.rows[1:])]
    assert all(r < 1.0 for r in ratios)
    bad_ratios = [b.penalty_majorant / a.penalty_majorant
                  for a, b in zip(bad.rows, bad.rows[1:])]
    assert all(r > 1.0 for r in bad_ratios)


def test_rate_table_identity_bound_approaches_one():
    table = tp.achievable_rate_table(qch.identity_channel(2), 0.5, 0.1, range(2, 15))
    bounds = [row.bound for row in table.rows]
    # code-dimension flooring makes the rise non-strict but never reverses it
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] > 0.89
    assert table.rows[-1].transmission == pytest.approx(1.0, abs=1e-12)


def test_rate_table_rejects_code_dim_beyond_floats():
    with pytest.raises(CapExceededError, match="code dimension"):
        tp.achievable_rate_table(qch.phase_flip(0.25), 1.0, 0.1, [2, 1024])


def test_rate_table_code_dims():
    table = tp.achievable_rate_table(qch.phase_flip(0.25), 0.5, 0.1, [2, 4, 6])
    assert [row.code_dim for row in table.rows] == [2, 4, 8]
    # block lengths from an iterator are read once
    assert tp.achievable_rate_table(qch.phase_flip(0.25), 0.5, 0.1, iter([2, 4, 6])) == table


def test_fidelity_chain_under_reduction_and_projection():
    # Kraus-sum entanglement fidelity at fixed pi_C never rises along
    # full -> typical -> typical-projected, on sampled codes up to n = 6.
    # (The computable bound p - ||D||_1 is NOT monotone along this chain:
    # the reduction exists precisely to improve it.)
    from qcap import random_coding as rc

    ch = qch.phase_flip(0.25)
    for n in (2, 4, 6):
        full = oracles.tensor_power(oracles.minimal_channel(ch), n)
        for eps in (0.1, 0.4):
            if tp.verify_reduction_bounds(ch, (n,), eps).reports[0].length == 0:
                continue
            typ_dense = typical_kraus_channel(ch, n, eps, project=False)
            red_dense = typical_kraus_channel(ch, n, eps, project=True)
            for i in range(10):
                rng = rc.sample_stream(99, n * 1000 + i)
                k = int(rng.integers(1, 5))
                pi_c = oracles.normalized_projector(oracles.haar_isometry(2**n, k, rng))
                fe_full = oracles.entanglement_fidelity(pi_c, full)
                fe_typ = oracles.entanglement_fidelity(pi_c, typ_dense)
                fe_red = oracles.entanglement_fidelity(pi_c, red_dense)
                assert fe_typ <= fe_full + 1e-10
                assert fe_red <= fe_typ + 1e-10


# ---------------------------------------------------------------- restricted info
# coherent information of the uniform density on a code subspace

def test_subspace_restricted_info_full_space():
    ch = qch.phase_flip(0.25)
    info = oracles.coherent_information(oracles.normalized_projector(np.eye(2)), ch)
    want = oracles.coherent_information(oracles.max_mixed(2), ch)
    assert info == pytest.approx(want, abs=1e-12)
    h2 = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert info == pytest.approx(1 - h2, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_subspace_restricted_info_pure_input_vanishes(seed):
    # rank-one input: output and environment entropies coincide
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    ch = qch.haar_random_channel(dim, dim, int(rng.integers(1, 4)), rng)
    code = oracles.haar_isometry(dim, 1, rng)
    info = oracles.coherent_information(oracles.normalized_projector(code), ch)
    assert info == pytest.approx(0.0, abs=1e-9)
