"""Kraus channel algebra, representations and information quantities."""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcap import channels as qch
from qcap import cli, linalg, serialize
from qcap import random_coding as rc
from qcap.errors import CapExceededError, InvariantViolationError
import oracles

H2 = lambda p: 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)

PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def amplitude_damping(gamma: float) -> qch.KrausChannel:
    a0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(a0, a1), name="amp_damp")


def half_identity() -> qch.KrausChannel:
    ops = (math.sqrt(0.5) * np.eye(2, dtype=complex),)
    return qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=ops)


# ---------------------------------------------------------------- construction

def test_rejects_overcomplete_family():
    ops = (np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(InvariantViolationError):
        qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=ops)


def test_rejects_empty_family():
    with pytest.raises(InvariantViolationError):
        qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=())


def test_overflowing_family_is_refused_without_warnings():
    # sum A^dagger A overflows to inf and nan; its Frobenius norm must not certify it
    op = np.array([[1e200, 1e200], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolationError, match="not trace-nonincreasing: defect inf"):
            qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(op,))


def test_trace_decreasing_is_accepted():
    ch = half_identity()
    assert not ch.trace_preserving


def test_channels_compare_by_identity():
    # a field-wise == would compare arrays (ValueError) and a frozen dataclass would hash
    # them (TypeError); equality of maps is oracles.channels_equal
    a, b = qch.phase_flip(0.1), qch.phase_flip(0.1)
    assert a == a and a != b and not (a == b)
    assert a in [b, a] and b not in [a] and len({a, b, a}) == 2
    assert hash(a) == hash(a) and {a: 1}[a] == 1
    assert oracles.channels_equal(a, b)


def test_kraus_stack_is_stored_once_and_read_only():
    # kraus_ops is the channel's one copy of its operators, a read-only stack
    ops = [math.sqrt(0.5) * np.eye(2, dtype=complex), math.sqrt(0.5) * np.diag([1.0, -1.0])]
    before = [a.copy() for a in ops]
    ch = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=tuple(ops))
    stack = ch.kraus_ops
    assert isinstance(stack, np.ndarray) and stack.base is None and ch.kraus_ops is stack
    assert stack.shape == (2, 2, 2) and stack.dtype == np.complex128 and len(ch) == 2
    assert not stack.flags.writeable and not stack[0].flags.writeable
    assert not any(np.shares_memory(stack, op) for op in ops)
    assert all(np.array_equal(a, op) for a, op in zip(stack, before))
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 2.0
    ops[0][0, 0] = 7.0                   # the caller's arrays are not the channel's
    assert np.array_equal(ch.kraus_ops[0], before[0])
    # a stack passed in is copied too
    again = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=stack)
    assert not np.shares_memory(again.kraus_ops, stack)


# 64 operators I/8 of 64 x 64, a 4 MiB stack whose sum A^dagger A is exactly 1
def eighths() -> np.ndarray:
    return np.tile(np.eye(64, dtype=np.complex128) / 8, (64, 1, 1))


def traced_peak(step) -> int:
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("entry, match", [(np.nan, "non-finite entries"),
                                          (1.0, "not trace-nonincreasing")],
                         ids=["non-finite", "overcomplete"])
def test_refused_stack_is_never_copied(entry, match):
    # a stack is checked where it lies: Delta, a block and an eigensolve, far below one stack
    stack = eighths()
    stack[0, 0, 0] = entry

    def build():
        with pytest.raises(InvariantViolationError, match=match):
            qch.KrausChannel(input_dim=64, output_dim=64, kraus_ops=stack)

    assert traced_peak(build) < stack.nbytes


def test_sequence_is_stacked_once():
    ops = list(eighths())
    built = []
    peak = traced_peak(lambda: built.append(qch.KrausChannel(input_dim=64, output_dim=64,
                                                             kraus_ops=ops)))
    stack = built[0].kraus_ops
    assert stack.base is None and not any(np.shares_memory(stack, op) for op in ops)
    assert stack.nbytes < peak < 2 * stack.nbytes, peak / stack.nbytes


@pytest.mark.parametrize("ops, wrong", [
    (np.eye(2, dtype=complex), (2,)),                         # a 2-d array: its rows
    (np.zeros((2, 3, 2), dtype=complex), (3, 2)),             # a stack of 3 x 2 operators
    ((np.eye(2), np.eye(3)), (3, 3)),                         # a ragged sequence
], ids=["2-d", "stack", "ragged"])
def test_operator_shape_is_checked_before_stacking(ops, wrong):
    with pytest.raises(InvariantViolationError,
                       match=re.escape(f"Kraus operator shape {wrong} != (2, 2)")):
        qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=ops)


# ---------------------------------------------------------------- blocked passes

# channels whose Kraus passes take more than one of `linalg._blocks`
_BLOCKED_SPECS = [
    "haar_random:37,45,3,2", "haar_random:100,100,2,9", "haar_random:8,200,3,4",
    "random_unitary:256,2,505",
    # 33 = 2 * 16 + 1: the last row block takes the one row left over
    "haar_random:33,17,40,1",
    # 70 operators: the Gram matrix in three blocks
    "haar_random:4,4,70,3",
]


@pytest.mark.parametrize("spec", _BLOCKED_SPECS)
def test_blocked_kraus_passes_equal_one_product_bit_for_bit(spec):
    # each pass over the stack, formed in blocks of output rows or columns, gives the
    # bits of its one-product form
    ch = cli._parse_builtin(f"builtin:{spec}", 1)
    n, mp, m = len(ch), ch.output_dim, ch.input_dim
    assert max(len(linalg._blocks(d)) for d in (n, mp, m)) >= 2
    # Delta, N(pi) and the Gram matrix: each one's lower triangle, which eigh and eigvalsh
    # read, and zeros above it, with the norm of the Hermitian matrix it holds
    delta = qch._lower_product(ch.kraus_ops.reshape(-1, m))
    delta[np.diag_indices(m)] -= 1.0
    for got, want in [(delta, oracles.one_product_defect(ch.kraus_ops)),
                      (qch._uniform_output(ch.kraus_ops), oracles.one_product_uniform_output(ch)),
                      (qch.gram_matrix(ch), oracles.one_product_gram(ch))]:
        assert np.array_equal(got, np.tril(want))
        assert qch._lower_norm_sq(got) == oracles.tril_norm_sq(want)
        assert np.array_equal(got, np.tril(want))               # the norm puts the diagonal back


@pytest.mark.parametrize("spec", _BLOCKED_SPECS)
def test_spectra_of_the_triangles_equal_those_of_the_one_product_matrices(spec):
    # the minimal Kraus weights and N(pi)'s one spectrum, read from the lower triangles,
    # are eigh's and eigvalsh's of the whole one-product matrices, bit for bit
    ch = cli._parse_builtin(f"builtin:{spec}", 1)
    with linalg.one_blas_thread():
        gram = np.linalg.eigh(oracles.one_product_gram(ch))[0][::-1]
        out = np.linalg.eigvalsh(oracles.one_product_uniform_output(ch))
    assert np.array_equal(qch.minimal_kraus(ch)[1], gram[qch._nonzero(gram)] / ch.input_dim)
    assert np.array_equal(qch._output_spectrum(qch._uniform_output(ch.kraus_ops)),
                          linalg._clamped_spectrum(out))


# ---------------------------------------------------------------- completeness certificate

def assert_decisions_match_eigvalsh(ops, input_dim, output_dim):
    """Construction accepts, and records `trace_preserving`, as the eigvalsh oracle decides.

    Returns the accepted channel, or None for a rejected family.
    """
    lo, hi = oracles.completeness_defect_bounds(np.array(ops, dtype=np.complex128))
    try:
        ch = qch.KrausChannel(input_dim=input_dim, output_dim=output_dim, kraus_ops=tuple(ops))
    except InvariantViolationError:
        assert hi > qch.COMPLETENESS_ATOL, (lo, hi)
        return None
    assert hi <= qch.COMPLETENESS_ATOL, (lo, hi)
    assert ch.trace_preserving == (max(abs(lo), abs(hi)) <= qch.COMPLETENESS_ATOL), (lo, hi)
    return ch


def isometry_blocks(seed, m, n, extra):
    """Kraus blocks of a Haar isometry from C^m into n output blocks of dimension out."""
    out = -(-m // n) + extra
    v = linalg.haar_isometry(n * out, m, np.random.default_rng(seed))
    return [v[k * out:(k + 1) * out] for k in range(n)], out


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 64), n=st.integers(1, 4),
       extra=st.integers(0, 2), delta=st.sampled_from([1e-11, 1e-10, 1e-9]),
       sign=st.sampled_from([-1.0, 1.0]), power=st.sampled_from([0.5, 1.0]))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_certificate_decides_scaled_isometries_as_eigvalsh(seed, m, n, extra, delta, sign, power):
    # sum A^dagger A = (1 +- delta)^(2 power): power 1/2 puts the defect at the tolerance
    ops, out = isometry_blocks(seed, m, n, extra)
    scale = (1.0 + sign * delta) ** power
    assert_decisions_match_eigvalsh([scale * a for a in ops], m, out)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 32), n=st.integers(1, 4),
       extra=st.integers(0, 2), scale=st.floats(0.0, 1.0), drop=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_certificate_decides_trace_decreasing_families_as_eigvalsh(seed, m, n, extra, scale, drop):
    ops, out = isometry_blocks(seed, m, n, extra)
    if drop and n > 1:
        ops = ops[1:]
    assert_decisions_match_eigvalsh([scale * a for a in ops], m, out)


def rank_one_excess(m, t):
    """One operator with sum A^dagger A = 1 + t |psi><psi|, psi a fixed unit vector."""
    psi = linalg.haar_isometry(m, 1, np.random.default_rng(3))
    return [np.eye(m) + (math.sqrt(1.0 + t) - 1.0) * (psi @ psi.conj().T)]


@pytest.mark.parametrize("ops, m", [
    ([np.eye(64)], 64),
    (rank_one_excess(8, 1.0001e-10), 8),
    (rank_one_excess(8, -1.0001e-10), 8),
    (rank_one_excess(8, 1e-10), 8),
    (rank_one_excess(8, -1e-10), 8),
    ([np.diag([math.sqrt(1.0 + 1e-10), 1.0])], 2),
], ids=["identity:64", "excess-above", "deficit-above", "excess-boundary", "deficit-boundary",
        "diagonal-boundary"])
def test_certificate_decides_explicit_families_as_eigvalsh(ops, m):
    assert_decisions_match_eigvalsh(ops, m, m)


def test_complete_families_skip_the_eigensolve(monkeypatch, rng):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    for ch in (qch.identity_channel(64), qch.haar_random_channel(16, 8, 4, rng),
               qch.depolarizing(0.3, 3)):
        assert ch.trace_preserving
    assert calls == []
    # a trace-decreasing family falls back once, at construction
    assert not half_identity().trace_preserving
    assert calls == [(2, 2)]


def derived_recovery(seed, m, out, n, k):
    rng = np.random.default_rng(seed)
    ch = qch.haar_random_channel(m, out, n, rng)
    return oracles.transpose_recovery(linalg.haar_isometry(m, k, rng), ch)


def derived_haar(seed, *dims):
    return qch.haar_random_channel(*dims, np.random.default_rng(seed))


def isometry_channel(v, env_dim):
    """The channel whose Kraus stack is a map V: Q -> E (x) Q' read as env_dim blocks of rows."""
    rows, m = v.shape
    return qch.KrausChannel(input_dim=m, output_dim=rows // env_dim,
                            kraus_ops=v.reshape(env_dim, rows // env_dim, m))


def derived_round_trip(ch):
    return serialize.channel_from_dict(oracles.channel_to_dict(ch))


# Channels built from other channels, trace-preserving and trace-decreasing ones.
DERIVED_CHANNELS = {
    "diagonalize": lambda: oracles.minimal_channel(derived_haar(1, 3, 3, 3)),
    "diagonalize-decreasing": lambda: oracles.minimal_channel(
        oracles.reduce_channel(derived_haar(2, 3, 3, 3), [0, 2])),
    "minimal": lambda: oracles.minimal_channel(derived_haar(3, 4, 2, 4)),
    "minimal-decreasing": lambda: oracles.minimal_channel(half_identity()),
    "reduce-all": lambda: oracles.reduce_channel(amplitude_damping(0.3), [1, 0]),
    "reduce": lambda: oracles.reduce_channel(derived_haar(4, 3, 5, 4), [0, 2]),
    "tensor-power": lambda: oracles.tensor_power(derived_haar(5, 2, 2, 3), 3),
    "tensor-power-decreasing": lambda: oracles.tensor_power(half_identity(), 2),
    "isometry": lambda: isometry_channel(linalg.haar_isometry(6, 2, np.random.default_rng(6)), 3),
    "isometry-decreasing": lambda: isometry_channel(
        0.9 * linalg.haar_isometry(6, 2, np.random.default_rng(7)), 2),
    "transpose-recovery": lambda: derived_recovery(8, 3, 3, 2, 2),
    "transpose-recovery-decreasing": lambda: derived_recovery(10, 2, 4, 1, 1),
    "deserialized": lambda: derived_round_trip(derived_haar(9, 3, 2, 3)),
    "deserialized-decreasing": lambda: derived_round_trip(half_identity()),
}


@pytest.mark.parametrize("derive", DERIVED_CHANNELS.values(), ids=DERIVED_CHANNELS.keys())
def test_derived_channels_carry_the_oracle_decision(derive):
    ch = derive()
    rebuilt = assert_decisions_match_eigvalsh(ch.kraus_ops, ch.input_dim, ch.output_dim)
    assert ch.trace_preserving == rebuilt.trace_preserving


# ---------------------------------------------------------------- apply

def test_apply_identity(rng):
    ch = qch.identity_channel(3)
    rho = oracles.random_density(3, rng)
    assert np.allclose(oracles.apply(ch, rho), rho, atol=1e-12)


def test_apply_phase_flip_on_plus():
    # hand oracle: |+><+| keeps weight 1-p, |-><-| gets weight p
    ch = qch.phase_flip(0.25)
    out = oracles.apply(ch, PLUS)
    assert np.allclose(out, 0.75 * PLUS + 0.25 * MINUS, atol=1e-12)


def test_apply_trace_decreasing_scaling():
    out = oracles.apply(half_identity(), oracles.max_mixed(2))
    assert np.real(np.trace(out)) == pytest.approx(0.5)


def test_transmission_identity():
    out = oracles.apply(qch.identity_channel(4), oracles.max_mixed(4))
    assert np.real(np.trace(out)) == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_apply_positivity_and_trace(seed):
    rng = np.random.default_rng(seed)
    ch = qch.haar_random_channel(3, 3, 2, rng)
    sub = oracles.reduce_channel(ch, [0])
    rho = oracles.random_density(3, rng)
    for c in (ch, sub):
        out = oracles.apply(c, rho)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10
        assert np.real(np.trace(out)) <= 1.0 + 1e-10


def oracle_channels(rng):
    """Rectangular, trace-decreasing and single-operator families, out != in among them."""
    wide = qch.haar_random_channel(3, 5, 4, rng)
    tall = qch.haar_random_channel(6, 2, 4, rng)
    single = qch.KrausChannel(input_dim=3, output_dim=4,
                              kraus_ops=(0.8 * linalg.haar_isometry(4, 3, rng),))
    return [wide, tall, oracles.reduce_channel(wide, [0, 2]), oracles.reduce_channel(tall, [1]),
            single, half_identity(), amplitude_damping(0.3)]


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_apply_matches_operator_loop(rng):
    for ch in oracle_channels(rng):
        rho = oracles.random_density(ch.input_dim, rng)
        expected = np.zeros((ch.output_dim, ch.output_dim), dtype=complex)
        for a in ch.kraus_ops:
            expected += a @ rho @ a.conj().T
        assert oracles.apply(ch, rho).shape == expected.shape
        assert rel_err(oracles.apply(ch, rho), expected) <= 1e-12


def test_completeness_defect_matches_operator_loop(rng):
    for ch in oracle_channels(rng):
        total = np.zeros((ch.input_dim, ch.input_dim), dtype=complex)
        for a in ch.kraus_ops:
            total += a.conj().T @ a
        w = np.linalg.eigvalsh(total - np.eye(ch.input_dim))
        lo, hi = oracles.completeness_defect_bounds(ch.kraus_ops)
        # relative to ||sum A^dagger A||, since the defect itself may be ~0
        scale = np.linalg.norm(total, 2)
        assert abs(lo - w[0]) <= 1e-12 * scale and abs(hi - w[-1]) <= 1e-12 * scale


# ---------------------------------------------------------------- Stinespring

def test_haar_isometry_gives_trace_preserving(rng):
    v = linalg.haar_isometry(6, 2, rng)
    ch = isometry_channel(v, env_dim=3)
    lo, hi = oracles.completeness_defect_bounds(ch.kraus_ops)
    assert ch.trace_preserving and max(abs(lo), abs(hi)) <= 1e-10


# ---------------------------------------------------------------- representations

def test_diagonalize_keeps_already_diagonal():
    ch = qch.phase_flip(0.3)
    out, weights = qch.minimal_kraus(ch)
    assert out is ch.kraus_ops
    assert weights == pytest.approx([0.7, 0.3], abs=1e-15)


def test_diagonalize_projector_pair():
    # {(1+Z)/2, (1-Z)/2} has off-diagonal Gram zero already; mix it by hand
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    mixed = ((p0 + p1) / math.sqrt(2), (p0 - p1) / math.sqrt(2))
    ch = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=mixed)
    out = oracles.minimal_channel(ch)
    gram = qch.gram_matrix(out)
    assert np.max(np.abs(gram - np.diag(np.diagonal(gram)))) <= 1e-10
    assert oracles.channels_equal(ch, out)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_diagonalize_preserves_action(seed):
    rng = np.random.default_rng(seed)
    ch = qch.haar_random_channel(3, 3, 3, rng)
    out = oracles.minimal_channel(ch)
    gram = qch.gram_matrix(out)
    assert np.max(np.abs(gram - np.diag(np.diagonal(gram)))) <= 1e-10
    assert oracles.channels_equal(ch, out)
    # one Gram spectrum decides the length wherever it is read
    assert qch.classify(ch).length == len(out)


def test_minimal_length_identity():
    assert qch.classify(qch.identity_channel(5)).length == 1


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
def test_minimal_length_phase_flip(p):
    assert qch.classify(qch.phase_flip(p)).length == 2


def test_minimal_length_duplicated_operator(rng):
    a = linalg.haar_isometry(2, 2, rng)
    ops = (a / math.sqrt(2), a / math.sqrt(2))
    ch = qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=ops)
    assert qch.classify(ch).length == 1
    stack, weights = qch.minimal_kraus(ch)
    assert len(stack) == 1 and weights == pytest.approx([1.0], abs=1e-12)
    assert oracles.channels_equal(oracles.minimal_channel(ch), ch)


def test_tensor_power_base_cases():
    ch = qch.phase_flip(0.25)
    assert oracles.tensor_power(ch, 1) is ch
    ident3 = oracles.tensor_power(qch.identity_channel(2), 3)
    assert oracles.channels_equal(ident3, qch.identity_channel(8))


def test_tensor_power_transmission_product_rule():
    ch = half_identity()
    squared = oracles.tensor_power(ch, 2)
    single = np.real(np.trace(oracles.apply(ch, oracles.max_mixed(2))))
    double = np.real(np.trace(oracles.apply(squared, oracles.max_mixed(4))))
    assert double == pytest.approx(single**2, abs=1e-12)


def test_tensor_power_cap():
    with pytest.raises(CapExceededError):
        oracles.tensor_power(qch.phase_flip(0.25), 20)


def test_minimal_length_multiplicative():
    ch = qch.phase_flip(0.25)
    assert qch.classify(oracles.tensor_power(ch, 3)).length == 2**3


def test_reduce_full_set_is_identity_action(rng):
    ch = qch.haar_random_channel(2, 2, 2, rng)
    assert oracles.channels_equal(oracles.reduce_channel(ch, [0, 1]), ch)


def test_reduce_phase_flip_transmission():
    ch = oracles.reduce_channel(qch.phase_flip(0.3), [0])
    assert np.real(np.trace(oracles.apply(ch, oracles.max_mixed(2)))) == pytest.approx(0.7)


def test_reduce_rejects_empty_or_repeated():
    ch = qch.phase_flip(0.3)
    with pytest.raises(ValueError):
        oracles.reduce_channel(ch, [])
    with pytest.raises(ValueError):
        oracles.reduce_channel(ch, [0, 0])


# ---------------------------------------------------------------- information

def test_entropy_exchange_identity(rng):
    rho = oracles.random_density(3, rng)
    assert oracles.entropy_exchange(rho, qch.identity_channel(3)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5])
def test_entropy_exchange_phase_flip(p):
    got = oracles.entropy_exchange(oracles.max_mixed(2), qch.phase_flip(p))
    assert got == pytest.approx(H2(p), abs=1e-12)


def weyl_ops(dim: int) -> list[np.ndarray]:
    # trace-orthogonal unitary family; mixtures of these are uniform channels
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(dim) for b in range(dim)]


def test_entropy_exchange_uniform_channel():
    # equal-probability orthogonal-unitary mixture: S_e at the uniform input is log2(count)
    ch = oracles.unitary_mixture(weyl_ops(4)[:3])
    got = oracles.entropy_exchange(oracles.max_mixed(4), ch)
    assert got == pytest.approx(math.log2(3), abs=1e-9)


def test_entropy_exchange_rejects_trace_decreasing():
    with pytest.raises(InvariantViolationError):
        oracles.entropy_exchange(oracles.max_mixed(2), half_identity())


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_entropy_exchange_purification_cross_check(seed, dim):
    rng = np.random.default_rng(seed)
    ch = qch.haar_random_channel(dim, dim, int(rng.integers(1, 4)), rng)
    rho = oracles.random_density(dim, rng)
    a = oracles.entropy_exchange(rho, ch)
    b = oracles.entropy_exchange_via_purification(rho, ch)
    assert a == pytest.approx(b, abs=1e-9)


def test_coherent_information_identity():
    got = oracles.coherent_information(oracles.max_mixed(2), qch.identity_channel(2))
    assert got == pytest.approx(1.0, abs=1e-10)


def test_coherent_information_phase_flip():
    got = oracles.coherent_information(oracles.max_mixed(2), qch.phase_flip(0.25))
    assert got == pytest.approx(1 - H2(0.25), abs=1e-12)
    assert got == pytest.approx(0.188722, abs=1e-6)


def test_coherent_information_uniform_unital():
    ch = oracles.unitary_mixture(weyl_ops(4)[:2])
    got = oracles.coherent_information(oracles.max_mixed(4), ch)
    assert got == pytest.approx(math.log2(4) - math.log2(2), abs=1e-9)


# ---------------------------------------------------------------- classify

def test_classify_identity():
    rep = qch.classify(qch.identity_channel(2))
    assert rep.is_trace_preserving and rep.is_unital and rep.is_uniform
    assert rep.length == 1
    assert rep.coherent_information == pytest.approx(1.0, abs=1e-10)
    assert rep.coherent_information == pytest.approx(
        rep.output_entropy - rep.entropy_exchange, abs=1e-10)


def test_classify_random_unitary_mixture(rng):
    # equal probabilities with trace-orthogonal unitaries: unital and uniform
    u = linalg.haar_isometry(2, 2, rng)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = qch.classify(oracles.unitary_mixture([u, u @ x]))
    assert rep.is_unital and rep.is_uniform and rep.length == 2


def test_classify_generic_haar_mixture_is_unital_not_uniform(rng):
    # generic pair: tr(U1^dagger U2) != 0, so the diagonal Gram weights differ
    us = [linalg.haar_isometry(2, 2, rng) for _ in range(2)]
    rep = qch.classify(oracles.unitary_mixture(us))
    assert rep.is_unital and not rep.is_uniform


def test_classify_phase_flip():
    rep = qch.classify(qch.phase_flip(0.3))
    assert rep.is_unital and not rep.is_uniform


def test_classify_amplitude_damping_not_unital():
    rep = qch.classify(amplitude_damping(0.4))
    assert rep.is_trace_preserving and not rep.is_unital


def test_classify_trace_decreasing_has_no_entropies():
    rep = qch.classify(half_identity())
    assert not rep.is_trace_preserving
    assert rep.output_entropy is None and rep.coherent_information is None


def test_classify_length_from_its_one_gram_spectrum(monkeypatch, rng):
    a = linalg.haar_isometry(2, 2, rng)
    channels = [
        qch.identity_channel(3), qch.phase_flip(0.3), amplitude_damping(0.4), half_identity(),
        qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(a / math.sqrt(2),) * 2),
        qch.KrausChannel(input_dim=2, output_dim=2, kraus_ops=(np.eye(2), np.zeros((2, 2)))),
        qch.haar_random_channel(2, 3, 4, rng),
    ]
    spy = mock.Mock(wraps=qch.gram_matrix)
    monkeypatch.setattr(qch, "gram_matrix", spy)
    assert [qch.classify(ch).length for ch in channels] == [1, 2, 2, 1, 1, 1, 4]
    assert spy.call_count == len(channels)


def test_minimal_kraus_weights_are_the_gram_eigenvalues(rng):
    ch = qch.haar_random_channel(2, 3, 4, rng)
    spy = mock.Mock(wraps=qch.gram_matrix)
    with mock.patch.object(qch, "gram_matrix", spy):
        weights = qch.minimal_kraus(ch)[1]
    assert spy.call_count == 1
    want = np.linalg.eigvalsh(qch.gram_matrix(ch))[::-1] / ch.input_dim
    assert np.allclose(weights, want, rtol=0, atol=1e-14)
    assert list(weights) == sorted(weights, reverse=True)
    base = oracles.minimal_channel(ch)  # the recombined family is diagonal, with those weights
    assert np.allclose(qch.gram_matrix(base), np.diag(weights * ch.input_dim), atol=1e-12)
    assert oracles.channels_equal(base, ch)


# ---------------------------------------------------------------- constructors

@pytest.mark.parametrize("spec, seed, oracle", [
    ("identity:5", 1, lambda rng: [np.eye(5, dtype=np.complex128)]),
    ("phase_flip:0.25", 1, lambda rng: [math.sqrt(0.75) * np.eye(2, dtype=np.complex128),
                                        math.sqrt(0.25) * np.diag([1.0, -1.0]).astype(complex)]),
    ("random_unitary:4,3,7", 7, lambda rng: oracles.scaled_unitaries(4, 3, rng)),
    ("random_unitary:256,2,505", 505, lambda rng: oracles.scaled_unitaries(256, 2, rng)),
    ("haar_random:3,5,4,2", 2, lambda rng: linalg.haar_isometry(20, 3, rng).reshape(4, 5, 3)),
])
def test_builtin_stacks_equal_the_per_operator_lists_bit_for_bit(spec, seed, oracle):
    # each builtin's Kraus stack has the bits of its operators formed one at a time
    want = np.array(oracle(rc.sample_stream(seed, cli.CHANNEL_STREAM_INDEX)))
    assert cli._parse_builtin(f"builtin:{spec}", 1).kraus_ops.tobytes() == want.tobytes()


@pytest.mark.parametrize("p, dim", [(0.3, 2), (0.3, 3), (0.2, 7), (0.3, 28)])
def test_depolarizing_stack_equals_the_weyl_operators(p, dim):
    # X^a Z^b is filled in as a phased permutation with the clock powers taken as
    # repeated products; matrix_power's squarings round some powers differently past dim 3
    got = cli._parse_builtin(f"builtin:depolarizing:{p},{dim}", 1).kraus_ops
    want = np.array(oracles.weyl_kraus_ops(p, dim))
    assert np.max(np.abs(got - want)) <= (0.0 if dim <= 3 else 4e-17)


@pytest.mark.parametrize("build", [
    lambda rng: qch.identity_channel(0),
    lambda rng: qch.depolarizing(0.3, 0),
    lambda rng: qch.random_unitary_channel(0, 2, rng),
    lambda rng: qch.random_unitary_channel(4, 0, rng),
    lambda rng: qch.haar_random_channel(0, 2, 2, rng),
    lambda rng: qch.haar_random_channel(2, 0, 2, rng),
    lambda rng: qch.haar_random_channel(2, 2, 0, rng),
], ids=["identity", "depolarizing", "random_unitary-dim", "random_unitary-count",
        "haar_random-in", "haar_random-out", "haar_random-count"])
def test_constructors_refuse_sizes_below_one(rng, build):
    with pytest.raises(ValueError, match="channel needs sizes >= 1, got"):
        build(rng)


def test_depolarizing_cap_is_checked_before_any_operator(monkeypatch):
    # its 256 operators alone hold 2^16 entries: refused before any is formed
    monkeypatch.setattr(linalg, "ENTRY_CAP", 1 << 16)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="depolarizing channel of 256 16 x 16"):
            qch.depolarizing(0.3, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("build, largest", [
    (lambda size, rng: qch.identity_channel(size), 4375),
    (lambda size, rng: qch.depolarizing(0.3, size), 72),
    (lambda size, rng: qch.random_unitary_channel(size, 2, rng), 3413),
    (lambda size, rng: qch.random_unitary_channel(64, size, rng), 7280),
    (lambda size, rng: qch.haar_random_channel(64, 64, size, rng), 5460),
    (lambda size, rng: qch.haar_random_channel(1, size, 16, rng), 1397930),
], ids=["identity:M", "depolarizing:P,M", "random_unitary:M,2", "random_unitary:64,N",
        "haar_random:64,64,N", "haar_random:1,M',16"])
def test_largest_builtin_sizes_accepted_by_the_cap(monkeypatch, rng, build, largest):
    # the README's largest accepted sizes, decided by each constructor's own
    # `_check_build`; an accepted build stops right after it, before it allocates
    class Accepted(Exception):
        pass

    check = qch._check_build

    def check_only(*args, **sizes):
        check(*args, **sizes)
        raise Accepted

    monkeypatch.setattr(qch, "_check_build", check_only)
    with pytest.raises(Accepted):
        build(largest, rng)
    with pytest.raises(CapExceededError):
        build(largest + 1, rng)


def test_phase_flip_zero_is_identity():
    assert oracles.channels_equal(qch.phase_flip(0.0), qch.identity_channel(2))


def test_depolarizing_full_noise(rng):
    ch = qch.depolarizing(1.0)
    for _ in range(5):
        rho = oracles.random_density(2, rng)
        assert np.allclose(oracles.apply(ch, rho), oracles.max_mixed(2), atol=1e-12)


def test_depolarizing_partial(rng):
    p = 0.3
    ch = qch.depolarizing(p)
    rho = oracles.random_density(2, rng)
    want = (1 - p) * rho + p * oracles.max_mixed(2)
    assert np.allclose(oracles.apply(ch, rho), want, atol=1e-12)


def test_depolarizing_general_dim(rng):
    ch = qch.depolarizing(0.5, dim=3)
    rho = oracles.random_density(3, rng)
    want = 0.5 * rho + 0.5 * oracles.max_mixed(3)
    assert np.allclose(oracles.apply(ch, rho), want, atol=1e-12)


def test_random_unitary_mixture_length(rng):
    us = [linalg.haar_isometry(4, 4, rng) for _ in range(2)]
    ch = oracles.unitary_mixture(us)
    assert qch.classify(ch).length == 2


def test_make_channel_haar_random(rng):
    ch = qch.haar_random_channel(2, 2, 2, rng)
    assert ch.trace_preserving
