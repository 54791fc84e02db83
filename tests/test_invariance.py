"""Every uniform-input quantity of a channel is unchanged by unitary maps of it.

The maps are N -> N(U_in^dagger . U_in), N -> U_out N(.) U_out^dagger (Kraus
operators A_k U_in^dagger and U_out A_k) and the Kraus recombination
A_k -> sum_l u_kl A_l, which keeps the map itself.  Each leaves the uniform
input pi, the spectrum of N(pi), the Kraus weights and the Gram spectrum
alone, so `classify`, the closed forms and the reduced reports must agree;
they reach them through N(pi), the Gram matrix, the minimal Kraus family,
the output eigenbasis and the group factors, so a wrong basis or a
basis-dependent branch shows here.  Lengths and flags must agree exactly,
floats to rounding.  Monte Carlo estimates of a mapped channel meet other
codes, so they agree within 4 sigma.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qcap import channels as qch
from qcap import linalg
from qcap import random_coding as rc
from qcap import typicality as tp

MAPS = ("input", "output", "kraus")


def mapped(ch: qch.KrausChannel, which: str, rng: np.random.Generator) -> qch.KrausChannel:
    ops = ch.kraus_ops
    if which == "input":
        ops = ops @ linalg.haar_isometry(ch.input_dim, ch.input_dim, rng).conj().T
    elif which == "output":
        ops = linalg.haar_isometry(ch.output_dim, ch.output_dim, rng) @ ops
    else:
        ops = np.einsum("kl,lab->kab", linalg.haar_isometry(len(ch), len(ch), rng), ops)
    return qch.KrausChannel(input_dim=ch.input_dim, output_dim=ch.output_dim, kraus_ops=ops)


@st.composite
def channels(draw):
    kind = draw(st.sampled_from(["haar", "phase_flip", "depolarizing"]))
    if kind == "phase_flip":
        return qch.phase_flip(0.25)
    if kind == "depolarizing":
        return qch.depolarizing(0.3)
    m, mp = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(-(-m // mp), 4))
    return qch.haar_random_channel(m, mp, n, np.random.default_rng(draw(st.integers(0, 2**32))))


def assert_same(a, b):
    """Equal record fields: ints and flags exactly, floats within 1e-12 relative."""
    for field in a._fields:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, float):
            # S_e of a one-operator family is 0 up to rounding
            assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-14), (field, x, y)
        else:
            assert x == y, (field, x, y)


@given(ch=channels(), which=st.sampled_from(MAPS), seed=st.integers(0, 2**32),
       n=st.integers(1, 8), eps=st.sampled_from([0.1, 0.3]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_uniform_input_quantities_are_unitarily_invariant(ch, which, seed, n, eps):
    other = mapped(ch, which, np.random.default_rng(seed))
    assert_same(qch.classify(ch), qch.classify(other))
    for code_dim in range(1, ch.input_dim + 1) if ch.input_dim > 1 else ():
        assert_same(rc.closed_forms(ch, code_dim), rc.closed_forms(other, code_dim))
    report, = tp.verify_reduction_bounds(ch, (n,), eps).reports
    other_report, = tp.verify_reduction_bounds(other, (n,), eps).reports
    assert_same(report, other_report)


def test_ensemble_estimates_are_unitarily_invariant():
    ch = qch.haar_random_channel(3, 3, 2, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    other = ch
    for which in MAPS:
        other = mapped(other, which, rng)
    for a, b in zip(rc.mc_code_values(ch, 2, 400, 11), rc.mc_code_values(other, 2, 400, 11)):
        assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.std_error, b.std_error), (a, b)
