"""Acceptance criteria for the whole package, one test per criterion.

Every criterion runs at its stated tolerance and prints one PASS/FAIL line;
run with `pytest tests/test_acceptance.py -v -s` to see the lines directly.
Statistical checks use 4 standard errors on seeded, reproducible streams.
"""

import math

import numpy as np
import pytest

from qcap import channels as qch
from qcap import codes, linalg
from qcap import random_coding as rc
from qcap import typicality as tp
import oracles
from test_cli import run_with_blas_threads
from test_codes import bound_report


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number:2d} ({name}): {status}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_criterion_01_bound_form_equivalence():
    worst = 0.0
    for i in range(200):
        rng = rc.sample_stream(101, i)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, m + 1))
        out = int(rng.integers(2, 7))
        if out * n < m:
            out = m
        ch = qch.haar_random_channel(m, out, n, rng)
        if n > 1 and rng.integers(2):
            keep = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            ch = oracles.reduce_channel(ch, keep)
        code = linalg.haar_isometry(m, k, rng)
        rep = bound_report(code, ch)
        worst = max(worst, abs(rep.bound_kraus - rep.bound_states))
    _verdict(1, "bound-form equivalence", worst <= 1e-9, f"worst gap {worst:.3e}")


def test_criterion_02_identity_channel_exactness():
    ok = True
    detail = ""
    for m in range(1, 9):
        ch = qch.identity_channel(m)
        for k in range(1, m + 1):
            code = linalg.haar_isometry(m, k, rc.sample_stream(202, m * 16 + k))
            dev = codes._deviation_batch(code[None], ch)[2][0]
            rep = bound_report(code, ch)
            good = (np.linalg.norm(dev) <= 1e-12
                    and abs(rep.bound_kraus - 1.0) <= 1e-12
                    and abs(rep.bound_states - 1.0) <= 1e-12)
            if not good:
                ok = False
                detail = f"M={m} K={k}"
    _verdict(2, "identity-channel exactness", ok, detail)


def test_criterion_03_exact_ensemble_average():
    battery = [
        qch.phase_flip(0.1),
        qch.phase_flip(0.25),
        qch.phase_flip(0.5),
        qch.depolarizing(0.3),
        qch.haar_random_channel(4, 4, 3, rc.sample_stream(303, 0)),
    ]
    ok = True
    detail = ""
    for ch_index, ch in enumerate(battery):
        m = ch.input_dim
        for k in (2, 3):
            if k > m:
                continue
            exact = rc.closed_forms(ch, k).deviation_sq
            est, _ = rc.mc_code_values(ch, k, 10000, master_seed=303_000 + ch_index)
            tol = max(4.0 * est.std_error, 1e-12)
            if abs(est.mean - exact) > tol:
                ok = False
                detail = f"{ch.name} K={k}: |{est.mean:.6g} - {exact:.6g}| > {tol:.3g}"
        # degenerate full-space ensemble has no randomness at all
        direct = bound_report(np.eye(m), ch).deviation_frobenius_sq
        if abs(rc.closed_forms(ch, m).deviation_sq - direct) > 1e-12:
            ok = False
            detail = f"{ch.name} degenerate K=M"
    _verdict(3, "exact ensemble average", ok, detail)


def test_criterion_04_haar_moments():
    ok = True
    detail = ""
    for dim in (2, 3, 5):
        report = rc.haar_moment_suite(dim, 100_000, master_seed=404_000 + dim)
        if not report.all_pass:
            ok = False
            failed = [c.name for c in report.checks if not c.passed]
            detail = f"M={dim}: {failed}"
    _verdict(4, "Haar moment suite", ok, detail)


def test_criterion_05_hamming_attainability():
    ch = qch.random_unitary_channel(256, 2, rc.sample_stream(505, 0))
    target = 1.0 - math.sqrt(2 * 2 / 256)
    assert target == pytest.approx(0.875)
    analytic = rc.closed_forms(ch, 2).fidelity_bound
    _, est = rc.mc_code_values(ch, 2, 200, master_seed=505)
    ok = (abs(analytic - target) <= 1e-9
          and est.mean >= target - 4.0 * est.std_error)
    _verdict(5, "quantum Hamming attainability", ok,
             f"mean {est.mean:.6f}, se {est.std_error:.2e}, target {target}")


def test_criterion_06_coherent_information_closed_forms():
    ch = qch.phase_flip(0.25)
    pi = oracles.max_mixed(2)
    h = binary_entropy(0.25)
    ok = (abs(oracles.entropy_exchange(pi, ch) - h) <= 1e-9
          and abs(oracles.coherent_information(pi, ch) - (1 - h)) <= 1e-9)
    worst = 0.0
    for i in range(50):
        rng = rc.sample_stream(606, i)
        dim = int(rng.integers(2, 7))
        chan = qch.haar_random_channel(dim, dim, int(rng.integers(1, 5)), rng)
        rho = oracles.random_density(dim, rng)
        gap = abs(oracles.entropy_exchange(rho, chan)
                  - oracles.entropy_exchange_via_purification(rho, chan))
        worst = max(worst, gap)
    ok = ok and worst <= 1e-9
    _verdict(6, "coherent-information closed forms", ok, f"worst cross-check gap {worst:.2e}")


def test_criterion_07_typicality_exact_bounds():
    weights = (0.9, 0.1)
    eps = 0.1
    ns = range(1, 61)
    counts, bounds, masses = [], [], []
    entropy = linalg.shannon_entropy(weights)
    for n in ns:
        classes = tp._typical_classes(weights, tp._weight_groups(weights), entropy, n, eps)
        counts.append(sum(c.sequence_count for c in classes))
        bounds.append(2.0 ** (n * (entropy + eps)))
        masses.append(tp._class_mass(classes))
    fit = tp.fit_decay(ns, [1.0 - m for m in masses], eps, tp.log_probability_variance(weights))
    counts_ok = all(c <= b for c, b in zip(counts, bounds))
    mass_ok = masses[59] > masses[9]
    rate = fit.fitted_rate
    target = eps**2 / (2.0 * fit.sigma_sq)
    fit_ok = rate is not None and rate > 0.0 and target / 4 <= rate <= target * 4
    ok = counts_ok and mass_ok and fit_ok
    _verdict(7, "typicality exact bounds", ok,
             f"counts {counts_ok}, mass {mass_ok}, rate {rate} vs target {target:.5f}")


def test_criterion_08_reduction_relations():
    ch = qch.phase_flip(0.25)
    ok = True
    detail = ""
    for eps in (0.05, 0.1, 0.2):
        ver = tp.verify_reduction_bounds(ch, range(2, 11), eps)
        if not (ver.counts_within_bounds and ver.norms_within_bounds):
            ok = False
            detail = f"bounds violated at eps={eps}"
    ver_02 = tp.verify_reduction_bounds(ch, [4, 10], 0.2)
    dev4, dev10 = (1.0 - r.transmission for r in ver_02.reports)
    if not dev10 < dev4:
        ok = False
        detail = f"1-transmission: n=4 {dev4:.4f} vs n=10 {dev10:.4f}"
    _verdict(8, "reduction relations", ok, detail)


def test_criterion_09_achievable_rate_trend():
    # The empirical typical set at eps=0.01 is empty except where n*0.25 is
    # an integer, so the trend is asserted on the analytic penalty majorant
    # 2^((n/2)(R + S_e - S + 4 eps)), the factor-by-factor bound of the
    # empirical penalty sqrt(K_n |N~|) ||N~(pi)||_2 (see decisions ledger).
    ch = qch.phase_flip(0.25)
    good = tp.achievable_rate_table(ch, 0.1, 0.01, range(6, 11))
    bad = tp.achievable_rate_table(ch, 0.5, 0.01, range(6, 11))
    good_ratios = [b.penalty_majorant / a.penalty_majorant
                   for a, b in zip(good.rows, good.rows[1:])]
    bad_ratios = [b.penalty_majorant / a.penalty_majorant
                  for a, b in zip(bad.rows, bad.rows[1:])]
    ok = (good.geometric_decay_expected
          and all(r < 1.0 for r in good_ratios)
          and not bad.geometric_decay_expected
          and all(r > 1.0 for r in bad_ratios))
    _verdict(9, "achievable-rate trend", ok,
             f"decay ratios {good_ratios[0]:.4f} / growth {bad_ratios[0]:.4f}")


def test_criterion_10_cli_determinism():
    # child processes whose BLAS runs one and two threads print the same bytes
    argv = ["ensemble", "--channel", "builtin:haar_random:2,2,2", "--code-dim", "2",
            "--samples", "128", "--seed", "777"]
    runs = [run_with_blas_threads(argv, threads) for threads in (1, 2)]
    ok = runs[0] == runs[1] and len(runs[0]) > 0
    _verdict(10, "CLI determinism across BLAS thread counts", ok)
