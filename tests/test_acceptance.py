"""Acceptance suite: one test per criterion, each printing a pass line and
holding to its stated statistical tolerance and wall-clock budget."""
import time

import numpy as np
import pytest

from conftest import empirical_counts, tv_distance
from qfsverify.boolfn import BooleanFunction, gen_ftau
from qfsverify.harness import ExperimentConfig, run_experiment
from qfsverify.noise import BitFlipNoise, BlockFlipNoise, DepolarizingNoise
from qfsverify.oracles import sample_batch
from qfsverify.protocol import (ADVERSARY_KINDS, VerifierParams, honest_prover,
                                make_prover, protocol_trial, replay_transcript,
                                verifier_run)
from qfsverify.rectify import heavy_set, rectify, required_samples
from qfsverify.selftest import (PD_ETAS, analytic_noisy_dist, check_pd_identities,
                                check_sample_formulas, coeff_bruteforce)
from qfsverify.spectral import learn_parity, regret
from reference import physical_batch

AND2_AT16 = BooleanFunction.junta(16, (3, 5), [0, 0, 0, 1])


def fresh_ftau_target(seed: int, min_support: int = 1):
    rng = np.random.default_rng(seed)
    while True:
        f = gen_ftau(16, 2, 0.5, rng)
        spec = f.spectrum()
        if len(spec.entries) >= min_support:
            return f, spec


def test_c1_spectrum_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(100):
        n = int(rng.integers(1, 11))
        if trial % 2:
            f = BooleanFunction.dense(n, rng.integers(0, 2, size=1 << n,
                                                      dtype=np.uint8))
        else:
            j = int(rng.integers(1, n + 1))
            f = gen_ftau(n, j, 2.0 ** (1 - j), rng)
        spec = f.spectrum()
        assert sum(c * c for c in spec.entries.values()) == pytest.approx(
            1.0, abs=1e-9), "C1 Parseval failure"
        for s in range(1 << n):
            assert abs(spec.coeff(s) - coeff_bruteforce(f, s)) <= 1e-10, \
                f"C1 mismatch at n={n}, s={s}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"C1 exceeded budget: {elapsed:.1f}s"
    print(f"\nC1 PASS: 100 functions, transform == direct sum everywhere "
          f"({elapsed:.1f}s < 10s)")


def test_c2_noise_law_fidelity():
    f = gen_ftau(6, 3, 0.25, np.random.default_rng(202))
    spec = f.spectrum()
    p0 = {int(s): float(c * c) for s, c in zip(spec.support, spec.coeffs)}

    start = time.perf_counter()
    samples = sample_batch(spec, BitFlipNoise(0.05), 10 ** 6,
                           np.random.default_rng(203))
    tv_bitflip = tv_distance(empirical_counts(samples, 6),
                             analytic_noisy_dist(p0, 0.05, 6))
    elapsed_a = time.perf_counter() - start
    assert tv_bitflip <= 0.01, f"C2 bit-flip TV {tv_bitflip:.4f} > 0.01"
    assert elapsed_a < 60.0, f"C2 bit-flip exceeded budget: {elapsed_a:.1f}s"

    start = time.perf_counter()
    ch = DepolarizingNoise(0.1)
    rng = np.random.default_rng(204)
    eff = empirical_counts(sample_batch(spec, ch, 10 ** 6, rng), 6)
    phys = empirical_counts(physical_batch(spec, ch, 10 ** 6, rng), 6)
    tv_paths = 0.5 * float(np.abs(eff / eff.sum() - phys / phys.sum()).sum())
    elapsed_b = time.perf_counter() - start
    assert tv_paths <= 0.01, f"C2 path equivalence TV {tv_paths:.4f} > 0.01"
    assert elapsed_b < 60.0, f"C2 depolarizing exceeded budget: {elapsed_b:.1f}s"
    print(f"\nC2 PASS: bit-flip TV {tv_bitflip:.4f}, physical-vs-effective TV "
          f"{tv_paths:.4f} ({elapsed_a:.1f}s + {elapsed_b:.1f}s < 60s each)")


def _heavy_recovery_trials(channel, seed0: int) -> int:
    spec = AND2_AT16.spectrum()
    theta = 0.2
    k = required_samples(16, theta, 0.1)
    heavy = heavy_set(spec, theta)
    assert len(heavy) == 4
    hits = 0
    for t in range(100):
        rng = np.random.default_rng(seed0 + t)
        batch = sample_batch(spec, channel, k, rng)
        hits += heavy.issubset(rectify(batch, 16, theta, rng))
    return hits


def test_c3_heavy_recovery_bitflip():
    start = time.perf_counter()
    assert required_samples(16, 0.2, 0.1) == 28842
    hits = _heavy_recovery_trials(BitFlipNoise(0.02), 30_000)
    elapsed = time.perf_counter() - start
    assert hits >= 90, f"C3 only {hits}/100 trials recovered the heavy set"
    assert elapsed < 120.0, f"C3 exceeded budget: {elapsed:.1f}s"
    print(f"\nC3 PASS: heavy set recovered in {hits}/100 bit-flip trials "
          f"({elapsed:.1f}s < 120s)")


def test_c4_heavy_recovery_blockflip():
    start = time.perf_counter()
    hits = _heavy_recovery_trials(BlockFlipNoise(0.01), 40_000)
    elapsed = time.perf_counter() - start
    assert hits >= 90, f"C4 only {hits}/100 trials recovered the heavy set"
    assert elapsed < 120.0, f"C4 exceeded budget: {elapsed:.1f}s"
    print(f"\nC4 PASS: heavy set recovered in {hits}/100 block-flip trials "
          f"({elapsed:.1f}s < 120s)")


def test_c5_mismatch_polynomial_identities():
    start = time.perf_counter()
    assert PD_ETAS[0] == 0.01 and PD_ETAS[-1] == 0.49 and len(PD_ETAS) == 13
    ok, detail = check_pd_identities()
    assert ok, f"C5 {detail}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"C5 exceeded budget: {elapsed:.2f}s"
    print(f"\nC5 PASS: P_d <= eta and P_2d == P_2d-1 for d in 1..25 "
          f"({elapsed:.2f}s < 1s)")


def test_c6_agnostic_learner_regret():
    start = time.perf_counter()
    eps, delta, eta = 0.45, 0.1, 0.02
    assert eta <= eps * eps / 10
    hits = 0
    for t in range(200):
        f, spec = fresh_ftau_target(60_000 + t)
        rng = np.random.default_rng(65_000 + t)
        s0 = learn_parity(spec, BitFlipNoise(eta), eps, delta, rng)
        hits += regret(spec, s0) <= eps
    elapsed = time.perf_counter() - start
    assert hits >= 170, f"C6 only {hits}/200 trials reached regret <= {eps}"
    assert elapsed < 300.0, f"C6 exceeded budget: {elapsed:.1f}s"
    print(f"\nC6 PASS: regret <= {eps} in {hits}/200 fresh-target trials "
          f"({elapsed:.1f}s < 300s)")


def test_c7_protocol_completeness():
    start = time.perf_counter()
    params = VerifierParams(n=16, tau=0.5, eps=0.45, delta=0.2)
    eta = 0.5 ** 2 / 10
    correct = 0
    for t in range(200):
        f, spec = fresh_ftau_target(70_000 + t)
        prover = honest_prover(spec, BitFlipNoise(eta),
                               np.random.default_rng(75_000 + t))
        trial = protocol_trial(params, f, prover, seed=78_000 + t, spec=spec)
        correct += trial.correct
    elapsed = time.perf_counter() - start
    assert correct >= 150, f"C7 only {correct}/200 correct accepts"
    assert elapsed < 600.0, f"C7 exceeded budget: {elapsed:.1f}s"
    print(f"\nC7 PASS: honest prover gave correct accepts in {correct}/200 "
          f"trials ({elapsed:.1f}s < 600s)")


def test_c8_protocol_soundness_suite():
    start = time.perf_counter()
    params = VerifierParams(n=16, tau=0.5, eps=0.45, delta=0.2)
    eta = 0.025
    results = {}
    for kind in ADVERSARY_KINDS:
        wrong_accepts = 0
        for t in range(200):
            base = 80_000 + 1000 * len(results) + t
            f, spec = fresh_ftau_target(base, min_support=ADVERSARY_KINDS[kind])
            rng = np.random.default_rng(base + 500_000)
            if kind == "wrongfunction":
                # the wrong target comes from its own seed, not the prover's rng
                _, wrong_spec = fresh_ftau_target(base + 900_000)
                prover = honest_prover(wrong_spec, BitFlipNoise(eta), rng)
            else:
                prover = make_prover(kind, spec, BitFlipNoise(eta), rng, j=2, tau=0.5)
            trial = protocol_trial(params, f, prover, seed=base + 700_000, spec=spec)
            wrong_accepts += trial.wrong_accept
        results[kind] = wrong_accepts
        assert wrong_accepts <= 50, \
            f"C8 {kind}: {wrong_accepts}/200 wrong accepts > 0.25"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"C8 exceeded budget: {elapsed:.1f}s"
    print(f"\nC8 PASS: wrong accepts per 200 trials {results} "
          f"({elapsed:.1f}s < 600s)")


def test_c9_determinism_and_replay(tmp_path):
    start = time.perf_counter()
    cfg = {"mode": "learn", "n": 16, "j": 2, "tau": 0.5, "eps": 0.45,
           "delta": 0.1, "noise": {"model": "bitflip", "eta": 0.02},
           "trials": 5, "seed": 909}
    _, first = run_experiment(ExperimentConfig.from_dict(cfg))
    _, second = run_experiment(ExperimentConfig.from_dict(cfg))
    assert first == second, "C9 fixed-seed experiment records differ"

    params = VerifierParams(n=16, tau=0.5, eps=0.45, delta=0.2)
    spec = AND2_AT16.spectrum()
    for t in range(5):
        prover = honest_prover(spec, BitFlipNoise(0.025),
                               np.random.default_rng(91_000 + t))
        outcome, transcript = verifier_run(params, AND2_AT16, prover,
                                           seed=92_000 + t)
        assert replay_transcript(transcript, AND2_AT16) == outcome, \
            "C9 transcript replay changed the outcome"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"C9 exceeded budget: {elapsed:.1f}s"
    print(f"\nC9 PASS: records re-run bit-identically and transcripts replay "
          f"({elapsed:.1f}s < 10s)")


def test_c10_sample_count_formulas():
    # smallest integers satisfying the stated exponential bounds; see the
    # closed forms asserted against their defining inequalities in the
    # module tests
    ok, detail = check_sample_formulas()
    assert ok, f"C10 {detail}"
    print(f"\nC10 PASS: {detail}")
