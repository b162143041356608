import math

import numpy as np
import pytest

from qfsverify.boolfn import BooleanFunction, FourierSpectrum
from qfsverify.noise import BitFlipNoise
from qfsverify.oracles import ExampleBatch, draw_examples
from qfsverify.selftest import coeff_bruteforce
from qfsverify.spectral import (argmax_estimate, estimate_coeffs, examples_needed,
                                learn_parity, regret, sparse_estimate)


def linf_error(est, spec) -> float:
    """l-infinity distance of an estimate to the true spectrum over all strings."""
    keys = set(est.entries) | {int(s) for s in spec.support}
    return max(abs(est.entries.get(s, 0.0) - spec.coeff(s)) for s in keys)


def test_examples_needed_closed_form():
    assert examples_needed(32, 0.1, 0.1) == 1293
    k = examples_needed(32, 0.1, 0.1)
    assert 32 * 2 * math.exp(-k * 0.01 / 2) <= 0.1
    assert 32 * 2 * math.exp(-(k - 1) * 0.01 / 2) > 0.1
    assert examples_needed(1, 1 - 1e-9, 0.999) >= 1


def test_examples_needed_doubling_increment():
    step = math.ceil(2 / 0.2 ** 2 * math.log(2))
    for m in (1, 4, 16, 64):
        diff = examples_needed(2 * m, 0.2, 0.1) - examples_needed(m, 0.2, 0.1)
        assert 0 <= diff <= step


def test_examples_needed_range_checks():
    for bad in ((0, 0.1, 0.1), (4, 0.0, 0.1), (4, 1.0, 0.1), (4, 0.1, 0.0)):
        with pytest.raises(ValueError):
            examples_needed(*bad)


def test_estimate_coeffs_parity_exact():
    s_star = 0b0101
    xs = np.arange(16)
    f = BooleanFunction.dense(4, np.bitwise_count(xs & s_star) & 1)
    batch = draw_examples(f, 500, np.random.default_rng(0))
    assert estimate_coeffs([s_star], batch)[s_star] == 1.0


def test_estimate_coeffs_constant_exact():
    f = BooleanFunction.dense(4, np.zeros(16, dtype=np.uint8))
    batch = draw_examples(f, 500, np.random.default_rng(1))
    assert estimate_coeffs([0], batch)[0] == 1.0


def test_estimate_coeffs_range_and_empty():
    f = BooleanFunction.dense(3, np.arange(8) % 2)
    batch = draw_examples(f, 333, np.random.default_rng(2))
    vals = estimate_coeffs(range(8), batch)
    assert all(-1.0 <= v <= 1.0 for v in vals.values())
    with pytest.raises(ValueError):
        estimate_coeffs([0], ExampleBatch(3, np.array([], dtype=np.uint64),
                                          np.array([], dtype=np.uint8)))


def test_estimate_on_full_truth_table_is_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 11))
        f = BooleanFunction.dense(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        xs = np.arange(1 << n, dtype=np.uint64)
        batch = ExampleBatch(n, xs, f.eval_many(xs))
        est = estimate_coeffs(range(1 << n), batch)
        for s in range(1 << n):
            assert est[s] == coeff_bruteforce(f, s)


def test_estimate_coeffs_hoeffding(and2_at16):
    # |estimate - (-1/2)| <= 0.05 in at least 97% of 1000 seeded trials
    spec_s = (1 << (16 - 3)) | (1 << (16 - 5))
    k = examples_needed(4, 0.05, 0.1)
    hits = 0
    trials = 1000
    for t in range(trials):
        batch = draw_examples(and2_at16, k, np.random.default_rng(5000 + t))
        hits += abs(estimate_coeffs([spec_s], batch)[spec_s] - (-0.5)) <= 0.05
    assert hits / trials >= 0.97


def test_argmax_estimate_rules():
    assert argmax_estimate({}) == 0
    assert argmax_estimate({0b10: 0.5, 0b01: 0.5, 0b11: 0.1}) == 0b01  # lex tie
    scaled = {s: 3.7 * v for s, v in {0b10: 0.5, 0b01: 0.5, 0b11: 0.1}.items()}
    assert argmax_estimate(scaled) == 0b01  # positive scaling invariant


def test_sparse_estimate_parity():
    spec = FourierSpectrum(8, {0b10010110: 1.0})
    ok = 0
    for t in range(20):
        est = sparse_estimate(spec, BitFlipNoise(0.0), 0.5, 0.1,
                              np.random.default_rng(6000 + t))
        assert len(est.entries) <= math.floor(2 / 0.25)
        if est.entries.get(0b10010110, 0.0) >= 0.5 and linf_error(est, spec) <= 0.5:
            ok += 1
    assert ok >= 18  # 1 - delta guarantee


def test_sparse_estimate_precondition():
    spec = FourierSpectrum(4, {0b1000: 1.0})
    with pytest.raises(ValueError):
        sparse_estimate(spec, BitFlipNoise(0.1), 0.5, 0.1, np.random.default_rng(0))


def test_sparse_estimate_support_cap(and2_at16):
    spec = and2_at16.spectrum()
    est = sparse_estimate(spec, BitFlipNoise(0.02), 0.45, 0.1,
                          np.random.default_rng(7))
    assert len(est.entries) <= math.floor(2 / 0.45 ** 2)
    assert all(-1 - 1e-9 <= v <= 1 + 1e-9 for v in est.entries.values())


def test_learn_parity_constant_zero():
    f = BooleanFunction.dense(6, np.zeros(64, dtype=np.uint8))
    spec = f.spectrum()
    s0 = learn_parity(spec, BitFlipNoise(0.0), 0.4, 0.1, np.random.default_rng(8))
    assert s0 == 0
    assert regret(spec, s0) == 0.0


def test_learn_parity_pure_parity():
    # exact parity recovered with frequency >= 1 - delta over 200 trials
    spec = FourierSpectrum(10, {0b1100110011: 1.0})
    hits = 0
    for t in range(200):
        s0 = learn_parity(spec, BitFlipNoise(0.0), 0.5, 0.1,
                          np.random.default_rng(7000 + t))
        hits += s0 == 0b1100110011
    assert hits >= 180


def test_sparse_estimate_and_learner_on_and2_at_scale(and2_at16):
    # 200 trials at eps=0.45, eta=0.02: the estimate stays within eps of
    # the true spectrum, and the argmax stays within eps regret, in at
    # least 85% of trials (the delta=0.1 guarantee minus binomial slack)
    spec = and2_at16.spectrum()
    eps_ok = 0
    regret_ok = 0
    for t in range(200):
        est = sparse_estimate(spec, BitFlipNoise(0.02), 0.45, 0.1,
                              np.random.default_rng(8000 + t))
        eps_ok += linf_error(est, spec) <= 0.45
        regret_ok += regret(spec, argmax_estimate(est.entries)) <= 0.45
    assert eps_ok >= 170
    assert regret_ok >= 170


def test_regret_values(and2):
    spec = and2.spectrum()
    assert regret(spec, 0b00) == 0.0  # argmax attained
    assert regret(spec, 0b11) == 0.5  # (0.5 - (-0.5)) / 2
    parity = FourierSpectrum(4, {0b1000: 1.0})
    assert regret(parity, 0b0001) == 0.5  # off support: max/2


def test_regret_uses_zero_outside_full_support():
    # all-negative single coefficient: the best parity is any off-support string
    spec = FourierSpectrum(3, {0b101: -1.0})
    assert regret(spec, 0b000) == 0.0
    assert regret(spec, 0b101) == 0.5
