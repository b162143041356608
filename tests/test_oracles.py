import time

import numpy as np
import pytest

from conftest import empirical_counts, tv_distance
from qfsverify.boolfn import BooleanFunction, FourierSpectrum
from qfsverify.noise import BitFlipNoise, BlockFlipNoise, DepolarizingNoise
from qfsverify.oracles import draw_examples, draw_p0, read_samples, sample_batch, write_samples
from qfsverify.selftest import analytic_noisy_dist, p0_eff
from reference import physical_batch, qfs_raw, qfs_sample_noisy


def test_random_example_constant_zero():
    f = BooleanFunction.dense(3, np.zeros(8, dtype=np.uint8))
    rng = np.random.default_rng(0)
    assert np.all(draw_examples(f, 20, rng).fxs == 0)


def test_random_example_uniform():
    f = BooleanFunction.dense(4, np.zeros(16, dtype=np.uint8))
    batch = draw_examples(f, 10 ** 6, np.random.default_rng(1))
    freqs = empirical_counts(batch.xs, 4) / 10 ** 6
    assert np.all(np.abs(freqs - 1 / 16) <= 0.002)


def test_random_example_parity_correlation():
    # mean of (1 - 2 f(x)) chi_{s*}(x) is 1 on every single draw
    s_star = 0b0110
    xs = np.arange(16)
    f = BooleanFunction.dense(4, np.bitwise_count(xs & s_star) & 1)
    batch = draw_examples(f, 1000, np.random.default_rng(2))
    chi = 1 - 2 * (np.bitwise_count(batch.xs & np.uint64(s_star)) & np.uint64(1)).astype(int)
    g = 1 - 2 * batch.fxs.astype(int)
    assert np.all(g * chi == 1)


def test_p0_sampler_point_mass():
    spec = FourierSpectrum(3, {0b101: 1.0})
    rng = np.random.default_rng(3)
    assert np.all(draw_p0(spec, 10, rng) == 0b101)


def test_p0_sampler_and2(and2):
    spec = and2.spectrum()
    draws = draw_p0(spec, 10 ** 6, np.random.default_rng(4))
    freqs = empirical_counts(draws, 2) / 10 ** 6
    assert np.all(np.abs(freqs - 0.25) <= 0.005)


def test_p0_sampler_junta_support(and2_at16):
    spec = and2_at16.spectrum()
    draws = draw_p0(spec, 10 ** 4, np.random.default_rng(5))
    outside = ~np.uint64((1 << (16 - 3)) | (1 << (16 - 5)))
    assert np.all(draws & outside == 0)


def test_qfs_raw_law(and2):
    spec = and2.spectrum()
    rng = np.random.default_rng(6)
    outcomes = [qfs_raw(spec, rng) for _ in range(10 ** 5)]
    ys = np.array([o.y for o in outcomes])
    p1 = ys.mean()
    sigma = (0.25 / 10 ** 5) ** 0.5
    assert abs(p1 - 0.5) <= 3 * sigma + 0.005
    ss = np.array([o.s for o in outcomes])
    assert np.all(ss[ys == 0] == 0)
    cond = empirical_counts(ss[ys == 1].astype(np.uint64), 2)
    assert tv_distance(cond, np.full(4, 0.25)) <= 0.01


def test_qfs_sample_noisy_zero_noise_is_p0(and2):
    spec = and2.spectrum()
    rng = np.random.default_rng(7)
    samples = sample_batch(spec, BitFlipNoise(0.0), 10 ** 5, rng)
    assert tv_distance(empirical_counts(samples, 2), np.full(4, 0.25)) <= 0.01


def test_scalar_noisy_sampler_matches_analytic(and2):
    spec = and2.spectrum()
    rng = np.random.default_rng(8)
    draws = np.array([qfs_sample_noisy(spec, BitFlipNoise(0.1), rng)
                      for _ in range(20000)], dtype=np.uint64)
    exact = analytic_noisy_dist({int(s): float(c * c) for s, c in
                                 zip(spec.support, spec.coeffs)}, 0.1, 2)
    assert tv_distance(empirical_counts(draws, 2), exact) <= 0.02


def test_batch_noisy_law_matches_analytic(and2_at16):
    # width-8 version of the bit-flip law check
    f = BooleanFunction.junta(8, (3, 5), [0, 0, 0, 1])
    spec = f.spectrum()
    p0 = {int(s): float(c * c) for s, c in zip(spec.support, spec.coeffs)}
    samples = sample_batch(spec, BitFlipNoise(0.05), 10 ** 6,
                           np.random.default_rng(9))
    exact = analytic_noisy_dist(p0, 0.05, 8)
    assert tv_distance(empirical_counts(samples, 8), exact) <= 0.01


def test_blockflip_batch_law_matches_analytic_pairs():
    # blockflip on n=2 equals one joint pair flip; analytic law by hand
    spec = FourierSpectrum(2, {0b01: 1.0})
    samples = sample_batch(spec, BlockFlipNoise(0.3), 10 ** 6,
                           np.random.default_rng(10))
    exact = np.zeros(4)
    exact[0b01] = 0.7
    exact[0b10] = 0.3
    assert tv_distance(empirical_counts(samples, 2), exact) <= 0.01


def test_depolarizing_paths_agree(and2_at16):
    f = BooleanFunction.junta(8, (3, 5), [0, 0, 0, 1])
    spec = f.spectrum()
    ch = DepolarizingNoise(0.1)
    rng = np.random.default_rng(11)
    eff = sample_batch(spec, ch, 2 * 10 ** 5, rng)
    phys = physical_batch(spec, ch, 2 * 10 ** 5, rng)
    p0 = {int(s): float(c * c) for s, c in zip(spec.support, spec.coeffs)}
    exact = analytic_noisy_dist(p0_eff(p0, ch.strength), ch.strength, 8)
    assert tv_distance(empirical_counts(eff, 8), exact) <= 0.01
    assert tv_distance(empirical_counts(phys, 8), exact) <= 0.01


def test_scalar_depolarizing_paths(and2):
    spec = and2.spectrum()
    ch = DepolarizingNoise(0.2)
    rng = np.random.default_rng(12)
    effective = np.array([qfs_sample_noisy(spec, ch, rng) for _ in range(20000)],
                         dtype=np.uint64)
    physical = physical_batch(spec, ch, 20000, rng)
    p0 = {int(s): float(c * c) for s, c in zip(spec.support, spec.coeffs)}
    exact = analytic_noisy_dist(p0_eff(p0, ch.strength), ch.strength, 2)
    for draws in (effective, physical):
        assert tv_distance(empirical_counts(draws, 2), exact) <= 0.02


def test_blockflip_batch_law_matches_scalar_oracle_at_odd_width():
    # n = 3: one flipped pair plus the unpaired trailing bit, a case the
    # binary-symmetric analytic oracle cannot check
    spec = BooleanFunction.dense(3, [0, 1, 1, 0, 1, 0, 0, 0]).spectrum()
    ch = BlockFlipNoise(0.2)
    rng = np.random.default_rng(18)
    batch = sample_batch(spec, ch, 20000, rng)
    scalar = np.array([qfs_sample_noisy(spec, ch, rng) for _ in range(20000)],
                      dtype=np.uint64)
    assert tv_distance(empirical_counts(batch, 3),
                       empirical_counts(scalar, 3) / 20000) <= 0.02


def test_sample_batch_basics(and2_at16):
    spec = and2_at16.spectrum()
    ch = BitFlipNoise(0.02)
    single = sample_batch(spec, ch, 1, np.random.default_rng(13))
    assert single.shape == (1,)
    start = time.perf_counter()
    batch = sample_batch(spec, ch, 10 ** 4, np.random.default_rng(14))
    assert time.perf_counter() - start < 1.0
    assert len(batch) == 10 ** 4
    with pytest.raises(ValueError):
        sample_batch(spec, ch, 0, np.random.default_rng(15))


def test_sampling_determinism(and2_at16):
    spec = and2_at16.spectrum()
    for ch in (BitFlipNoise(0.05), BlockFlipNoise(0.05), DepolarizingNoise(0.1)):
        a = sample_batch(spec, ch, 5000, np.random.default_rng(99))
        b = sample_batch(spec, ch, 5000, np.random.default_rng(99))
        assert np.array_equal(a, b)


def test_sample_dump_roundtrip(tmp_path, and2_at16):
    spec = and2_at16.spectrum()
    samples = sample_batch(spec, BitFlipNoise(0.02), 100, np.random.default_rng(16))
    path = tmp_path / "samples.txt"
    write_samples(samples, 16, path)
    back, n = read_samples(path)
    assert n == 16 and np.array_equal(back, samples)
