import numpy as np
import pytest

from conftest import empirical_counts, tv_distance
from qfsverify.bits import CapacityError
from qfsverify.noise import (BitFlipNoise, BlockFlipNoise, DepolarizingNoise,
                             analytic_noisy_dist, eta_eff, make_channel, p0_eff)


def test_eta_eff_values():
    assert eta_eff(0.0) == 0.0
    assert eta_eff(0.1) == pytest.approx(0.095, abs=1e-15)
    assert eta_eff(1.0) == 0.5
    with pytest.raises(ValueError):
        eta_eff(1.5)


def test_depolarizing_caches_eta_eff():
    ch = DepolarizingNoise(0.1)
    assert ch.eta_eff == pytest.approx(0.095, abs=1e-15)
    assert ch.strength == ch.eta_eff


def test_channel_strength_bounds():
    with pytest.raises(ValueError):
        BitFlipNoise(0.5)
    with pytest.raises(ValueError):
        BlockFlipNoise(-0.1)
    assert BitFlipNoise(0.0).strength == 0.0


def test_make_channel():
    assert isinstance(make_channel("bitflip", 0.1), BitFlipNoise)
    assert isinstance(make_channel("depolarizing", 0.1), DepolarizingNoise)
    assert isinstance(make_channel("blockflip", 0.1), BlockFlipNoise)
    with pytest.raises(ValueError):
        make_channel("amplitude", 0.1)


def test_apply_identity_channel():
    rng = np.random.default_rng(0)
    for ch in (BitFlipNoise(0.0), BlockFlipNoise(0.0), DepolarizingNoise(0.0)):
        assert np.all(ch.flip_masks(4, 3, rng) == 0)


def test_bitflip_near_half_is_nearly_uniform():
    ch = BitFlipNoise(0.5 - 1e-9)
    rng = np.random.default_rng(1)
    flips = ch.flip_masks(1, 10 ** 6, rng)
    ones = int(np.count_nonzero(flips))
    assert abs(ones / 10 ** 6 - 0.5) < 0.01


def test_blockflip_pair_behaviour():
    # n=2: output is s or its two-bit complement; complement rate eta
    ch = BlockFlipNoise(0.3)
    rng = np.random.default_rng(2)
    masks = ch.flip_masks(2, 10 ** 6, rng)
    values = set(np.unique(masks).tolist())
    assert values <= {0, 3}
    assert abs(np.mean(masks == 3) - 0.3) < 0.01


def test_blockflip_odd_width_marginals():
    # trailing unpaired bit flips independently; every marginal stays <= eta
    ch = BlockFlipNoise(0.2)
    rng = np.random.default_rng(3)
    masks = ch.flip_masks(5, 10 ** 6, rng)
    for bit in range(5):
        rate = float(np.mean((masks >> np.uint64(4 - bit)) & np.uint64(1)))
        assert rate <= 0.2 + 0.005
        assert rate >= 0.2 - 0.005  # this family attains the bound exactly
    # pairs flip jointly
    b1 = (masks >> np.uint64(4)) & np.uint64(1)
    b2 = (masks >> np.uint64(3)) & np.uint64(1)
    assert np.array_equal(b1, b2)


def test_p0_eff_examples():
    p0 = {0b101: 1.0}
    assert p0_eff(p0, 0.0) == p0
    assert p0_eff(p0, 0.2) == pytest.approx({0b101: 0.8, 0: 0.2})
    assert p0_eff({0: 1.0}, 0.7) == pytest.approx({0: 1.0})
    with pytest.raises(ValueError):
        p0_eff({0b1: 0.9}, 0.1)  # unnormalized


def test_analytic_noisy_dist_examples():
    assert np.allclose(analytic_noisy_dist({0b1: 1.0}, 0.0, 1), [0.0, 1.0])
    assert np.allclose(analytic_noisy_dist({0b1: 1.0}, 0.2, 1), [0.2, 0.8])
    got = analytic_noisy_dist({0b00: 1.0}, 0.1, 2)
    assert got == pytest.approx([0.81, 0.09, 0.09, 0.01])


def test_analytic_noisy_dist_mass_and_identity():
    rng = np.random.default_rng(4)
    raw = rng.random(16)
    p0 = {i: float(v) for i, v in enumerate(raw / raw.sum())}
    for eta in (0.0, 0.05, 0.3):
        dist = analytic_noisy_dist(p0, eta, 4)
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-9)
    assert analytic_noisy_dist(p0, 0.0, 4) == pytest.approx(
        [p0[i] for i in range(16)])


def test_analytic_capacity():
    with pytest.raises(CapacityError):
        analytic_noisy_dist({0: 1.0}, 0.1, 13)


def test_bitflip_empirical_matches_analytic():
    # fixed p0 on n=6, eta=0.1: 10^6 channel applications vs convolution
    rng = np.random.default_rng(5)
    n, eta, count = 6, 0.1, 10 ** 6
    p0 = {0b101010: 0.5, 0b000111: 0.3, 0b111111: 0.2}
    support = np.array(sorted(p0), dtype=np.uint64)
    probs = np.array([p0[int(s)] for s in support])
    draws = support[np.searchsorted(np.cumsum(probs), rng.random(count), side="right")
                    .clip(max=len(support) - 1)]
    ch = BitFlipNoise(eta)
    noisy = draws ^ ch.flip_masks(n, count, rng)
    exact = analytic_noisy_dist(p0, eta, n)
    assert tv_distance(empirical_counts(noisy, n), exact) <= 0.01
