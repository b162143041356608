from types import SimpleNamespace

import numpy as np
import pytest

import qfsverify
from conftest import chi_square_ok, empirical_counts, tv_distance
from qfsverify.bits import CapacityError
from qfsverify.noise import (BitFlipNoise, BlockFlipNoise, DepolarizingNoise, eta_eff,
                             make_channel)
from qfsverify.selftest import analytic_noisy_dist, p0_eff
from reference import dense_flip_masks


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


CHANNELS = [BitFlipNoise, DepolarizingNoise, BlockFlipNoise]
SAMPLERS = {"flip_masks": lambda ch, n, count, rng: ch.flip_masks(n, count, rng),
            "dense": dense_flip_masks}


def unit_masks(ch, n: int) -> list[int]:
    """The bits each unit of the channel flips together, from bit 1 on."""
    if isinstance(ch, BlockFlipNoise):
        return [0b11 << (n - 2 - 2 * i) for i in range(n // 2)] + [1] * (n % 2)
    return [1 << (n - 1 - i) for i in range(n)]


def unit_law(ch, n: int) -> np.ndarray:
    """Exact law of a flip mask over all 2^n masks: each unit flips whole
    and independently with the channel's strength."""
    units = unit_masks(ch, n)
    law = np.zeros(1 << n)
    for hits in range(1 << len(units)):
        mask = sum(u for j, u in enumerate(units) if hits >> j & 1)
        k = hits.bit_count()
        law[mask] = ch.strength ** k * (1 - ch.strength) ** (len(units) - k)
    return law


@pytest.mark.parametrize("sampler", list(SAMPLERS))
@pytest.mark.parametrize("cls,n", [(BitFlipNoise, 4), (DepolarizingNoise, 4),
                                   (BlockFlipNoise, 4), (BlockFlipNoise, 5)])
def test_flip_masks_follow_the_exact_law(cls, n, sampler):
    ch = cls(0.2)
    masks = SAMPLERS[sampler](ch, n, 200_000, np.random.default_rng(61))
    assert masks.dtype == np.uint64
    counts = empirical_counts(masks, n)
    if cls is BlockFlipNoise:
        assert chi_square_ok(counts, unit_law(ch, n))
    else:  # the mask law is the binary-symmetric convolution of the zero string
        assert unit_law(ch, n) == pytest.approx(analytic_noisy_dist({0: 1.0}, ch.strength, n))
        assert chi_square_ok(counts, analytic_noisy_dist({0: 1.0}, ch.strength, n))


@pytest.mark.parametrize("cls", CHANNELS)
@pytest.mark.parametrize("n", [5, 64])
def test_flip_masks_bit_and_pair_marginals(cls, n):
    ch, count = cls(0.3), 40_000
    bits = (ch.flip_masks(n, count, np.random.default_rng(62))[:, None]
            >> np.arange(n - 1, -1, -1, dtype=np.uint64)) & np.uint64(1)
    bits = bits.astype(np.float64)
    p = ch.strength
    for rate in bits.mean(axis=0):  # every bit flips with the strength
        assert abs(rate - p) <= 5 * (p * (1 - p) / count) ** 0.5
    both = bits.T @ bits / count  # both bits of a pair flip: p within a unit, p^2 across
    for i, j in zip(*np.triu_indices(n, 1)):
        joint = p if isinstance(ch, BlockFlipNoise) and i % 2 == 0 and j == i + 1 else p * p
        assert abs(both[i, j] - joint) <= 5 * (joint * (1 - joint) / count) ** 0.5


@pytest.mark.parametrize("cls", CHANNELS)
@pytest.mark.parametrize("eta", [1e-18, 1e-300, 5e-324])
def test_tiny_strength_flips_nothing(cls, eta):
    # the geometric gaps saturate near 2^63 here; their running sum must not wrap
    for n in (1, 16, 64):
        masks = cls(eta).flip_masks(n, 10_000, np.random.default_rng(63))
        assert masks.dtype == np.uint64 and masks.shape == (10_000,)
        assert not masks.any()


class _FixedGaps:
    """A generator stand-in whose geometric gaps all equal ``gap``."""

    def __init__(self, gap: int):
        self.gap = gap

    def geometric(self, p, size):
        return np.full(size, self.gap, dtype=np.int64)


@pytest.mark.parametrize("cls", CHANNELS)
def test_flipped_slots_run_on_across_draws(cls):
    # gaps of 3 flip slots 2, 5, 8, ...; at p = 0.01 one draw of gaps is sized
    # for about 1% of the slots, so the flipped slots run on across many draws
    n, count = 5, 3000
    ch = cls(0.01)
    units = unit_masks(ch, n)
    hit = np.zeros(count * len(units), dtype=bool)
    hit[2::3] = True
    want = (hit.reshape(count, len(units)) * np.array(units, dtype=np.uint64)).sum(axis=1)
    assert np.array_equal(ch.flip_masks(n, count, _FixedGaps(3)), want.astype(np.uint64))


def test_heap_pin_sets_both_thresholds_or_nothing(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def missing(name):
        raise OSError("no C library")

    for lib in (lambda name: object(), missing):  # no mallopt: returns, raises nothing
        monkeypatch.setattr(qfsverify.ctypes, "CDLL", lib)
        qfsverify._pin_heap_thresholds()
    monkeypatch.setattr(qfsverify.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    qfsverify._pin_heap_thresholds()
    assert calls == [(-3, 4 << 20), (-1, 8 << 20)]  # M_MMAP_ and M_TRIM_THRESHOLD
