import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfsverify.bits import random_words
from qfsverify.boolfn import FourierSpectrum, gen_ftau
from qfsverify.noise import BitFlipNoise, BlockFlipNoise
from qfsverify.oracles import sample_batch
from qfsverify.protocol import VerifierParams
from qfsverify.rectify import heavy_set, list_cap, rectify, required_samples
from qfsverify.selftest import p_d_poly
from reference import nearest_match, rectify_dense, rectify_loop


def test_required_samples_closed_form():
    # smallest k with 2n exp(-k theta^2 / 200) <= delta
    assert required_samples(2, 0.9, 0.9) == 369
    assert required_samples(16, 0.25, 0.1) == math.ceil(3200 * math.log(320))
    k = required_samples(16, 0.25, 0.1)
    assert 2 * 16 * math.exp(-k * 0.25 ** 2 / 200) <= 0.1
    assert 2 * 16 * math.exp(-(k - 1) * 0.25 ** 2 / 200) > 0.1


def test_required_samples_monotone_in_theta():
    prev = None
    for theta in (0.1, 0.2, 0.4, 0.8):
        k = required_samples(16, theta, 0.1)
        if prev is not None:
            assert k <= prev
        prev = k


def test_required_samples_range_checks():
    for bad in ((16, 0.0, 0.1), (16, 1.0, 0.1), (16, 0.5, 0.0), (16, 0.5, 1.0)):
        with pytest.raises(ValueError):
            required_samples(*bad)


def test_list_cap():
    assert list_cap(0.6) == 3
    assert list_cap(0.25) == 8
    with pytest.raises(ValueError):
        list_cap(1.0)


def test_nearest_match_exact():
    rng = np.random.default_rng(0)
    assert nearest_match(0b00, [0b00, 0b11], rng) == 0


def test_nearest_match_hand_distances():
    # distances to 0110 are 2, 1, 3
    rng = np.random.default_rng(1)
    assert nearest_match(0b0110, [0b0000, 0b0111, 0b1111], rng) == 1


def test_nearest_match_uniform_ties():
    rng = np.random.default_rng(2)
    picks = [nearest_match(0b01, [0b00, 0b11], rng) for _ in range(10 ** 4)]
    assert abs(np.mean(picks) - 0.5) <= 0.02


def test_nearest_match_empty():
    with pytest.raises(ValueError):
        nearest_match(0b0, [], np.random.default_rng(3))


def test_rectify_hand_trace():
    # k=10 samples; iteration-1 freqs {0: 0.6, 1: 0.4}; iteration-2 freqs
    # {00: 0.5, 11: 0.4, 01: 0.1, 10: 0}; cap 3 keeps [00, 11, 01]
    samples = [0b00] * 5 + [0b11] * 4 + [0b01]
    out = rectify(samples, 2, 0.6, np.random.default_rng(4))
    assert out == [0b00, 0b11, 0b01]


@pytest.mark.parametrize("seed,expected", [(1, [0b110, 0b000]), (0, [0b110, 0b001])])
def test_rectify_tie_draws_over_the_list_order(seed, expected):
    # cap 2 keeps [11, 00] at m = 2 (counts 5, 4); at m = 3 the sample 011
    # is one away from both, so its draw indexes that list: 0 picks 11 (the
    # child 111), 1 picks 00 (001, now 3 against 000's 2). Indexing in
    # ascending value would give 001 for a draw of 0.
    samples = [0b110] * 5 + [0b000] * 2 + [0b001] * 2 + [0b011]
    assert int(np.random.default_rng(seed).integers(0, 2)) == 1 - seed
    for impl in (rectify, rectify_loop, rectify_dense):
        assert impl(samples, 3, 0.7, np.random.default_rng(seed)) == expected


def test_rectify_keeps_certain_string():
    for theta in (0.1, 0.5, 0.9):
        out = rectify([0b10110] * 50, 5, theta, np.random.default_rng(5))
        assert 0b10110 in out


def test_rectify_cap_and_distinctness():
    rng = np.random.default_rng(6)
    samples = rng.integers(0, 1 << 10, size=2000, dtype=np.uint64)
    for theta in (0.03, 0.11, 0.42):
        out = rectify(samples, 10, theta, np.random.default_rng(7))
        assert len(out) <= list_cap(theta)
        assert len(set(out)) == len(out)


def test_rectify_determinism():
    rng = np.random.default_rng(8)
    samples = rng.integers(0, 1 << 12, size=5000, dtype=np.uint64)
    a = rectify(samples, 12, 0.2, np.random.default_rng(42))
    b = rectify(samples, 12, 0.2, np.random.default_rng(42))
    assert a == b


def test_rectify_rejects_degenerate_inputs():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        rectify([], 4, 0.5, rng)
    with pytest.raises(ValueError):
        rectify([0b1], 4, 1.0, rng)
    with pytest.raises(ValueError):
        rectify([0b10000], 4, 0.5, rng)  # sample wider than n
    for floats in ([1.5, 2.7, 2.2], np.array([1.5, 2.7, 2.2])):  # none is truncated
        with pytest.raises(ValueError):
            rectify(floats, 4, 0.5, rng)


def test_heavy_set_examples(and2):
    spec = and2.spectrum()
    assert heavy_set(spec, 0.2) == {0b00, 0b01, 0b10, 0b11}
    assert heavy_set(spec, 0.3) == set()
    parity = FourierSpectrum(3, {0b110: 1.0})
    assert heavy_set(parity, 0.99) == {0b110}


def test_p_d_poly_values():
    for eta in (0.05, 0.2, 0.4):
        assert p_d_poly(eta, 1) == pytest.approx(eta, abs=1e-15)
    assert p_d_poly(0.3, 2) == pytest.approx(0.3, abs=1e-15)
    # P_3 = 3 eta^2 - 2 eta^3
    assert p_d_poly(0.1, 3) == pytest.approx(0.028, abs=1e-15)


def test_p_d_poly_identities():
    etas = [0.01 + 0.04 * i for i in range(13)]
    assert etas[-1] == pytest.approx(0.49)
    for eta in etas:
        for d in range(1, 26):
            assert p_d_poly(eta, d) <= eta + 1e-15
            assert abs(p_d_poly(eta, 2 * d) - p_d_poly(eta, 2 * d - 1)) <= 1e-12


def test_p_d_poly_range_checks():
    with pytest.raises(ValueError):
        p_d_poly(0.5, 3)
    with pytest.raises(ValueError):
        p_d_poly(0.1, 0)


def test_noise_free_soundness(and2_at16):
    # eta = 0, k = required_samples: heavy strings recovered in at least
    # a 1 - delta fraction of 100 trials (observed: all of them)
    spec = and2_at16.spectrum()
    theta, delta = 0.2, 0.1
    k = required_samples(16, theta, delta)
    heavy = heavy_set(spec, theta)
    assert len(heavy) == 4
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        batch = sample_batch(spec, BitFlipNoise(0.0), k, rng)
        hits += heavy.issubset(rectify(batch, 16, theta, rng))
    assert hits >= 90


def test_rectify_with_noise_smoke(and2_at16):
    # scaled-down run of the heavy-recovery claim; the acceptance suite
    # runs the full 100-trial version
    spec = and2_at16.spectrum()
    theta = 0.2
    k = required_samples(16, theta, 0.1)
    heavy = heavy_set(spec, theta)
    ok = 0
    for trial in range(10):
        rng = np.random.default_rng(4000 + trial)
        batch = sample_batch(spec, BitFlipNoise(0.02), k, rng)
        ok += heavy.issubset(rectify(batch, 16, theta, rng))
    assert ok >= 9


def _batch(kind: str, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "uniform":
        return random_words(rng, k, n)
    if kind == "constant":
        return np.zeros(k, dtype=np.uint64)
    channel = BitFlipNoise(0.025) if kind == "bitflip" else BlockFlipNoise(0.01)
    return sample_batch(gen_ftau(n, 2, 0.5, rng).spectrum(), channel, k, rng)


@pytest.mark.parametrize("theta", [0.25, 0.11])  # cap 8 and cap 18
@pytest.mark.parametrize("kind", ["bitflip", "blockflip", "uniform", "constant"])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_rectify_matches_dense_matcher_bit_for_bit(n, kind, theta):
    # n = 16 crosses the dense matcher's 65,536-row chunk boundary, across
    # which its tie draws continue one stream
    k = 66_000 if n == 16 else 3_000
    samples = _batch(kind, n, k, np.random.default_rng(n))
    grouped, dense = np.random.default_rng(7), np.random.default_rng(7)
    assert rectify(samples, n, theta, grouped) == rectify_dense(samples, n, theta, dense)
    assert grouped.bit_generator.state == dense.bit_generator.state


@pytest.mark.parametrize("theta", [0.012, 0.005])  # cap 166 and cap 400
def test_rectify_matches_dense_matcher_with_hundreds_of_candidates(theta):
    # with 129-255 parents (cap 166) the first-nearest parent index is a
    # uint8, and 2 * index + bit must not wrap; cap 400 needs a uint16 index
    samples = random_words(np.random.default_rng(12), 3_000, 12)
    grouped, dense = np.random.default_rng(13), np.random.default_rng(13)
    assert rectify(samples, 12, theta, grouped) == rectify_dense(samples, 12, theta, dense)
    assert grouped.bit_generator.state == dense.bit_generator.state


def _tie_heavy(n: int, seed: int, data) -> np.ndarray:
    """Up to 600 samples of at most 40 distinct width-n values, in a seeded order."""
    d = min(data.draw(st.integers(1, 40)), 1 << n)
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=d, max_size=d,
                                unique=True))
    counts = data.draw(st.lists(st.integers(1, 15), min_size=d, max_size=d))
    return np.random.default_rng(seed).permutation(np.repeat(values, counts))


@settings(deadline=None, max_examples=80)
@given(n=st.integers(1, 10), theta=st.floats(0.005, 0.95), seed=st.integers(0, 2 ** 32),
       data=st.data())
def test_rectify_matches_dense_matcher_on_tie_heavy_inputs(n, theta, seed, data):
    # up to 600 samples of at most 40 distinct values, in a seeded order:
    # when the values outnumber the cap, most matches are tied; theta down
    # to 0.005 keeps up to 400 parents (more than 2^n for small n), and
    # n = 1 matches against the 0-bit prefix
    samples = _tie_heavy(n, seed, data)
    grouped, dense = np.random.default_rng(seed), np.random.default_rng(seed)
    assert rectify(samples, n, theta, grouped) == rectify_dense(samples, n, theta, dense)
    assert grouped.bit_generator.state == dense.bit_generator.state


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 10), theta=st.floats(0.005, 0.95), seed=st.integers(0, 2 ** 32),
       data=st.data())
def test_rectify_matches_nearest_match_per_sorted_sample(n, theta, seed, data):
    # the definition: at every level, nearest_match on each sample in
    # ascending order; up to 300 samples, from tie-free to mostly tied
    samples = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=300))
    grouped, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    assert rectify(samples, n, theta, grouped) == rectify_loop(samples, n, theta, loop)
    assert grouped.bit_generator.state == loop.bit_generator.state


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 12), theta=st.floats(0.005, 0.95), seeds=st.tuples(
    st.integers(0, 2 ** 32), st.integers(0, 2 ** 32)), data=st.data())
def test_rectify_is_order_invariant_with_ties(n, theta, seeds, data):
    # ties are drawn in ascending sample order, so any order of one batch
    # gives the same list and leaves the generator in the same state
    samples = _tie_heavy(n, seeds[0], data)
    shuffled = np.random.default_rng(seeds[1]).permutation(samples)
    a, b = np.random.default_rng(seeds[0]), np.random.default_rng(seeds[0])
    assert rectify(samples, n, theta, a) == rectify(shuffled, n, theta, b)
    assert a.bit_generator.state == b.bit_generator.state


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 20), theta=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32),
       data=st.data())
def test_rectify_list_is_capped_and_distinct(n, theta, seed, data):
    samples = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=300))
    out = rectify(samples, n, theta, np.random.default_rng(seed))
    # zero-count candidates pad the list to the cap (or to all 2**n strings)
    assert len(out) == min(list_cap(theta), 2 ** n)
    assert len(set(out)) == len(out)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 64), theta=st.floats(0.05, 0.95), seeds=st.tuples(
    st.integers(0, 2 ** 32), st.integers(0, 2 ** 32)), data=st.data())
def test_rectify_keeps_up_to_cap_distinct_values_in_any_order(n, theta, seeds, data):
    # with at most cap distinct values, every sample's prefix is itself a
    # candidate at each level, so no match is tied and nothing is drawn
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                max_size=list_cap(theta), unique=True))
    samples = [v for v in values for _ in range(data.draw(st.integers(1, 4)))]
    shuffled = data.draw(st.permutations(samples))
    rng = np.random.default_rng(seeds[0])
    before = rng.bit_generator.state
    out = rectify(samples, n, theta, rng)
    assert rng.bit_generator.state == before
    assert set(values) <= set(out)
    assert rectify(shuffled, n, theta, np.random.default_rng(seeds[1])) == out


@settings(deadline=None, max_examples=60)
@given(theta=st.floats(0.005, 0.95), seed=st.integers(0, 2 ** 32), data=st.data())
def test_rectify_ranks_every_value_when_every_parent_survives(theta, seed, data):
    # for n <= cap.bit_length(), 2^(n-1) <= cap: every prefix survives to the
    # last level, each sample is matched to itself, and nothing is drawn
    cap = list_cap(theta)
    n = data.draw(st.integers(1, cap.bit_length()))
    samples = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=300))
    count = np.bincount(samples, minlength=1 << n)
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    out = rectify(samples, n, theta, rng)
    assert out == sorted(range(2 ** n), key=lambda v: (-count[v], v))[:cap]
    assert rng.bit_generator.state == before


def test_rectify_recovers_heavy_set_at_width_64():
    # the verifier's k at n = 64 on fresh 2-juntas under bit-flip noise;
    # the heavy set is found in at least 1 - delta of the trials, delta = 0.1
    # (observed: all 20)
    start = time.perf_counter()
    params = VerifierParams(n=64, tau=0.5, eps=0.45, delta=0.2)
    assert params.k == 24_193
    hits = 0
    for trial in range(20):
        rng = np.random.default_rng(6400 + trial)
        spec = gen_ftau(64, 2, 0.5, rng).spectrum()
        batch = sample_batch(spec, BitFlipNoise(0.025), params.k, rng)
        hits += heavy_set(spec, params.theta) <= set(rectify(batch, 64, params.theta, rng))
    elapsed = time.perf_counter() - start
    assert hits >= 18, f"heavy set recovered in only {hits}/20 trials at n = 64"
    assert elapsed < 10.0, f"n = 64 heavy recovery exceeded budget: {elapsed:.1f}s"
