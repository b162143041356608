"""Test-only reference implementations, kept as oracles for faster code.

nearest_match is rectify's matching step for one prefix, and
rectify_loop applies it to every sample in ascending order at every
level. rectify_dense is the per-sample matcher: it sorts the samples,
forms the k x 2cap distance matrix at every level, in 65,536-row chunks,
and draws one integer below its number of nearest candidates for each
tied row, chunk by chunk. rectify.rectify, which matches distinct
prefixes against the surviving parents, must return the same list as
both and leave the generator in the same state.

dense_flip_masks is the flip sampler that draws one uniform per bit (per
pair, for block-flip), packed column by column with pack_rows; the masks
of the channels' own flip_masks must follow its law. qfs_raw is one
noise-free circuit shot, apply one channel use on one string through
dense_flip_masks, and qfs_sample_noisy one shot-by-shot draw from the
noisy conditional law; the draws of oracles.sample_batch must follow the
same law. physical_batch, the one definition of the physical
depolarizing law, simulates shots (y = 1 w.p. 1/2 with s ~ p0, else
0^n), flips s and y, and keeps the shots whose noisy y is 1;
sample_batch and qfs_sample_noisy, which draw the equivalent mixture
(1 - e) p0 + e delta_0 with e the channel's strength instead, must match
its law. hamming is the scalar distance nearest_match uses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qfsverify.bits import as_rows, check_value, check_width
from qfsverify.boolfn import FourierSpectrum
from qfsverify.noise import BlockFlipNoise, DepolarizingNoise, NoiseChannel
from qfsverify.oracles import draw_p0
from qfsverify.rectify import list_cap

_MATCH_CHUNK = 1 << 16
SAFETY_STOP = 10 ** 6


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (count, n) 0/1 matrix into uint64 values, column 0 = bit 1."""
    count, n = bits.shape
    check_width(n)
    out = np.zeros(count, dtype=np.uint64)
    for i in range(n):
        out |= bits[:, i].astype(np.uint64) << np.uint64(n - 1 - i)
    return out


def nearest_match(t_prefix: int, candidates, rng: np.random.Generator) -> int:
    """Index of a candidate at minimal Hamming distance; ties uniform at random."""
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    dists = [hamming(t_prefix, int(c)) for c in candidates]
    best = min(dists)
    ties = [i for i, d in enumerate(dists) if d == best]
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def _match_counts(prefixes: np.ndarray, cand: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-candidate match counts over all prefixes, random tie-breaks."""
    counts = np.zeros(len(cand), dtype=np.int64)
    for lo in range(0, len(prefixes), _MATCH_CHUNK):
        chunk = prefixes[lo:lo + _MATCH_CHUNK]
        dist = np.bitwise_count(chunk[:, None] ^ cand[None, :])
        is_min = dist == dist.min(axis=1, keepdims=True)
        choice = np.argmax(is_min, axis=1)
        ties = is_min.sum(axis=1)
        tied = np.nonzero(ties > 1)[0]
        if tied.size:  # the pick-th nearest candidate, counting from 0
            pick = rng.integers(0, ties[tied])
            choice[tied] = np.argmax(np.cumsum(is_min[tied], axis=1) > pick[:, None], axis=1)
        counts += np.bincount(choice, minlength=len(cand))
    return counts


def rectify_dense(samples, n: int, theta: float, rng: np.random.Generator) -> list[int]:
    """rectify with one distance row per sample at every level."""
    cap = list_cap(theta)
    samples = np.sort(as_rows(samples, n))
    level = np.zeros(1, dtype=np.uint64)  # the empty prefix
    for m in range(1, n + 1):
        cand = np.empty(2 * len(level), dtype=np.uint64)
        cand[0::2] = level << np.uint64(1)
        cand[1::2] = (level << np.uint64(1)) | np.uint64(1)
        prefixes = samples >> np.uint64(n - m)
        counts = _match_counts(prefixes, cand, rng)
        # primary key: count descending; tie key: prefix ascending
        order = np.lexsort((cand, -counts))
        level = cand[order][:cap]
    return [int(s) for s in level]


def rectify_loop(samples, n: int, theta: float, rng: np.random.Generator) -> list[int]:
    """rectify as nearest_match on each sample, in ascending order, per level."""
    cap = list_cap(theta)
    level = [0]  # the empty prefix
    for m in range(1, n + 1):
        cand = [(c << 1) | b for c in level for b in (0, 1)]
        counts = [0] * len(cand)
        for s in sorted(int(s) for s in samples):
            counts[nearest_match(s >> (n - m), cand, rng)] += 1
        # primary key: count descending; tie key: prefix ascending
        order = sorted(range(len(cand)), key=lambda i: (-counts[i], cand[i]))
        level = [cand[i] for i in order[:cap]]
    return level


def dense_flip_masks(channel: NoiseChannel, n: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """count flip masks from one uniform per bit, or per adjacent pair and
    the unpaired trailing bit for block-flip."""
    check_width(n)
    if channel.strength == 0.0:
        return np.zeros(count, dtype=np.uint64)
    if not isinstance(channel, BlockFlipNoise):
        return pack_rows(rng.random((count, n)) < channel.strength)
    mask = np.zeros(count, dtype=np.uint64)
    for p in range(n // 2):
        hit = rng.random(count) < channel.eta
        mask |= np.where(hit, np.uint64(0b11) << np.uint64(n - 2 - 2 * p), np.uint64(0))
    if n % 2:
        mask |= np.where(rng.random(count) < channel.eta, np.uint64(1), np.uint64(0))
    return mask


def apply(channel: NoiseChannel, s: int, n: int, rng: np.random.Generator) -> int:
    """One noisy copy of the width-n string s under dense_flip_masks."""
    check_value(s, n)
    return int(np.uint64(s) ^ dense_flip_masks(channel, n, 1, rng)[0])


@dataclass(frozen=True)
class QfsRawOutcome:
    s: int
    y: int


def qfs_raw(spec: FourierSpectrum, rng: np.random.Generator) -> QfsRawOutcome:
    """One noise-free circuit shot: y = 1 w.p. 1/2 with s ~ p0, else (0^n, 0)."""
    if rng.random() < 0.5:
        return QfsRawOutcome(int(draw_p0(spec, 1, rng)[0]), 1)
    return QfsRawOutcome(0, 0)


def qfs_sample_noisy(spec: FourierSpectrum, channel: NoiseChannel,
                     rng: np.random.Generator) -> int:
    """One sample from the noisy conditional law (conditioned on noisy y = 1).

    Bit-flip and block-flip channels leave y noiseless: raw shots are
    repeated until y = 1 and the channel is applied to s. Depolarization
    draws from the equivalent mixture (1 - e) p0 + e delta_0, e the
    channel's strength, and then flips bits; physical_batch draws the same law the physical way.
    """
    n = spec.n
    if isinstance(channel, DepolarizingNoise):
        s = 0 if rng.random() < channel.strength else int(draw_p0(spec, 1, rng)[0])
        return apply(channel, s, n, rng)
    for _ in range(SAFETY_STOP):
        raw = qfs_raw(spec, rng)
        if raw.y == 1:
            return apply(channel, raw.s, n, rng)
    raise RuntimeError("raw sampling exceeded the safety stop")


def physical_batch(spec: FourierSpectrum, channel: DepolarizingNoise, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """count draws of s conditioned on noisy y = 1, from simulated shots."""
    n = spec.n
    eta = channel.strength
    chunks = []
    have = 0
    for _ in range(SAFETY_STOP):
        take = 2 * (count - have) + 16
        y = rng.random(take) < 0.5
        s = np.where(y, draw_p0(spec, take, rng), np.uint64(0))
        s ^= channel.flip_masks(n, take, rng)
        y_noisy = y ^ (rng.random(take) < eta)
        kept = s[y_noisy]
        chunks.append(kept)
        have += len(kept)
        if have >= count:
            return np.concatenate(chunks)[:count]
    raise RuntimeError("physical-path sampling exceeded the safety stop")
