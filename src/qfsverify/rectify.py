"""Error rectification: recover the heavy components of p0 from noisy samples.

The algorithm grows candidate prefixes one bit at a time. At step m every
surviving prefix is extended by 0 and by 1, each sample's m-bit prefix is
matched to the nearest candidate in Hamming distance (ties broken
uniformly at random), and the floor(2/theta) candidates with the largest
match counts survive. The full sample list is reused at every step.
"""
from __future__ import annotations

import math

import numpy as np

from .bits import check_width, fits_rows, hamming, popcount
from .boolfn import FourierSpectrum

_MATCH_CHUNK = 1 << 16


def required_samples(n: int, theta: float, delta: float) -> int:
    """Smallest k for which 2n * exp(-k theta^2 / 200) <= delta."""
    check_width(n)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(200.0 / (theta * theta) * math.log(2.0 * n / delta))


def list_cap(theta: float) -> int:
    """Size bound floor(2/theta) on the surviving candidate list."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return math.floor(2.0 / theta)


def heavy_set(spec: FourierSpectrum, theta: float) -> set[int]:
    """Exact heavy set {s : p0(s) >= theta} from a known spectrum (test oracle)."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return {int(s) for s, c in zip(spec.support, spec.coeffs) if c * c >= theta}


def p_d_poly(eta: float, d: int) -> float:
    """Probability bound for mismatching across Hamming distance d:
    sum_{i=0}^{floor(d/2)} (1 - I(i = d/2)/2) C(d,i) eta^(d-i) (1-eta)^i."""
    if not 0.0 < eta < 0.5:
        raise ValueError(f"eta must lie in (0, 1/2), got {eta}")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    total = 0.0
    for i in range(d // 2 + 1):
        weight = 0.5 if 2 * i == d else 1.0
        total += weight * math.comb(d, i) * eta ** (d - i) * (1.0 - eta) ** i
    return total


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
        dist = popcount(chunk[:, None] ^ cand[None, :])
        is_min = dist == dist.min(axis=1, keepdims=True)
        choice = np.argmax(is_min, axis=1)
        tied = np.nonzero(is_min.sum(axis=1) > 1)[0]
        if tied.size:
            draw = np.where(is_min[tied], rng.random((tied.size, len(cand))), -1.0)
            choice[tied] = np.argmax(draw, axis=1)
        counts += np.bincount(choice, minlength=len(cand))
    return counts


def rectify(samples, n: int, theta: float, rng: np.random.Generator) -> list[int]:
    """Run the prefix-recovery recursion on noisy samples.

    Args:
        samples: width-n sample values (sequence of ints or uint64 array).
        n: bit width.
        theta: heaviness threshold on p0; the output has at most
            floor(2/theta) entries.
        rng: source for the random tie-breaks.

    Returns:
        Candidate strings ordered by final match count (descending,
        ties by lexicographic order).
    """
    check_width(n)
    cap = list_cap(theta)
    samples = np.asarray(samples, dtype=np.uint64)
    if not fits_rows(samples, n):
        raise ValueError(f"samples must be a nonempty 1-d sequence of width-{n} values")
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
