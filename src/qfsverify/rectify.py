"""Error rectification: recover the heavy components of p0 from noisy samples.

The algorithm grows candidate prefixes one bit at a time. At step m every
surviving prefix is extended by 0 and by 1, each sample's m-bit prefix is
matched to the nearest candidate in Hamming distance (ties broken
uniformly at random, one row of uniforms per tied sample in sample order),
and the floor(2/theta) candidates with the largest match counts survive.
Samples are sorted once, so equal prefixes form runs at every step and
each distinct prefix is matched once for its whole group.
"""
from __future__ import annotations

import math

import numpy as np

from .bits import check_width, fits_rows, popcount
from .boolfn import FourierSpectrum


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
    order = np.argsort(samples, kind="stable")
    ranked = samples[order]
    start = np.ones(len(ranked), dtype=bool)  # where a run of equal prefixes starts
    level = np.zeros(1, dtype=np.uint64)  # the empty prefix
    for m in range(1, n + 1):
        cand = ((level[:, None] << np.uint64(1)) | np.arange(2, dtype=np.uint64)).ravel()
        prefixes = ranked >> np.uint64(n - m)
        np.not_equal(prefixes[1:], prefixes[:-1], out=start[1:])
        first = np.flatnonzero(start)
        word = np.min_scalar_type((1 << m) - 1)  # the narrowest type of m-bit values
        dist = popcount(prefixes[first, None].astype(word) ^ cand.astype(word))
        is_min = dist == dist.min(axis=1, keepdims=True)
        tied = is_min.sum(axis=1) > 1
        size = np.diff(first, append=len(ranked))
        counts = np.bincount(np.argmax(is_min, axis=1), weights=np.where(tied, 0, size),
                             minlength=len(cand)).astype(np.int64)  # exact in float64
        if tied.any():  # the tied samples' groups, put back in sample order
            group = np.repeat(np.flatnonzero(tied), size[tied])
            group = group[np.argsort(order[np.repeat(tied, size)])]
            draw = rng.random((group.size, len(cand)))
            draw[~is_min[group]] = -1.0
            counts += np.bincount(np.argmax(draw, axis=1), minlength=len(cand))
            del draw, group  # freed before the next step's distance matrix
        # primary key: count descending; tie key: prefix ascending
        level = cand[np.lexsort((cand, -counts))][:cap]
    return [int(s) for s in level]
