"""Error rectification: recover the heavy components of p0 from noisy samples.

The algorithm grows candidate prefixes one bit at a time. At step m every
surviving prefix is extended by 0 and by 1, each sample's m-bit prefix is
matched to the nearest candidate in Hamming distance (ties broken
uniformly at random, one integer draw per tied sample, samples taken in
ascending order), and the floor(2/theta) candidates with the largest
match counts survive.

Samples are sorted once, and each step works on the distinct sample
values, whose m-bit prefixes form sorted runs (groups): each distinct
prefix q is matched once for its whole group. A child c·b of a surviving
parent c lies at distance d(c, q >> 1) + [b != last bit of q] from q, so
only children ending in q's last bit can be nearest, and a parents x
groups distance matrix decides the nearest set and its ties. Each sample
of a tied group, group by group in ascending order, draws
rng.integers(0, ways) over its group's `ways` nearest parents in the
surviving list's order: match count descending, then prefix ascending,
as the previous step kept them, not ascending value. The list and the
generator state are those of tests/reference.py::nearest_match applied
to each sample in ascending order at each level.
"""
from __future__ import annotations

import math

import numpy as np

from .bits import check_width, fits_rows
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
    """Exact heavy set {s : p0(s) >= theta} from a known spectrum."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return {int(s) for s, c in zip(spec.support, spec.coeffs) if c * c >= theta}


def _first_row(mask: np.ndarray) -> np.ndarray:
    """Index of the first True in each column of a 2-d bool array, as
    np.argmax(mask, axis=0) returns it, from reductions across rows."""
    rank = np.arange(len(mask), 0, -1, dtype=np.min_scalar_type(len(mask)))
    return len(mask) - (mask * rank[:, None]).max(axis=0).astype(np.intp)


def rectify(samples, n: int, theta: float, rng: np.random.Generator) -> list[int]:
    """Run the prefix-recovery recursion on noisy samples.

    Args:
        samples: width-n sample values (sequence of ints or uint64 array).
        n: bit width.
        theta: heaviness threshold on p0; the output has at most
            floor(2/theta) entries.
        rng: source for the random tie-breaks; untied matches draw nothing.

    Returns:
        Candidate strings ordered by final match count (descending,
        ties by lexicographic order).
    """
    check_width(n)
    cap = list_cap(theta)
    samples = np.asarray(samples, dtype=np.uint64)
    if not fits_rows(samples, n):
        raise ValueError(f"samples must be a nonempty 1-d sequence of width-{n} values")
    ranked = np.sort(samples.astype(np.min_scalar_type((1 << n) - 1)))
    edge = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1], [True])))
    values = ranked[edge[:-1]]  # distinct, ascending: ranked[edge[i]:edge[i + 1]] holds values[i]
    cut = np.ones(len(edge), dtype=bool)  # where a run of equal prefixes starts, and the end
    level = np.zeros(1, dtype=np.uint64)  # the empty prefix
    for m in range(1, n + 1):
        prefixes = values >> (n - m)
        np.not_equal(prefixes[1:], prefixes[:-1], out=cut[1:-1])
        runs = np.flatnonzero(cut)
        group = prefixes[runs[:-1]]  # the distinct m-bit prefixes, ascending
        size = np.diff(edge[runs])  # samples per group
        bit = (group & 1).astype(np.intp)
        # the parents' m - 1 bits; not uint16, whose np.bitwise_count is not vectorised
        word = np.uint8 if m <= 9 else np.uint32 if m <= 33 else np.uint64
        # d(c·b, q) = d(c, q >> 1) + [b != last bit of q]
        dist = np.bitwise_count(level[:, None].astype(word) ^ (group >> 1).astype(word))
        near = dist == dist.min(axis=0)
        ways = near.sum(axis=0, dtype=np.min_scalar_type(len(level)))  # nearest parents per group
        tied = ways > 1
        counts = np.bincount(2 * _first_row(near) + bit, weights=np.where(tied, 0, size),
                             minlength=2 * len(level)).astype(np.int64)  # exact in float64
        if tied.any():  # one draw per tied sample, group by group in ascending order
            tg = np.flatnonzero(tied)
            w, span = ways[tg].astype(np.intp), size[tg]  # intp: offsets add to int64 draws
            # the t-th tied group's nearest parents, in list order, as t * len(level) + parent
            pair = np.flatnonzero(near[:, tg].T.ravel())
            won = pair[np.repeat(np.cumsum(w) - w, span) + rng.integers(0, np.repeat(w, span))]
            counts += np.bincount(2 * (won % len(level)) + np.repeat(bit[tg], span),
                                  minlength=2 * len(level))
        cand = ((level[:, None] << np.uint64(1)) | np.arange(2, dtype=np.uint64)).ravel()
        # primary key: count descending; tie key: prefix ascending
        level = cand[np.lexsort((cand, -counts))][:cap]
    return [int(s) for s in level]
