"""Error rectification: recover the heavy components of p0 from noisy samples.

The algorithm grows candidate prefixes one bit at a time. At step m every
surviving prefix is extended by 0 and by 1, each sample's m-bit prefix is
matched to the nearest candidate in Hamming distance (ties broken
uniformly at random, one row of uniforms per tied sample in sample order),
and the floor(2/theta) candidates with the largest match counts survive.

Samples are sorted once, and each step works on the distinct sample
values, whose m-bit prefixes form sorted runs (groups): each distinct
prefix q is matched once for its whole group. A child c·b of a surviving
parent c lies at distance d(c, q >> 1) + [b != last bit of q] from q, so
only children ending in q's last bit can be nearest, and a parents x
groups distance matrix decides the nearest set and its ties. The samples
of tied groups are put back in sample order and their uniform rows are
drawn in blocks of _TIE_ROWS rows. Consecutive draws continue one stream,
so the list and the generator state are those of the per-sample matcher
(tests/reference.py::rectify_dense) whatever the block size.
"""
from __future__ import annotations

import math

import numpy as np

from .bits import check_width, fits_rows, popcount
from .boolfn import FourierSpectrum

_TIE_ROWS = 1 << 11  # tied samples whose tie-break uniforms are drawn at once


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
    # narrowest types, where NumPy's stable sort is a radix sort (n <= 16,
    # and k <= 65,536 for the tied samples' indices); the order among
    # equal values never reaches the output, so wider values use quicksort
    ranked = samples.astype(np.min_scalar_type((1 << n) - 1))
    order = np.argsort(ranked, kind="stable" if n <= 16 else "quicksort")
    order = order.astype(np.min_scalar_type(len(ranked) - 1))
    ranked = ranked[order]
    edge = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1], [True])))
    values = ranked[edge[:-1]]  # distinct, ascending: ranked[edge[i]:edge[i + 1]] holds values[i]
    cut = np.ones(len(edge), dtype=bool)  # where a run of equal prefixes starts, and the end
    level = np.zeros(1, dtype=np.uint64)  # the empty prefix
    for m in range(1, n + 1):
        prefixes = values >> (n - m)
        np.not_equal(prefixes[1:], prefixes[:-1], out=cut[1:-1])
        runs = np.flatnonzero(cut)
        group = prefixes[runs[:-1]]  # the distinct m-bit prefixes, ascending
        lo = edge[runs]  # group g fills ranked[lo[g]:lo[g + 1]]
        size = np.diff(lo)
        bit = (group & 1).astype(np.intp)
        word = np.min_scalar_type((1 << (m - 1)) - 1)  # the narrowest type of parents
        # d(c·b, q) = d(c, q >> 1) + [b != last bit of q]
        dist = popcount(level[:, None].astype(word) ^ (group >> 1).astype(word))
        near = dist == dist.min(axis=0)
        tied = near.sum(axis=0, dtype=np.min_scalar_type(len(level))) > 1
        counts = np.bincount(2 * _first_row(near) + bit, weights=np.where(tied, 0, size),
                             minlength=2 * len(level)).astype(np.int64)  # exact in float64
        if tied.any():  # the tied groups' samples, put back in sample order
            tg = np.flatnonzero(tied)
            span = size[tg]
            pos = np.arange(span.sum()) + np.repeat(lo[tg] - (np.cumsum(span) - span), span)
            tg = np.repeat(tg, span)[np.argsort(order[pos], kind="stable")]
            far = np.ascontiguousarray(~near.T)
            for a in range(0, len(tg), _TIE_ROWS):  # one stream, drawn block by block
                g = tg[a:a + _TIE_ROWS]
                b = bit[g]
                # each sample's draws for the children ending in its last bit,
                # moved below 0 where the parent is not nearest
                draw = rng.random((len(g), len(level), 2))[np.arange(len(g)), :, b]
                draw -= far[g]
                draw = np.ascontiguousarray(draw.T)
                won = _first_row(draw == draw.max(axis=0))
                counts += np.bincount(2 * won + b, minlength=2 * len(level))
        cand = ((level[:, None] << np.uint64(1)) | np.arange(2, dtype=np.uint64)).ravel()
        # primary key: count descending; tie key: prefix ascending
        level = cand[np.lexsort((cand, -counts))][:cap]
    return [int(s) for s in level]
