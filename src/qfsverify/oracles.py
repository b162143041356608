"""The two data sources: the classical random example oracle and the
classically simulated noisy Fourier-sampling circuit.

Ground truth may be a BooleanFunction or a FourierSpectrum; both expose
``n`` and vectorized evaluation. Every sampler draws a batch at once by
one route; the shot-by-shot loops that define their laws, and the
physical depolarizing batch that sample_batch's mixture must match, are
test oracles in tests/reference.py. A sample dump is read by the one
grammar it is written in: one parse_rows block, nothing normalised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import RowError, format_rows, parse_rows, random_words
from .boolfn import FourierSpectrum
from .noise import DepolarizingNoise, NoiseChannel

_BUCKET_BITS = 16  # draw_p0's table has at most 2^16 buckets


@dataclass(eq=False)
class ExampleBatch:
    """Random examples in packed array form."""

    xs: np.ndarray
    fxs: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)


def draw_examples(f, count: int, rng: np.random.Generator) -> ExampleBatch:
    if count < 1:
        raise ValueError(f"example count must be positive, got {count}")
    xs = random_words(rng, count, f.n)
    return ExampleBatch(xs, f.eval_many(xs))


def draw_p0(spec: FourierSpectrum, count: int, rng: np.random.Generator) -> np.ndarray:
    """count support strings drawn with probability g-hat(s)^2. A uniform u
    gets index np.searchsorted(cw, u, side="right") over the cumulative
    weights cw, clipped to the last string, found by indexed search: for B a
    power of two u * B is exact, so u lies in bucket floor(u * B), and a
    bucket with no weight inside fixes the index of its uniforms; only those
    in the other buckets are searched for. B is about 4 len(cw), at most
    2^16, and the table is built by counting, in time linear in the support."""
    cw = np.cumsum(spec.coeffs * spec.coeffs)
    # u < 1 then never passes the last weight: this clips the index to the
    # last string, as a cumulative weight short of 1 needs, and keeps cw sorted
    cw[-1] = max(cw[-1], 1.0)
    buckets = 1 << min(_BUCKET_BITS, (4 * len(cw) - 1).bit_length())
    scaled = cw * buckets  # exact, as buckets is a power of two
    # u in bucket b has an index in [lo[b], hi[b]]: lo[b] weights are <= b / buckets
    # and hi[b] are below (b + 1) / buckets
    lo = np.bincount(np.ceil(scaled).astype(np.intp), minlength=buckets).cumsum()[:buckets]
    hi = np.bincount(scaled.astype(np.intp), minlength=buckets).cumsum()[:buckets]
    u = rng.random(count)
    b = (u * buckets).astype(np.intp)
    idx = lo[b]
    hard = (lo != hi)[b].nonzero()[0]
    idx[hard] = np.searchsorted(cw, u[hard], side="right")
    return spec.support[idx]


def sample_batch(spec: FourierSpectrum, channel: NoiseChannel, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """count independent draws of s from the noisy circuit, conditioned on
    its noisy readout y = 1. Bit-flip and block-flip leave y noiseless, so s
    is p0 XOR the channel's flip mask. Depolarization also flips y with its
    strength e = eta_eff(eta), which makes s's law (1 - e) p0 + e delta_0
    under the flips; that mixture is drawn here, and the shot simulation that
    keeps noisy y = 1 is tests/reference.py::physical_batch."""
    if count < 1:
        raise ValueError(f"sample count must be positive, got {count}")
    s = draw_p0(spec, count, rng)
    if isinstance(channel, DepolarizingNoise):
        s = np.where(rng.random(count) < channel.strength, np.uint64(0), s)
    return s ^ channel.flip_masks(spec.n, count, rng)


def write_samples(samples: np.ndarray, n: int, path) -> None:
    """One '0'/'1' string of length n per line, at least one line: an empty
    file has no first row to give read_samples the width."""
    if len(samples) == 0:
        raise ValueError("a sample dump needs at least one sample")
    with open(path, "w") as fh:
        fh.write(format_rows(samples, n) + "\n")


def read_samples(path) -> tuple[np.ndarray, int]:
    """(values, n) of a sample dump exactly as write_samples writes it, its
    final newline optional (text-mode open reads CRLF line ends as LF); a
    fault names its line number."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_rows(text.removesuffix("\n"))
    except RowError as exc:
        raise ValueError(f"line {exc.row + 1}: {exc.reason}") from None
