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
    """count support strings drawn with probability g-hat(s)^2, by binary
    search of count uniforms in the cumulative weights."""
    idx = np.searchsorted(np.cumsum(spec.coeffs * spec.coeffs), rng.random(count),
                          side="right")
    return spec.support[np.minimum(idx, len(spec.support) - 1)]


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
