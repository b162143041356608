"""The two data sources: the classical random example oracle and the
classically simulated noisy Fourier-sampling circuit.

Ground truth may be a BooleanFunction or a FourierSpectrum; both expose
``n`` and vectorized evaluation. Every sampler draws a batch at once by
one route; the shot-by-shot loops that define their laws, and the
physical depolarizing batch that sample_batch's mixture must match, are
test oracles in tests/reference.py.
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

    n: int
    xs: np.ndarray
    fxs: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)


def draw_examples(f, count: int, rng: np.random.Generator) -> ExampleBatch:
    if count < 1:
        raise ValueError(f"example count must be positive, got {count}")
    xs = random_words(rng, count, f.n)
    return ExampleBatch(f.n, xs, f.eval_many(xs))


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
    is p0 XOR the channel's flip mask. Depolarization also flips y with
    eta_eff, which makes s's law (1 - eta_eff) p0 + eta_eff delta_0 under
    the flips; that mixture is drawn here, and the shot simulation that
    keeps noisy y = 1 is tests/reference.py::physical_batch."""
    if count < 1:
        raise ValueError(f"sample count must be positive, got {count}")
    s = draw_p0(spec, count, rng)
    if isinstance(channel, DepolarizingNoise):
        s = np.where(rng.random(count) < channel.eta_eff, np.uint64(0), s)
    return s ^ channel.flip_masks(spec.n, count, rng)


def write_samples(samples: np.ndarray, n: int, path) -> None:
    """One '0'/'1' string of length n per line."""
    text = format_rows(samples, n)
    with open(path, "w") as fh:
        fh.write(text + "\n" if text else "")


def read_samples(path) -> tuple[np.ndarray, int]:
    """(values, n) of a sample dump. A dump as write_samples writes it
    parses whole; any other is read as its nonblank lines, each with its
    whitespace runs collapsed to one space, and a fault names its line
    number. Collapsing changes no line of a dump that parses whole."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_rows(text.removesuffix("\n"))
    except RowError:
        pass
    rows = [" ".join(line.split()) for line in text.split("\n")]
    linenos = [i for i, row in enumerate(rows, 1) if row]
    if not linenos:
        raise ValueError("sample file is empty")
    try:
        return parse_rows("\n".join(rows[i - 1] for i in linenos))
    except RowError as exc:
        raise ValueError(f"line {linenos[exc.row]}: {exc.reason}") from None
