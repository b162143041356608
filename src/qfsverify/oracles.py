"""The two data sources: the classical random example oracle and the
classically simulated noisy Fourier-sampling circuit.

Ground truth may be a BooleanFunction or a FourierSpectrum; both expose
``n`` and vectorized evaluation. Every sampler draws a batch at once;
the shot-by-shot loops that define their laws are kept as test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import RowError, format_rows, parse_rows, random_words
from .boolfn import FourierSpectrum
from .noise import DepolarizingNoise, NoiseChannel

SAFETY_STOP = 10 ** 6


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


class P0Sampler:
    """Draws support strings with probability g-hat(s)^2.

    Cumulative weights over the (sorted) sparse support are precomputed
    once; draws use binary search on uniforms.
    """

    def __init__(self, spec: FourierSpectrum):
        self.n = spec.n
        self.support = spec.support
        probs = spec.coeffs * spec.coeffs
        self._cum = np.cumsum(probs)

    def draw_many(self, count: int, rng: np.random.Generator) -> np.ndarray:
        idx = np.searchsorted(self._cum, rng.random(count), side="right")
        idx = np.minimum(idx, len(self.support) - 1)
        return self.support[idx]


def sample_batch(spec: FourierSpectrum, channel: NoiseChannel, count: int,
                 rng: np.random.Generator, path: str = "effective") -> np.ndarray:
    """count independent draws of s from the noisy circuit, conditioned on
    its noisy readout y = 1. Bit-flip and block-flip leave y noiseless, so s
    is p0 XOR the channel's flip mask on either path. Depolarization also
    flips y with eta_eff, which makes s's law (1 - eta_eff) p0 + eta_eff delta_0
    under the flips: the effective path draws that mixture, the physical path
    simulates shots (y = 1 w.p. 1/2 with s ~ p0, else 0^n) and keeps noisy y = 1."""
    if count < 1:
        raise ValueError(f"sample count must be positive, got {count}")
    if path not in ("effective", "physical"):
        raise ValueError(f"unknown sampling path {path!r}")
    sampler = P0Sampler(spec)
    depolarizing = isinstance(channel, DepolarizingNoise)
    if depolarizing and path == "physical":
        return _physical_batch(sampler, channel, count, rng)
    s = sampler.draw_many(count, rng)
    if depolarizing:
        s = np.where(rng.random(count) < channel.eta_eff, np.uint64(0), s)
    return s ^ channel.flip_masks(spec.n, count, rng)


def _physical_batch(sampler: P0Sampler, channel: DepolarizingNoise, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = sampler.n
    eta = channel.eta_eff
    chunks = []
    have = 0
    for _ in range(SAFETY_STOP):
        take = 2 * (count - have) + 16
        y = rng.random(take) < 0.5
        s = np.where(y, sampler.draw_many(take, rng), np.uint64(0))
        s ^= channel.flip_masks(n, take, rng)
        y_noisy = y ^ (rng.random(take) < eta)
        kept = s[y_noisy]
        chunks.append(kept)
        have += len(kept)
        if have >= count:
            return np.concatenate(chunks)[:count]
    raise RuntimeError("physical-path sampling exceeded the safety stop")


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
