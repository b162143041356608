"""The two data sources: the classical random example oracle and the
classically simulated noisy Fourier-sampling circuit.

Ground truth may be a BooleanFunction or a FourierSpectrum; both expose
``n`` and vectorized evaluation. Scalar operations implement the
definitional sampling loops; ``sample_batch`` is the vectorized
equivalent used by everything performance-sensitive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import check_width, format_bits, parse_bits, random_words
from .boolfn import FourierSpectrum
from .noise import DepolarizingNoise, NoiseChannel, apply

SAFETY_STOP = 10 ** 6


@dataclass(frozen=True)
class RandomExample:
    x: int
    fx: int


@dataclass(frozen=True)
class QfsRawOutcome:
    s: int
    y: int


@dataclass(eq=False)
class ExampleBatch:
    """Random examples in packed array form."""

    n: int
    xs: np.ndarray
    fxs: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i: int) -> RandomExample:
        return RandomExample(int(self.xs[i]), int(self.fxs[i]))


def random_example(f, rng: np.random.Generator) -> RandomExample:
    """One uniform labelled pair (x, f(x))."""
    batch = draw_examples(f, 1, rng)
    return batch[0]


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

    def draw(self, rng: np.random.Generator) -> int:
        return int(self.draw_many(1, rng)[0])


def p0_sample(spec: FourierSpectrum, rng: np.random.Generator) -> int:
    """One draw from p0; batch users should hold a P0Sampler instead."""
    return P0Sampler(spec).draw(rng)


def _raw(sampler: P0Sampler, rng: np.random.Generator) -> QfsRawOutcome:
    if rng.random() < 0.5:
        return QfsRawOutcome(sampler.draw(rng), 1)
    return QfsRawOutcome(0, 0)


def qfs_raw(spec: FourierSpectrum, rng: np.random.Generator) -> QfsRawOutcome:
    """One noise-free circuit shot: y = 1 w.p. 1/2 with s ~ p0, else (0^n, 0)."""
    return _raw(P0Sampler(spec), rng)


def qfs_sample_noisy(spec: FourierSpectrum, channel: NoiseChannel,
                     rng: np.random.Generator, path: str = "effective") -> int:
    """One sample from the noisy conditional law (conditioned on noisy y = 1).

    Bit-flip and block-flip channels leave y noiseless: raw shots are
    repeated until y = 1 and the channel is applied to s. Depolarization
    offers two routes: the physical path flips s's bits and y itself with
    eta_eff and conditions on the noisy y; the effective path (default)
    draws from the equivalent mixture p0_eff and then flips bits.
    """
    sampler = P0Sampler(spec)
    n = spec.n
    if isinstance(channel, DepolarizingNoise):
        if path == "physical":
            eta = channel.eta_eff
            for _ in range(SAFETY_STOP):
                raw = _raw(sampler, rng)
                s = apply(channel, raw.s, n, rng)
                y = raw.y ^ int(rng.random() < eta)
                if y == 1:
                    return s
            raise RuntimeError("physical-path sampling exceeded the safety stop")
        if path != "effective":
            raise ValueError(f"unknown sampling path {path!r}")
        s = 0 if rng.random() < channel.eta_eff else sampler.draw(rng)
        return apply(channel, s, n, rng)
    for _ in range(SAFETY_STOP):
        raw = _raw(sampler, rng)
        if raw.y == 1:
            return apply(channel, raw.s, n, rng)
    raise RuntimeError("raw sampling exceeded the safety stop")


def sample_batch(spec: FourierSpectrum, channel: NoiseChannel, count: int,
                 rng: np.random.Generator, path: str = "effective") -> np.ndarray:
    """count independent draws of qfs_sample_noisy, vectorized."""
    if count < 1:
        raise ValueError(f"sample count must be positive, got {count}")
    sampler = P0Sampler(spec)
    n = spec.n
    if isinstance(channel, DepolarizingNoise):
        if path == "physical":
            return _physical_batch(sampler, channel, count, rng)
        if path != "effective":
            raise ValueError(f"unknown sampling path {path!r}")
        s = sampler.draw_many(count, rng)
        s = np.where(rng.random(count) < channel.eta_eff, np.uint64(0), s)
        return s ^ channel.flip_masks(n, count, rng)
    s = sampler.draw_many(count, rng)
    return s ^ channel.flip_masks(n, count, rng)


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
    check_width(n)
    with open(path, "w") as fh:
        for s in samples:
            fh.write(format_bits(int(s), n) + "\n")


def read_samples(path) -> tuple[np.ndarray, int]:
    values = []
    n = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            v, w = parse_bits(line)
            if n is None:
                n = w
            elif w != n:
                raise ValueError(f"line {lineno}: width {w} != {n}")
            values.append(v)
    if n is None:
        raise ValueError("sample file is empty")
    return np.array(values, dtype=np.uint64), n


def write_examples(batch: ExampleBatch, path) -> None:
    """One "x-string<space>bit" record per line."""
    with open(path, "w") as fh:
        for x, fx in zip(batch.xs, batch.fxs):
            fh.write(f"{format_bits(int(x), batch.n)} {int(fx)}\n")


def read_examples(path) -> ExampleBatch:
    xs, fxs = [], []
    n = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ValueError(f"line {lineno}: expected 'bits bit', got {line!r}")
            v, w = parse_bits(parts[0])
            if n is None:
                n = w
            elif w != n:
                raise ValueError(f"line {lineno}: width {w} != {n}")
            xs.append(v)
            fxs.append(int(parts[1]))
    if n is None:
        raise ValueError("example file is empty")
    return ExampleBatch(n, np.array(xs, dtype=np.uint64), np.array(fxs, dtype=np.uint8))
