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

from .bits import (RowError, format_rows, parse_labelled_rows, parse_rows,
                   random_words)
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
    _write_rows(path, format_rows(samples, n))


def read_samples(path) -> tuple[np.ndarray, int]:
    return _read_rows(path, "sample", parse_rows)


def write_examples(batch: ExampleBatch, path) -> None:
    """One "x-string<space>bit" record per line."""
    _write_rows(path, format_rows(batch.xs, batch.n, labels=batch.fxs))


def read_examples(path) -> ExampleBatch:
    xs, fxs, n = _read_rows(path, "example", parse_labelled_rows)
    return ExampleBatch(n, xs, fxs)


def _write_rows(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text + "\n" if text else "")


def _read_rows(path, kind: str, parse):
    """``parse`` of a dump's rows. A dump as the writers write it parses
    whole; any other is read as its nonblank lines, each with its
    whitespace runs collapsed to one space, and a fault names its line
    number. Collapsing changes no line of a dump that parses whole."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text.removesuffix("\n"))
    except RowError:
        pass
    rows = [" ".join(line.split()) for line in text.split("\n")]
    linenos = [i for i, row in enumerate(rows, 1) if row]
    if not linenos:
        raise ValueError(f"{kind} file is empty")
    try:
        return parse("\n".join(rows[i - 1] for i in linenos))
    except RowError as exc:
        raise ValueError(f"line {linenos[exc.row]}: {exc.reason}") from None
