"""Coefficient estimation from random examples, the sparse spectrum
estimator, and the agnostic parity learner built on top of rectification."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import check_fraction, parity
from .boolfn import FourierSpectrum
from .noise import NoiseChannel
from .oracles import ExampleBatch, draw_examples, sample_batch
from .rectify import rectify, required_samples


def examples_needed(m: int, eps: float, delta: float) -> int:
    """Smallest k' for which m * 2 exp(-k' eps^2 / 2) <= delta
    (Hoeffding, union-bounded over a size-m support)."""
    if m < 1:
        raise ValueError(f"support size must be positive, got {m}")
    check_fraction("eps", eps)
    check_fraction("delta", delta)
    return math.ceil(2.0 / (eps * eps) * math.log(2.0 * m / delta))


def estimate_coeffs(s_set, examples: ExampleBatch) -> dict[int, float]:
    """Empirical coefficients: mean of (1 - 2 f(x)) * chi_s(x) per candidate.

    Each summand is +1 where parity(x & s) equals f(x) and -1 elsewhere, so
    the sum is the integer k - 2 * (disagreements), divided once; estimates
    on a full truth table are exact.
    """
    if len(examples) == 0:
        raise ValueError("example list is empty")
    xs, fxs = examples.xs, examples.fxs
    k = len(xs)
    out: dict[int, float] = {}
    for s in s_set:
        disagree = int(np.count_nonzero(parity(xs & np.uint64(s)) != fxs))
        out[int(s)] = (k - 2 * disagree) / k
    return out


@dataclass(eq=False)
class SparseEstimate:
    """Estimated coefficients on the rectified candidate list, zero elsewhere."""

    entries: dict[int, float]
    qfs_samples: int
    examples_used: int


def sparse_estimate(spec: FourierSpectrum, channel: NoiseChannel, eps: float,
                    delta: float, rng: np.random.Generator) -> SparseEstimate:
    """Recover candidate heavy strings from noisy circuit samples, then
    estimate their coefficients from fresh random examples.

    Rectification runs at threshold eps^2 with failure budget delta/2;
    estimation union-bounds over the recovered list with budget delta/4.
    """
    check_fraction("eps", eps)
    check_fraction("delta", delta)
    limit = eps * eps / 10.0
    if channel.strength > limit:
        raise ValueError(
            f"channel strength {channel.strength} exceeds eps^2/10 = {limit}")
    theta = eps * eps
    k = required_samples(spec.n, theta, delta / 2.0)
    batch = sample_batch(spec, channel, k, rng)
    support = rectify(batch, spec.n, theta, rng)
    kprime = examples_needed(len(support), eps, delta / 4.0)
    ex = draw_examples(spec, kprime, rng)
    return SparseEstimate(entries=estimate_coeffs(support, ex), qfs_samples=k,
                          examples_used=kprime)


def argmax_estimate(entries: dict[int, float]) -> int:
    """Largest estimated coefficient; ties take the lexicographically
    smallest string, an empty map falls back to the all-zeros string."""
    if not entries:
        return 0
    best = max(entries.values())
    return min(s for s, v in entries.items() if v == best)


def learn_parity(spec: FourierSpectrum, channel: NoiseChannel, eps: float,
                 delta: float, rng: np.random.Generator) -> int:
    """Agnostic parity learner: the argmax of the sparse estimate."""
    est = sparse_estimate(spec, channel, eps, delta, rng)
    return argmax_estimate(est.entries)


def regret(spec: FourierSpectrum, s0: int) -> float:
    """Excess loss of hypothesis s0 over the best parity:
    (max_s g-hat(s) - g-hat(s0)) / 2."""
    return (spec.max_coeff() - spec.coeff(s0)) / 2.0
