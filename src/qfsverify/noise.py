"""Noise channels on measured bit strings.

Three channels are provided: independent bit flips of strength eta,
depolarization reduced to its effective flip rate
eta_eff = eta_dep - eta_dep^2 / 2, and a correlated block-flip family
that flips disjoint adjacent bit pairs jointly. A dense analytic oracle
for the binary-symmetric-channel convolution backs the statistical tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import CapacityError, check_value, check_width, pack_rows, popcount

ANALYTIC_WIDTH_CAP = 12
MASS_TOL = 1e-9


class _IndependentFlips:
    """flip_masks for channels that flip each bit independently with
    probability ``strength``."""

    def flip_masks(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        check_width(n)
        if self.strength == 0.0:
            return np.zeros(count, dtype=np.uint64)
        return pack_rows(rng.random((count, n)) < self.strength)


@dataclass(frozen=True)
class BitFlipNoise(_IndependentFlips):
    """Independent per-bit flips with probability eta < 1/2."""

    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"bit-flip strength must lie in [0, 1/2), got {self.eta}")

    @property
    def strength(self) -> float:
        return self.eta


@dataclass(frozen=True)
class DepolarizingNoise(_IndependentFlips):
    """Depolarization of strength eta_dep on every measured qubit.

    At the outcome level each bit (the y readout included) flips with the
    cached effective probability eta_eff = eta_dep - eta_dep^2 / 2.
    """

    eta_dep: float
    eta_eff: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta_eff", eta_eff(self.eta_dep))

    @property
    def strength(self) -> float:
        return self.eta_eff


@dataclass(frozen=True)
class BlockFlipNoise:
    """Correlated noise: disjoint adjacent pairs (1,2), (3,4), ... are each
    flipped jointly with probability eta; an unpaired trailing bit flips
    independently with the same probability, so every per-bit marginal
    flip rate equals eta."""

    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"block-flip strength must lie in [0, 1/2), got {self.eta}")

    @property
    def strength(self) -> float:
        return self.eta

    def flip_masks(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        check_width(n)
        if self.eta == 0.0:
            return np.zeros(count, dtype=np.uint64)
        pairs = n // 2
        mask = np.zeros(count, dtype=np.uint64)
        for p in range(pairs):
            hit = rng.random(count) < self.eta
            pair_bits = np.uint64(0b11) << np.uint64(n - 2 - 2 * p)
            mask |= np.where(hit, pair_bits, np.uint64(0))
        if n % 2:
            hit = rng.random(count) < self.eta
            mask |= np.where(hit, np.uint64(1), np.uint64(0))
        return mask


NoiseChannel = BitFlipNoise | DepolarizingNoise | BlockFlipNoise

CHANNELS = {"bitflip": BitFlipNoise, "depolarizing": DepolarizingNoise,
            "blockflip": BlockFlipNoise}


def make_channel(model: str, eta: float) -> NoiseChannel:
    """Build a channel from its config-file record {model, eta}."""
    try:
        cls = CHANNELS[model]
    except KeyError:
        raise ValueError(f"unknown noise model {model!r}; "
                         f"expected one of {sorted(CHANNELS)}") from None
    return cls(eta)


def eta_eff(eta_dep: float) -> float:
    """Effective flip rate of a depolarizing channel: eta_dep - eta_dep^2 / 2."""
    if not 0.0 <= eta_dep <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {eta_dep}")
    return eta_dep - 0.5 * eta_dep * eta_dep


def _check_normalized(probs, what: str) -> None:
    total = float(sum(probs))
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"{what} must sum to 1, got {total!r}")


def p0_eff(p0: dict[int, float], eta: float) -> dict[int, float]:
    """Mix a sparse distribution with the all-zeros point mass:
    (1 - eta) * p0 + eta * delta_0."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {eta}")
    _check_normalized(p0.values(), "input distribution")
    if eta == 0.0:
        return dict(p0)
    out = {s: (1.0 - eta) * p for s, p in p0.items()}
    out[0] = out.get(0, 0.0) + eta
    return out


def analytic_noisy_dist(p0: dict[int, float], eta: float, n: int) -> np.ndarray:
    """Exact binary-symmetric-channel convolution, dense over all 2^n strings.

    Test oracle only: p_eta(s) = sum_s' eta^d(s,s') (1-eta)^(n-d(s,s')) p0(s').
    """
    check_width(n)
    if n > ANALYTIC_WIDTH_CAP:
        raise CapacityError(f"analytic oracle needs n <= {ANALYTIC_WIDTH_CAP}, got {n}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {eta}")
    _check_normalized(p0.values(), "input distribution")
    xs = np.arange(1 << n, dtype=np.uint64)
    out = np.zeros(1 << n, dtype=np.float64)
    for s_src, p in p0.items():
        check_value(s_src, n)
        d = popcount(xs ^ np.uint64(s_src)).astype(np.float64)
        out += p * eta ** d * (1.0 - eta) ** (n - d)
    return out
