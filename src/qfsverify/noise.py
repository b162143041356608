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

from .bits import CapacityError, check_value, check_width, popcount

ANALYTIC_WIDTH_CAP = 12
MASS_TOL = 1e-9


class _UnitFlips:
    """flip_masks for channels flipping runs of ``_UNIT`` adjacent bits from bit 1
    (the last may be shorter) independently with probability strength: the flipped
    slots come from geometric gaps (Devroye 1986, ch. X), clipped so no sum wraps."""

    _UNIT = 1

    def flip_masks(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        check_width(n)
        u, p = self._UNIT, self.strength
        unit_masks = np.array([((1 << min(u, n - i)) - 1) << max(n - i - u, 0)
                               for i in range(0, n, u)], dtype=np.uint64)
        slots = count * len(unit_masks)
        ends = [np.zeros(1, dtype=np.int64)]  # 0, then the flipped slots, 1-based
        while p > 0.0 and ends[-1][-1] < slots:
            gaps = rng.geometric(p, int(slots * p + 6.0 * (slots * p) ** 0.5) + 8)
            ends.append(ends[-1][-1] + np.cumsum(np.minimum(gaps, slots + 1)))
        ends = np.concatenate(ends)[1:]
        rows, units = np.divmod(ends[ends <= slots] - 1, len(unit_masks))
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        masks = np.zeros(count, dtype=np.uint64)
        masks[rows[starts]] = np.bitwise_or.reduceat(unit_masks[units], starts)
        return masks


@dataclass(frozen=True)
class _EtaFlips(_UnitFlips):
    """A unit-flip channel whose strength is its parameter eta < 1/2."""

    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"{type(self).__name__}: eta must lie in [0, 1/2), got {self.eta}")

    @property
    def strength(self) -> float:
        return self.eta


class BitFlipNoise(_EtaFlips):
    """Independent per-bit flips with probability eta < 1/2."""


@dataclass(frozen=True)
class DepolarizingNoise(_UnitFlips):
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


class BlockFlipNoise(_EtaFlips):
    """Correlated noise: disjoint adjacent pairs (1,2), (3,4), ... each flip
    jointly with probability eta, and an unpaired trailing bit alone, so
    every bit flips with probability eta."""

    _UNIT = 2


NoiseChannel = BitFlipNoise | DepolarizingNoise | BlockFlipNoise

CHANNELS = {"bitflip": BitFlipNoise, "depolarizing": DepolarizingNoise,
            "blockflip": BlockFlipNoise}


def make_channel(model: str, eta: float) -> NoiseChannel:
    """Build a channel from its config-file record {model, eta}."""
    cls = CHANNELS.get(model) if isinstance(model, str) else None
    if cls is None:
        raise ValueError(f"unknown noise model {model!r}; expected one of {sorted(CHANNELS)}")
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
