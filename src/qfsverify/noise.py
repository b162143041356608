"""Noise channels on measured bit strings.

Three channels are provided: independent bit flips of strength eta,
depolarization reduced to its effective flip rate
eta_eff = eta_dep - eta_dep^2 / 2, and a correlated block-flip family
that flips disjoint adjacent bit pairs jointly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import check_width


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
