"""Noise channels on measured bit strings.

Every channel is a NoiseChannel of parameter eta whose ``strength`` is the
rate at which it flips each unit: independent bit flips of strength eta,
depolarization of strength eta reduced to its effective flip rate
eta_eff(eta) = eta - eta^2 / 2, and a correlated block-flip family that
flips disjoint adjacent bit pairs jointly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import check_width


@dataclass(frozen=True)
class NoiseChannel:
    """A channel flipping runs of ``unit`` adjacent bits from bit 1 (the last
    may be shorter) independently with probability strength; by default the
    strength is the parameter eta < 1/2."""

    eta: float
    unit = 1  # unannotated, so a class attribute and not a field

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"{type(self).__name__}: eta must lie in [0, 1/2), got {self.eta}")

    @property
    def strength(self) -> float:
        return self.eta

    def flip_masks(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """count flip masks: the flipped slots come from geometric gaps
        (Devroye 1986, ch. X), clipped so no sum wraps."""
        check_width(n)
        u, p = self.unit, self.strength
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


class BitFlipNoise(NoiseChannel):
    """Independent per-bit flips with probability eta < 1/2."""


class DepolarizingNoise(NoiseChannel):
    """Depolarization of strength eta <= 1 on every measured qubit.

    At the outcome level each bit (the y readout included) flips with the
    effective probability strength = eta_eff(eta) = eta - eta^2 / 2.
    """

    def __post_init__(self) -> None:
        eta_eff(self.eta)  # eta must lie in [0, 1]

    @property
    def strength(self) -> float:
        return eta_eff(self.eta)


class BlockFlipNoise(NoiseChannel):
    """Correlated noise: disjoint adjacent pairs (1,2), (3,4), ... each flip
    jointly with probability eta, and an unpaired trailing bit alone, so
    every bit flips with probability eta."""

    unit = 2


CHANNELS = {"bitflip": BitFlipNoise, "depolarizing": DepolarizingNoise,
            "blockflip": BlockFlipNoise}


def make_channel(model: str, eta: float) -> NoiseChannel:
    """Build a channel from its config-file record {model, eta}."""
    cls = CHANNELS.get(model) if isinstance(model, str) else None
    if cls is None:
        raise ValueError(f"unknown noise model {model!r}; expected one of {sorted(CHANNELS)}")
    return cls(eta)


def eta_eff(eta: float) -> float:
    """Effective flip rate of a depolarizing channel of strength eta: eta - eta^2 / 2."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {eta}")
    return eta - 0.5 * eta * eta
