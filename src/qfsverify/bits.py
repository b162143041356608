"""Packed bit-string helpers.

Width-n bit strings are packed into ints (and uint64 arrays) with bit 1,
the leftmost character of the string form, in the most significant
position. Consequences used throughout the package:

* the length-m prefix of a width-n value is ``v >> (n - m)``,
* lexicographic order on equal-width strings is plain integer order,
* Hamming distance is the popcount of an XOR.
"""
from __future__ import annotations

import numpy as np

MAX_WIDTH = 64


class CapacityError(ValueError):
    """A width or size exceeds what this implementation supports."""


def check_width(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"width must be a positive integer, got {n!r}")
    if n > MAX_WIDTH:
        raise CapacityError(f"width {n} exceeds the supported maximum {MAX_WIDTH}")
    return int(n)


def check_value(v: int, n: int) -> int:
    if not isinstance(v, (int, np.integer)):
        raise ValueError(f"bit string must be an integer, got {type(v).__name__}")
    v = int(v)
    if v < 0 or v >> n:
        raise ValueError(f"value {v} does not fit in {n} bits")
    return v


def parse_bits(s: str) -> tuple[int, int]:
    """Parse a '0'/'1' string into (value, width)."""
    n = check_width(len(s))
    v = 0
    for ch in s:
        if ch == "1":
            v = (v << 1) | 1
        elif ch == "0":
            v = v << 1
        else:
            raise ValueError(f"invalid bit character {ch!r} in {s!r}")
    return v, n


def format_bits(v: int, n: int) -> str:
    """Format a packed value as a width-n '0'/'1' string."""
    check_value(v, n)
    return format(v, f"0{n}b")


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr)


def parity(arr: np.ndarray) -> np.ndarray:
    """Parity of the popcount, as uint8 0/1."""
    return np.bitwise_count(arr) & np.uint8(1)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (count, n) 0/1 matrix into uint64 values, column 0 = bit 1."""
    count, n = bits.shape
    check_width(n)
    out = np.zeros(count, dtype=np.uint64)
    for i in range(n):
        out |= bits[:, i].astype(np.uint64) << np.uint64(n - 1 - i)
    return out


def random_words(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count uniform width-n values as uint64."""
    check_width(n)
    return rng.integers(0, 1 << n, size=count, dtype=np.uint64, endpoint=False)
