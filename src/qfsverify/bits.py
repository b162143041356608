"""Packed bit-string helpers.

Width-n bit strings are packed into ints (and uint64 arrays) with bit 1,
the leftmost character of the string form, in the most significant
position. Consequences used throughout the package:

* the length-m prefix of a width-n value is ``v >> (n - m)``,
* lexicographic order on equal-width strings is plain integer order,
* Hamming distance is the popcount of an XOR.

The text form is one '0'/'1' row per value, rows separated by '\n':
format_rows and parse_rows are the batch codec every reader and writer of
the package goes through, and parse_rows reads the whole block of rows
from the one string its caller already holds; format_table and
parse_table carry a truth table as one '0'/'1' string.
"""
from __future__ import annotations

import re

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


class RowError(ValueError):
    """A malformed row in a batch of text rows; ``row`` is its 0-based index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


def parse_bits(s: str) -> tuple[int, int]:
    """Parse one '0'/'1' string into (value, width); a second row raises RowError."""
    values, n = parse_rows(s)
    if len(values) != 1:
        raise RowError(1, f"{s!r} is more than one row")
    return int(values[0]), n


def format_bits(v: int, n: int) -> str:
    """Format a packed value as a width-n '0'/'1' string."""
    return format_rows([v], n)


def fits_rows(values, n) -> bool:
    """True when ``values`` is a nonempty 1-D uint64 array that format_rows
    writes at width n, so that parse_rows reads it back."""
    return (isinstance(values, np.ndarray) and values.dtype == np.uint64
            and values.ndim == 1 and values.size > 0
            and isinstance(n, (int, np.integer)) and 1 <= n <= MAX_WIDTH
            and not int(values.max()) >> int(n))


def format_rows(values, n: int, labels=None) -> str:
    """The values as width-n '0'/'1' rows joined by newlines; with
    ``labels`` each row ends in a space and its 0/1 label."""
    n = check_width(n)
    words = _words(values, n)
    big_endian = (words << np.uint64(64 - n)).astype(">u8").view(np.uint8)
    bits = np.unpackbits(big_endian.reshape(-1, 8), axis=1, count=n)
    tail = ""
    if labels is not None:
        bits, tail = np.column_stack([bits, _words(labels, 1).astype(np.uint8)]), " 1"
    template = np.frombuffer(f"{'1' * n}{tail}\n".encode(), dtype=np.uint8)
    rows = np.tile(template, (len(words), 1))
    rows[:, template == ord("1")] = bits | ord("0")
    return rows.tobytes()[:-1].decode("ascii")


def parse_rows(text: str) -> tuple[np.ndarray, int]:
    """Parse one text block of equal-width '0'/'1' rows, each row ended by
    '\n' except the last, into (uint64 values, width); a ragged or
    non-'0'/'1' row raises RowError naming its index."""
    bits, n = _bit_rows(text, "")
    return pack_rows(bits), n


def parse_labelled_rows(text: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse a block of "bits<space>label" rows into (uint64 values, uint8
    labels, width)."""
    bits, n = _bit_rows(text, " 1")
    return pack_rows(bits[:, :n]), bits[:, n], n


def _words(values, n: int) -> np.ndarray:
    """values as a uint64 array that fits_rows accepts (one max test)."""
    words = np.asarray(values)
    if words.size == 0 or words.dtype.kind in "biu" and words.min() >= 0:
        words = words.astype(np.uint64, copy=False)
    if words.size and not fits_rows(words, n):
        raise ValueError(f"bit strings must be a 1-D batch of integers in [0, 2**{n})")
    return words


def _bit_rows(text: str, tail: str) -> tuple[np.ndarray, int]:
    """The 0/1 matrix of the bit columns of the rows of ``text`` laid out as
    n bits and ``tail`` (each '1' in it one more bit), with n read off the
    first row."""
    first = text.find("\n")
    n = (len(text) if first < 0 else first) - len(tail)
    if not 1 <= n <= MAX_WIDTH:
        raise RowError(0, f"width {n} is not in 1..{MAX_WIDTH}")
    template = np.frombuffer(f"{'1' * n}{tail}\n".encode(), dtype=np.uint8)
    is_bit = template == ord("1")
    # a non-ASCII character becomes one '?' byte, so columns stay aligned
    data = np.frombuffer((text + "\n").encode("ascii", "replace"), dtype=np.uint8)
    if data.size % template.size == 0:
        rows = data.reshape(-1, template.size)
        if ((rows | is_bit) == template).all():  # c | 1 is "1" just for "0" and "1"
            return rows[:, is_bit] & np.uint8(1), n
    lines = text.split("\n")
    form = re.compile("[01]" * n + tail.replace("1", "[01]"))
    row = next(i for i, line in enumerate(lines) if not form.fullmatch(line))
    raise RowError(row, f"{lines[row]!r} is not {n} bits{' and a label' * bool(tail)}")


def format_table(bits) -> str:
    """A 0/1 array as one '0'/'1' string, one character per entry."""
    return (np.asarray(bits, dtype=np.uint8) | ord("0")).tobytes().decode("ascii")


def parse_table(text: str) -> np.ndarray:
    """The uint8 0/1 array of a '0'/'1' string; other characters raise ValueError."""
    data = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    if ((data | 1) != ord("1")).any():
        raise ValueError("a table must be a string of '0'/'1' characters")
    return data & np.uint8(1)


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
