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
from the one string its caller already holds. The codec moves eight
characters per uint64 word: format_rows looks up the 8 characters of each
byte of the values in a 256-word table and stores each word into every
row at once through a strided view of the output buffer; parse_rows
checks the block's bytes flat, then reads each row's 8-character words
through strided views and turns each into 8 bits with one multiply
(``((x & 0x0101010101010101) * 0x8040201008040201) >> 56``). Only a block
that fails the check is split into lines, to name the bad row.
format_table and parse_table carry a truth table as one '0'/'1' string.
"""
from __future__ import annotations

import operator
import re

import numpy as np

MAX_WIDTH = 64

# the 8 '0'/'1' characters of each byte value, most significant bit first,
# as one little-endian word: _CHARS[b] is the text of b in 8 bytes
_CHARS = (np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
          | ord("0")).view("<u8").ravel()
_PAD = b"\n" + bytes(7)


class CapacityError(ValueError):
    """A width or size exceeds what this implementation supports."""


def check_width(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"width must be a positive integer, got {n!r}")
    if n > MAX_WIDTH:
        raise CapacityError(f"width {n} exceeds the supported maximum {MAX_WIDTH}")
    return int(n)


def check_fraction(name: str, v: float) -> float:
    """v when it lies in the open interval (0, 1); else ValueError naming ``name``."""
    if not 0.0 < v < 1.0:
        raise ValueError(f"{name}: must lie in (0, 1), got {v}")
    return v


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


def check_rows(values, n: int) -> np.ndarray:
    """``values`` when it is a nonempty 1-D uint64 array of width-n values,
    which format_rows writes and parse_rows reads back; else ValueError."""
    n = check_width(n)
    if not (isinstance(values, np.ndarray) and values.dtype == np.uint64
            and values.ndim == 1 and values.size and not int(values.max()) >> n):
        raise ValueError(f"bit strings must be a nonempty 1-D uint64 array of width-{n} values")
    return values


def as_rows(values, n: int) -> np.ndarray:
    """values as the uint64 array check_rows accepts: an unsigned or bool array
    as it is, anything else value by value through operator.index (NumPy reads
    ints on both sides of 2**63 as floats), so a float or negative one raises."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "bu"):
        try:
            values = np.fromiter(map(operator.index, values), np.uint64)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"bit strings must be non-negative integers: {exc}") from None
    return check_rows(values.astype(np.uint64, copy=False), n)


def format_rows(values, n: int) -> str:
    """The values as width-n '0'/'1' rows joined by newlines; no values, no text."""
    n = check_width(n)
    if len(values) == 0:
        return ""
    words = as_rows(values, n)
    k = len(words)
    w = n + 1
    buf = np.empty(k * w, dtype=np.uint8)
    rows = buf.reshape(k, w)
    if n < 8:  # narrower than a word: the first n characters of one
        chars = _CHARS.take((words << np.uint64(8 - n)).astype(np.uint8))
        rows[:, :n] = chars.view(np.uint8).reshape(k, 8)[:, :n]
    else:  # words at 0, 8, 16, ... and one ending at the last bit, which
        # writes the same characters where it overlaps the word before it
        for o in {*range(0, n - 7, 8), n - 8}:
            chars = _CHARS.take((words >> np.uint64(n - 8 - o)).astype(np.uint8))
            np.ndarray((k,), "<u8", buffer=buf, offset=o, strides=(w,))[...] = chars
    rows[:, n] = ord("\n")
    return str(memoryview(buf)[:-1], "ascii")


def parse_rows(text: str) -> tuple[np.ndarray, int]:
    """Parse one text block of equal-width '0'/'1' rows, each row ended by
    '\n' except the last, into (uint64 values, width), with the width read
    off the first row; a ragged or non-'0'/'1' row raises RowError naming
    its index."""
    first = text.find("\n")
    n = len(text) if first < 0 else first
    if not 1 <= n <= MAX_WIDTH:
        raise RowError(0, f"width {n} is not in 1..{MAX_WIDTH}")
    w = n + 1
    # a non-ASCII character becomes one '?' byte, so columns stay aligned;
    # the 7 bytes after the last '\n' let the last row's words read past it
    data = np.frombuffer(text.encode("ascii", "replace") + _PAD, dtype=np.uint8)
    body = data[:len(text) + 1]
    k = body.size // w
    if not (body.size % w == 0 and (body[n::w] == ord("\n")).all()
            # c | 1 is "1" just for "0" and "1"; the '\n' column is checked above
            and np.count_nonzero((body | 1) == ord("1")) == k * n):
        raise _row_error(text, n)
    q = -(-n // 8)
    values = np.zeros(k, dtype=np.uint64)
    for j in range(q):  # characters 8j..8j+7 of every row, as 8 bits, first one highest
        x = np.ndarray((k,), "<u8", buffer=data, offset=8 * j, strides=(w,))
        x = x & np.uint64(0x0101010101010101)
        x *= np.uint64(0x8040201008040201)
        x >>= np.uint64(56)
        values <<= np.uint64(8)
        values |= x
    # drop what the last word read past the row's last bit: '\n', the next
    # row or the padding
    values >>= np.uint64(8 * q - n)
    return values, n


def _row_error(text: str, n: int) -> RowError:
    """The RowError of the first row of ``text`` that is not n bits."""
    lines = text.split("\n")
    form = re.compile("[01]" * n)
    row = next(i for i, line in enumerate(lines) if not form.fullmatch(line))
    return RowError(row, f"{lines[row]!r} is not {n} bits")


def format_table(bits) -> str:
    """A 0/1 array as one '0'/'1' string, one character per entry."""
    return (np.asarray(bits, dtype=np.uint8) | ord("0")).tobytes().decode("ascii")


def parse_table(text: str) -> np.ndarray:
    """The uint8 0/1 array of a '0'/'1' string; other characters raise ValueError."""
    data = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    if ((data | 1) != ord("1")).any():
        raise ValueError("a table must be a string of '0'/'1' characters")
    return data & np.uint8(1)


def parity(arr: np.ndarray) -> np.ndarray:
    """Parity of the popcount, as uint8 0/1."""
    return np.bitwise_count(arr) & np.uint8(1)


def random_words(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count uniform width-n values as uint64."""
    check_width(n)
    return rng.integers(0, 1 << n, size=count, dtype=np.uint64, endpoint=False)
