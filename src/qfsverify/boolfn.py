"""Boolean functions on {0,1}^n and their Fourier spectra.

A function is stored either as a dense truth table (width <= 24) or as a
junta embedding: a small dense table on j relevant coordinates placed
inside a wider input. Spectra are computed exactly; for +/-1-valued
functions every coefficient is a dyadic rational that float64 represents
with zero rounding error.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .bits import (CapacityError, as_rows, check_value, check_width, format_table,
                   parity, parse_table)

DENSE_WIDTH_CAP = 24
PARSEVAL_TOL = 1e-9
GEN_FTAU_MAX_REJECTS = 1000


class GenerationError(RuntimeError):
    """Rejection sampling gave up; the requested (j, tau) pair is infeasible."""


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """A boolean function, dense or junta-embedded.

    ``coords`` is None for a dense table; otherwise it is the strictly
    increasing tuple of relevant coordinates (1-indexed from the left)
    and ``table`` is the inner truth table on those coordinates. Table
    index i encodes the relevant bits packed leftmost-first.
    """

    n: int
    table: np.ndarray
    coords: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_width(self.n)
        if self.coords is not None:  # checked before width counts them
            if not (isinstance(self.coords, (list, tuple)) and all(
                    isinstance(c, (int, np.integer)) and not isinstance(c, bool)
                    for c in self.coords)):
                raise ValueError(f"coords: must be a list of integers, got {self.coords!r}")
            coords = tuple(map(int, self.coords))
            if any(c < 1 or c > self.n for c in coords):
                raise ValueError(f"coords: out of range 1..{self.n}: {coords}")
            if any(a >= b for a, b in zip(coords, coords[1:])) or not coords:
                raise ValueError("coords: must be strictly increasing and nonempty")
            object.__setattr__(self, "coords", coords)
        w = self.width
        if w > DENSE_WIDTH_CAP:  # a fault names the field it is in
            raise CapacityError(f"{'n' if self.coords is None else 'coords'}: table width "
                                f"{w} exceeds the dense cap {DENSE_WIDTH_CAP}")
        try:  # a 0/1 table is a width-1 row array; astype copies, never the caller's
            table = as_rows(self.table, 1).astype(np.uint8)
        except ValueError as exc:
            raise ValueError(f"table: {exc}") from None
        if table.shape != (1 << w,):
            raise ValueError(f"table: must have {1 << w} entries, got {table.shape}")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def width(self) -> int:
        return self.n if self.coords is None else len(self.coords)

    @classmethod
    def dense(cls, n: int, table) -> "BooleanFunction":
        return cls(n=n, table=table)

    @classmethod
    def junta(cls, n: int, coords, table) -> "BooleanFunction":
        if coords is None:  # the constructor's dense marker, not a junta's coords
            raise ValueError("coords: must be a list of integers, got None")
        return cls(n=n, table=table, coords=coords)

    def _compress(self, xs: np.ndarray) -> np.ndarray:
        """Gather the relevant coordinates of packed inputs into table indices,
        as int64 (the index type of 64-bit NumPy, which indexing takes without
        a conversion): indices are below 2^24, so their uint64 words read the same."""
        if self.coords is None:
            return xs.view(np.int64)
        j = len(self.coords)
        idx = np.zeros(xs.shape, dtype=np.uint64)
        for i, c in enumerate(self.coords):
            bit = (xs >> np.uint64(self.n - c)) & np.uint64(1)
            idx |= bit << np.uint64(j - 1 - i)
        return idx.view(np.int64)

    def eval_many(self, xs) -> np.ndarray:
        return self.table[self._compress(as_rows(xs, self.n))]

    def spectrum(self) -> "FourierSpectrum":
        """Exact sparse Fourier spectrum of g = 1 - 2f via a fast transform."""
        g = 1 - 2 * self.table.astype(np.int64)
        w = fwht(g)
        scale = float(1 << self.width)
        entries: dict[int, float] = {}
        for inner_s in np.nonzero(w)[0]:
            coeff = float(w[inner_s]) / scale
            entries[self._lift(int(inner_s))] = coeff
        return FourierSpectrum(self.n, entries)

    def _lift(self, inner_s: int) -> int:
        """Map an inner-table support index onto the full n coordinates."""
        if self.coords is None:
            return inner_s
        j = len(self.coords)
        s = 0
        for i, c in enumerate(self.coords):
            if (inner_s >> (j - 1 - i)) & 1:
                s |= 1 << (self.n - c)
        return s


# the fields of a function file, by kind, in the order they are written
_FIELDS = {"dense": ("n", "kind", "table"), "junta": ("n", "kind", "table", "coords")}


def write_function(f: BooleanFunction, path) -> None:
    kind = "dense" if f.coords is None else "junta"
    rec = {"n": f.n, "kind": kind, "table": format_table(f.table),
           "coords": list(f.coords or ())}
    with open(path, "w") as fh:
        json.dump({key: rec[key] for key in _FIELDS[kind]}, fh)
        fh.write("\n")


def read_function(path) -> BooleanFunction:
    """The function a write_function file holds. Only the record's shape is
    checked here (a JSON object, its kind, its keys, null as missing);
    parse_table and the constructor judge each field and name it."""
    with open(path) as fh:
        rec = json.load(fh)
    if not isinstance(rec, dict):
        raise ValueError(f"function: must be a JSON object, got {type(rec).__name__}")
    if "kind" not in rec:
        raise ValueError("kind: missing required field")
    kind = rec["kind"]
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise ValueError(f"kind: must be one of {tuple(_FIELDS)}, got {kind!r}")
    for key in rec:
        if key not in _FIELDS[kind]:
            raise ValueError(f"{key}: not a field of a {kind} function")
    for key in _FIELDS[kind]:
        if rec.get(key) is None:
            raise ValueError(f"{key}: missing required field")
    return BooleanFunction(rec["n"], parse_table(rec["table"]), rec.get("coords"))


def fwht(values: np.ndarray) -> np.ndarray:
    """In-order Walsh-Hadamard transform, exact over int64."""
    v = np.array(values, dtype=np.int64)
    m = v.size
    if m & (m - 1):
        raise ValueError("transform length must be a power of two")
    h = 1
    while h < m:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        v = v.reshape(m)
        h *= 2
    return v


@dataclass(eq=False)
class FourierSpectrum:
    """Sparse map s -> g-hat(s); only nonzero coefficients are stored.

    The squared coefficients form the sampling distribution p0, so the
    constructor enforces the Parseval identity within 1e-9. ``support``
    holds the support strings in increasing (lexicographic) order and
    ``coeffs`` their coefficients, both as read-only arrays; ``entries``
    becomes a read-only mapping of the same coefficients.
    """

    n: int
    entries: Mapping[int, float]
    support: np.ndarray = field(init=False, repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_width(self.n)
        if not self.entries:
            raise ValueError("a spectrum cannot be empty (Parseval forbids it)")
        support = np.sort(as_rows(list(self.entries), self.n))
        keys = support.tolist()
        coeffs = np.array([self.entries[s] for s in keys], dtype=np.float64)
        self.entries = MappingProxyType(dict(zip(keys, coeffs.tolist())))
        if np.any(coeffs == 0.0):
            raise ValueError("stored coefficients must be nonzero")
        total = float(np.sum(coeffs * coeffs))
        if abs(total - 1.0) > PARSEVAL_TOL:
            raise ValueError(f"Parseval violation: sum of squares = {total!r}")
        support.setflags(write=False)
        coeffs.setflags(write=False)
        self.support, self.coeffs = support, coeffs

    def coeff(self, s: int) -> float:
        check_value(s, self.n)
        return self.entries.get(int(s), 0.0)

    def max_coeff(self) -> float:
        """max over all 2^n strings of g-hat(s), zeros off support included."""
        m = float(np.max(self.coeffs))
        if len(self.entries) < (1 << self.n):
            m = max(m, 0.0)
        return m

    def eval_many(self, xs) -> np.ndarray:
        """Recover f(x) = (1 - g(x)) / 2 by summing the sparse expansion."""
        xs = as_rows(xs, self.n)
        g = np.zeros(xs.shape, dtype=np.float64)
        for s, c in zip(self.support, self.coeffs):
            g += c * (1.0 - 2.0 * parity(xs & s))
        return (g < 0.0).astype(np.uint8)


def check_junta_size(j: int, n: int) -> None:
    """The one junta-size rule, 1 <= j <= min(n, DENSE_WIDTH_CAP); a fault names j."""
    if not 1 <= j <= min(n, DENSE_WIDTH_CAP):
        raise ValueError(f"j: must satisfy 1 <= j <= min(n, {DENSE_WIDTH_CAP}), got {j}")


def gen_ftau(n: int, j: int, tau: float, rng: np.random.Generator) -> BooleanFunction:
    """Random junta whose nonzero coefficients all have magnitude >= tau.

    Relevant coordinates are drawn uniformly without replacement; inner
    tables are rejection-sampled until the tau condition holds, giving up
    after 1000 consecutive rejections.
    """
    check_junta_size(j, check_width(n))
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    coords = tuple(sorted(int(c) + 1 for c in rng.choice(n, size=j, replace=False)))
    scale = float(1 << j)
    for _ in range(GEN_FTAU_MAX_REJECTS):
        table = rng.integers(0, 2, size=1 << j, dtype=np.uint8)
        w = fwht(1 - 2 * table.astype(np.int64))
        nonzero = w[w != 0]
        if np.min(np.abs(nonzero)) / scale >= tau:
            return BooleanFunction.junta(n, coords, table)
    raise GenerationError(
        f"no inner table with min coefficient >= {tau} found in "
        f"{GEN_FTAU_MAX_REJECTS} attempts (j={j})")
