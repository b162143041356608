import numpy as np
import pytest

from qfsverify.boolfn import BooleanFunction


@pytest.fixture
def and2():
    """f = x1 AND x2 on two bits; spectrum {00: .5, 01: .5, 10: .5, 11: -.5}."""
    return BooleanFunction.dense(2, [0, 0, 0, 1])


@pytest.fixture
def and2_at16():
    """AND of coordinates 3 and 5 embedded in width 16; p0 = 1/4 on four strings."""
    return BooleanFunction.junta(16, (3, 5), [0, 0, 0, 1])


def tv_distance(emp_counts: np.ndarray, exact: np.ndarray) -> float:
    emp = emp_counts / emp_counts.sum()
    return 0.5 * float(np.abs(emp - exact).sum())


def empirical_counts(samples: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(samples.astype(np.int64), minlength=1 << n)


def chi_square_ok(counts: np.ndarray, probs: np.ndarray, z: float = 5.0) -> bool:
    """Pearson's chi-square test of counts against probs: no count where
    the law puts no mass, and the statistic below the Wilson-Hilferty
    upper z-quantile of chi-square (a false alarm rate of about 3e-7 at
    z = 5)."""
    counts, probs = np.asarray(counts, dtype=np.float64), np.asarray(probs)
    if counts[probs == 0].any():
        return False
    keep = probs > 0
    expected = counts.sum() * probs[keep]
    stat = float(((counts[keep] - expected) ** 2 / expected).sum())
    df = int(keep.sum()) - 1
    return stat <= df * (1 - 2 / (9 * df) + z * (2 / (9 * df)) ** 0.5) ** 3
