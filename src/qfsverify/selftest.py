"""Deterministic oracle suites behind the ``selftest`` subcommand, and the
exact oracles they and the tests check against: coeff_bruteforce, p0_eff,
analytic_noisy_dist and p_d_poly. Everything here is exact or seeded:
transform-vs-brute-force agreement, the mismatch-polynomial identities, the
analytic noise oracles, the closed-form sample counts, and a hand-traced
rectification run.
"""
from __future__ import annotations

import math

import numpy as np

from .bits import CapacityError, check_value, check_width, format_bits, parity, popcount
from .boolfn import BooleanFunction, gen_ftau
from .noise import eta_eff
from .rectify import rectify, required_samples
from .spectral import examples_needed

BRUTEFORCE_WIDTH_CAP = 16
ANALYTIC_WIDTH_CAP = 12
MASS_TOL = 1e-9


def coeff_bruteforce(f: BooleanFunction, s: int) -> float:
    """Direct-summation Fourier coefficient; the oracle the transform is tested against."""
    if f.n > BRUTEFORCE_WIDTH_CAP:
        raise CapacityError(f"brute force needs n <= {BRUTEFORCE_WIDTH_CAP}, got {f.n}")
    check_value(s, f.n)
    xs = np.arange(1 << f.n, dtype=np.uint64)
    g = 1 - 2 * f.eval_many(xs).astype(np.int64)
    chi = 1 - 2 * parity(xs & np.uint64(s)).astype(np.int64)
    return float(np.sum(g * chi)) / float(1 << f.n)


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


def p_d_poly(eta: float, d: int) -> float:
    """Probability bound for mismatching across Hamming distance d:
    sum_{i=0}^{floor(d/2)} (1 - I(i = d/2)/2) C(d,i) eta^(d-i) (1-eta)^i."""
    if not 0.0 < eta < 0.5:
        raise ValueError(f"eta must lie in (0, 1/2), got {eta}")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    total = 0.0
    for i in range(d // 2 + 1):
        weight = 0.5 if 2 * i == d else 1.0
        total += weight * math.comb(d, i) * eta ** (d - i) * (1.0 - eta) ** i
    return total


def check_spectrum_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(20240 + 1)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 9))
        if trial % 2 == 0:
            f = BooleanFunction.dense(n, rng.integers(0, 2, size=1 << n,
                                                      dtype=np.uint8))
        else:
            j = int(rng.integers(1, n + 1))
            f = gen_ftau(n, j, 2.0 ** (1 - j), rng)
        spec = f.spectrum()
        parseval = abs(sum(c * c for c in spec.entries.values()) - 1.0)
        if parseval > 1e-9:
            return False, f"Parseval off by {parseval}"
        for s in range(1 << n):
            worst = max(worst, abs(spec.coeff(s) - coeff_bruteforce(f, s)))
    return worst <= 1e-10, f"max |transform - direct sum| = {worst:.3g}"


PD_ETAS = tuple(round(0.01 + 0.04 * i, 2) for i in range(13))  # 0.01, 0.05, ..., 0.49


def check_pd_identities() -> tuple[bool, str]:
    for eta in PD_ETAS:
        for d in range(1, 26):
            if p_d_poly(eta, d) > eta + 1e-15:
                return False, f"P_{d}({eta}) > eta"
            if abs(p_d_poly(eta, 2 * d) - p_d_poly(eta, 2 * d - 1)) > 1e-12:
                return False, f"P_{2 * d}({eta}) != P_{2 * d - 1}({eta})"
    return True, "P_d <= eta and P_2d = P_2d-1 for d in 1..25"


def check_noise_oracles() -> tuple[bool, str]:
    if eta_eff(0.0) != 0.0 or eta_eff(1.0) != 0.5 or abs(eta_eff(0.1) - 0.095) > 1e-15:
        return False, "eta_eff closed form"
    mixed = p0_eff({0b1: 1.0}, 0.2)
    if abs(mixed[0b1] - 0.8) > 1e-15 or abs(mixed[0] - 0.2) > 1e-15:
        return False, "p0_eff mixture"
    dist = analytic_noisy_dist({0b00: 1.0}, 0.1, 2)
    expected = np.array([0.81, 0.09, 0.09, 0.01])
    if np.max(np.abs(dist - expected)) > 1e-12:
        return False, "analytic convolution hand case"
    if abs(float(dist.sum()) - 1.0) > 1e-9:
        return False, "analytic convolution mass"
    return True, "eta_eff, p0_eff and convolution hand cases"


def check_sample_formulas() -> tuple[bool, str]:
    got = (required_samples(16, 0.25, 0.1), required_samples(2, 0.9, 0.9),
           examples_needed(32, 0.1, 0.1))
    want = (18459, 369, 1293)
    return got == want, f"required_samples/examples_needed = {got}"


def check_rectify_trace() -> tuple[bool, str]:
    samples = [0b00] * 5 + [0b11] * 4 + [0b01]
    found = rectify(samples, 2, 0.6, np.random.default_rng(0))
    return found == [0b00, 0b11, 0b01], f"hand trace -> {[format_bits(s, 2) for s in found]}"


SUITES = [
    ("spectrum-oracle", check_spectrum_oracle),
    ("pd-identities", check_pd_identities),
    ("noise-oracles", check_noise_oracles),
    ("sample-formulas", check_sample_formulas),
    ("rectify-trace", check_rectify_trace),
]


def run(emit=print) -> int:
    """Run every suite; emit one line each; return 0 iff all pass."""
    failures = 0
    for name, fn in SUITES:
        ok, detail = fn()
        emit(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    return 0 if failures == 0 else 1
