"""Seeded Monte Carlo experiment runner.

Every trial derives its own 64-bit seed from the master seed with a
SplitMix64 mix, so trial outcomes are independent of execution order.
Trials run one after another in the calling thread: each is GIL-bound
NumPy glue, so a second thread only slows them down.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .boolfn import BooleanFunction, FourierSpectrum, check_junta_size, gen_ftau, read_function
from .noise import make_channel
from .oracles import sample_batch
from .protocol import (ADVERSARY_KINDS, HONEST, VerifierParams, check_seed,
                       examples_drawn, make_prover, protocol_trial)
from .rectify import heavy_set, rectify, required_samples
from .spectral import argmax_estimate, regret, sparse_estimate

MODES = ("rectify", "learn", "verify-complete", "verify-sound")
_MASK64 = (1 << 64) - 1


def _number(name: str, value, kind: type):
    """value as kind (int or float); a fault names the field. JSON's
    true/false are not numbers, and int() would truncate a fraction."""
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fraction:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    what = "an integer" if kind is int else "a number"
    raise ValueError(f"{name}: must be {what}, got {value!r}")


def derive_seed(master: int, index: int) -> int:
    """SplitMix64 mix of (master seed, index) -> 64-bit trial seed."""
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return (center - half) / denom, (center + half) / denom


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked as it is built (dataclasses.replace too)."""

    mode: str
    n: int
    j: int
    tau: float
    eps: float
    delta: float
    # a field's config-file key is its name unless "key" gives its path
    noise_model: str = field(metadata={"key": ("noise", "model")})
    eta: float = field(metadata={"key": ("noise", "eta")})
    trials: int
    seed: int
    adversary: str | None = None
    function_file: str | None = field(default=None, metadata={"key": ("function",)})
    out: str | None = None
    # worker count for a future process pool (0: one per usable CPU);
    # it selects nothing yet, trials run in the calling thread
    threads: int = 0

    def __post_init__(self) -> None:
        VerifierParams(n=self.n, tau=self.tau, eps=self.eps, delta=self.delta)
        if self.mode not in MODES:
            raise ValueError(f"mode: expected one of {MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ValueError(f"trials: must be >= 1, got {self.trials}")
        check_junta_size(self.j, self.n)
        check_seed(self.seed)
        if self.threads < 0:
            raise ValueError(f"threads: must be >= 0, got {self.threads}")
        for key, path in (("function", self.function_file), ("out", self.out)):
            if path is not None and not isinstance(path, str):  # open(5) opens fd 5
                raise ValueError(f"{key}: must be a file path, got {path!r}")
        try:
            make_channel(self.noise_model, self.eta)  # validates model and eta
        except ValueError as exc:
            raise ValueError(f"noise: {exc}") from None
        if self.mode == "verify-sound":
            if not isinstance(self.adversary, str) or self.adversary not in ADVERSARY_KINDS:
                raise ValueError(
                    f"adversary: verify-sound needs one of {tuple(ADVERSARY_KINDS)}, "
                    f"got {self.adversary!r}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config: must be a JSON object, got {type(doc).__name__}")
        noise = doc.get("noise", {})
        if not isinstance(noise, dict):
            raise ValueError(f'noise: must be {{"model": ..., "eta": ...}}, got {noise!r}')
        given = {(key,): value for key, value in doc.items() if key != "noise"}
        given.update({("noise", key): value for key, value in noise.items()})
        paths = {f.metadata.get("key", (f.name,)): f for f in fields(cls)}
        for path in given:
            if path not in paths:
                raise ValueError(f"{'.'.join(map(str, path))}: unknown config field")
        values = {}
        for path, f in paths.items():
            key = ".".join(path)
            if path in given:
                kind = {"int": int, "float": float}.get(f.type)  # annotations are strings here
                values[f.name] = given[path] if kind is None else _number(key, given[path], kind)
            elif f.default is MISSING:
                raise ValueError(f"{key}: missing required config field")
        return cls(**values)


@dataclass
class TrialRecord:
    index: int
    seed: int
    success: bool
    h_in_l: bool | None = None
    regret_ok: bool | None = None
    correct: bool | None = None
    wrong_accept: bool | None = None
    regret: float | None = None
    qfs_samples: int = 0
    examples: int = 0
    ms: float = field(default=0.0, compare=False)


@dataclass
class Summary:
    trials: int
    successes: int
    fraction: float
    wilson_low: float
    wilson_high: float
    mean_ms: float


def _target(cfg: ExperimentConfig, fixed: BooleanFunction | None,
            rng: np.random.Generator, min_support: int = 1
            ) -> tuple[BooleanFunction, FourierSpectrum]:
    if fixed is not None:
        return fixed, fixed.spectrum()
    for _ in range(1000):
        f = gen_ftau(cfg.n, cfg.j, cfg.tau, rng)
        spec = f.spectrum()
        if len(spec.entries) >= min_support:
            return f, spec
    raise RuntimeError(f"no target with support >= {min_support} found")


def _prover_kind(cfg: ExperimentConfig) -> str:
    return cfg.adversary if cfg.mode == "verify-sound" else HONEST


def run_trial(cfg: ExperimentConfig, index: int,
              fixed: BooleanFunction | None) -> TrialRecord:
    trial_seed = derive_seed(cfg.seed, index)
    gen_rng = np.random.default_rng(derive_seed(trial_seed, 1))
    work_rng = np.random.default_rng(derive_seed(trial_seed, 2))
    prover_rng = np.random.default_rng(derive_seed(trial_seed, 3))
    verifier_seed = derive_seed(trial_seed, 4)
    channel = make_channel(cfg.noise_model, cfg.eta)
    start = time.perf_counter()

    # omit adversaries need a second heavy string to leave behind
    kind = _prover_kind(cfg)
    f, spec = _target(cfg, fixed, gen_rng, ADVERSARY_KINDS.get(kind, 1))

    if cfg.mode == "rectify":
        theta = cfg.tau * cfg.tau
        k = required_samples(cfg.n, theta, cfg.delta)
        batch = sample_batch(spec, channel, k, prover_rng)
        found = rectify(batch, cfg.n, theta, work_rng)
        ok = heavy_set(spec, theta).issubset(found)
        rec = TrialRecord(index, trial_seed, ok, h_in_l=ok, qfs_samples=k)
    elif cfg.mode == "learn":
        est = sparse_estimate(spec, channel, cfg.eps, cfg.delta, work_rng)
        r = regret(spec, argmax_estimate(est.entries))
        ok = r <= cfg.eps
        rec = TrialRecord(index, trial_seed, ok, regret_ok=ok, regret=r,
                          qfs_samples=est.qfs_samples, examples=est.examples_used)
    else:
        params = VerifierParams(n=cfg.n, tau=cfg.tau, eps=cfg.eps, delta=cfg.delta)
        prover = make_prover(kind, spec, channel, prover_rng, j=cfg.j, tau=cfg.tau)
        trial = protocol_trial(params, f, prover, verifier_seed, spec)
        ok = trial.correct if cfg.mode == "verify-complete" else trial.wrong_accept
        rec = TrialRecord(index, trial_seed, ok, correct=trial.correct,
                          wrong_accept=trial.wrong_accept,
                          regret=None if math.isnan(trial.regret) else trial.regret,
                          qfs_samples=params.k,
                          examples=sum(examples_drawn(params, trial.outcome)))
    rec.ms = (time.perf_counter() - start) * 1000.0
    return rec


def run_experiment(cfg: ExperimentConfig) -> tuple[Summary, list[TrialRecord]]:
    """Run all trials in the calling thread, in index order; persist the
    records and return the summary.

    For verify-sound configs the reported fraction counts wrong accepts;
    every other mode counts its success criterion.
    """
    fixed = read_function(cfg.function_file) if cfg.function_file else None
    if fixed is not None and fixed.n != cfg.n:
        raise ValueError(f"function: file width {fixed.n} != config n {cfg.n}")
    need = ADVERSARY_KINDS.get(_prover_kind(cfg), 1)
    if fixed is not None and len(fixed.spectrum().entries) < need:
        raise ValueError(f"function: {cfg.adversary} needs a target with at least "
                         f"{need} support strings")
    records = [run_trial(cfg, i, fixed) for i in range(cfg.trials)]
    successes = sum(r.success for r in records)
    low, high = wilson_interval(successes, cfg.trials)
    summary = Summary(trials=cfg.trials, successes=successes,
                      fraction=successes / cfg.trials, wilson_low=low,
                      wilson_high=high,
                      mean_ms=sum(r.ms for r in records) / cfg.trials)
    if cfg.out:
        write_results(cfg.out, records, summary)
    return summary, records


def write_results(path, records: list[TrialRecord], summary: Summary) -> None:
    """Append one JSON line per trial plus a tagged summary line."""
    with open(path, "a") as fh:
        for rec in records:
            fh.write(json.dumps({"type": "trial", **asdict(rec)}) + "\n")
        fh.write(json.dumps({"type": "summary", **asdict(summary)}) + "\n")
