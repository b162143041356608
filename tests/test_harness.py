import dataclasses
import json
import re
import threading

import numpy as np
import pytest

from qfsverify import harness
from qfsverify.boolfn import BooleanFunction, write_function
from qfsverify.harness import (ExperimentConfig, TrialRecord, derive_seed,
                               run_experiment, run_trial, wilson_interval)
from qfsverify.noise import BitFlipNoise
from qfsverify.protocol import VerifierParams
from qfsverify.rectify import heavy_set, list_cap, required_samples
from qfsverify.spectral import examples_needed, sparse_estimate


def base_config(**overrides):
    doc = {
        "mode": "rectify", "n": 16, "j": 2, "tau": 0.5, "eps": 0.45,
        "delta": 0.1, "noise": {"model": "bitflip", "eta": 0.02},
        "trials": 4, "seed": 101,
    }
    doc.update(overrides)
    return doc


def test_derive_seed_distinct_and_64bit():
    seeds = [derive_seed(12345, i) for i in range(10 ** 4)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < (1 << 64) for s in seeds)
    assert derive_seed(12345, 7) == derive_seed(12345, 7)
    assert derive_seed(12345, 7) != derive_seed(12346, 7)


def test_wilson_interval_values():
    low, high = wilson_interval(100, 100)
    assert round(low, 3) == 0.963
    assert high == 1.0
    low0, _ = wilson_interval(0, 50)
    assert low0 == pytest.approx(0.0, abs=1e-12)
    mid_low, mid_high = wilson_interval(50, 100)
    assert mid_low < 0.5 < mid_high


def test_config_from_dict_and_validation():
    cfg = ExperimentConfig.from_dict(base_config())
    assert cfg.mode == "rectify" and cfg.eta == 0.02
    assert ExperimentConfig.from_dict(base_config(n=16.0, seed=7.0)).seed == 7

    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig.from_dict(base_config(trials=0))
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig.from_dict(base_config(mode="destroy"))
    with pytest.raises(ValueError, match="tau"):
        ExperimentConfig.from_dict(base_config(tau=1.5))
    with pytest.raises(ValueError, match="adversary"):
        ExperimentConfig.from_dict(base_config(mode="verify-sound"))
    missing = base_config()
    del missing["delta"]
    with pytest.raises(ValueError, match="delta"):
        ExperimentConfig.from_dict(missing)
    bad_noise = base_config(noise={"model": "bitflip", "eta": 0.7})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(bad_noise)


def test_a_config_is_checked_once_when_it_is_built():
    cfg = ExperimentConfig.from_dict(base_config())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 0  # no change skips the check
    # derive_seed keeps 64 bits, so a seed of 2**64 would run seed 0's trials
    for field, value, fault in (("trials", 0, "must be >= 1, got 0"),
                                ("seed", -1, "must be a non-negative integer, got -1"),
                                ("seed", 1 << 64, f"must be below 2**64, got {1 << 64}"),
                                ("threads", -1, "must be >= 0, got -1")):
        with pytest.raises(ValueError, match=f"^{field}: {re.escape(fault)}$"):
            dataclasses.replace(cfg, **{field: value})
        with pytest.raises(ValueError, match=f"^{field}: {re.escape(fault)}$"):
            ExperimentConfig(**{**dataclasses.asdict(cfg), field: value})


_AND2 = BooleanFunction.dense(2, [0, 0, 0, 1])
# every caller that takes a fraction in (0, 1), and the field its fault names
_FRACTIONS = {
    "VerifierParams-tau": (lambda v: VerifierParams(n=16, tau=v, eps=0.45, delta=0.2), "tau"),
    "VerifierParams-eps": (lambda v: VerifierParams(n=16, tau=0.5, eps=v, delta=0.2), "eps"),
    "VerifierParams-delta": (lambda v: VerifierParams(n=16, tau=0.5, eps=0.45, delta=v),
                             "delta"),
    "required_samples-theta": (lambda v: required_samples(16, v, 0.2), "theta"),
    "required_samples-delta": (lambda v: required_samples(16, 0.25, v), "delta"),
    "list_cap-theta": (lambda v: list_cap(v), "theta"),
    "heavy_set-theta": (lambda v: heavy_set(_AND2.spectrum(), v), "theta"),
    "examples_needed-eps": (lambda v: examples_needed(8, v, 0.2), "eps"),
    "examples_needed-delta": (lambda v: examples_needed(8, 0.45, v), "delta"),
    "sparse_estimate-eps": (lambda v: sparse_estimate(
        _AND2.spectrum(), BitFlipNoise(0.0), v, 0.2, np.random.default_rng(0)), "eps"),
    "sparse_estimate-delta": (lambda v: sparse_estimate(
        _AND2.spectrum(), BitFlipNoise(0.0), 0.45, v, np.random.default_rng(0)), "delta"),
    **{f"config-{name}": (lambda v, name=name: ExperimentConfig.from_dict(
        base_config(**{name: v})), name) for name in ("tau", "eps", "delta")},
}


@pytest.mark.parametrize("value", [0.0, 1.0, float("nan")])
@pytest.mark.parametrize("call,field", _FRACTIONS.values(), ids=_FRACTIONS)
def test_every_fraction_fault_names_its_field(call, field, value):
    with pytest.raises(ValueError, match=rf"^{field}: must lie in \(0, 1\), got {value}$"):
        call(value)


@pytest.mark.parametrize("field,value", [
    ("n", 16.9), ("j", 2.5), ("trials", True), ("seed", 7.7), ("threads", False),
    ("seed", float("nan")),
])
def test_config_integers_are_not_truncated(field, value):
    with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
        ExperimentConfig.from_dict(base_config(**{field: value}))


def test_every_number_field_refuses_text():
    # the coercion follows each field's declared type, so every int and float
    # field, and no other, is checked as a number under its config path
    paths = []
    for f in dataclasses.fields(ExperimentConfig):
        if f.type not in ("int", "float"):
            continue
        path = f.metadata.get("key", (f.name,))
        doc = base_config()
        if path[0] == "noise":
            doc["noise"] = {**doc["noise"], path[1]: "x"}
        else:
            doc[path[0]] = "x"
        what = "an integer" if f.type == "int" else "a number"
        with pytest.raises(ValueError, match=f"^{'.'.join(path)}: must be {what}, got 'x'$"):
            ExperimentConfig.from_dict(doc)
        paths.append(".".join(path))
    assert paths == ["n", "j", "tau", "eps", "delta", "noise.eta", "trials", "seed",
                     "threads"]


def test_trial_record_comparison_ignores_wall_clock():
    a = TrialRecord(0, 1, True, ms=1.0)
    b = TrialRecord(0, 1, True, ms=99.0)
    assert a == b


def test_single_trial_determinism():
    cfg = ExperimentConfig.from_dict(base_config(trials=1))
    first = run_trial(cfg, 0, None)
    again = run_trial(cfg, 0, None)
    assert first == again
    assert first.seed == derive_seed(101, 0)


def test_parallel_matches_serial():
    cfg_serial = ExperimentConfig.from_dict(base_config(trials=6, threads=1))
    cfg_parallel = ExperimentConfig.from_dict(base_config(trials=6, threads=4))
    _, serial = run_experiment(cfg_serial)
    _, parallel = run_experiment(cfg_parallel)
    assert serial == parallel


@pytest.mark.parametrize("threads", [0, 1, 4])
def test_trials_run_on_the_calling_thread(monkeypatch, threads):
    ran_on = set()

    def spy(*args):
        ran_on.add(threading.get_ident())
        return run_trial(*args)
    monkeypatch.setattr(harness, "run_trial", spy)
    cfg = ExperimentConfig.from_dict(base_config(trials=4, threads=threads))
    _, records = run_experiment(cfg)
    assert ran_on == {threading.get_ident()}
    assert [r.index for r in records] == list(range(4))


def test_summary_fraction_is_exact_mean():
    cfg = ExperimentConfig.from_dict(base_config(trials=5))
    summary, records = run_experiment(cfg)
    assert summary.fraction == sum(r.success for r in records) / 5
    assert summary.trials == 5 and 0 <= summary.successes <= 5


def test_learn_mode_records():
    cfg = ExperimentConfig.from_dict(base_config(mode="learn", trials=3))
    summary, records = run_experiment(cfg)
    for rec in records:
        assert rec.regret_ok is not None and rec.regret is not None
        assert rec.qfs_samples > 0 and rec.examples > 0
    assert summary.successes == sum(r.regret_ok for r in records)


def test_verify_modes_records():
    cfg = ExperimentConfig.from_dict(base_config(
        mode="verify-complete", trials=3, eps=0.45, delta=0.2,
        noise={"model": "bitflip", "eta": 0.025}))
    _, records = run_experiment(cfg)
    assert all(r.correct is not None for r in records)

    cfg = ExperimentConfig.from_dict(base_config(
        mode="verify-sound", adversary="constant", trials=3, delta=0.2))
    summary, records = run_experiment(cfg)
    assert summary.successes == sum(r.wrong_accept for r in records)


def test_omit_mode_uses_multi_support_targets():
    cfg = ExperimentConfig.from_dict(base_config(
        mode="verify-sound", adversary="omit", trials=3, delta=0.2))
    _, records = run_experiment(cfg)
    assert all(r.wrong_accept is not None for r in records)


def test_fixed_function_file(tmp_path, and2_at16):
    path = tmp_path / "and2.fn"
    write_function(and2_at16, path)
    cfg = ExperimentConfig.from_dict(base_config(trials=2, function=str(path)))
    _, records = run_experiment(cfg)
    assert all(r.success for r in records)
    wrong = ExperimentConfig.from_dict(base_config(n=12, trials=1,
                                                   function=str(path)))
    with pytest.raises(ValueError, match="function"):
        run_experiment(wrong)


def test_omit_on_a_one_string_target_is_refused_up_front(tmp_path, monkeypatch):
    # the parity x3 has one support string, so there is nothing left to omit
    xs = np.arange(1 << 16)
    path = tmp_path / "x3.fn"
    write_function(BooleanFunction.dense(16, (xs >> 13) & 1), path)
    cfg = ExperimentConfig.from_dict(base_config(
        mode="verify-sound", adversary="omit", trials=2, function=str(path)))
    monkeypatch.setattr(harness, "run_trial", None)  # no trial may start
    with pytest.raises(ValueError, match="function: omit needs .* 2 support strings"):
        run_experiment(cfg)


def test_records_persistence(tmp_path):
    out = tmp_path / "records.jsonl"
    cfg = ExperimentConfig.from_dict(base_config(trials=3, out=str(out)))
    summary, records = run_experiment(cfg)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 4
    assert [l["type"] for l in lines] == ["trial"] * 3 + ["summary"]
    assert lines[0]["seed"] == records[0].seed
    assert lines[-1]["successes"] == summary.successes
    # append-safe: run again, file grows
    run_experiment(cfg)
    assert len(out.read_text().splitlines()) == 8


def test_rerun_is_bit_identical():
    cfg = ExperimentConfig.from_dict(base_config(trials=4, mode="learn"))
    _, first = run_experiment(cfg)
    _, second = run_experiment(cfg)
    assert first == second
    assert [dataclasses.asdict(r) | {"ms": None} for r in first] == \
           [dataclasses.asdict(r) | {"ms": None} for r in second]


# Records of run_experiment(n=16, j=2, tau=0.5, eps=0.45, delta=0.2, trials=3,
# seed=2024) as captured before adversary construction moved into
# make_prover: (success, h_in_l, regret_ok, correct, wrong_accept, regret,
# qfs_samples, examples) per trial.
_ACCEPT = (True, None, None, True, False, 0.0, 19757, 44953)
_REJECT = (False, None, None, False, False, None, 19757, 44898)
PINNED_RECORDS = {
    ("verify-complete", "bitflip", 0.025, None): [_ACCEPT] * 3,
    ("verify-sound", "bitflip", 0.025, "uniform"): [_REJECT] * 3,
    ("verify-sound", "bitflip", 0.025, "wrongfunction"): [_REJECT] * 3,
    ("verify-sound", "bitflip", 0.025, "omit"):
        [(False, None, None, True, False, 0.0, 19757, 44953)] * 3,
    ("verify-sound", "bitflip", 0.025, "constant"): [_REJECT] * 3,
    ("verify-sound", "blockflip", 0.025, "uniform"): [_REJECT] * 3,
    ("verify-sound", "blockflip", 0.025, "wrongfunction"): [_REJECT] * 3,
    ("verify-sound", "blockflip", 0.025, "omit"): [_REJECT] * 3,
    ("verify-sound", "blockflip", 0.025, "constant"): [_REJECT] * 3,
    ("learn", "bitflip", 0.02, None): [(True, None, True, None, None, 0.0, 28134, 59)] * 3,
    ("rectify", "bitflip", 0.02, None): [(True, True, None, None, None, None, 16241, 0)] * 3,
}
PINNED_SEEDS = [11487996472437173461, 1793612131670815442, 5507758030568793471]


@pytest.mark.parametrize("mode,model,eta,adversary", list(PINNED_RECORDS))
def test_fixed_seed_records_are_pinned(mode, model, eta, adversary):
    cfg = ExperimentConfig.from_dict(base_config(
        mode=mode, noise={"model": model, "eta": eta}, adversary=adversary,
        delta=0.2, trials=3, seed=2024, threads=1))
    _, records = run_experiment(cfg)
    got = [dataclasses.asdict(r) for r in records]
    for rec in got:
        del rec["ms"]
    want = [dict(zip(("index", "seed", "success", "h_in_l", "regret_ok", "correct",
                      "wrong_accept", "regret", "qfs_samples", "examples"),
                     (i, seed) + fields))
            for i, (seed, fields) in enumerate(zip(PINNED_SEEDS,
                                                   PINNED_RECORDS[mode, model, eta, adversary]))]
    assert got == want
