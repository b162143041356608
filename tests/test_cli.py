import argparse
import json

import numpy as np
import pytest

from qfsverify.bits import parse_bits
from qfsverify.boolfn import BooleanFunction, read_function, write_function
from qfsverify.cli import build_parser, main
from qfsverify.noise import CHANNELS
from qfsverify.oracles import read_samples
from qfsverify.protocol import ADVERSARY_KINDS
from qfsverify.rectify import heavy_set


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_selftest_passes(capsys):
    assert run_cli("selftest") == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS spectrum-oracle: max |transform - direct sum| = 0",
        "PASS pd-identities: P_d <= eta and P_2d = P_2d-1 for d in 1..25",
        "PASS noise-oracles: eta_eff, p0_eff and convolution hand cases",
        "PASS sample-formulas: required_samples/examples_needed = (18459, 369, 1293)",
        "PASS rectify-trace: hand trace -> ['00', '11', '01']",
    ]


def test_gen_sample_rectify_pipeline(tmp_path, capsys):
    fn = tmp_path / "target.fn"
    assert run_cli("gen", "--n", 16, "--j", 2, "--tau", 0.5,
                   "--seed", 7, "--out", fn) == 0
    f = read_function(fn)
    assert f.n == 16 and f.width == 2

    dump = tmp_path / "samples.txt"
    assert run_cli("sample", "--function", fn, "--model", "bitflip",
                   "--eta", 0.02, "--count", 20000, "--seed", 8,
                   "--out", dump) == 0
    samples, n = read_samples(dump)
    assert n == 16 and len(samples) == 20000

    out = tmp_path / "rectified.txt"
    assert run_cli("rectify", "--samples", dump, "--theta", 0.25,
                   "--seed", 9, "--out", out) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["cap"] == 8 and summary["k"] == 20000
    found = {parse_bits(line)[0] for line in out.read_text().splitlines()}
    assert heavy_set(f.spectrum(), 0.25) <= found


def test_learn_command(tmp_path, capsys, and2_at16):
    fn = tmp_path / "and2.fn"
    write_function(and2_at16, fn)
    assert run_cli("learn", "--function", fn, "--model", "bitflip",
                   "--eta", 0.02, "--eps", 0.45, "--delta", 0.1,
                   "--seed", 5) == 0
    rec = json.loads(capsys.readouterr().out)
    assert len(rec["s0"]) == 16 and rec["regret"] <= 0.45


def test_verify_and_replay(tmp_path, capsys, and2_at16):
    fn = tmp_path / "and2.fn"
    write_function(and2_at16, fn)
    transcript = tmp_path / "transcript.txt"
    assert run_cli("verify", "--function", fn, "--tau", 0.5, "--eps", 0.45,
                   "--delta", 0.2, "--model", "bitflip", "--eta", 0.025,
                   "--seed", 3, "--out", transcript) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["outcome"] == "accept"

    assert run_cli("verify", "--function", fn, "--replay", transcript) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["match"] is True
    assert rec["outcome"] == {"outcome": "accept", "s0": first["s0"]}


def test_replay_refuses_an_unversioned_transcript(tmp_path, capsys, and2_at16):
    # a transcript without a format version was written under the earlier
    # tie rule; replaying it under the current one could not be trusted
    fn = tmp_path / "and2.fn"
    write_function(and2_at16, fn)
    transcript = tmp_path / "transcript.txt"
    assert run_cli("verify", "--function", fn, "--tau", 0.5, "--eps", 0.45,
                   "--delta", 0.2, "--model", "bitflip", "--eta", 0.025,
                   "--seed", 3, "--out", transcript) == 0
    capsys.readouterr()
    transcript.write_text(transcript.read_text().replace(" version=2", "", 1))
    assert run_cli("verify", "--function", fn, "--replay", transcript) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 1: transcript format version 1 (no version "
                            "field); this reader reads version 2 only\n")


def test_replay_against_a_function_of_another_width_names_both(tmp_path, capsys,
                                                               and2_at16):
    # an honest n = 16 transcript replayed against an n = 12 function is a
    # usage error, not a forged transcript
    fn = tmp_path / "and2.fn"
    write_function(and2_at16, fn)
    transcript = tmp_path / "transcript.txt"
    assert run_cli("verify", "--function", fn, "--tau", 0.5, "--eps", 0.45,
                   "--delta", 0.2, "--model", "bitflip", "--eta", 0.025,
                   "--seed", 3, "--out", transcript) == 0
    capsys.readouterr()
    f12 = tmp_path / "f12.fn"
    write_function(BooleanFunction.junta(12, (3, 5), [0, 0, 0, 1]), f12)
    assert run_cli("verify", "--function", f12, "--replay", transcript) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: function width 12 != verifier width n = 16\n"


def test_replay_refuses_an_outcome_the_reply_cannot_earn(tmp_path, capsys):
    # no BATCH was recorded, so no verifier run could have accepted
    fn = tmp_path / "x1.fn"
    write_function(BooleanFunction.dense(2, np.array([0, 0, 1, 1])), fn)
    transcript = tmp_path / "transcript.txt"
    transcript.write_text("PARAMS version=2 n=2 tau=0.5 eps=0.45 delta=0.2 seed=1 "
                          "kprime2=44898 kprime3=55\nREQ 13102\nOUTCOME ACCEPT 01\n")
    assert run_cli("verify", "--function", fn, "--replay", transcript) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 3: ") and captured.err.count("\n") == 1


def test_verify_adversary_rejects(tmp_path, capsys, and2_at16):
    fn = tmp_path / "and2.fn"
    write_function(and2_at16, fn)
    assert run_cli("verify", "--function", fn, "--tau", 0.5, "--eps", 0.45,
                   "--delta", 0.2, "--model", "bitflip", "--eta", 0.025,
                   "--seed", 4, "--adversary", "constant") == 0
    assert json.loads(capsys.readouterr().out) == _REJECTED


def experiment_config(tmp_path, trials):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mode": "rectify", "n": 16, "j": 2, "tau": 0.5, "eps": 0.45,
        "delta": 0.1, "noise": {"model": "bitflip", "eta": 0.02},
        "trials": trials, "seed": 11,
    }))
    return config


def test_experiment_command(tmp_path, capsys):
    config = experiment_config(tmp_path, 3)
    out = tmp_path / "records.jsonl"
    assert run_cli("experiment", "--config", config, "--out", out,
                   "--threads", 1) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["trials"] == 3
    assert len(out.read_text().splitlines()) == 4


def test_experiment_threads_select_nothing(tmp_path, capsys):
    config = experiment_config(tmp_path, 3)
    summaries = []
    for threads in (1, 3):
        assert run_cli("experiment", "--config", config, "--threads", threads) == 0
        summary = json.loads(capsys.readouterr().out)
        del summary["mean_ms"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]


def test_experiment_rejects_zero_trials(tmp_path, capsys):
    config = experiment_config(tmp_path, 0)
    assert run_cli("experiment", "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trials" in err


@pytest.mark.parametrize("field,fault", [
    ("adversary", {"mode": "verify-sound", "adversary": ["omit"]}),
    ("noise", {"noise": {"model": ["bitflip"], "eta": 0.02}}),
    ("noise", {"noise": "bitflip"}),
    ("tau", {"tau": "x"}),
    ("function", {"function": ["target.fn"]}),
    ("out", {"out": ["records.jsonl"]}),
    pytest.param("fucntion: unknown config field", {"fucntion": "/nonexistent.fn"},
                 id="unknown-fucntion"),
    pytest.param("outt: unknown config field", {"outt": "records.jsonl"}, id="unknown-outt"),
    pytest.param("noise.etta: unknown config field",
                 {"noise": {"model": "bitflip", "eta": 0.02, "etta": 0.3}},
                 id="unknown-noise-etta"),
    pytest.param("n: width 100", {"n": 100}, id="n-over-max-width"),
    pytest.param("j: ", {"n": 30, "j": 25}, id="j-over-dense-cap"),
])
def test_experiment_config_fault_names_its_field(tmp_path, capsys, field, fault):
    config = experiment_config(tmp_path, 3)
    config.write_text(json.dumps({**json.loads(config.read_text()), **fault}))
    assert run_cli("experiment", "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1


@pytest.mark.parametrize("field,record", [
    pytest.param("function", [2, "dense", "0001"], id="list"),
    pytest.param("kind", {"n": 2, "table": "0001"}, id="no-kind"),
    pytest.param("tabel", {"n": 2, "kind": "dense", "table": "0001", "tabel": "0001"},
                 id="unknown-key"),
    pytest.param("coords", {"n": 2, "kind": "dense", "table": "0001", "coords": [1, 2]},
                 id="coords-on-dense"),
    pytest.param("n", {"n": True, "kind": "dense", "table": "01"}, id="n-true"),
    pytest.param("table", {"n": 2, "kind": "dense", "table": 1}, id="table-int"),
    pytest.param("coords", {"n": 4, "kind": "junta", "table": "0001", "coords": 3},
                 id="coords-int"),
    # checked by the BooleanFunction constructor, which names the same fields
    pytest.param("table", {"n": 2, "kind": "dense", "table": "000"}, id="table-length"),
    pytest.param("coords", {"n": 4, "kind": "junta", "table": "0001", "coords": [5, 6]},
                 id="coords-out-of-range"),
    pytest.param("coords", {"n": 4, "kind": "junta", "table": "0001", "coords": [2, 1]},
                 id="coords-unordered"),
    pytest.param("n", {"n": 30, "kind": "dense", "table": "0"}, id="n-over-dense-cap"),
])
def test_function_file_fault_names_its_field(tmp_path, capsys, field, record):
    fn = tmp_path / "f.fn"
    fn.write_text(json.dumps(record))
    assert run_cli("sample", "--function", fn, "--model", "bitflip", "--eta", 0.02,
                   "--count", 10, "--seed", 1, "--out", tmp_path / "s.txt") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ") and captured.err.count("\n") == 1


def test_missing_function_file_is_one_line_error(tmp_path, capsys):
    assert run_cli("learn", "--function", tmp_path / "nope.fn", "--model",
                   "bitflip", "--eta", 0.02, "--eps", 0.45, "--delta", 0.1,
                   "--seed", 5) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_verify_requires_params_or_replay(tmp_path, capsys, and2_at16):
    fn = tmp_path / "and2.fn"
    write_function(and2_at16, fn)
    assert run_cli("verify", "--function", fn) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_refuses_a_negative_seed_by_name(tmp_path, capsys, and2_at16):
    fn = tmp_path / "and2.fn"
    write_function(and2_at16, fn)
    assert run_cli("verify", "--function", fn, "--tau", 0.5, "--eps", 0.45, "--delta", 0.2,
                   "--model", "bitflip", "--eta", 0.025, "--seed", -3) == 1
    err = capsys.readouterr().err
    assert err == "error: seed: must be a non-negative integer, got -3\n"


@pytest.mark.parametrize("command", ["gen", "sample", "rectify", "learn", "experiment"])
def test_every_seed_is_refused_by_name(tmp_path, capsys, and2_at16, command):
    # the rule verify applies: the first four once passed -1 to default_rng,
    # whose fault named no field, and experiment ran with it
    fn, dump = tmp_path / "and2.fn", tmp_path / "s.txt"
    write_function(and2_at16, fn)
    dump.write_text("0101\n")
    args = {"gen": ["--n", 16, "--j", 2, "--tau", 0.5, "--out", tmp_path / "g.fn"],
            "sample": ["--function", fn, "--model", "bitflip", "--eta", 0.02,
                       "--count", 10, "--out", tmp_path / "o.txt"],
            "rectify": ["--samples", dump, "--theta", 0.25, "--out", tmp_path / "o.txt"],
            "learn": ["--function", fn, "--model", "bitflip", "--eta", 0.02,
                      "--eps", 0.45, "--delta", 0.1],
            "experiment": ["--config", experiment_config(tmp_path, 3)]}[command]
    assert run_cli(command, *args, "--seed", -1) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed: must be a non-negative integer, got -1\n"


def _choices(command: str, dest: str):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_choices_come_from_the_registries():
    for command in ("sample", "learn", "verify"):
        assert _choices(command, "model") == list(CHANNELS)
    assert _choices("verify", "adversary") == list(ADVERSARY_KINDS)


# outputs of verify --seed 4 on AND2 at width 16 (tau .5, eps .45, delta .2,
# eta .025), captured before adversary construction moved into make_prover;
# blockflip's honest s0 was captured again under transcript version 2's tie
# rule, and the accepted s0s again under the geometric-gap flip sampler (the
# four support strings of AND2 tie, so every s0 here has regret 0)
_REJECTED = {"outcome": "reject", "reason": "ValidationFailed"}
PINNED_VERIFY = {
    **{(model, kind): _REJECTED for model in CHANNELS
       for kind in ("uniform", "wrongfunction", "constant")},
    ("bitflip", None): {"outcome": "accept", "s0": "0000100000000000", "regret": 0.0},
    ("bitflip", "omit"): {"outcome": "accept", "s0": "0000100000000000", "regret": 0.0},
    ("blockflip", None): {"outcome": "accept", "s0": "0000000000000000", "regret": 0.0},
    ("blockflip", "omit"): _REJECTED,
    ("depolarizing", None): {"outcome": "accept", "s0": "0000100000000000",
                             "regret": 0.0},
}


@pytest.mark.parametrize("model,adversary", list(PINNED_VERIFY))
def test_verify_output_on_junta_is_pinned(model, adversary, tmp_path, capsys,
                                          and2_at16):
    fn = tmp_path / "and2.fn"
    write_function(and2_at16, fn)
    argv = ["verify", "--function", fn, "--tau", 0.5, "--eps", 0.45, "--delta", 0.2,
            "--model", model, "--eta", 0.025, "--seed", 4]
    if adversary:
        argv += ["--adversary", adversary]
    assert run_cli(*argv) == 0
    assert json.loads(capsys.readouterr().out) == PINNED_VERIFY[model, adversary]


def test_verify_wrongfunction_on_dense_target(tmp_path, capsys):
    # x1 XOR x2 as a dense 16-bit table: the spectrum depends on 2 coordinates,
    # so the wrong function is a fresh 2-junta rather than a 16-junta
    xs = np.arange(1 << 16)
    fn = tmp_path / "xor.fn"
    write_function(BooleanFunction.dense(16, ((xs >> 15) ^ (xs >> 14)) & 1), fn)
    assert run_cli("verify", "--function", fn, "--tau", 0.5, "--eps", 0.45,
                   "--delta", 0.2, "--model", "bitflip", "--eta", 0.025,
                   "--seed", 4, "--adversary", "wrongfunction") == 0
    assert json.loads(capsys.readouterr().out) == _REJECTED
