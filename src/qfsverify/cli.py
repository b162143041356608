"""Command-line workbench.

Subcommands: gen, sample, rectify, learn, verify, experiment, selftest.
Every failure exits nonzero with a one-line diagnostic.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import selftest as selftest_mod
from .bits import format_bits
from .boolfn import gen_ftau, read_function, write_function
from .harness import ExperimentConfig, derive_seed, run_experiment
from .noise import CHANNELS, make_channel
from .oracles import read_samples, sample_batch, write_samples
from .protocol import (ADVERSARY_KINDS, HONEST, Accepted, VerifierParams, check_seed,
                       make_prover, read_transcript, replay_transcript,
                       verifier_run, write_transcript)
from .rectify import list_cap, rectify
from .spectral import learn_parity, regret


def _add_noise_args(p: argparse.ArgumentParser) -> None:
    # the default is the registry's first channel, independent bit flips
    p.add_argument("--model", default=next(iter(CHANNELS)), choices=list(CHANNELS))
    p.add_argument("--eta", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfsverify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random target function file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="dump noisy circuit samples for a function")
    p.add_argument("--function", required=True)
    _add_noise_args(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rectify", help="recover heavy strings from a sample dump")
    p.add_argument("--samples", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn", help="run the agnostic parity learner")
    p.add_argument("--function", required=True)
    _add_noise_args(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("verify", help="run or replay one verifier-prover exchange")
    p.add_argument("--function", required=True)
    p.add_argument("--replay", help="transcript file to replay")
    p.add_argument("--tau", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--model", choices=list(CHANNELS))
    p.add_argument("--eta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--adversary", choices=list(ADVERSARY_KINDS))
    p.add_argument("--out", help="write the transcript here")

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--out")
    p.add_argument("--threads", type=int,
                   help="worker count kept for a future process pool (0: one per "
                        "usable CPU); trials run in the calling thread")

    sub.add_parser("selftest", help="run the deterministic oracle suites")
    return parser


def _rng(args) -> np.random.Generator:
    """The generator of --seed, taken by the seed rule verify applies too."""
    return np.random.default_rng(check_seed(args.seed))


def cmd_gen(args) -> int:
    f = gen_ftau(args.n, args.j, args.tau, _rng(args))
    write_function(f, args.out)
    print(f"wrote {args.out}: n={f.n} coords={list(f.coords)}")
    return 0


def cmd_sample(args) -> int:
    f = read_function(args.function)
    spec = f.spectrum()
    channel = make_channel(args.model, args.eta)
    samples = sample_batch(spec, channel, args.count, _rng(args))
    write_samples(samples, f.n, args.out)
    print(f"wrote {args.count} samples to {args.out}")
    return 0


def cmd_rectify(args) -> int:
    samples, n = read_samples(args.samples)
    found = rectify(samples, n, args.theta, _rng(args))
    write_samples(found, n, args.out)
    print(json.dumps({"theta": args.theta, "k": len(samples),
                      "cap": list_cap(args.theta), "L_size": len(found)}))
    return 0


def cmd_learn(args) -> int:
    f = read_function(args.function)
    spec = f.spectrum()
    channel = make_channel(args.model, args.eta)
    s0 = learn_parity(spec, channel, args.eps, args.delta, _rng(args))
    print(json.dumps({"s0": format_bits(s0, f.n), "regret": regret(spec, s0)}))
    return 0


def cmd_verify(args) -> int:
    f = read_function(args.function)
    if args.replay:
        recorded = read_transcript(args.replay)
        outcome = replay_transcript(recorded, f)
        match = outcome == recorded.outcome
        print(json.dumps({"replay": args.replay, "match": match,
                          "outcome": _outcome_record(outcome, f.n)}))
        return 0 if match else 1
    needed = {"tau": args.tau, "eps": args.eps, "delta": args.delta,
              "model": args.model, "eta": args.eta, "seed": args.seed}
    missing = [k for k, v in needed.items() if v is None]
    if missing:
        raise ValueError(f"verify needs --{', --'.join(missing)} (or --replay)")
    spec = f.spectrum()
    channel = make_channel(args.model, args.eta)
    params = VerifierParams(n=f.n, tau=args.tau, eps=args.eps, delta=args.delta)
    prover_rng = np.random.default_rng(derive_seed(args.seed, 1))
    prover = make_prover(args.adversary or HONEST, spec, channel, prover_rng,
                         j=_junta_size(f, spec), tau=args.tau)
    outcome, transcript = verifier_run(params, f, prover, args.seed)
    if args.out:
        write_transcript(transcript, args.out)
    rec = _outcome_record(outcome, f.n)
    if isinstance(outcome, Accepted):
        rec["regret"] = regret(spec, outcome.s0)
    print(json.dumps(rec))
    return 0


def _junta_size(f, spec) -> int:
    """Relevant coordinates of a target: a junta file's own count, or for a
    dense table the coordinates its spectrum depends on (at least 1)."""
    if f.coords is not None:
        return f.width
    return max(1, int(np.bitwise_or.reduce(spec.support)).bit_count())


def _outcome_record(outcome, n: int) -> dict:
    if isinstance(outcome, Accepted):
        return {"outcome": "accept", "s0": format_bits(outcome.s0, n)}
    return {"outcome": "reject", "reason": outcome.reason}


def cmd_experiment(args) -> int:
    overrides = {key: value for key in ("seed", "trials", "out", "threads")
                 if (value := getattr(args, key)) is not None}
    # replace builds a new config, checked by the rule the file's config passed
    cfg = replace(ExperimentConfig.from_file(args.config), **overrides)
    summary, _ = run_experiment(cfg)
    print(json.dumps({"mode": cfg.mode, "trials": summary.trials,
                      "successes": summary.successes,
                      "fraction": summary.fraction,
                      "wilson95": [summary.wilson_low, summary.wilson_high],
                      "mean_ms": summary.mean_ms}))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"gen": cmd_gen, "sample": cmd_sample, "rectify": cmd_rectify,
                "learn": cmd_learn, "verify": cmd_verify,
                "experiment": cmd_experiment,
                "selftest": lambda a: selftest_mod.run(print)}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
