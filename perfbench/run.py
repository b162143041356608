"""qfsverify benchmark: verifier latency, wire/replay I/O and experiment throughput.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_honest --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for the layers each stresses):

* verify_honest  -- one client, one thread; an op is a fresh gen_ftau
  target plus one verifier_run against the honest prover at the
  reference point (n=16, tau=0.5, eps=0.45, delta=0.2, bit-flip 0.025).
* wire_replay    -- one client, one thread, one target; an op is
  sample_batch -> serialize -> deserialize -> verifier_run ->
  write/read/replay transcript -> write/read sample dump.
* experiment_mix -- run_experiment at threads = usable CPUs; four
  verify-sound adversaries under block-flip noise and one learn config
  under depolarizing noise, equal trials each; an op is one trial.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it alternates traced and untraced ops and
reports the per-layer metrics. The library is imported from ``src/`` of
the checkout the script sits in. The line before the last is a JSON
report (provenance, every metric with its unit, checks, input
properties); the last line is the result. The exit code is 1 when a
correctness check fails.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before the heavy imports

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

from tracing import (MODULES, PROBES, SETUP_OP, TRACED, Tracer, input_properties,
                     percentile, summarize)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

N, J, TAU, EPS, DELTA = 16, 2, 0.5, 0.45, 0.2
ETA = 0.025        # bit-flip and block-flip strength at the reference point
LEARN_ETA = 0.02   # depolarizing strength for learn trials (eta_eff <= eps^2/10)
SOUND_ADVERSARIES = ("uniform", "constant", "omit", "wrongfunction")
TRIALS_PER_CONFIG = 16  # per config per round of experiment_mix
SETUP_PROBES = 4        # fresh-interpreter set-ups timed besides the run's own
WORKLOADS = ("verify_honest", "wire_replay", "experiment_mix")
RATE_WINDOW_S = 1.0     # ops_per_s is the median rate over windows this long
WARMUP = 1 << 40        # input stream of the warm-up op, apart from measured ops

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p80_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics printed on the result line. Times per call (.ms) are
# listed for functions every workload calls; the others report their
# share of op time and calls per op, and every value is in the report.
_EVERYWHERE = ("rectify.rectify", "protocol.verifier_run", "oracles.sample_batch",
               "noise.flip_masks", "oracles.draw_examples", "spectral.estimate_coeffs",
               "boolfn.gen_ftau", "boolfn.spectrum")
PER_LAYER = (
    [f"{name}.ms" for name in _EVERYWHERE]
    + ["rectify.rectify.p95_ms", "protocol.verifier_run.self_ms"]
    + [f"{name}.share" for name in TRACED]
    + [f"{name}.calls" for name in TRACED]
    + ["rectify.match_pairs", "rectify.match_bytes", "rectify.distinct_prefixes.l4",
       "rectify.distinct_prefixes.l8", "rectify.distinct_prefixes.l12",
       "rectify.distinct_prefixes.l16", "rectify.distinct_share", "rectify.L_size",
       "protocol.wire_bytes", "oracles.dump_bytes", "oracles.sample_batch.samples",
       "noise.flip_masks.masks", "oracles.draw_examples.examples",
       "spectral.estimate_coeffs.parities", "protocol.accepted",
       "protocol.reject.BadBatch", "protocol.reject.ValidationFailed",
       "harness.serial_ops_per_s", "harness.scaling_eff"]
    + [f"layer.{mod}.share" for mod in MODULES + ("bench",)]
    + ["group.text_io.share", "trace.overhead_frac"]
)


# -- library and machine ---------------------------------------------------

def load_library():
    """Import qfsverify from the checkout's src/, never from elsewhere.

    Returns a namespace of its modules; the package itself re-exports
    functions under some module names (``qfsverify.rectify``).
    """
    if not (SRC / "qfsverify" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qfsverify sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qfsverify
    if Path(qfsverify.__file__).resolve().parent != SRC / "qfsverify":
        raise SystemExit(f"perfbench: imported qfsverify from {qfsverify.__file__}")
    return SimpleNamespace(**{mod: importlib.import_module(f"qfsverify.{mod}")
                              for mod in MODULES})


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(seed: int, threads: int) -> dict:
    import numpy as np
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfsverify").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
        "seed": seed, "threads": threads,
    }


# -- correctness checks ----------------------------------------------------

class Checks:
    """Named checks with the number run and the number failed."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def record(self, name: str, ok: bool) -> bool:
        ran_failed = self.counts.setdefault(name, [0, 0])
        ran_failed[0] += 1
        ran_failed[1] += not ok
        return ok

    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())

    def report(self) -> dict:
        return {k: {"ran": r, "failed": f} for k, (r, f) in sorted(self.counts.items())}


def wilson_check(lib, checks: Checks, name: str, hits: int, trials: int,
                 *, at_least: float | None = None, at_most: float | None = None):
    """The 95% Wilson interval must not lie wholly on the wrong side."""
    if trials == 0:
        return None
    low, high = lib.harness.wilson_interval(hits, trials)
    ok = (at_least is None or high >= at_least) and (at_most is None or low <= at_most)
    checks.record(name, ok)
    return {"value": hits / trials, "wilson95": [low, high], "trials": trials}


# -- workloads -------------------------------------------------------------

def _rng(*key):
    import numpy as np
    return np.random.default_rng(list(key))


class VerifyHonest:
    """One verifier_run at the reference point on a fresh target per op."""

    label = "honest"

    def __init__(self, lib, seed: int, workdir: Path, checks: Checks):
        self.lib, self.seed, self.checks = lib, seed, checks
        self.params = lib.protocol.VerifierParams(n=N, tau=TAU, eps=EPS, delta=DELTA)
        self.channel = lib.noise.BitFlipNoise(ETA)
        self.reset()

    def reset(self) -> None:
        self.accepted_ok = 0

    def op(self, i: int) -> bool:
        lib = self.lib
        rng = _rng(self.seed, 1, i)
        f = lib.boolfn.gen_ftau(N, J, TAU, rng)
        spec = f.spectrum()
        prover = lib.protocol.honest_prover(spec, self.channel, rng)
        outcome, _ = lib.protocol.verifier_run(self.params, f, prover,
                                               int(rng.integers(1 << 63)))
        if isinstance(outcome, lib.protocol.Accepted):
            self.accepted_ok += lib.spectral.regret(spec, outcome.s0) <= EPS
        return True

    def extra(self, ops: int) -> dict:
        return {"accept_ok_frac": wilson_check(self.lib, self.checks, "accept_ok_wilson",
                                               self.accepted_ok, ops,
                                               at_least=1.0 - DELTA)}


class WireReplay:
    """Wire round-trip, verify, then transcript and dump round-trips."""

    label = "honest"

    def __init__(self, lib, seed: int, workdir: Path, checks: Checks):
        self.lib, self.seed, self.checks = lib, seed, checks
        self.params = lib.protocol.VerifierParams(n=N, tau=TAU, eps=EPS, delta=DELTA)
        self.channel = lib.noise.BitFlipNoise(ETA)
        self.f = lib.boolfn.gen_ftau(N, J, TAU, _rng(seed, 2))
        self.spec = self.f.spectrum()
        self.transcript_path = workdir / "transcript.txt"
        self.dump_path = workdir / "samples.txt"

    def reset(self) -> None:
        pass

    def op(self, i: int) -> bool:
        lib, proto, checks = self.lib, self.lib.protocol, self.checks
        rng = _rng(self.seed, 3, i)
        samples = lib.oracles.sample_batch(self.spec, self.channel, self.params.k, rng)
        sent = proto.SampleBatch(N, samples)
        received = proto.deserialize(proto.serialize(sent))
        ok = checks.record("wire_roundtrip", received == sent)
        outcome, transcript = proto.verifier_run(self.params, self.f, lambda req: received,
                                                 int(rng.integers(1 << 63)))
        proto.write_transcript(transcript, self.transcript_path)
        recorded = proto.read_transcript(self.transcript_path)
        replayed = proto.replay_transcript(recorded, self.f)
        ok &= checks.record("replay_match", replayed == recorded.outcome == outcome)
        lib.oracles.write_samples(samples, N, self.dump_path)
        back, width = lib.oracles.read_samples(self.dump_path)
        ok &= checks.record("dump_roundtrip", width == N and len(back) == len(samples)
                            and bool((back == samples).all()))
        return ok

    def extra(self, ops: int) -> dict:
        return {}


class ExperimentMix:
    """Rounds of run_experiment over five configs with equal trial counts."""

    def __init__(self, lib, seed: int, workdir: Path, checks: Checks,
                 trials: int = TRIALS_PER_CONFIG):
        self.lib, self.seed, self.checks, self.trials = lib, seed, checks, trials
        self.reset()

    def reset(self) -> None:
        self.sound = [0, 0]  # wrong accepts, trials
        self.learn = [0, 0]  # regret <= eps, trials

    def configs(self, key: tuple, trials: int, threads: int) -> list:
        make = self.lib.harness.ExperimentConfig
        common = dict(n=N, j=J, tau=TAU, eps=EPS, delta=DELTA, trials=trials,
                      threads=threads)
        kinds = [("verify-sound", "blockflip", ETA, adv) for adv in SOUND_ADVERSARIES]
        kinds.append(("learn", "depolarizing", LEARN_ETA, None))
        return [make(mode=mode, noise_model=model, eta=eta, adversary=adv,
                     seed=int(_rng(self.seed, *key, c).integers(1 << 63)), **common)
                for c, (mode, model, eta, adv) in enumerate(kinds)]

    def round(self, key: tuple, trials: int, threads: int) -> tuple[int, int]:
        """Run one round; returns (trials attempted, trials failed)."""
        attempted = failed = 0
        for cfg in self.configs(key, trials, threads):
            attempted += cfg.trials
            try:
                _, records = self.lib.harness.run_experiment(cfg)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += cfg.trials
                continue
            if not self.checks.record("trial_records", len(records) == cfg.trials):
                failed += cfg.trials
                continue
            tally = self.learn if cfg.mode == "learn" else self.sound
            tally[0] += sum(bool(r.regret_ok if cfg.mode == "learn" else r.wrong_accept)
                            for r in records)
            tally[1] += len(records)
        return attempted, failed

    def extra(self, ops: int) -> dict:
        lib, checks = self.lib, self.checks
        return {
            "wrong_accept_frac": wilson_check(lib, checks, "wrong_accept_wilson",
                                              *self.sound, at_most=DELTA),
            "learn_ok_frac": wilson_check(lib, checks, "learn_ok_wilson", *self.learn,
                                          at_least=1.0 - DELTA),
        }


# -- run loops -------------------------------------------------------------

def _ms_quantiles(latencies_s, qs=(0.5, 0.8, 0.95)) -> list[float]:
    ms = [x * 1e3 for x in latencies_s]
    return [percentile(ms, q) for q in qs]


def _window_rates(latencies_s, window_s: float = RATE_WINDOW_S) -> list[float]:
    """Ops per second over consecutive windows of at least window_s of op time."""
    rates, ops, busy = [], 0, 0.0
    for x in latencies_s:
        ops += 1
        busy += x
        if busy >= window_s:
            rates.append(ops / busy)
            ops, busy = 0, 0.0
    return rates or [ops / busy]


def closed_loop(wl, tracer: Tracer, seconds: float, trace: bool) -> dict:
    """Ops back to back on this thread; with trace, every other op is traced."""
    lat = {False: [], True: []}
    traced_ops: set[int] = set()
    attempted = failed = 0
    shown = 0
    start = time.perf_counter()
    while attempted < (2 if trace else 1) or time.perf_counter() - start < seconds:
        i = attempted
        traced = trace and i % 2 == 1
        if trace:
            tracer.install(TRACED if traced else PROBES)
            if traced:
                traced_ops.add(i)
        tracer.begin_op(i, wl.label)
        l_failed = tracer.l_checks[1]
        t0 = time.perf_counter()
        try:
            with tracer.span("op") if traced else nullcontext():
                ok = wl.op(i)
        except Exception:
            ok = False
            if shown < 3:
                traceback.print_exc(file=sys.stderr)
                shown += 1
        lat[traced].append(time.perf_counter() - t0)
        attempted += 1
        failed += not ok or tracer.l_checks[1] != l_failed
    tracer.begin_op(SETUP_OP, "setup")
    return {"attempted": attempted, "failed": failed, "rates": _window_rates(lat[False]),
            "lat": lat[False], "traced_lat": lat[True], "traced_ops": traced_ops,
            "root": "op"}


def experiment_loop(wl: ExperimentMix, tracer: Tracer, seconds: float, trace: bool,
                    threads: int) -> dict:
    """Rounds of five configs; with trace, rounds cycle through a serial
    untraced pass, a parallel untraced pass and a parallel traced pass."""
    phases = ("serial", "untraced", "traced") if trace else ("untraced",)
    lat = {p: [] for p in phases}
    rates = {p: [] for p in phases}  # trials completed per round wall second
    traced_ops: set[int] = set()
    attempted = failed = 0
    r = 0
    start = time.perf_counter()
    while r < len(phases) or time.perf_counter() - start < seconds:
        phase = phases[r % len(phases)]
        if trace:
            tracer.install(TRACED if phase == "traced" else PROBES)
        mark = len(tracer.spans)
        t0 = time.perf_counter()
        a, f = wl.round((1, r), wl.trials, 1 if phase == "serial" else threads)
        rates[phase].append((a - f) / (time.perf_counter() - t0))
        attempted += a
        failed += f
        trials = [s for s in tracer.spans[mark:] if s[1] == "harness.run_trial"]
        lat[phase].extend(s[3] - s[2] for s in trials)
        if phase == "traced":
            traced_ops.update(s[5] for s in trials)
        r += 1
    out = {"attempted": attempted, "failed": failed, "rates": rates["untraced"],
           "lat": lat["untraced"],
           "traced_lat": lat.get("traced", []), "traced_ops": traced_ops,
           "root": "harness.run_trial"}
    if trace:
        serial = statistics.median(rates["serial"])
        parallel = statistics.median(rates["untraced"])
        out["serial_ops_per_s"] = serial
        out["scaling_eff"] = parallel / (threads * serial)
    return out


def setup(lib, workload: str, seed: int, workdir: Path, checks: Checks,
          tracer: Tracer, threads: int, trials: int):
    """Build the workload's inputs and run one warm-up op."""
    if workload == "experiment_mix":
        wl = ExperimentMix(lib, seed, workdir, checks, trials)
        wl.round((WARMUP,), threads, threads)
    else:
        wl = (VerifyHonest if workload == "verify_honest" else WireReplay)(
            lib, seed, workdir, checks)
        wl.op(WARMUP)
    # warm-up outcomes are not scored
    wl.reset()
    checks.counts.clear()
    tracer.l_checks[:] = [0, 0]
    return wl


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time of a fresh interpreter, as measured by that interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe", "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, *, workdir: Path,
        t0: float, probes: int = SETUP_PROBES, trials: int = TRIALS_PER_CONFIG,
        trace_out: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result)."""
    lib = load_library()
    threads = usable_cpus()
    checks = Checks()
    tracer = Tracer(lib, collect=trace)
    tracer.install(TRACED if trace else PROBES)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = setup(lib, workload, seed, workdir, checks, tracer, threads, trials)
    setups = [time.perf_counter() - t0]
    if not trace:
        setups += [setup_probe(workload, seed, workdir) for _ in range(probes)]

    if workload == "experiment_mix":
        res = experiment_loop(wl, tracer, seconds, trace, threads)
    else:
        res = closed_loop(wl, tracer, seconds, trace)
    tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = res["attempted"]
    checks.counts["L_within_cap_distinct"] = list(tracer.l_checks)
    extra = wl.extra(ops)
    p50, p80, p95 = _ms_quantiles(res["lat"])
    report_metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "samples": len(setups)},
        "ops_per_s": {"value": statistics.median(res["rates"]), "unit": "1/s",
                      "samples": len(res["rates"])},
        "op_p50_ms": {"value": p50, "unit": "ms", "samples": len(res["lat"])},
        "op_p80_ms": {"value": p80, "unit": "ms", "samples": len(res["lat"])},
        "op_p95_ms": {"value": p95, "unit": "ms", "samples": len(res["lat"])},
        "failed_frac": {"value": res["failed"] / ops, "unit": "frac", "samples": ops},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    for name, stat in extra.items():
        if stat is not None:
            report_metrics[name] = {"value": stat["value"], "unit": "frac",
                                    "samples": stat["trials"],
                                    "wilson95": stat["wilson95"]}
    report = {"workload": workload, "trace": int(trace),
              "provenance": provenance(seed, threads), "checks": checks.report()}
    if trace:
        layers = summarize(tracer, res["traced_ops"], res["root"])
        (traced_p50,) = _ms_quantiles(res["traced_lat"], (0.5,))
        layers["trace.overhead_frac"] = (traced_p50 / p50 - 1.0, "frac")
        layers["harness.serial_ops_per_s"] = (res.get("serial_ops_per_s", 0.0), "1/s")
        layers["harness.scaling_eff"] = (res.get("scaling_eff", 0.0), "frac")
        report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        report["input_properties"] = input_properties(tracer)
        report["traced_ops"] = len(res["traced_ops"])
        shares = {k[:-len(".share")]: v for k, (v, _) in layers.items()
                  if k.endswith(".share") and not k.startswith("layer.")}
        report["largest_self_share"] = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
        metrics = {k: report["layers"][k] for k in PER_LAYER}
        if trace_out is not None:
            tracer.write(trace_out)
    else:
        metrics = {k: {"value": report_metrics[k]["value"], "unit": u}
                   for k, u in END_TO_END.items()}
    report["metrics"] = report_metrics
    result = {"correct": checks.failed() == 0 and res["failed"] == 0,
              "attempted": ops, "failed": res["failed"], "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        lib = load_library()
        tracer = Tracer(lib, collect=False)
        tracer.install(PROBES)
        setup(lib, args.workload, args.seed, args.workdir, Checks(), tracer,
              usable_cpus(), TRIALS_PER_CONFIG)
        print(time.perf_counter() - _T0)
        return 0

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             workdir=workdir, t0=_T0,
                             trace_out=out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
