"""Span recording around the public calls into each qfsverify module.

A traced function is wrapped at every module attribute (or class
attribute, for methods) that refers to it, so calls made inside the
library -- ``verifier_run`` calling ``rectify``, ``run_experiment``
calling ``run_trial`` -- are caught as well as the benchmark's own.
Spans are kept in memory as tuples and aggregated or written out after
the run; the wrappers never touch an RNG.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import sys
import threading
from time import perf_counter

# span name -> (module, attribute path) of the function's definition
TRACED = {
    "boolfn.gen_ftau": ("boolfn", "gen_ftau"),
    "boolfn.spectrum": ("boolfn", "BooleanFunction.spectrum"),
    "noise.flip_masks": ("noise", "*.flip_masks"),
    "oracles.sample_batch": ("oracles", "sample_batch"),
    "oracles.draw_examples": ("oracles", "draw_examples"),
    "oracles.write_samples": ("oracles", "write_samples"),
    "oracles.read_samples": ("oracles", "read_samples"),
    "rectify.rectify": ("rectify", "rectify"),
    "spectral.estimate_coeffs": ("spectral", "estimate_coeffs"),
    "spectral.sparse_estimate": ("spectral", "sparse_estimate"),
    "protocol.serialize": ("protocol", "serialize"),
    "protocol.deserialize": ("protocol", "deserialize"),
    "protocol.verifier_run": ("protocol", "verifier_run"),
    "protocol.write_transcript": ("protocol", "write_transcript"),
    "protocol.read_transcript": ("protocol", "read_transcript"),
    "protocol.replay_transcript": ("protocol", "replay_transcript"),
    "harness.run_trial": ("harness", "run_trial"),
}

# Wrapped in untraced runs too: rectify for the |L| <= cap check and
# run_trial for per-trial latency, which run_experiment does not expose.
PROBES = ("rectify.rectify", "harness.run_trial")

RESERVOIR = 24  # rectify inputs kept per op label for the prefix report

SETUP_OP = -1
PACKAGE = "qfsverify"


class Tracer:
    """Installs wrappers and collects spans and per-call facts.

    A span is (span_id, name, start, end, parent_id, op_id, thread_id);
    op ids are set by the benchmark for its own ops and by the run_trial
    wrapper for experiment trials. ``facts`` maps a span id to the small
    dict of counts its call produced (sizes, outcome, |L|).
    """

    def __init__(self, lib, collect: bool):
        self.lib = lib
        self.collect = collect  # keep per-call facts and rectify inputs
        self.spans: list[tuple] = []
        self.facts: dict[int, dict] = {}
        self.rectify_inputs: dict[str, list] = {}
        self.l_checks = [0, 0]  # [ran, failed]
        self._seen: dict[str, int] = {}
        self._pick = random.Random(0)  # reservoir choice only; never the library's RNG
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._lock = threading.Lock()

    # -- op context -------------------------------------------------------

    def begin_op(self, op_id: int, label: str) -> None:
        self._local.op = op_id
        self._local.label = label

    def _ctx(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.op = SETUP_OP
            loc.label = "setup"
        return loc

    def span(self, name: str):
        """Context manager recording one span of benchmark code."""
        return _Span(self, name)

    # -- installation ------------------------------------------------------

    def install(self, names) -> None:
        """Wrap each named function at every place the package refers to it."""
        self.uninstall()
        for name in names:
            mod_name, path = TRACED[name]
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            after = _AFTER.get(name)
            if path.startswith("*."):
                attr = path[2:]
                owners = [c for c in vars(home).values()
                          if isinstance(c, type) and attr in vars(c)
                          and c.__module__ == home.__name__]
                for cls in owners:
                    self._patch(cls, attr, self._wrap(name, vars(cls)[attr], after))
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr], after))
                continue
            orig = getattr(home, path)
            wrapper = self._wrap(name, orig, after)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key != PACKAGE and not mod_key.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, after):
        tracer = self
        spans = self.spans

        def wrapper(*args, **kwargs):
            loc = tracer._ctx()
            if name == "harness.run_trial":
                saved = (loc.op, loc.label)
                cfg = args[0]
                loc.op = next(tracer._ops)
                loc.label = cfg.mode if cfg.adversary is None else cfg.adversary
            stack = loc.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, loc.op,
                              threading.get_ident()))
                if name == "harness.run_trial":
                    loc.op, loc.label = saved
            if after is not None:
                after(tracer, sid, loc, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- reports -----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, tid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "thread": tid, **self.facts.get(sid, {})}) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time covered by its direct children."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None and parent in own:
                own[parent] -= end - start
        return own


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        loc = self.tracer._ctx()
        self.sid = next(self.tracer._ids)
        self.parent = loc.stack[-1] if loc.stack else None
        loc.stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        loc = self.tracer._ctx()
        loc.stack.pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end, self.parent,
                                  loc.op, threading.get_ident()))
        return False


# -- per-call facts, gathered after the span closes ------------------------

def _after_rectify(tracer, sid, loc, args, kwargs, out):
    samples = args[0] if args else kwargs["samples"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    theta = args[2] if len(args) > 2 else kwargs["theta"]
    cap = tracer.lib.rectify.list_cap(theta)
    bad = len(out) > cap or len(set(out)) != len(out)
    with tracer._lock:
        tracer.l_checks[0] += 1
        tracer.l_checks[1] += bad
        if not tracer.collect or loc.op == SETUP_OP:
            return
        k = len(samples)
        # pairs scored by the level-by-level nearest-candidate match
        pairs = k * sum(2 * min(1 << (m - 1), cap) for m in range(1, n + 1))
        tracer.facts[sid] = {"k": k, "n": n, "cap": cap, "L": len(out), "pairs": pairs}
        # reservoir of inputs per op label, for the distinct-prefix report
        seen = tracer._seen.get(loc.label, 0)
        tracer._seen[loc.label] = seen + 1
        keep = tracer.rectify_inputs.setdefault(loc.label, [])
        if len(keep) < RESERVOIR:
            keep.append((samples, n))
        else:
            j = tracer._pick.randrange(seen + 1)
            if j < RESERVOIR:
                keep[j] = (samples, n)


def _after_count(key, pos):
    def after(tracer, sid, loc, args, kwargs, out):
        tracer.facts[sid] = {key: args[pos] if len(args) > pos else kwargs["count"]}
    return after


def _after_estimate(tracer, sid, loc, args, kwargs, out):
    tracer.facts[sid] = {"parities": len(args[0]) * len(args[1])}


def _after_serialize(tracer, sid, loc, args, kwargs, out):
    tracer.facts[sid] = {"bytes": len(out)}


def _after_write_samples(tracer, sid, loc, args, kwargs, out):
    tracer.facts[sid] = {"bytes": os.path.getsize(args[2])}


def _after_verifier(tracer, sid, loc, args, kwargs, out):
    outcome = out[0]
    reason = getattr(outcome, "reason", None)
    tracer.facts[sid] = {"outcome": "Accepted" if reason is None else reason}


_AFTER = {
    "rectify.rectify": _after_rectify,
    "oracles.sample_batch": _after_count("samples", 2),
    "noise.flip_masks": _after_count("masks", 2),
    "oracles.draw_examples": _after_count("examples", 1),
    "spectral.estimate_coeffs": _after_estimate,
    "protocol.serialize": _after_serialize,
    "oracles.write_samples": _after_write_samples,
    "protocol.verifier_run": _after_verifier,
}


# -- aggregation -------------------------------------------------------------

TEXT_IO = ("protocol.serialize", "protocol.deserialize", "protocol.write_transcript",
           "protocol.read_transcript", "oracles.write_samples", "oracles.read_samples")
MODULES = ("boolfn", "noise", "oracles", "rectify", "spectral", "protocol", "harness")
PREFIX_LEVELS = (4, 8, 12, 16)
# per matched pair: the 8-byte XOR word, its 1-byte popcount and the 1-byte
# is-minimum flag of the k x 2cap matrices in rectify._match_counts
MATCH_BYTES_PER_PAIR = 10


def percentile(values, q):
    """Linear-interpolated quantile q in [0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def distinct_prefixes(samples, n: int) -> list[int]:
    """Number of distinct length-m prefixes for m = 1..n."""
    import numpy as np
    u = np.unique(np.asarray(samples, dtype=np.uint64))
    return [len(np.unique(u >> np.uint64(n - m))) for m in range(1, n + 1)]


def input_properties(tracer: Tracer) -> dict[str, dict]:
    """Distinct prefixes per level and their share of k*n, per op label."""
    out = {}
    for label, kept in sorted(tracer.rectify_inputs.items()):
        rows = [(distinct_prefixes(s, n), len(s), n) for s, n in kept]
        out[label] = {
            "batches": len(rows),
            "distinct_share": sum(sum(d) / (k * n) for d, k, n in rows) / len(rows),
            **{f"l{m}": sum(d[m - 1] for d, _, _ in rows) / len(rows)
               for m in PREFIX_LEVELS},
        }
    return out


def summarize(tracer: Tracer, op_ids: set, root: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of the given ops.

    ``root`` names the span that covers one whole op. Per-call times also
    take spans made during set-up, so a function called only there (the
    fixed target of a workload) still gets its time; shares and per-op
    counts use op spans only.
    """
    own = tracer.self_times()
    in_ops = [s for s in tracer.spans if s[5] in op_ids]
    roots = [s for s in in_ops if s[1] == root]
    nops = max(len(roots), 1)
    op_time = sum(s[3] - s[2] for s in roots) or 1.0
    calls_all: dict[str, list] = {}
    for s in tracer.spans:
        if s[5] in op_ids or s[5] == SETUP_OP:
            calls_all.setdefault(s[1], []).append(s)
    self_in_ops: dict[str, float] = {}
    count_in_ops: dict[str, int] = {}
    for s in in_ops:
        self_in_ops[s[1]] = self_in_ops.get(s[1], 0.0) + own[s[0]]
        count_in_ops[s[1]] = count_in_ops.get(s[1], 0) + 1

    m: dict[str, tuple[float, str]] = {}
    for name in TRACED:
        spans = calls_all.get(name, [])
        durs = [(s[3] - s[2]) * 1e3 for s in spans]
        m[f"{name}.ms"] = (percentile(durs, 0.5), "ms")
        m[f"{name}.p95_ms"] = (percentile(durs, 0.95), "ms")
        m[f"{name}.self_ms"] = (percentile([own[s[0]] * 1e3 for s in spans], 0.5), "ms")
        m[f"{name}.calls"] = (count_in_ops.get(name, 0) / nops, "count/op")
        m[f"{name}.share"] = (self_in_ops.get(name, 0.0) / op_time, "frac")
    for mod in MODULES:
        m[f"layer.{mod}.share"] = (sum(v for k, v in self_in_ops.items()
                                       if k.startswith(mod + ".")) / op_time, "frac")
    m["layer.bench.share"] = (self_in_ops.get("op", 0.0) / op_time, "frac")
    m["group.text_io.share"] = (sum(self_in_ops.get(k, 0.0) for k in TEXT_IO) / op_time,
                                "frac")

    facts = tracer.facts

    def per_op(name, key):
        return sum(facts.get(s[0], {}).get(key, 0) for s in in_ops if s[1] == name) / nops

    rect = [facts[s[0]] for s in in_ops if s[1] == "rectify.rectify" and s[0] in facts]
    pairs = sum(f["pairs"] for f in rect) / max(len(rect), 1)
    m["rectify.match_pairs"] = (pairs, "count")
    m["rectify.match_bytes"] = (pairs * MATCH_BYTES_PER_PAIR, "B")
    m["rectify.L_size"] = (sum(f["L"] for f in rect) / max(len(rect), 1), "count")
    props = input_properties(tracer)
    for key in ["distinct_share"] + [f"l{lv}" for lv in PREFIX_LEVELS]:
        vals = [p[key] for p in props.values()]
        name = ("rectify.distinct_share" if key == "distinct_share"
                else f"rectify.distinct_prefixes.{key}")
        m[name] = (sum(vals) / len(vals) if vals else 0.0,
                   "frac" if key == "distinct_share" else "count")
    m["protocol.wire_bytes"] = (per_op("protocol.serialize", "bytes"), "B/op")
    m["oracles.dump_bytes"] = (per_op("oracles.write_samples", "bytes"), "B/op")
    m["oracles.sample_batch.samples"] = (per_op("oracles.sample_batch", "samples"),
                                         "count/op")
    m["noise.flip_masks.masks"] = (per_op("noise.flip_masks", "masks"), "count/op")
    m["oracles.draw_examples.examples"] = (per_op("oracles.draw_examples", "examples"),
                                           "count/op")
    m["spectral.estimate_coeffs.parities"] = (
        per_op("spectral.estimate_coeffs", "parities"), "count/op")
    runs = [facts.get(s[0], {}).get("outcome") for s in in_ops
            if s[1] == "protocol.verifier_run"]
    for key, label in (("protocol.accepted", "Accepted"),
                       ("protocol.reject.BadBatch", "BadBatch"),
                       ("protocol.reject.ValidationFailed", "ValidationFailed")):
        m[key] = (runs.count(label) / max(len(runs), 1), "frac")
    return m
