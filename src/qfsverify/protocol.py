"""One-round interactive proof for verified agnostic parity learning.

The verifier asks an untrusted prover for noisy circuit samples,
rectifies them into a candidate list L, validates L against fresh random
examples (sum of squared estimated coefficients must reach 1 - tau^2/2),
and finally outputs the argmax coefficient estimated on further fresh
examples. Messages serialize to plain text lines ended by '\n', so a
prover can live in another process.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .bits import (RowError, check_fraction, check_rows, check_width, format_bits,
                   format_rows, parse_bits, parse_rows, random_words)
from .boolfn import BooleanFunction, FourierSpectrum, gen_ftau
from .noise import NoiseChannel
from .oracles import draw_examples, sample_batch
from .rectify import list_cap, rectify, required_samples
from .spectral import argmax_estimate, estimate_coeffs, examples_needed, regret

BAD_BATCH = "BadBatch"
VALIDATION_FAILED = "ValidationFailed"
PROVER_ERROR = "ProverError"
REJECT_REASONS = (BAD_BATCH, VALIDATION_FAILED, PROVER_ERROR)

# the transcript format; 2: rectify breaks each tie with one integer draw per
# tied sample, samples in ascending order (unversioned transcripts drew uniforms)
TRANSCRIPT_VERSION = 2

HONEST = "honest"


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class VerifierParams:
    """Protocol parameters plus every derived quantity the verifier uses."""

    n: int
    tau: float
    eps: float
    delta: float

    def __post_init__(self) -> None:
        check_width(self.n)
        for name in ("tau", "eps", "delta"):
            check_fraction(name, getattr(self, name))

    @property
    def theta(self) -> float:
        return self.tau * self.tau

    @property
    def cap(self) -> int:
        return list_cap(self.theta)

    @property
    def k(self) -> int:
        """Noisy circuit samples requested in step 1."""
        return required_samples(self.n, self.theta, self.delta / 3.0)

    @property
    def step2_accuracy(self) -> float:
        return self.tau ** 3 / 8.0

    @property
    def step2_threshold(self) -> float:
        return 1.0 - self.theta / 2.0

    @property
    def kprime2(self) -> int:
        return examples_needed(self.cap, self.step2_accuracy, self.delta / 3.0)

    @property
    def kprime3(self) -> int:
        return examples_needed(self.cap, self.eps, self.delta / 3.0)


@dataclass(frozen=True)
class SampleRequest:
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"request count must be positive, got {self.count}")


@dataclass(eq=False)
class SampleBatch:  # plain data: a prover's reply is judged as it was sent
    n: int
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SampleBatch) and self.n == other.n
                and np.array_equal(self.samples, other.samples))


Message = SampleRequest | SampleBatch


@dataclass(frozen=True)
class Accepted:
    s0: int


@dataclass(frozen=True)
class Rejected:
    reason: str


Outcome = Accepted | Rejected


@dataclass(eq=False)
class Transcript:  # the request is always REQ params.k; examples_drawn gives the counts
    params: VerifierParams
    seed: int
    reply: SampleBatch | None  # None: the prover raised, or sent what the wire cannot carry
    outcome: Outcome


def serialize(msg: Message) -> str:
    """Wire form: "REQ <count>" or "BATCH <count>" plus one bit-string per line."""
    if isinstance(msg, SampleRequest):
        return f"REQ {msg.count}"
    if isinstance(msg, SampleBatch):
        return f"BATCH {len(msg.samples)}\n" + format_rows(msg.samples, msg.n)
    raise ValueError(f"not a message: {msg!r}")


def deserialize(text: str) -> Message:
    """The message of a wire text whose lines end in '\n' (the last one may not)."""
    return _parse_message(text, 1)


_HEADER = re.compile(r"(REQ|BATCH) ([1-9][0-9]*)")  # exactly as serialize writes it


def _parse_message(text: str, lineno: int) -> Message:
    """The one message ``text`` holds, its header on line ``lineno``. A BATCH's
    rows go to parse_rows whole; only when that fails, or finds another count,
    are they split into lines to name the fault: too few lines, else the first
    malformed row within the count, else the line after them."""
    header, sep, rows = text.removesuffix("\n").partition("\n")
    head = _HEADER.fullmatch(header)
    if head is None:
        raise ParseError(lineno, f"malformed header {header!r}")
    try:
        count = int(head[2])
    except ValueError:  # more digits than int() converts
        raise ParseError(lineno, f"bad count {head[2]!r}") from None
    if head[1] == "REQ":
        if sep:
            raise ParseError(lineno + 1, "trailing content after message")
        return SampleRequest(count)
    try:
        values, n = parse_rows(rows)
        if len(values) == count:
            return SampleBatch(n, values)
    except RowError:
        pass
    lines = rows.split("\n") if sep else []
    if len(lines) < count:
        raise ParseError(lineno + 1 + len(lines), f"batch needs {count} sample lines")
    try:
        parse_rows("\n".join(lines[:count]))
    except RowError as exc:
        raise ParseError(lineno + 1 + exc.row, exc.reason) from None
    raise ParseError(lineno + 1 + count, "trailing content after message")


def honest_prover(spec: FourierSpectrum, channel: NoiseChannel,
                  rng: np.random.Generator):
    """Responder backed by the noisy sampling circuit for the true function."""
    def respond(req: SampleRequest) -> SampleBatch:
        return SampleBatch(spec.n, sample_batch(spec, channel, req.count, rng))
    return respond


# adversary kind -> (fewest support strings its target must have, builder of
# its responder from spec, channel, rng, j, tau); omit drops one string
_ADVERSARIES = {
    "uniform": (1, lambda spec, channel, rng, j, tau: lambda req: SampleBatch(
        spec.n, random_words(rng, req.count, spec.n))),
    "wrongfunction": (1, lambda spec, channel, rng, j, tau: honest_prover(
        gen_ftau(spec.n, j, tau, rng).spectrum(), channel, rng)),
    "omit": (2, lambda spec, channel, rng, j, tau: honest_prover(
        _omit_heaviest(spec), channel, rng)),
    "constant": (1, lambda spec, channel, rng, j, tau: lambda req: SampleBatch(
        spec.n, np.zeros(req.count, dtype=np.uint64))),
}
ADVERSARY_KINDS = {kind: need for kind, (need, _) in _ADVERSARIES.items()}


def make_prover(kind: str, spec: FourierSpectrum, channel: NoiseChannel,
                rng: np.random.Generator, *, j: int, tau: float):
    """Responder of one prover kind against the target spectrum ``spec``.

    honest: the noisy sampling circuit for ``spec``. The adversaries are
    uniform: i.i.d. uniform strings; wrongfunction: the honest sampler
    for a fresh gen_ftau(n, j, tau, rng) target; omit: the honest sampler
    for ``spec`` with its largest-p0 string removed and the remaining p0
    renormalised; constant: all zeros. Only wrongfunction reads j and tau.
    """
    if kind == HONEST:
        return honest_prover(spec, channel, rng)
    if kind not in _ADVERSARIES:
        raise ValueError(f"unknown prover kind {kind!r}; expected {HONEST!r} "
                         f"or one of {tuple(ADVERSARY_KINDS)}")
    return _ADVERSARIES[kind][1](spec, channel, rng, j, tau)


def _omit_heaviest(spec: FourierSpectrum) -> FourierSpectrum:
    """``spec`` without its largest-p0 string, rescaled to satisfy Parseval."""
    avoid = int(spec.support[int(np.argmax(spec.coeffs * spec.coeffs))])
    rest = {s: c for s, c in spec.entries.items() if s != avoid}
    if not rest:
        raise ValueError("cannot omit the only support string")
    scale = math.sqrt(sum(c * c for c in rest.values()))
    return FourierSpectrum(spec.n, {s: c / scale for s, c in rest.items()})


def read_reply(reply) -> SampleBatch | None:
    """The reply as the plain batch a run records, each field read once: an
    int width and a read-only private copy that check_rows accepts, or None."""
    try:  # the reply is untrusted, and reading it may run its own code
        if not isinstance(reply, SampleBatch):
            return None
        n, samples = check_width(reply.n), np.array(reply.samples)
        check_rows(samples, n)
    except Exception:
        return None
    samples.setflags(write=False)
    return SampleBatch(n, samples)


def judge_batch(batch: SampleBatch | None, params: VerifierParams) -> Rejected | None:
    """The rejection a plain batch earns: BadBatch unless it holds k width-n rows."""
    fits = batch is not None and batch.n == params.n and len(batch) == params.k
    return None if fits else Rejected(BAD_BATCH)


def examples_drawn(params: VerifierParams, outcome: Outcome) -> tuple[int, int]:
    """(k'2, k'3): the random examples a verifier run draws before ``outcome``."""
    if isinstance(outcome, Accepted):
        return params.kprime2, params.kprime3
    return (params.kprime2 if outcome.reason == VALIDATION_FAILED else 0), 0


def check_seed(seed: int) -> int:
    """seed as an int when it is a non-bool integer in 0 <= seed < 2**64,
    the seeds derive_seed tells apart; else ValueError naming seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed: must be a non-negative integer, got {seed!r}")
    if int(seed) >= 1 << 64:
        raise ValueError(f"seed: must be below 2**64, got {seed}")
    return int(seed)


def verifier_run(params: VerifierParams, f: BooleanFunction, prover,
                 seed: int) -> tuple[Outcome, Transcript]:
    """Execute the three verifier steps against a prover responder.

    The verifier's own randomness (rectification tie-breaks and random
    example draws) is derived from ``seed``, so a transcript replays
    bit-exactly against its recorded batch. The target function is used
    through the random example oracle only. A prover that raises is
    rejected with ProverError; any other reply is read once as plain data
    by read_reply and judged by judge_batch. A function of another width
    than ``params.n``, or a seed check_seed refuses, raises ValueError
    before the prover is called.
    """
    if f.n != params.n:
        raise ValueError(f"function width {f.n} != verifier width n = {params.n}")
    seed = check_seed(seed)
    rng = np.random.default_rng(seed)
    try:  # read_reply raises nothing, so an exception here is the prover's
        recorded = read_reply(prover(SampleRequest(params.k)))
    except Exception:  # the prover is untrusted: its failure is a rejection
        recorded, outcome = None, Rejected(PROVER_ERROR)
    else:
        outcome = judge_batch(recorded, params)
    if outcome is None:
        candidates = rectify(recorded.samples, params.n, params.theta, rng)
        est2 = estimate_coeffs(candidates, draw_examples(f, params.kprime2, rng))
        if sum(v * v for v in est2.values()) < params.step2_threshold:
            outcome = Rejected(VALIDATION_FAILED)
        else:
            est3 = estimate_coeffs(candidates, draw_examples(f, params.kprime3, rng))
            outcome = Accepted(argmax_estimate(est3))
    return outcome, Transcript(params, seed, recorded, outcome)


def replay_transcript(transcript: Transcript, f: BooleanFunction) -> Outcome:
    """Re-run the verifier on the recorded batch and seed."""
    def respond(req: SampleRequest):
        if transcript.reply is None and transcript.outcome == Rejected(PROVER_ERROR):
            raise RuntimeError("the recorded prover raised")
        return transcript.reply
    outcome, _ = verifier_run(transcript.params, f, respond, transcript.seed)
    return outcome


@dataclass(frozen=True)
class ProtocolTrial:
    """Outcome bookkeeping for completeness and soundness runs."""

    outcome: Outcome
    correct: bool
    wrong_accept: bool
    regret: float


def protocol_trial(params: VerifierParams, f: BooleanFunction, prover, seed: int,
                   spec: FourierSpectrum | None = None) -> ProtocolTrial:
    """One verify run scored against the ground-truth spectrum.

    correct means accepted with regret <= eps; wrong_accept means
    accepted with regret > eps. A rejection is neither.
    """
    if spec is None:
        spec = f.spectrum()
    outcome, _ = verifier_run(params, f, prover, seed)
    if isinstance(outcome, Accepted):
        r = regret(spec, outcome.s0)
        good = r <= params.eps
        return ProtocolTrial(outcome, good, not good, r)
    return ProtocolTrial(outcome, False, False, math.nan)


def _outcome_line(outcome: Outcome, n: int) -> str:
    """The OUTCOME line of a transcript; read_transcript takes no other."""
    if isinstance(outcome, Accepted):
        return f"OUTCOME ACCEPT {format_bits(outcome.s0, n)}"
    if outcome.reason not in REJECT_REASONS:
        raise ValueError(f"unknown rejection reason {outcome.reason!r}")
    return f"OUTCOME REJECT {outcome.reason}"


def _first_line(params: VerifierParams, seed: int, kprime2: int, kprime3: int) -> str:
    """The PARAMS line, a transcript's first; read_transcript takes no other,
    and a seed check_seed refuses raises ValueError."""
    return (f"PARAMS version={TRANSCRIPT_VERSION} n={params.n} tau={params.tau!r} "
            f"eps={params.eps!r} delta={params.delta!r} seed={check_seed(seed)} "
            f"kprime2={kprime2} kprime3={kprime3}")


def write_transcript(t: Transcript, path) -> None:
    """Write t as read_transcript reads it. The text is rendered before the
    file is opened, so a transcript it refuses writes and truncates nothing."""
    text = (f"{_first_line(t.params, t.seed, *examples_drawn(t.params, t.outcome))}\n"
            f"{serialize(SampleRequest(t.params.k))}\n"
            + ("" if t.reply is None else serialize(t.reply) + "\n")
            + _outcome_line(t.outcome, t.params.n) + "\n")
    with open(path, "w") as fh:
        fh.write(text)


def read_transcript(path) -> Transcript:
    """The transcript write_transcript writes: PARAMS, REQ, the reply if the
    line after REQ starts a BATCH, and OUTCOME as the last line, each what it
    writes for the values read from it. The reply is the text between REQ and
    the last line, read by the wire parser."""
    with open(path) as fh:
        header, line = fh.readline().removesuffix("\n"), fh.readline().removesuffix("\n")
        rest = fh.read()
    tokens = header.split(" ")
    if tokens[0] != "PARAMS":
        raise ParseError(1, "missing PARAMS header")
    fields = dict(token.partition("=")[::2] for token in tokens[1:])
    if fields.get("version") != str(TRANSCRIPT_VERSION):
        found = fields.get("version", "1 (no version field)")
        raise ParseError(1, f"transcript format version {found}; this reader reads "
                            f"version {TRANSCRIPT_VERSION} only")
    values = {}
    for key in ("n", "tau", "eps", "delta", "seed", "kprime2", "kprime3"):
        try:  # missing, not a number, or more digits than int() converts
            values[key] = (float if key in ("tau", "eps", "delta") else int)(fields[key])
        except (KeyError, ValueError):
            raise ParseError(1, f"bad PARAMS header: {key}: " + (
                f"not a number: {fields[key]!r}" if key in fields else "missing")) from None
    try:
        params = VerifierParams(values["n"], values["tau"], values["eps"], values["delta"])
        seed = check_seed(values["seed"])
    except ValueError as exc:
        raise ParseError(1, f"bad PARAMS header: {exc}") from None
    counts = values["kprime2"], values["kprime3"]
    want = _first_line(params, seed, *counts)
    if header != want:
        raise ParseError(1, f"malformed PARAMS line; its values are written {want!r}")
    want = serialize(SampleRequest(params.k))
    if line != want:
        raise ParseError(2, f"expected {want!r}, found {line!r}")
    # the OUTCOME line: the last line after a BATCH, else the line after REQ
    start = rest.rfind("\n", 0, len(rest) - 1) + 1 if rest.startswith("BATCH") else 0
    line, end, after = rest[start:].partition("\n")
    verdict, _, value = line.removeprefix("OUTCOME ").partition(" ")
    try:  # the outcome the line states, if the writer writes exactly this line for it
        outcome: Outcome = (Accepted(parse_bits(value)[0]) if verdict == "ACCEPT"
                            else Rejected(value))
        written = _outcome_line(outcome, params.n) + "\n" == line + end
    except ValueError:
        written = False
    if not written:
        raise ParseError(3 + rest.count("\n", 0, start), f"malformed OUTCOME line {line + end!r}")
    reply = _parse_message(rest[:start], 3) if start else None  # as sent, any count
    rejection = judge_batch(reply, params)  # the outcomes a run can end in after it:
    if rejection is None:
        fits = isinstance(outcome, Accepted) or outcome == Rejected(VALIDATION_FAILED)
    else:
        fits = outcome == rejection or reply is None and outcome == Rejected(PROVER_ERROR)
    if not fits:
        raise ParseError(3 + rest.count("\n", 0, start),
                         f"{line!r} cannot follow {'this' if reply else 'no'} BATCH")
    if after:
        raise ParseError(4, "trailing content after the OUTCOME line")
    want = examples_drawn(params, outcome)
    if counts != want:
        raise ParseError(1, f"kprime2, kprime3 = {counts}; this outcome needs {want}")
    return Transcript(params, seed, reply, outcome)
