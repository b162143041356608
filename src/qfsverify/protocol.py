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
    msg, pos, lineno = _parse_message(text, 0, 1)
    if pos < len(text):
        raise ParseError(lineno, "trailing content after message")
    return msg


def _line(text: str, pos: int) -> tuple[str, int]:
    """The line starting at offset ``pos`` and the offset after its '\n'
    (one past the end of the text for a last line without one)."""
    end = text.find("\n", pos)
    end = len(text) if end < 0 else end
    return text[pos:end], end + 1


_HEADER = re.compile(r"(REQ|BATCH) ([1-9][0-9]*)")  # exactly as serialize writes it


def _parse_message(text: str, pos: int, lineno: int) -> tuple[Message, int, int]:
    """The message whose header line starts at offset ``pos`` and is line
    ``lineno``, with the offset and the line number that follow it."""
    if pos >= len(text):
        raise ParseError(lineno, "expected a message header")
    header, pos = _line(text, pos)
    head = _HEADER.fullmatch(header)
    if head is None:
        raise ParseError(lineno, f"malformed header {header!r}")
    try:
        count = int(head[2])
    except ValueError:  # more digits than int() converts
        raise ParseError(lineno, f"bad count {head[2]!r}") from None
    if head[1] == "REQ":
        return SampleRequest(count), pos, lineno + 1
    batch, pos = _parse_batch(text, pos, lineno + 1, count)
    return batch, pos, lineno + 1 + count


def _parse_batch(text: str, pos: int, lineno: int, count: int) -> tuple[SampleBatch, int]:
    """The ``count`` rows whose first starts at offset ``pos`` and is line
    ``lineno``, with the offset after the last row's '\n'.

    Rows as wide as the first one take exactly count * (width + 1) - 1
    characters, so that slice goes to parse_rows whole when it ends at a
    '\n' or at the end of the text. Otherwise, or when it does not parse,
    the rows are taken line by line to name the fault: too few lines, or
    the first malformed row.
    """
    stop = pos + count * (_line(text, pos)[1] - pos) - 1
    if stop == len(text) or text.startswith("\n", stop):
        try:
            values, n = parse_rows(text[pos:stop])
            return SampleBatch(n, values), stop + 1
        except RowError:
            pass
    lines = text[pos:].split("\n")
    if lines[-1] == "":  # a final '\n' ends the last line
        lines.pop()
    if len(lines) < count:
        raise ParseError(lineno + len(lines), f"batch needs {count} sample lines")
    block = "\n".join(lines[:count])
    try:
        values, n = parse_rows(block)
    except RowError as exc:
        raise ParseError(lineno + exc.row, exc.reason) from None
    return SampleBatch(n, values), pos + len(block) + 1


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
    """seed when it is a non-negative integer, as default_rng takes it; else
    ValueError naming seed."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed: must be a non-negative integer, got {seed!r}")
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
    rng = np.random.default_rng(check_seed(seed))
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


_DECIMAL = re.compile(r"0|[1-9][0-9]*")  # the wire header's digits, or 0


def _param(fields: dict[str, str], key: str, kind: type):
    """PARAMS field ``key`` as kind when it is written as write_transcript
    writes it: an int in plain decimal (no sign, separator or leading
    zero), a float as its repr; else ValueError naming the field."""
    if key not in fields:
        raise ValueError(f"{key}: missing")
    text = fields[key]
    try:
        value = kind(text)
        if _DECIMAL.fullmatch(text) if kind is int else repr(value) == text:
            return value
    except ValueError:  # not a number, or more digits than int() converts
        pass
    what = "a plain decimal integer" if kind is int else "the repr of a float"
    raise ValueError(f"{key}: must be written as {what}, got {text!r}")


def write_transcript(t: Transcript, path) -> None:
    k2, k3 = examples_drawn(t.params, t.outcome)
    with open(path, "w") as fh:
        fh.write(
            f"PARAMS version={TRANSCRIPT_VERSION} n={t.params.n} tau={t.params.tau!r} "
            f"eps={t.params.eps!r} delta={t.params.delta!r} seed={t.seed} "
            f"kprime2={k2} kprime3={k3}\n{serialize(SampleRequest(t.params.k))}\n")
        if t.reply is not None:
            fh.write(serialize(t.reply) + "\n")
        fh.write(_outcome_line(t.outcome, t.params.n) + "\n")


def read_transcript(path) -> Transcript:
    with open(path) as fh:
        text = fh.read()
    header, pos = _line(text, 0)
    tokens = header.split(" ")  # one space between tokens, as the writer puts it
    if tokens[0] != "PARAMS":
        raise ParseError(1, "missing PARAMS header")
    fields = {}
    for token in tokens[1:]:
        if not token:
            raise ParseError(1, "PARAMS tokens must be separated by one space")
        key, _, value = token.partition("=")
        if key in fields:
            raise ParseError(1, f"repeated PARAMS key {key!r}")
        fields[key] = value
    if fields.get("version") != str(TRANSCRIPT_VERSION):
        found = fields.get("version", "1 (no version field)")
        raise ParseError(1, f"transcript format version {found}; this reader reads "
                            f"version {TRANSCRIPT_VERSION} only")
    try:
        params = VerifierParams(n=_param(fields, "n", int), tau=_param(fields, "tau", float),
                                eps=_param(fields, "eps", float),
                                delta=_param(fields, "delta", float))
        seed = _param(fields, "seed", int)  # plain digits: check_seed would pass it
        counts = (_param(fields, "kprime2", int), _param(fields, "kprime3", int))
    except ValueError as exc:
        raise ParseError(1, f"bad PARAMS header: {exc}") from None
    # exactly one REQ for k samples, then at most one BATCH of any count
    # (a BadBatch reply is recorded as sent)
    expected = ("REQ", "BATCH or OUTCOME", "OUTCOME")  # after 0, 1 and 2 messages
    messages: list = []
    lineno = 2
    while pos < len(text) and not text.startswith("OUTCOME", pos):
        msg, pos, after = _parse_message(text, pos, lineno)
        found = "REQ" if isinstance(msg, SampleRequest) else "BATCH"
        if not expected[len(messages)].startswith(found):
            raise ParseError(lineno, f"expected {expected[len(messages)]}, found {found}")
        if found == "REQ" and msg.count != params.k:
            raise ParseError(lineno, f"REQ {msg.count} does not request k = {params.k}")
        messages.append(msg)
        lineno = after
    if not messages:
        raise ParseError(lineno, "expected REQ before the OUTCOME line")
    if pos >= len(text):
        raise ParseError(lineno, "missing OUTCOME line")
    line, pos = _line(text, pos)
    verdict, _, value = line.removeprefix("OUTCOME ").partition(" ")
    try:  # the outcome the line states, if the writer writes exactly this line for it
        outcome: Outcome = (Accepted(parse_bits(value)[0]) if verdict == "ACCEPT"
                            else Rejected(value))
        written = _outcome_line(outcome, params.n) == line
    except ValueError:
        written = False
    if not written:
        raise ParseError(lineno, f"malformed OUTCOME line {line!r}")
    reply = messages[1] if len(messages) == 2 else None
    rejection = judge_batch(reply, params)  # the outcomes a run can end in after it:
    if rejection is None:
        fits = isinstance(outcome, Accepted) or outcome == Rejected(VALIDATION_FAILED)
    else:
        fits = outcome == rejection or reply is None and outcome == Rejected(PROVER_ERROR)
    if not fits:
        raise ParseError(lineno, f"{line!r} cannot follow {'this' if reply else 'no'} BATCH")
    if pos < len(text):
        raise ParseError(lineno + 1, "trailing content after the OUTCOME line")
    want = examples_drawn(params, outcome)
    if counts != want:
        raise ParseError(1, f"kprime2, kprime3 = {counts}; this outcome needs {want}")
    return Transcript(params, seed, reply, outcome)
