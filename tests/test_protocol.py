import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfsverify.boolfn import BooleanFunction, FourierSpectrum, gen_ftau
from qfsverify.noise import BitFlipNoise, make_channel
from qfsverify.protocol import (ADVERSARY_KINDS, BAD_BATCH, HONEST,
                                PROVER_ERROR, VALIDATION_FAILED, Accepted,
                                ParseError, Rejected, SampleBatch, SampleRequest,
                                Transcript, VerifierParams, deserialize,
                                honest_prover, make_prover, protocol_trial,
                                read_transcript, replay_transcript, serialize,
                                verifier_run, write_transcript)
from qfsverify.rectify import required_samples
from qfsverify.spectral import examples_needed


def params16(tau=0.5, eps=0.45, delta=0.2):
    return VerifierParams(n=16, tau=tau, eps=eps, delta=delta)


def test_verifier_params_derived():
    p = params16()
    assert p.theta == 0.25
    assert p.cap == 8
    assert p.k == required_samples(16, 0.25, 0.2 / 3)
    assert p.step2_accuracy == 0.5 ** 3 / 8
    assert p.step2_threshold == 1 - 0.25 / 2
    assert p.kprime2 == examples_needed(8, 0.5 ** 3 / 8, 0.2 / 3)
    assert p.kprime3 == examples_needed(8, 0.45, 0.2 / 3)
    with pytest.raises(ValueError):
        VerifierParams(n=16, tau=1.0, eps=0.45, delta=0.2)


def test_a_function_of_another_width_is_refused_before_the_prover(and2):
    # an n = 2 function against n = 16 parameters would fail validation and
    # read as a forged reply; the verifier refuses it before any request
    requests = []

    def prover(req):
        requests.append(req)
        return SampleBatch(16, np.zeros(req.count, dtype=np.uint64))

    with pytest.raises(ValueError, match=r"^function width 2 != verifier width n = 16$"):
        verifier_run(params16(), and2, prover, seed=1)
    assert requests == []


def test_serialize_request():
    assert serialize(SampleRequest(3)) == "REQ 3"
    assert deserialize("REQ 3") == SampleRequest(3)


def test_serialize_batch_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 33))
        count = int(rng.integers(1, 20))
        batch = SampleBatch(n, rng.integers(0, 1 << n, size=count, dtype=np.uint64))
        assert deserialize(serialize(batch)) == batch


def test_deserialize_errors():
    with pytest.raises(ParseError):
        deserialize("BATCH 2\n01\n0")  # width mismatch
    with pytest.raises(ParseError):
        deserialize("BATCH 2\n01")  # missing line
    with pytest.raises(ParseError):
        deserialize("REQ x")
    with pytest.raises(ParseError):
        deserialize("HELLO 3")
    with pytest.raises(ParseError):
        deserialize("REQ 0")
    with pytest.raises(ParseError):
        deserialize("REQ 1\nextra")
    err = None
    try:
        deserialize("BATCH 2\n01\n0")
    except ParseError as exc:
        err = exc
    assert err.lineno == 3


def test_honest_prover_properties(and2_at16):
    spec = and2_at16.spectrum()
    prover = honest_prover(spec, BitFlipNoise(0.0), np.random.default_rng(1))
    batch = prover(SampleRequest(500))
    assert len(batch) == 500 and batch.n == 16
    # zero noise: every sample in the support
    assert set(batch.samples.tolist()) <= {int(s) for s in spec.support}
    a = honest_prover(spec, BitFlipNoise(0.1), np.random.default_rng(7))(SampleRequest(100))
    b = honest_prover(spec, BitFlipNoise(0.1), np.random.default_rng(7))(SampleRequest(100))
    assert a == b


@pytest.mark.parametrize("kind", (HONEST,) + tuple(ADVERSARY_KINDS))
def test_make_prover_every_kind(kind, and2_at16):
    spec = and2_at16.spectrum()
    prover = make_prover(kind, spec, BitFlipNoise(0.0), np.random.default_rng(2),
                         j=2, tau=0.5)
    batch = prover(SampleRequest(10 ** 4))
    assert len(batch) == 10 ** 4 and batch.n == 16
    assert batch.samples.shape == (10 ** 4,) and batch.samples.dtype == np.uint64
    if kind == "uniform":
        for bit in range(16):
            rate = float(np.mean((batch.samples >> np.uint64(15 - bit)) & np.uint64(1)))
            assert abs(rate - 0.5) <= 0.02
    if kind == "constant":
        assert np.all(batch.samples == 0)


# sha256 prefixes of 1000-sample batches on AND2 at width 16 (eta 0.025,
# rng seed 31), captured from the per-kind constructors make_prover replaced;
# the noisy kinds were captured again under the geometric-gap flip sampler
PINNED_BATCH_DIGESTS = {
    ("bitflip", "honest"): "a1d6e646b649afce",
    ("bitflip", "uniform"): "8d7a375dbdc08dd5",
    ("bitflip", "wrongfunction"): "16b3db16d35e98f6",
    ("bitflip", "omit"): "58d6f6a4503f70f4",
    ("bitflip", "constant"): "668946bab9868b28",
    ("blockflip", "honest"): "f22f28f36acbfa95",
    ("blockflip", "uniform"): "8d7a375dbdc08dd5",
    ("blockflip", "wrongfunction"): "5501d0774e9429cb",
    ("blockflip", "omit"): "ad0c7b0f57948f15",
    ("blockflip", "constant"): "668946bab9868b28",
}


@pytest.mark.parametrize("model,kind", list(PINNED_BATCH_DIGESTS))
def test_make_prover_batches_are_pinned(model, kind, and2_at16):
    prover = make_prover(kind, and2_at16.spectrum(), make_channel(model, 0.025),
                         np.random.default_rng(31), j=2, tau=0.5)
    samples = prover(SampleRequest(1000)).samples
    digest = hashlib.sha256(samples.tobytes()).hexdigest()[:16]
    assert digest == PINNED_BATCH_DIGESTS[model, kind]


def test_omit_adversary_never_emits_designated(and2_at16):
    # AND2's four strings tie at p0 = 1/4, so the first, 0^16, is omitted
    spec = and2_at16.spectrum()
    avoid = int(spec.support[0])
    prover = make_prover("omit", spec, BitFlipNoise(0.0), np.random.default_rng(3),
                         j=2, tau=0.5)
    batch = prover(SampleRequest(5000))
    assert avoid not in set(batch.samples.tolist())


def test_omit_adversary_needs_second_string():
    spec = FourierSpectrum(4, {0b1000: 1.0})
    with pytest.raises(ValueError):
        make_prover("omit", spec, BitFlipNoise(0.0), np.random.default_rng(4),
                    j=1, tau=0.5)


def test_unknown_adversary():
    spec = FourierSpectrum(4, {0b1000: 1.0})
    with pytest.raises(ValueError):
        make_prover("replay", spec, BitFlipNoise(0.0), np.random.default_rng(6),
                    j=1, tau=0.5)


def test_bad_batch_is_deterministic(tmp_path, and2_at16):
    p = params16()

    def short_prover(req):
        return SampleBatch(16, np.zeros(req.count - 1, dtype=np.uint64))

    def wrong_width_prover(req):
        return SampleBatch(8, np.zeros(req.count, dtype=np.uint64))

    def rude_prover(req):
        return "no"

    def column_prover(req):  # k x 1 instead of a flat batch
        return SampleBatch(16, np.zeros((req.count, 1), dtype=np.uint64))

    def overflow_prover(req):  # values wider than n bits
        return SampleBatch(16, [1 << 20] * req.count)

    def string_prover(req):  # a batch is judged as sent, not converted to uint64
        return SampleBatch(16, ["not-a-bit-string"] * req.count)

    for prover in (short_prover, wrong_width_prover, rude_prover, column_prover,
                   overflow_prover, string_prover):
        outcome, transcript = verifier_run(p, and2_at16, prover, seed=123)
        assert outcome == Rejected(BAD_BATCH)
        path = tmp_path / "transcript.txt"
        write_transcript(transcript, path)
        assert path.read_text().split("\n", 1)[0].endswith(" kprime2=0 kprime3=0")
        back = read_transcript(path)
        assert back.outcome == outcome and back.reply == transcript.reply
        assert replay_transcript(back, and2_at16) == outcome


def test_prover_exception_is_rejected(tmp_path, and2_at16):
    p = params16()

    def raising_prover(req):
        raise RuntimeError("prover crashed")

    outcome, transcript = verifier_run(p, and2_at16, raising_prover, seed=124)
    assert outcome == Rejected(PROVER_ERROR)
    assert transcript.reply is None
    path = tmp_path / "transcript.txt"
    write_transcript(transcript, path)
    back = read_transcript(path)
    assert back.outcome == Rejected(PROVER_ERROR)
    assert replay_transcript(back, and2_at16) == outcome


class _ReadOnce(SampleBatch):
    """A batch whose samples raise when read a second time."""

    @property
    def samples(self):
        if getattr(self, "_read", False):
            raise RuntimeError("samples read twice")
        self._read = True
        return self._samples

    @samples.setter
    def samples(self, value):
        self._samples = value


class _Width(int):
    """A width whose == raises."""

    def __eq__(self, other):
        raise RuntimeError("width compared")

    __hash__ = int.__hash__


class _RaisingWidth(SampleBatch):
    """A batch whose n raises when read."""

    @property
    def n(self):
        raise RuntimeError("width read")

    @n.setter
    def n(self, value):
        pass


def _assert_outcome_replays(p, f, reply, seed, path):
    """verifier_run on a prover that sends ``reply`` ends in an Outcome whose
    transcript records plain data and writes, reads back and replays to it."""
    outcome, transcript = verifier_run(p, f, lambda req: reply, seed=seed)
    assert isinstance(outcome, (Accepted, Rejected))
    batch = transcript.reply
    assert batch is None or (type(batch.n) is int and batch.samples.dtype == np.uint64
                             and not batch.samples.flags.writeable)
    write_transcript(transcript, path)
    back = read_transcript(path)
    assert back.outcome == outcome and back.reply == batch
    assert replay_transcript(back, f) == outcome
    return outcome


@pytest.mark.parametrize("make,rejected", [
    # check_width refuses a bool width, so the batch is not recorded
    pytest.param(lambda zeros: SampleBatch(True, zeros), True, id="bool-width"),
    # read once, these two are the constant adversary's batch: a full run
    pytest.param(lambda zeros: _ReadOnce(16, zeros), False, id="samples-read-twice"),
    pytest.param(lambda zeros: SampleBatch(_Width(16), zeros), False, id="width-eq-raises"),
])
def test_replies_read_once_end_in_an_outcome(tmp_path, and2_at16, make, rejected):
    # each of these made verifier_run or write_transcript raise while the
    # verifier read a reply's fields twice and held two width rules
    p = params16()
    zeros = np.zeros(p.k, dtype=np.uint64)
    want = Rejected(BAD_BATCH) if rejected else verifier_run(
        p, and2_at16, lambda req: SampleBatch(16, zeros), seed=125)[0]
    assert _assert_outcome_replays(p, and2_at16, make(zeros), 125, tmp_path / "t.txt") == want


# a width-8 verifier whose k (1,671 at tau 0.9) keeps a fuzzed run cheap
_P8 = VerifierParams(n=8, tau=0.9, eps=0.45, delta=0.2)
_F8 = BooleanFunction.junta(8, (3, 5), [0, 0, 0, 1])


# each axis of a reply: the choices the verifier takes, then those it refuses
_SHAPES = ([lambda k: (k,)], [lambda k: (0,), lambda k: (k - 1,), lambda k: (k + 1,),
                              lambda k: (k, 1), lambda k: ()])
_DTYPES = ([lambda v: v, lambda v: np.ma.masked_array(v, mask=v > 255)],
           [lambda v: v.astype(np.int64), lambda v: v.astype(float), lambda v: v.astype(bool),
            lambda v: v.astype(object), lambda v: v.astype(str), lambda v: v.tolist()])
_WIDTHS = ([8, np.int64(8), _Width(8)], [7, True, np.bool_(True), 8.0, "8", 0, 65, 2 ** 100])


@st.composite
def _replies(draw):
    # at most one axis is refused, so about one reply in ten is a full run;
    # the reply's own class and non-batch objects vary on top of that
    fault = draw(st.sampled_from(["none", "shape", "dtype", "value", "width"]))

    def pick(name, axis):  # a refused choice on the fault's axis, else an accepted one
        return draw(st.sampled_from(axis[fault == name]))

    values = np.full(pick("shape", _SHAPES)(_P8.k), draw(st.integers(0, 255)), np.uint64)
    if fault == "value" and values.size:  # a value wider than 8 bits
        values.flat[draw(st.integers(0, values.size - 1))] = draw(
            st.sampled_from([256, 1 << 63, (1 << 64) - 1]))
    samples, n = pick("dtype", _DTYPES)(values), pick("width", _WIDTHS)
    kind = draw(st.sampled_from([SampleBatch, _ReadOnce, _RaisingWidth, "other"]))
    if kind != "other":
        return kind(n, samples)
    return draw(st.sampled_from([None, "BATCH", (n, samples), {"n": n, "samples": samples}]))


@settings(deadline=None, max_examples=100)
@given(_replies(), st.integers(0, 2 ** 32))
def test_any_reply_ends_in_an_outcome_that_replays(tmp_path_factory, reply, seed):
    path = tmp_path_factory.mktemp("fuzz") / "t.txt"
    _assert_outcome_replays(_P8, _F8, reply, seed, path)


def test_one_round_property(and2_at16):
    spec = and2_at16.spectrum()
    p = params16()
    honest = honest_prover(spec, BitFlipNoise(0.02), np.random.default_rng(8))
    requests = []

    def prover(req):
        requests.append(req)
        return honest(req)
    verifier_run(p, and2_at16, prover, seed=55)
    assert requests == [SampleRequest(p.k)]


def test_step2_separation_with_exact_coefficients():
    # with exact coefficients in place of estimates, the threshold test
    # accepts exactly when the heavy set is covered
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        tau = 0.5
        f = gen_ftau(n, 2, tau, rng)
        spec = f.spectrum()
        heavy = set(int(s) for s in spec.support)
        all_strings = list(range(1 << n))
        for _ in range(6):
            size = int(rng.integers(1, 9))
            subset = set(int(s) for s in rng.choice(all_strings, size=size,
                                                    replace=False))
            if rng.random() < 0.5:
                subset |= heavy
            s_sum = sum(spec.coeff(s) ** 2 for s in subset)
            accepts = s_sum >= 1 - tau * tau / 2
            assert accepts == heavy.issubset(subset)


def test_completeness_smoke(and2_at16):
    # scaled-down completeness run; acceptance runs 200 trials
    spec = and2_at16.spectrum()
    p = params16()
    correct = 0
    for t in range(20):
        prover = honest_prover(spec, BitFlipNoise(0.025),
                               np.random.default_rng(9000 + t))
        trial = protocol_trial(p, and2_at16, prover, seed=9500 + t, spec=spec)
        correct += trial.correct
    assert correct >= 16


def test_verify_complete_at_width_64():
    # the verifier's k at n = 64 against honest provers on fresh 2-juntas
    # under bit-flip noise; correct accepts in at least 1 - delta of the
    # trials, delta = 0.2 (observed: all 20)
    start = time.perf_counter()
    params = VerifierParams(n=64, tau=0.5, eps=0.45, delta=0.2)
    assert params.k == 24_193
    correct = 0
    for trial in range(20):
        rng = np.random.default_rng(6500 + trial)
        f = gen_ftau(64, 2, 0.5, rng)
        prover = honest_prover(f.spectrum(), BitFlipNoise(0.025), rng)
        correct += protocol_trial(params, f, prover, seed=6600 + trial).correct
    elapsed = time.perf_counter() - start
    assert correct >= 16, f"only {correct}/20 correct accepts at n = 64"
    assert elapsed < 10.0, f"n = 64 completeness exceeded budget: {elapsed:.1f}s"


def test_constant_adversary_rejected_on_and2(and2_at16):
    # S for L near {0^16, lex strings} is about 0.25 < 0.875 for tau = 0.5
    spec = and2_at16.spectrum()
    p = params16()
    rejected = 0
    for t in range(20):
        prover = make_prover("constant", spec, BitFlipNoise(0.0),
                             np.random.default_rng(t), j=2, tau=0.5)
        outcome, _ = verifier_run(p, and2_at16, prover, seed=700 + t)
        rejected += outcome == Rejected(VALIDATION_FAILED)
    assert rejected >= 18


def test_constant_adversary_cannot_win_on_a_constant_one_target():
    # g = -1, spectrum {0: -1}: the constant prover's batch is the true one,
    # and its list [0] alone would accept 0 at regret 1/2 > eps. rectify pads
    # the list with zero-count candidates up to the cap, whose estimates near
    # 0 outrank -1, so every accept is correct.
    f = BooleanFunction.junta(16, (1,), [1, 1])
    spec = f.spectrum()
    assert dict(spec.entries) == {0: -1.0}
    for t in range(20):
        prover = make_prover("constant", spec, BitFlipNoise(0.025),
                             np.random.default_rng(t), j=1, tau=0.5)
        trial = protocol_trial(params16(), f, prover, seed=900 + t, spec=spec)
        assert trial.correct and not trial.wrong_accept, (t, trial)


def test_rejected_is_never_wrong_accept(and2_at16):
    p = params16()
    prover = make_prover("constant", and2_at16.spectrum(), BitFlipNoise(0.0),
                         np.random.default_rng(10), j=2, tau=0.5)
    trial = protocol_trial(p, and2_at16, prover, seed=11)
    assert isinstance(trial.outcome, Rejected)
    assert trial.wrong_accept is False and trial.correct is False
    assert math.isnan(trial.regret)


def test_transcript_roundtrip_and_replay(tmp_path, and2_at16):
    spec = and2_at16.spectrum()
    p = params16()
    prover = honest_prover(spec, BitFlipNoise(0.02), np.random.default_rng(12))
    outcome, transcript = verifier_run(p, and2_at16, prover, seed=321)
    path = tmp_path / "transcript.txt"
    write_transcript(transcript, path)
    back = read_transcript(path)
    assert back.params == p
    assert back.seed == 321
    assert back.outcome == outcome
    assert back.reply == transcript.reply
    assert replay_transcript(back, and2_at16) == outcome


def test_a_prover_that_keeps_its_batch_cannot_change_the_transcript(tmp_path, and2_at16):
    # the prover zeroes the batch it sent once the run is over
    honest = honest_prover(and2_at16.spectrum(), BitFlipNoise(0.02),
                           np.random.default_rng(12))
    sent = []

    def keeping_prover(req):
        sent.append(honest(req))
        return sent[-1]

    outcome, transcript = verifier_run(params16(), and2_at16, keeping_prover, seed=321)
    assert isinstance(outcome, Accepted)
    before, after = tmp_path / "before.txt", tmp_path / "after.txt"
    write_transcript(transcript, before)
    sent[0].samples[:] = 0
    write_transcript(transcript, after)
    assert after.read_bytes() == before.read_bytes()
    assert replay_transcript(transcript, and2_at16) == outcome


def test_replay_reproduces_rejections(tmp_path, and2_at16):
    p = params16()
    prover = make_prover("uniform", and2_at16.spectrum(), BitFlipNoise(0.0),
                         np.random.default_rng(13), j=2, tau=0.5)
    outcome, transcript = verifier_run(p, and2_at16, prover, seed=77)
    path = tmp_path / "transcript.txt"
    write_transcript(transcript, path)
    assert replay_transcript(read_transcript(path), and2_at16) == outcome


# each outcome's (kprime2, kprime3): the examples verifier_run draws before it
_K2, _K3 = params16().kprime2, params16().kprime3
_COUNTS = {PROVER_ERROR: (0, 0), BAD_BATCH: (0, 0), VALIDATION_FAILED: (_K2, 0),
           "accept": (_K2, _K3)}
_PAIRS = [(0, 0), (_K2, 0), (_K2, _K3), (0, _K3), (1, 0), (_K2 + 1, 0), (_K2, _K3 - 1)]


@pytest.mark.parametrize("outcome", list(_COUNTS))
@pytest.mark.parametrize("pair", _PAIRS)
def test_transcript_counts_must_fit_the_outcome(tmp_path, outcome, pair):
    p = params16()
    result = Accepted(0b101) if outcome == "accept" else Rejected(outcome)
    # a run that ends in ACCEPT or ValidationFailed received a full k-row batch
    full = outcome in ("accept", VALIDATION_FAILED)
    reply = SampleBatch(16, np.zeros(p.k, dtype=np.uint64)) if full else None
    path = tmp_path / "t.txt"
    write_transcript(Transcript(p, 5, reply, result), path)
    header, rest = path.read_text().split("\n", 1)
    k2, k3 = _COUNTS[outcome]
    assert header.endswith(f" kprime2={k2} kprime3={k3}")  # the writer's counts
    header = header.replace(f" kprime2={k2} kprime3={k3}",
                            f" kprime2={pair[0]} kprime3={pair[1]}")
    path.write_text(header + "\n" + rest)
    if pair == _COUNTS[outcome]:
        assert read_transcript(path).outcome == result
        return
    with pytest.raises(ParseError) as err:
        read_transcript(path)
    assert err.value.lineno == 1


def test_reader_refuses_the_retired_kprime1_field(tmp_path, and2_at16):
    # no version-2 writer wrote kprime1, so its PARAMS line is not the writer's
    p = params16()
    prover = honest_prover(and2_at16.spectrum(), BitFlipNoise(0.02),
                           np.random.default_rng(14))
    _, transcript = verifier_run(p, and2_at16, prover, seed=78)
    path = tmp_path / "transcript.txt"
    write_transcript(transcript, path)
    lines = path.read_text().splitlines()
    assert "kprime1" not in lines[0]
    lines[0] = lines[0].replace(" kprime2=", " kprime1=0 kprime2=")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="^line 1: malformed PARAMS line") as err:
        read_transcript(path)
    assert err.value.lineno == 1


@pytest.mark.parametrize("seed", [True, False, 1 << 64])
def test_verifier_run_refuses_a_seed_its_transcript_could_not_record(and2_at16, seed):
    # True once ran on seed 1 and wrote "seed=True", which the reader refuses;
    # 2**64 and 0 give derive_seed the same trial seeds
    prover = make_prover(HONEST, and2_at16.spectrum(), BitFlipNoise(0.025),
                         np.random.default_rng(0), j=2, tau=0.5)
    with pytest.raises(ValueError, match="^seed: must be "):
        verifier_run(params16(), and2_at16, prover, seed)


def test_verifier_run_records_the_seed_as_an_int(tmp_path, and2_at16):
    prover = make_prover(HONEST, and2_at16.spectrum(), BitFlipNoise(0.025),
                         np.random.default_rng(0), j=2, tau=0.5)
    seed = np.uint64((1 << 64) - 1)
    outcome, t = verifier_run(params16(), and2_at16, prover, seed)
    assert type(t.seed) is int and t.seed == (1 << 64) - 1
    write_transcript(t, tmp_path / "t.txt")
    back = read_transcript(tmp_path / "t.txt")
    assert back.seed == t.seed and replay_transcript(back, and2_at16) == outcome


@pytest.mark.parametrize("seed", [True, -1, 1 << 64])
def test_writer_refuses_a_seed_its_reader_refuses(tmp_path, seed):
    # a hand-built Transcript reaches the writer without verifier_run's check
    path = tmp_path / "t.txt"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="^seed: must be "):
        write_transcript(Transcript(params16(), seed, None, Rejected(PROVER_ERROR)), path)
    assert path.read_text() == "kept\n"


def test_a_refused_outcome_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="unknown rejection reason 'Nope'"):
        write_transcript(Transcript(params16(), 5, None, Rejected("Nope")), path)
    assert path.read_text() == "kept\n"
    with pytest.raises(ValueError):
        write_transcript(Transcript(params16(), -1, None, Rejected(PROVER_ERROR)),
                         tmp_path / "new.txt")
    assert not (tmp_path / "new.txt").exists()
