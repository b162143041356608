"""The '0'/'1' row codec in bits, and every text format built on it."""
import hashlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfsverify.bits import (RowError, format_rows, format_table, parse_bits,
                            parse_rows, parse_table, random_words)
from qfsverify.boolfn import BooleanFunction, gen_ftau, read_function, write_function
from qfsverify.cli import main
from qfsverify.noise import BitFlipNoise
from qfsverify.oracles import read_samples, sample_batch, write_samples
from qfsverify.protocol import (BAD_BATCH, PROVER_ERROR, VALIDATION_FAILED, Accepted,
                                ParseError, Rejected, SampleBatch, Transcript,
                                VerifierParams, deserialize, examples_drawn,
                                honest_prover, make_prover, read_transcript,
                                replay_transcript, serialize, verifier_run,
                                write_transcript)

# timings on a shared 2-core machine are too noisy for a per-example deadline
relaxed = settings(deadline=None)


@st.composite
def batches(draw, max_count=200):
    n = draw(st.integers(1, 64))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                           max_size=max_count))
    return n, np.array(values, dtype=np.uint64)


def oracle_rows(values, n):
    return [format(int(v), f"0{n}b") for v in values]


@relaxed
@given(batches())
def test_rows_round_trip_against_the_scalar_oracle(batch):
    n, values = batch
    text = format_rows(values, n)
    assert text.split("\n") == oracle_rows(values, n)
    back, width = parse_rows(text)
    assert width == n and back.dtype == np.uint64
    assert np.array_equal(back, values)


# one-character mutations of a row: a substituted non-bit character,
# a deleted character or an inserted one; '\n' separates rows, so it is
# not a character a row can hold
mutations = st.one_of(
    st.tuples(st.just("sub"), st.characters(blacklist_characters="01\n")),
    st.tuples(st.just("del"), st.just("")),
    st.tuples(st.just("ins"), st.sampled_from("01 x")),
)


def mutate(row: str, kind: str, ch: str, col: int) -> str:
    col %= len(row) + (kind == "ins")
    if kind == "sub":
        return row[:col] + ch + row[col + 1:]
    if kind == "del":
        return row[:col] + row[col + 1:]
    return row[:col] + ch + row[col:]


@relaxed
@given(batches(max_count=20), st.data(), mutations)
def test_every_one_character_mutation_is_rejected_at_its_row(batch, data, mutation):
    n, values = batch
    kind, ch = mutation
    rows = oracle_rows(values, n)
    bad = data.draw(st.integers(0, len(rows) - 1))
    rows[bad] = mutate(rows[bad], kind, ch, data.draw(st.integers(0, 64)))
    first_is_a_row = 1 <= len(rows[0]) <= 64 and set(rows[0]) <= {"0", "1"}
    # a first row of another valid width sets the width the others miss
    expected = 1 if bad == 0 and first_is_a_row else bad
    assume(expected < len(rows))
    with pytest.raises(RowError) as err:
        parse_rows("\n".join(rows))
    assert err.value.row == expected
    # the wire parser names the same row by its line number
    with pytest.raises(ParseError) as wire:
        deserialize(f"BATCH {len(rows)}\n" + "\n".join(rows))
    assert wire.value.lineno == expected + 2


@relaxed
@given(batches(max_count=20), st.data())
def test_non_ascii_rows_are_rejected_at_their_row(batch, data):
    n, values = batch
    rows = oracle_rows(values, n)
    bad = data.draw(st.integers(0, len(rows) - 1))
    col = data.draw(st.integers(0, n - 1))
    ch = data.draw(st.characters(min_codepoint=128))
    rows[bad] = rows[bad][:col] + ch + rows[bad][col + 1:]
    with pytest.raises(RowError) as err:
        parse_rows("\n".join(rows))
    assert err.value.row == bad


@pytest.mark.parametrize("n", range(1, 65))
def test_an_empty_batch_formats_as_no_text(n):
    assert format_rows([], n) == ""
    assert format_rows(np.zeros(0, dtype=np.uint64), n) == ""


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64])
def test_every_byte_in_every_word_of_a_row_round_trips(n):
    # row i repeats the 8 bits of i, so every 8-character word of a row, at
    # any offset, takes all 256 values (all 2**n below 8 bits) over the
    # batch; an all-'1' row follows each one, so whatever a word reads past
    # a row's last bit is ones
    patterns = [int((format(i, "08b") * 8)[:n], 2) for i in range(256)]
    values = np.array([v for p in patterns for v in (p, (1 << n) - 1)], dtype=np.uint64)
    text = format_rows(values, n)
    assert text.split("\n") == [format(int(v), f"0{n}b") for v in values]
    back, width = parse_rows(text)
    assert width == n and back.dtype == np.uint64
    assert np.array_equal(back, values)


def test_codec_rejects_values_and_widths_it_cannot_carry():
    for values, n in (([1 << 20], 16), ([-1], 8), ([1.5], 3), ([[1]], 3),
                      (np.array([2.9]), 2), (np.array([-1]), 8), (["1"], 1), ([1 << 64], 64)):
        with pytest.raises(ValueError):
            format_rows(values, n)
    for rows in ([], [""], ["0" * 65]):
        with pytest.raises(RowError) as err:
            parse_rows("\n".join(rows))
        assert err.value.row == 0
    for table in ([2, 0.5, 1], [0, -1], ["1"]):  # entries parse_table could not read back
        with pytest.raises(ValueError):
            format_table(table)


def test_codec_reads_python_ints_on_both_sides_of_2_to_the_63_exactly():
    # NumPy reads this list as float64, which would round the first value
    values = [(1 << 64) - 1, 1]
    assert format_rows(values, 64).split("\n") == ["1" * 64, "0" * 63 + "1"]


def test_one_row_readers_refuse_a_second_row():
    assert parse_rows("01\n10")[0].tolist() == [1, 2]
    with pytest.raises(RowError):
        parse_bits("01\n10")


@pytest.mark.parametrize("text,lineno,reason", [
    # rows end in '\n' only
    ("BATCH 3\n0101\r\n1100\r\n0011", 2, "is not 5 bits"),
    ("BATCH 3\n0101\x0b1100\x0b0011", 3, "batch needs 3 sample lines"),
    ("BATCH 3\n0101\x851100\x850011", 3, "batch needs 3 sample lines"),
    # a short batch is reported before a ragged row inside it
    ("BATCH 3\n01\n01010\n", 4, "batch needs 3 sample lines"),
    ("BATCH 3\n01\n01010\n11", 3, "is not 2 bits"),
    ("BATCH 2\n0\n101", 3, "is not 1 bits"),
    # headers are exactly what serialize writes: ASCII digits, no sign,
    # separator or leading zero, one space
    ("REQ 1_0", 1, "malformed header"),
    ("REQ +5", 1, "malformed header"),
    ("REQ \u0663", 1, "malformed header"),
    ("REQ 007", 1, "malformed header"),
    ("\tBATCH  1\n0", 1, "malformed header"),
    ("REQ " + "1" * 5000, 1, "bad count"),  # more digits than int() converts
])
def test_wire_faults_name_their_line(text, lineno, reason):
    with pytest.raises(ParseError, match=reason) as err:
        deserialize(text)
    assert err.value.lineno == lineno


def test_transcript_files_with_crlf_line_ends_read_back(tmp_path, and2_at16):
    # text-mode open turns each '\r\n' of a file into '\n'
    p = VerifierParams(n=16, tau=0.5, eps=0.45, delta=0.2)
    prover = honest_prover(and2_at16.spectrum(), BitFlipNoise(0.025),
                           np.random.default_rng(50))
    outcome, t = verifier_run(p, and2_at16, prover, seed=51)
    write_transcript(t, tmp_path / "t.txt")
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes((tmp_path / "t.txt").read_bytes().replace(b"\n", b"\r\n"))
    back = read_transcript(crlf)
    assert back.reply == t.reply and back.outcome == t.outcome == outcome
    assert replay_transcript(back, and2_at16) == outcome


@relaxed
@given(batches())
def test_wire_round_trip(batch):
    n, values = batch
    sent = SampleBatch(n, values)
    assert deserialize(serialize(sent)) == sent


def _transcripts():
    @st.composite
    def build(draw):
        # the reader takes only the (reply, outcome) pairs a verifier run writes:
        # no reply, a reply of the wrong count, or one of all k rows (a tau of
        # at least 0.8 keeps k below 5,000)
        reply = draw(st.sampled_from(["none", "short", "full"]))
        p = draw(st.builds(VerifierParams, n=st.integers(1, 64),
                           tau=st.floats(0.8 if reply == "full" else 0.05, 0.95),
                           eps=st.floats(0.05, 0.95), delta=st.floats(0.05, 0.95)))
        values = draw(st.lists(st.integers(0, (1 << p.n) - 1), min_size=1, max_size=50))
        if reply == "full":
            values = np.resize(np.array(values, dtype=np.uint64), p.k)
        outcomes = {"none": st.sampled_from([Rejected(BAD_BATCH), Rejected(PROVER_ERROR)]),
                    "short": st.just(Rejected(BAD_BATCH)),
                    "full": st.one_of(st.just(Rejected(VALIDATION_FAILED)),
                                      st.builds(Accepted, st.integers(0, (1 << p.n) - 1)))}
        return Transcript(p, draw(st.integers(0, (1 << 64) - 1)),
                          None if reply == "none" else SampleBatch(p.n, values),
                          draw(outcomes[reply]))
    return build()


@relaxed
@given(_transcripts())
def test_transcript_round_trip(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("transcripts") / "t.txt"
    write_transcript(t, path)
    back = read_transcript(path)
    assert back.params == t.params and back.seed == t.seed
    assert back.reply == t.reply and back.outcome == t.outcome


@pytest.mark.parametrize("outcome", ["01x1", "011", "01 1"])
def test_bad_outcome_strings_name_their_line(tmp_path, outcome):
    path = tmp_path / "t.txt"
    path.write_text("PARAMS version=2 n=4 tau=0.5 eps=0.45 delta=0.2 seed=1 kprime2=0 "
                    f"kprime3=0\nREQ 15320\nOUTCOME ACCEPT {outcome}\n")
    with pytest.raises(ParseError) as err:
        read_transcript(path)
    assert err.value.lineno == 3


_PARAMS2 = "PARAMS version=2 n=2 tau=0.5 eps=0.45 delta=0.2 seed=1 kprime2=0 kprime3=0\n"


@pytest.mark.parametrize("body,lineno,reason", [
    ("OUTCOME REJECT ProverError\n", 2, "expected REQ before the OUTCOME line"),
    ("", 2, "expected REQ before the OUTCOME line"),
    ("BATCH 2\n01\n10\nOUTCOME REJECT BadBatch\n", 2, "expected REQ, found BATCH"),
    ("BATCH 2\n01\n10\nREQ 13102\nOUTCOME REJECT BadBatch\n", 2,
     "expected REQ, found BATCH"),
    ("REQ 13102\nREQ 13102\nOUTCOME REJECT ProverError\n", 3,
     "expected BATCH or OUTCOME, found REQ"),
    ("REQ 13102\nBATCH 2\n01\n10\nBATCH 1\n11\nOUTCOME REJECT BadBatch\n", 6,
     "expected OUTCOME, found BATCH"),
    ("REQ 13102\nBATCH 2\n01\n10\nREQ 13102\nOUTCOME REJECT BadBatch\n", 6,
     "expected OUTCOME, found REQ"),
    ("REQ 3\nOUTCOME REJECT ProverError\n", 2, "REQ 3 does not request k = 13102"),
    ("REQ 13103\nBATCH 1\n01\nOUTCOME REJECT BadBatch\n", 2,
     "REQ 13103 does not request k = 13102"),
])
def test_transcript_grammar_faults_name_their_line(tmp_path, body, lineno, reason):
    # messages are exactly one REQ for k samples, then at most one BATCH
    assert VerifierParams(n=2, tau=0.5, eps=0.45, delta=0.2).k == 13_102
    path = tmp_path / "t.txt"
    path.write_text(_PARAMS2 + body)
    with pytest.raises(ParseError, match=reason) as err:
        read_transcript(path)
    assert err.value.lineno == lineno


_FULL2 = "BATCH 13102\n" + "01\n" * 13_102  # k valid width-2 rows


@pytest.mark.parametrize("reply,outcome", [
    ("", "ACCEPT 01"),
    ("", "REJECT ValidationFailed"),
    ("BATCH 2\n01\n10\n", "REJECT ProverError"),
    (_FULL2, "REJECT BadBatch"),
    ("BATCH 2\n01\n10\n", "ACCEPT 01"),
])
def test_outcomes_the_reply_cannot_earn_are_refused(tmp_path, reply, outcome):
    # each header carries the counts its outcome needs, so only the pairing of
    # reply and outcome is wrong; replay of such a file would not give its outcome
    p = VerifierParams(n=2, tau=0.5, eps=0.45, delta=0.2)
    result = Accepted(0b01) if outcome == "ACCEPT 01" else Rejected(outcome.split()[1])
    k2, k3 = examples_drawn(p, result)
    path = tmp_path / "t.txt"
    path.write_text(_PARAMS2.replace("kprime2=0 kprime3=0", f"kprime2={k2} kprime3={k3}")
                    + "REQ 13102\n" + reply + f"OUTCOME {outcome}\n")
    with pytest.raises(ParseError, match="cannot follow") as err:
        read_transcript(path)
    assert err.value.lineno == 3 + reply.count("\n")


@pytest.mark.parametrize("field,value", [("seed", "-5"), ("tau", "1.5"), ("delta", "nan")])
def test_a_bad_params_value_is_refused_on_line_1_by_name(tmp_path, field, value):
    # else a negative seed reads back cleanly and fails only at replay, unnamed
    header = re.sub(f" {field}=[^ ]+ ", f" {field}={value} ", _PARAMS2)
    assert header != _PARAMS2
    path = tmp_path / "t.txt"
    path.write_text(header + "REQ 13102\nOUTCOME REJECT ProverError\n")
    with pytest.raises(ParseError, match=f"^line 1: bad PARAMS header: {field}: ") as err:
        read_transcript(path)
    assert err.value.lineno == 1


@pytest.mark.parametrize("key", ["n", "version"])
def test_a_repeated_params_key_is_refused(tmp_path, key):
    # the later n = 2 matches REQ 13102, so keeping the last value would read cleanly
    header = _PARAMS2.replace("PARAMS version=2 n=2 ", "PARAMS version=2 n=4 ")
    path = tmp_path / "t.txt"
    path.write_text(header.rstrip("\n") + f" {key}=2\nREQ 13102\nOUTCOME REJECT ProverError\n")
    with pytest.raises(ParseError, match=f"repeated PARAMS key '{key}'") as err:
        read_transcript(path)
    assert err.value.lineno == 1


@pytest.mark.parametrize("edit,found", [
    (lambda line: line.replace(" version=2", ""), "version 1 (no version field)"),
    (lambda line: line.replace(" version=2", " version=3"), "version 3"),
    (lambda line: line.replace(" version=2", " version=02"), "version 02"),
])
def test_transcripts_of_another_format_version_are_refused(tmp_path, and2_at16,
                                                           edit, found):
    # an unversioned transcript drew its tie-breaks by the earlier rule, so
    # it is refused rather than replayed under the current one
    p = VerifierParams(n=16, tau=0.5, eps=0.45, delta=0.2)
    prover = honest_prover(and2_at16.spectrum(), BitFlipNoise(0.025),
                           np.random.default_rng(53))
    _, t = verifier_run(p, and2_at16, prover, seed=54)
    write_transcript(t, tmp_path / "t.txt")
    header, rest = (tmp_path / "t.txt").read_text().split("\n", 1)
    assert header.startswith("PARAMS version=2 ")
    (tmp_path / "t.txt").write_text(edit(header) + "\n" + rest)
    with pytest.raises(ParseError, match=re.escape(f"line 1: transcript format {found}; "
                                                   "this reader reads version 2 only")) as err:
        read_transcript(tmp_path / "t.txt")
    assert err.value.lineno == 1


def test_text_after_the_outcome_line_is_refused(tmp_path, and2_at16):
    p = VerifierParams(n=16, tau=0.5, eps=0.45, delta=0.2)
    _, t = verifier_run(p, and2_at16, lambda req: SampleBatch(16, np.zeros(3, np.uint64)),
                        seed=52)
    assert t.outcome == Rejected(BAD_BATCH)
    write_transcript(t, tmp_path / "t.txt")
    text = (tmp_path / "t.txt").read_text()
    assert read_transcript(tmp_path / "t.txt").outcome == t.outcome
    (tmp_path / "t.txt").write_text(text + "garbage\n")
    with pytest.raises(ParseError, match="after the OUTCOME line") as err:
        read_transcript(tmp_path / "t.txt")
    assert err.value.lineno == text.count("\n") + 1


@pytest.mark.parametrize("pattern,new,where,reason", [
    ("^PARAMS ", "PARAMS  ", "PARAMS", "separated by one space"),
    (" n=16 ", " n=1_6 ", "PARAMS", "n: must be written as a plain decimal"),
    (" seed=3 ", " seed=+3 ", "PARAMS", "seed: must be written as a plain decimal"),
    (" seed=3 ", " seed=0_3 ", "PARAMS", "seed: must be written as a plain decimal"),
    (" kprime2=", " kprime2=0", "PARAMS", "kprime2: must be written as a plain decimal"),
    (r" tau=0\.5 ", " tau=0.50 ", "PARAMS", "tau: must be written as the repr"),
    (r" tau=0\.5 ", " tau=+.5 ", "PARAMS", "tau: must be written as the repr"),
    (r" tau=0\.5 ", " tau=0.5_0 ", "PARAMS", "tau: must be written as the repr"),
    ("^OUTCOME ACCEPT ", "OUTCOME  ACCEPT  ", "OUTCOME", "malformed OUTCOME line"),
    ("$", " ", "OUTCOME", "malformed OUTCOME line"),
], ids=["params-double-space", "n-separator", "seed-sign", "seed-separator",
        "kprime2-leading-zero", "tau-trailing-zero", "tau-sign", "tau-separator",
        "outcome-double-spaces", "outcome-trailing-space"])
def test_transcript_lines_are_read_only_as_written(tmp_path, and2_at16, pattern, new,
                                                   where, reason):
    # each edit keeps every value, and each edited file once read cleanly
    p = VerifierParams(n=16, tau=0.5, eps=0.45, delta=0.2)
    prover = honest_prover(and2_at16.spectrum(), BitFlipNoise(0.025),
                           np.random.default_rng(55))
    outcome, t = verifier_run(p, and2_at16, prover, seed=3)
    assert isinstance(outcome, Accepted)
    write_transcript(t, tmp_path / "t.txt")
    lines = (tmp_path / "t.txt").read_text().split("\n")[:-1]
    i = 0 if where == "PARAMS" else len(lines) - 1
    edited = re.sub(pattern, new, lines[i], count=1)
    assert lines[i].startswith(where) and edited != lines[i]
    lines[i] = edited
    (tmp_path / "t.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line {i + 1}: .*{reason}") as err:
        read_transcript(tmp_path / "t.txt")
    assert err.value.lineno == i + 1


# sha256 prefixes of fixed-seed outputs on AND2 at width 16, captured from
# the per-value writers the codec replaced; the formats are byte-identical.
# The transcripts carry the format version 2, and transcript_honest and
# cli_rectify were captured again under its tie rule; the other three
# transcripts hash as before with " version=2" deleted. The outputs built
# from noisy samples were captured again under the geometric-gap flip sampler.
PINNED_OUTPUTS = {
    "serialize16": "3fb1bcd2e380c523",
    "serialize1": "5577e69dccf9ed61",
    "serialize64": "e56ce1f336ff13d0",
    "write_samples": "c4c9760a9fa6bb3b",
    "transcript_honest": "eab8bc8aa6481947",
    "transcript_constant": "a3f85154a194dfff",
    "transcript_wrong_width": "d419fbf91e56b48b",
    "transcript_raising": "07b32960355e1445",
    "cli_sample": "f778b233aa99563f",
    "cli_rectify": "2c6c542c1716de55",
}


def _digest(data) -> str:
    data = data if isinstance(data, bytes) else data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def test_written_formats_are_pinned(tmp_path, and2_at16):
    spec = and2_at16.spectrum()
    samples = sample_batch(spec, BitFlipNoise(0.025), 2000, np.random.default_rng(41))
    got = {"serialize16": _digest(serialize(SampleBatch(16, samples)))}
    for n in (1, 64):
        batch = SampleBatch(n, random_words(np.random.default_rng(n), 300, n))
        got[f"serialize{n}"] = _digest(serialize(batch))
    write_samples(samples, 16, tmp_path / "s.txt")
    got["write_samples"] = _digest((tmp_path / "s.txt").read_bytes())
    p = VerifierParams(n=16, tau=0.5, eps=0.45, delta=0.2)
    provers = {
        "honest": honest_prover(spec, BitFlipNoise(0.025), np.random.default_rng(43)),
        "constant": make_prover("constant", spec, BitFlipNoise(0.0),
                                np.random.default_rng(44), j=2, tau=0.5),
        "wrong_width": lambda req: SampleBatch(8, np.zeros(req.count, dtype=np.uint64)),
        "raising": lambda req: 1 / 0,
    }
    for name, prover in provers.items():
        _, t = verifier_run(p, and2_at16, prover, seed=45)
        write_transcript(t, tmp_path / "t.txt")
        got["transcript_" + name] = _digest((tmp_path / "t.txt").read_bytes())
    write_function(and2_at16, tmp_path / "f.fn")
    args = ["sample", "--function", tmp_path / "f.fn", "--model", "bitflip",
            "--eta", 0.02, "--count", 3000, "--seed", 46, "--out", tmp_path / "cs.txt"]
    assert main([str(a) for a in args]) == 0
    args = ["rectify", "--samples", tmp_path / "cs.txt", "--theta", 0.25,
            "--seed", 47, "--out", tmp_path / "r.txt"]
    assert main([str(a) for a in args]) == 0
    got["cli_sample"] = _digest((tmp_path / "cs.txt").read_bytes())
    got["cli_rectify"] = _digest((tmp_path / "r.txt").read_bytes())
    assert got == PINNED_OUTPUTS


# sha256 prefixes of write_function output, captured from the per-entry
# table writer that format_table replaced
PINNED_FUNCTIONS = {"dense": "42c800d4666e61c9", "junta": "8cfa1552724b29bf"}


def test_function_files_are_pinned(tmp_path):
    functions = {
        "dense": BooleanFunction.dense(
            12, np.random.default_rng(48).integers(0, 2, size=1 << 12)),
        "junta": gen_ftau(16, 3, 0.25, np.random.default_rng(49)),
    }
    got = {}
    for name, f in functions.items():
        write_function(f, tmp_path / "f.fn")
        got[name] = _digest((tmp_path / "f.fn").read_bytes())
        g = read_function(tmp_path / "f.fn")
        assert g.coords == f.coords and np.array_equal(g.table, f.table)
    assert got == PINNED_FUNCTIONS


@relaxed
@given(st.lists(st.integers(0, 1), max_size=300))
def test_table_text_round_trips(entries):
    text = format_table(np.array(entries, dtype=np.uint8))
    assert text == "".join(map(str, entries))
    assert parse_table(text).tolist() == entries


@pytest.mark.parametrize("bad", ["0120", "01 0", "0/10", "01\n0", "01\u00e90", "0o10"])
def test_bad_table_characters_raise(tmp_path, bad):
    with pytest.raises(ValueError):
        parse_table(bad)
    path = tmp_path / "f.fn"
    path.write_text('{"n": 2, "kind": "dense", "table": "%s"}' % bad)
    with pytest.raises(ValueError):
        read_function(path)


def test_dump_readers_refuse_what_write_samples_does_not_write(tmp_path):
    # blank lines and whitespace around rows were once skipped; the dump now
    # has one grammar, the rows write_samples writes
    path = tmp_path / "dump.txt"
    path.write_text("  0101 \n\n1100\r\n\t0011\n\n")
    with pytest.raises(ValueError, match="^line 1: "):
        read_samples(path)


@pytest.mark.parametrize("text,lineno", [
    ("0101\n\n01 01\n", 2),
    ("0101\n011\n", 2),
    ("0101\n01\x0c01\n", 2),
    ("0101\n01é1\n", 2),
])
def test_dump_readers_name_the_bad_line(tmp_path, text, lineno):
    path = tmp_path / "dump.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        read_samples(path)


def test_empty_dumps_are_rejected(tmp_path):
    path = tmp_path / "dump.txt"
    for text in ("", "\n", "\n \n"):  # no first row to read a width from
        path.write_text(text)
        with pytest.raises(ValueError, match="^line 1: width 0 is not in 1..64"):
            read_samples(path)
    with pytest.raises(ValueError, match="at least one sample"):  # nor is one written
        write_samples(np.zeros(0, dtype=np.uint64), 4, path)


WHITESPACE = " \t\x0b\x0c\u00a0\u2003"


@st.composite
def dumps(draw):
    """(dump text, the rows it was made from, their values): the rows as
    write_samples writes them, with '\n' or '\r\n' line ends and an
    optional final one, or with blank lines and whitespace around rows;
    either may have one corrupted line."""
    n, values = draw(batches(max_count=30))
    rows = format_rows(values, n).split("\n")
    lines = list(rows)
    if draw(st.booleans()):
        pad = st.text(st.sampled_from(WHITESPACE), max_size=3)
        decorated = []
        for line in lines:
            decorated += draw(st.lists(pad, max_size=2))
            decorated.append(draw(pad) + line + draw(pad))
        lines = decorated
    if draw(st.booleans()):
        bad = draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
        kind, ch = draw(mutations)
        lines[bad] = mutate(lines[bad], kind, ch, draw(st.integers(0, 80)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), rows, values


@relaxed
@given(dumps())
def test_dumps_are_read_exactly_as_written(tmp_path_factory, dump):
    text, rows, values = dump
    path = tmp_path_factory.mktemp("dumps") / "dump.txt"
    path.write_text(text)
    # the lines as text-mode open reads them; each must be a row as wide as
    # the first, and the first faulty one is named
    lines = path.read_text().removesuffix("\n").split("\n")
    width = len(lines[0])
    faulty = [i for i, line in enumerate(lines)
              if not (1 <= width <= 64 and re.fullmatch(f"[01]{{{width}}}", line))]
    if not faulty:
        got, n = read_samples(path)
        assert n == width and got.tolist() == [int(line, 2) for line in lines]
        if lines == rows:  # every dump write_samples writes reads back
            assert got.tolist() == values.tolist()
    else:
        with pytest.raises(ValueError, match=f"^line {faulty[0] + 1}: "):
            read_samples(path)
