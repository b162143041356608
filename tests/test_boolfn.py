import numpy as np
import pytest

from qfsverify.bits import CapacityError, format_bits, parse_bits
from qfsverify.boolfn import (BooleanFunction, FourierSpectrum, GenerationError, fwht,
                              gen_ftau, read_function, write_function)
from qfsverify.selftest import coeff_bruteforce
from reference import hamming

# Brute-force AND2 spectrum, computed by summing g(x) * chi_s(x) over all
# four inputs by hand: g = (1, 1, 1, -1).
AND2_SPECTRUM = {0b00: 0.5, 0b01: 0.5, 0b10: 0.5, 0b11: -0.5}


def test_parse_format_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 65))
        v = int(rng.integers(0, 1 << min(n, 63)))
        assert parse_bits(format_bits(v, n)) == (v, n)
    with pytest.raises(ValueError):
        parse_bits("01x")


def test_hamming_matches_naive():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = int(rng.integers(0, 1 << 20)), int(rng.integers(0, 1 << 20))
        naive = sum(ca != cb for ca, cb in zip(format_bits(a, 20), format_bits(b, 20)))
        assert hamming(a, b) == naive


def test_eval_and2(and2):
    assert and2.eval_many(np.array([0b11]))[0] == 1
    assert and2.eval_many(np.arange(4)).tolist() == [0, 0, 0, 1]


def test_eval_constant_zero():
    f = BooleanFunction.dense(3, np.zeros(8, dtype=np.uint8))
    assert not f.eval_many(np.arange(8)).any()


def test_junta_ignores_outside_coordinates():
    # AND2 at J = {3, 5} in n = 8: flipping any coordinate outside J never
    # changes the output.
    f = BooleanFunction.junta(8, (3, 5), [0, 0, 0, 1])
    rng = np.random.default_rng(11)
    xs = rng.integers(0, 1 << 8, size=200, dtype=np.uint64)
    base = f.eval_many(xs)
    for coord in (1, 2, 4, 6, 7, 8):
        flipped = xs ^ np.uint64(1 << (8 - coord))
        assert np.array_equal(f.eval_many(flipped), base)
    inside = xs ^ np.uint64(1 << (8 - 3))
    assert not np.array_equal(f.eval_many(inside), base)


def test_eval_rejects_out_of_range(and2):
    with pytest.raises(ValueError):  # a dense width-2 table has no entry 4
        and2.eval_many(np.array([4]))
    # a junta refuses a 21-bit input too, though its table would read one
    with pytest.raises(ValueError):
        BooleanFunction.junta(8, (3, 5), [0, 0, 0, 1]).eval_many([1 << 20 | 0b00101000])
    # a spectrum refuses what its function refuses, and neither truncates a float
    for f in (and2, and2.spectrum()):
        for xs in ([1 << 20 | 0b11], [2.9, 3.2], np.array([2.9, 3.2]), [-1], ["1"]):
            with pytest.raises(ValueError):
                f.eval_many(xs)


@pytest.mark.parametrize("table", [
    [0.9, 0.2, 0, 1.5],  # no entry is rounded to 0 or 1
    [0, 2, 0, 1],
    [0, -1, 0, 1],
    [[0, 0], [0, 1]],
    [0, 0, 1],
])
def test_a_table_holds_exactly_its_0_1_entries(table):
    with pytest.raises(ValueError, match="^table: "):
        BooleanFunction.dense(2, table)


@pytest.mark.parametrize("coords", [(3.7, 5), (True, 5), (3, "5"), "35", 3],
                         ids=["float", "bool", "text-entry", "text", "int"])
def test_coords_are_integers_the_constructor_does_not_convert(coords):
    # a float or bool coordinate was once truncated, (3.7, 5) to (3, 5)
    with pytest.raises(ValueError, match="^coords: must be a list of integers"):
        BooleanFunction.junta(8, coords, [0, 0, 0, 1])


@pytest.mark.parametrize("n,j", [(16, 0), (16, 17), (30, 25)])
def test_junta_size_faults_name_j(n, j):
    with pytest.raises(ValueError, match=r"^j: must satisfy 1 <= j <= min\(n, 24\)"):
        gen_ftau(n, j, 0.5, np.random.default_rng(0))


def test_spectrum_and2(and2):
    spec = and2.spectrum()
    assert spec.entries == pytest.approx(AND2_SPECTRUM)


def test_spectrum_pure_parity():
    # f(x) = s* . x mod 2 has chi_{s*} as its entire spectrum
    s_star = 0b101
    xs = np.arange(8)
    table = np.bitwise_count(xs & s_star) & 1
    f = BooleanFunction.dense(3, table)
    assert f.spectrum().entries == {s_star: 1.0}


def test_spectrum_constant_zero():
    f = BooleanFunction.dense(4, np.zeros(16, dtype=np.uint8))
    assert f.spectrum().entries == {0: 1.0}


def test_spectrum_junta_lift(and2_at16):
    spec = and2_at16.spectrum()
    bit3 = 1 << (16 - 3)
    bit5 = 1 << (16 - 5)
    assert spec.entries == pytest.approx(
        {0: 0.5, bit5: 0.5, bit3: 0.5, bit3 | bit5: -0.5})


def test_coeff_bruteforce_examples(and2):
    assert coeff_bruteforce(and2, 0b11) == -0.5
    s_star = 0b110
    xs = np.arange(8)
    parity_f = BooleanFunction.dense(3, np.bitwise_count(xs & s_star) & 1)
    assert coeff_bruteforce(parity_f, s_star) == 1.0
    assert coeff_bruteforce(parity_f, 0b001) == 0.0


def test_bruteforce_capacity():
    f = BooleanFunction.junta(20, (1, 2), [0, 0, 0, 1])
    with pytest.raises(CapacityError):
        coeff_bruteforce(f, 0)


@pytest.mark.parametrize("trial", range(25))
def test_spectrum_matches_bruteforce_everywhere(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(1, 9))
    if trial % 2:
        f = BooleanFunction.dense(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
    else:
        j = int(rng.integers(1, n + 1))
        f = gen_ftau(n, j, 2.0 ** (1 - j), rng)
    spec = f.spectrum()
    for s in range(1 << n):
        assert abs(spec.coeff(s) - coeff_bruteforce(f, s)) <= 1e-10
    assert sum(c * c for c in spec.entries.values()) == pytest.approx(1.0, abs=1e-9)


def test_loss_identities(and2):
    spec = and2.spectrum()
    assert (1 - spec.coeff(0b00)) / 2 == 0.25
    assert (1 - spec.coeff(0b11)) / 2 == 0.75
    parity_spec = FourierSpectrum(2, {0b10: 1.0})
    assert (1 - parity_spec.coeff(0b10)) / 2 == 0.0
    assert (1 - parity_spec.coeff(0b01)) / 2 == 0.5  # outside the support


def test_loss_equals_exhaustive_disagreement():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        f = BooleanFunction.dense(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        spec = f.spectrum()
        xs = np.arange(1 << n, dtype=np.uint64)
        fx = f.eval_many(xs)
        for s in rng.integers(0, 1 << n, size=8):
            hyp = np.bitwise_count(xs & np.uint64(s)) & 1
            disagreement = float(np.mean(hyp != fx))
            assert (1 - spec.coeff(int(s))) / 2 == disagreement  # both dyadic, exact


def test_argmax_coeff_minimizes_loss():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        f = BooleanFunction.dense(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        spec = f.spectrum()
        losses = [(1 - spec.coeff(s)) / 2 for s in range(1 << n)]
        coeffs = [spec.coeff(s) for s in range(1 << n)]
        assert losses[int(np.argmax(coeffs))] == min(losses)


def test_min_nonzero(and2):
    assert np.abs(and2.spectrum().coeffs).min() == 0.5
    assert np.abs(FourierSpectrum(2, {0b01: 1.0}).coeffs).min() == 1.0


def test_min_nonzero_granularity_3junta():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = gen_ftau(6, 3, 0.25, rng)
        m = np.abs(f.spectrum().coeffs).min()
        assert m > 0 and (m * 4) == int(m * 4)  # integer multiple of 1/4


def test_gen_ftau_single_coordinate():
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = gen_ftau(10, 1, 1.0, rng)
        assert np.abs(f.spectrum().coeffs).min() == 1.0


def test_gen_ftau_granularity_threshold():
    # tau at the coefficient granularity accepts the first candidate
    rng = np.random.default_rng(8)
    for j in (1, 2, 3):
        f = gen_ftau(8, j, 2.0 ** (1 - j), rng)
        assert np.abs(f.spectrum().coeffs).min() >= 2.0 ** (1 - j)


def test_gen_ftau_every_2junta_qualifies_at_half():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = gen_ftau(16, 2, 0.5, rng)
        assert np.abs(f.spectrum().coeffs).min() >= 0.5


def test_gen_ftau_infeasible_raises():
    # only the 64 affine tables of the 2^32 have min coefficient >= 0.9,
    # so 1000 rejections is all but certain
    with pytest.raises(GenerationError):
        gen_ftau(8, 5, 0.9, np.random.default_rng(0))


def test_parseval_enforced():
    with pytest.raises(ValueError):
        FourierSpectrum(2, {0b01: 0.5})


@pytest.mark.parametrize("entries", [{2.7: 1.0}, {1.0: 1.0}, {-1: 1.0}, {0b100: 1.0}])
def test_a_spectrum_refuses_support_strings_it_would_truncate(entries):
    # int() would read the key 2.7 as the string 10
    with pytest.raises(ValueError):
        FourierSpectrum(2, entries)
    with pytest.raises(ValueError):
        FourierSpectrum(2, {0b01: 1.0, 0b10: 0.0})


def test_fwht_involution():
    rng = np.random.default_rng(10)
    v = rng.integers(-5, 6, size=32).astype(np.int64)
    assert np.array_equal(fwht(fwht(v)), 32 * v)


def test_function_file_roundtrip(tmp_path, and2_at16):
    path = tmp_path / "f.json"
    write_function(and2_at16, path)
    g = read_function(path)
    assert g.n == 16 and g.coords == (3, 5)
    assert np.array_equal(g.table, and2_at16.table)
    dense = BooleanFunction.dense(3, [0, 1, 1, 0, 1, 0, 0, 1])
    write_function(dense, path)
    h = read_function(path)
    assert h.coords is None and np.array_equal(h.table, dense.table)


def test_spectrum_eval_matches_function():
    # the sparse expansion recovers f exactly, so a spectrum can stand in
    # for its function as a random example source
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        f = BooleanFunction.dense(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        xs = np.arange(1 << n, dtype=np.uint64)
        assert np.array_equal(f.spectrum().eval_many(xs), f.eval_many(xs))
    junta = gen_ftau(20, 3, 0.25, rng)
    xs = rng.integers(0, 1 << 20, size=1000, dtype=np.uint64)
    assert np.array_equal(junta.spectrum().eval_many(xs), junta.eval_many(xs))


def test_dense_width_cap():
    with pytest.raises(CapacityError):
        BooleanFunction.dense(25, [0])  # cap check precedes the shape check


def test_table_is_copied_not_aliased():
    table = np.array([0, 0, 0, 1], dtype=np.uint8)
    view = table[:]
    f = BooleanFunction.dense(2, table)
    assert table.flags.writeable
    view[0] = 1
    assert f.table.tolist() == [0, 0, 0, 1]
    assert not f.table.flags.writeable


def test_spectrum_arrays_are_read_only(and2):
    # draw_p0 samples from these arrays, so no caller may write into them,
    # nor into the mapping coeff reads, which would then disagree with them
    spec = and2.spectrum()
    for arr in (spec.support, spec.coeffs):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    with pytest.raises(TypeError):
        spec.entries[0b11] = 0.9
    assert spec.coeff(0b11) == spec.coeffs[3] == -0.5
