"""SplitMix64 stream contract: reference vectors, Box-Muller consumption,
bit-equality of the bulk numpy fills with the scalar draws, the bits of
the shifted np.log, np.cos and np.sin (numpy's scalar loops over the C
library's log, cos and sin) against math.log, math.cos and math.sin, the
run-time check that guards them and its math fallback, the grouping of
each block's angles by slice before cos and sin, and the calls the bulk
fill makes: one np.log, one np.cos and one np.sin per block."""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terank import rng as rng_module
from terank.rng import SplitMix64
from test_cold_start import NUMPY_TRANSCENDENTALS

MASK = 0xFFFFFFFFFFFFFFFF


def reference_splitmix64(seed, count):
    # independent reimplementation of the published recurrence, kept
    # deliberately separate from the package code
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_seed_zero_reference_vector():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF


def test_stream_matches_independent_implementation():
    for seed in (0, 1, 0xDEADBEEF, MASK):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(64)]
        assert got == reference_splitmix64(seed, 64)


def test_same_seed_same_stream():
    a = [SplitMix64(99).next_u64() for _ in range(1)]
    assert SplitMix64(99).next_u64() == a[0]
    b1 = SplitMix64(1234)
    b2 = SplitMix64(1234)
    assert [b1.next_u64() for _ in range(100)] == [b2.next_u64() for _ in range(100)]


def test_single_bit_seed_flip_changes_first_output():
    for bit in range(0, 64, 7):
        assert SplitMix64(0).next_u64() != SplitMix64(1 << bit).next_u64()


def test_uniform_is_53_bit_mantissa():
    rng = SplitMix64(5)
    ref = SplitMix64(5)
    for _ in range(1000):
        u = rng.uniform()
        assert u == (ref.next_u64() >> 11) * 2.0**-53
        assert 0.0 <= u < 1.0


def test_gaussian_consumes_two_uniforms_per_pair():
    probe = SplitMix64(17)
    u = [probe.uniform() for _ in range(4)]
    r0 = math.sqrt(-2.0 * math.log(u[0]))
    r1 = math.sqrt(-2.0 * math.log(u[2]))
    expected = [
        r0 * math.cos(2.0 * math.pi * u[1]),
        r0 * math.sin(2.0 * math.pi * u[1]),
        r1 * math.cos(2.0 * math.pi * u[3]),
    ]
    rng = SplitMix64(17)
    got = [rng.gaussian() for _ in range(3)]
    assert got == pytest.approx(expected, abs=0.0)


def test_bulk_fills_match_scalar_calls():
    scalar = SplitMix64(31)
    bulk = SplitMix64(31)
    assert list(bulk.uniforms(17)) == [scalar.uniform() for _ in range(17)]
    scalar = SplitMix64(32)
    bulk = SplitMix64(32)
    assert list(bulk.gaussians(9)) == [scalar.gaussian() for _ in range(9)]
    # spare from an odd bulk carries into the next call, exactly like the
    # scalar path
    assert list(bulk.gaussians(4)) == [scalar.gaussian() for _ in range(4)]


def test_fresh_stream_discards_cached_draw():
    # the cached odd draw belongs to its stream; a new stream for the same
    # seed starts from the raw state, not from another stream's spare
    first = SplitMix64(8).gaussian()
    rng = SplitMix64(8)
    rng.gaussian()  # leaves a cached sin draw behind
    fresh = SplitMix64(8)
    assert fresh.gaussian() == first


# lengths around the fills' 8192-draw block edges, plus a zoo-sized fill
BLOCK_LENGTHS = (8191, 8192, 8193, 16385, 256000)


def scalar_draws(draw, count):
    return np.array([draw() for _ in range(count)], dtype=np.float64)


@pytest.mark.parametrize("count", BLOCK_LENGTHS)
def test_bulk_uniforms_equal_scalar_across_blocks(count):
    scalar = SplitMix64(0xC0FFEE)
    bulk = SplitMix64(0xC0FFEE)
    assert bulk.uniforms(count).tobytes() == scalar_draws(scalar.uniform, count).tobytes()
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("count", BLOCK_LENGTHS)
def test_bulk_gaussians_equal_scalar_across_blocks(count):
    scalar = SplitMix64(2**63 + 5)
    bulk = SplitMix64(2**63 + 5)
    assert bulk.gaussians(count).tobytes() == scalar_draws(scalar.gaussian, count).tobytes()
    # an odd count leaves the same spare behind on both paths
    assert bulk.gaussians(3).tobytes() == scalar_draws(scalar.gaussian, 3).tobytes()


def test_spare_carries_across_calls_and_block_edges():
    scalar = SplitMix64(77)
    bulk = SplitMix64(77)
    # 8193 crosses a block edge and leaves a spare; 8192 starts with it and
    # leaves another; the next 8193 uses it and fills one exact block; 16386
    # starts with a spare, fills two blocks and one odd draw, leaving a spare
    for count in (8193, 8192, 8193, 1, 16386, 2):
        got = bulk.gaussians(count)
        assert got.tobytes() == scalar_draws(scalar.gaussian, count).tobytes(), count
    assert bulk.gaussian() == scalar.gaussian()


def test_zero_uniform_is_clamped_like_scalar_path():
    # the first state step lands on 0, whose mix is 0, so u1 == 0 and
    # Box-Muller must clamp it to 2^-53 rather than take log(0)
    seed = 2**64 - 0x9E3779B97F4A7C15
    assert SplitMix64(seed).uniform() == 0.0
    scalar = SplitMix64(seed)
    expected = [scalar.gaussian(), scalar.gaussian()]
    got = SplitMix64(seed).gaussians(2)
    assert list(got) == expected
    # the pair's radius is sqrt(-2 log 2^-53), about 8.57
    assert math.hypot(*got) == pytest.approx(math.sqrt(106.0 * math.log(2.0)))


def xorshift_right_inverse(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def unmix(z):
    # the inverse of SplitMix64's output function: each xorshift and each
    # product by an odd constant is a bijection of the 64-bit words
    z = xorshift_right_inverse(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & MASK
    z = xorshift_right_inverse(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK
    return xorshift_right_inverse(z, 30)


def seed_drawing(index, word):
    """The seed whose stream's `index`-th next_u64 (counting from 1) is `word`."""
    return (unmix(word) - index * 0x9E3779B97F4A7C15) & MASK


def angle_slices(seed, count):
    """The slice of [0, 2pi) of each angle among a stream's first `count` draws."""
    return (SplitMix64(seed).uniforms(count)[1::2] * rng_module._SLICES).astype(int)


# the fill hands cos and sin each block's angles grouped by slice and puts
# each value back at its stream index: blocks whose angles share one slice
# (so grouping keeps stream order), blocks with an angle at the very start
# or end of [0, 2pi) as the first or last pair, so it is the first or last
# input of the grouped rows, and one-pair blocks and odd tails; the block
# edges are BLOCK_LENGTHS above
LAST_U2 = 2**64 - 1  # the word whose draw is 1 - 2^-53
GROUPED_FILL_CASES = {
    # 14,277,603's first five angles all lie in slice 33
    "one-slice-5-pairs": (14_277_603, 10),
    "one-slice-odd-tail": (14_277_603, 9),
    "u2-0-first-pair": (seed_drawing(2, 0), 8192),
    "u2-0-last-pair": (seed_drawing(8192, 0), 8192),
    "u2-max-first-pair": (seed_drawing(2, LAST_U2), 8192),
    "u2-max-last-pair": (seed_drawing(8192, LAST_U2), 8192),
    "block-edge-u2-max": (seed_drawing(8192, LAST_U2), 16385),
    "one-pair": (3, 2),
    "one-draw": (3, 1),
    "odd-tail": (3, 7),
}


@pytest.mark.parametrize("seed,count", GROUPED_FILL_CASES.values(),
                         ids=GROUPED_FILL_CASES.keys())
def test_grouped_fill_equals_scalar_gaussians(seed, count):
    scalar = SplitMix64(seed)
    assert SplitMix64(seed).gaussians(count).tobytes() == scalar_draws(
        scalar.gaussian, count).tobytes()


def test_grouped_fill_cases_hold_what_they_name():
    slices = angle_slices(*GROUPED_FILL_CASES["one-slice-5-pairs"])
    assert set(slices) == {33}
    for name, (seed, count) in GROUPED_FILL_CASES.items():
        if name.startswith("u2-"):
            draws = SplitMix64(seed).uniforms(count)
            index = 1 if "first" in name else 8191
            want = 0.0 if name.startswith("u2-0") else 1.0 - 2.0**-53
            assert draws[index] == want, name
    # the two-block case: the last angle of its first block is the last
    # slice's, and the first block's angles cover every slice
    slices = angle_slices(*GROUPED_FILL_CASES["block-edge-u2-max"])
    assert slices[4095] == rng_module._SLICES - 1
    assert set(slices[:4096]) == set(range(rng_module._SLICES))
    for index in (2, 8192, 5):
        word = 0x0123456789ABCDEF
        rng = SplitMix64(seed_drawing(index, word))
        assert [rng.next_u64() for _ in range(index)][-1] == word


ANGLE_DRAWS = {
    "stream-block": SplitMix64(0).uniforms(8192)[1::2],
    "one-slice": np.full(5, 0.5),
    "ends": np.array([1.0 - 2.0**-53, 0.0, 0.5, 2.0**-53, 1.0 - 2.0**-53, 0.0]),
    "slice-edges": np.arange(rng_module._SLICES)[::-1] / rng_module._SLICES,
    "one-pair": np.array([0.25]),
}


@pytest.mark.parametrize("u2", ANGLE_DRAWS.values(), ids=ANGLE_DRAWS.keys())
def test_angle_order_is_a_stable_permutation_by_slice(u2):
    order = rng_module._angle_order(u2)
    keys = np.floor(u2 * rng_module._SLICES)
    assert np.array_equal(np.sort(order), np.arange(u2.size))
    assert np.all(np.diff(keys[order]) >= 0)
    # stream order within a slice
    assert np.array_equal(order, np.lexsort((np.arange(u2.size), keys)))


def k_nearest(angle):
    return round(angle / rng_module._TWO_PI * 2**53)


# the ends of the draw range, the draws around 0.5, and the draws around
# pi/2, pi and 3pi/2, where cos or sin crosses zero; 1 - 2^-52, whose log
# numpy's AVX-512 log rounds the other way from libm's
EDGE_KS = [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1] + [
    k_nearest(angle) + step
    for angle in (math.pi / 2, math.pi, 3 * math.pi / 2) for step in (-1, 0, 1)]


def with_edge_examples(test):
    for k in EDGE_KS:
        test = example(k=k)(test)
    return test


def libm_rows_of(z):
    """The bulk fill's rows for the uniforms `z` (u1, u2 pairs): the log of
    each clamped u1 and the cos and sin of each angle, from one shifted
    numpy call per function as the fill makes them, and the same rows from
    math.log, math.cos and math.sin. The fill hands cos and sin its angles
    grouped by slice; their rows go back to stream order here, so each
    value is compared with the math function of its own input."""
    order = rng_module._angle_order(z[1::2])
    grouped = rng_module._shifted_libm(rng_module._libm_rows(z[0::2], z[1::2][order]))
    got = grouped.copy()
    got[1:, order] = grouped[1:]
    u1 = np.maximum(z[0::2], 2.0**-53).tolist()
    theta = (rng_module._TWO_PI * z[1::2]).tolist()
    want = np.array([np.fromiter(map(f, x), dtype=np.float64, count=len(x))
                     for f, x in ((math.log, u1), (math.cos, theta), (math.sin, theta))])
    return got, want


def hex_rows(rows):
    return [[x.hex() for x in row] for row in rows.tolist()]


# one pair, the block a fill ends with when it ends a block early; its
# angle is _TWO_PI * k * 2^-53 for a 53-bit k, as in gaussian(), and its
# u1 is the same draw, clamped to max(k * 2^-53, 2^-53)
@settings(max_examples=2000, deadline=None)
@given(k=st.integers(0, 2**53 - 1))
@with_edge_examples
def test_shifted_log_has_the_bits_of_math_log(k):
    got, want = libm_rows_of(np.full(2, k * 2.0**-53))
    assert hex_rows(got[:1]) == hex_rows(want[:1])


@settings(max_examples=2000, deadline=None)
@given(k=st.integers(0, 2**53 - 1))
@with_edge_examples
def test_shifted_cos_and_sin_have_the_bits_of_math_cos_and_sin(k):
    got, want = libm_rows_of(np.full(2, k * 2.0**-53))
    assert hex_rows(got[1:]) == hex_rows(want[1:])


@pytest.fixture(scope="module")
def million_stream_rows():
    # 2^20 draws of one SplitMix64 stream, spread over the whole 53-bit
    # range, each taken as a u1 and as a u2 through one call per function;
    # a contiguous np.log, which takes numpy's SIMD loop on AVX-512,
    # differs from libm in about 3,600 of them
    u = SplitMix64(0x5EED).uniforms(2**20)
    got, want = libm_rows_of(np.repeat(u, 2))
    return u, got, want


def assert_libm_bits(name, got, want, inputs):
    mismatched = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert mismatched.size == 0, (
        f"{mismatched.size} of {got.size} {name} values differ from libm, the first "
        f"at {inputs[mismatched[0]]!r}")


def test_shifted_log_of_a_million_stream_draws_has_the_bits_of_math_log(million_stream_rows):
    u, got, want = million_stream_rows
    assert_libm_bits("log", got[0], want[0], np.maximum(u, 2.0**-53))


def test_shifted_cos_and_sin_of_a_million_stream_angles_have_the_bits_of_math_cos_and_sin(
        million_stream_rows):
    u, got, want = million_stream_rows
    for row, name in ((1, "cos"), (2, "sin")):
        assert_libm_bits(name, got[row], want[row], rng_module._TWO_PI * u)


class CountingModule:
    """Stands in for a module and counts the calls of each function taken
    from it, or only of the functions named in `names`."""

    def __init__(self, module, counts, names=None):
        self._module, self._counts, self._names = module, counts, names

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        if self._names is not None and name not in self._names:
            return fn

        def counted(*args, **kwargs):
            self._counts[f"{self._module.__name__}.{name}"] += 1
            return fn(*args, **kwargs)

        return counted


def test_failed_libm_check_falls_back_to_the_math_maps(monkeypatch):
    # a process whose shifted calls fail the check takes a math.log,
    # math.cos and math.sin call per pair, and draws the same bits
    expected = SplitMix64(41).gaussians(16385)
    monkeypatch.setattr(rng_module, "_shifted_libm_is_exact", lambda: False)
    counts = Counter()
    monkeypatch.setattr(rng_module, "math", CountingModule(math, counts))
    got = SplitMix64(41).gaussians(16385)
    assert got.tobytes() == expected.tobytes()
    assert counts == {"math.log": 8193, "math.cos": 8193, "math.sin": 8193}


def check_with_one_value_one_ulp_off(monkeypatch, row):
    """The libm check's verdict, run again with one value of `row` (0 log,
    1 cos, 2 sin) of the shifted calls moved one ulp towards zero."""
    shifted_libm = rng_module._shifted_libm

    def one_ulp_off(rows):
        out = shifted_libm(rows)
        out[row, 1234] = np.nextafter(out[row, 1234], 0.0)
        return out

    check = rng_module._shifted_libm_is_exact.__wrapped__
    assert check()
    monkeypatch.setattr(rng_module, "_shifted_libm", one_ulp_off)
    return check()


def test_libm_check_runs_the_angles_grouped_as_the_fill_does(monkeypatch):
    # the check covers what the fill runs: the shifted cos and sin of its
    # fixed block see that block's angles in the fill's grouped order
    seen = []
    shifted_libm = rng_module._shifted_libm

    def recording(rows):
        seen.append(rows[1:, 1:-1].copy())
        return shifted_libm(rows)

    monkeypatch.setattr(rng_module, "_shifted_libm", recording)
    assert rng_module._shifted_libm_is_exact.__wrapped__()
    u2 = SplitMix64(0).uniforms(rng_module._BLOCK)[1::2]
    grouped = rng_module._TWO_PI * u2[rng_module._angle_order(u2)]
    assert len(seen) == 1
    assert seen[0][0].tobytes() == seen[0][1].tobytes() == grouped.tobytes()
    assert grouped.tobytes() != (rng_module._TWO_PI * u2).tobytes()


def test_log_check_fails_on_a_log_one_ulp_off_at_one_point(monkeypatch):
    assert not check_with_one_value_one_ulp_off(monkeypatch, 0)


@pytest.mark.parametrize("row", [1, 2], ids=["cos", "sin"])
def test_libm_check_fails_on_a_cos_or_sin_one_ulp_off_at_one_point(monkeypatch, row):
    assert not check_with_one_value_one_ulp_off(monkeypatch, row)


def test_bulk_fill_makes_one_log_one_cos_and_one_sin_call_per_block(monkeypatch):
    # 16,385 draws are two full blocks of 4,096 pairs and one pair for the
    # odd last draw: one np.log, np.cos and np.sin call per block, and no
    # np.exp or per-element math call. The uncounted fill below runs the
    # once-per-process libm check if no fill has yet
    expected = SplitMix64(41).gaussians(16385)
    counts = Counter()
    monkeypatch.setattr(rng_module, "math", CountingModule(math, counts))
    monkeypatch.setattr(rng_module, "np",
                        CountingModule(np, counts, NUMPY_TRANSCENDENTALS))
    got = SplitMix64(41).gaussians(16385)
    assert got.tobytes() == expected.tobytes()
    assert counts == {"numpy.log": 3, "numpy.cos": 3, "numpy.sin": 3}
    assert "cmath" not in vars(rng_module)
