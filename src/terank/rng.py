"""Deterministic seeded randomness: SplitMix64 stream + Box-Muller normals.

The stream contract is part of the package's reproducibility surface:
golden files and synthetic truth tables depend on the exact bit sequence,
so numpy's RNG is not used anywhere. SplitMix64 is the generator of
Steele, Lea and Flood (OOPSLA 2014).

The bulk fills are vectorised but bit-identical to the scalar methods.
Integer mixing, the 53-bit conversion, products and sqrt run in numpy
uint64/float64 arithmetic, which is exact or correctly rounded. The
transcendental functions come from the C library (libm), because
numpy's real-float versions depend on the SIMD code it picks for the
CPU (on an AVX-512 machine a contiguous `np.log` differed from libm in
about 3,600 of 2^20 stream draws). A block's logs, cosines and sines
come from one numpy call each, whose output lies one slot behind its
input in one row of a shared buffer. numpy's SIMD loops refuse operands
that partly overlap, and numpy makes no copy for an overlap that is
safe to run forward, so it runs its scalar loop, which calls the C
library's `log`, `cos` or `sin` on each element. That choice of loop is
numpy's implementation detail, so the first bulk fill of a process
checks all three bit for bit against `math.log`, `math.cos` and
`math.sin` on one fixed block of pairs, and a process where any of them
differs takes all three from per-element `math` maps instead. The
Gaussian stream therefore depends on the C library's log, cos and sin
and nothing else, exactly as the scalar `gaussian()` does. Fills work
in blocks of `_BLOCK` draws to keep the temporaries small.

The C library's cos and sin branch on the range and quadrant of their
argument, and Box-Muller hands them its angles in random order, so in
stream order about half their time went to mispredicted branches. A
block therefore feeds its angles to cos and sin grouped by which of
`_SLICES` equal slices of [0, 2pi) they fall in (a stable radix sort
of 8-bit keys), and puts each cosine and sine back at its stream index
before the multiply by the radius. The logs keep stream order, since
grouping gains log nothing. libm's functions are pure, so the order of
their calls changes no bit.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DataError

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_NEG53 = 1.0 / 9007199254740992.0
_TWO_PI = 6.283185307179586

_BLOCK = 8192  # draws per vectorised step; even, so only a fill's last block is odd
_CHECK_PAIRS = 256  # pairs per step of the once-per-process libm check
_SLICES = 64  # equal slices of [0, 2pi) a block's angles are grouped by; at most 256
# _STEPS[k] = (k + 1) * golden mod 2^64: the state increments within a block
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
_STEPS.setflags(write=False)  # shared by every stream, in every thread


def _fill_uniform(out: np.ndarray, state: int) -> int:
    """Fill `out` (at most `_BLOCK` long) with the next uniforms of the
    stream at `state`; return the advanced state."""
    n = out.shape[0]
    z = _STEPS[:n] + np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    np.multiply(z.astype(np.float64), _TWO_NEG53, out=out)
    return (state + n * _GOLDEN) & _MASK


def _angle_order(u2: np.ndarray) -> np.ndarray:
    """The order that groups the angles of the draws `u2` by their slice
    of [0, 2pi), stream order within a slice. 2pi * u2 is monotone in u2,
    so the key is the slice of u2 in [0, 1); numpy runs a radix sort for
    8-bit keys."""
    return np.argsort((_SLICES * u2).astype(np.uint8), kind="stable")


def _libm_rows(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The inputs of the log, cos and sin of the pairs (u1, u2), as rows
    of one (3, pairs + 2) buffer: the clamped draws u1, the angles of the
    draws u2 and those angles again. Each row's inputs start one slot in;
    its trailing 1.0 keeps input and output overlapping when the block
    holds a single pair."""
    rows = np.empty((3, u1.shape[0] + 2), dtype=np.float64)
    # draws are multiples of 2^-53, so this is gaussian()'s u1 <= 0 clamp
    np.maximum(u1, _TWO_NEG53, out=rows[0, 1:-1])
    # theta rounded as in gaussian()
    np.multiply(_TWO_PI, u2, out=rows[1, 1:-1])
    rows[2, 1:-1] = rows[1, 1:-1]
    rows[:, -1] = 1.0
    return rows


def _shifted_libm(rows: np.ndarray) -> np.ndarray:
    """The C library's log, cos and sin of `_libm_rows`' inputs, in place,
    from one numpy call per row. Each call's output lies one slot behind
    its input, a partial overlap that numpy's SIMD loops refuse; numpy
    makes no copy for it, since a forward pass reads each element before
    it is overwritten, so its scalar loop calls libm element by element."""
    log_row, cos_row, sin_row = rows
    np.log(log_row[1:], out=log_row[:-1])
    np.cos(cos_row[1:], out=cos_row[:-1])
    np.sin(sin_row[1:], out=sin_row[:-1])
    return rows[:, :-2]


def _mapped_libm(rows: np.ndarray) -> np.ndarray:
    """`_shifted_libm`'s values, from one `math.log`, `math.cos` or
    `math.sin` call per input."""
    for row, f in zip(rows, (math.log, math.cos, math.sin)):
        row[:-2] = list(map(f, row[1:-1].tolist()))
    return rows[:, :-2]


@functools.cache
def _shifted_libm_is_exact() -> bool:
    """Whether `_shifted_libm` gives the `math` functions' bits on one
    fixed block of stream pairs, its angles grouped as the fill groups
    them; checked once per process, by its first bulk Gaussian fill."""
    z = np.empty(_BLOCK, dtype=np.float64)
    _fill_uniform(z, 0)
    u1, u2 = z[0::2], z[1::2][_angle_order(z[1::2])]
    shifted = _shifted_libm(_libm_rows(u1, u2))
    # the math maps run _CHECK_PAIRS pairs at a time, so only that many
    # Python floats are alive; bytes keep -0.0 apart from 0.0
    return all(
        _mapped_libm(_libm_rows(u1[i:i + _CHECK_PAIRS], u2[i:i + _CHECK_PAIRS])).tobytes()
        == shifted[:, i:i + _CHECK_PAIRS].tobytes()
        for i in range(0, shifted.shape[1], _CHECK_PAIRS)
    )


def _box_muller(state: int, pairs: int) -> tuple[np.ndarray, int]:
    """The next `pairs` Box-Muller pairs as [cos, sin, cos, sin, ...], and
    the advanced state."""
    z = np.empty(2 * pairs, dtype=np.float64)
    state = _fill_uniform(z, state)
    # cos and sin take the angles grouped by slice, so libm's range
    # branches mostly predict right; the logs keep stream order
    order = _angle_order(z[1::2])
    rows = _libm_rows(z[0::2], z[1::2][order])
    # libm's log, cos and sin from one C loop each, or from math maps in a
    # process whose numpy runs those loops with other bits
    r, cos, sin = _shifted_libm(rows) if _shifted_libm_is_exact() else _mapped_libm(rows)
    r *= -2.0
    np.sqrt(r, out=r)
    # each cosine and sine back at its stream index, then times its radius
    z[0::2][order] = cos
    z[1::2][order] = sin
    np.multiply(z[0::2], r, out=z[0::2])
    np.multiply(z[1::2], r, out=z[1::2])
    return z, state


class SplitMix64:
    """One deterministic stream. Instances are single-threaded.

    gaussian() caches the second Box-Muller draw of each pair; the cache
    lives and dies with the instance, so a fresh stream never inherits a
    spare from another. The bulk fills share that cache with the scalar
    draws.
    """

    __slots__ = ("_state", "_has_spare", "_spare")

    def __init__(self, seed: int):
        # one seed, one stream: a wider seed would alias its low 64 bits
        if not 0 <= seed <= _MASK:
            raise DataError(f"seed must lie in [0, 2^64), got {seed}")
        self._state = seed
        self._has_spare = False
        self._spare = 0.0

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53-bit mantissa, [0, 1)
        return (self.next_u64() >> 11) * _TWO_NEG53

    def gaussian(self) -> float:
        if self._has_spare:
            self._has_spare = False
            return self._spare
        u1 = self.uniform()
        u2 = self.uniform()
        if u1 <= 0.0:
            u1 = _TWO_NEG53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = _TWO_PI * u2
        z1 = r * math.sin(theta)
        self._spare = z1
        self._has_spare = True
        return r * math.cos(theta)

    def uniforms(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.float64)
        for i in range(0, count, _BLOCK):
            self._state = _fill_uniform(out[i:i + _BLOCK], self._state)
        return out

    def gaussians(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.float64)
        i = 0
        if self._has_spare and count > 0:
            out[0] = self._spare
            self._has_spare = False
            self._spare = 0.0
            i = 1
        while i < count:
            take = min(_BLOCK, count - i)
            z, self._state = _box_muller(self._state, (take + 1) // 2)
            out[i:i + take] = z[:take]
            if take % 2:
                self._has_spare = True
                self._spare = float(z[-1])
            i += take
        return out
