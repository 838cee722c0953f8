"""Seeded random streams for quaternion sampling.

Every draw is keyed by a (seed, stream) pair. Stream t is numpy's PCG64
seeded by SeedSequence(entropy=seed, spawn_key=(t,)), and normal variates
come from numpy's ziggurat transform of its output, so the same pair always
reproduces the same numbers. RandomSource owns the generator of one pair;
it serves the tail probe and is the reference for every other draw.

Randomized trials draw from one stream each, and building a SeedSequence, a
PCG64 and a Generator per trial costs several times the draw itself.
sphere_draws therefore computes the PCG64 states of a whole range of streams
at once and sets them in turn on one generator per thread, which draws
exactly what RandomSource would. The states mirror numpy bit for bit:

- SeedSequence(seed).pool is numpy's entropy pool after the words of the
  seed; the words of t are mixed into it by the hashmix and mix steps of
  O'Neill's seed_seq_fe, with the hash constant continued from where the
  seed words left it;
- generate_state(4, uint64) hashes the pool into four 64-bit words, the
  initial state and the stream selector;
- pcg_setseq_128_srandom_r turns those into the PCG64 (state, inc) with two
  steps of its 128-bit LCG (O'Neill, "PCG: A Family of Simple Fast
  Space-Efficient Statistically Good Algorithms for Random Number
  Generation", HMC-CS-2014-0905).

The first call compares the computed state of one probe stream with
numpy's own seeding. Should numpy's seeding ever differ, the states come
from numpy's constructors instead: slower, but the draws stay identical.
"""

from __future__ import annotations

import functools
import threading
from typing import Sequence

import numpy as np

from .linalg import CQVector

# SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
# Multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


class RandomSource:
    """Deterministic generator for one trial, keyed by (seed, stream)."""

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        stream = int(stream)
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be nonnegative")
        self.seed = seed
        self.stream = stream
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
        )

    def normals(self, shape) -> np.ndarray:
        """Raw i.i.d. standard normal draws."""
        return self._gen.standard_normal(shape)

    def qnormal_vector(self, n: int) -> CQVector:
        """Quaternion vector with all 4n real components i.i.d. standard normal."""
        if n < 1:
            raise ValueError("dimension must be at least 1")
        return CQVector(self._gen.standard_normal((n, 4)))

    def sphere_array(self, n: int) -> np.ndarray:
        """Uniform draw on the quaternion unit sphere as a raw (n, 4) array."""
        if n < 1:
            raise ValueError("dimension must be at least 1")
        while True:
            data = self._gen.standard_normal((n, 4))
            nrm = float(np.sqrt((data**2).sum()))
            if nrm >= 1e-300:
                return data / nrm

    def sphere_vector(self, n: int) -> CQVector:
        """Uniform draw on the quaternion unit sphere (unit sphere in R^{4n})."""
        return CQVector(self.sphere_array(n))

    def signs(self, count: int) -> np.ndarray:
        """Symmetric Bernoulli draws in {-1, +1}."""
        if count < 1:
            raise ValueError("count must be at least 1")
        return self._gen.integers(0, 2, size=count) * 2 - 1


@functools.cache
def _hashes(init: int, mult: int, skip: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants before and after each of count steps that follow skip steps."""
    h = init * pow(mult, skip, 1 << 32) & _MASK32
    before, after = [], []
    for _ in range(count):
        before.append(h)
        h = h * mult & _MASK32
        after.append(h)
    before, after = np.array(before, np.uint32), np.array(after, np.uint32)
    before.flags.writeable = after.flags.writeable = False
    return before, after


# generate_state's eight hashes, arranged as two passes over the pool words.
_OUT_BEFORE, _OUT_AFTER = (h.reshape(2, _POOL_SIZE) for h in _hashes(_INIT_B, _MULT_B, 0, 8))


def _pcg64_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(entropy=seed, spawn_key=(t,))) for t in start..stop-1.

    The streams are taken in pieces that share t >> 32. Within a piece the
    spawn key has the same number of uint32 words for every t and only its
    lowest word varies, so each hash step runs once over the whole piece.
    """
    pool = np.random.SeedSequence(seed).pool
    seed_words = max(1, -(-seed.bit_length() // 32))
    # numpy pads the seed to the pool size, hashes each pool word once, mixes
    # the pool with 12 more hashes, and then spends one hash per pool word on
    # each further word: the rest of the seed, then the spawn key.
    skip = 4 * _POOL_SIZE + _POOL_SIZE * max(0, seed_words - _POOL_SIZE)
    states = []
    first = start
    while first < stop:
        count = min(stop, (first | _MASK32) + 1) - first
        low = first & _MASK32
        words = [np.arange(low, low + count, dtype=np.uint32).reshape(count, 1, 1)]
        high = first >> 32
        while high:
            words.append(np.uint32(high & _MASK32))
            high >>= 32
        mixer = pool
        for k, word in enumerate(words):
            before, after = _hashes(_INIT_A, _MULT_A, skip + _POOL_SIZE * k, _POOL_SIZE)
            hashed = (word ^ before) * after
            hashed ^= hashed >> _XSHIFT
            mixer = _MIX_MULT_L * mixer - _MIX_MULT_R * hashed
            mixer ^= mixer >> _XSHIFT
        # generate_state(4, uint64): eight hashes cycling over the pool, read
        # as four little-endian uint64 (state high, state low, seq high, seq low).
        out = (mixer ^ _OUT_BEFORE) * _OUT_AFTER
        out ^= out >> _XSHIFT
        for a, b, c, d in out.reshape(count, 8).astype("<u4", copy=False).view("<u8").tolist():
            # pcg_setseq_128_srandom_r: inc = 2 seq + 1, two LCG steps from state 0.
            inc = ((c << 64 | d) << 1 | 1) & _MASK128
            states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc))
        first += count
    return states


def _numpy_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The same (state, inc) pairs from numpy's own SeedSequence and PCG64."""
    states = []
    for t in range(start, stop):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
        state = np.random.PCG64(ss).state["state"]
        states.append((state["state"], state["inc"]))
    return states


@functools.cache
def _formula_matches_numpy() -> bool:
    """Whether _pcg64_states reproduces numpy's seeding on a multi-word probe stream."""
    seed, t = 2**160 + 7, 2**32 + 5
    return _pcg64_states(seed, t, t + 1) == _numpy_states(seed, t, t + 1)


_local = threading.local()


def _thread_generator() -> tuple[np.random.PCG64, np.random.Generator]:
    """This thread's PCG64 and Generator, whose state sphere_draws sets per trial."""
    try:
        return _local.pair
    except AttributeError:
        bitgen = np.random.PCG64(0)
        _local.pair = (bitgen, np.random.Generator(bitgen))
        return _local.pair


def sphere_draws(seed: int, start: int, stop: int, dims: Sequence[int]) -> list[np.ndarray]:
    """Unit sphere draws of trials start..stop-1: one (stop - start, n, 4) array per n in dims.

    Row r of array k is bit for bit the k-th of the draws
    RandomSource(seed, stream=start + r).sphere_array(n) for n in dims,
    taken in order. A trial with a draw of norm below 1e-300 is redrawn
    through RandomSource, whose rejection loop then decides it.
    """
    seed, start, stop = int(seed), int(start), int(stop)
    if seed < 0 or start < 0:
        raise ValueError("seed and stream must be nonnegative")
    if stop < start:
        raise ValueError("stop must not precede start")
    if any(n < 1 for n in dims):
        raise ValueError("dimension must be at least 1")
    count = stop - start
    raw = [np.empty((count, n, 4)) for n in dims]
    bitgen, gen = _thread_generator()
    seeding = _pcg64_states if _formula_matches_numpy() else _numpy_states
    for row, (state, inc) in enumerate(seeding(seed, start, stop)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for out in raw:
            gen.standard_normal(out=out[row])
    redo = set()
    for r, n in zip(raw, dims):
        nrm = np.sqrt(np.add.reduce(np.square(r).reshape(count, 4 * n), axis=1))
        if count and nrm.min() < 1e-300:
            small = nrm < 1e-300
            nrm[small] = 1.0
            redo.update(np.flatnonzero(small).tolist())
        r /= nrm[:, None, None]
    for row in sorted(redo):
        src = RandomSource(seed, stream=start + row)
        for out, n in zip(raw, dims):
            out[row] = src.sphere_array(n)
    return raw
