"""Seeded random streams for quaternion sampling.

Every draw is keyed by a (seed, stream) pair. Stream t is numpy's PCG64
seeded by SeedSequence(entropy=seed, spawn_key=(t,)), and normal variates
come from numpy's ziggurat transform of its output, so the same pair always
reproduces the same numbers. RandomSource owns the generator of one pair;
it serves the tail probe and is the reference for every other draw.

Randomized trials draw from one stream each, and building a SeedSequence, a
PCG64 and a Generator per trial costs several times the draw itself.
sphere_draws therefore computes the PCG64 states of a whole range of streams
at once and switches one generator per thread to each in turn; numpy still
draws every normal, so the rows are exactly what RandomSource would draw.
The states mirror numpy bit for bit:

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

A state is kept as its 32-byte image: state and inc as little-endian
128-bit words, which is how numpy's pcg64_random_t holds them where the C
compiler has a native 128-bit integer. A trial's stream is switched by
copying its image into that struct, found through the public
PCG64.ctypes.state_address, at a fraction of the cost of the bit_generator
state setter. The copy leaves has_uint32 alone, which is harmless because
only standard_normal, which never reads it, runs on the thread generators.

Two probes, each run once, guard this. The formula's first call is checked
against numpy's seeding on a probe stream; streams t >= 2^32, whose spawn
key is more than one uint32 word, every stream if that probe fails, and any
trial with a null draw are drawn by RandomSource itself: slower, but
identical. Before any image is written, the struct of a fresh PCG64 is read
and compared with the image of its state; on a mismatch (another layout,
such as a {high, low} pcg128_t) the states are set through the state setter
instead.
"""

from __future__ import annotations

import ctypes
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


def _state_image(state: int, inc: int) -> bytes:
    """32-byte image of a PCG64 (state, inc): two little-endian 128-bit words."""
    return (state | inc << 128).to_bytes(32, "little")


def _pcg64_states(seed: int, start: int, stop: int) -> list[bytes]:
    """State images of PCG64(SeedSequence(entropy=seed, spawn_key=(t,))) for t in start..stop-1.

    Every t must be below 2^32: the spawn key is then the one uint32 word t,
    so each hash step runs once over the whole range.
    """
    pool = np.random.SeedSequence(seed).pool
    seed_words = max(1, -(-seed.bit_length() // 32))
    # numpy pads the seed to the pool size, hashes each pool word once, mixes
    # the pool with 12 more hashes, and then spends one hash per pool word on
    # each further word: the rest of the seed, then the spawn key.
    skip = 4 * _POOL_SIZE + _POOL_SIZE * max(0, seed_words - _POOL_SIZE)
    before, after = _hashes(_INIT_A, _MULT_A, skip, _POOL_SIZE)
    hashed = (np.arange(start, stop, dtype=np.uint32).reshape(-1, 1, 1) ^ before) * after
    hashed ^= hashed >> _XSHIFT
    mixer = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
    mixer ^= mixer >> _XSHIFT
    # generate_state(4, uint64): eight hashes cycling over the pool, read
    # as four little-endian uint64 (state high, state low, seq high, seq low).
    out = (mixer ^ _OUT_BEFORE) * _OUT_AFTER
    out ^= out >> _XSHIFT
    states = []
    for a, b, c, d in out.reshape(-1, 8).astype("<u4", copy=False).view("<u8").tolist():
        # pcg_setseq_128_srandom_r: inc = 2 seq + 1, two LCG steps from state 0;
        # then _state_image, inlined.
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
        states.append((state | inc << 128).to_bytes(32, "little"))
    return states


@functools.cache
def _formula_matches_numpy() -> bool:
    """Whether _pcg64_states reproduces numpy's seeding on a probe stream with a multi-word seed."""
    seed, t = 2**160 + 7, _MASK32
    state = RandomSource(seed, stream=t)._gen.bit_generator.state["state"]
    return _pcg64_states(seed, t, t + 1) == [_state_image(state["state"], state["inc"])]


def _state_pointer(bitgen: np.random.PCG64) -> int:
    """Address of bitgen's pcg64_random_t, the first field of numpy's pcg64_state."""
    return ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value


@functools.cache
def _layout_matches() -> bool:
    """Whether a fresh PCG64's pcg64_random_t holds its state's image; only reads it."""
    bitgen = np.random.PCG64(2**128 - 1)
    state = bitgen.state["state"]
    return ctypes.string_at(_state_pointer(bitgen), 32) == _state_image(state["state"], state["inc"])


_local = threading.local()


def _thread_generator() -> tuple[np.random.PCG64, np.random.Generator, int]:
    """This thread's PCG64, its Generator and the address of its pcg64_random_t.

    sphere_draws switches the PCG64 to each trial's stream, by copying the
    state image to that address while _layout_matches, else by setting
    its state. The tuple keeps the PCG64, and so the address, alive.
    """
    try:
        return _local.generator
    except AttributeError:
        bitgen = np.random.PCG64(0)
        _local.generator = (bitgen, np.random.Generator(bitgen), _state_pointer(bitgen))
        return _local.generator


def sphere_draws(seed: int, start: int, stop: int, dims: Sequence[int]) -> list[np.ndarray]:
    """Unit sphere draws of trials start..stop-1: one (stop - start, n, 4) array per n in dims.

    Row r of array k is bit for bit the k-th of the draws
    RandomSource(seed, stream=start + r).sphere_array(n) for n in dims,
    taken in order. Rows of streams below 2^32 are drawn from states
    computed by _pcg64_states while _formula_matches_numpy, and written in
    place while _layout_matches. The other rows, and every
    trial with a draw of norm below 1e-300, are drawn through RandomSource,
    whose rejection loop then decides a null draw.
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
    fast = max(0, min(stop, 1 << 32) - start) if _formula_matches_numpy() else 0
    redo = set(range(fast, count))
    if fast:
        bitgen, gen, pointer = _thread_generator()
        in_place = _layout_matches()
        for row, image in enumerate(_pcg64_states(seed, start, start + fast)):
            if in_place:
                ctypes.memmove(pointer, image, 32)
            else:
                value = int.from_bytes(image, "little")
                bitgen.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": value & _MASK128, "inc": value >> 128},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
            for out in raw:
                gen.standard_normal(out=out[row])
        for r, n in zip(raw, dims):
            r = r[:fast]
            nrm = np.sqrt(np.add.reduce(np.square(r).reshape(fast, 4 * n), axis=1))
            if nrm.min() < 1e-300:
                small = nrm < 1e-300
                nrm[small] = 1.0
                redo.update(np.flatnonzero(small).tolist())
            r /= nrm[:, None, None]
    for row in sorted(redo):
        src = RandomSource(seed, stream=start + row)
        for out, n in zip(raw, dims):
            out[row] = src.sphere_array(n)
    return raw
