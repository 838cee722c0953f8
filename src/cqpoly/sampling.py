"""Seeded random streams for quaternion sampling.

Every draw is keyed by a (seed, stream) pair. Stream t is numpy's PCG64
seeded by SeedSequence(entropy=seed, spawn_key=(t,)), and normal variates
come from numpy's ziggurat transform of its output, so the same pair always
reproduces the same numbers. RandomSource owns one pair's generator; a
draw on S^(4n-1) is its next 4n normals over their norm (Muller, 1959).

Randomized trials draw from one stream each, and building a SeedSequence, a
PCG64 and a Generator per trial costs several times the draw itself.
sphere_draws therefore computes the PCG64 states of a whole range of streams
at once and switches one generator per thread to each in turn; numpy still
draws every normal, so the rows are exactly what RandomSource would draw.
The states mirror numpy bit for bit:

- SeedSequence(seed).pool is numpy's entropy pool after the words of the
  seed; the words of t are mixed into it by the hashmix and mix steps of
  O'Neill's seed_seq_fe, with the hash constant continued from where the
  seed words left it, as uint32 arrays over the whole range of t;
- generate_state(4, uint64) hashes the pool into four 64-bit words, the
  initial state s and the stream selector seq;
- pcg_setseq_128_srandom_r turns those into the PCG64 inc = 2 seq + 1 and
  state = (s + inc) M + inc mod 2^128, two steps of its 128-bit LCG with
  multiplier M (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation",
  HMC-CS-2014-0905).

A state is kept as its 32-byte image: state and inc as little-endian
128-bit words, which is how numpy's pcg64_random_t holds them where the C
compiler has a native 128-bit integer. The last step runs on all streams of
a range at once: stream k is the 256-bit lane seq + s 2^128 at bit 256 k of
one Python integer, and a few whole-integer shifts, masks, one add and one
multiply by M leave image k in lane k, so the integer's bytes are the
images back to back. No lane spills into the next: M < 2^126 and
s + inc < 2^129, so (s + inc) M + inc < 2^256. A trial's stream is
switched by writing its image over the struct, found through the public
PCG64.ctypes.state_address. The write leaves has_uint32 alone, which is
harmless because only standard_normal, which never reads it, runs on the
thread generators.

One probe, run once, guards this. It only reads: the formula's image of a
probe stream with a multi-word seed must equal the bytes of the live struct
behind RandomSource for that stream, which checks the seeding and the
layout at once. While it passes, a range of two or more streams draws its
rows of streams below 2^32 after writing their images. RandomSource draws
the normals of every other row, bit for bit the same: a range of one
stream, such as a winner's replay, where an image would cost more than it
saves; streams t >= 2^32, whose spawn key is more than one uint32 word; and
every trial where the probe fails, as on a numpy built without a native
128-bit integer, whose {high, low} pcg128_t holds the two 64-bit halves of
each word the other way round. Empty dims draw nothing.
"""

from __future__ import annotations

import ctypes
import functools
import struct
import threading
from typing import Sequence

import numpy as np

# SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# uint32 scalars: small ufunc calls resolve them faster than Python ints.
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
# Multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1


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


def _pcg64_states(seed: int, start: int, stop: int) -> bytes:
    """State images of PCG64(SeedSequence(entropy=seed, spawn_key=(t,))) for t in start..stop-1.

    Returns one bytes of 32 (stop - start) bytes, the image of stream t at
    offset 32 (t - start). Every t must be below 2^32: the spawn key is then
    the one uint32 word t, so each hash step runs once over the whole range.
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
    return _srandom_images(out.reshape(-1, 8))


def _srandom_images(words: np.ndarray) -> bytes:
    """pcg_setseq_128_srandom_r on each row of the (count, 8) uint32 words of generate_state.

    Returns the rows' state images back to back. Row k is the 256-bit lane
    seq + s 2^128 at bit 256 k of one integer, and every lane stays below
    2^256 (see the module docstring), so no lane carries into the next.
    """
    count = len(words)
    # The row's uint64 are (s high, s low, seq high, seq low); reversed, they are the lane.
    lanes = int.from_bytes(words.astype("<u4", copy=False).view("<u8")[:, ::-1].tobytes(), "little")
    # ones is bit 0 and low the low 128 bits of every lane; the shifts below move
    # bits across lanes only where low then drops them.
    ones = int.from_bytes((1).to_bytes(32, "little") * count, "little")
    low = (ones << 128) - ones
    # inc = 2 seq + 1, then two LCG steps from state 0: state = (s + inc) M + inc.
    inc = lanes << 1 & low | ones
    state = ((lanes >> 128 & low) + inc) * _PCG_MULT + inc & low
    return (state | inc << 128).to_bytes(32 * count, "little")


def _state_pointer(bitgen: np.random.PCG64) -> int:
    """Address of bitgen's pcg64_random_t, the first field of numpy's pcg64_state."""
    return ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value


@functools.cache
def _formula_matches_numpy() -> bool:
    """Whether _pcg64_states gives the bytes of a live pcg64_random_t; only reads it.

    The probe stream has a multi-word seed, so one comparison checks both
    the seeding formula and the struct's layout.
    """
    seed, t = 2**160 + 7, _MASK32
    bitgen = RandomSource(seed, stream=t)._gen.bit_generator
    return _pcg64_states(seed, t, t + 1) == ctypes.string_at(_state_pointer(bitgen), 32)


_local = threading.local()


def _thread_generator() -> tuple[np.random.Generator, ctypes.Array]:
    """This thread's Generator and a 32-byte view of its PCG64's pcg64_random_t.

    sphere_draws switches the generator to each trial's stream by assigning
    the state image to the view's raw bytes; it calls this only while
    _formula_matches_numpy. The Generator keeps its PCG64, and so the
    viewed struct, alive.
    """
    try:
        return _local.generator
    except AttributeError:
        gen = np.random.Generator(np.random.PCG64(0))
        view = (ctypes.c_char * 32).from_address(_state_pointer(gen.bit_generator))
        _local.generator = (gen, view)
        return _local.generator


def sphere_draws(seed: int, start: int, stop: int, dims: Sequence[int]) -> list[np.ndarray]:
    """Unit sphere draws of trials start..stop-1: one (stop - start, n, 4) array per n in dims.

    Row r of array k is stream start + r's next 4 dims[k] normals over
    their norm, the slots drawn in order from the stream's start. The
    module docstring says which rows' normals are drawn after writing the
    state images of _pcg64_states over this thread's generator and which
    through RandomSource; one statement then divides every row by its
    norm. Empty dims return [] at once.
    """
    seed, start, stop = int(seed), int(start), int(stop)
    if seed < 0 or start < 0:
        raise ValueError("seed and stream must be nonnegative")
    if stop < start:
        raise ValueError("stop must not precede start")
    if any(n < 1 for n in dims):
        raise ValueError("dimension must be at least 1")
    if not dims:
        return []
    count = stop - start
    raw = [np.empty((count, n, 4)) for n in dims]
    fast = max(0, min(stop, 1 << 32) - start) if count > 1 and _formula_matches_numpy() else 0
    if fast:
        gen, view = _thread_generator()
        # iter_unpack cuts the 32-byte images faster than a Python slice each
        images = struct.iter_unpack("32s", _pcg64_states(seed, start, start + fast))
        for row, (image,) in enumerate(images):
            view.raw = image
            for out in raw:
                gen.standard_normal(out=out[row])
    for row in range(fast, count):
        src = RandomSource(seed, stream=start + row)
        for out, n in zip(raw, dims):
            out[row] = src.normals((n, 4))
    for r, n in zip(raw, dims):
        r /= np.sqrt(np.add.reduce(np.square(r).reshape(count, 4 * n), axis=1))[:, None, None]
    return raw
