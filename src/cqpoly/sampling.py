"""Seeded random sources for quaternion sampling.

Each source is identified by a (seed, stream) pair and owns its own PCG64
generator, so independent trials can draw concurrently without sharing
state. The same (seed, stream) always reproduces the identical sequence;
normal variates come from numpy's ziggurat transform of PCG64 uniforms.
"""

from __future__ import annotations

import numpy as np

from .linalg import CQVector


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
