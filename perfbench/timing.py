"""Host reference kernel and reference-normalized timing.

The speed of a shared host drifts by about 1.5x in phases of a few
seconds. Each timed operation is therefore bracketed by runs of a fixed
reference kernel, and its time is reported as

    measured seconds * REF_NOMINAL_S / (mean of the two reference times),

the time it would have taken on a host that runs the kernel in
REF_NOMINAL_S. The kernel never calls cqpoly.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of reference_kernel on the 2-vCPU Xeon the benchmark was tuned on.
REF_NOMINAL_S = 0.0022

_REF_GEN = np.random.default_rng(20240607)
_REF_TENSOR = _REF_GEN.standard_normal((5, 5, 5))
_REF_B, _REF_C = _REF_GEN.standard_normal((2, 10, 10))
_REF_B, _REF_C = _REF_B + _REF_B.T, _REF_C + _REF_C.T
_REF_SYM = _REF_GEN.standard_normal((48, 48))
_REF_SYM = _REF_SYM + _REF_SYM.T
_REF_COMPLEX = _REF_GEN.standard_normal((24, 24)) + 1j * _REF_GEN.standard_normal((24, 24))


def reference_kernel() -> float:
    """A fixed Python loop of small-array steps, then fixed LAPACK calls.

    Each step draws a small normal block, contracts a small tensor with it,
    assembles a real block matrix, takes a batched eigh and stacks the top
    eigenvectors: the kind of per-call work cqpoly's trials do, which the
    host slows down in the same proportion. It is timed beside every
    operation and never calls cqpoly.
    """
    gen = np.random.Generator(np.random.PCG64(7))
    acc = 0.0
    for _ in range(6):
        v = gen.standard_normal((5, 4))
        v = v / np.sqrt((v**2).sum())
        m = (_REF_TENSOR[None] * v[:, 0, None, None, None]).sum(axis=0)
        block = np.block([[_REF_B, -_REF_C], [-_REF_C, -_REF_B]])
        vecs = np.linalg.eigh(np.stack([block, block]))[1]
        x = vecs[:, :10, -1] + 1j * vecs[:, 10:, -1]
        acc += float(np.stack([x.real, x.imag, x.real, x.imag], axis=-1).sum()) + m[0, 0, 0]
    top = np.linalg.eigh(_REF_SYM)[0][-1]
    sigma = np.linalg.svd(_REF_COMPLEX, compute_uv=False)[0]
    return acc + top + sigma


class Clock:
    """Times calls against the reference kernel run just before and just after each.

    Consecutive calls share the reference run between them; ``break_chain``
    forces a fresh one after untimed work.
    """

    def __init__(self):
        self.ref_times: list[float] = []
        self._last_ref: float | None = None

    def _ref(self) -> float:
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.ref_times.append(elapsed)
        self._last_ref = elapsed
        return elapsed

    def break_chain(self) -> None:
        self._last_ref = None

    def measure(self, fn, *args):
        """Run fn(*args); return (result, raw seconds, normalized seconds)."""
        before = self._last_ref if self._last_ref is not None else self._ref()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        after = self._ref()
        return result, raw, raw * REF_NOMINAL_S / ((before + after) / 2)

    def ref_ms(self) -> float:
        return 1000 * statistics.median(self.ref_times)
