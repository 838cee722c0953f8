"""Monte Carlo validation of the sphere tail inequality and chi-square bounds.

The tail probe estimates Prob{Re(a^T xi) >= sqrt(gamma ln n / n) * |a|} for
xi uniform on the quaternion unit sphere. The bound curves attached to the
probe carry a unit constant: the true constants in the lower bounds are
non-constructive, so the curves are for shape comparison only and are never
asserted as ground-truth inequalities.

Sampling is batched: a batch holds BATCH_SIZE samples, or fewer when their
draws would take more than BATCH_BYTES, so the batch size depends only on
the dimension. Batch b draws from RandomSource(seed, stream=b), and counts
merge by addition, so results are independent of how batches are
scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import CQVector
from .sampling import RandomSource

BATCH_SIZE = 1 << 16
BATCH_BYTES = 1 << 26

# Re(p q) contracts components with these signs.
_RE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class ProbeResult:
    n: int
    gamma: float
    delta: float | None
    samples: int
    threshold: float
    empirical_prob: float
    bound45: float
    bound_improved: float | None


@dataclass(frozen=True)
class ChiSquareTailCheck:
    empirical: float
    bound: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + self.slack


@dataclass(frozen=True)
class BoundCurveRow:
    n: int
    bound45: float
    bound_improved: float


def _batches(samples: int, sample_bytes: int):
    """(stream, size) of each batch when one sample's draws take sample_bytes."""
    batch = max(1, min(BATCH_SIZE, BATCH_BYTES // sample_bytes))
    offset = 0
    stream = 0
    while offset < samples:
        size = min(batch, samples - offset)
        yield stream, size
        offset += size
        stream += 1


def estimate_tail_prob(
    n: int,
    gamma: float,
    samples: int,
    seed: int,
    a: CQVector | None = None,
    delta: float | None = None,
) -> ProbeResult:
    """Empirical probability that Re(a^T xi) clears the scaled threshold.

    ``a`` defaults to the first standard basis vector and is used
    unnormalized: the event compares against sqrt(gamma ln n / n) * |a|, so
    rescaling ``a`` leaves the event indicators unchanged draw for draw.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if gamma * math.log(n) >= n:
        raise ValueError(f"hypothesis gamma * ln n < n violated: {gamma * math.log(n):g} >= {n}")
    if samples < 1000:
        raise ValueError("samples must be at least 1000")
    if a is None:
        a = CQVector.basis(n, 0)
    elif len(a) != n:
        raise ValueError(f"a must have length {n}, got {len(a)}")
    threshold = math.sqrt(gamma * math.log(n) / n)
    cutoff = threshold * a.norm()
    # Re(a^T xi) = sum_i [a_i0 xi_i0 - a_i1 xi_i1 + a_i2 xi_i2 - a_i3 xi_i3]
    weights = (a.data * _RE_SIGNS).ravel()
    hits = 0
    for stream, size in _batches(samples, 32 * n):
        src = RandomSource(seed, stream=stream)
        draws = src.normals((size, n, 4))
        nrm = np.sqrt((draws**2).sum(axis=(1, 2)))
        while np.any(nrm < 1e-300):
            bad = nrm < 1e-300
            draws[bad] = src.normals((int(bad.sum()), n, 4))
            nrm = np.sqrt((draws**2).sum(axis=(1, 2)))
        re_vals = draws.reshape(size, 4 * n) @ weights / nrm
        hits += int((re_vals >= cutoff).sum())
    bound45 = n ** (-4.5 * gamma) / math.sqrt(math.log(n))
    improved = None
    if delta is not None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        improved = n ** (-(2 + delta + delta**2 / 2) * gamma) / math.sqrt(math.log(n))
    return ProbeResult(
        n=n,
        gamma=gamma,
        delta=delta,
        samples=samples,
        threshold=threshold,
        empirical_prob=hits / samples,
        bound45=bound45,
        bound_improved=improved,
    )


def check_chi_square_tail(t: float, b, samples: int, seed: int) -> ChiSquareTailCheck:
    """Monte Carlo check of the weighted chi-square deviation bound.

    Draws z = sum_i b_i (eta_i^2 - 1) with standard normal eta and measures
    how often z >= 2|b|sqrt(t) + 2 max(b) t; the bound is exp(-t) and the
    slack is four Monte Carlo standard errors of the bound.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("b must be a nonempty vector")
    if np.any(b < 0):
        raise ValueError("b must be componentwise nonnegative")
    if samples < 1:
        raise ValueError("samples must be positive")
    cutoff = 2 * float(np.sqrt((b**2).sum())) * math.sqrt(t) + 2 * float(b.max()) * t
    hits = 0
    for stream, size in _batches(samples, 8 * b.size):
        src = RandomSource(seed, stream=stream)
        eta = src.normals((size, b.size))
        z = (eta**2 - 1.0) @ b
        hits += int((z >= cutoff).sum())
    bound = math.exp(-t)
    slack = 4 * math.sqrt(bound / samples)
    return ChiSquareTailCheck(empirical=hits / samples, bound=bound, slack=slack)


def bound_curves(n_range, gamma: float, delta: float) -> list[BoundCurveRow]:
    """Both tail lower-bound curves with unit constants, per dimension.

    Emits n^(-4.5 gamma)/sqrt(ln n) next to
    n^(-(2 + delta + delta^2/2) gamma)/sqrt(ln n) for plotting or tabulation.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    improved_exp = (2 + delta + delta**2 / 2) * gamma
    rows = []
    for n in n_range:
        n = int(n)
        if n < 2:
            raise ValueError("dimensions must be at least 2")
        rows.append(
            BoundCurveRow(
                n=n,
                bound45=n ** (-4.5 * gamma) / math.sqrt(math.log(n)),
                bound_improved=n ** (-improved_exp) / math.sqrt(math.log(n)),
            )
        )
    return rows
