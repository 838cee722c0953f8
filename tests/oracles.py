"""Independent references that the tests hold the package's code against.

Nothing in cqpoly calls these. Each one reaches a quantity the package
computes by a second, plainer route:

- ``qmul``: the product of two quaternions written out from the
  multiplication rules on component tuples. Checks ``linalg.qprod`` and
  is the scalar reference of polynomial evaluation.
- ``real_block`` and ``vec_real``: the 4x4 real embedding of the bilinear
  form. The top singular value of ``real_block(A)`` is the maximum that
  ``solve_bilinear`` finds through its C+C SVD.
- ``lift_to_poly``: a multilinear form as a polynomial of the stacked
  vector. Checks ``PolyProblem`` evaluation against ``MultilinearForm``.
- ``sign_average_identity``: the sign-average identity of He, Li & Zhang
  (Math. Program. 2010). Checks that ``symmetrize`` returns a
  super-symmetric form.
- ``reference_draws``: the sphere draw rule itself, one RandomSource per
  trial. Checks ``sphere_draws`` and the solvers' replayed winner draws.
- ``check_chi_square_tail``: a Monte Carlo check of the weighted chi-square
  tail lemma behind the tail probe, drawn in the probe's batches.
- ``whole_batch_tail_prob``: the tail probe drawn and counted one whole
  batch at a time. Checks that ``estimate_tail_prob``'s blocks give the
  same counts.
- ``unscreened_sigmas`` and ``form_trial_values``: the trial loop with an
  SVD of every block, one whole batch at a time. Checks that the blocks
  the bounds of ``solvers._trial_sigmas`` skip never change a record.
- ``expected_ratio``: the exact mean of the paper table's best-of-k ratio
  on the all-ones cubic. Checks the distribution of ``run_experiment``.
- ``exact_tail``: the exact tail of one coordinate of a uniform point on
  the unit sphere of H^n. Checks ``estimate_tail_prob``.

The real embedding stacks the component vectors in the fixed order
(x0; x1; x2; x3), and maps an m x n matrix A to the 4m x 4n real grid

    [[ A0, -A1,  A2, -A3],
     [-A1, -A0, -A3, -A2],
     [ A2, -A3,  A0, -A1],
     [-A3, -A2, -A1, -A0]]

so that Re(x^T A y) = vec(x)^T block(A) vec(y) for all x, y.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from cqpoly import CQMatrix, CQuat, CQVector, MultilinearForm, PolyProblem, cc_split, solvers
from cqpoly.problab import _RE_SIGNS, BATCH_SIZE
from cqpoly.sampling import RandomSource, sphere_draws


def qmul(p, q) -> tuple[float, float, float, float]:
    """The product p*q of two (w, x, y, z) component tuples, by i*i = k*k = -1, j*j = 1, ij = k, jk = i, ki = -j."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (
        p0 * q0 - p1 * q1 + p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 + p3 * q2,
        p0 * q2 + p2 * q0 - p1 * q3 - p3 * q1,
        p0 * q3 + p3 * q0 + p1 * q2 + p2 * q1,
    )


def real_block(A: CQMatrix) -> np.ndarray:
    """The real 4m x 4n embedding of A, in the block order above."""
    m, n = A.shape
    A0, A1, A2, A3 = (A.data[..., c] for c in range(4))
    grid = [
        [A0, -A1, A2, -A3],
        [-A1, -A0, -A3, -A2],
        [A2, -A3, A0, -A1],
        [-A3, -A2, -A1, -A0],
    ]
    out = np.empty((4 * m, 4 * n))
    for bi in range(4):
        for bj in range(4):
            out[bi * m : (bi + 1) * m, bj * n : (bj + 1) * n] = grid[bi][bj]
    return out


def vec_real(x: CQVector) -> np.ndarray:
    """The component vectors stacked as (x0; x1; x2; x3); preserves the norm."""
    return np.concatenate([x.data[:, c] for c in range(4)])


def lift_to_poly(form: MultilinearForm) -> PolyProblem:
    """Polynomial in the stacked variable whose evaluation equals the form.

    Slot k of the form is mapped to the k-th block of the stacked vector, so
    evaluating the lift at (x^1; ...; x^d) reproduces F(x^1, ..., x^d).
    """
    dims = form.dims
    offsets = np.concatenate([[0], np.cumsum(dims[:-1])])
    poly = PolyProblem(degree=form.order, dim=int(sum(dims)))
    data = form.tensor.data
    for idx in np.ndindex(*dims):
        comps = data[idx]
        if not comps.any():
            continue
        stacked = tuple(int(offsets[k] + i + 1) for k, i in enumerate(idx))
        poly.add_term(stacked, CQuat(*comps))
    return poly


def sign_average_identity(form: MultilinearForm, xs) -> tuple[CQuat, CQuat]:
    """Exact sign-average of diagonal evaluations next to d! times the form.

    The left value averages prod(s) * H(sum_k s_k x^k) over all 2^d sign
    vectors s, where H is the diagonal restriction of the form; the right
    value is d! * F(x^1, ..., x^d). For a super-symmetric form the two agree.
    """
    d = form.order
    total = np.zeros(4)
    for signs in itertools.product((1.0, -1.0), repeat=d):
        combo = CQVector(sum(s * x.data for s, x in zip(signs, xs)))
        value = form(*([combo] * d))
        total += math.prod(signs) * np.array(value.components())
    lhs = CQuat(*(total / 2**d))
    rhs = CQuat(*(math.factorial(d) * np.array(form(*xs).components())))
    return lhs, rhs


@dataclass(frozen=True)
class ChiSquareTailCheck:
    empirical: float
    bound: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + self.slack


def check_chi_square_tail(t: float, b, samples: int, seed: int) -> ChiSquareTailCheck:
    """Monte Carlo check of the weighted chi-square deviation bound.

    Draws z = sum_i b_i (eta_i^2 - 1) with standard normal eta and measures
    how often z >= 2|b|sqrt(t) + 2 max(b) t; the bound is exp(-t) and the
    slack is four Monte Carlo standard errors of the bound. Batch k draws
    from RandomSource(seed, stream=k), in the tail probe's batch sizes.
    """
    b = np.asarray(b, dtype=np.float64)
    cutoff = 2 * float(np.sqrt((b**2).sum())) * math.sqrt(t) + 2 * float(b.max()) * t
    hits = 0
    for stream, offset in enumerate(range(0, samples, BATCH_SIZE)):
        eta = RandomSource(seed, stream=stream).normals((min(BATCH_SIZE, samples - offset), b.size))
        z = (eta**2 - 1.0) @ b
        hits += int((z >= cutoff).sum())
    bound = math.exp(-t)
    slack = 4 * math.sqrt(bound / samples)
    return ChiSquareTailCheck(empirical=hits / samples, bound=bound, slack=slack)


def reference_draws(seed: int, start: int, stop: int, dims) -> list[np.ndarray]:
    """One (stop - start, n, 4) array per n in dims, by the draw rule itself.

    Row t of array k is RandomSource(seed, stream=start + t)'s k-th draw
    when the slots are drawn in order: its next 4n normals over their norm.
    """
    rows = [[] for _ in dims]
    for t in range(start, stop):
        src = RandomSource(seed, stream=t)
        for row, n in zip(rows, dims):
            d = src.normals((n, 4))
            row.append(d / np.sqrt(np.square(d).sum()))
    return [np.stack(row) for row in rows]


def whole_batch_tail_prob(n: int, gamma: float, samples: int, seed: int, a: CQVector) -> float:
    """The tail probe's empirical probability, each batch drawn and counted in one piece.

    Each sample is its 4n normals divided by their norm, and rows are valued
    by the probe's row-local einsum products.
    """
    cutoff = math.sqrt(gamma * math.log(n) / n) * a.norm()
    weights = (a.data * _RE_SIGNS).ravel()
    hits = 0
    for stream, offset in enumerate(range(0, samples, BATCH_SIZE)):
        size = min(BATCH_SIZE, samples - offset)
        draws = RandomSource(seed, stream=stream).normals((size, 4 * n))
        nrm = np.sqrt(np.einsum("ij,ij->i", draws, draws))
        re_vals = np.einsum("ij,j->i", draws, weights) / nrm
        hits += int((re_vals >= cutoff).sum())
    return hits / samples


def unscreened_sigmas(comps: np.ndarray, trials: int, seed: int, per_component: bool = False) -> np.ndarray:
    """sigma_1 of both C+C blocks of every trial, as (trials, 2), each block by its own SVD.

    Takes the arguments of solvers._trial_sigmas and draws and contracts the
    same blocks, all trials in one batch, but skips none.
    """
    draws = solvers._cc_draws(sphere_draws(seed, 0, trials, comps.shape[1:-2]), per_component)
    return np.linalg.svd(solvers._contract_batch(comps, draws), compute_uv=False)[..., 0]


def form_trial_values(form: MultilinearForm, trials: int, seed: int) -> np.ndarray:
    """Exact value of every trial of maximize_form, as a (trials,) array; one entry for d = 2."""
    comps = np.stack(cc_split(solvers._sorted_tensor(form)))
    return unscreened_sigmas(comps, trials if form.order > 2 else 1, seed).max(axis=1)


def _gauss_legendre(f, lo, hi, nodes: int = 200, panels: int = 1) -> float:
    """Composite Gauss-Legendre integral of the vectorized f over [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges)[:, None] / 2
    points = (edges[:-1, None] + half) + half * x
    return float((f(points) * half * w).sum())


def _one_trial_tail(n: int, r: np.ndarray) -> np.ndarray:
    """1 - F(r) for one trial on the all-ones cubic of dimension n, F as in expected_ratio.

    1 - I_x(2, m) = (1 - x)^m (1 + m x) vanishes where x = min(1, r/w) = 1, so
    the integral over w runs from max(1/2, r) to 1 and has no kink.
    """
    m = 2 * n - 2
    x, wts = np.polynomial.legendre.leggauss(64)
    lo = np.maximum(0.5, r)[..., None]
    half = (1.0 - lo) / 2
    w = lo + half * (x + 1)
    q = r[..., None] / w
    return 2 * ((1 - q) ** m * (1 + m * q) * half * wts).sum(axis=-1)


def expected_ratio(n: int, k: int) -> float:
    """E of the paper table's ratio at k trials on the all-ones cubic of dimension n.

    A trial's blocks are s_c J with J the n x n all-ones matrix, and its
    ratio is x = sqrt(max(R1, R2) / 2), where R1 + R2 = B ~ Beta(2, 2n - 2) and
    R1 / B ~ U(0, 1) independently of B. So max(R1, R2) has the CDF
    F(r) = 2 int_{1/2}^{1} I_{min(1, r/w)}(2, 2n - 2) dw, with
    I_x(2, m) = 1 - (1 - x)^m (1 + m x), and the best of k trials has the mean
    E = int_0^{1/sqrt 2} 1 - F(2 x^2)^k dx, split at x = 1/2, where F has a kink.
    """

    def integrand(x):
        return 1 - (1 - _one_trial_tail(n, 2 * x * x)) ** k

    return sum(_gauss_legendre(integrand, lo, hi, nodes=32, panels=64) for lo, hi in [(0, 0.5), (0.5, 0.5**0.5)])


def exact_tail(n: int, t: float) -> float:
    """P(u >= t) for u one coordinate of a uniform point on the unit sphere S^(4n-1).

    u has the density proportional to (1 - u^2)^((4n - 3) / 2) on [-1, 1].
    """

    def density(u):
        return (1 - u * u) ** ((4 * n - 3) / 2)

    return _gauss_legendre(density, t, 1.0) / _gauss_legendre(density, -1.0, 1.0)
