"""Independent references that the tests hold the package's code against.

Nothing in cqpoly calls these. Each one reaches a quantity the package
computes by a second, plainer route:

- ``real_block`` and ``vec_real``: the 4x4 real embedding of the bilinear
  form. The top singular value of ``real_block(A)`` is the maximum that
  ``solve_bilinear`` finds through its C+C SVD.
- ``lift_to_poly``: a multilinear form as a polynomial of the stacked
  vector. Checks ``PolyProblem`` evaluation against ``MultilinearForm``.
- ``sign_average_identity``: the sign-average identity of He, Li & Zhang
  (Math. Program. 2010). Checks that ``symmetrize`` returns a
  super-symmetric form.
- ``check_chi_square_tail``: a Monte Carlo check of the weighted chi-square
  tail lemma behind the tail probe, drawn in the probe's batches.

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

from cqpoly import CQMatrix, CQuat, CQVector, MultilinearForm, PolyProblem
from cqpoly.problab import _batches
from cqpoly.sampling import RandomSource


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
    for stream, size in _batches(samples, 8 * b.size):
        eta = RandomSource(seed, stream=stream).normals((size, b.size))
        z = (eta**2 - 1.0) @ b
        hits += int((z >= cutoff).sum())
    bound = math.exp(-t)
    slack = 4 * math.sqrt(bound / samples)
    return ChiSquareTailCheck(empirical=hits / samples, bound=bound, slack=slack)
