"""Randomized maximization of multilinear forms and homogeneous polynomials.

The exact two-slot solver splits A into its two complex C+C components and
takes the top singular pair of each from LAPACK; the maximum of Re(x^T A y)
on unit spheres is the larger of the two spectral norms. Higher-order
forms are handled by sampling all but the two largest slots uniformly on
their spheres, solving the remaining bilinear problem exactly, and keeping
the best trial; polynomials go through the super-symmetric relaxation and
an exhaustive sign combination step. The best rank-one approximation is
solved per C+C component: the same randomized scheme gives the start and
the higher-order power method refines it.

A best-of-k choice needs the value of every trial but the vectors of only
one, so the trials are evaluated as one batch in C+C coordinates: the
draws of a chunk of trials are stacked, contracted into the (trials, 2,
m, n) blocks of the remaining bilinear problems, and valued by one batched
call for the top singular values, without singular vectors. Only the
winning trial is then redrawn and solved in full by solve_bilinear.

Determinism contract: trial t's draws are, bit for bit, those of
RandomSource(seed, stream=t) taken in slot order; sphere_draws produces
them for a whole chunk of trials at once. A trial's value is computed by
arithmetic of fixed shape, so it depends only on (seed, t), not on the
trial count or the chunking. The best-of-k value is therefore
nondecreasing in k for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .forms import MultilinearForm, PolyProblem, symmetrize
from .linalg import CQMatrix, CQTensor, CQVector, cc_join, cc_split, outer_product
from .sampling import sphere_draws

DEGENERATE_NORM = 1e-12
HOPM_MAX_SWEEPS = 500
HOPM_TOL = 1e-14
EIGHTH_TURN = np.exp(0.25j * np.pi)
# Bound in bytes on the largest intermediate array of one chunk of batched trials.
TRIAL_CHUNK_BYTES = 1 << 24


class BilinearSolution(NamedTuple):
    x: CQVector
    y: CQVector
    value: float
    degenerate: bool = False


def solve_bilinear(A: CQMatrix) -> BilinearSolution:
    """Exact maximization of Re(x^T A y) over unit quaternion vectors.

    In C+C coordinates Re(x^T A y) = (Re(x1^T A1 y1) + Re(x2^T A2 y2)) / 2
    with |x1|^2 + |x2|^2 = |y1|^2 + |y2|^2 = 2, so the maximum is
    max(sigma_1(A1), sigma_1(A2)), the larger spectral norm of the two
    complex m x n blocks. Each block's top singular pair comes from LAPACK
    (np.linalg.svd). The winning component carries all the weight of x and
    y; an exact tie spreads it evenly over both components, so a real A
    gets a pair in the (1, i) subalgebra.

    A square A equal to its transpose, as is every block of a
    super-symmetric relaxation, is solved through a Takagi vector t with
    Re(t^T A t) = sigma_1: the top eigenvector of [[B, -C], [-C, -B]], the
    real symmetric matrix of Re(z^T (B + iC) z). Its spectrum is symmetric
    about 0 because z -> iz negates the form, so its largest eigenvalue is
    sigma_1. Every pair (e^{i theta} t, e^{-i theta} t) is then optimal; the
    solver returns theta = pi/4, for which x + y = sqrt(2) t and
    x - y = sqrt(2) i t are both nonzero, so no sign combination in the
    rounding of maximize_poly cancels the solved pair (a pair with y = -x
    would make the degree-2 rounding x + y vanish).

    A zero matrix yields value 0 with an arbitrary unit pair, flagged
    degenerate.
    """
    m, n = A.shape
    if A.norm() == 0.0:
        return BilinearSolution(CQVector.basis(m, 0), CQVector.basis(n, 0), 0.0, True)
    blocks = np.stack(cc_split(A.data))
    if m == n and np.array_equal(A.data, A.data.transpose(1, 0, 2)):
        B, C = blocks.real, blocks.imag
        eigvals, eigvecs = np.linalg.eigh(np.block([[B, -C], [-C, -B]]))
        values = eigvals[:, -1]
        takagi = eigvecs[:, :n, -1] + 1j * eigvecs[:, n:, -1]
        xs, ys = takagi * EIGHTH_TURN, takagi * EIGHTH_TURN.conjugate()
    else:
        U, sigmas, Vh = np.linalg.svd(blocks)
        values = sigmas[:, 0]
        xs, ys = U[:, :, 0].conj(), Vh[:, 0, :].conj()
    if values[0] == values[1]:
        weights = np.ones((2, 1))
    else:
        weights = np.zeros((2, 1))
        weights[np.argmax(values)] = math.sqrt(2.0)
    x = CQVector(cc_join(*(weights * xs)))
    y = CQVector(cc_join(*(weights * ys)))
    return BilinearSolution(x, y, float(values.max()), False)


@dataclass
class SolveReport:
    """Best solution of a randomized run plus the reporting quantities.

    ``solution`` holds one unit vector per slot for form problems, or a
    single stacked vector for polynomial problems. ``theoretical_ratio`` and
    ``upper_bound`` are attached for reporting only; they are never used as
    optimality certificates.
    """

    solution: list[CQVector]
    objective: float
    trials: int
    best_trial: int
    seed: int
    theoretical_ratio: float | None = None
    upper_bound: float | None = None
    degenerate: bool = False
    relaxation: "SolveReport | None" = field(default=None, repr=False)


def _slot_order(dims: Sequence[int]) -> list[int]:
    """Slots by nondecreasing dimension; the last two are solved exactly."""
    return [int(s) for s in np.argsort(dims, kind="stable")]


def _cc_draws(
    dims: Sequence[int], start: int, stop: int, seed: int, unit_components: bool
) -> list[np.ndarray]:
    """C+C parts, each (stop - start, 2, n), of the sphere draws of trials start..stop-1.

    Trial t draws one quaternion sphere vector per entry of dims, in order,
    exactly as RandomSource(seed, stream=t) would (see sphere_draws). With
    unit_components each complex component is normalized on its own (a zero
    component is left as is).
    """
    draws = [np.stack(cc_split(r), axis=1) for r in sphere_draws(seed, start, stop, dims)]
    if unit_components:
        for draw in draws:
            norms = np.linalg.norm(draw, axis=-1, keepdims=True)
            np.divide(draw, norms, out=draw, where=norms > 0.0)
    return draws


def _contract_batch(comps: np.ndarray, xis: Sequence[np.ndarray]) -> np.ndarray:
    """Blocks (trials, 2, m, n) of comps (2, n1, ..., nk, m, n) with xis[j] in slot j.

    Each trial and component is one fixed-shape vector-matrix product per
    slot, so its result does not depend on how many trials are stacked.
    """
    blocks = comps[None]
    for xi in xis:
        flat = blocks.reshape(blocks.shape[:3] + (-1,))
        blocks = (xi[:, :, None, :] @ flat).reshape(xi.shape[:2] + blocks.shape[3:])
    return blocks


def _trial_sigmas(
    comps: np.ndarray, trials: int, seed: int, unit_components: bool = False
) -> np.ndarray:
    """Top singular value of each trial's two C+C blocks, as a (trials, 2) array.

    comps holds the two complex components of the tensor with the sampled
    slots leading. Trials run in chunks whose first contraction, the
    largest intermediate array, stays within TRIAL_CHUNK_BYTES.
    """
    sampled = comps.shape[1:-2]
    chunk = max(1, TRIAL_CHUNK_BYTES // (32 * math.prod(comps.shape[2:])))
    sigmas = np.empty((trials, 2))
    for start in range(0, trials, chunk):
        stop = min(trials, start + chunk)
        blocks = _contract_batch(comps, _cc_draws(sampled, start, stop, seed, unit_components))
        sigmas[start:stop] = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    return sigmas


def _sorted_tensor(form: MultilinearForm) -> np.ndarray:
    perm = _slot_order(form.dims)
    return np.transpose(form.tensor.data, perm + [form.order])


def form_trial_values(form: MultilinearForm, trials: int, seed: int) -> np.ndarray:
    """Value of every independent trial, as a (trials,) array.

    Slots are processed in nondecreasing dimension order: the d-2 smallest
    are sampled on their spheres and the two largest are solved exactly, so
    a trial's value is max(sigma_1(A1), sigma_1(A2)) of its contracted
    C+C blocks. For d = 2 the problem is solved exactly once and the array
    has one entry.
    """
    d = form.order
    if d < 2:
        raise ValueError("form must have order at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    comps = np.stack(cc_split(_sorted_tensor(form)))
    return _trial_sigmas(comps, trials if d > 2 else 1, seed).max(axis=1)


def maximize_form(
    form: MultilinearForm,
    trials: int,
    seed: int,
    gamma: float | None = None,
    upper_bound: float | None = None,
) -> SolveReport:
    """Best-of-k randomized maximization of Re F on the product of spheres.

    The first trial of largest value wins. Its draws are replayed and its
    bilinear problem is solved in full for the vectors; the objective is the
    winner's batch value, the same number form_trial_values reports.
    """
    values = form_trial_values(form, trials, seed)
    best = int(np.argmax(values))
    d = form.order
    perm = _slot_order(form.dims)
    sampled = [form.dims[s] for s in perm[:-2]]
    xis = [CQVector(draw[0]) for draw in sphere_draws(seed, best, best + 1, sampled)]
    sorted_form = MultilinearForm(CQTensor(_sorted_tensor(form)))
    sol = solve_bilinear(sorted_form.contract_pair(xis, (d - 2, d - 1)))
    by_order = xis + [sol.x, sol.y]
    solution = [by_order[k] for k in np.argsort(perm)]
    ratio = form_ratio_bound(form.dims, gamma) if gamma is not None else None
    return SolveReport(
        solution=solution,
        objective=float(values[best]),
        trials=len(values),
        best_trial=best,
        seed=seed,
        theoretical_ratio=ratio,
        upper_bound=upper_bound,
        degenerate=sol.degenerate,
    )


def maximize_poly(
    poly: PolyProblem, trials: int, seed: int, gamma: float | None = None
) -> SolveReport:
    """Randomized maximization of Re H on the unit sphere.

    The polynomial is relaxed to its super-symmetric multilinear form, the
    relaxation is maximized, and a single vector is recovered through an
    exhaustive search over sign combinations of the relaxation factors x^k:
    each sign vector s (for even degree only those with positive product)
    gives the candidate sum_k s_k x^k normalized to the unit sphere, and the
    candidate with the largest Re H is kept. For odd degree the sign vectors
    come in antipodal pairs, so both normalizations +-u compete. If every
    combination vanishes, the best relaxation factor is returned and the
    report is flagged degenerate.
    """
    d, n = poly.degree, poly.dim
    if d < 2:
        raise ValueError("degree must be at least 2")
    form = symmetrize(poly)
    ratio = poly_ratio_bound(d, n, gamma) if gamma is not None else None
    if form.tensor.norm() == 0.0:
        return SolveReport(
            solution=[CQVector.basis(n, 0)],
            objective=0.0,
            trials=1,
            best_trial=0,
            seed=seed,
            theoretical_ratio=ratio,
            degenerate=True,
        )
    relaxed = maximize_form(form, trials, seed)
    factors = relaxed.solution

    def re_h(vec: CQVector) -> float:
        return poly(vec).re

    candidates = []
    for signs in itertools.product((1.0, -1.0), repeat=d):
        if d % 2 == 0 and math.prod(signs) < 0:
            continue
        combo = CQVector(sum(s * f.data for s, f in zip(signs, factors)))
        if combo.norm() >= DEGENERATE_NORM:
            candidates.append(combo.unit())
    degenerate = not candidates
    out = max(candidates or factors, key=re_h)
    return SolveReport(
        solution=[out],
        objective=re_h(out),
        trials=relaxed.trials,
        best_trial=relaxed.best_trial,
        seed=seed,
        theoretical_ratio=ratio,
        degenerate=degenerate or relaxed.degenerate,
        relaxation=relaxed,
    )


@dataclass
class RankOneResult:
    """Rank-one approximation lam * outer(factors) of a tensor.

    ``lam >= 0`` and the factors are unit vectors. ``direct_residual`` is
    |T - lam * outer(factors)|, recomputed from the returned factors.
    ``residual`` is the norm formula sqrt(max(0, |T|^2 - lam^2)); it never
    falls below the direct residual and equals it exactly when
    |outer(factors)| = 1, which covers every real tensor. ``identity_gap``
    is the difference of the squared values. Off the real subalgebra unit
    factors can have an outer product of any norm up to 2^((d-1)/2), since
    the ring has zero divisors; this is also why the maximum of Re F on unit
    spheres is not the scale of the best rank-one approximation there.
    """

    lam: float
    factors: list[CQVector]
    residual: float
    direct_residual: float
    identity_gap: float
    trials: int
    best_trial: int
    seed: int

    @property
    def identity_ok(self) -> bool:
        return self.identity_gap <= 1e-8


def _contract_except(data: np.ndarray, xs: Sequence[np.ndarray], keep: int) -> np.ndarray:
    """Contract a complex tensor with xs[j] in every slot j except keep."""
    for j in reversed(range(data.ndim)):
        if j != keep:
            data = np.tensordot(data, xs[j], axes=([j], [0]))
    return data


def _hopm(data: np.ndarray, xs: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Higher-order power method for max |f(x1, ..., xd)| on complex unit spheres.

    f(x1, ..., xd) = sum data[i1, ..., id] x1[i1] ... xd[id]. Each update sets
    one slot to the conjugate direction of its partial contraction, which
    never decreases |f| (De Lathauwer, De Moor & Vandewalle, SIAM J. Matrix
    Anal. Appl. 2000). Returns the final |f|, which f itself then equals.
    """
    value = abs(complex(_contract_except(data, xs, 0) @ xs[0]))
    for _ in range(HOPM_MAX_SWEEPS):
        previous = value
        for k in range(data.ndim):
            g = _contract_except(data, xs, k)
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                return value, xs
            xs[k] = g.conj() / norm
            value = norm
        if value - previous <= HOPM_TOL * value:
            break
    return value, xs


def _randomized_starts(
    comps: Sequence[np.ndarray], trials: int, seed: int
) -> list[tuple[int, list[np.ndarray]]]:
    """Best start (trial, unit vectors) of the randomized scheme per component.

    Trial t draws one quaternion sphere vector for each of the d-2 smallest
    slots, as RandomSource(seed, t) would and exactly as form_trial_values does;
    each component uses its own normalized C+C part of the draw, and the two
    remaining slots are solved exactly by the top singular pair. All trials
    are valued in one batch; only each component's first best trial is
    redrawn and given singular vectors. For d = 2 the single exact solve is
    trial 0.
    """
    d = comps[0].ndim
    dims = comps[0].shape
    sampled = _slot_order(dims)[: d - 2]
    free = sorted(set(range(d)) - set(sampled))
    moved = np.stack([np.moveaxis(c, sampled, list(range(d - 2))) for c in comps])
    sampled_dims = [dims[s] for s in sampled]
    sigmas = _trial_sigmas(moved, trials if d > 2 else 1, seed, unit_components=True)
    starts = []
    for c, t in enumerate(np.argmax(sigmas, axis=0)):
        xis = _cc_draws(sampled_dims, int(t), int(t) + 1, seed, unit_components=True)
        U, _, Vh = np.linalg.svd(_contract_batch(moved, xis)[0, c])
        xs: list[np.ndarray] = [np.empty(0)] * d
        for slot, xi in zip(sampled, xis):
            xs[slot] = xi[0, c]
        xs[free[0]], xs[free[1]] = U[:, 0].conj(), Vh[0].conj()
        starts.append((int(t), xs))
    return starts


def best_rank_one(tensor: CQTensor, trials: int, seed: int) -> RankOneResult:
    """Best rank-one approximation of a nonzero tensor of order >= 2.

    A quaternion rank-one tensor is a pair of independent complex rank-one
    tensors in C+C coordinates, and |T - X|^2 = (|T1 - X1|^2 + |T2 - X2|^2)/2,
    so each component T_c is approximated on its own by s_c outer(u_c): the
    paper's randomized scheme on T_c gives the start, refined by the
    higher-order power method. The two are assembled as lam * outer(a)
    with unit quaternion factors whose component c is rho_c u_c, where
    rho_1^2 + rho_2^2 = 2 and lam rho_c^d = s_c. ``best_trial`` is the
    winning trial of the component with the larger s_c.
    """
    d = tensor.order
    if d < 2:
        raise ValueError("rank-one approximation needs a tensor of order at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if tensor.norm() == 0.0:
        raise ValueError("zero tensor has no rank-one approximation direction")
    comps = cc_split(tensor.data)
    starts = _randomized_starts(comps, trials, seed)
    scales, directions = [], []
    for comp, (_, xs) in zip(comps, starts):
        scale, xs = _hopm(comp, xs)
        scales.append(scale)
        directions.append([x.conj() for x in xs])
    s = np.array(scales)
    lam = float(np.mean(s ** (2.0 / d)) ** (d / 2.0))
    rho = (s / lam) ** (1.0 / d)
    factors = [CQVector(cc_join(rho[0] * u1, rho[1] * u2)) for u1, u2 in zip(*directions)]
    norm_sq = tensor.norm() ** 2
    residual = math.sqrt(max(0.0, norm_sq - lam * lam))
    approx = outer_product(factors)
    direct = float(np.sqrt(((lam * approx.data - tensor.data) ** 2).sum()))
    identity_gap = abs((norm_sq - lam * lam) - direct * direct)
    return RankOneResult(
        lam=lam,
        factors=factors,
        residual=residual,
        direct_residual=direct,
        identity_gap=identity_gap,
        trials=trials if d > 2 else 1,
        best_trial=starts[int(np.argmax(s))][0],
        seed=seed,
    )


def form_ratio_bound(dims: Sequence[int], gamma: float) -> float:
    """Reported approximation-ratio formula for form problems.

    Product of sqrt(gamma * ln n / n) over the d-2 smallest slot dimensions;
    equals 1 for d = 2. Requires every dimension >= 2 and
    0 < gamma < n_min / ln(n_min).
    """
    dims = sorted(int(n) for n in dims)
    if len(dims) < 2:
        raise ValueError("ratio formula needs at least two slots")
    if dims[0] < 2:
        raise ValueError("ratio formula needs all dimensions >= 2")
    n_min = dims[0]
    if not 0 < gamma < n_min / math.log(n_min):
        raise ValueError(f"gamma must lie in (0, {n_min / math.log(n_min):g})")
    ratio = 1.0
    for n in dims[:-2]:
        ratio *= math.sqrt(gamma * math.log(n) / n)
    return ratio


def poly_ratio_bound(degree: int, dim: int, gamma: float) -> float:
    """Reported approximation-ratio formula for polynomial problems.

    d^-d * d! * (gamma * ln n / n)^((d-2)/2); requires n >= 2 and
    0 < gamma < n / ln(n).
    """
    if dim < 2:
        raise ValueError("ratio formula needs dimension >= 2")
    if not 0 < gamma < dim / math.log(dim):
        raise ValueError(f"gamma must lie in (0, {dim / math.log(dim):g})")
    d = int(degree)
    return d ** (-d) * math.factorial(d) * (gamma * math.log(dim) / dim) ** ((d - 2) / 2)


def estimate_ball_min(poly: PolyProblem, trials: int, seed: int) -> float:
    """Upper estimate of the minimum of Re H over the unit ball.

    Runs the maximization pipeline on -H and negates the result; for even
    degree the origin is also a candidate, so the estimate is capped at 0.
    """
    report = maximize_poly(-poly, trials, seed)
    estimate = -report.objective
    if poly.degree % 2 == 0:
        estimate = min(0.0, estimate)
    return estimate
