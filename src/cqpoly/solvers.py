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

A best-of-k choice needs the vectors of only one trial, and its running
maximum needs the value of only the trials that set a new record, so the
trials are evaluated as one batch in C+C coordinates: the draws of a chunk
of trials are stacked and contracted into the (trials, 2, m, n) blocks of
the remaining bilinear problems. Cheap bounds lower <= sigma_1 <= upper
of every block (from its Gram matrix) then screen out the blocks that
cannot raise or tie the best value so far (the screening rule of
_trial_sigmas), and those get no SVD. The rest are valued by one batched
LAPACK call for the top singular values, without singular vectors; that
is the call an SVD of every block would make on the same block, so the
running maximum and its first maximizing trial are bit for bit those of
solving every trial.

Replay: only a winning trial t is then redrawn, as the one-stream range
sphere_draws(seed, t, t + 1, ...), and contracted by the same fixed-shape
arithmetic, so its blocks are bit for bit the ones the batch valued; one
routine, _top_pairs, gives them their top singular pairs, for forms,
polynomials and rank-one alike.

Slots are processed in nondecreasing dimension order: the d-2 smallest
are sampled on their spheres and the two largest are solved exactly, so a
trial's value is max(sigma_1(A1), sigma_1(A2)) of its contracted C+C
blocks. For d = 2 the problem is solved exactly once, as trial 0.

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
from typing import Sequence

import numpy as np

from .forms import MultilinearForm, PolyProblem, symmetrize
from .linalg import CQTensor, CQVector, cc_join, cc_split, outer_product, scale_exponent
from .sampling import sphere_draws

DEGENERATE_NORM = 1e-12
HOPM_MAX_SWEEPS = 500
HOPM_TOL = 1e-14
EIGHTH_TURN = np.exp(0.25j * np.pi)
# Bound in bytes on the largest intermediate array of one chunk of batched trials.
TRIAL_CHUNK_BYTES = 1 << 24


def _top_pairs(blocks: np.ndarray, takagi: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_1 and a unit pair (x_c, y_c) with Re(x_c^T A_c y_c) = sigma_1 of each block A_c of (2, m, n).

    In C+C coordinates Re(x^T A y) = (Re(x1^T A1 y1) + Re(x2^T A2 y2)) / 2
    with |x1|^2 + |x2|^2 = |y1|^2 + |y2|^2 = 2, so the maximum of Re(x^T A y)
    over unit quaternion vectors is max(sigma_1(A1), sigma_1(A2)), the
    larger spectral norm of the two complex m x n blocks. The pair is
    LAPACK's conjugate top singular pair, or with takagi, for square blocks
    the caller knows to be symmetric, a Takagi pair.

    A square A equal to its transpose, as is every block of a
    super-symmetric relaxation, is solved through a Takagi vector t with
    Re(t^T A t) = sigma_1: the top eigenvector of [[B, -C], [-C, -B]], the
    real symmetric matrix of Re(z^T (B + iC) z). Its spectrum is symmetric
    about 0 because z -> iz negates the form, so its largest eigenvalue is
    sigma_1. The eigenvector is negated when its entry of largest magnitude
    (the first on ties) is negative, so its sign is not LAPACK's choice and
    a rounding-level change of the block does not negate t. Every pair
    (e^{i theta} t, e^{-i theta} t) is then optimal; the pair returned has
    theta = pi/4, for which x + y = sqrt(2) t and x - y = sqrt(2) i t are
    both nonzero, so no sign combination in the rounding of maximize_poly
    cancels the solved pair (a pair with y = -x would make the degree-2
    rounding x + y vanish). np.linalg.eigh reads only the lower triangle,
    so a block that is symmetric only up to rounding needs no symmetrizing.
    """
    if takagi:
        n = blocks.shape[-1]
        B, C = blocks.real, blocks.imag
        eigvals, eigvecs = np.linalg.eigh(np.block([[B, -C], [-C, -B]]))
        top = eigvecs[:, :, -1]
        peak = np.take_along_axis(top, np.abs(top).argmax(axis=1)[:, None], axis=1)
        top = np.where(peak < 0.0, -top, top)
        t = top[:, :n] + 1j * top[:, n:]
        return eigvals[:, -1], t * EIGHTH_TURN, t * EIGHTH_TURN.conjugate()
    U, sigmas, Vh = np.linalg.svd(blocks)
    return sigmas[:, 0], U[:, :, 0].conj(), Vh[:, 0, :].conj()


@dataclass
class SolveReport:
    """What a randomized solve found: its best solution and how to replay it.

    ``solution`` holds one unit vector per slot for form problems, or a
    single stacked vector for polynomial problems; ``seed`` and
    ``best_trial`` replay the winning trial. ``trials`` is the count asked
    for, or 1 at d = 2, zero inputs included. The paper's ratio formula is
    the CLI's to print (form_ratio_bound, poly_ratio_bound).
    """

    solution: list[CQVector]
    objective: float
    trials: int
    best_trial: int
    seed: int
    degenerate: bool = False
    relaxation: "SolveReport | None" = field(default=None, repr=False)


def _slot_order(dims: Sequence[int]) -> list[int]:
    """Slots by nondecreasing dimension; the last two are solved exactly."""
    return [int(s) for s in np.argsort(dims, kind="stable")]


def _cc_draws(draws: Sequence[np.ndarray], unit_components: bool) -> list[np.ndarray]:
    """C+C parts (trials, 2, n) of quaternion sphere draws (trials, n, 4), one per slot.

    With unit_components each complex component is normalized on its own
    (a zero component is left as is).
    """
    draws = [np.stack(cc_split(r), axis=1) for r in draws]
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


def _sigma_bounds(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lower <= sigma_1 <= upper of each complex block (..., m, n).

    Both come from the smaller Gram matrix G = A A^H, whose largest
    eigenvalue is sigma_1^2: upper = |G|_F^(1/2) = (sum sigma^4)^(1/4), and
    lower = (|G g| / |g|)^(1/2) for the column g of G of largest norm, one
    power step, exact on rank-one blocks. A block whose |G|_F lies outside
    [1e-60, 1e60] gets the trivial bounds (0, inf): inside that range no
    step of either bound can overflow or lose accuracy to underflow, and
    outside it the overflow is expected, so it raises no warning.
    """
    if blocks.shape[-2] > blocks.shape[-1]:
        blocks = blocks.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = blocks @ blocks.conj().swapaxes(-1, -2)
        col_sq = (gram.real**2 + gram.imag**2).sum(axis=-2)
        fro_sq = col_sq.sum(axis=-1)
        j = col_sq.argmax(axis=-1)[..., None, None]
        step = gram @ np.take_along_axis(gram, j, axis=-1)
        step_sq = (step.real**2 + step.imag**2).sum(axis=(-2, -1))
    valid = (fro_sq >= 1e-120) & (fro_sq <= 1e120)
    lower = np.divide(step_sq, col_sq.max(axis=-1), out=np.zeros(valid.shape), where=valid)
    upper = np.where(valid, fro_sq, np.inf)
    return np.sqrt(np.sqrt(lower)), np.sqrt(np.sqrt(upper))


def _trial_sigmas(
    comps: np.ndarray,
    trials: int,
    seed: int,
    per_component: bool = False,
) -> np.ndarray:
    """Top singular value of each trial's two C+C blocks, as a (trials, 2) array.

    comps holds the two complex components of the tensor with the sampled
    slots leading. Trials run in chunks whose first contraction, the
    largest intermediate array, stays within TRIAL_CHUNK_BYTES.

    Screening rule: a block gets an SVD only if it can set a new record;
    the others read -inf. A record is a new maximum of the trial value
    max(sigma_1(A1), sigma_1(A2)), or with per_component of each
    component's sigma_1, whose draws are then normalized per component
    (see _cc_draws). Block (t, c) is skipped only if upper(t, c)
    (1 + 1e-10) is below floor (1 - 1e-10), where the floor is the largest
    lower bound from _sigma_bounds over the trials before t (over both
    components unless per_component), so a skipped block can neither
    raise nor tie the best value before it. The floor starts at -inf, so
    trial 0 is always solved, and it is always the lower bound of a solved
    block, since a skipped block's lower bound is below it. It depends only
    on the trials before t, so the skipped blocks do not depend on the
    trial count or the chunking either. A run of one trial, as is every
    run with no sampled slot (d = 2), computes no bounds.

    Bounds are compared only with each other, so they may be taken of all
    blocks times one power of two: 2^-e when the largest |entry| of comps
    is m 2^e with |e| > 64 (2^1023 at most, to stay finite), which brings
    the Gram norms of a tensor far from 1 inside the range of _sigma_bounds.
    """
    e = math.frexp(float(np.abs(comps).max(initial=0.0)))[1]
    scale = 2.0 ** -max(e, -1023) if abs(e) > 64 else 1.0
    sampled = comps.shape[1:-2]
    trials = trials if sampled else 1
    chunk = max(1, TRIAL_CHUNK_BYTES // (32 * math.prod(comps.shape[2:])))
    sigmas = np.full((trials, 2), -np.inf)
    floor = np.full((1, 2 if per_component else 1), -np.inf)
    for start in range(0, trials, chunk):
        stop = min(trials, start + chunk)
        blocks = _contract_batch(comps, _cc_draws(sphere_draws(seed, start, stop, sampled), per_component))
        if trials == 1:
            sigmas[start:stop] = np.linalg.svd(blocks, compute_uv=False)[..., 0]
            continue
        lower, upper = _sigma_bounds(blocks * scale if scale != 1.0 else blocks)
        if not per_component:
            lower = lower.max(axis=1, keepdims=True)
        floors = np.maximum.accumulate(np.concatenate([floor, lower]), axis=0)
        need = upper * (1.0 + 1e-10) >= floors[:-1] * (1.0 - 1e-10)
        if need.any():
            sigmas[start:stop][need] = np.linalg.svd(blocks[need], compute_uv=False)[:, 0]
        floor = floors[-1:]
    return sigmas


def _sorted_tensor(form: MultilinearForm, trials: int) -> np.ndarray:
    """The form's tensor with its slots in _slot_order, once the form and the trial count are checked."""
    if form.order < 2:
        raise ValueError("form must have order at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return np.transpose(form.tensor.data, _slot_order(form.dims) + [form.order])


def form_running_best(form: MultilinearForm, trials: int, seed: int) -> np.ndarray:
    """Best-of-(t + 1) value for every t, as a (trials,) array.

    Trial t samples the d-2 smallest slots and solves the two largest
    exactly (see the module docstring); for d = 2 the array has one entry.
    Trials are screened as in _trial_sigmas, and the array is bit for bit
    the running maximum of solving every trial.
    """
    comps = np.stack(cc_split(_sorted_tensor(form, trials)))
    return np.maximum.accumulate(_trial_sigmas(comps, trials, seed).max(axis=1))


def maximize_form(form: MultilinearForm, trials: int, seed: int) -> SolveReport:
    """Best-of-k randomized maximization of Re F on the product of spheres.

    The first trial of largest value wins and is replayed (see the module
    docstring); the objective is its batch value from _trial_sigmas. The
    Takagi branch of _top_pairs is taken when the sorted tensor equals
    itself with its two free (largest) slots swapped, as every symmetrize
    output does. For d = 2 this is the exact solve of max Re(x^T A y), as
    trial 0.

    The winning component carries all the weight of the two free vectors;
    an exact tie spreads it evenly over both components, so a real tensor
    gets a pair in the (1, i) subalgebra. Zero blocks yield the basis pair
    (e_1, e_1), and the report is flagged degenerate.
    """
    data = _sorted_tensor(form, trials)
    comps = np.stack(cc_split(data))
    values = _trial_sigmas(comps, trials, seed).max(axis=1)
    best = int(np.argmax(values))
    draws = sphere_draws(seed, best, best + 1, comps.shape[1:-2])
    blocks = _contract_batch(comps, _cc_draws(draws, unit_components=False))[0]
    m, n = blocks.shape[1:]
    degenerate = not blocks.any()
    if degenerate:
        free = [CQVector.basis(m, 0), CQVector.basis(n, 0)]
    else:
        sigmas, xs, ys = _top_pairs(blocks, np.array_equal(data, data.swapaxes(-3, -2)))
        if sigmas[0] == sigmas[1]:
            weights = np.ones((2, 1))
        else:
            weights = np.zeros((2, 1))
            weights[np.argmax(sigmas)] = math.sqrt(2.0)
        free = [CQVector(cc_join(*(weights * xs))), CQVector(cc_join(*(weights * ys)))]
    by_order = [CQVector(draw[0]) for draw in draws] + free
    solution = [by_order[k] for k in np.argsort(_slot_order(form.dims))]
    return SolveReport(
        solution=solution,
        objective=float(values[best]),
        trials=len(values),
        best_trial=best,
        seed=seed,
        degenerate=degenerate,
    )


def maximize_poly(poly: PolyProblem, trials: int, seed: int) -> SolveReport:
    """Randomized maximization of Re H on the unit sphere.

    The polynomial is relaxed to its super-symmetric multilinear form, the
    relaxation is maximized, and a single vector is recovered through an
    exhaustive search over sign combinations of the relaxation factors x^k:
    each sign vector s (for even degree only those with positive product)
    gives the candidate sum_k s_k x^k normalized to the unit sphere, and the
    candidate with the largest Re H is kept. For odd degree the sign vectors
    come in antipodal pairs, so both normalizations +-u compete. All
    candidates are valued in one pass. Some combination never vanishes: for
    d >= 3 the cross terms s_k s_l cancel over the sign set, so the mean of
    |sum_k s_k x^k|^2 over it is d; for d = 2, x + y = sqrt(2) t for the
    Takagi pair of _top_pairs, and 2 e_1 for a zero polynomial's (e_1, e_1).
    """
    d = poly.degree
    if d < 2:
        raise ValueError("degree must be at least 2")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    form = symmetrize(poly)
    relaxed = maximize_form(form, trials, seed)
    factors = np.stack([f.data for f in relaxed.solution])
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    signs = signs[(signs.prod(axis=1) > 0) | (d % 2 == 1)]
    combos = np.add.reduce(signs[:, :, None, None] * factors, axis=1, initial=0.0)
    norms = np.sqrt((combos**2).sum(axis=(1, 2)))
    keep = norms >= DEGENERATE_NORM
    candidates = combos[keep] / norms[keep, None, None]
    values = poly._values(candidates)[:, 0]
    best = int(np.argmax(values))
    return SolveReport(
        solution=[CQVector(candidates[best])],
        objective=float(values[best]),
        trials=relaxed.trials,
        best_trial=relaxed.best_trial,
        seed=seed,
        degenerate=relaxed.degenerate,
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
    is the difference of the squared values, inf where it exceeds the float
    range. Off the real subalgebra unit
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


def _contract(data: np.ndarray, j: int, x: np.ndarray) -> np.ndarray:
    """Contract slot j of a complex tensor with the vector x.

    This is the one BLAS product np.tensordot(data, x, axes=([j], [0]))
    reduces to, on operands of the same shapes: slot j moved last, the rest
    flattened into rows, times x as a column. So the result is bit for bit
    tensordot's, without its Python argument handling.
    """
    perm = [*range(j), *range(j + 1, data.ndim), j]
    rest = data.shape[:j] + data.shape[j + 1 :]
    return np.dot(data.transpose(perm).reshape(-1, x.shape[0]), x.reshape(-1, 1)).reshape(rest)


def _hopm(data: np.ndarray, xs: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Higher-order power method for max |f(x1, ..., xd)| on complex unit spheres.

    f(x1, ..., xd) = sum data[i1, ..., id] x1[i1] ... xd[id]. Each update sets
    one slot to the conjugate direction of its partial contraction, which
    never decreases |f| (De Lathauwer, De Moor & Vandewalle, SIAM J. Matrix
    Anal. Appl. 2000). Returns the final |f|, which f itself then equals.

    The update of slot k contracts slots d-1, ..., k+1 and then k-1, ..., 0,
    last slot first, one _contract each, and takes the norm by numpy's own
    formula for a complex vector, sqrt(re.re + im.im). So every step is the
    arithmetic of np.tensordot and np.linalg.norm on the same operands, and
    the result is theirs bit for bit. No update of a sweep has changed
    slots k+1, ..., d-1 yet when slot k is updated, so each sweep contracts
    those suffixes once, at its start, and every update shares them:
    (d - 1) + d (d - 1) / 2 products per sweep instead of d (d - 1). The
    first sweep's suffix for slot 0 also gives the starting value.
    """
    d = data.ndim
    value = None
    for _ in range(HOPM_MAX_SWEEPS):
        suffixes = [data] * d  # suffixes[k]: slots d-1, ..., k+1 contracted
        for j in reversed(range(1, d)):
            suffixes[j - 1] = _contract(suffixes[j], j, xs[j])
        if value is None:
            value = abs(complex(suffixes[0] @ xs[0]))
        previous = value
        for k in range(d):
            g = suffixes[k]
            for j in reversed(range(k)):
                g = _contract(g, j, xs[j])
            norm = math.sqrt(g.real.dot(g.real) + g.imag.dot(g.imag))
            if norm == 0.0:
                return value, xs
            xs[k] = g.conj() / norm
            value = norm
        if value - previous <= HOPM_TOL * value:
            break
    return value, xs


def _randomized_starts(
    comps: Sequence[np.ndarray], trials: int, seed: int
) -> tuple[int, list[tuple[int, list[np.ndarray]]]]:
    """Trials run, and the best start (trial, unit vectors) of each component.

    Trial t draws one quaternion sphere vector for each of the d-2 smallest
    slots, as RandomSource(seed, t) would and exactly as maximize_form does;
    each component uses its own normalized C+C part of the draw, and the two
    remaining slots are solved exactly by the top singular pair. All trials
    are valued in one batch, each component screened for records of its own
    (_trial_sigmas with per_component). Each component's first best trial
    is replayed (see the module docstring), and its block of that component
    goes to _top_pairs with the other component's: one SVD per component.
    For d = 2 the single exact solve is trial 0.
    """
    d = comps[0].ndim
    dims = comps[0].shape
    sampled = _slot_order(dims)[: d - 2]
    free = sorted(set(range(d)) - set(sampled))
    moved = np.stack([np.moveaxis(c, sampled, list(range(d - 2))) for c in comps])
    sigmas = _trial_sigmas(moved, trials, seed, per_component=True)
    winners = np.argmax(sigmas, axis=0)
    draws = [_cc_draws(sphere_draws(seed, t, t + 1, moved.shape[1:-2]), unit_components=True) for t in winners]
    blocks = np.stack([_contract_batch(moved, xis)[0, c] for c, xis in enumerate(draws)])
    _, us, vs = _top_pairs(blocks, takagi=False)
    starts = []
    for c, (t, xis) in enumerate(zip(winners, draws)):
        xs: list[np.ndarray] = [np.empty(0)] * d
        for slot, xi in zip(sampled, xis):
            xs[slot] = xi[0, c]
        xs[free[0]], xs[free[1]] = us[c], vs[c]
        starts.append((int(t), xs))
    return len(sigmas), starts


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

    It solves T / 2^e for e = linalg.scale_exponent(T), exact for every
    entry left in the normal range (e = 0 scales by 1, exactly), so no
    squared norm overflows or underflows; lam and both residuals are scaled
    back by 2^e, and identity_gap by 2^(2e).
    """
    d = tensor.order
    if d < 2:
        raise ValueError("rank-one approximation needs a tensor of order at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not tensor.data.any():
        raise ValueError("zero tensor has no rank-one approximation direction")
    e = scale_exponent(tensor.data)
    tensor = CQTensor(np.ldexp(tensor.data, -e))
    comps = cc_split(tensor.data)
    ran, starts = _randomized_starts(comps, trials, seed)
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
    with np.errstate(over="ignore"):
        lam, residual, direct = (float(np.ldexp(v, e)) for v in (lam, residual, direct))
        identity_gap = float(np.ldexp(identity_gap, 2 * e))
    return RankOneResult(
        lam=lam,
        factors=factors,
        residual=residual,
        direct_residual=direct,
        identity_gap=identity_gap,
        trials=ran,
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

    Runs the maximization pipeline on -H and negates the result, capped at
    the origin's 0. At odd degree the rounding values u and -u, and H(-u) =
    -H(u) exactly, so the cap changes only a zero objective's -0.0 to 0.0.
    """
    return min(0.0, -maximize_poly(-poly, trials, seed).objective)
