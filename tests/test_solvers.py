import itertools
import math

import numpy as np
import pytest

from cqpoly import (
    CQMatrix,
    CQTensor,
    CQVector,
    CQuat,
    MultilinearForm,
    ONE,
    PolyProblem,
    all_ones_instance,
    best_rank_one,
    cc_join,
    cc_split,
    estimate_ball_min,
    form_ratio_bound,
    form_trial_values,
    maximize_form,
    maximize_poly,
    outer_product,
    poly_ratio_bound,
    re_bilinear,
    real_block,
    solve_bilinear,
    symmetrize,
)
from cqpoly import solvers
from cqpoly.experiment import ExperimentConfig, run_experiment, run_seed_for
from cqpoly.sampling import RandomSource


@pytest.fixture
def rng():
    return np.random.default_rng(90210)


def rand_matrix(rng, m, n):
    return CQMatrix(rng.uniform(-1, 1, size=(m, n, 4)))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 4)])
def test_bilinear_all_ones(m, n):
    A = CQMatrix.from_real(np.ones((m, n)))
    sol = solve_bilinear(A)
    assert sol.value == pytest.approx(math.sqrt(m * n), abs=1e-8)
    assert re_bilinear(sol.x, A, sol.y) == pytest.approx(sol.value, abs=1e-8)
    assert sol.x.norm() == pytest.approx(1.0, abs=1e-10)
    assert sol.y.norm() == pytest.approx(1.0, abs=1e-10)


def test_bilinear_scalar_units():
    assert solve_bilinear(CQMatrix.from_quats([[ONE]])).value == pytest.approx(1.0, abs=1e-10)
    assert solve_bilinear(CQMatrix.from_quats([[CQuat(0, 1)]])).value == pytest.approx(1.0, abs=1e-10)


def test_bilinear_matches_svd_oracle(rng):
    for _ in range(30):
        m, n = (int(v) for v in rng.integers(1, 5, size=2))
        A = rand_matrix(rng, m, n)
        sol = solve_bilinear(A)
        oracle = np.linalg.svd(real_block(A).data, compute_uv=False)[0]
        assert sol.value == pytest.approx(oracle, abs=1e-8)
        assert re_bilinear(sol.x, A, sol.y) == pytest.approx(sol.value, abs=1e-8)


def test_bilinear_dominates_random_feasible_pairs(rng):
    A = rand_matrix(rng, 3, 2)
    sol = solve_bilinear(A)
    src = RandomSource(11)
    for _ in range(200):
        u, v = src.sphere_vector(3), src.sphere_vector(2)
        assert sol.value >= re_bilinear(u, A, v) - 1e-9


def test_bilinear_survives_start_orthogonal_to_top_space():
    # the all-ones start is an exact eigenvector of the smaller eigenvalue here
    A = CQMatrix.from_real(np.array([[2.5, -1.5], [-1.5, 2.5]]))
    sol = solve_bilinear(A)
    assert sol.value == pytest.approx(4.0, abs=1e-8)


def test_bilinear_near_tie_across_components():
    # the C+C components have top singular values 1 and 1 + 5e-7
    g = np.random.default_rng(7)
    blocks = []
    for top in (1.0, 1.0 + 5e-7):
        q1, _ = np.linalg.qr(g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))
        blocks.append(q1[:, :3] @ np.diag([top, 0.6, 0.2]) @ q2[:, :3].conj().T)
    A = CQMatrix(cc_join(*blocks))
    sol = solve_bilinear(A)
    oracle = np.linalg.svd(real_block(A).data, compute_uv=False)[0]
    assert oracle == pytest.approx(1.0 + 5e-7, abs=1e-12)
    assert sol.value == pytest.approx(oracle, abs=1e-12)
    assert sol.x.norm() == pytest.approx(1.0, abs=1e-12)
    assert sol.y.norm() == pytest.approx(1.0, abs=1e-12)
    assert re_bilinear(sol.x, A, sol.y) == pytest.approx(sol.value, abs=1e-12)


def test_bilinear_symmetric_block_pair_does_not_cancel():
    # x + y and x - y are sqrt(2) times a unit vector, so neither can vanish
    g = np.random.default_rng(8)
    for _ in range(20):
        n = int(g.integers(1, 5))
        data = g.uniform(-1, 1, size=(n, n, 4))
        A = CQMatrix(data + data.transpose(1, 0, 2))
        sol = solve_bilinear(A)
        assert (sol.x + sol.y).norm() == pytest.approx(math.sqrt(2), abs=1e-12)
        assert (sol.x - sol.y).norm() == pytest.approx(math.sqrt(2), abs=1e-12)
        oracle = np.linalg.svd(real_block(A).data, compute_uv=False)[0]
        assert sol.value == pytest.approx(oracle, abs=1e-8)
        assert re_bilinear(sol.x, A, sol.y) == pytest.approx(sol.value, abs=1e-8)


def test_bilinear_zero_matrix_degenerate():
    sol = solve_bilinear(CQMatrix(np.zeros((2, 3, 4))))
    assert sol.degenerate
    assert sol.value == 0.0
    assert sol.x.norm() == pytest.approx(1.0)
    assert sol.y.norm() == pytest.approx(1.0)


def test_maximize_form_d2_is_exact_and_trial_free():
    A = np.ones((2, 2))
    form = MultilinearForm(CQTensor.from_real(A))
    for trials in (1, 7, 50):
        report = maximize_form(form, trials, seed=3)
        assert report.objective == pytest.approx(2.0, abs=1e-10)
        assert report.trials == 1
        exact = solve_bilinear(CQMatrix.from_real(A))
        assert report.objective == exact.value


def test_maximize_form_d2_dominates_feasible_pairs(rng):
    form = MultilinearForm(CQTensor(rng.uniform(-1, 1, size=(3, 3, 4))))
    report = maximize_form(form, 1, seed=0)
    src = RandomSource(23)
    for _ in range(1000):
        u, v = src.sphere_vector(3), src.sphere_vector(3)
        assert report.objective >= form(u, v).re - 1e-9


def test_maximize_form_benchmark_window():
    form, upper = all_ones_instance(2, 2, 2)
    report = maximize_form(form, 200, seed=5, upper_bound=upper)
    # a known real feasible point already scores 2 sqrt(2)
    assert 2 * math.sqrt(2) <= report.objective <= upper + 1e-9
    assert upper == pytest.approx(4 * math.sqrt(2))


def test_maximize_form_consistency_and_feasibility(rng):
    form = MultilinearForm(CQTensor(rng.uniform(-1, 1, size=(2, 3, 2, 4))))
    report = maximize_form(form, 50, seed=9)
    for vec in report.solution:
        assert abs(vec.norm() - 1.0) <= 1e-10
    assert form(*report.solution).re == pytest.approx(report.objective, abs=1e-9)
    assert 0 <= report.best_trial < 50


def test_maximize_form_monotone_in_trials(rng):
    form = MultilinearForm(CQTensor(rng.uniform(-1, 1, size=(2, 2, 3, 4))))
    values = [maximize_form(form, k, seed=123).objective for k in (1, 2, 5, 10, 25, 60)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_maximize_form_validation(rng):
    form = MultilinearForm(CQTensor(rng.uniform(-1, 1, size=(2, 2, 2, 4))))
    with pytest.raises(ValueError):
        maximize_form(form, 0, seed=1)
    order_one = MultilinearForm(CQTensor(rng.uniform(-1, 1, size=(3, 4))))
    with pytest.raises(ValueError):
        maximize_form(order_one, 5, seed=1)


def test_maximize_form_slot_permutation_restores_order(rng):
    # slots with unequal dims get sorted internally; outputs must match slots
    form = MultilinearForm(CQTensor(rng.uniform(-1, 1, size=(4, 2, 3, 4))))
    report = maximize_form(form, 20, seed=31)
    assert [len(v) for v in report.solution] == [4, 2, 3]
    assert form(*report.solution).re == pytest.approx(report.objective, abs=1e-9)


def per_trial_values(form, trials, seed):
    # the trial loop one trial at a time: quaternion contract_pair, then solve_bilinear
    d = form.order
    perm = [int(s) for s in np.argsort(form.dims, kind="stable")]
    sorted_form = MultilinearForm(CQTensor(np.transpose(form.tensor.data, perm + [d])))
    values = []
    for t in range(trials):
        src = RandomSource(seed, stream=t)
        xis = [src.sphere_vector(form.dims[s]) for s in perm[: d - 2]]
        values.append(solve_bilinear(sorted_form.contract_pair(xis, (d - 2, d - 1))).value)
    return np.array(values)


def test_batched_values_match_per_trial_solves():
    g = np.random.default_rng(11)
    forms = [
        MultilinearForm(CQTensor(g.uniform(-1, 1, size=shape + (4,))))
        for shape in [(4, 2, 3), (3, 5, 2, 4), (2, 4, 3, 2, 3)]
    ]
    poly = PolyProblem(4, 3)
    for _ in range(8):
        poly.add_term(g.integers(1, 4, size=4), CQuat(*g.uniform(-1, 1, 4)))
    forms.append(symmetrize(poly))
    for form in forms:
        batched = form_trial_values(form, 40, seed=17)
        reference = per_trial_values(form, 40, seed=17)
        assert batched.shape == (40,)
        np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=0)


def test_trial_values_do_not_depend_on_count_or_chunking(monkeypatch):
    form = MultilinearForm(CQTensor(np.random.default_rng(12).uniform(-1, 1, size=(3, 2, 4, 4))))
    first = form_trial_values(form, 10, seed=5)
    # a chunk of 3 trials, so 25 trials cross several chunk boundaries
    monkeypatch.setattr(solvers, "TRIAL_CHUNK_BYTES", 3 * 32 * 3 * 4)
    chunked = form_trial_values(form, 25, seed=5)
    assert np.array_equal(chunked[:10], first)
    monkeypatch.undo()
    assert np.array_equal(form_trial_values(form, 25, seed=5), chunked)


def test_maximize_form_agrees_with_experiment_checkpoint():
    config = ExperimentConfig(n_list=(4,), trial_schedule=(1, 7, 60), runs=1, seed=21)
    rows = run_experiment(config)
    form, _ = all_ones_instance(4, 4, 4)
    seed = run_seed_for(config.seed, 4, 1)
    for row in rows:
        report = maximize_form(form, row.trials, seed)
        assert report.objective == row.objective
        assert form(*report.solution).re == pytest.approx(report.objective, abs=1e-9)


def test_maximize_form_zero_tensor_is_degenerate():
    form = MultilinearForm(CQTensor.zeros((2, 3, 2)))
    assert np.array_equal(form_trial_values(form, 5, seed=1), np.zeros(5))
    report = maximize_form(form, 5, seed=1)
    assert report.objective == 0.0
    assert report.degenerate
    assert report.best_trial == 0
    assert all(v.norm() == pytest.approx(1.0) for v in report.solution)


def per_trial_starts(tensor, trials, seed):
    # (sigma, trial) of each C+C component's first best trial, one trial at a time
    comps = cc_split(tensor.data)
    d = tensor.order
    sampled = [int(s) for s in np.argsort(tensor.dims, kind="stable")[: d - 2]]
    best = [(-1.0, 0), (-1.0, 0)]
    for t in range(trials):
        src = RandomSource(seed, stream=t)
        draws = [cc_split(src.sphere_vector(tensor.dims[s]).data) for s in sampled]
        for c in (0, 1):
            M = np.moveaxis(comps[c], sampled, list(range(d - 2)))
            for draw in draws:
                M = np.tensordot(draw[c] / np.linalg.norm(draw[c]), M, axes=([0], [0]))
            sigma = np.linalg.svd(M, compute_uv=False)[0]
            if sigma > best[c][0]:
                best[c] = (sigma, t)
    return best


def test_rank_one_start_trials_match_per_trial_reference():
    g = np.random.default_rng(13)
    for shape in [(3, 4, 2), (2, 3, 2, 3)]:
        tensor = CQTensor(g.uniform(-1, 1, size=shape + (4,)))
        reference = per_trial_starts(tensor, 60, seed=3)
        starts = solvers._randomized_starts(cc_split(tensor.data), 60, seed=3)
        assert [t for t, _ in starts] == [t for _, t in reference]
        result = best_rank_one(tensor, 60, seed=3)
        assert result.best_trial in [t for _, t in reference]


def cube_objective_oracle():
    # brute-force search for sup Re(x^3) on the unit sphere in one variable
    h = np.random.default_rng(4242).normal(size=(200_000, 4))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    w, x, y, z = h[:, 0], h[:, 1], h[:, 2], h[:, 3]
    best = -np.inf
    # evaluate Re(q^3) via two multiplications on the batch
    sq = np.stack(
        [w * w - x * x + y * y - z * z, 2 * (w * x + y * z), 2 * (w * y - x * z), 2 * (w * z + x * y)],
        axis=1,
    )
    re_cube = sq[:, 0] * w - sq[:, 1] * x + sq[:, 2] * y - sq[:, 3] * z
    best = re_cube.max()
    return best


def test_maximize_poly_cubic_monomial():
    oracle = cube_objective_oracle()
    assert oracle == pytest.approx(math.sqrt(2), abs=2e-3)
    poly = PolyProblem(3, 1)
    poly.add_term((1, 1, 1), ONE)
    report = maximize_poly(poly, 400, seed=8)
    assert 0.0 <= report.objective <= math.sqrt(2) + 1e-9
    assert report.objective >= 1.0  # sign selection recovers at least the real optimum scale
    assert report.solution[0].norm() == pytest.approx(1.0, abs=1e-10)


def test_maximize_poly_sum_of_squares():
    poly = PolyProblem(2, 2)
    poly.add_term((1, 1), ONE)
    poly.add_term((2, 2), ONE)
    report = maximize_poly(poly, 50, seed=2)
    # sup of Re sum x_i^2 on the sphere is 1 (attained at real vectors)
    assert report.objective <= 1.0 + 1e-9
    assert report.solution[0].norm() == pytest.approx(1.0, abs=1e-10)
    assert report.objective == pytest.approx(poly(report.solution[0]).re, abs=1e-9)


def test_maximize_poly_zero_is_degenerate():
    poly = PolyProblem(3, 2)
    report = maximize_poly(poly, 10, seed=0)
    assert report.degenerate
    assert report.objective == 0.0
    assert report.solution[0].norm() == pytest.approx(1.0)


def test_odd_degree_sign_symmetry(rng):
    for _ in range(30):
        d = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 4))
        poly = PolyProblem(d, n)
        for _ in range(4):
            poly.add_term(rng.integers(1, n + 1, size=d), CQuat(*rng.uniform(-1, 1, 4)))
        x = CQVector(rng.uniform(-1, 1, size=(n, 4)))
        assert poly(-x).re == pytest.approx(-poly(x).re, abs=1e-10)


def _re_h(poly, vec):
    return poly(vec).re


def test_odd_sign_search_matches_independent_enumeration(rng):
    poly = PolyProblem(3, 2)
    for _ in range(5):
        poly.add_term(rng.integers(1, 3, size=3), CQuat(*rng.uniform(-1, 1, 4)))
    report = maximize_poly(poly, 30, seed=77)
    factors = report.relaxation.solution
    best = -np.inf
    for signs in itertools.product((1.0, -1.0), repeat=3):
        combo = CQVector(sum(s * f.data for s, f in zip(signs, factors)) / 3)
        best = max(best, math.prod(signs) * _re_h(poly, combo))
        if combo.norm() >= 1e-12:
            unit = combo.unit()
            candidate = max(_re_h(poly, unit), _re_h(poly, -unit))
            assert report.objective >= candidate - 1e-9
    assert best > -np.inf


def test_even_sign_search_matches_independent_enumeration(rng):
    poly = PolyProblem(4, 2)
    for _ in range(5):
        poly.add_term(rng.integers(1, 3, size=4), CQuat(*rng.uniform(-1, 1, 4)))
    report = maximize_poly(poly, 30, seed=78)
    factors = report.relaxation.solution
    for signs in itertools.product((1.0, -1.0), repeat=4):
        if math.prod(signs) < 0:
            continue
        combo = CQVector(sum(s * f.data for s, f in zip(signs, factors)))
        if combo.norm() >= 1e-12:
            assert report.objective >= _re_h(poly, combo.unit()) - 1e-9


def planted_rank_one(n, lam=2.0, seed=1):
    g = np.random.default_rng(seed)
    vecs = []
    for _ in range(3):
        v = g.normal(size=n)
        vecs.append(CQVector.from_real(v / np.linalg.norm(v)))
    return CQTensor(lam * outer_product(vecs).data), vecs


def test_rank_one_planted_instances():
    tensor, _ = planted_rank_one(2, seed=3)
    result = best_rank_one(tensor, 2000, seed=10)
    assert result.lam >= 0.0
    for f in result.factors:
        assert abs(f.norm() - 1.0) <= 1e-10
    assert result.residual <= 0.1 * tensor.norm()
    assert result.direct_residual <= 0.1 * tensor.norm()
    # the direct residual is recomputed from the factors, exactly
    rebuilt = outer_product(result.factors)
    direct = float(np.sqrt(((result.lam * rebuilt.data - tensor.data) ** 2).sum()))
    assert result.direct_residual == pytest.approx(direct, abs=1e-12)
    assert result.identity_gap == pytest.approx(
        abs((tensor.norm() ** 2 - result.lam**2) - direct**2), abs=1e-12
    )


def test_rank_one_reaches_planted_scale_at_real_points():
    # at the true planted factors the residual identity is exact
    tensor, vecs = planted_rank_one(3, seed=5)
    lam = MultilinearForm(tensor)(*vecs).re
    assert lam == pytest.approx(2.0, abs=1e-10)
    rebuilt = outer_product(vecs)
    direct_sq = float(((lam * rebuilt.data - tensor.data) ** 2).sum())
    assert direct_sq == pytest.approx(tensor.norm() ** 2 - lam**2, abs=1e-10)


def test_rank_one_all_ones_formula():
    tensor = CQTensor.from_real(np.ones((2, 2, 2)))
    result = best_rank_one(tensor, 200, seed=4)
    assert result.residual**2 + result.lam**2 == pytest.approx(8.0, abs=1e-8)


def test_rank_one_zero_divisor_tensor_is_exact():
    # (1 + j) times a real rank-one tensor is rank one, but its unit factors
    # have an outer product of norm 2, so the norm formula overstates the residual
    tensor, _ = planted_rank_one(3, seed=8)
    data = np.array(tensor.data)
    data[..., 2] = data[..., 0]
    tensor = CQTensor(data)
    result = best_rank_one(tensor, 100, seed=1)
    assert result.direct_residual <= 1e-10
    assert outer_product(result.factors).norm() == pytest.approx(2.0, abs=1e-10)
    assert result.residual >= result.direct_residual


def test_rank_one_formula_bounds_direct_residual():
    g = np.random.default_rng(9)
    for shape in [(3, 3), (2, 3, 4), (2, 2, 2, 2)]:
        tensor = CQTensor(g.uniform(-1, 1, size=shape + (4,)))
        result = best_rank_one(tensor, 50, seed=2)
        assert result.lam >= 0.0
        for f in result.factors:
            assert f.norm() == pytest.approx(1.0, abs=1e-12)
        assert result.direct_residual < tensor.norm()
        assert result.residual >= result.direct_residual - 1e-12


def test_rank_one_rejects_zero():
    with pytest.raises(ValueError):
        best_rank_one(CQTensor(np.zeros((2, 2, 4))), 10, seed=0)


def test_form_ratio_bound_values():
    assert form_ratio_bound((5, 7), 1.0) == 1.0
    got = form_ratio_bound((2, 2, 2), 1.0)
    assert got == pytest.approx(math.sqrt(math.log(2) / 2))
    with pytest.raises(ValueError):
        form_ratio_bound((2, 2, 2), 5.0)
    with pytest.raises(ValueError):
        form_ratio_bound((1, 2, 2), 0.5)


def test_poly_ratio_bound_values():
    # degree 2 collapses to d^-d d! regardless of gamma in range
    assert poly_ratio_bound(2, 5, 1.0) == pytest.approx(0.5)
    n = 4
    expected = 3 ** (-3) * 6 * (0.5 * math.log(n) / n) ** 0.5
    assert poly_ratio_bound(3, n, 0.5) == pytest.approx(expected)
    with pytest.raises(ValueError):
        poly_ratio_bound(3, 1, 0.5)
    with pytest.raises(ValueError):
        poly_ratio_bound(3, 4, 99.0)


def test_estimate_ball_min_even_degree():
    poly = PolyProblem(2, 2)
    poly.add_term((1, 1), ONE)
    poly.add_term((2, 2), ONE)
    est = estimate_ball_min(poly, 60, seed=6)
    # Re sum x_i^2 reaches -1 on the sphere (pure-i vectors), so the upper
    # estimate of the ball minimum should approach -1 and never exceed 0
    assert -1.0 - 1e-9 <= est <= 0.0
    assert est <= -0.8
