import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqpoly import (
    CQTensor,
    CQVector,
    CQuat,
    MultilinearForm,
    PolyProblem,
    all_ones_instance,
    best_rank_one,
    cc_join,
    cc_split,
    estimate_ball_min,
    form_ratio_bound,
    maximize_form,
    maximize_poly,
    outer_product,
    poly_ratio_bound,
    symmetrize,
)
from cqpoly import sampling, solvers
from cqpoly.experiment import ExperimentConfig, run_experiment, run_seed_for
from cqpoly.forms import _contract_leading
from cqpoly.sampling import RandomSource
from .oracles import ONE, expected_ratio, form_trial_values, real_block, reference_draws, unscreened_sigmas


@pytest.fixture
def rng():
    return np.random.default_rng(90210)


def rand_matrix(rng, m, n):
    return rng.uniform(-1, 1, size=(m, n, 4))


def solve_order_two(A, trials=1, seed=0):
    """The order-2 form of an (m, n, 4) array A, and maximize_form's report on it."""
    form = MultilinearForm(CQTensor(A))
    return form, maximize_form(form, trials, seed)


def sigma_oracle(A):
    """The top singular value of the real embedding of A: max Re(x^T A y) on unit spheres."""
    return np.linalg.svd(real_block(A), compute_uv=False)[0]


def report_bytes(report):
    """Everything a report says about its solve, the vectors as bytes; the seed is left out."""
    vectors = [v.data.tobytes() for v in report.solution]
    return report.objective, report.trials, report.best_trial, report.degenerate, vectors


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 4)])
def test_bilinear_all_ones(m, n):
    form, report = solve_order_two(CQTensor.from_real(np.ones((m, n))).data)
    assert report.objective == pytest.approx(math.sqrt(m * n), abs=1e-8)
    assert form(*report.solution).re == pytest.approx(report.objective, abs=1e-8)
    for vec in report.solution:
        assert vec.norm() == pytest.approx(1.0, abs=1e-10)


def test_bilinear_scalar_units():
    assert solve_order_two(np.array([[ONE.components()]]))[1].objective == pytest.approx(1.0, abs=1e-10)
    assert solve_order_two(np.array([[CQuat(0, 1).components()]]))[1].objective == pytest.approx(1.0, abs=1e-10)


def oracle_test_matrix(kind, m, n, data_seed):
    g = np.random.default_rng(data_seed)
    if kind == "real":
        return CQTensor.from_real(g.uniform(-1, 1, size=(m, n))).data
    if kind == "symmetric":
        data = g.uniform(-1, 1, size=(m, m, 4))
        return data + data.transpose(1, 0, 2)
    data = g.uniform(-1, 1, size=(m, n, 4))
    if kind == "zero-component":
        return cc_join(cc_split(data)[0], np.zeros((m, n)))
    return data


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["random", "real", "symmetric", "zero-component"]),
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    data_seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-100, 1e100]),
)
def test_bilinear_matches_svd_oracle(kind, m, n, data_seed, scale):
    A = scale * oracle_test_matrix(kind, m, n, data_seed)
    form, report = solve_order_two(A)
    assert report.objective == pytest.approx(sigma_oracle(A), rel=1e-10, abs=1e-300)
    assert form(*report.solution).re == pytest.approx(report.objective, rel=1e-10, abs=1e-300)
    for vec in report.solution:
        assert vec.norm() == pytest.approx(1.0, abs=1e-12)
    # d = 2 is one exact solve: trial 0, whatever the trial count and the seed
    assert (report.trials, report.best_trial) == (1, 0)
    for trials, seed in [(7, 0), (1, 9), (7, 9)]:
        assert report_bytes(solve_order_two(A, trials, seed)[1]) == report_bytes(report)


def test_bilinear_dominates_random_feasible_pairs(rng):
    A = rand_matrix(rng, 3, 2)
    form, report = solve_order_two(A)
    for u, v in zip(*reference_draws(11, 0, 200, [3, 2])):
        assert report.objective >= form(CQVector(u), CQVector(v)).re - 1e-9


def test_bilinear_survives_start_orthogonal_to_top_space():
    # the all-ones start is an exact eigenvector of the smaller eigenvalue here
    A = CQTensor.from_real(np.array([[2.5, -1.5], [-1.5, 2.5]])).data
    assert solve_order_two(A)[1].objective == pytest.approx(4.0, abs=1e-8)


def test_bilinear_near_tie_across_components():
    # the C+C components have top singular values 1 and 1 + 5e-7
    g = np.random.default_rng(7)
    blocks = []
    for top in (1.0, 1.0 + 5e-7):
        q1, _ = np.linalg.qr(g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))
        blocks.append(q1[:, :3] @ np.diag([top, 0.6, 0.2]) @ q2[:, :3].conj().T)
    A = cc_join(*blocks)
    form, report = solve_order_two(A)
    oracle = sigma_oracle(A)
    assert oracle == pytest.approx(1.0 + 5e-7, abs=1e-12)
    assert report.objective == pytest.approx(oracle, abs=1e-12)
    for vec in report.solution:
        assert vec.norm() == pytest.approx(1.0, abs=1e-12)
    assert form(*report.solution).re == pytest.approx(report.objective, abs=1e-12)


def test_bilinear_symmetric_block_pair_does_not_cancel():
    # x + y and x - y are sqrt(2) times a unit vector, so neither can vanish
    g = np.random.default_rng(8)
    for _ in range(20):
        n = int(g.integers(1, 5))
        data = g.uniform(-1, 1, size=(n, n, 4))
        A = data + data.transpose(1, 0, 2)
        form, report = solve_order_two(A)
        x, y = (v.data for v in report.solution)
        assert np.linalg.norm(x + y) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert np.linalg.norm(x - y) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert report.objective == pytest.approx(sigma_oracle(A), abs=1e-8)
        assert form(*report.solution).re == pytest.approx(report.objective, abs=1e-8)


def test_takagi_vector_sign_survives_rounding_noise():
    # a symmetric change of 1e-15 max|A| leaves the top eigenvalue simple, so the sign rule fixes t
    g = np.random.default_rng(26)
    for _ in range(300):
        n = int(g.integers(2, 6))
        blocks = g.normal(size=(2, n, n)) + 1j * g.normal(size=(2, n, n))
        blocks = blocks + blocks.swapaxes(1, 2)
        noise = g.normal(size=(2, n, n)) + 1j * g.normal(size=(2, n, n))
        noise = noise + noise.swapaxes(1, 2)
        noise *= 1e-15 * np.abs(blocks).max() / np.abs(noise).max()
        _, xs, ys = solvers._top_pairs(blocks, takagi=True)
        _, xs_noisy, ys_noisy = solvers._top_pairs(blocks + noise, takagi=True)
        np.testing.assert_allclose(xs_noisy, xs, rtol=0, atol=1e-6)
        np.testing.assert_allclose(ys_noisy, ys, rtol=0, atol=1e-6)


def test_bilinear_zero_matrix_degenerate():
    _, report = solve_order_two(np.zeros((2, 3, 4)))
    assert report.degenerate
    assert report.objective == 0.0
    for vec in report.solution:
        assert vec.norm() == pytest.approx(1.0)


def test_maximize_form_d2_is_exact_and_trial_free():
    A = np.ones((2, 2))
    form = MultilinearForm(CQTensor.from_real(A))
    first = maximize_form(form, 1, seed=3)
    for trials in (1, 7, 50):
        report = maximize_form(form, trials, seed=3)
        assert report.objective == pytest.approx(2.0, abs=1e-10)
        assert report.trials == 1
        assert report_bytes(report) == report_bytes(first)
    assert first.objective == pytest.approx(sigma_oracle(form.tensor.data), rel=1e-12)


def test_maximize_form_d2_dominates_feasible_pairs(rng):
    form = MultilinearForm(CQTensor(rng.uniform(-1, 1, size=(3, 3, 4))))
    report = maximize_form(form, 1, seed=0)
    for u, v in zip(*reference_draws(23, 0, 1000, [3, 3])):
        assert report.objective >= form(CQVector(u), CQVector(v)).re - 1e-9


def test_maximize_form_benchmark_window():
    form, upper = all_ones_instance(2, 2, 2)
    report = maximize_form(form, 200, seed=5)
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
    for dims in [(4, 2, 3), (5, 3, 4, 2)]:
        form = MultilinearForm(CQTensor(rng.uniform(-1, 1, size=dims + (4,))))
        sampled = [int(s) for s in np.argsort(dims, kind="stable")[:-2]]
        for seed in (31, 0, 7, 123456):
            report = maximize_form(form, 20, seed=seed)
            assert [len(v) for v in report.solution] == list(dims)
            assert form(*report.solution).re == pytest.approx(report.objective, abs=1e-9)
            # the winner's draws, replayed in sorted slot order, sit in their own slots
            t = report.best_trial
            for slot, draw in zip(sampled, reference_draws(seed, t, t + 1, [dims[s] for s in sampled])):
                assert report.solution[slot].data.tobytes() == draw[0].tobytes()


def per_trial_values(form, trials, seed):
    # the trial loop one trial at a time: quaternion contraction, then sigma_1 of the real embedding
    d = form.order
    perm = [int(s) for s in np.argsort(form.dims, kind="stable")]
    sorted_data = np.transpose(form.tensor.data, perm + [d])
    values = []
    for t in range(trials):
        xis = [CQVector(x[0]) for x in reference_draws(seed, t, t + 1, [form.dims[s] for s in perm[: d - 2]])]
        values.append(sigma_oracle(_contract_leading(sorted_data, xis)))
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
    first = solvers.form_running_best(form, 10, seed=5)
    # a chunk of 3 trials, so 25 trials cross several chunk boundaries
    monkeypatch.setattr(solvers, "TRIAL_CHUNK_BYTES", 3 * 32 * 3 * 4)
    chunked = solvers.form_running_best(form, 25, seed=5)
    assert np.array_equal(chunked[:10], first)
    monkeypatch.undo()
    assert np.array_equal(solvers.form_running_best(form, 25, seed=5), chunked)


def record_test_tensor(kind, dims, data_seed):
    g = np.random.default_rng(data_seed)
    shape = tuple(dims)
    if kind == "all-ones":
        return CQTensor.from_real(np.ones(shape))
    if kind == "real":
        return CQTensor.from_real(g.uniform(-1, 1, size=shape))
    if kind == "zero":
        return CQTensor(np.zeros(shape + (4,)))
    if kind == "two-largest-symmetric":
        f0, f1 = np.argsort(shape, kind="stable")[-2:]
        shape = tuple(shape[f1] if k == f0 else n for k, n in enumerate(shape))
        data = g.uniform(-1, 1, size=shape + (4,))
        return CQTensor(data + data.swapaxes(f0, f1))
    data = g.uniform(-1, 1, size=shape + (4,))
    if kind == "zero-slice":
        data[(slice(None),) * int(g.integers(len(shape))) + (0,)] = 0.0
    return CQTensor(data)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["random", "all-ones", "real", "zero-slice", "zero"]),
    dims=st.lists(st.integers(1, 5), min_size=3, max_size=5),
    data_seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 60),
    chunk=st.sampled_from([None, 1, 3]),
    # bounds are computed only for Gram norms in [1e-60, 1e60], and of blocks rescaled by
    # 2^-e for a tensor's largest entry m 2^e with |e| > 64; these scales take every branch
    scale=st.sampled_from([1.0, 1e-28, 1e28, 1e-40, 1e-200, 1e150, 2.0**-700, 2.0**700]),
)
def test_running_best_is_bit_equal_to_the_exact_values(kind, dims, data_seed, trials, chunk, scale):
    form = MultilinearForm(CQTensor(scale * record_test_tensor(kind, dims, data_seed).data))
    exact = form_trial_values(form, trials, seed=data_seed)
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            # _trial_sigmas takes TRIAL_CHUNK_BYTES // (32 * entries per trial beyond the first slot)
            patch.setattr(solvers, "TRIAL_CHUNK_BYTES", chunk * 32 * math.prod(sorted(dims)[1:]))
        best = solvers.form_running_best(form, trials, seed=data_seed)
        report = maximize_form(form, trials, seed=data_seed)
    assert best.tobytes() == np.maximum.accumulate(exact).tobytes()
    assert report.best_trial == int(np.argmax(exact))
    assert report.objective == exact.max()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["random", "all-ones", "real", "zero-slice", "zero"]),
    dims=st.lists(st.integers(1, 5), min_size=3, max_size=5),
    data_seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 60),
    chunk=st.sampled_from([None, 1, 3]),
    scale=st.sampled_from([1.0, 1e-28, 1e28, 1e-40, 1e-200, 1e150, 2.0**-700, 2.0**700]),
)
def test_component_records_are_bit_equal_to_the_exact_values(kind, dims, data_seed, trials, chunk, scale):
    # the per-component mode of _randomized_starts: each component keeps its own records
    data = scale * record_test_tensor(kind, sorted(dims), data_seed).data
    comps = np.stack(cc_split(data))
    exact = unscreened_sigmas(comps, trials, data_seed, per_component=True)
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(solvers, "TRIAL_CHUNK_BYTES", chunk * 32 * math.prod(comps.shape[2:]))
        sigmas = solvers._trial_sigmas(comps, trials, data_seed, per_component=True)
    running = np.maximum.accumulate(sigmas, axis=0)
    assert running.tobytes() == np.maximum.accumulate(exact, axis=0).tobytes()
    assert np.argmax(sigmas, axis=0).tolist() == np.argmax(exact, axis=0).tolist()


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["random", "real", "all-ones", "two-largest-symmetric"]),
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=5),
    data_seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 40),
)
def test_winner_solves_match_the_batch_values(kind, dims, data_seed, trials):
    tensor = record_test_tensor(kind, dims, data_seed)
    form = MultilinearForm(tensor)
    report = maximize_form(form, trials, seed=data_seed)
    assert form(*report.solution).re == pytest.approx(report.objective, rel=1e-12)
    # each rank-one start attains its component's batch sigma_1 of the winning trial
    d = tensor.order
    comps = cc_split(tensor.data)
    sampled = [int(s) for s in np.argsort(tensor.dims, kind="stable")[: d - 2]]
    moved = np.stack([np.moveaxis(c, sampled, list(range(d - 2))) for c in comps])
    sigmas = solvers._trial_sigmas(moved, trials, data_seed, per_component=True)
    _, starts = solvers._randomized_starts(comps, trials, data_seed)
    for c, (t, xs) in enumerate(starts):
        value = comps[c]
        for x in reversed(xs):
            value = value @ x
        assert abs(value) == pytest.approx(sigmas[t, c], rel=1e-12)


def test_symmetric_relaxation_gets_the_takagi_pair_from_an_asymmetric_batch_block():
    # the batch contraction leaves this winner's block symmetric only up to rounding; the
    # Takagi branch follows the relaxation's symmetry, not the bits of the block
    g = np.random.default_rng(0)
    poly = PolyProblem(4, 3)
    for idx in itertools.combinations_with_replacement(range(1, 4), 4):
        poly.add_term(idx, CQuat(*g.normal(size=4)))
    report = maximize_poly(poly, 30, seed=1)
    t = report.best_trial
    comps = np.stack(cc_split(symmetrize(poly).tensor.data))
    draws = solvers._cc_draws(sampling.sphere_draws(1, t, t + 1, [3, 3]), unit_components=False)
    block = solvers._contract_batch(comps, draws)[0]
    assert not np.array_equal(block, block.swapaxes(1, 2))
    x, y = report.relaxation.solution[-2:]
    assert np.linalg.norm(x.data + y.data) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert np.linalg.norm(x.data - y.data) == pytest.approx(math.sqrt(2), abs=1e-12)


@pytest.fixture
def blocks_per_call(monkeypatch):
    """The number of blocks each np.linalg.svd call of the test gets."""
    counts = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        counts.append(math.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return counts


def test_few_blocks_reach_the_svd_and_one_trial_computes_no_bounds(monkeypatch, blocks_per_call):
    run_experiment(ExperimentConfig(n_list=(7,), trial_schedule=(1000,), runs=1, seed=3))
    assert sum(blocks_per_call) <= 0.05 * 2 * 1000

    def no_bounds(blocks):
        raise AssertionError("a one-trial run computed bounds")

    monkeypatch.setattr(solvers, "_sigma_bounds", no_bounds)
    blocks_per_call.clear()
    run_experiment(ExperimentConfig(n_list=(7,), trial_schedule=(1,), runs=1, seed=3))
    assert blocks_per_call == [2]


def test_far_scaled_tensors_send_no_more_blocks_to_the_svd(blocks_per_call):
    tensor = np.random.default_rng(3).normal(size=(4, 5, 6, 4))
    counts = {}
    for scale in (1.0, 1e-40, 2.0**-700, 1e200, 2.0**700):
        blocks_per_call.clear()
        maximize_form(MultilinearForm(CQTensor(scale * tensor)), 2000, seed=3)
        form_blocks = sum(blocks_per_call)
        blocks_per_call.clear()
        best_rank_one(CQTensor(scale * tensor), 2000, seed=3)
        counts[scale] = (form_blocks, sum(blocks_per_call))
    form_at_one, rank_one_at_one = counts[1.0]
    assert form_at_one <= 0.05 * 2 * 2000
    for form_blocks, rank_one_blocks in counts.values():
        assert form_blocks <= form_at_one and rank_one_blocks <= rank_one_at_one, counts


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: maximize_poly(PolyProblem(1, 2), 5, seed=1),
            "degree must be at least 2",
            id="degree",
        ),
        pytest.param(
            lambda: maximize_poly(PolyProblem(3, 2), 0, seed=1),
            "trials must be at least 1",
            id="poly-trials",
        ),
        pytest.param(
            lambda: estimate_ball_min(PolyProblem(3, 2), 5, seed=-1),
            "seed must be nonnegative",
            id="poly-seed",
        ),
        pytest.param(
            lambda: best_rank_one(CQTensor(np.ones((3, 4))), 5, seed=1),
            "order at least 2",
            id="order",
        ),
        pytest.param(
            lambda: best_rank_one(CQTensor(np.ones((2, 2, 4))), 0, seed=1),
            "trials must be at least 1",
            id="trials",
        ),
        pytest.param(
            lambda: form_ratio_bound((5,), 1.0),
            "ratio formula needs at least two slots",
            id="slots",
        ),
        pytest.param(
            lambda: all_ones_instance(0, 1, 1),
            "dimensions must be positive",
            id="all-ones",
        ),
        pytest.param(
            lambda: ExperimentConfig(n_list=(1, 3)),
            "n_list must contain dimensions >= 2",
            id="n",
        ),
        pytest.param(
            lambda: ExperimentConfig(trial_schedule=(0, 5)),
            "must contain positive counts",
            id="checkpoint",
        ),
        pytest.param(lambda: ExperimentConfig(runs=0), "runs must be at least 1", id="runs"),
    ],
)
def test_solver_and_experiment_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_maximize_form_agrees_with_experiment_checkpoint():
    config = ExperimentConfig(n_list=(4,), trial_schedule=(1, 7, 60), runs=1, seed=21)
    rows = run_experiment(config)
    form, _ = all_ones_instance(4, 4, 4)
    seed = run_seed_for(config.seed, 4, 1)
    for row in rows:
        report = maximize_form(form, row.trials, seed)
        assert report.objective == row.objective
        assert form(*report.solution).re == pytest.approx(report.objective, abs=1e-9)


def test_expected_ratio_matches_the_paper_table_closed_form():
    assert round(expected_ratio(2, 10_000), 4) == 0.6954
    assert round(expected_ratio(7, 10_000), 4) == 0.5247
    for n in (2, 5, 7):
        means = [expected_ratio(n, k) for k in (1, 10, 100, 1000, 10_000)]
        assert all(a < b for a, b in zip(means, means[1:]))
        assert means[-1] < 1 / math.sqrt(2)


def test_experiment_averages_track_the_expected_ratio():
    # the seed is fixed, so the z-scores are too (they lie in -1.1..1.6)
    config = ExperimentConfig(n_list=(2, 5, 7), trial_schedule=(1, 10, 100, 1000), runs=20, seed=42)
    ratios = {}
    for row in run_experiment(config):
        ratios.setdefault((row.n, row.trials), []).append(row.ratio)
    for (n, k), values in ratios.items():
        assert len(values) == 20
        band = 4 * np.std(values, ddof=1) / math.sqrt(20)
        assert abs(np.mean(values) - expected_ratio(n, k)) <= band, (n, k)


def test_maximize_form_zero_tensor_is_degenerate():
    form = MultilinearForm(CQTensor(np.zeros((2, 3, 2, 4))))
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
        draws = [cc_split(x[0]) for x in reference_draws(seed, t, t + 1, [tensor.dims[s] for s in sampled])]
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
    zero_slice = g.uniform(-1, 1, size=(3, 4, 3, 4))
    zero_slice[:, 1] = 0.0
    tensors = [CQTensor(g.uniform(-1, 1, size=shape + (4,))) for shape in [(3, 4, 2), (2, 3, 2, 3), (5, 4, 2)]]
    tensors += [
        CQTensor.from_real(np.ones((3, 4, 5))),
        CQTensor.from_real(g.uniform(-1, 1, size=(4, 3, 3))),
        CQTensor(zero_slice),
        CQTensor(cc_join(g.normal(size=(3, 3, 4)) + 1j * g.normal(size=(3, 3, 4)), np.zeros((3, 3, 4)))),
    ]
    for tensor in tensors:
        reference = per_trial_starts(tensor, 60, seed=3)
        _, starts = solvers._randomized_starts(cc_split(tensor.data), 60, seed=3)
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
    # a zero polynomial solves like the zero tensor of its relaxation's shape: every trial runs
    for degree, trials in itertools.product(range(2, 7), (1, 30)):
        report = maximize_poly(PolyProblem(degree, 3), trials, seed=0)
        zero = maximize_form(MultilinearForm(CQTensor(np.zeros((3,) * degree + (4,)))), trials, seed=0)
        assert report.trials == zero.trials == (trials if degree > 2 else 1)
        assert report.degenerate
        assert report.relaxation.degenerate and report.relaxation.objective == 0.0
        assert report.objective == 0.0 and math.copysign(1.0, report.objective) == 1.0
        assert report.solution[0].norm() == pytest.approx(1.0)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_estimate_ball_min_of_zero_is_positive_zero(degree):
    estimate = estimate_ball_min(PolyProblem(degree, 3), 30, seed=1)
    assert estimate == 0.0 and math.copysign(1.0, estimate) == 1.0


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    degree=st.sampled_from([3, 5]),
    dim=st.integers(1, 3),
    terms=st.integers(0, 4),
    data_seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 20),
)
def test_maximize_poly_odd_degree_objective_is_nonnegative(degree, dim, terms, data_seed, trials):
    # the rounding values u and -u, and H(-u) = -H(u) exactly, so estimate_ball_min's one cap at 0
    # changes no negated objective of odd degree but a zero's -0.0
    g = np.random.default_rng(data_seed)
    poly = PolyProblem(degree, dim)
    for _ in range(terms):
        poly.add_term(g.integers(1, dim + 1, size=degree), CQuat(*g.normal(size=4)))
    assert maximize_poly(poly, trials, seed=data_seed).objective >= 0.0


def test_odd_degree_sign_symmetry(rng):
    for _ in range(30):
        d = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 4))
        poly = PolyProblem(d, n)
        for _ in range(4):
            poly.add_term(rng.integers(1, n + 1, size=d), CQuat(*rng.uniform(-1, 1, 4)))
        x = CQVector(rng.uniform(-1, 1, size=(n, 4)))
        assert poly(CQVector(-x.data)).re == pytest.approx(-poly(x).re, abs=1e-10)


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
            unit = CQVector(combo.data / np.linalg.norm(combo.data))
            candidate = max(_re_h(poly, unit), _re_h(poly, CQVector(-unit.data)))
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
            assert report.objective >= _re_h(poly, CQVector(combo.data / np.linalg.norm(combo.data))) - 1e-9


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


def tensordot_contract_except(data, xs, keep):
    for j in reversed(range(data.ndim)):
        if j != keep:
            data = np.tensordot(data, xs[j], axes=([j], [0]))
    return data


def reference_hopm(data, xs):
    # the power method with a tensordot per contraction and a norm per update
    value = abs(complex(tensordot_contract_except(data, xs, 0) @ xs[0]))
    for _ in range(solvers.HOPM_MAX_SWEEPS):
        previous = value
        for k in range(data.ndim):
            g = tensordot_contract_except(data, xs, k)
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                return value, xs
            xs[k] = g.conj() / norm
            value = norm
        if value - previous <= solvers.HOPM_TOL * value:
            break
    return value, xs


def rank_one_bits(result):
    scalars = (result.lam, result.residual, result.direct_residual, result.identity_gap)
    return np.array(scalars).tobytes(), result.best_trial, [f.data.tobytes() for f in result.factors]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["random", "real", "zero-component"]),
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=5),
    data_seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 40),
    scale=st.sampled_from([1.0, 1e100, 1e-100]),
)
def test_hopm_is_bit_equal_to_the_tensordot_reference(kind, dims, data_seed, trials, scale):
    g = np.random.default_rng(data_seed)
    shape = tuple(dims)
    if kind == "real":
        tensor = CQTensor.from_real(g.normal(size=shape))
    elif kind == "zero-component":
        tensor = CQTensor(cc_join(g.normal(size=shape) + 1j * g.normal(size=shape), np.zeros(shape)))
    else:
        tensor = CQTensor(g.normal(size=shape + (4,)))
    tensor = CQTensor(scale * tensor.data)
    result = best_rank_one(tensor, trials, seed=data_seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_hopm", reference_hopm)
        reference = best_rank_one(tensor, trials, seed=data_seed)
    assert rank_one_bits(result) == rank_one_bits(reference)


def test_rank_one_solve_makes_no_tensordot_call(monkeypatch):
    def no_tensordot(*args, **kwargs):
        raise AssertionError("np.tensordot was called")

    monkeypatch.setattr(np, "tensordot", no_tensordot)
    tensor = CQTensor(np.random.default_rng(21).normal(size=(4, 5, 6, 4)))
    assert best_rank_one(tensor, 30, seed=1).lam > 0.0


def test_no_winner_replay_reaches_the_state_formula(monkeypatch):
    sampling._formula_matches_numpy()  # the cached probe runs the formula on one stream; warm it first
    states = sampling._pcg64_states

    def ranges_only(seed, start, stop):
        if stop - start == 1:
            raise AssertionError("a one-stream range reached the state formula")
        return states(seed, start, stop)

    monkeypatch.setattr(sampling, "_pcg64_states", ranges_only)
    g = np.random.default_rng(24)
    for shape in [(4, 5, 6), (5, 3, 4, 2)]:
        tensor = CQTensor(g.normal(size=shape + (4,)))
        assert best_rank_one(tensor, 30, seed=1).lam > 0.0
        maximize_form(MultilinearForm(tensor), 30, seed=1)
        # each component's start in a sampled slot is its normalized C+C part of the replayed draw
        sampled = [int(s) for s in np.argsort(shape, kind="stable")[:-2]]
        for c, (t, xs) in enumerate(solvers._randomized_starts(cc_split(tensor.data), 30, seed=1)[1]):
            for slot, draw in zip(sampled, reference_draws(1, t, t + 1, [shape[s] for s in sampled])):
                z = cc_split(draw[0])[c]
                assert xs[slot].tobytes() == (z / np.linalg.norm(z, axis=-1)).tobytes()


def test_order_two_solves_seed_no_stream(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("an order-2 solve seeded a stream")

    monkeypatch.setattr(sampling, "_pcg64_states", unused)
    monkeypatch.setattr(RandomSource, "__init__", unused)
    g = np.random.default_rng(25)
    for shape in [(3, 6), (5, 3)]:
        tensor = CQTensor(g.normal(size=shape + (4,)))
        form = MultilinearForm(tensor)
        exact = sigma_oracle(tensor.data)
        for trials in (1, 50):
            assert solvers.form_running_best(form, trials, seed=1).shape == (1,)
            report = maximize_form(form, trials, seed=1)
            assert (report.trials, report.best_trial) == (1, 0)
            assert report.objective == pytest.approx(exact, rel=1e-12)
            result = best_rank_one(tensor, trials, seed=1)
            assert (result.trials, result.best_trial) == (1, 0)


def test_rank_one_scales_with_the_tensor_at_extreme_scales():
    # squares of entries near 2^+-700 overflow or underflow, so the solve must rescale
    tensor = CQTensor(np.random.default_rng(22).normal(size=(4, 5, 6, 4)))
    base = best_rank_one(tensor, 30, seed=1)
    for scale in (2.0**700, 2.0**-700, 1e200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = best_rank_one(CQTensor(scale * tensor.data), 30, seed=1)
        assert result.lam == pytest.approx(scale * base.lam, rel=1e-12, abs=0.0)
        assert result.direct_residual == pytest.approx(scale * base.direct_residual, rel=1e-12, abs=0.0)
        assert result.best_trial == base.best_trial
        for f in result.factors:
            assert f.norm() == pytest.approx(1.0, abs=1e-12)


def test_solvers_see_tiny_and_huge_inputs_as_nonzero():
    g = np.random.default_rng(23)
    tensor = g.normal(size=(3, 4, 5, 4))
    for scale in (2.0**700, 2.0**-700):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            form = MultilinearForm(CQTensor(scale * tensor))
            report = maximize_form(form, 20, seed=3)
            assert not report.degenerate
            assert form(*report.solution).re == pytest.approx(report.objective, rel=1e-9, abs=0.0)
            _, sol = solve_order_two(scale * tensor[:, :, 0], seed=3)
            _, unscaled = solve_order_two(tensor[:, :, 0], seed=3)
            assert not sol.degenerate
            assert sol.objective == pytest.approx(scale * unscaled.objective, rel=1e-12)
            poly = PolyProblem(3, 3)
            for idx in itertools.combinations_with_replacement((1, 2, 3), 3):
                poly.add_term(idx, CQuat(*(scale * g.normal(size=4))))
            poly_report = maximize_poly(poly, 20, seed=3)
            assert not poly_report.degenerate
            assert poly(poly_report.solution[0]).re == pytest.approx(poly_report.objective, rel=1e-9, abs=0.0)


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
