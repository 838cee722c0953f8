import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqpoly import CQTensor, CQVector, MultilinearForm, RandomSource, form_trial_values
from cqpoly import sampling
from cqpoly.sampling import sphere_draws


def test_same_seed_and_stream_reproduce():
    a = RandomSource(123, stream=5).qnormal_vector(4)
    b = RandomSource(123, stream=5).qnormal_vector(4)
    assert np.array_equal(a.data, b.data)
    s1 = RandomSource(9, stream=2).signs(32)
    s2 = RandomSource(9, stream=2).signs(32)
    assert np.array_equal(s1, s2)


def test_streams_are_distinct():
    a = RandomSource(123, stream=0).qnormal_vector(4)
    b = RandomSource(123, stream=1).qnormal_vector(4)
    assert not np.array_equal(a.data, b.data)


def test_interleaving_does_not_couple_streams():
    src0, src1 = RandomSource(7, 0), RandomSource(7, 1)
    first = src0.qnormal_vector(3)
    _ = src1.qnormal_vector(3)
    second = src0.qnormal_vector(3)
    replay = RandomSource(7, 0)
    assert np.array_equal(replay.qnormal_vector(3).data, first.data)
    assert np.array_equal(replay.qnormal_vector(3).data, second.data)


def test_sphere_norm_is_one():
    src = RandomSource(42)
    for _ in range(200):
        v = src.sphere_vector(3)
        assert abs(v.norm() - 1.0) <= 1e-12


def test_sphere_single_coordinate_has_unit_magnitude():
    src = RandomSource(42)
    for _ in range(50):
        v = src.sphere_vector(1)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)


def test_qnormal_squared_norm_moment():
    # |eta|^2 is a chi-square with 4n degrees of freedom: mean 4n, variance 8n
    n, draws = 2, 100_000
    src = RandomSource(2024)
    samples = src.normals((draws, n, 4))
    sq = (samples**2).sum(axis=(1, 2))
    se = np.sqrt(8 * n / draws)
    assert abs(sq.mean() - 4 * n) <= 3 * se


def test_qnormal_component_means_vanish():
    n, draws = 3, 100_000
    src = RandomSource(31337)
    samples = src.normals((draws, n, 4))
    band = 4 / np.sqrt(draws)
    assert np.all(np.abs(samples.mean(axis=0)) <= band)


def test_sphere_projection_is_centered():
    n, draws = 4, 100_000
    src = RandomSource(88)
    data = src.normals((draws, n, 4))
    data /= np.sqrt((data**2).sum(axis=(1, 2)))[:, None, None]
    a = np.zeros((n, 4))
    a[0, 0] = 1.0
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    re_vals = (data * (a * signs)).sum(axis=(1, 2))
    # one sphere coordinate has variance 1/(4n)
    band = 4 / np.sqrt(4 * n * draws)
    assert abs(re_vals.mean()) <= band


def test_signs_values_and_mean():
    src = RandomSource(5150)
    draws = src.signs(100_000)
    assert set(np.unique(draws)) <= {-1, 1}
    assert abs(draws.mean()) <= 4 / np.sqrt(100_000)


def test_validation():
    with pytest.raises(ValueError):
        RandomSource(-1)
    src = RandomSource(1)
    with pytest.raises(ValueError):
        src.qnormal_vector(0)
    with pytest.raises(ValueError):
        src.sphere_vector(0)
    with pytest.raises(ValueError):
        src.signs(0)


def test_vector_type():
    v = RandomSource(0).sphere_vector(3)
    assert isinstance(v, CQVector)
    assert len(v) == 3


def test_sphere_vector_wraps_sphere_array():
    src_a, src_v = RandomSource(9, stream=4), RandomSource(9, stream=4)
    for n in (1, 3, 7):
        raw = src_a.sphere_array(n)
        assert raw.shape == (n, 4)
        assert np.array_equal(src_v.sphere_vector(n).data, raw)
    with pytest.raises(ValueError):
        src_a.sphere_array(0)


GUARD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**160 + 7]
# 33 * 4 = 132 entries exceed numpy's 128-entry pairwise-summation block
GUARD_DIMS = [1, 2, 7, 33]
# trials 0-49, trial 10**6, and the trials around 2**32, where the stream takes a second word
GUARD_WINDOWS = [(0, 50), (10**6, 10**6 + 1), (2**32 - 2, 2**32 + 3)]


def reference_draws(seed, start, stop, dims):
    # one RandomSource per trial, its draws taken in slot order
    rows = [[] for _ in dims]
    for t in range(start, stop):
        src = RandomSource(seed, stream=t)
        for row, n in zip(rows, dims):
            row.append(src.sphere_array(n))
    return [np.stack(row) for row in rows]


def assert_draws_match_reference(seed, start, stop, dims):
    got = sphere_draws(seed, start, stop, dims)
    expected = reference_draws(seed, start, stop, dims)
    assert [a.shape for a in got] == [(stop - start, n, 4) for n in dims]
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", GUARD_SEEDS)
def test_sphere_draws_match_random_source_bit_for_bit(seed):
    for start, stop in GUARD_WINDOWS:
        assert_draws_match_reference(seed, start, stop, GUARD_DIMS)


def test_state_formula_is_active():
    assert sampling._formula_matches_numpy()


def test_sphere_draws_fallback_seeding_is_identical(monkeypatch):
    def unused(*args):
        raise AssertionError("the state formula must not run after a probe mismatch")

    monkeypatch.setattr(sampling, "_formula_matches_numpy", lambda: False)
    monkeypatch.setattr(sampling, "_pcg64_states", unused)
    for seed in (3, 2**64 + 3):
        assert_draws_match_reference(seed, 2**32 - 2, 2**32 + 3, GUARD_DIMS)


class _ZeroGenerator:
    def standard_normal(self, out):
        out[...] = 0.0


def test_sphere_draws_redo_null_draws_through_random_source(monkeypatch):
    # every batched draw is zero, so every trial goes through RandomSource's rejection loop
    zeros = (np.random.PCG64(0), _ZeroGenerator())
    monkeypatch.setattr(sampling, "_thread_generator", lambda: zeros)
    assert_draws_match_reference(8, 5, 9, [3, 1])


def test_sphere_draws_validation():
    with pytest.raises(ValueError):
        sphere_draws(-1, 0, 3, [2])
    with pytest.raises(ValueError):
        sphere_draws(1, -1, 3, [2])
    with pytest.raises(ValueError):
        sphere_draws(1, 3, 2, [2])
    with pytest.raises(ValueError):
        sphere_draws(1, 0, 3, [2, 0])
    assert [a.shape for a in sphere_draws(1, 4, 4, [2, 3])] == [(0, 2, 4), (0, 3, 4)]
    assert sphere_draws(1, 0, 3, []) == []


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**130), t=st.integers(0, 2**34))
def test_pcg64_state_formula_matches_numpy(seed, t):
    state = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(t,))).state
    expected = state["state"]
    assert sampling._pcg64_states(seed, t, t + 1) == [(expected["state"], expected["inc"])]


def test_concurrent_trial_values_match_sequential():
    # each thread sets trial states on its own generator, so two runs at once cannot mix
    form = MultilinearForm(CQTensor(np.random.default_rng(14).uniform(-1, 1, size=(3, 4, 2, 4))))
    seeds = (3, 4)
    expected = {seed: form_trial_values(form, 200, seed) for seed in seeds}
    results = {seed: [] for seed in seeds}

    def run(seed):
        for _ in range(5):
            results[seed].append(form_trial_values(form, 200, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert len(results[seed]) == 5
        assert all(np.array_equal(values, expected[seed]) for values in results[seed])
