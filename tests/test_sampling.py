import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqpoly import CQTensor, CQVector, MultilinearForm, RandomSource
from cqpoly import sampling
from cqpoly.sampling import sphere_draws
from .oracles import form_trial_values, reference_draws


def test_same_seed_and_stream_reproduce():
    a = RandomSource(123, stream=5).normals((4, 4))
    b = RandomSource(123, stream=5).normals((4, 4))
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    a = RandomSource(123, stream=0).normals((4, 4))
    b = RandomSource(123, stream=1).normals((4, 4))
    assert not np.array_equal(a, b)


def test_interleaving_does_not_couple_streams():
    src0, src1 = RandomSource(7, 0), RandomSource(7, 1)
    first = src0.normals((3, 4))
    _ = src1.normals((3, 4))
    second = src0.normals((3, 4))
    replay = RandomSource(7, 0)
    assert np.array_equal(replay.normals((3, 4)), first)
    assert np.array_equal(replay.normals((3, 4)), second)


def test_sphere_norm_is_one():
    for row in sphere_draws(42, 0, 200, [3])[0]:
        assert abs(CQVector(row).norm() - 1.0) <= 1e-12


def test_sphere_single_coordinate_has_unit_magnitude():
    for row in sphere_draws(42, 0, 50, [1])[0]:
        assert np.linalg.norm(row[0]) == pytest.approx(1.0, abs=1e-12)


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


def test_validation():
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(1, stream=-1)


def test_vector_type():
    raw = sphere_draws(0, 0, 2, [3])[0][1]
    assert type(raw) is np.ndarray and raw.dtype == np.float64
    assert len(CQVector(raw)) == 3


GUARD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**160 + 7]
# 33 * 4 = 132 entries exceed numpy's 128-entry pairwise-summation block
GUARD_DIMS = [1, 2, 7, 33]
# trials 0-49, trial 10**6 alone and with the next, the trials around 2**32, where
# streams leave the state formula for RandomSource, and two trials past it
GUARD_WINDOWS = [
    (0, 50), (10**6, 10**6 + 1), (10**6, 10**6 + 2), (2**32 - 2, 2**32 + 3), (2**32, 2**32 + 2),
]


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
    for seed in GUARD_SEEDS:
        for start, stop in GUARD_WINDOWS:
            assert_draws_match_reference(seed, start, stop, GUARD_DIMS)


@pytest.fixture
def fresh_probe():
    # the probe is cached; clear it on both sides so that a forced result stays in its test
    sampling._formula_matches_numpy.cache_clear()
    yield
    sampling._formula_matches_numpy.cache_clear()


def test_sphere_draws_foreign_state_layout_is_identical(monkeypatch, fresh_probe):
    # a {high, low} pcg128_t holds the two 64-bit halves of each 128-bit word swapped
    string_at = sampling.ctypes.string_at

    def high_low(address, size):
        data = string_at(address, size)
        return b"".join(data[i + 8 : i + 16] + data[i : i + 8] for i in range(0, size, 16))

    def unused():
        raise AssertionError("no state image may be written after a probe mismatch")

    monkeypatch.setattr(sampling.ctypes, "string_at", high_low)
    monkeypatch.setattr(sampling, "_thread_generator", unused)
    assert not sampling._formula_matches_numpy()
    for seed in GUARD_SEEDS:
        for start, stop in GUARD_WINDOWS:
            assert_draws_match_reference(seed, start, stop, GUARD_DIMS)


def test_in_place_switch_leaves_has_uint32_clear():
    # the write does not reset has_uint32, so no draw on the thread generator may set it
    sphere_draws(6, 0, 20, [2, 3])
    gen = sampling._thread_generator()[0]
    assert gen.bit_generator.state["has_uint32"] == 0


def test_state_formula_sees_only_one_word_streams(monkeypatch):
    ranges = []
    states = sampling._pcg64_states

    def recording(seed, start, stop):
        ranges.append((start, stop))
        return states(seed, start, stop)

    monkeypatch.setattr(sampling, "_pcg64_states", recording)
    for start, stop in GUARD_WINDOWS:
        sphere_draws(5, start, stop, [2])
    # a one-stream range is drawn by RandomSource; two streams are the formula's smallest range
    assert ranges == [(0, 50), (10**6, 10**6 + 2), (2**32 - 2, 2**32)]


def test_one_stream_ranges_and_empty_dims_skip_the_state_formula(monkeypatch):
    def unused(*args):
        raise AssertionError("a one-stream range reached the state formula")

    monkeypatch.setattr(sampling, "_pcg64_states", unused)
    for seed in (5, 2**160 + 7):
        for t in (0, 10**6, 2**32 - 1, 2**32):
            for dims in [(), [3], [3, 1]]:
                assert_draws_match_reference(seed, t, t + 1, dims)


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


def numpy_image(seed, t):
    # the 32-byte image of numpy's own PCG64 state: state low, inc high, little-endian
    state = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(t,))).state["state"]
    return (state["state"] | state["inc"] << 128).to_bytes(32, "little")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**130), t=st.integers(0, 2**32 - 1))
def test_pcg64_state_formula_matches_numpy(seed, t):
    assert sampling._pcg64_states(seed, t, t + 1) == numpy_image(seed, t)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**130), start=st.integers(0, 2**32), count=st.integers(0, 64))
@example(seed=2**130, start=2**32, count=64)
@example(seed=0, start=0, count=64)
def test_pcg64_state_windows_match_numpy(seed, start, count):
    start = min(start, 2**32 - count)
    expected = b"".join(numpy_image(seed, t) for t in range(start, start + count))
    assert sampling._pcg64_states(seed, start, start + count) == expected


def test_pcg64_state_window_at_stream_limit():
    start, stop = 2**32 - 4096, 2**32
    expected = b"".join(numpy_image(2**64 + 3, t) for t in range(start, stop))
    assert sampling._pcg64_states(2**64 + 3, start, stop) == expected
    assert sampling._pcg64_states(5, 7, 7) == b""


def per_stream_images(words):
    # pcg_setseq_128_srandom_r one stream at a time, from generate_state's four
    # little-endian uint64 (state high, state low, seq high, seq low)
    images = []
    mask = (1 << 128) - 1
    for a, b, c, d in words.astype("<u4").view("<u8").tolist():
        inc = ((c << 64 | d) << 1 | 1) & mask
        state = ((inc + (a << 64 | b)) * sampling._PCG_MULT + inc) & mask
        images.append((state | inc << 128).to_bytes(32, "little"))
    return b"".join(images)


def test_lane_finish_does_not_spill_between_streams():
    # all-ones words give s = seq = 2^128 - 1, the largest lane value (s + inc) M + inc;
    # next to all-zero lanes any carry out of a lane would show in its neighbour
    zeros = np.zeros(8, np.uint32)
    ones = np.full(8, 2**32 - 1, np.uint32)
    rng = np.random.default_rng(17)
    random = rng.integers(0, 2**32, size=(5, 8), dtype=np.uint32)
    cases = [
        np.stack([zeros] * 3),
        np.stack([ones] * 3),
        np.stack([ones, zeros] * 3),
        np.stack([zeros, ones] * 3),
        np.concatenate([random, np.stack([ones, zeros, ones]), random]),
    ]
    for words in cases:
        assert sampling._srandom_images(words) == per_stream_images(words)
    assert sampling._srandom_images(np.zeros((0, 8), np.uint32)) == b""


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**130),
    t=st.integers(0, 2**34),
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
)
@example(seed=2**130, t=2**32 - 1, dims=[2])
@example(seed=2**130, t=2**32, dims=[2])
def test_sphere_draws_match_random_source_on_any_stream(seed, t, dims):
    # two streams, since a one-stream range is drawn by RandomSource itself; the examples
    # straddle the formula's last stream, 2**32 - 1
    assert_draws_match_reference(seed, t, t + 2, dims)


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
