import numpy as np
import pytest

from cqpoly import CQVector, RandomSource


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
