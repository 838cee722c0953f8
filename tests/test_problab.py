import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqpoly import CQVector, estimate_tail_prob, problab
from cqpoly.sampling import RandomSource
from .oracles import check_chi_square_tail, exact_tail, whole_batch_tail_prob


def test_tail_probability_is_positive():
    probe = estimate_tail_prob(5, 0.5, samples=100_000, seed=1)
    assert probe.empirical_prob > 0.0
    assert probe.threshold == pytest.approx(math.sqrt(0.5 * math.log(5) / 5))
    assert probe.bound45 == pytest.approx(5 ** (-2.25) / math.sqrt(math.log(5)))


def test_tail_probability_gamma_to_zero_is_one_half():
    samples = 200_000
    probe = estimate_tail_prob(4, 1e-12, samples=samples, seed=2)
    band = 4 * math.sqrt(0.25 / samples)
    assert abs(probe.empirical_prob - 0.5) <= band


def test_tail_probability_rotation_invariance():
    samples = 200_000
    kwargs = dict(n=4, gamma=0.5, samples=samples, seed=3)
    p1 = estimate_tail_prob(a=CQVector.basis(4, 0), **kwargs)
    p2 = estimate_tail_prob(a=CQVector.basis(4, 1), **kwargs)
    p = max(p1.empirical_prob, 1 / samples)
    band = 4 * math.sqrt(2 * p * (1 - p) / samples)
    assert abs(p1.empirical_prob - p2.empirical_prob) <= band


def test_tail_probability_scale_invariance_in_a():
    # a power-of-two scale multiplies both sides of the event exactly, so counts agree draw for draw
    samples = 50_000
    a = CQVector.from_real([0.3, -0.8, 0.5])
    p1 = estimate_tail_prob(3, 0.4, samples=samples, seed=4, a=a)
    for scale in (2.0, 2.0**600, 2.0**-600):
        p2 = estimate_tail_prob(3, 0.4, samples=samples, seed=4, a=scale * a)
        assert p1.empirical_prob == p2.empirical_prob
    # other scales round, so the counts agree within the band of the rotation test
    p = max(p1.empirical_prob, 1 / samples)
    band = 4 * math.sqrt(2 * p * (1 - p) / samples)
    for scale in (1e-170, 1e200):
        p2 = estimate_tail_prob(3, 0.4, samples=samples, seed=4, a=scale * a)
        assert abs(p1.empirical_prob - p2.empirical_prob) <= band


@pytest.mark.parametrize("n", [3, 8, 24, 40])
def test_tail_probe_matches_the_exact_tail(n):
    samples = 200_000
    probe = estimate_tail_prob(n, 0.5, samples, seed=3)
    p = exact_tail(n, probe.threshold)
    assert abs(probe.empirical_prob - p) <= 5 * math.sqrt(p * (1 - p) / samples)


@pytest.mark.parametrize("n", [3, 24, 40])
def test_tail_probe_result_does_not_depend_on_the_block_size(monkeypatch, n):
    a = CQVector(np.random.default_rng(n).standard_normal((n, 4)))
    reference = estimate_tail_prob(n, 0.5, 20_000, seed=3, a=a)
    assert reference.empirical_prob == whole_batch_tail_prob(n, 0.5, 20_000, 3, a)
    for rows in (1, 7, 64, 1000):
        monkeypatch.setattr(problab, "BLOCK_BYTES", rows * 32 * n)
        assert estimate_tail_prob(n, 0.5, 20_000, seed=3, a=a) == reference


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    n=st.integers(2, 70),
    samples=st.integers(1000, 150_000),
    gamma=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32),
    a_seed=st.integers(0, 2**32),
)
@example(n=33, samples=140_000, gamma=0.5, seed=3, a_seed=1)
@example(n=2000, samples=3000, gamma=0.5, seed=3, a_seed=1)
def test_blocked_probe_counts_as_whole_batches(n, samples, gamma, seed, a_seed):
    a = CQVector(np.random.default_rng(a_seed).standard_normal((n, 4)))
    probe = estimate_tail_prob(n, gamma, samples, seed, a=a)
    assert probe.empirical_prob == whole_batch_tail_prob(n, gamma, samples, seed, a)


def test_tail_probe_memory_is_bounded_by_its_blocks():
    tracemalloc.start()
    try:
        estimate_tail_prob(24, 0.5, 1 << 16, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one whole 65,536-sample batch of draws takes 50 MB
    assert peak < 4_000_000


def test_tail_probability_monotone_in_gamma():
    samples = 50_000
    probs = [
        estimate_tail_prob(5, g, samples=samples, seed=5).empirical_prob
        for g in (0.1, 0.3, 0.6, 1.0)
    ]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_tail_probability_validation():
    with pytest.raises(ValueError):
        estimate_tail_prob(1, 0.5, samples=10_000, seed=0)
    with pytest.raises(ValueError):
        estimate_tail_prob(5, -0.1, samples=10_000, seed=0)
    with pytest.raises(ValueError):
        estimate_tail_prob(2, 4.0, samples=10_000, seed=0)  # gamma ln n >= n
    with pytest.raises(ValueError):
        estimate_tail_prob(5, 0.5, samples=10, seed=0)
    with pytest.raises(ValueError):
        estimate_tail_prob(5, 0.5, samples=10_000, seed=0, a=CQVector.basis(4, 0))
    with pytest.raises(ValueError):
        estimate_tail_prob(5, 0.5, samples=10_000, seed=0, delta=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            estimate_tail_prob(3, bad, samples=1000, seed=0)
        with pytest.raises(ValueError, match="finite"):
            estimate_tail_prob(3, 0.5, samples=1000, seed=0, delta=bad)


def test_improved_bound_attached_with_delta():
    probe = estimate_tail_prob(5, 0.5, samples=10_000, seed=6, delta=1.0)
    expected = 5 ** (-(2 + 1 + 0.5) * 0.5) / math.sqrt(math.log(5))
    assert probe.bound_improved == pytest.approx(expected)


def test_chi_square_tail_all_ones_block():
    n = 2
    check = check_chi_square_tail(t=0.75 * n, b=np.ones(4 * n), samples=200_000, seed=7)
    assert check.bound == pytest.approx(math.exp(-1.5))
    assert check.passed


def test_chi_square_tail_far_tail_is_empty():
    check = check_chi_square_tail(t=50.0, b=np.ones(4), samples=200_000, seed=8)
    assert check.empirical == 0.0


def test_chi_square_tail_single_weight():
    check = check_chi_square_tail(t=1.0, b=[1.0], samples=200_000, seed=9)
    assert check.empirical <= math.exp(-1.0) + check.slack


def probe_bounds(n, gamma, delta):
    """The probe's two bound curves at dimension n, from its smallest run."""
    probe = estimate_tail_prob(n, gamma, samples=1000, seed=0, delta=delta)
    return probe.bound45, probe.bound_improved


def test_bound_curves_exponent_ordering():
    for n in range(2, 8):
        bound45, improved = probe_bounds(n, gamma=1.0, delta=1.0)
        # exponent 3.5 beats 4.5, so the improved curve sits above
        assert improved > bound45


def test_bound_curves_small_delta_limit():
    _, improved = probe_bounds(10, gamma=1.0, delta=1e-9)
    expected = 10 ** (-2.0) / math.sqrt(math.log(10))
    assert improved == pytest.approx(expected, rel=1e-6)


def test_bound_curves_values():
    bound45, improved = probe_bounds(10, gamma=1.0, delta=1.0)
    assert bound45 == pytest.approx(10 ** (-4.5) / math.sqrt(math.log(10)))
    assert improved == pytest.approx(10 ** (-3.5) / math.sqrt(math.log(10)))


class _FirstBatch(Exception):
    pass


class _ThirdStream(Exception):
    pass


def test_each_tail_stream_serves_one_fixed_batch_in_blocks(monkeypatch):
    # record the draws the first two streams serve, and stop when the third stream is asked for
    shapes = {0: [], 1: []}

    def first_streams(self, shape):
        if self.stream > 1:
            raise _ThirdStream
        shapes[self.stream].append(shape)
        return np.ones(shape)

    monkeypatch.setattr(RandomSource, "normals", first_streams)
    for n in (3, 32, 2000):
        block = max(1, problab.BLOCK_BYTES // (32 * n))
        for stream in shapes.values():
            stream.clear()
        with pytest.raises(_ThirdStream):
            estimate_tail_prob(n, 0.5, samples=1 << 20, seed=0)
        for stream in shapes.values():
            assert sum(rows for rows, _, _ in stream) == 1 << 16
            assert all(shape[1:] == (n, 4) for shape in stream)
            # every block but the batch's last one holds the block's rows, and none is empty
            assert all(rows == block for rows, _, _ in stream[:-1])
            assert 1 <= stream[-1][0] <= block


def test_tail_parameters_are_checked_before_sampling(monkeypatch):
    def no_draws(self, shape):
        raise _FirstBatch

    monkeypatch.setattr(RandomSource, "normals", no_draws)
    for delta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            estimate_tail_prob(5, 0.5, samples=1000, seed=0, delta=delta)


def test_non_finite_parameters_rejected():
    with pytest.raises(ValueError):
        probe_bounds(3, gamma=math.nan, delta=1.0)
    with pytest.raises(ValueError):
        probe_bounds(3, gamma=1.0, delta=math.inf)


def test_delta_too_large_to_square_is_named_before_sampling(monkeypatch):
    def no_draws(self, shape):
        raise _FirstBatch

    monkeypatch.setattr(RandomSource, "normals", no_draws)
    with pytest.raises(ValueError, match="delta = 1e[+]200 is too large"):
        estimate_tail_prob(3, 0.5, samples=1000, seed=0, delta=1e200)


def test_large_delta_that_squares_underflows_the_bound_to_zero():
    assert probe_bounds(3, gamma=0.5, delta=1e150)[1] == 0.0
