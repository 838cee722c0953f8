import math

import numpy as np
import pytest

from cqpoly import (
    CQVector,
    bound_curves,
    check_chi_square_tail,
    estimate_tail_prob,
)
from cqpoly.sampling import RandomSource


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
    # doubling a doubles both sides of the event, so counts agree draw for draw
    a = CQVector.from_real([0.3, -0.8, 0.5])
    p1 = estimate_tail_prob(3, 0.4, samples=50_000, seed=4, a=a)
    p2 = estimate_tail_prob(3, 0.4, samples=50_000, seed=4, a=2.0 * a)
    assert p1.empirical_prob == p2.empirical_prob


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


def test_chi_square_tail_validation():
    with pytest.raises(ValueError):
        check_chi_square_tail(t=0.0, b=[1.0], samples=1000, seed=0)
    with pytest.raises(ValueError):
        check_chi_square_tail(t=1.0, b=[-1.0], samples=1000, seed=0)
    with pytest.raises(ValueError):
        check_chi_square_tail(t=1.0, b=[], samples=1000, seed=0)


def test_bound_curves_exponent_ordering():
    rows = bound_curves(range(2, 8), gamma=1.0, delta=1.0)
    for row in rows:
        # exponent 3.5 beats 4.5, so the improved curve sits above
        assert row.bound_improved > row.bound45


def test_bound_curves_small_delta_limit():
    rows = bound_curves([10], gamma=1.0, delta=1e-9)
    expected = 10 ** (-2.0) / math.sqrt(math.log(10))
    assert rows[0].bound_improved == pytest.approx(expected, rel=1e-6)


def test_bound_curves_values():
    rows = bound_curves([10], gamma=1.0, delta=1.0)
    assert rows[0].bound45 == pytest.approx(10 ** (-4.5) / math.sqrt(math.log(10)))
    assert rows[0].bound_improved == pytest.approx(10 ** (-3.5) / math.sqrt(math.log(10)))
    with pytest.raises(ValueError):
        bound_curves([1], gamma=1.0, delta=1.0)


class _FirstBatch(Exception):
    pass


def test_tail_batch_is_sized_by_bytes(monkeypatch):
    # record the first batch the probe asks for and stop before drawing it
    shapes = []

    def first_batch(self, shape):
        shapes.append(shape)
        raise _FirstBatch

    monkeypatch.setattr(RandomSource, "normals", first_batch)
    for n in (32, 2000):
        with pytest.raises(_FirstBatch):
            estimate_tail_prob(n, 0.5, samples=1 << 20, seed=0)
    assert shapes == [(1 << 16, 32, 4), (1048, 2000, 4)]
