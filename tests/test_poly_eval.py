"""The array evaluator of PolyProblem against a scalar loop of oracles.qmul.

The reference below sums the terms in insertion order from +0.0, each as
the oracles.qmul product of the coefficient and its entries in index order.
The array evaluator performs the same floating-point operations in the same
order, so the two must agree bit for bit, and so must maximize_poly's
objective and the value of its solution.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cqpoly import CQuat, CQVector, PolyProblem, maximize_poly
from cqpoly import solvers

from .oracles import qmul

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

# Zeros of both signs, exact small values and general floats.
coefficients = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-2.0, 2.0))


def reference_value(poly, x):
    """H(x) by the scalar loop of oracles.qmul."""
    entries = x.data.tolist()
    total = CQuat()
    for idx, coeff in poly.coeffs.items():
        term = coeff.components()
        for i in idx:
            term = qmul(term, entries[i - 1])
        total = total + CQuat(*term)
    return total


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def polys(draw, min_degree=1):
    """Degree <= 5, dim <= 4; repeated indices, duplicate tuples and the empty polynomial."""
    d = draw(st.integers(min_degree, 5))
    n = draw(st.integers(1, 4))
    poly = PolyProblem(d, n)
    index = st.lists(st.integers(1, n), min_size=d, max_size=d)
    for idx, comps in draw(st.lists(st.tuples(index, st.tuples(*[coefficients] * 4)), max_size=8)):
        poly.add_term(idx, CQuat(*comps))
    return poly


def stacks(n, count):
    return arrays(np.float64, (count, n, 4), elements=st.floats(-2.0, 2.0))


@PROPERTY
@given(data=st.data())
def test_eval_is_bit_equal_to_the_scalar_loop(data):
    poly = data.draw(polys())
    x = CQVector(data.draw(stacks(poly.dim, 1))[0])
    assert bits(poly(x).components()) == bits(reference_value(poly, x).components())


@PROPERTY
@given(data=st.data())
def test_values_of_a_stack_are_single_calls(data):
    poly = data.draw(polys())
    xs = data.draw(stacks(poly.dim, data.draw(st.integers(0, 5))))
    singles = [poly(CQVector(x)).components() for x in xs]
    assert bits(poly._values(xs)) == bits(np.reshape(singles, (len(xs), 4)))


def sign_combinations(poly, factors):
    """Every sign combination sum_k s_k x^k of the factors that maximize_poly considers, as (count, n, 4)."""
    d = poly.degree
    sets = [s for s in itertools.product((1.0, -1.0), repeat=d) if d % 2 or np.prod(s) > 0]
    return np.array([sum(s * f.data for s, f in zip(signs, factors)) for signs in sets])


def normalized_candidates(poly, factors):
    """Every unit sign combination of the factors that maximize_poly considers."""
    for combo in sign_combinations(poly, factors):
        norm = np.sqrt((combo**2).sum())
        if norm >= solvers.DEGENERATE_NORM:
            yield CQVector(combo / norm)


@PROPERTY
@given(poly=polys(min_degree=2), seed=st.integers(0, 2**16))
def test_maximize_poly_objective_is_the_best_reference_value(poly, seed):
    report = maximize_poly(poly, trials=3, seed=seed)
    (solution,) = report.solution
    assert report.objective == reference_value(poly, solution).re
    if report.relaxation is not None:
        for candidate in normalized_candidates(poly, report.relaxation.solution):
            assert report.objective >= reference_value(poly, candidate).re


@PROPERTY
@given(poly=polys(min_degree=2), seed=st.integers(0, 2**16), trials=st.integers(1, 19))
def test_some_sign_combination_never_vanishes(poly, seed, trials):
    # so maximize_poly always has a candidate: its relaxation factors are unit vectors, and for
    # d >= 3 the cross terms s_k s_l cancel over the sign set; for d = 2 the pair is x + y = sqrt(2) t
    report = maximize_poly(poly, trials=trials, seed=seed)
    if report.relaxation is None:  # the zero polynomial is solved before any relaxation
        return
    norms = np.sqrt((sign_combinations(poly, report.relaxation.solution) ** 2).sum(axis=(1, 2)))
    assert norms.max() >= math.sqrt(2) - 1e-12
    if poly.degree >= 3:
        assert np.mean(norms**2) == pytest.approx(poly.degree, abs=1e-9)
