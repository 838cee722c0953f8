"""The array evaluator of PolyProblem against the scalar CQuat loop it replaced.

The reference below sums the terms in insertion order, each as the
coefficient times its entries in index order, in CQuat arithmetic. The
array evaluator performs the same floating-point operations in the same
order, so the two must agree bit for bit, and so must maximize_poly's
objective and the value of its solution.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cqpoly import CQuat, CQVector, PolyProblem, maximize_poly
from cqpoly import solvers

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

# Zeros of both signs, exact small values and general floats.
coefficients = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-2.0, 2.0))


def reference_value(poly, x):
    """H(x) by the scalar CQuat loop."""
    entries = x.quats()
    total = CQuat()
    for idx, coeff in poly.coeffs.items():
        term = coeff
        for i in idx:
            term = term * entries[i - 1]
        total = total + term
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


def normalized_candidates(poly, factors):
    """Every unit sign combination of the factors that maximize_poly considers."""
    d = poly.degree
    for signs in itertools.product((1.0, -1.0), repeat=d):
        if d % 2 == 0 and np.prod(signs) < 0:
            continue
        combo = CQVector(sum(s * f.data for s, f in zip(signs, factors)))
        if combo.norm() >= solvers.DEGENERATE_NORM:
            yield combo.unit()


@PROPERTY
@given(poly=polys(min_degree=2), seed=st.integers(0, 2**16))
def test_maximize_poly_objective_is_the_best_reference_value(poly, seed):
    report = maximize_poly(poly, trials=3, seed=seed)
    (solution,) = report.solution
    assert report.objective == reference_value(poly, solution).re
    if report.relaxation is not None:
        for candidate in normalized_candidates(poly, report.relaxation.solution):
            assert report.objective >= reference_value(poly, candidate).re


def test_vanishing_combinations_fall_back_to_the_best_factor(monkeypatch):
    poly = PolyProblem(2, 2)
    poly.add_term((1, 2), CQuat(1.0, 0.5))
    poly.add_term((2, 2), CQuat(-1.0))
    x = CQVector([[0.6, 0.0, 0.0, 0.0], [0.0, 0.8, 0.0, 0.0]])
    relaxed = solvers.SolveReport(solution=[x, -x], objective=1.0, trials=1, best_trial=0, seed=0)
    monkeypatch.setattr(solvers, "maximize_form", lambda form, trials, seed: relaxed)
    # the even-degree combinations x + (-x) and -x + x both vanish
    report = maximize_poly(poly, trials=1, seed=0)
    assert report.degenerate
    assert np.array_equal(report.solution[0].data, x.data)
    assert report.objective == reference_value(poly, x).re
