import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqpoly import (
    CQTensor,
    CQVector,
    CQuat,
    I,
    J,
    MultilinearForm,
    ONE,
    PolyProblem,
    outer_product,
    symmetrize,
)
from .oracles import lift_to_poly, qmul, sign_average_identity

rng = np.random.default_rng(55801)


def rand_vector(n, scale=1.0):
    return CQVector(scale * rng.uniform(-1, 1, size=(n, 4)))


def rand_form(dims):
    return MultilinearForm(CQTensor(rng.uniform(-1, 1, size=tuple(dims) + (4,))))


def rand_poly(degree, dim, terms=4):
    poly = PolyProblem(degree, dim)
    for _ in range(terms):
        idx = tuple(int(i) for i in rng.integers(1, dim + 1, size=degree))
        poly.add_term(idx, CQuat(*rng.uniform(-1, 1, size=4)))
    return poly


def test_eval_all_ones_cube():
    form = MultilinearForm(CQTensor.from_real(np.ones((2, 2, 2))))
    x = CQVector.from_real(np.ones(2) / np.sqrt(2))
    value = form(x, x, x)
    assert value.re == pytest.approx(2 * np.sqrt(2))
    error = np.subtract(value.components(), (2 * np.sqrt(2), 0.0, 0.0, 0.0))
    assert np.linalg.norm(error) == pytest.approx(0.0, abs=1e-12)


def test_eval_rank_one_factorizes():
    x, y, z = rand_vector(2), rand_vector(3), rand_vector(2)
    u, v, w = rand_vector(2), rand_vector(3), rand_vector(2)
    form = MultilinearForm(outer_product([x, y, z]))
    got = form(u, v, w)
    xu = np.sum([qmul(a, b) for a, b in zip(x.data, u.data)], axis=0)
    yv = np.sum([qmul(a, b) for a, b in zip(y.data, v.data)], axis=0)
    zw = np.sum([qmul(a, b) for a, b in zip(z.data, w.data)], axis=0)
    assert got.components() == pytest.approx(qmul(qmul(xu, yv), zw), abs=1e-10)


def test_eval_zero_slot():
    form = rand_form((2, 3, 2))
    zero = CQVector(np.zeros((3, 4)))
    assert np.linalg.norm(form(rand_vector(2), zero, rand_vector(2)).components()) == 0.0


def test_eval_multilinearity_in_each_slot():
    for _ in range(100):
        d = int(rng.integers(2, 5))
        dims = tuple(int(n) for n in rng.integers(1, 5, size=d))
        form = rand_form(dims)
        slot = int(rng.integers(0, d))
        alpha, beta = rng.uniform(-2, 2, size=2)
        xs = [rand_vector(n) for n in dims]
        a, b = rand_vector(dims[slot]), rand_vector(dims[slot])
        mixed = list(xs)
        mixed[slot] = CQVector(alpha * a.data + beta * b.data)
        with_a, with_b = list(xs), list(xs)
        with_a[slot] = a
        with_b[slot] = b
        lhs = mixed and form(*mixed)
        rhs_arr = alpha * np.array(form(*with_a).components()) + beta * np.array(
            form(*with_b).components()
        )
        assert np.allclose(lhs.components(), rhs_arr, atol=1e-10)


def test_symmetrize_off_diagonal_pair():
    poly = PolyProblem(2, 2)
    poly.add_term((1, 2), ONE)
    form = symmetrize(poly)
    assert form.tensor[0, 1].components() == (0.5, 0.0, 0.0, 0.0)
    assert form.tensor[1, 0].components() == (0.5, 0.0, 0.0, 0.0)


def test_symmetrize_diagonal():
    poly = PolyProblem(2, 2)
    poly.add_term((1, 1), ONE)
    form = symmetrize(poly)
    assert form.tensor[0, 0].components() == (1.0, 0.0, 0.0, 0.0)


def test_symmetrize_triple_product():
    poly = PolyProblem(3, 3)
    poly.add_term((1, 2, 3), ONE)
    form = symmetrize(poly)
    for perm in itertools.permutations((0, 1, 2)):
        assert form.tensor[perm].components() == pytest.approx((1 / 6, 0, 0, 0))


def test_symmetrize_permutation_invariance():
    poly = rand_poly(3, 3)
    data = symmetrize(poly).tensor.data
    for idx in itertools.product(range(3), repeat=3):
        for perm in itertools.permutations(idx):
            assert np.array_equal(data[idx], data[perm])


def test_eval_poly_examples():
    poly = PolyProblem(2, 1)
    poly.add_term((1, 1), ONE)
    assert poly(CQVector([I.components()])).re == pytest.approx(-1.0)

    sum_sq = PolyProblem(2, 2)
    sum_sq.add_term((1, 1), ONE)
    sum_sq.add_term((2, 2), ONE)
    x = CQVector.from_real(np.array([0.6, 0.8]))
    assert sum_sq(x).re == pytest.approx(1.0)


def reference_symmetrize(poly):
    """The tensor of symmetrize, by looping over the set of all d! permutations."""
    data = np.zeros((poly.dim,) * poly.degree + (4,))
    for idx, coeff in poly.coeffs.items():
        perms = set(itertools.permutations(idx))
        value = np.array(coeff.components()) / len(perms)
        for perm in perms:
            data[tuple(i - 1 for i in perm)] = value
    return data


@st.composite
def small_polys(draw):
    """Degree <= 6, dim <= 4, every multiplicity pattern, and the empty polynomial."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    poly = PolyProblem(d, n)
    index = st.lists(st.integers(1, n), min_size=d, max_size=d)
    component = st.floats(-2.0, 2.0)
    for idx, comps in draw(st.lists(st.tuples(index, st.tuples(*[component] * 4)), max_size=8)):
        poly.add_term(idx, CQuat(*comps))
    return poly


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(poly=small_polys())
def test_symmetrize_is_bit_equal_to_the_permutation_loop(poly):
    assert symmetrize(poly).tensor.data.tobytes() == reference_symmetrize(poly).tobytes()


def test_symmetrize_high_degree_single_term():
    # 12 distinct orderings out of 12! permutations
    poly = PolyProblem(12, 2, {(1,) * 11 + (2,): ONE})
    data = symmetrize(poly).tensor.data
    written = np.argwhere(data[..., 0] != 0)
    assert sorted(map(tuple, written)) == sorted((0,) * k + (1,) + (0,) * (11 - k) for k in range(12))
    assert np.all(data[tuple(written.T)] == [1 / 12, 0.0, 0.0, 0.0])
    assert not data[..., 1:].any()


def test_eval_poly_matches_symmetrized_form():
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        poly = rand_poly(d, n)
        form = symmetrize(poly)
        x = rand_vector(n)
        direct = np.array(poly(x).components())
        via_form = np.array(form(*([x] * d)).components())
        assert np.allclose(direct, via_form, atol=1e-10)


def test_duplicate_terms_sum():
    poly = PolyProblem(2, 2)
    poly.add_term((2, 1), ONE)
    poly.add_term((1, 2), CQuat(0, 0, 0, 2))
    assert poly.coeffs == {(1, 2): CQuat(1, 0, 0, 2)}


def test_sign_average_matches_hand_expansion():
    # d=2, scalar slots: the four patterns give ((x+y)^2 - (x-y)^2)/2 = 2xy
    form = MultilinearForm(CQTensor.from_real(np.ones((1, 1))))
    x, y = rand_vector(1), rand_vector(1)
    lhs, rhs = sign_average_identity(form, [x, y])
    xq, yq = x.data[0], y.data[0]
    plus = np.array(qmul(xq + yq, xq + yq))
    minus = np.array(qmul(xq - yq, xq - yq))
    hand = (plus + plus - minus - minus) / 4
    assert lhs.components() == pytest.approx(hand, abs=1e-12)
    assert rhs.components() == pytest.approx(2 * np.array(qmul(xq, yq)), abs=1e-12)


def test_sign_average_zero_vector():
    form = MultilinearForm(symmetrize(rand_poly(3, 2)).tensor)
    xs = [rand_vector(2), CQVector(np.zeros((2, 4))), rand_vector(2)]
    lhs, rhs = sign_average_identity(form, xs)
    assert np.linalg.norm(lhs.components()) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(rhs.components()) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_sign_average_identity_super_symmetric(degree):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        form = symmetrize(rand_poly(degree, n))
        xs = [rand_vector(n) for _ in range(degree)]
        lhs, rhs = sign_average_identity(form, xs)
        assert np.allclose(lhs.components(), rhs.components(), atol=1e-9)


def test_lift_scalar_product():
    form = MultilinearForm(CQTensor.from_real(np.ones((1, 1))))
    lifted = lift_to_poly(form)
    assert lifted.degree == 2 and lifted.dim == 2
    assert lifted.coeffs == {(1, 2): ONE}
    u, v = rand_vector(1), rand_vector(1)
    stacked = CQVector(np.vstack([u.data, v.data]))
    assert lifted(stacked).components() == pytest.approx(qmul(u.data[0], v.data[0]), abs=1e-12)


def test_lift_matches_form_on_blocks():
    dims = (2, 3, 2)
    form = rand_form(dims)
    lifted = lift_to_poly(form)
    assert lifted.dim == sum(dims)
    for _ in range(20):
        blocks = [rand_vector(n) for n in dims]
        stacked = CQVector(np.vstack([b.data for b in blocks]))
        lhs = np.array(lifted(stacked).components())
        rhs = np.array(form(*blocks).components())
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_sphere_to_block_scaling():
    # splitting sqrt(d) x with |x| = 1 into blocks gives total squared norm d
    d = 3
    v = rand_vector(6)
    x = CQVector(v.data / np.linalg.norm(v.data))
    scaled = math.sqrt(d) * x
    blocks = [CQVector(scaled.data[0:2]), CQVector(scaled.data[2:4]), CQVector(scaled.data[4:6])]
    assert sum(b.norm() ** 2 for b in blocks) == pytest.approx(d)


def test_poly_validation():
    with pytest.raises(ValueError):
        PolyProblem(0, 2)
    poly = PolyProblem(2, 2)
    with pytest.raises(ValueError):
        poly.add_term((1, 3), ONE)
    with pytest.raises(ValueError):
        poly.add_term((1,), ONE)
    with pytest.raises(ValueError):
        poly(rand_vector(3))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda f, x, y: f(x, y), "expected 3 vectors, got 2", id="count"),
        pytest.param(lambda f, x, y: f(x, y, y), "slot 2 expects length 4, got 3", id="length"),
        pytest.param(lambda f, x, y: PolyProblem(2, 0), "dim must be at least 1", id="dim"),
    ],
)
def test_form_input_checks(call, message):
    form = rand_form((2, 3, 4))
    with pytest.raises(ValueError, match=message):
        call(form, rand_vector(2), rand_vector(3))


def test_add_term_takes_a_plain_number_as_a_real_coefficient():
    poly = PolyProblem(2, 2)
    poly.add_term((2, 1), 2.5)
    assert poly.coeffs == {(1, 2): CQuat(2.5)}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_add_term_rejects_non_finite_coefficients(bad):
    poly = PolyProblem(2, 2)
    with pytest.raises(ValueError, match="finite"):
        poly.add_term((1, 2), CQuat(0.0, bad))
    assert poly.coeffs == {}


def test_add_term_rejects_an_overflowing_sum():
    poly = PolyProblem(2, 2)
    poly.add_term((1, 2), CQuat(1e308))
    with pytest.raises(ValueError, match="finite"):
        poly.add_term((2, 1), CQuat(1e308))
    assert poly.coeffs == {(1, 2): CQuat(1e308)}


def test_lift_skips_zero_entries():
    data = np.zeros((2, 3, 4))
    data[0, 2] = [1.0, 0.0, -2.0, 0.0]
    data[1, 0] = [0.0, 0.0, 0.0, 0.5]
    data[1, 1] = [-0.0, 0.0, -0.0, 0.0]
    lifted = lift_to_poly(MultilinearForm(CQTensor(data)))
    assert lifted.coeffs == {(1, 5): CQuat(1.0, 0.0, -2.0, 0.0), (2, 3): CQuat(0.0, 0.0, 0.0, 0.5)}
