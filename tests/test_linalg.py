import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqpoly import (
    CQMatrix,
    CQTensor,
    CQVector,
    I,
    J,
    MultilinearForm,
    ONE,
    cc_join,
    cc_split,
    outer_product,
)
from .oracles import qmul, real_block, vec_real

rng = np.random.default_rng(77101)


def rand_vector(n, scale=1.0):
    return CQVector(scale * rng.uniform(-1, 1, size=(n, 4)))


def rand_matrix(m, n, scale=1.0):
    return CQMatrix(scale * rng.uniform(-1, 1, size=(m, n, 4)))


def re_bilinear(x, A, y):
    """Re(x^T A y), by the package's order-2 form evaluator."""
    return MultilinearForm(CQTensor(A.data))(x, y).re


def test_re_bilinear_scalar_examples():
    one = CQVector([ONE.components()])
    eye = CQMatrix([[ONE.components()]])
    assert re_bilinear(one, eye, one) == pytest.approx(1.0)
    iv = CQVector([I.components()])
    assert re_bilinear(iv, eye, iv) == pytest.approx(-1.0)


def test_real_block_of_real_unit():
    block = real_block(CQMatrix([[ONE.components()]]))
    assert np.array_equal(block, np.diag([1.0, -1.0, 1.0, -1.0]))


def test_real_block_of_imaginary_unit():
    block = real_block(CQMatrix([[I.components()]]))
    expected = np.array(
        [
            [0, -1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, -1, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(block, expected)


def test_real_block_of_all_ones_is_block_diagonal():
    m, n = 2, 3
    block = real_block(CQMatrix.from_real(np.ones((m, n))))
    expected = np.zeros((4 * m, 4 * n))
    for c, sign in enumerate([1.0, -1.0, 1.0, -1.0]):
        expected[c * m : (c + 1) * m, c * n : (c + 1) * n] = sign
    assert np.array_equal(block, expected)


def test_block_embedding_identity():
    for _ in range(200):
        m, n = rng.integers(1, 6, size=2)
        x, A, y = rand_vector(int(m)), rand_matrix(int(m), int(n)), rand_vector(int(n))
        direct = re_bilinear(x, A, y)
        embedded = vec_real(x) @ real_block(A) @ vec_real(y)
        assert abs(direct - embedded) <= 1e-10


def test_cauchy_schwarz_surrogate():
    for _ in range(200):
        n = int(rng.integers(1, 6))
        q, p = rand_vector(n), rand_vector(n)
        re_qp = sum(qmul(qi, pi)[0] for qi, pi in zip(q.data, p.data))
        assert re_qp <= q.norm() * p.norm() + 1e-10


def test_vec_real_examples():
    x = CQVector([(ONE + I).components()])
    assert np.array_equal(vec_real(x), [1.0, 1.0, 0.0, 0.0])
    for _ in range(20):
        v = rand_vector(int(rng.integers(1, 7)))
        assert abs(np.linalg.norm(vec_real(v)) - v.norm()) <= 1e-12


quats = st.tuples(*[st.floats(-1.0, 1.0)] * 4).map(np.array)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(p=quats, q=quats, data=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4), min_size=1, max_size=6))
def test_cc_split_is_a_ring_isomorphism(p, q, data):
    zp, zq = cc_split(p), cc_split(q)
    zpq = cc_split(np.array(qmul(p, q)))
    for c in (0, 1):
        assert zpq[c] == pytest.approx(zp[c] * zq[c], abs=1e-12)
        # the principal conjugate flips the i and k components
        assert cc_split(p * np.array([1.0, -1.0, 1.0, -1.0]))[c] == pytest.approx(zp[c].conjugate())
    assert p[0] == pytest.approx((zp[0].real + zp[1].real) / 2)
    assert np.linalg.norm(p) ** 2 == pytest.approx((abs(zp[0]) ** 2 + abs(zp[1]) ** 2) / 2)
    data = np.array(data)
    assert np.allclose(cc_join(*cc_split(data)), data, atol=1e-15)
    # e1 = (1 + j)/2 and e2 = (1 - j)/2 are the two idempotents
    assert np.allclose(cc_join(np.array(1.0 + 0j), np.array(0j)), [0.5, 0.0, 0.5, 0.0])
    assert np.allclose(cc_join(np.array(0j), np.array(1.0 + 0j)), [0.5, 0.0, -0.5, 0.0])


def test_outer_product_basis():
    x = CQVector.from_real([1.0, 0.0])
    y = CQVector.from_real([0.0, 1.0])
    t = outer_product([x, y])
    expected = np.zeros((2, 2, 4))
    expected[0, 1, 0] = 1.0
    assert np.array_equal(t.data, expected)


def test_outer_product_of_units():
    t = outer_product([CQVector([I.components()]), CQVector([J.components()])])
    assert t[0, 0].components() == (0.0, 0.0, 0.0, 1.0)


def test_outer_product_norm_is_not_multiplicative():
    # zero-divisor-aligned unit factors annihilate; generic ones do not
    plus = CQVector(np.array([[1.0, 0.0, 1.0, 0.0]]) / np.sqrt(2))
    minus = CQVector(np.array([[1.0, 0.0, -1.0, 0.0]]) / np.sqrt(2))
    assert outer_product([plus, minus]).norm() == pytest.approx(0.0)
    assert plus.norm() * minus.norm() == pytest.approx(1.0)
    for _ in range(20):
        x, y = rand_vector(2), rand_vector(3)
        got = outer_product([x, y]).norm()
        assert np.isfinite(got)


def test_tensor_norms():
    t = CQTensor.from_real(np.ones((2, 2, 2)))
    assert t.norm() == pytest.approx(np.sqrt(8.0))
    single = CQTensor(np.array([[1.0, 1.0, 1.0, 1.0]]))
    assert single.norm() == pytest.approx(2.0)
    assert CQVector.from_real([1.5e308, 1.5e308]).norm() == np.inf
    assert CQTensor.zeros((0, 3)).norm() == 0.0


def test_tensor_norm_equals_component_sum_of_squares():
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=3))
        data = rng.normal(size=dims + (4,))
        t = CQTensor(data)
        assert t.norm() ** 2 == pytest.approx((data**2).sum(), rel=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: CQVector(np.ones((3, 3))),
            r"CQVector expects shape \*x4, got \(3, 3\)",
            id="shape",
        ),
        pytest.param(
            lambda: CQTensor([[0.0, 1.0, math.nan, 0.0]]),
            "CQTensor entries must be finite",
            id="nan",
        ),
        pytest.param(
            lambda: CQVector(np.ones((0, 4))),
            "CQVector needs at least one entry",
            id="empty",
        ),
        pytest.param(
            lambda: outer_product([]),
            "outer_product needs at least one vector",
            id="no-factor",
        ),
    ],
)
def test_container_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_vectors_are_read_only():
    v = rand_vector(3)
    with pytest.raises(ValueError):
        v.data[0, 0] = 99.0
