import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqpoly
from cqpoly import CQuat
from cqpoly.linalg import qprod

from .oracles import qmul

rng = np.random.default_rng(20240811)
# the component arrays of 1, i, j and k
ONE, I, J, K = np.eye(4)


def rand_quat(scale=1.0):
    return scale * rng.uniform(-1, 1, size=4)


def test_unit_products():
    assert np.array_equal(qprod(I, J), K)
    assert np.array_equal(qprod(J, I), K)
    assert np.array_equal(qprod(J, K), I)
    assert np.array_equal(qprod(K, J), I)
    assert np.array_equal(qprod(K, I), [0.0, 0.0, -1.0, 0.0])
    assert np.array_equal(qprod(I, I), -ONE)
    assert np.array_equal(qprod(J, J), ONE)
    assert np.array_equal(qprod(K, K), -ONE)


def test_zero_divisor_product_is_exactly_zero():
    assert np.array_equal(qprod(ONE + J, ONE - J), np.zeros(4))


def test_complex_like_product():
    assert np.array_equal(qprod(ONE + I, ONE - I), 2 * ONE)


def test_magnitude_not_multiplicative():
    # computed directly through the product: unit-scale zero divisors annihilate
    p, q = ONE + J, ONE - J
    assert np.linalg.norm(qprod(p, q)) == 0.0
    assert np.linalg.norm(p) * np.linalg.norm(q) == pytest.approx(2.0)


components = st.floats(-4.0, 4.0)
# (1 + j)(1 - j) = (i + k)(i - k) = 0, so scaled copies of these are zero-divisor pairs
quats = st.one_of(
    st.tuples(components, components, components, components).map(np.array),
    st.builds(lambda s, z: s * z, components, st.sampled_from([ONE + J, ONE - J, I + K, I - K])),
)


def assert_close(a, b, tol):
    assert max(abs(x - y) for x, y in zip(np.ravel(a), np.ravel(b))) <= tol


ring_law = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@ring_law
@given(p=quats, q=quats)
@example(p=ONE + J, q=ONE - J)
def test_commutativity(p, q):
    assert_close(qprod(p, q), qprod(q, p), 1e-12)


@ring_law
@given(p=quats, q=quats, r=quats)
@example(p=ONE + J, q=ONE - J, r=I - K)
def test_associativity(p, q, r):
    assert_close(qprod(qprod(p, q), r), qprod(p, qprod(q, r)), 1e-10)


@ring_law
@given(p=quats, q=quats, r=quats)
@example(p=ONE + J, q=ONE - J, r=I - K)
def test_distributivity(p, q, r):
    assert_close(qprod(p, q + r), qprod(p, q) + qprod(p, r), 1e-12)


def test_magnitude_squared_is_re_q_conj_q():
    for _ in range(200):
        q = rand_quat(3.0)
        conj = q * np.array([1.0, -1.0, 1.0, -1.0])  # the principal conjugate negates i and k
        assert qprod(q, conj)[0] == pytest.approx(np.linalg.norm(q) ** 2, abs=1e-12)


@ring_law
@given(p=quats, q=quats)
@example(p=ONE + J, q=ONE - J)
def test_scalar_product_matches_array_product(p, q):
    # the independent reference and the array product implement the same multiplication table
    assert qprod(p, q).tobytes() == np.array(qmul(p.tolist(), q.tolist())).tobytes()


def test_real_scalar_operations():
    q = CQuat(1, 2, 3, 4)
    assert q + q == CQuat(2, 4, 6, 8)
    assert -q == CQuat(-1, -2, -3, -4)


def test_rendering_fixed_component_order():
    assert str(CQuat(1, -2, 0.5, -1)) == "1 - 2i + 0.5j - 1k"
    assert str(CQuat()) == "0 + 0i + 0j + 0k"


def test_every_exported_name_resolves():
    assert len(set(cqpoly.__all__)) == len(cqpoly.__all__)
    for name in cqpoly.__all__:
        assert getattr(cqpoly, name) is not None
