import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqpoly
from cqpoly import CQuat, I, J, K, ONE
from cqpoly.linalg import qprod

rng = np.random.default_rng(20240811)


def rand_quat(scale=1.0):
    return CQuat(*(scale * rng.uniform(-1, 1, size=4)))


def test_unit_products():
    assert I * J == K
    assert J * I == K
    assert J * K == I
    assert K * J == I
    assert (K * I).components() == (0.0, 0.0, -1.0, 0.0)
    assert I * I == CQuat(-1)
    assert J * J == CQuat(1)
    assert K * K == CQuat(-1)


def test_zero_divisor_product_is_exactly_zero():
    assert (ONE + J) * (ONE - J) == CQuat()


def test_complex_like_product():
    assert (ONE + I) * (ONE - I) == CQuat(2)


def test_conjugate_examples():
    q = CQuat(1, 1, 1, 1)
    assert q.conj() == CQuat(1, -1, 1, -1)
    assert (q * q.conj()).re == pytest.approx(4.0)


def test_conjugate_is_involution():
    for _ in range(100):
        q = rand_quat(5.0)
        assert q.conj().conj() == q


def test_magnitude():
    assert abs(CQuat(1, 1, 1, 1)) == pytest.approx(2.0)
    assert abs(CQuat()) == 0.0


def test_magnitude_not_multiplicative():
    # computed directly through the product: unit-scale zero divisors annihilate
    p, q = ONE + J, ONE - J
    assert abs(p * q) == 0.0
    assert abs(p) * abs(q) == pytest.approx(2.0)


components = st.floats(-4.0, 4.0)
# (1 + j)(1 - j) = (i + k)(i - k) = 0, so scaled copies of these are zero-divisor pairs
quats = st.one_of(
    st.tuples(components, components, components, components).map(lambda c: CQuat(*c)),
    st.builds(lambda s, z: s * z, components, st.sampled_from([ONE + J, ONE - J, I + K, I - K])),
)


def assert_close(a, b, tol):
    assert max(abs(x - y) for x, y in zip(np.ravel(a), np.ravel(b))) <= tol


ring_law = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def arrays(*qs):
    return (np.array(x.components()) for x in qs)


@ring_law
@given(p=quats, q=quats)
@example(p=ONE + J, q=ONE - J)
def test_commutativity(p, q):
    assert_close((p * q).components(), (q * p).components(), 1e-12)
    a, b = arrays(p, q)
    assert_close(qprod(a, b), qprod(b, a), 1e-12)


@ring_law
@given(p=quats, q=quats, r=quats)
@example(p=ONE + J, q=ONE - J, r=I - K)
def test_associativity(p, q, r):
    assert_close(((p * q) * r).components(), (p * (q * r)).components(), 1e-10)
    a, b, c = arrays(p, q, r)
    assert_close(qprod(qprod(a, b), c), qprod(a, qprod(b, c)), 1e-10)


@ring_law
@given(p=quats, q=quats, r=quats)
@example(p=ONE + J, q=ONE - J, r=I - K)
def test_distributivity(p, q, r):
    assert_close((p * (q + r)).components(), (p * q + p * r).components(), 1e-12)
    a, b, c = arrays(p, q, r)
    assert_close(qprod(a, b + c), qprod(a, b) + qprod(a, c), 1e-12)


def test_magnitude_squared_is_re_q_conj_q():
    for _ in range(200):
        q = rand_quat(3.0)
        assert (q * q.conj()).re == pytest.approx(abs(q) ** 2, abs=1e-12)


def test_scalar_product_matches_array_product():
    # the scalar and vectorized code paths implement the same multiplication table
    for _ in range(200):
        p, q = rand_quat(), rand_quat()
        arr = qprod(np.array(p.components()), np.array(q.components()))
        assert np.allclose(arr, (p * q).components(), atol=1e-14)


def test_real_scalar_operations():
    q = CQuat(1, 2, 3, 4)
    assert 2 * q == CQuat(2, 4, 6, 8)
    assert q * 0.5 == CQuat(0.5, 1, 1.5, 2)
    assert q / 2 == CQuat(0.5, 1, 1.5, 2)
    assert q + 1 == CQuat(2, 2, 3, 4)
    assert -q == CQuat(-1, -2, -3, -4)


def test_rendering_fixed_component_order():
    assert str(CQuat(1, -2, 0.5, -1)) == "1 - 2i + 0.5j - 1k"
    assert str(CQuat()) == "0 + 0i + 0j + 0k"


def test_every_exported_name_resolves():
    assert len(set(cqpoly.__all__)) == len(cqpoly.__all__)
    for name in cqpoly.__all__:
        assert getattr(cqpoly, name) is not None
