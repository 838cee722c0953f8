import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cqpoly import (
    CQTensor,
    CQuat,
    ParseError,
    PolyProblem,
    dumps_poly,
    dumps_tensor,
    loads_poly,
    loads_tensor,
    read_tensor,
    write_poly,
    write_tensor,
)

TENSOR_TEXT = """CQT1
order 2
dims 2 2
1 1 1.0 0.0 0.0 0.0
1 2 -0.5 1.0 0.0 2.0
2 2 0.25 0.0 -1.0 0.0
"""


def test_tensor_round_trip_is_byte_identical():
    tensor = loads_tensor(TENSOR_TEXT)
    assert dumps_tensor(tensor) == TENSOR_TEXT
    again = loads_tensor(dumps_tensor(tensor))
    assert np.array_equal(again.data, tensor.data)


def test_tensor_unlisted_entries_are_zero():
    tensor = loads_tensor(TENSOR_TEXT)
    assert tensor[1, 0].components() == (0.0, 0.0, 0.0, 0.0)
    assert tensor[0, 1] == CQuat(-0.5, 1.0, 0.0, 2.0)


def test_tensor_file_round_trip(tmp_path):
    path = tmp_path / "t.cqt"
    tensor = CQTensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
    write_tensor(tensor, path)
    again = read_tensor(path)
    assert np.array_equal(again.data, tensor.data)
    write_tensor(again, tmp_path / "t2.cqt")
    assert (tmp_path / "t.cqt").read_bytes() == (tmp_path / "t2.cqt").read_bytes()


def test_tensor_header_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=r":1:"):
        loads_tensor("WRONG\norder 2\ndims 2 2\n")
    with pytest.raises(ParseError, match=r":2:"):
        loads_tensor("CQT1\nnope 2\ndims 2 2\n")
    with pytest.raises(ParseError, match=r":3:"):
        loads_tensor("CQT1\norder 2\ndims 2\n")
    with pytest.raises(ParseError, match="empty"):
        loads_tensor("")


def test_tensor_entry_errors():
    base = "CQT1\norder 2\ndims 2 2\n"
    with pytest.raises(ParseError, match=r":4:.*tokens"):
        loads_tensor(base + "1 1 1.0\n")
    with pytest.raises(ParseError, match=r":4:.*out of range"):
        loads_tensor(base + "1 3 1.0 0.0 0.0 0.0\n")
    with pytest.raises(ParseError, match=r":5:.*duplicate"):
        loads_tensor(base + "1 1 1.0 0.0 0.0 0.0\n1 1 2.0 0.0 0.0 0.0\n")
    with pytest.raises(ParseError, match=r":4:.*number"):
        loads_tensor(base + "1 1 abc 0.0 0.0 0.0\n")


POLY_TEXT = """CQP1
degree 3
dim 2
1 1 1 1.0 0.0 0.0 0.0
1 1 2 0.0 -1.0 0.5 0.0
2 2 2 2.0 0.0 0.0 3.0
"""


def test_poly_round_trip_is_byte_identical():
    poly = loads_poly(POLY_TEXT)
    assert dumps_poly(poly) == POLY_TEXT
    assert poly.degree == 3 and poly.dim == 2
    assert poly.coeffs[(1, 1, 2)] == CQuat(0.0, -1.0, 0.5, 0.0)


def test_poly_unsorted_tuple_is_an_error():
    with pytest.raises(ParseError, match=r":4:.*sorted"):
        loads_poly("CQP1\ndegree 2\ndim 2\n2 1 1.0 0.0 0.0 0.0\n")


def test_poly_duplicate_tuples_sum():
    text = "CQP1\ndegree 2\ndim 2\n1 2 1.0 0.0 0.0 0.0\n1 2 0.5 1.0 0.0 0.0\n"
    poly = loads_poly(text)
    assert poly.coeffs[(1, 2)] == CQuat(1.5, 1.0, 0.0, 0.0)


def test_poly_header_and_range_errors():
    with pytest.raises(ParseError, match=r":1:"):
        loads_poly("CQT1\n")
    with pytest.raises(ParseError, match=r":2:"):
        loads_poly("CQP1\ndeg 3\ndim 2\n")
    with pytest.raises(ParseError, match=r":4:.*range"):
        loads_poly("CQP1\ndegree 2\ndim 2\n1 3 1.0 0.0 0.0 0.0\n")


def test_poly_zero_coefficients_skipped_on_write(tmp_path):
    poly = PolyProblem(2, 2)
    poly.add_term((1, 2), CQuat(1.0))
    poly.add_term((1, 1), CQuat(0.0))
    text = dumps_poly(poly)
    assert "1 1 " not in text
    path = tmp_path / "p.cqp"
    write_poly(poly, path)
    assert path.read_text().endswith("1 2 1.0 0.0 0.0 0.0\n")


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "1e999", "-1e999"])
def test_non_finite_components_name_their_line(token):
    with pytest.raises(ParseError, match=r":5:.*finite"):
        loads_tensor(f"CQT1\norder 2\ndims 2 2\n1 1 1.0 0.0 0.0 0.0\n2 1 0.0 {token} 0.0 0.0\n")
    with pytest.raises(ParseError, match=r":5:.*finite"):
        loads_poly(f"CQP1\ndegree 2\ndim 2\n1 1 1.0 0.0 0.0 0.0\n1 2 0.0 0.0 0.0 {token}\n")


def test_overflowing_duplicate_sum_names_its_line():
    with pytest.raises(ParseError, match=r":5:.*finite"):
        loads_poly("CQP1\ndegree 2\ndim 2\n1 2 1e308 0 0 0\n1 2 1e308 0 0 0\n")


def test_header_keyword_errors():
    with pytest.raises(ParseError, match=r":2:.*positive"):
        loads_tensor("CQT1\norder 0\ndims\n")
    with pytest.raises(ParseError, match=r":3:.*positive"):
        loads_tensor("CQT1\norder 2\ndims 2 0\n")
    with pytest.raises(ParseError, match=r":3:.*missing dims"):
        loads_tensor("CQT1\norder 2\n")
    with pytest.raises(ParseError, match=r":2:.*integer"):
        loads_poly("CQP1\ndegree two\ndim 2\n")
    with pytest.raises(ParseError, match=r":3:.*missing dim"):
        loads_poly("CQP1\ndegree 2\n")


# Values that round-trip through text only if repr and float are used exactly:
# signed zeros, the smallest subnormal and the smallest normal number.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0000000000000002]
COMPONENT = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tensors(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return CQTensor(draw(arrays(np.float64, tuple(dims) + (4,), elements=COMPONENT)))


@st.composite
def polys(draw):
    degree, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    keys = list(itertools.combinations_with_replacement(range(1, dim + 1), degree))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    return PolyProblem(degree, dim, {idx: CQuat(*draw(st.tuples(*[COMPONENT] * 4))) for idx in chosen})


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(tensor=tensors())
def test_tensor_round_trip_property(tensor):
    text = dumps_tensor(tensor)
    again = loads_tensor(text)
    assert np.array_equal(again.data, tensor.data)
    assert dumps_tensor(again) == text


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(poly=polys())
def test_poly_round_trip_property(poly):
    text = dumps_poly(poly)
    again = loads_poly(text)
    nonzero = {idx: c.components() for idx, c in poly.terms() if any(c.components())}
    assert {idx: c.components() for idx, c in again.terms()} == nonzero
    assert dumps_poly(again) == text
