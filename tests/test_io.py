import itertools
import warnings
from unittest import mock

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
from cqpoly import io

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
    # checked before the tensor is allocated, so no allocation error hides it
    with pytest.raises(ParseError, match=r":4:.*finite"):
        loads_tensor(f"CQT1\norder 3\ndims 100000 100000 100000\n1 1 1 {token} 0.0 0.0 0.0\n")


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


def bulk_reader_only():
    # a canonical file is read by np.loadtxt alone; the per-line reader is only for the rest
    return mock.patch.object(io, "_read_entries", side_effect=AssertionError("the per-line reader ran"))


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
    with bulk_reader_only():
        again = loads_tensor(text)
    assert np.array_equal(again.data, tensor.data)
    assert dumps_tensor(again) == text


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(poly=polys())
def test_poly_round_trip_property(poly):
    text = dumps_poly(poly)
    with bulk_reader_only():
        again = loads_poly(text)
    nonzero = {idx: c.components() for idx, c in poly.terms() if any(c.components())}
    assert {idx: c.components() for idx, c in again.terms()} == nonzero
    assert dumps_poly(again) == text


def test_product_of_dims_past_intp_keeps_the_allocation_error():
    # ravel_multi_index refuses such dims; the per-line reader then reaches np.zeros's own error
    with pytest.raises(ValueError) as expected:
        np.zeros((3000000,) * 3 + (4,))
    with pytest.raises(ValueError) as got:
        loads_tensor("CQT1\norder 3\ndims 3000000 3000000 3000000\n3 2 1 1.0 0.0 0.0 0.0\n")
    assert type(got.value) is ValueError and str(got.value) == str(expected.value)


def file_solves_shaped_texts():
    # the shapes of the benchmark's file-solves inputs, standard normal entries
    g = np.random.default_rng(5)
    texts = [dumps_tensor(CQTensor(g.normal(size=dims + (4,)))) for dims in [(4, 5, 6), (3, 3, 4, 5), (5, 5, 5)]]
    for degree, dim in [(3, 5), (4, 4)]:
        keys = itertools.combinations_with_replacement(range(1, dim + 1), degree)
        texts.append(dumps_poly(PolyProblem(degree, dim, {idx: CQuat(*g.normal(size=4)) for idx in keys})))
    return texts


def test_canonical_files_take_the_bulk_path():
    for text in file_solves_shaped_texts():
        loads = loads_tensor if text.startswith("CQT1") else loads_poly
        dumps = dumps_tensor if text.startswith("CQT1") else dumps_poly
        with bulk_reader_only():
            assert dumps(loads(text)) == text
            assert dumps(loads(text.replace(" ", "\t").replace("\n", "\r\n\n"))) == text
    with bulk_reader_only(), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not loads_tensor("CQT1\norder 2\ndims 2 3\n").data.any()
        assert not loads_tensor("CQT1\norder 2\ndims 2 3\n\n \t\n").data.any()
        assert loads_poly("CQP1\ndegree 2\ndim 3\n").terms() == []
        assert loads_poly("CQP1\ndegree 2\ndim 3\n  \n").terms() == []


# Tokens that only int() or float() read, that neither reads, or that test a check.
WORDS = [
    "-0.0", "5e-324", "1e999", "nan", "inf", "Infinity", "1_0", "\u0661", "+1", "01", "1.0", "0", "-1",
    "99999999999999999999", "#", '"1"', "1,2", "3j",
]
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def entry_files(draw, magic):
    # valid entry lines and blank lines, then up to two edits, each one token or the length of one line
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 11))
    dims = [n] * d if magic == "CQP1" else draw(st.lists(st.integers(1, 11), min_size=d, max_size=d))
    header = [magic, f"degree {d}", f"dim {n}"]
    if magic == "CQT1":
        header[1:] = [f"order {d}", "dims " + " ".join(map(str, dims))]
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        idx = [draw(st.integers(1, k)) for k in dims]
        tokens = list(map(str, sorted(idx) if draw(st.booleans()) else idx))
        tokens += [draw(st.one_of(st.floats().map(repr), st.sampled_from(["1e308", "-0.0"]))) for _ in range(4)]
        lines.append(tokens)
        if draw(st.integers(0, 3)) == 0:
            lines.append([draw(st.sampled_from(["", " ", "\t"]))])
    if draw(st.booleans()):
        lines.append(list(draw(st.sampled_from(lines))))  # a repeated line: a duplicate tuple
    for _ in range(draw(st.integers(0, 2))):
        tokens = draw(st.sampled_from(lines))
        if len(tokens) != d + 4:  # a blank line, or one an earlier edit changed
            continue
        edit = draw(st.sampled_from(["spelled", "index", "component", "short", "long"]))
        k = draw(st.integers(0, d - 1) if edit != "component" else st.integers(d, d + 3))
        if edit == "spelled":  # an index only int() reads: Arabic-Indic digits or an underscore
            tokens[k] = draw(st.sampled_from([tokens[k].translate(ARABIC_INDIC), "0_" + tokens[k]]))
        elif edit in ("index", "component"):
            tokens[k] = draw(st.sampled_from(WORDS))
        elif edit == "short":
            del tokens[draw(st.integers(0, len(tokens) - 1)):]
        else:
            tokens += draw(st.lists(st.sampled_from(WORDS + ["1"]), min_size=1, max_size=3))
    body = [draw(st.sampled_from([" ", "\t", " \t "])).join(tokens) for tokens in lines]
    return draw(st.sampled_from(["\n", "\r\n"])).join(header + body) + "\n"


def parsed(loads, text):
    # a tensor's bytes, a polynomial's keys and coefficient bytes in insertion order, or the error text
    try:
        result = loads(text)
    except ParseError as exc:
        return str(exc)
    if isinstance(result, CQTensor):
        return result.data.shape, result.data.tobytes()
    return list(result.coeffs), np.array([c.components() for c in result.coeffs.values()]).tobytes()


def assert_readers_agree(tensor_text, poly_text):
    bulk = parsed(loads_tensor, tensor_text), parsed(loads_poly, poly_text)
    with mock.patch.object(io, "_bulk_entries", side_effect=ValueError("read by line")):
        assert (parsed(loads_tensor, tensor_text), parsed(loads_poly, poly_text)) == bulk


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tensor_text=entry_files("CQT1"), poly_text=entry_files("CQP1"))
def test_bulk_and_per_line_readers_agree(tensor_text, poly_text):
    assert_readers_agree(tensor_text, poly_text)


@pytest.mark.parametrize("word", WORDS + ["0_1", "\u0661\u0660"])
def test_readers_agree_on_each_word_in_each_slot(word):
    # one token of an otherwise valid file, in an index slot and in a component slot
    for k in range(7):
        tokens = ["1", "2", "2", "0.5", "0.0", "-1.0", "3.0"]
        tokens[k] = word
        line = " ".join(tokens)
        assert_readers_agree(f"CQT1\norder 3\ndims 11 11 11\n{line}\n", f"CQP1\ndegree 3\ndim 11\n{line}\n")


def test_an_index_read_through_a_float_is_refused():
    # some numpy versions from 1.23 on read "2.7" into an integer field as 2 with only a DeprecationWarning,
    # which they raise as a ValueError where the warning is an error
    loadtxt = np.loadtxt

    def old_loadtxt(lines, **kwargs):
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string to int") from exc
        return loadtxt([line.replace("2.7", "2") for line in lines], **kwargs)

    with mock.patch.object(io.np, "loadtxt", old_loadtxt):
        with pytest.raises(ParseError, match=r":4: expected an integer, got '2.7'"):
            loads_tensor("CQT1\norder 2\ndims 3 3\n2.7 1 1.0 0.0 0.0 0.0\n")
        with pytest.raises(ParseError, match=r":4: expected an integer, got '2.7'"):
            loads_poly("CQP1\ndegree 2\ndim 3\n1 2.7 1.0 0.0 0.0 0.0\n")


def test_non_ascii_letters_are_not_read_as_digits():
    # numpy's loadtxt reads U+01FE as a digit, so "\u01fe1" would be the in-range index 4621
    with pytest.raises(ParseError, match=r":4: expected an integer, got '\u01fe1'"):
        loads_tensor("CQT1\norder 1\ndims 5000\n\u01fe1 1.0 0.0 0.0 0.0\n")
