"""Text file formats for tensors and polynomials, the CSV report writer and the file writer.

Tensor files (UTF-8, LF line endings):

    CQT1
    order <d>
    dims <n1> <n2> ... <nd>
    <i1> <i2> ... <id> <re> <im_i> <im_j> <im_k>

Indices are 1-based; entries not listed are zero; listing the same index
tuple twice is an error. Polynomial files replace the first three lines by
``CQP1``, ``degree <d>`` and ``dim <n>``, and every index tuple must be
sorted nondecreasing; duplicate tuples sum into one coefficient. Every
component must be finite: ``nan``, ``inf``, an overflowing literal such as
``1e999`` or an overflowing duplicate sum is a ParseError naming its line.

Entry lines are read by one np.loadtxt call and checked as whole arrays.
If that fails, a per-line reader words the ParseError or reads the tokens
loadtxt refuses (``1_0``), so int() and float() decide what is accepted.

Writers emit entries in lexicographic index order with shortest round-trip
float representations and skip exact zeros, so parse followed by serialize
is byte-identical on canonical files.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import warnings
from pathlib import Path

import numpy as np

from .core import CQuat
from .forms import PolyProblem
from .linalg import CQTensor

TENSOR_MAGIC = "CQT1"
POLY_MAGIC = "CQP1"


class ParseError(ValueError):
    """Malformed input file; the message reads '<source>:<lineno>: <message>'."""

    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")


def _numbers(source: str, lineno: int, tokens: list[str], kind: type) -> list:
    """The tokens converted by kind (int or float); a bad token is a ParseError."""
    values = []
    for tok in tokens:
        try:
            values.append(kind(tok))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ParseError(source, lineno, f"expected {noun}, got {tok!r}") from None
    return values


def _keyword_line(lines, source: str, lineno: int, keyword: str, count: int) -> tuple[int, list[int]]:
    """The next line, which must read '<keyword>' and count positive integers: its number and values."""
    lineno, line = next(lines, (lineno + 1, None))
    if line is None:
        raise ParseError(source, lineno, f"missing {keyword} line")
    tokens = line.split()
    if len(tokens) != count + 1 or tokens[0] != keyword:
        raise ParseError(source, lineno, f"expected {keyword!r} with {count} integer(s), got {line!r}")
    values = _numbers(source, lineno, tokens[1:], int)
    if min(values) < 1:
        raise ParseError(source, lineno, f"{keyword} must be positive, got {line!r}")
    return lineno, values


def _read_header(text: str, source: str, magic: str, first: str, second: str, per_slot: bool):
    """Check the magic line and the two keyword lines: d, then d integers if per_slot, else one.

    Returns the lines after the header, the number of the first of them, d
    and the integers of the second keyword line.
    """
    lines = text.splitlines()
    numbered = ((k, line) for k, line in enumerate(map(str.strip, lines), start=1) if line)
    lineno, line = next(numbered, (1, None))
    if line != magic:
        message = "empty file" if line is None else f"expected header {magic!r}, got {line!r}"
        raise ParseError(source, lineno, message)
    lineno, (d,) = _keyword_line(numbered, source, lineno, first, 1)
    lineno, values = _keyword_line(numbered, source, lineno, second, d if per_slot else 1)
    return lines[lineno:], lineno + 1, d, values


def _bulk_entries(text: str, body: list[str], d: int) -> tuple[np.ndarray, np.ndarray]:
    """Entry lines by one loadtxt call: index tuples (count, d), range unchecked, and finite components (count, 4)."""
    if not text.isascii():  # loadtxt reads some non-ASCII letters as digits
        raise ValueError("text is not ASCII")
    if not any(map(str.strip, body)):  # loadtxt warns on input without data
        return np.empty((0, d), np.intp), np.empty((0, 4))
    dtype = [("i", np.intp, (d,)), ("v", np.float64, (4,))]
    with warnings.catch_warnings():  # some numpy from 1.23 on read '2.7' as 2 with only this warning
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)  # loadtxt then raises ValueError
        entries = np.loadtxt(body, dtype=dtype, comments=None, ndmin=1)
    if not np.isfinite(entries["v"]).all():
        raise ValueError("a component is not finite")
    return entries["i"], entries["v"]


def _read_entries(body: list[str], start: int, source: str, sizes: list[int]):
    """Line numbers, 1-based index tuples and (count, 4) components of the nonblank body lines, numbered from start.

    Index k of a line must lie in 1..sizes[k]. The components must be
    finite, which is checked once, after the last line.
    """
    d = len(sizes)
    linenos, idxs, rows = [], [], []
    for lineno, line in enumerate(body, start=start):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != d + 4:
            message = f"expected {d} indices and 4 components, got {len(tokens)} tokens"
            raise ParseError(source, lineno, message)
        idx = tuple(_numbers(source, lineno, tokens[:d], int))
        for k, (i, n) in enumerate(zip(idx, sizes)):
            if not 1 <= i <= n:
                raise ParseError(source, lineno, f"index {i} out of range 1..{n} in slot {k + 1}")
        linenos.append(lineno)
        idxs.append(idx)
        rows.append(_numbers(source, lineno, tokens[d:], float))
    values = np.array(rows, dtype=np.float64).reshape(-1, 4)
    if not np.isfinite(values).all():
        first = int(np.isfinite(values).all(axis=1).argmin())
        raise ParseError(source, linenos[first], "components must be finite")
    return linenos, idxs, values


def _dumps(header: list[str], entries) -> str:
    """The header lines, then one line of indices and components per entry that is not all zero."""
    lines = header + [
        " ".join(map(str, idx)) + " " + " ".join(map(repr, comps)) for idx, comps in entries if any(comps)
    ]
    return "\n".join(lines) + "\n"


def loads_tensor(text: str, source: str = "<string>") -> CQTensor:
    body, start, _, dims = _read_header(text, source, TENSOR_MAGIC, "order", "dims", per_slot=True)
    try:  # a ValueError here, as ravel_multi_index's on an index out of range, has the lines read again
        idxs, values = _bulk_entries(text, body, len(dims))
        flat = np.ravel_multi_index(tuple(idxs.T - 1), dims)
        if (np.diff(np.sort(flat)) == 0).any():
            raise ValueError("repeated index tuple")
    except ValueError:
        linenos, idxs, values = _read_entries(body, start, source, dims)
        seen: set[tuple[int, ...]] = set()
        for lineno, idx in zip(linenos, idxs):
            if idx in seen:
                raise ParseError(source, lineno, f"duplicate entry for indices {' '.join(map(str, idx))}")
            seen.add(idx)
    data = np.zeros(tuple(dims) + (4,))
    data[tuple(np.asarray(idxs, dtype=np.intp).reshape(-1, len(dims)).T - 1)] = values
    return CQTensor(data)


def dumps_tensor(tensor: CQTensor) -> str:
    indices = itertools.product(*(range(1, n + 1) for n in tensor.dims))
    header = [TENSOR_MAGIC, f"order {tensor.order}", "dims " + " ".join(map(str, tensor.dims))]
    return _dumps(header, zip(indices, tensor.data.reshape(-1, 4).tolist()))


def _read_text(path: Path) -> str:
    """The file's text; a byte that is not UTF-8 is a ParseError naming its line as the parser numbers it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:  # read() decodes the whole file at once, so err.object is all of it
        lineno = len((err.object[: err.start].decode("utf-8") + "?").splitlines())
        raise ParseError(str(path), lineno, f"not UTF-8: byte {err.object[err.start]:#04x} ({err.reason})") from None


def read_tensor(path) -> CQTensor:
    path = Path(path)
    return loads_tensor(_read_text(path), source=str(path))


def write_tensor(tensor: CQTensor, path) -> None:
    write_text(path, dumps_tensor(tensor))


def loads_poly(text: str, source: str = "<string>") -> PolyProblem:
    body, start, degree, (dim,) = _read_header(text, source, POLY_MAGIC, "degree", "dim", per_slot=False)
    try:  # a ValueError here, as add_term's on an index out of range, has the lines read again
        idxs, values = _bulk_entries(text, body, degree)
        if (idxs[:, 1:] < idxs[:, :-1]).any():
            raise ValueError("unsorted index tuple")
        poly = PolyProblem(degree=degree, dim=dim)
        for key, comps in zip(idxs.tolist(), values.tolist()):
            poly.add_term(key, CQuat(*comps))
    except ValueError:
        linenos, idxs, values = _read_entries(body, start, source, [dim] * degree)
        poly = PolyProblem(degree=degree, dim=dim)
        for lineno, idx, comps in zip(linenos, idxs, values.tolist()):
            if any(a > b for a, b in zip(idx, idx[1:])):
                raise ParseError(source, lineno, f"index tuple must be sorted nondecreasing: {list(idx)}")
            try:
                poly.add_term(idx, CQuat(*comps))
            except ValueError as exc:
                raise ParseError(source, lineno, str(exc)) from None
    return poly


def dumps_poly(poly: PolyProblem) -> str:
    header = [POLY_MAGIC, f"degree {poly.degree}", f"dim {poly.dim}"]
    return _dumps(header, ((idx, coeff.components()) for idx, coeff in sorted(poly.coeffs.items())))


def read_poly(path) -> PolyProblem:
    path = Path(path)
    return loads_poly(_read_text(path), source=str(path))


def write_poly(poly: PolyProblem, path) -> None:
    write_text(path, dumps_poly(poly))


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 with LF line endings, whatever the platform's os.linesep."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def timestamp_line(prefix: str, suffix: str = "") -> str:
    """'<prefix>generated <UTC time><suffix>', the first line of a non-deterministic output."""
    now = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    return f"{prefix}generated {now}{suffix}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(header: str, rows, deterministic: bool) -> str:
    """CSV text: a timestamp comment unless deterministic, the header, then one line per row.

    Cells: None is empty, a bool is true/false, a float is written with
    repr (shortest round trip) and anything else with str.
    """
    lines = [] if deterministic else [timestamp_line("# ")]
    lines.append(header)
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
