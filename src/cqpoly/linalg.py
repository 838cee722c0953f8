"""Vectors, matrices and dense tensors over commutative quaternions.

Storage convention: every container wraps a read-only float64 ndarray whose
last axis has length 4 and holds the (1, i, j, k) components. A vector is
(n, 4), a matrix (m, n, 4), an order-d tensor (n1, ..., nd, 4).

The real embedding used by the exact bilinear solver stacks the component
vectors in the fixed order (x0; x1; x2; x3), and maps a matrix A to the
4m x 4n real grid

    [[ A0, -A1,  A2, -A3],
     [-A1, -A0, -A3, -A2],
     [ A2, -A3,  A0, -A1],
     [-A3, -A2, -A1, -A0]]

so that Re(x^T A y) = vec(x)^T block(A) vec(y) for all x, y. The grid is
kept as an independent oracle; the solvers do not use it.

The solvers work in C+C coordinates instead. The idempotents
e1 = (1 + j)/2 and e2 = (1 - j)/2 split q = w + x i + y j + z k as
q = z1 e1 + z2 e2 with the complex numbers

    z1 = (w + y) + i (x + z),    z2 = (w - y) + i (x - z),

so products act componentwise, the principal conjugate is the complex
conjugate of each component, Re q = (Re z1 + Re z2)/2 and
|q|^2 = (|z1|^2 + |z2|^2)/2 (Pei, Chang & Ding, IEEE TSP 2004; Kosal &
Tosun, AACA 2014). See :func:`cc_split` and :func:`cc_join`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import CQuat


def qprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise commutative quaternion product of two (..., 4) arrays."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            a0 * b0 - a1 * b1 + a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 + a3 * b2,
            a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        ],
        axis=-1,
    )


def qconj(a: np.ndarray) -> np.ndarray:
    """Componentwise principal conjugate of a (..., 4) array."""
    out = a.copy()
    out[..., 1] = -out[..., 1]
    out[..., 3] = -out[..., 3]
    return out


def cc_split(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The C+C components (z1, z2) of a (..., 4) array, each of shape (...)."""
    w, x, y, z = data[..., 0], data[..., 1], data[..., 2], data[..., 3]
    return (w + y) + 1j * (x + z), (w - y) + 1j * (x - z)


def cc_join(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Inverse of cc_split: the (..., 4) array with C+C components z1 and z2."""
    return 0.5 * np.stack(
        [z1.real + z2.real, z1.imag + z2.imag, z1.real - z2.real, z1.imag - z2.imag], axis=-1
    )


def _freeze(data, ndim: int, what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != 4:
        raise ValueError(f"{what} expects shape {'x'.join(['*'] * (ndim - 1))}x4, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    arr.flags.writeable = False
    return arr


class CQVector:
    """Quaternion vector of length n, wrapping an (n, 4) component array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _freeze(data, 2, "CQVector")
        if len(self.data) == 0:
            raise ValueError("CQVector needs at least one entry")

    @classmethod
    def from_quats(cls, quats: Iterable[CQuat]) -> "CQVector":
        return cls([q.components() for q in quats])

    @classmethod
    def from_real(cls, values) -> "CQVector":
        values = np.asarray(values, dtype=np.float64)
        data = np.zeros((len(values), 4))
        data[:, 0] = values
        return cls(data)

    @classmethod
    def basis(cls, n: int, index: int) -> "CQVector":
        data = np.zeros((n, 4))
        data[index, 0] = 1.0
        return cls(data)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> CQuat:
        return CQuat(*self.data[i])

    def quats(self) -> list[CQuat]:
        return [CQuat(*row) for row in self.data]

    def norm(self) -> float:
        return float(np.sqrt((self.data**2).sum()))

    def unit(self) -> "CQVector":
        nrm = self.norm()
        if nrm < 1e-300:
            raise ValueError("cannot normalize a zero vector")
        return CQVector(self.data / nrm)

    def conj(self) -> "CQVector":
        return CQVector(qconj(self.data))

    def dot(self, other: "CQVector") -> float:
        """Real inner product Re(self^H other) = sum of componentwise dot products."""
        return inner_product(self, other)

    def __add__(self, other):
        if isinstance(other, CQVector):
            return CQVector(self.data + other.data)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, CQVector):
            return CQVector(self.data - other.data)
        return NotImplemented

    def __neg__(self) -> "CQVector":
        return CQVector(-self.data)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return CQVector(self.data * other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CQVector({[str(q) for q in self.quats()]})"


class CQMatrix:
    """Quaternion matrix of shape (m, n), wrapping an (m, n, 4) component array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _freeze(data, 3, "CQMatrix")

    @classmethod
    def from_quats(cls, rows: Sequence[Sequence[CQuat]]) -> "CQMatrix":
        return cls([[q.components() for q in row] for row in rows])

    @classmethod
    def from_real(cls, values) -> "CQMatrix":
        values = np.asarray(values, dtype=np.float64)
        data = np.zeros(values.shape + (4,))
        data[..., 0] = values
        return cls(data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]

    def __getitem__(self, key: tuple[int, int]) -> CQuat:
        i, j = key
        return CQuat(*self.data[i, j])

    def transpose(self) -> "CQMatrix":
        return CQMatrix(self.data.transpose(1, 0, 2))

    def conj(self) -> "CQMatrix":
        return CQMatrix(qconj(self.data))

    def conj_transpose(self) -> "CQMatrix":
        return CQMatrix(qconj(self.data).transpose(1, 0, 2))

    def norm(self) -> float:
        return float(np.sqrt((self.data**2).sum()))

    def __repr__(self) -> str:
        m, n = self.shape
        return f"CQMatrix(shape=({m}, {n}))"


class CQTensor:
    """Dense order-d quaternion tensor, wrapping an (n1, ..., nd, 4) array."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim < 2 or arr.shape[-1] != 4:
            raise ValueError(f"CQTensor expects shape n1x...xndx4, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("CQTensor entries must be finite")
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def from_real(cls, values) -> "CQTensor":
        values = np.asarray(values, dtype=np.float64)
        data = np.zeros(values.shape + (4,))
        data[..., 0] = values
        return cls(data)

    @classmethod
    def zeros(cls, dims: Sequence[int]) -> "CQTensor":
        return cls(np.zeros(tuple(dims) + (4,)))

    @property
    def order(self) -> int:
        return self.data.ndim - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape[:-1]

    def __getitem__(self, idx) -> CQuat:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.order:
            raise ValueError(f"expected {self.order} indices, got {len(idx)}")
        return CQuat(*self.data[tuple(idx)])

    def norm(self) -> float:
        return float(np.sqrt((self.data**2).sum()))

    def __repr__(self) -> str:
        return f"CQTensor(dims={self.dims})"


@dataclass(frozen=True)
class RealBlockMatrix:
    """4m x 4n real matrix reproducing Re(x^T A y) on stacked component vectors.

    Row blocks follow the (x0, x1, x2, x3) order and column blocks the
    (y0, y1, y2, y3) order used by :func:`vec_real`.
    """

    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def inner_product(q: CQVector, p: CQVector) -> float:
    """Re(q^H p): the sum q0.p0 + q1.p1 + q2.p2 + q3.p3, always real."""
    if len(q) != len(p):
        raise ValueError(f"length mismatch: {len(q)} vs {len(p)}")
    return float((q.data * p.data).sum())


def re_bilinear(x: CQVector, A: CQMatrix, y: CQVector) -> float:
    """Re(x^T A y) with a plain transpose, computed in quaternion arithmetic."""
    m, n = A.shape
    if len(x) != m or len(y) != n:
        raise ValueError(f"dimension mismatch: x has {len(x)}, A is {m}x{n}, y has {len(y)}")
    Ay = qprod(A.data, y.data[None, :, :]).sum(axis=1)
    s = qprod(x.data, Ay).sum(axis=0)
    return float(s[0])


def real_block(A: CQMatrix) -> RealBlockMatrix:
    """Real 4m x 4n embedding of A whose bilinear form equals re_bilinear."""
    m, n = A.shape
    A0, A1, A2, A3 = (A.data[..., c] for c in range(4))
    grid = [
        [A0, -A1, A2, -A3],
        [-A1, -A0, -A3, -A2],
        [A2, -A3, A0, -A1],
        [-A3, -A2, -A1, -A0],
    ]
    out = np.empty((4 * m, 4 * n))
    for bi in range(4):
        for bj in range(4):
            out[bi * m : (bi + 1) * m, bj * n : (bj + 1) * n] = grid[bi][bj]
    out.flags.writeable = False
    return RealBlockMatrix(out)


def vec_real(x: CQVector) -> np.ndarray:
    """Stack the component vectors as (x0; x1; x2; x3); preserves the norm."""
    return np.concatenate([x.data[:, c] for c in range(4)])


def unvec_real(stacked: np.ndarray) -> CQVector:
    """Inverse of vec_real."""
    stacked = np.asarray(stacked, dtype=np.float64)
    if stacked.ndim != 1 or stacked.size % 4 != 0:
        raise ValueError(f"expected a flat vector of length 4n, got shape {stacked.shape}")
    n = stacked.size // 4
    return CQVector(np.stack([stacked[c * n : (c + 1) * n] for c in range(4)], axis=-1))


def outer_product(vectors: Sequence[CQVector]) -> CQTensor:
    """Order-d tensor with entries given by the quaternion product of slot entries.

    Note the norm of the result is not determined by the factor norms: with
    zero divisors present, unit factors can produce a zero tensor.
    """
    if not vectors:
        raise ValueError("outer_product needs at least one vector")
    data = vectors[0].data
    for vec in vectors[1:]:
        left = data.reshape(data.shape[:-1] + (1, 4))
        right = vec.data.reshape((1,) * (data.ndim - 1) + vec.data.shape)
        data = qprod(left, right)
    return CQTensor(data)


def tensor_inner(T: CQTensor, K: CQTensor) -> float:
    """Sum of the four real component-tensor inner products."""
    if T.dims != K.dims:
        raise ValueError(f"shape mismatch: {T.dims} vs {K.dims}")
    return float((T.data * K.data).sum())


def tensor_norm(T: CQTensor) -> float:
    return T.norm()
