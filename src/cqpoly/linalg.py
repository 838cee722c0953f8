"""Vectors, matrices and dense tensors over commutative quaternions.

A value q = w + x*i + y*j + z*k multiplies under the rules

    i*i = k*k = -1,   j*j = +1,
    i*j = j*i = k,    j*k = k*j = i,    k*i = i*k = -j,

computed by :func:`qprod`. Multiplication is commutative and associative,
and the ring has zero divisors such as (1+j)*(1-j) = 0, so the magnitude is
not multiplicative and no division is provided.

Storage convention: every container wraps a read-only float64 ndarray whose
last axis has length 4 and holds the (1, i, j, k) components. A vector is
(n, 4) and an order-d tensor (n1, ..., nd, 4); a matrix is the order-2
tensor (m, n, 4). Containers hold storage only: arithmetic and indexing
act on ``.data`` with numpy.

The solvers work in C+C coordinates. The idempotents
e1 = (1 + j)/2 and e2 = (1 - j)/2 split q = w + x i + y j + z k as
q = z1 e1 + z2 e2 with the complex numbers

    z1 = (w + y) + i (x + z),    z2 = (w - y) + i (x - z),

so products act componentwise, the principal conjugate is the complex
conjugate of each component, Re q = (Re z1 + Re z2)/2 and
|q|^2 = (|z1|^2 + |z2|^2)/2 (Pei, Chang & Ding, IEEE TSP 2004; Kosal &
Tosun, AACA 2014). See :func:`cc_split` and :func:`cc_join`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import CQuat

# norm() and best_rank_one scale an array whose largest entry lies outside
# 2^(+-SAFE_EXPONENT) by an exact power of two, so that no square overflows or underflows.
SAFE_EXPONENT = 400


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


def cc_split(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The C+C components (z1, z2) of a (..., 4) array, each of shape (...)."""
    w, x, y, z = data[..., 0], data[..., 1], data[..., 2], data[..., 3]
    return (w + y) + 1j * (x + z), (w - y) + 1j * (x - z)


def cc_join(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Inverse of cc_split: the (..., 4) array with C+C components z1 and z2."""
    return 0.5 * np.stack(
        [z1.real + z2.real, z1.imag + z2.imag, z1.real - z2.real, z1.imag - z2.imag], axis=-1
    )


def scale_exponent(data: np.ndarray) -> int:
    """The e of the largest |entry| m 2^e (1/2 <= m < 1) when |e| > SAFE_EXPONENT, else 0."""
    e = math.frexp(float(np.abs(data).max(initial=0.0)))[1]
    return e if abs(e) > SAFE_EXPONENT else 0


def _freeze(data, ndim: int | None, what: str) -> np.ndarray:
    """A read-only float64 copy of data with ndim axes (None: at least 2), the last of length 4."""
    arr = np.array(data, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != 4 or ndim not in (None, arr.ndim):
        shape = "n1x...xnd" if ndim is None else "x".join(["*"] * (ndim - 1))
        raise ValueError(f"{what} expects shape {shape}x4, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    arr.flags.writeable = False
    return arr


class _Container:
    """What the containers share: the read-only component array ``data``."""

    __slots__ = ("data",)

    @classmethod
    def from_real(cls, values):
        values = np.asarray(values, dtype=np.float64)
        data = np.zeros(values.shape + (4,))
        data[..., 0] = values
        return cls(data)

    def norm(self) -> float:
        """Frobenius norm, from data / 2^e for e = scale_exponent(data) (e = 0 scales by 1); inf past float range."""
        e = scale_exponent(self.data)
        scaled = float(np.sqrt((np.ldexp(self.data, -e) ** 2).sum()))
        try:
            return math.ldexp(scaled, e)
        except OverflowError:
            return math.inf


class CQVector(_Container):
    """Quaternion vector of length n, wrapping an (n, 4) component array."""

    __slots__ = ()

    def __init__(self, data):
        self.data = _freeze(data, 2, "CQVector")
        if len(self.data) == 0:
            raise ValueError("CQVector needs at least one entry")

    @classmethod
    def basis(cls, n: int, index: int) -> "CQVector":
        data = np.zeros((n, 4))
        data[index, 0] = 1.0
        return cls(data)

    def __len__(self) -> int:
        return len(self.data)

    def quats(self) -> list[CQuat]:
        return [CQuat(*row) for row in self.data]

    def __repr__(self) -> str:
        return f"CQVector({[str(q) for q in self.quats()]})"


class CQTensor(_Container):
    """Dense order-d quaternion tensor, wrapping an (n1, ..., nd, 4) array."""

    __slots__ = ()

    def __init__(self, data):
        self.data = _freeze(data, None, "CQTensor")

    @property
    def order(self) -> int:
        return self.data.ndim - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape[:-1]

    def __repr__(self) -> str:
        return f"CQTensor(dims={self.dims})"


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

