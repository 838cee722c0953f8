"""Independent checks for the benchmark, written without calling cqpoly.

Commutative quaternion products come from the defining multiplication
table of the basis (1, i, j, k):

    i^2 = k^2 = -1,  j^2 = 1,  ij = ji = k,  jk = kj = i,  ik = ki = -j.

Arrays follow the cqpoly storage convention only in layout: the last axis
has length 4 and holds the (1, i, j, k) components.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import betainc

# TABLE[p][q] = (sign, r): e_p * e_q = sign * e_r for the basis (1, i, j, k).
TABLE = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (1, 3), (1, 0), (1, 1)),
    ((1, 3), (-1, 2), (1, 1), (-1, 0)),
)

STRUCT = np.zeros((4, 4, 4))
for _p, _row in enumerate(TABLE):
    for _q, (_sign, _r) in enumerate(_row):
        STRUCT[_p, _q, _r] = _sign


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of two broadcastable (..., 4) arrays."""
    return np.einsum("...p,...q,pqr->...r", a, b, STRUCT)


def contract(data: np.ndarray, vectors) -> np.ndarray:
    """Multiply the leading slots of an (n1, ..., nd, 4) array by the vectors and sum."""
    for x in vectors:
        data = np.einsum("i...p,iq,pqr->...r", data, x, STRUCT)
    return data


def re_form(data: np.ndarray, vectors) -> float:
    """Re F(x1, ..., xd) for the tensor data and one (n_k, 4) array per slot."""
    return float(contract(data, vectors)[0])


def re_poly(coeffs: dict, x: np.ndarray) -> float:
    """Re H(x) for 1-based sorted index tuples mapped to (4,) coefficient arrays."""
    total = np.zeros(4)
    for idx, coeff in coeffs.items():
        term = np.asarray(coeff, dtype=np.float64)
        for i in idx:
            term = qmul(term, x[i - 1])
        total += term
    return float(total[0])


def outer(factors) -> np.ndarray:
    """Order-d tensor whose entries are the products of the slot entries."""
    data = np.asarray(factors[0], dtype=np.float64)
    for f in factors[1:]:
        data = np.einsum("...p,jq,pqr->...jr", data, f, STRUCT)
    return data


def norm(data: np.ndarray) -> float:
    return float(np.sqrt((np.asarray(data) ** 2).sum()))


def components(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two complex components in the idempotent basis (1 + j)/2, (1 - j)/2.

    With q = w + x i + y j + z k, q (1 + j)/2 = ((w + y) + (x + z) i)(1 + j)/2
    and q (1 - j)/2 = ((w - y) + (x - z) i)(1 - j)/2, and i acts as the
    imaginary unit on both halves.
    """
    w, x, y, z = (data[..., c] for c in range(4))
    return (w + y) + 1j * (x + z), (w - y) + 1j * (x - z)


def unfold(data: np.ndarray, k: int) -> np.ndarray:
    return np.moveaxis(data, k, 0).reshape(data.shape[k], -1)


def certified_bound(data: np.ndarray) -> float:
    """2^(d/2 - 1) max_c min_k |unfold_k(T_c)|_2, an upper bound on Re F over unit spheres.

    Re F is the mean of the real parts of the two complex component forms,
    whose arguments have squared norms summing to 2 per slot; the spectral
    norm of each matricization bounds the component's spectral norm.
    """
    d = data.ndim - 1
    per_component = [
        min(float(np.linalg.norm(unfold(comp, k), 2)) for k in range(d)) for comp in components(data)
    ]
    return 2.0 ** (d / 2 - 1) * max(per_component)


def symmetrize(coeffs: dict, degree: int, dim: int) -> np.ndarray:
    """Dense super-symmetric tensor whose diagonal restriction is the polynomial."""
    data = np.zeros((dim,) * degree + (4,))
    for idx, coeff in coeffs.items():
        perms = set(itertools.permutations(idx))
        for perm in perms:
            data[tuple(i - 1 for i in perm)] += np.asarray(coeff) / len(perms)
    return data


def tail_prob(n: int, t: float) -> float:
    """P(<w, xi> >= t |w|) for xi uniform on the unit sphere of R^(4n), 0 <= t < 1."""
    return 0.5 * float(betainc((4 * n - 1) / 2, 0.5, 1.0 - t * t))


def all_ones_optimum(n: int) -> float:
    """sqrt(2) n^(3/2), the maximum of Re F for the real all-ones n x n x n tensor."""
    return math.sqrt(2.0) * n**1.5
