"""Multilinear forms, homogeneous polynomials, and the bridges between them.

A multilinear form is the full contraction of an order-d tensor against d
quaternion vectors; a homogeneous polynomial of degree d keeps a sparse
coefficient map on sorted index tuples. Symmetrization spreads each
coefficient uniformly over the distinct permutations of its tuple, which
makes the polynomial equal to the form evaluated on a repeated argument.

Polynomials are evaluated on arrays in one fixed order: each term is the
qprod of the coefficient and its entries in index order, and the terms are
summed in insertion order from +0.0.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Mapping, Sequence

import numpy as np

from .core import CQuat
from .linalg import CQTensor, CQVector, qprod

def _contract_leading(data: np.ndarray, vectors: Sequence[CQVector]) -> np.ndarray:
    """Contract the leading axes of a (..., 4) array with the given vectors."""
    for vec in vectors:
        v = vec.data.reshape((len(vec),) + (1,) * (data.ndim - 2) + (4,))
        data = qprod(data, v).sum(axis=0)
    return data


class MultilinearForm:
    """Multilinear form carried by a dense order-d quaternion tensor."""

    __slots__ = ("tensor",)

    def __init__(self, tensor: CQTensor):
        self.tensor = tensor

    @property
    def order(self) -> int:
        return self.tensor.order

    @property
    def dims(self) -> tuple[int, ...]:
        return self.tensor.dims

    def __call__(self, *xs: CQVector) -> CQuat:
        """Full contraction; the product order is irrelevant by commutativity."""
        if len(xs) != self.order:
            raise ValueError(f"expected {self.order} vectors, got {len(xs)}")
        for slot, vec in enumerate(xs):
            if len(vec) != self.dims[slot]:
                raise ValueError(
                    f"slot {slot} expects length {self.dims[slot]}, got {len(vec)}"
                )
        return CQuat(*_contract_leading(self.tensor.data, xs))


class PolyProblem:
    """Sparse homogeneous polynomial of one quaternion vector variable.

    Coefficients are keyed by nondecreasing index tuples (1-based); adding a
    term canonicalizes by sorting and sums duplicate tuples; a coefficient or
    sum that is not finite is a ValueError.
    """

    __slots__ = ("degree", "dim", "_coeffs")

    def __init__(self, degree: int, dim: int, coeffs: Mapping[tuple[int, ...], CQuat] | None = None):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if dim < 1:
            raise ValueError("dim must be at least 1")
        self.degree = int(degree)
        self.dim = int(dim)
        self._coeffs: dict[tuple[int, ...], CQuat] = {}
        if coeffs:
            for idx, coeff in coeffs.items():
                self.add_term(idx, coeff)

    def add_term(self, indices: Sequence[int], coeff) -> None:
        idx = tuple(sorted(int(i) for i in indices))
        if len(idx) != self.degree:
            raise ValueError(f"expected {self.degree} indices, got {len(idx)}")
        if idx[0] < 1 or idx[-1] > self.dim:
            raise ValueError(f"indices out of range 1..{self.dim}: {idx}")
        if not isinstance(coeff, CQuat):
            coeff = CQuat(coeff)
        if idx in self._coeffs:
            coeff = self._coeffs[idx] + coeff
        if not all(map(math.isfinite, coeff.components())):
            raise ValueError(f"coefficient of {idx} must be finite, got {coeff!r}")
        self._coeffs[idx] = coeff

    @property
    def coeffs(self) -> dict[tuple[int, ...], CQuat]:
        return dict(self._coeffs)

    def _values(self, xs: np.ndarray) -> np.ndarray:
        """H at each vector of an (..., n, 4) stack, as (..., 4), in the module's evaluation order."""
        idx = np.array(list(self._coeffs), dtype=np.intp).reshape(-1, self.degree) - 1
        coeffs = np.array([c.components() for c in self._coeffs.values()]).reshape(-1, 4)
        terms = functools.reduce(qprod, [xs[..., i, :] for i in idx.T], coeffs)
        return np.add.reduce(terms, axis=-2, initial=0.0)

    def __call__(self, x: CQVector) -> CQuat:
        """H(x): the qprod of each coefficient and its entries in index order, summed in insertion order from +0.0."""
        if len(x) != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}, got {len(x)}")
        return CQuat(*self._values(x.data))

    def __neg__(self) -> "PolyProblem":
        return PolyProblem(self.degree, self.dim, {idx: -c for idx, c in self._coeffs.items()})

    def __repr__(self) -> str:
        return f"PolyProblem(degree={self.degree}, dim={self.dim}, terms={len(self._coeffs)})"


@functools.lru_cache(maxsize=1024)
def _orderings(counts: tuple[int, ...]) -> np.ndarray:
    """Every distinct ordering of a multiset with these group counts, one row of group labels each."""
    if not any(counts):
        return np.zeros((1, 0), dtype=np.intp)
    # the rows that start with g are g followed by every ordering of what is left
    rest = [(g, _orderings(counts[:g] + (c - 1,) + counts[g + 1:])) for g, c in enumerate(counts) if c]
    rows = np.concatenate([np.insert(tail, 0, g, axis=1) for g, tail in rest])
    rows.flags.writeable = False  # cached: every caller gets this array
    return rows


def symmetrize(poly: PolyProblem) -> MultilinearForm:
    """Dense super-symmetric form whose diagonal restriction equals the polynomial.

    The entry at every permutation of a sorted tuple is the coefficient
    divided by the number of distinct permutations of that tuple. Only those
    are generated, so past the allocation the cost is proportional to the entries written.
    """
    d, n = poly.degree, poly.dim
    data = np.zeros((n,) * d + (4,))
    by_pattern = collections.defaultdict(list)
    for idx, coeff in poly.coeffs.items():
        groups = collections.Counter(idx)
        by_pattern[tuple(groups.values())].append((list(groups), coeff.components()))
    for counts, terms in by_pattern.items():
        keys, values = zip(*terms)
        labels = _orderings(counts)
        entries = np.array(keys, dtype=np.intp)[:, labels] - 1
        data[tuple(np.moveaxis(entries, -1, 0))] = np.array(values)[:, None] / len(labels)
    return MultilinearForm(CQTensor(data))

