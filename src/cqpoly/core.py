"""The value type of one commutative (Segre) quaternion.

A ``CQuat`` holds a polynomial coefficient, an evaluation result or a
printed vector entry as python floats. Products are computed on (..., 4)
component arrays by :func:`cqpoly.linalg.qprod`, which states the rules.
Values are plain immutable-style objects, safe to share between threads.
"""

from __future__ import annotations


class CQuat:
    """One commutative quaternion with components (w, x, y, z) for (1, i, j, k)."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    @property
    def re(self) -> float:
        return self.w

    def __add__(self, other):
        if isinstance(other, CQuat):
            return CQuat(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)
        return NotImplemented

    def __neg__(self) -> "CQuat":
        return CQuat(-self.w, -self.x, -self.y, -self.z)

    def __eq__(self, other):
        if isinstance(other, CQuat):
            return self.components() == other.components()
        return NotImplemented

    def __repr__(self) -> str:
        return f"CQuat({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __str__(self) -> str:
        parts = [f"{self.w:g}"]
        for value, unit in ((self.x, "i"), (self.y, "j"), (self.z, "k")):
            sign = "-" if value < 0 else "+"
            parts.append(f"{sign} {abs(value):g}{unit}")
        return " ".join(parts)


ZERO = CQuat()
ONE = CQuat(1.0)
I = CQuat(0.0, 1.0)
J = CQuat(0.0, 0.0, 1.0)
K = CQuat(0.0, 0.0, 0.0, 1.0)
