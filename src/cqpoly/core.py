"""Scalar arithmetic for commutative (Segre) quaternions.

A value q = w + x*i + y*j + z*k multiplies under the rules

    i*i = k*k = -1,   j*j = +1,
    i*j = j*i = k,    j*k = k*j = i,    k*i = i*k = -j,

so multiplication is commutative and associative, and the ring contains
zero divisors such as (1+j)*(1-j) = 0. Because of the zero divisors the
magnitude is not multiplicative and no division operator is provided.

Components are stored as python floats. Values are plain immutable-style
objects, safe to share between threads.
"""

from __future__ import annotations

import math


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

    def conj(self) -> "CQuat":
        """Principal conjugate of the first kind: flips the i and k components."""
        return CQuat(self.w, -self.x, self.y, -self.z)

    def magnitude(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)

    __abs__ = magnitude

    def __add__(self, other):
        if isinstance(other, CQuat):
            return CQuat(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return CQuat(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CQuat):
            return CQuat(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return CQuat(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __neg__(self) -> "CQuat":
        return CQuat(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, CQuat):
            p0, p1, p2, p3 = self.w, self.x, self.y, self.z
            q0, q1, q2, q3 = other.w, other.x, other.y, other.z
            return CQuat(
                p0 * q0 - p1 * q1 + p2 * q2 - p3 * q3,
                p0 * q1 + p1 * q0 + p2 * q3 + p3 * q2,
                p0 * q2 + p2 * q0 - p1 * q3 - p3 * q1,
                p0 * q3 + p3 * q0 + p1 * q2 + p2 * q1,
            )
        if isinstance(other, (int, float)):
            return CQuat(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return CQuat(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return CQuat(self.w / other, self.x / other, self.y / other, self.z / other)
        return NotImplemented

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
