"""Minkowski (2,1) scalar product, line-type classification and plane reflection.

The ambient space is R^3 with the indefinite product
``<X, Y> = X1*Y1 + X2*Y2 - X3*Y3``.  Distances are exposed as the quadrance
(the scalar product of the difference), which keeps the API real-valued:
the Minkowski distance itself is imaginary for time-like separations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import LightLikeNormalError, ZeroVectorError

DEFAULT_LIGHT_TOL = 1e-12


class LineType(Enum):
    SPACELIKE = "space"
    TIMELIKE = "time"
    LIGHTLIKE = "light"


@dataclass(frozen=True, slots=True)
class Vec3:
    """Point or direction in E^{2,1}; components must be finite."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x1) and math.isfinite(self.x2) and math.isfinite(self.x3)):
            raise ValueError(f"non-finite component in {(self.x1, self.x2, self.x3)!r}")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x1 * s, self.x2 * s, self.x3 * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x1, -self.x2, -self.x3)

    def euclid_norm2(self) -> float:
        return self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def euclid_norm(self) -> float:
        return math.sqrt(self.euclid_norm2())

    def euclid_normalized(self) -> "Vec3":
        return Vec3(*_unit(self.x1, self.x2, self.x3))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


def _unit(x1: float, x2: float, x3: float) -> tuple[float, float, float]:
    """Euclidean normalization of a float triple."""
    n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    if n == 0.0:
        raise ZeroVectorError("cannot normalize zero vector")
    return x1 / n, x2 / n, x3 / n


def mink_dot(u: Vec3, v: Vec3) -> float:
    """Minkowski scalar product u1*v1 + u2*v2 - u3*v3."""
    return u.x1 * v.x1 + u.x2 * v.x2 - u.x3 * v.x3


def mink_quadrance(x: Vec3, y: Vec3) -> float:
    """Squared Minkowski distance <X-Y, X-Y>; may be negative."""
    d = x - y
    return mink_dot(d, d)


def classify_direction(v: Vec3, tol: float = DEFAULT_LIGHT_TOL) -> LineType:
    """Classify a direction by the sign of its Minkowski self-product.

    Light-like is decided by the scale-invariant test
    ``|<v,v>| <= tol * ||v||_E^2``; with tol=0 exactly-constructed light-like
    directions still classify exactly.
    """
    e2 = v.euclid_norm2()
    if e2 == 0.0:
        raise ZeroVectorError("cannot classify the zero vector")
    q = mink_dot(v, v)
    if abs(q) <= tol * e2:
        return LineType.LIGHTLIKE
    return LineType.SPACELIKE if q > 0.0 else LineType.TIMELIKE


def reflect_direction(v: Vec3, normal: Vec3, tol: float = DEFAULT_LIGHT_TOL) -> Vec3:
    """Billiard reflection of v in the plane Minkowski-orthogonal to ``normal``.

    Decomposing v = a + n with a in the plane, the reflection is a - n, i.e.
    ``v' = v - 2 <v,n>/<n,n> n``.  Undefined when the normal is light-like
    (it then lies inside the plane and no such decomposition exists).
    """
    return Vec3(*_reflect(v.x1, v.x2, v.x3, normal.x1, normal.x2, normal.x3, tol))


def _reflect(v1: float, v2: float, v3: float, n1: float, n2: float, n3: float,
             tol: float) -> tuple[float, float, float]:
    """``reflect_direction`` on float triples."""
    e2 = n1 * n1 + n2 * n2 + n3 * n3
    if e2 == 0.0:
        raise ZeroVectorError("reflection normal is zero")
    nn = n1 * n1 + n2 * n2 - n3 * n3
    if abs(nn) <= tol * e2:
        raise LightLikeNormalError("reflection in a light-like normal is not defined")
    coef = 2.0 * (v1 * n1 + v2 * n2 - v3 * n3) / nn
    m1, m2, m3 = n1 * coef, n2 * coef, n3 * coef
    if not math.isfinite(m1 + m2 + m3):
        Vec3(m1, m2, m3)    # a non-finite coef * normal raises the Vec3 ValueError
    return v1 - m1, v2 - m2, v3 - m3
