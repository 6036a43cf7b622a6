"""Confocal family of the ellipsoid in E^{2,1} and caustic machinery.

The ellipsoid is ``x1^2/a1 + x2^2/a2 + x3^2/a3 = 1`` with a1 > a2 > 0,
a3 > 0; its confocal family is

    Q_lam :  x1^2/(a1-lam) + x2^2/(a2-lam) + x3^2/(a3+lam) = 1.

A point strictly inside the ellipsoid lies on exactly three members
(its generalized elliptic coordinates); a line meeting the interior is
tangent to exactly two members (its caustics), with the admissible
interval placement of the pair determined by the line type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    ComplexCausticsError,
    DegenerateParameterError,
    DegeneratePointError,
    InconsistentConfigurationError,
    InvalidCoordsError,
    NoInteriorIntersectionError,
    OutsideDomainError,
    ZeroVectorError,
)
from .minkowski import LineType, Vec3, _unit, classify_direction

DOUBLE_CAUSTIC_RTOL = 1e-10
INTERVAL_CHECK_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class Ellipsoid:
    """Finite semi-axis-squared parameters (a1, a2, a3), a1 > a2 > 0, a3 > 0."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a1) and math.isfinite(self.a2) and math.isfinite(self.a3)):
            raise ValueError(f"non-finite parameter in {(self.a1, self.a2, self.a3)!r}")
        if not (self.a1 > self.a2 > 0.0 and self.a3 > 0.0):
            raise ValueError(f"need a1 > a2 > 0 and a3 > 0, got {(self.a1, self.a2, self.a3)}")

    def surface_residual(self, p: Vec3) -> float:
        return self._residual(p.x1, p.x2, p.x3)

    def _residual(self, x1: float, x2: float, x3: float) -> float:
        return x1 * x1 / self.a1 + x2 * x2 / self.a2 + x3 * x3 / self.a3 - 1.0

    def scale(self) -> float:
        """Characteristic length (largest semi-axis)."""
        return math.sqrt(max(self.a1, self.a3))


class QuadricType(Enum):
    ELLIPSOID = "ellipsoid"
    HYPERBOLOID_1SHEET_X3 = "hyperboloid-1sheet-x3"
    HYPERBOLOID_1SHEET_X2 = "hyperboloid-1sheet-x2"
    HYPERBOLOID_2SHEET = "hyperboloid-2sheet"
    PLANE_X1 = "plane-x1"
    PLANE_X2 = "plane-x2"
    PLANE_X3 = "plane-x3"
    PLANE_AT_INFINITY = "plane-at-infinity"


class CausticCase(Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    DOUBLE = "double"
    LIGHT = "light"


@dataclass(frozen=True, slots=True)
class EllipticCoords:
    """Sorted confocal parameters (lam1 < lam2 < lam3) of an interior point."""

    lam1: float
    lam2: float
    lam3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lam1, self.lam2, self.lam3)


@dataclass(frozen=True, slots=True)
class CausticPair:
    """Tangency parameters of a line; gamma2 is None for the light-like
    tangency at the plane at infinity (an explicit sentinel, never an IEEE
    infinity)."""

    gamma1: float
    gamma2: float | None
    linetype: LineType
    epsilon: int

    @property
    def is_lightlike(self) -> bool:
        return self.gamma2 is None

    @property
    def is_double(self) -> bool:
        if self.gamma2 is None:
            return False
        return abs(self.gamma1 - self.gamma2) <= DOUBLE_CAUSTIC_RTOL * max(abs(self.gamma1), 1.0)


@dataclass(frozen=True, slots=True)
class IntervalPartition:
    """Sorted positives b and negatives c of {a1, a2, -a3, gamma1, gamma2}.

    For light-like lines the infinite member b_p = gamma2 = inf is recorded
    by ``has_infinite_b`` and is not stored among the finite values.
    """

    b: tuple[float, ...]           # ascending, positive
    c: tuple[float, ...]           # descending: c1 > c2 > ... (all negative)
    has_infinite_b: bool = False

    @property
    def p(self) -> int:
        return len(self.b) + (1 if self.has_infinite_b else 0)

    @property
    def q(self) -> int:
        return len(self.c)

    def motion_intervals(self) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
        """The three intervals [c1,0], [0,b1], [b2,b3] of the coordinates."""
        return ((self.c[0], 0.0), (0.0, self.b[0]), (self.b[1], self.b[2]))


def quadric_type(lam: float, ell: Ellipsoid) -> QuadricType:
    """Geometric type of Q_lam by the interval of lam."""
    if lam == math.inf:
        return QuadricType.PLANE_AT_INFINITY
    if lam == -ell.a3:
        return QuadricType.PLANE_X3
    if lam == ell.a2:
        return QuadricType.PLANE_X2
    if lam == ell.a1:
        return QuadricType.PLANE_X1
    if lam < -ell.a3:
        return QuadricType.HYPERBOLOID_1SHEET_X3
    if lam < ell.a2:
        return QuadricType.ELLIPSOID
    if lam < ell.a1:
        return QuadricType.HYPERBOLOID_1SHEET_X2
    return QuadricType.HYPERBOLOID_2SHEET


def quadric_residual(lam: float, p: Vec3, ell: Ellipsoid) -> float:
    """LHS of the confocal equation minus 1; zero iff p lies on Q_lam."""
    d1, d2, d3 = ell.a1 - lam, ell.a2 - lam, ell.a3 + lam
    if d1 == 0.0 or d2 == 0.0 or d3 == 0.0:
        raise DegenerateParameterError(f"lambda={lam} is a pole of the confocal family")
    return p.x1 * p.x1 / d1 + p.x2 * p.x2 / d2 + p.x3 * p.x3 / d3 - 1.0


def _confocal_cubic(x1: float, x2: float, x3: float,
                    ell: Ellipsoid) -> tuple[float, float, float, float]:
    """Coefficients (c0, c1, c2, c3) of the cleared cubic F(lam) whose roots
    are the elliptic coordinates of (x1, x2, x3).  F = x1^2 (a2-l)(a3+l)
    + x2^2 (a1-l)(a3+l) + x3^2 (a1-l)(a2-l) - (a1-l)(a2-l)(a3+l); leading
    coefficient is -1."""
    a1, a2, a3 = ell.a1, ell.a2, ell.a3
    s1, s2, s3 = x1 * x1, x2 * x2, x3 * x3
    # (a2-l)(a3+l) = a2*a3 + (a2-a3) l - l^2, etc.
    c0 = s1 * a2 * a3 + s2 * a1 * a3 + s3 * a1 * a2 - a1 * a2 * a3
    c1 = (s1 * (a2 - a3) + s2 * (a1 - a3) - s3 * (a1 + a2)
          - (a1 * a2 - a3 * (a1 + a2)))
    c2 = -s1 - s2 + s3 - (a3 - (a1 + a2))
    c3 = -1.0
    return (c0, c1, c2, c3)


def _cubic_roots_trig(c0: float, c1: float, c2: float, c3: float) -> list[float]:
    """All-real cubic roots by the trigonometric formula (three-real regime)."""
    # normalize to monic t^3 + p t + q via l = t - b/(3a)
    a, b, c, d = c3, c2, c1, c0
    shift = b / (3.0 * a)
    p = c / a - b * b / (3.0 * a * a)
    q = (2.0 * b ** 3 / (27.0 * a ** 3) - b * c / (3.0 * a * a) + d / a)
    if p >= 0.0:
        # only reachable for (nearly) triple roots; clamp so acos stays defined
        p = min(p, -1e-300)
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = max(-1.0, min(1.0, arg))
    theta = math.acos(arg) / 3.0
    return [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - shift for k in (0, 1, 2)]


def _polish_cubic_root(coeffs: tuple[float, float, float, float], x: float) -> float:
    c0, c1, c2, c3 = coeffs
    for _ in range(2):
        f = ((c3 * x + c2) * x + c1) * x + c0
        df = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if df == 0.0:
            break
        x -= f / df
    return x


def require_inside(p: Vec3, ell: Ellipsoid, surface_tol: float = 1e-8) -> None:
    """Raise OutsideDomainError unless p lies inside or on the ellipsoid."""
    res = ell._residual(p.x1, p.x2, p.x3)
    if res > surface_tol:
        raise OutsideDomainError(f"point outside ellipsoid, residual {res:.3e}")


def elliptic_coordinates(p: Vec3, ell: Ellipsoid, *, surface_tol: float = 1e-8) -> EllipticCoords:
    """Generalized elliptic coordinates of a point inside (or on) the ellipsoid.

    Solves the cleared cubic by the trigonometric formula, polishes each root
    by Newton, and checks the Theorem-type bracketing (one root per interval
    (-a3, 0] / [0, a2) / (a2, a1)).  Points on degenerate loci (coordinate
    planes through a pole of the family, or a tropic collision) raise
    DegeneratePointError.
    """
    require_inside(p, ell, surface_tol)
    coeffs = _confocal_cubic(p.x1, p.x2, p.x3, ell)
    roots = sorted(_polish_cubic_root(coeffs, r) for r in _cubic_roots_trig(*coeffs))
    lam1, lam2, lam3 = roots

    scale = max(ell.a1, ell.a3)
    tol = 1e-12 * scale
    for pole in (ell.a1, ell.a2, -ell.a3):
        for r in roots:
            if abs(r - pole) <= tol:
                raise DegeneratePointError(
                    f"elliptic coordinate {r} collides with degenerate parameter {pole}")
    if lam2 - lam1 <= tol and abs(lam1) <= math.sqrt(tol * scale):
        raise DegeneratePointError("tropic degeneracy: lam1 = lam2 = 0")

    return EllipticCoords(lam1, lam2, lam3)


def point_from_elliptic(coords: EllipticCoords, signs: tuple[int, int, int],
                        ell: Ellipsoid) -> Vec3:
    """Inverse of the coordinate map for a chosen octant.

    The squared coordinates are the residue expressions of the cubic identity,

        x1^2 = (a1-l1)(a1-l2)(a1-l3) / ((a1-a2)(a1+a3)),

    and cyclic variants; each must be nonnegative for valid coordinates.
    """
    a1, a2, a3 = ell.a1, ell.a2, ell.a3
    l1, l2, l3 = coords.lam1, coords.lam2, coords.lam3
    x1sq = (a1 - l1) * (a1 - l2) * (a1 - l3) / ((a1 - a2) * (a1 + a3))
    x2sq = (a2 - l1) * (a2 - l2) * (l3 - a2) / ((a1 - a2) * (a2 + a3))
    x3sq = (a3 + l1) * (a3 + l2) * (a3 + l3) / ((a1 + a3) * (a2 + a3))
    vals = []
    for sq in (x1sq, x2sq, x3sq):
        if sq < -1e-12:
            raise InvalidCoordsError(f"negative squared coordinate {sq:.3e}")
        vals.append(math.sqrt(max(sq, 0.0)))
    s1, s2, s3 = signs
    return Vec3(math.copysign(vals[0], s1) if vals[0] else 0.0,
                math.copysign(vals[1], s2) if vals[1] else 0.0,
                math.copysign(vals[2], s3) if vals[2] else 0.0)


def tangency_coefficients(p: Vec3, v: Vec3, ell: Ellipsoid) -> tuple[float, float, float]:
    """Coefficients (t0, t1, t2) of the cleared tangency polynomial T(lam).

    T is the discriminant condition for the line p + t v to touch Q_lam,
    multiplied by (a1-lam)(a2-lam)(a3+lam); it is quadratic in lam with
    leading coefficient -<v,v>, so exactly one finite root for light-like v.
    """
    return _tangency(p.x1, p.x2, p.x3, v.x1, v.x2, v.x3, ell)


def _tangency(p1: float, p2: float, p3: float, v1: float, v2: float, v3: float,
              ell: Ellipsoid) -> tuple[float, float, float]:
    """``tangency_coefficients`` on float triples."""
    a1, a2, a3 = ell.a1, ell.a2, ell.a3
    v1s, v2s, v3s = v1 * v1, v2 * v2, v3 * v3
    j12 = p1 * v2 - p2 * v1
    j13 = p1 * v3 - p3 * v1
    j23 = p2 * v3 - p3 * v2
    t0 = (v1s * a2 * a3 + v2s * a1 * a3 + v3s * a1 * a2
          - j12 * j12 * a3 - j13 * j13 * a2 - j23 * j23 * a1)
    t1 = (v1s * (a2 - a3) + v2s * (a1 - a3) - v3s * (a1 + a2)
          - j12 * j12 + j13 * j13 + j23 * j23)
    t2 = -(v1s + v2s - v3s)
    return (t0, t1, t2)


def tangency_residual(p: Vec3, v: Vec3, ell: Ellipsoid, gamma: float | None) -> float:
    """Normalized tangency residual of the line at caustic parameter gamma.

    For the light-like sentinel (gamma None) the residual is the normalized
    leading coefficient, whose vanishing is tangency to the plane at infinity.
    The coefficients are those of v normalized to unit Euclidean length, the
    scale every residual is measured at.
    """
    coeffs = _tangency(p.x1, p.x2, p.x3, *_unit(v.x1, v.x2, v.x3), ell)
    return _tangency_residual(coeffs, _residual_weights(gamma))


def _residual_weights(gamma: float | None) -> tuple[float, float, float] | None:
    """(gamma, max(1, gamma^2), max(1, |gamma|)): the caustic parameter with
    the weights of |t2| and |t1| in the scale of its tangency residual; None
    for the light-like sentinel.  ``chasles_residual`` computes them once per
    caustic of a trajectory."""
    if gamma is None:
        return None
    g = abs(gamma)
    return gamma, max(1.0, g * g), max(1.0, g)


def _tangency_residual(coeffs: tuple[float, float, float],
                       weights: tuple[float, float, float] | None) -> float:
    """Normalized residual of the unit-direction coefficients at the caustic
    given by ``_residual_weights``."""
    t0, t1, t2 = coeffs
    scale0 = abs(t0) + abs(t1) + abs(t2)
    if scale0 == 0.0:
        return 0.0
    if weights is None:
        return abs(t2) / scale0
    gamma, w2, w1 = weights
    return abs((t2 * gamma + t1) * gamma + t0) / (abs(t2) * w2 + abs(t1) * w1 + abs(t0))


def _line_hits_interior(p: Vec3, v: Vec3, ell: Ellipsoid) -> bool:
    a = v.x1 * v.x1 / ell.a1 + v.x2 * v.x2 / ell.a2 + v.x3 * v.x3 / ell.a3
    b = 2.0 * (p.x1 * v.x1 / ell.a1 + p.x2 * v.x2 / ell.a2 + p.x3 * v.x3 / ell.a3)
    c = ell.surface_residual(p)
    disc = b * b - 4.0 * a * c
    return disc > 0.0


def line_caustics(p: Vec3, v: Vec3, ell: Ellipsoid) -> CausticPair:
    """The two confocal quadrics touched by the line p + t v.

    Roots of the cleared tangency quadratic, Newton-polished and ordered per
    the admissible placement for the line type: space-like gamma2 < 0 < gamma1,
    time-like 0 < gamma1 <= gamma2, light-like a single finite gamma1 with the
    at-infinity sentinel for gamma2.
    """
    if v.euclid_norm2() == 0.0:
        raise ZeroVectorError("line direction is zero")
    if not _line_hits_interior(p, v, ell):
        raise NoInteriorIntersectionError("line does not meet the interior of the ellipsoid")
    vn = v.euclid_normalized()
    t0, t1, t2 = tangency_coefficients(p, vn, ell)
    ltype = classify_direction(vn)

    def polish(g: float) -> float:
        for _ in range(2):
            f = (t2 * g + t1) * g + t0
            df = 2.0 * t2 * g + t1
            if df == 0.0:
                break
            g -= f / df
        return g

    if ltype is LineType.LIGHTLIKE:
        if t1 == 0.0:
            raise ComplexCausticsError("degenerate light-like tangency equation")
        g1 = -t0 / t1
        pair = CausticPair(g1, None, ltype, +1)
        _check_intervals(pair, ell)
        return pair

    disc = t1 * t1 - 4.0 * t2 * t0
    if disc < 0.0:
        raise ComplexCausticsError("no real caustic parameters; line misses the interior")
    sq = math.sqrt(disc)
    # stable quadratic roots
    qq = -(t1 + math.copysign(sq, t1)) / 2.0
    r1 = qq / t2 if t2 != 0.0 else math.inf
    r2 = t0 / qq if qq != 0.0 else math.inf
    roots = sorted((polish(r1), polish(r2)))

    if ltype is LineType.SPACELIKE:
        g1, g2 = roots[1], roots[0]
        eps = -1
    else:
        g1, g2 = roots[0], roots[1]
        eps = +1
    pair = CausticPair(g1, g2, ltype, eps)
    _check_intervals(pair, ell)
    return pair


def _check_intervals(cp: CausticPair, ell: Ellipsoid) -> None:
    tol = INTERVAL_CHECK_TOL * max(ell.a1, ell.a3)
    if cp.linetype is LineType.SPACELIKE:
        assert cp.gamma2 is not None
        if not (cp.gamma2 < tol and -tol < cp.gamma1 < ell.a1 + tol):
            raise NoInteriorIntersectionError(
                f"space-like caustics {cp.gamma1}, {cp.gamma2} violate the interval structure")
    elif cp.linetype is LineType.TIMELIKE:
        assert cp.gamma2 is not None
        if not (-tol < cp.gamma1 <= cp.gamma2 + tol and cp.gamma1 < ell.a1 + tol):
            raise NoInteriorIntersectionError(
                f"time-like caustics {cp.gamma1}, {cp.gamma2} violate the interval structure")
    else:
        if not (-tol < cp.gamma1 < ell.a1 + tol):
            raise NoInteriorIntersectionError(
                f"light-like caustic {cp.gamma1} violates the interval structure")


def interval_partition(cp: CausticPair, ell: Ellipsoid) -> IntervalPartition:
    """Sorted partition of {a1, a2, -a3, gamma1, gamma2} into positives/negatives."""
    members = [ell.a1, ell.a2, -ell.a3, cp.gamma1]
    if cp.gamma2 is not None:
        members.append(cp.gamma2)
    pos = sorted(m for m in members if m > 0)
    neg = sorted((m for m in members if m <= 0), reverse=True)
    return IntervalPartition(tuple(pos), tuple(neg), has_infinite_b=cp.gamma2 is None)


# Open (gamma1, gamma2) intervals of each two-caustic case as a function of
# (a1, a2, a3), with the line type that carries the case; an unbounded side
# is +-inf.  The one statement of the placements: classification, the exact
# case check, the search rectangles and the CLI's line type all read it.
_CASE_INTERVALS = {
    CausticCase.S1: (LineType.SPACELIKE, lambda a1, a2, a3: ((0.0, a2), (-a3, 0.0))),
    CausticCase.S2: (LineType.SPACELIKE, lambda a1, a2, a3: ((0.0, a2), (-math.inf, -a3))),
    CausticCase.S3: (LineType.SPACELIKE, lambda a1, a2, a3: ((a2, a1), (-math.inf, -a3))),
    CausticCase.S4: (LineType.SPACELIKE, lambda a1, a2, a3: ((a2, a1), (-a3, 0.0))),
    CausticCase.T1: (LineType.TIMELIKE, lambda a1, a2, a3: ((0.0, a2), (a2, a1))),
    CausticCase.T2: (LineType.TIMELIKE, lambda a1, a2, a3: ((0.0, a2), (a1, math.inf))),
    CausticCase.T3: (LineType.TIMELIKE, lambda a1, a2, a3: ((a2, a1), (a2, a1))),
    CausticCase.T4: (LineType.TIMELIKE, lambda a1, a2, a3: ((a2, a1), (a1, math.inf))),
}


# Whether gamma1 is in the range of each degenerate case: (a2, a1) for the
# double caustic; (0, a1) without a2 for a light-like line, which never
# touches Q_0 (the table itself), so gamma1 > 0 as through the centre.
_DEGENERATE_RANGES = {
    CausticCase.DOUBLE: lambda a1, a2, a3, g: a2 < g < a1,
    CausticCase.LIGHT: lambda a1, a2, a3, g: 0 < g < a1 and g != a2,
}


def _placed(case: CausticCase, a1, a2, a3, g1, g2) -> bool:
    """Whether (g1, g2) lies in the open intervals of the two-caustic case,
    a time-like pair also with g1 < g2; over floats and Fractions alike."""
    linetype, intervals = _CASE_INTERVALS[case]
    (lo1, hi1), (lo2, hi2) = intervals(a1, a2, a3)
    return lo1 < g1 < hi1 and lo2 < g2 < hi2 and (linetype is LineType.SPACELIKE or g1 < g2)


def classify_case(cp: CausticPair, ell: Ellipsoid) -> CausticCase:
    """Case of the caustic pair per the admissible placements.

    Space-like: S1..S4 and time-like: T1..T4 by the intervals of
    ``_CASE_INTERVALS`` for the line type; equal parameters inside (a2, a1)
    give the double caustic; the at-infinity sentinel gives the light-like
    case.
    """
    a1, a2, a3 = ell.a1, ell.a2, ell.a3
    if cp.is_lightlike:
        if _DEGENERATE_RANGES[CausticCase.LIGHT](a1, a2, a3, cp.gamma1):
            return CausticCase.LIGHT
        raise InconsistentConfigurationError(f"light-like gamma1={cp.gamma1} out of range")
    g1, g2 = cp.gamma1, cp.gamma2
    if cp.is_double:
        if all(_DEGENERATE_RANGES[CausticCase.DOUBLE](a1, a2, a3, g) for g in (g1, g2)):
            return CausticCase.DOUBLE
        raise InconsistentConfigurationError(
            f"double caustic {g1} must lie in ({a2}, {a1})")
    for case, (linetype, _) in _CASE_INTERVALS.items():
        if linetype is cp.linetype and _placed(case, a1, a2, a3, g1, g2):
            return case
    raise InconsistentConfigurationError(
        f"{cp.linetype.value}-like pair ({g1}, {g2}) lies in the intervals of no case")
