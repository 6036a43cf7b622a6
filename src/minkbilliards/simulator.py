"""Billiard map inside the ellipsoid: segment extension, reflection off the
polar caps and the equatorial belt, Chasles residual and numeric period
detection with winding counts.

A bounce on a polar cap is where the first elliptic coordinate vanishes,
a bounce on the equatorial belt where the second does.  On the tropic curve
between them the surface normal is light-like and the billiard map is not
defined, so a tropic impact ends the trajectory.  (The map extends there
only to a ray along the normal, which lies in the tangent plane: at a
tropic point p, F(p + s n) = 1 + s^2 sum n_i^2 / a_i > 1 for s != 0, so no
chord of the table runs along n.)

Each stage of a bounce is a private kernel on plain float triples
(``_impact``, ``_normal``, ``_component`` and ``minkowski._reflect``); the
public ``Vec3`` functions ``next_impact``, ``surface_normal``,
``classify_surface_point`` and ``reflect_at`` wrap them, and ``trace`` runs
them directly.  A trajectory stores each record as one flat row of floats
(``Row``) and builds no object per bounce; ``Trajectory.bounces`` is a
read-only view that builds a ``BounceRecord`` only where one is read.
Elliptic coordinates of a bounce point are computed when a record's
``coords`` is read, not while tracing.

The readers of a finished trajectory each make one pass over its rows,
and this module is the only one that reads the row layout.
``chasles_residual`` makes one ``confocal._tangency`` call per segment and
takes each caustic's residual weights once.  ``_period`` finds the period
and its bounce counts, normalizing a direction only where the position has
returned; callers that need n2 for only one of several trajectories use it
directly.  ``_lambda3_event_count`` gives n2 by counting the closed-form
events of each segment at which lam3 turns (tangencies with a caustic and
coordinate-plane crossings at an end of its motion interval); it solves no
coordinate cubic.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum

from .confocal import (
    CausticCase,
    CausticPair,
    Ellipsoid,
    EllipticCoords,
    _residual_weights,
    _tangency,
    _tangency_residual,
    classify_case,
    elliptic_coordinates,
    interval_partition,
    line_caustics,
    require_inside,
)
from .errors import (
    BilliardError,
    DegeneratePointError,
    InconsistentConfigurationError,
    InvalidToleranceError,
    NoForwardIntersectionError,
    UndefinedReflectionError,
    ZeroVectorError,
)
from .minkowski import LineType, Vec3, _reflect, _unit, classify_direction

TROPIC_TOL = 1e-9
_TROPIC_IMPACT = "transversal impact on the tropic curve"
IMPACT_RESIDUAL_TOL = 1e-12
RETURN_TOL_DEFAULT = 1e-6


class SurfaceComponent(Enum):
    CAP_NORTH = "capN"
    CAP_SOUTH = "capS"
    BELT = "belt"
    TROPIC = "tropic"


# member lookups through an Enum class are slow (~0.2 us on CPython 3.11);
# the per-bounce kernels read the members from these names
_CAP_NORTH, _CAP_SOUTH, _BELT, _TROPIC = (SurfaceComponent.CAP_NORTH, SurfaceComponent.CAP_SOUTH,
                                          SurfaceComponent.BELT, SurfaceComponent.TROPIC)


@dataclass(frozen=True, slots=True)
class BounceRecord:
    """One reflection: the impact point, the directions before and after it,
    the surface component hit, the ray parameter of the segment ending here,
    and the billiard table, from which ``coords`` is computed on access."""

    point: Vec3
    incoming: Vec3
    outgoing: Vec3
    component: SurfaceComponent
    param_t: float
    ellipsoid: Ellipsoid

    @property
    def coords(self) -> EllipticCoords | None:
        """Elliptic coordinates of the impact point, computed on each read;
        None on degenerate loci (axial orbits etc.)."""
        try:
            return elliptic_coordinates(self.point, self.ellipsoid)
        except DegeneratePointError:
            return None


@dataclass(frozen=True, slots=True)
class PeriodSignature:
    n: int
    m1: int
    n1: int
    n2: int


# One record as a flat row: the impact point (0-2), the incoming (3-5) and
# outgoing (6-8) directions, the surface component (9) and the ray
# parameter t (10).  ``trace`` puts the outgoing floats of one row into the
# next row as its incoming floats, the same objects.
Row = tuple[float, float, float, float, float, float, float, float, float,
            SurfaceComponent, float]


def _records(rows: Sequence[Row], ell: Ellipsoid) -> Iterator[BounceRecord]:
    """The records of consecutive rows.  Where a row's incoming floats are
    the previous row's outgoing floats, its record shares that direction's
    ``Vec3`` with the previous record, as the records of a trace did when
    the loop built them."""
    o1 = o2 = o3 = out = None
    for x1, x2, x3, i1, i2, i3, w1, w2, w3, comp, t in rows:
        incoming = out if i1 is o1 and i2 is o2 and i3 is o3 else Vec3(i1, i2, i3)
        o1, o2, o3 = w1, w2, w3
        out = Vec3(w1, w2, w3)
        yield BounceRecord(Vec3(x1, x2, x3), incoming, out, comp, t, ell)


class BounceView(Sequence):
    """Read-only view of a trajectory's rows as ``BounceRecord``s.

    ``len`` reads the rows.  Indexing builds the record it returns, and
    slicing and iteration build theirs as ``_records`` does."""

    __slots__ = ("_rows", "_ell")

    def __init__(self, rows: list[Row], ell: Ellipsoid) -> None:
        self._rows = rows
        self._ell = ell

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int | slice) -> BounceRecord | list[BounceRecord]:
        if isinstance(i, slice):
            return list(_records(self._rows[i], self._ell))
        return next(_records((self._rows[i],), self._ell))

    def __iter__(self) -> Iterator[BounceRecord]:
        return _records(self._rows, self._ell)


@dataclass(slots=True)
class Trajectory:
    """A traced orbit: its start and table, one ``Row`` per record, the
    caustics and case of its line, and the error that ended it early, if
    any.  ``bounces`` reads the rows as ``BounceRecord``s."""

    start_point: Vec3
    start_direction: Vec3
    ellipsoid: Ellipsoid
    rows: list[Row] = field(default_factory=list)
    caustics: CausticPair | None = None
    case: CausticCase | None = None
    error: str | None = None

    @property
    def bounces(self) -> BounceView:
        """The records of the rows, built as they are read."""
        return BounceView(self.rows, self.ellipsoid)

    @property
    def linetype(self) -> LineType:
        return classify_direction(self.start_direction)


def surface_normal(p: Vec3, ell: Ellipsoid) -> Vec3:
    """Minkowski normal to the ellipsoid at p (index-lowered gradient)."""
    return Vec3(*_normal(p.x1, p.x2, p.x3, ell))


def _normal(x1: float, x2: float, x3: float, ell: Ellipsoid) -> tuple[float, float, float]:
    return 2.0 * x1 / ell.a1, 2.0 * x2 / ell.a2, -2.0 * x3 / ell.a3


def classify_surface_point(p: Vec3, ell: Ellipsoid) -> SurfaceComponent:
    """Component of the ellipsoid by the causal character of its normal.

    Time-like normal (induced metric Riemannian) means a polar cap, split
    north/south by the sign of x3; space-like normal means the Lorentzian
    equatorial belt; a light-like normal is the tropic curve itself.
    """
    n = surface_normal(p, ell)
    return _component(n.x1, n.x2, n.x3, p.x3)


def _component(n1: float, n2: float, n3: float, x3: float) -> SurfaceComponent:
    """Component at a surface point of height x3 with normal (n1, n2, n3)."""
    nn = n1 * n1 + n2 * n2 - n3 * n3
    if abs(nn) <= TROPIC_TOL * (n1 * n1 + n2 * n2 + n3 * n3):
        return _TROPIC
    if nn < 0.0:
        return _CAP_NORTH if x3 >= 0.0 else _CAP_SOUTH
    return _BELT


def next_impact(p: Vec3, v: Vec3, ell: Ellipsoid) -> tuple[Vec3, float]:
    """Smallest forward ray parameter where p + t v meets the ellipsoid.

    Solves the Euclidean quadratic with the stable-root form and polishes by
    Newton to surface residual <= 1e-12.
    """
    h1, h2, h3, t = _impact(p.x1, p.x2, p.x3, v.x1, v.x2, v.x3, ell, 1e-10 * ell.scale())
    return Vec3(h1, h2, h3), t


def _impact(p1: float, p2: float, p3: float, v1: float, v2: float, v3: float,
            ell: Ellipsoid, tfloor: float) -> tuple[float, float, float, float]:
    """``next_impact`` on float triples: the impact point and t.  ``tfloor``
    is ``1e-10 * ell.scale()``, which a trace computes once."""
    a1, a2, a3 = ell.a1, ell.a2, ell.a3
    s1, s2, s3 = v1 * v1, v2 * v2, v3 * v3
    vv = s1 + s2 + s3
    if vv == 0.0:
        raise ZeroVectorError("ray direction is zero")
    a = s1 / a1 + s2 / a2 + s3 / a3
    b = 2.0 * (p1 * v1 / a1 + p2 * v2 / a2 + p3 * v3 / a3)
    c = ell._residual(p1, p2, p3)
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise NoForwardIntersectionError("ray does not cross the ellipsoid")
    sq = math.sqrt(disc)
    qq = -(b + math.copysign(sq, b)) / 2.0
    r1 = qq / a
    r2 = c / qq if qq != 0.0 else -math.inf
    tmin = tfloor / math.sqrt(vv)
    # the smaller of the two roots beyond tmin
    if r1 > tmin:
        t = r2 if tmin < r2 < r1 else r1
    elif r2 > tmin:
        t = r2
    else:
        raise NoForwardIntersectionError("no forward intersection beyond the start point")

    # Newton polish on the surface residual along the ray
    for _ in range(4):
        q1, q2, q3 = p1 + t * v1, p2 + t * v2, p3 + t * v3
        f = ell._residual(q1, q2, q3)
        if abs(f) <= IMPACT_RESIDUAL_TOL:
            return q1, q2, q3, t
        if not math.isfinite(f):
            Vec3(q1, q2, q3)    # a non-finite point raises the Vec3 ValueError
        df = 2.0 * (q1 * v1 / a1 + q2 * v2 / a2 + q3 * v3 / a3)
        if df == 0.0:
            return q1, q2, q3, t
        t -= f / df
    return p1 + t * v1, p2 + t * v2, p3 + t * v3, t


def reflect_at(p: Vec3, v: Vec3, ell: Ellipsoid) -> Vec3:
    """Reflected direction at an impact point p on the ellipsoid.

    Raises UndefinedReflectionError at a tropic point, where the normal is
    light-like and the billiard map is not defined.
    """
    n = surface_normal(p, ell)
    if _component(n.x1, n.x2, n.x3, p.x3) is _TROPIC:
        raise UndefinedReflectionError(_TROPIC_IMPACT)
    return Vec3(*_reflect(v.x1, v.x2, v.x3, n.x1, n.x2, n.x3, 0.0))


def trace(p: Vec3, v: Vec3, ell: Ellipsoid, max_bounces: int) -> Trajectory:
    """Iterate the billiard map, attaching caustics, case and per-bounce data.

    Stops at max_bounces, at a degenerate start or at a tropic impact,
    whose row (incoming direction as outgoing) is the last one; partial
    trajectories carry the failure in ``error``.  A start point
    outside the ellipsoid raises OutsideDomainError and a negative bounce
    count ValueError.  The loop carries position and direction as floats
    through the stage kernels and appends one ``Row`` per record; a
    non-finite impact point or outgoing direction raises the ``Vec3``
    ValueError.
    """
    if max_bounces < 0:
        raise ValueError(f"bounce count must be nonnegative, got {max_bounces}")
    require_inside(p, ell)
    traj = Trajectory(p, v, ell)
    try:
        traj.caustics = line_caustics(p, v, ell)
        traj.case = classify_case(traj.caustics, ell)
    except InconsistentConfigurationError:
        traj.case = None
    except BilliardError as exc:
        traj.error = f"caustics: {exc}"
        return traj

    rows = traj.rows
    isfinite = math.isfinite
    p1, p2, p3 = p.x1, p.x2, p.x3
    v1, v2, v3 = v.x1, v.x2, v.x3
    tfloor = 1e-10 * ell.scale()
    while len(rows) < max_bounces:
        try:
            p1, p2, p3, t = _impact(p1, p2, p3, v1, v2, v3, ell, tfloor)
        except BilliardError as exc:
            traj.error = f"impact: {exc}"
            break
        if not isfinite(p1 + p2 + p3):
            Vec3(p1, p2, p3)    # a non-finite point raises the Vec3 ValueError
        n1, n2, n3 = _normal(p1, p2, p3, ell)
        comp = _component(n1, n2, n3, p3)
        if comp is _TROPIC:
            rows.append((p1, p2, p3, v1, v2, v3, v1, v2, v3, comp, t))
            traj.error = f"reflection: {_TROPIC_IMPACT}"
            break
        # off the tropic |<n, n>| > TROPIC_TOL |n|^2 > 0: _reflect cannot raise
        o1, o2, o3 = _reflect(v1, v2, v3, n1, n2, n3, 0.0)
        if not isfinite(o1 + o2 + o3):
            Vec3(o1, o2, o3)    # and so does a non-finite outgoing direction
        rows.append((p1, p2, p3, v1, v2, v3, o1, o2, o3, comp, t))
        v1, v2, v3 = o1, o2, o3
    return traj


def chasles_residual(traj: Trajectory) -> float:
    """Worst normalized tangency residual of any segment at either caustic."""
    rows = traj.rows
    if traj.caustics is None or len(rows) < 2:
        return 0.0
    cp = traj.caustics
    ell = traj.ellipsoid
    caustics = (_residual_weights(cp.gamma1), _residual_weights(cp.gamma2))
    worst = 0.0
    # the segments leave the start and every bounce but the last
    p, v = traj.start_point, traj.start_direction
    x1, x2, x3, v1, v2, v3 = p.x1, p.x2, p.x3, v.x1, v.x2, v.x3
    for row in rows:
        u1, u2, u3 = _unit(v1, v2, v3)
        coeffs = _tangency(x1, x2, x3, u1, u2, u3, ell)
        for weights in caustics:
            r = _tangency_residual(coeffs, weights)
            if r > worst:    # as max(worst, r): a NaN residual keeps worst
                worst = r
        x1, x2, x3, _, _, _, v1, v2, v3, _, _ = row
    return worst


def _lambda3_event_count(traj: Trajectory, n: int) -> int:
    """Completed oscillations of the third elliptic coordinate over one period.

    lam3 moves in the third motion interval [b2, b3] of
    ``confocal.interval_partition`` and turns only at its ends.  Along a
    segment x + t d, t in (0, 1), between consecutive bounces it turns at the
    tangency with a caustic Q_gamma whose gamma is b2 or b3, at t* = -B/A
    with A = sum d_i^2/D_i, B = sum x_i d_i/D_i and D = (a1 - gamma,
    a2 - gamma, a3 + gamma), and at the crossing t = -x_i/d_i of a
    coordinate plane whose pole (a1 for x1 = 0, a2 for x2 = 0) is b2 or b3;
    one full oscillation is two turns.  Without a case there are no motion
    intervals, and on the double caustic lam3 is pinned: both count 0.
    """
    case = traj.case
    if case is None or case is CausticCase.DOUBLE:
        return 0
    ell, cp = traj.ellipsoid, traj.caustics
    ends = interval_partition(cp, ell).motion_intervals()[2]
    denoms = [(ell.a1 - g, ell.a2 - g, ell.a3 + g) for g in (cp.gamma1, cp.gamma2) if g in ends]
    planes = [i for i, pole in enumerate((ell.a1, ell.a2)) if pole in ends]
    head = traj.rows[:n + 1]
    turns = 0
    for a, b in zip(head, head[1:]):
        x1, x2, x3 = a[0], a[1], a[2]
        d1, d2, d3 = b[0] - x1, b[1] - x2, b[2] - x3
        for e1, e2, e3 in denoms:
            aa = d1 * d1 / e1 + d2 * d2 / e2 + d3 * d3 / e3
            if aa != 0.0 and 0.0 < -(x1 * d1 / e1 + x2 * d2 / e2 + x3 * d3 / e3) / aa < 1.0:
                turns += 1
        for i in planes:
            d = b[i] - a[i]
            if d != 0.0 and 0.0 < -a[i] / d < 1.0:
                turns += 1
    return (turns + 1) // 2


def _period(traj: Trajectory, tol: float) -> tuple[int, int, int] | None:
    """(n, m1, n1) of ``detect_period``'s signature, without the lam3
    count; None when the trajectory does not close.  A record's direction is
    normalized only where its position already returns."""
    rows = traj.rows
    if traj.error is not None or not rows:
        return None
    reach = tol * traj.ellipsoid.scale()
    row = rows[0]
    x1, x2, x3 = row[0], row[1], row[2]
    d1, d2, d3 = _unit(row[6], row[7], row[8])
    for n in range(1, len(rows)):
        row = rows[n]
        if math.sqrt((row[0] - x1) ** 2 + (row[1] - x2) ** 2 + (row[2] - x3) ** 2) <= reach:
            e1, e2, e3 = _unit(row[6], row[7], row[8])
            if math.sqrt((e1 - d1) ** 2 + (e2 - d2) ** 2 + (e3 - d3) ** 2) <= tol:
                comps = [r[9] for r in rows[:n]]
                return n, comps.count(_CAP_NORTH) + comps.count(_CAP_SOUTH), comps.count(_BELT)
    return None


def closure_error_at(traj: Trajectory, n: int) -> float:
    """Phase-space mismatch between bounce n and bounce 0, the closure gate
    of ``search.cross_validate``; inf when n < 1, where no bounce closes the
    orbit, or the trajectory has no bounce n."""
    rows = traj.rows
    if n < 1 or len(rows) <= n:
        return math.inf
    x1, x2, x3, _, _, _, o1, o2, o3, _, _ = rows[0]
    y1, y2, y3, _, _, _, q1, q2, q3, _, _ = rows[n]
    d1, d2, d3 = _unit(o1, o2, o3)
    e1, e2, e3 = _unit(q1, q2, q3)
    scale = traj.ellipsoid.scale()
    dp = math.sqrt((y1 - x1) ** 2 + (y2 - x2) ** 2 + (y3 - x3) ** 2) / scale
    dd = math.sqrt((e1 - d1) ** 2 + (e2 - d2) ** 2 + (e3 - d3) ** 2)
    return max(dp, dd)


def detect_period(traj: Trajectory, tol: float = RETURN_TOL_DEFAULT) -> PeriodSignature | None:
    """Smallest bounce count with a joint position/direction return.

    Returns the signature (n, m1, n1, n2): cap bounces, belt bounces and the
    number of completed lam3 oscillations over the period.  The period and
    its bounce counts come from ``_period``; only n2 needs the lam3 event
    count.  Raises InvalidToleranceError unless tol is finite and > 0.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidToleranceError(f"tol must be finite and > 0, got {tol}")
    period = _period(traj, tol)
    if period is None:
        return None
    n, m1, n1 = period
    return PeriodSignature(n, m1, n1, _lambda3_event_count(traj, n))


# parity constraints per case, from the winding-count structure of the proof:
# a coordinate whose non-zero turning endpoint is a coordinate-plane value has
# an even touch count along any closed trajectory.
_PARITY_EVEN: dict[CausticCase, tuple[str, ...]] = {
    CausticCase.S1: ("n2",),
    CausticCase.S2: ("m1", "n2"),
    CausticCase.S3: ("m1", "n1", "n2"),
    CausticCase.S4: ("n1", "n2"),
    CausticCase.T1: ("m1", "n2"),
    CausticCase.T2: ("m1", "n2"),
    CausticCase.T3: ("m1", "n1"),
    CausticCase.T4: ("m1", "n1", "n2"),
    CausticCase.DOUBLE: ("m1", "n1"),
}


def parity_ok(sig: PeriodSignature, case: CausticCase) -> bool:
    """Check the case parity laws of the period signature."""
    if sig.n != sig.m1 + sig.n1:
        return False
    for name in _PARITY_EVEN.get(case, ()):
        if getattr(sig, name) % 2 != 0:
            return False
    return True
