"""Billiard map inside the ellipsoid: segment extension, reflection with
polar-cap / equatorial-belt / tropic bookkeeping, Chasles residual and
numeric period detection with winding counts.

A bounce on a polar cap is where the first elliptic coordinate vanishes,
a bounce on the equatorial belt where the second does.  A tropic impact
(light-like surface normal) only extends the billiard map when the incoming
direction is itself the normal vector lying in the tangent plane; it then
reverses the ray and is counted as two reflections, one off a cap and one
off the belt.  Transversal tropic impacts terminate the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .confocal import (
    CausticCase,
    CausticPair,
    Ellipsoid,
    EllipticCoords,
    classify_case,
    elliptic_coordinates,
    line_caustics,
    require_inside,
    tangency_residual,
)
from .errors import (
    BilliardError,
    DegeneratePointError,
    InconsistentConfigurationError,
    NoForwardIntersectionError,
    UndefinedReflectionError,
    ZeroVectorError,
)
from .minkowski import LineType, Vec3, classify_direction, mink_dot, reflect_direction

TROPIC_TOL = 1e-9
IMPACT_RESIDUAL_TOL = 1e-12
RETURN_TOL_DEFAULT = 1e-6


class SurfaceComponent(Enum):
    CAP_NORTH = "capN"
    CAP_SOUTH = "capS"
    BELT = "belt"
    TROPIC = "tropic"


@dataclass(frozen=True, slots=True)
class BounceRecord:
    point: Vec3
    incoming: Vec3
    outgoing: Vec3
    component: SurfaceComponent
    param_t: float
    coords: EllipticCoords | None    # None on degenerate loci (axial orbits etc.)


@dataclass(frozen=True, slots=True)
class PeriodSignature:
    n: int
    m1: int
    n1: int
    n2: int


@dataclass(slots=True)
class Trajectory:
    start_point: Vec3
    start_direction: Vec3
    ellipsoid: Ellipsoid
    bounces: list[BounceRecord] = field(default_factory=list)
    caustics: CausticPair | None = None
    case: CausticCase | None = None
    error: str | None = None

    @property
    def linetype(self) -> LineType:
        return classify_direction(self.start_direction)


def surface_normal(p: Vec3, ell: Ellipsoid) -> Vec3:
    """Minkowski normal to the ellipsoid at p (index-lowered gradient)."""
    return Vec3(2.0 * p.x1 / ell.a1, 2.0 * p.x2 / ell.a2, -2.0 * p.x3 / ell.a3)


def classify_surface_point(p: Vec3, ell: Ellipsoid, tol: float = TROPIC_TOL) -> SurfaceComponent:
    """Component of the ellipsoid by the causal character of its normal.

    Time-like normal (induced metric Riemannian) means a polar cap, split
    north/south by the sign of x3; space-like normal means the Lorentzian
    equatorial belt; a light-like normal is the tropic curve itself.
    """
    n = surface_normal(p, ell)
    nn = mink_dot(n, n)
    if abs(nn) <= tol * n.euclid_norm2():
        return SurfaceComponent.TROPIC
    if nn < 0.0:
        return SurfaceComponent.CAP_NORTH if p.x3 >= 0.0 else SurfaceComponent.CAP_SOUTH
    return SurfaceComponent.BELT


def next_impact(p: Vec3, v: Vec3, ell: Ellipsoid) -> tuple[Vec3, float]:
    """Smallest forward ray parameter where p + t v meets the ellipsoid.

    Solves the Euclidean quadratic with the stable-root form and polishes by
    Newton to surface residual <= 1e-12.
    """
    if v.euclid_norm2() == 0.0:
        raise ZeroVectorError("ray direction is zero")
    a = v.x1 * v.x1 / ell.a1 + v.x2 * v.x2 / ell.a2 + v.x3 * v.x3 / ell.a3
    b = 2.0 * (p.x1 * v.x1 / ell.a1 + p.x2 * v.x2 / ell.a2 + p.x3 * v.x3 / ell.a3)
    c = ell.surface_residual(p)
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise NoForwardIntersectionError("ray does not cross the ellipsoid")
    sq = math.sqrt(disc)
    qq = -(b + math.copysign(sq, b)) / 2.0
    cands = [qq / a]
    if qq != 0.0:
        cands.append(c / qq)
    tmin = 1e-10 * ell.scale() / v.euclid_norm()
    fwd = [t for t in cands if t > tmin]
    if not fwd:
        raise NoForwardIntersectionError("no forward intersection beyond the start point")
    t = min(fwd)

    # Newton polish on the surface residual along the ray
    for _ in range(4):
        q = Vec3(p.x1 + t * v.x1, p.x2 + t * v.x2, p.x3 + t * v.x3)
        f = ell.surface_residual(q)
        if abs(f) <= IMPACT_RESIDUAL_TOL:
            break
        df = 2.0 * (q.x1 * v.x1 / ell.a1 + q.x2 * v.x2 / ell.a2 + q.x3 * v.x3 / ell.a3)
        if df == 0.0:
            break
        t -= f / df
    return Vec3(p.x1 + t * v.x1, p.x2 + t * v.x2, p.x3 + t * v.x3), t


def reflect_at(p: Vec3, v: Vec3, ell: Ellipsoid, tol: float = TROPIC_TOL) -> Vec3:
    """Reflected direction at an impact point p on the ellipsoid.

    At tropic points the map extends as v' = -v only for a ray along the
    (light-like) normal lying in the tangent plane; transversal rays raise
    UndefinedReflectionError.
    """
    n = surface_normal(p, ell)
    nn = mink_dot(n, n)
    if abs(nn) <= tol * n.euclid_norm2():
        # tropic: check the orthogonal-vector-in-tangent-plane configuration
        vn = v.euclid_normalized()
        nnorm = n.euclid_normalized()
        cross2 = ((vn.x2 * nnorm.x3 - vn.x3 * nnorm.x2) ** 2
                  + (vn.x3 * nnorm.x1 - vn.x1 * nnorm.x3) ** 2
                  + (vn.x1 * nnorm.x2 - vn.x2 * nnorm.x1) ** 2)
        if cross2 <= 1e-18:
            return -v
        raise UndefinedReflectionError("transversal impact on the tropic curve")
    return reflect_direction(v, n, tol=0.0)


def _record_coords(p: Vec3, ell: Ellipsoid) -> EllipticCoords | None:
    try:
        return elliptic_coordinates(p, ell)
    except DegeneratePointError:
        return None


def trace(p: Vec3, v: Vec3, ell: Ellipsoid, max_bounces: int) -> Trajectory:
    """Iterate the billiard map, attaching caustics, case and per-bounce data.

    Stops at max_bounces or at an undefined reflection / degenerate start;
    partial trajectories carry the failure in ``error``.  A start point
    outside the ellipsoid raises OutsideDomainError and a negative bounce
    count ValueError.
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

    cur_p, cur_v = p, v
    while len(traj.bounces) < max_bounces:
        try:
            hit, t = next_impact(cur_p, cur_v, ell)
        except BilliardError as exc:
            traj.error = f"impact: {exc}"
            break
        comp = classify_surface_point(hit, ell)
        try:
            out = reflect_at(hit, cur_v, ell)
        except BilliardError as exc:
            traj.bounces.append(BounceRecord(hit, cur_v, cur_v, comp, t,
                                             _record_coords(hit, ell)))
            traj.error = f"reflection: {exc}"
            break
        coords = _record_coords(hit, ell)
        if comp is SurfaceComponent.TROPIC:
            # counted as two reflections: one off a cap, one off the belt
            cap = SurfaceComponent.CAP_NORTH if hit.x3 >= 0.0 else SurfaceComponent.CAP_SOUTH
            traj.bounces.append(BounceRecord(hit, cur_v, out, cap, t, coords))
            traj.bounces.append(BounceRecord(hit, cur_v, out, SurfaceComponent.BELT, t, coords))
        else:
            traj.bounces.append(BounceRecord(hit, cur_v, out, comp, t, coords))
        cur_p, cur_v = hit, out
    return traj


def chasles_residual(traj: Trajectory) -> float:
    """Worst normalized tangency residual of any segment at either caustic."""
    if traj.caustics is None or len(traj.bounces) < 2:
        return 0.0
    cp = traj.caustics
    ell = traj.ellipsoid
    worst = 0.0
    segs = [(traj.start_point, traj.start_direction)]
    segs += [(b.point, b.outgoing) for b in traj.bounces[:-1]]
    for (sp, sv) in segs:
        for g in (cp.gamma1, cp.gamma2):
            worst = max(worst, tangency_residual(sp, sv, ell, g))
    return worst


def _lambda3_sweep_count(traj: Trajectory, n: int, samples_per_segment: int = 32) -> int:
    """Completed oscillations of the third elliptic coordinate over one period.

    The coordinate turns only at its interval endpoints, so the number of
    direction reversals of a densely sampled sequence equals the number of
    endpoint touches; one full oscillation is two touches.
    """
    ell = traj.ellipsoid
    vals: list[float] = []
    for k in range(n):
        a = traj.bounces[k].point
        bpt = traj.bounces[k + 1].point if k + 1 < len(traj.bounces) else None
        if bpt is None:
            break
        for j in range(samples_per_segment):
            s = (j + 0.5) / samples_per_segment
            q = Vec3(a.x1 + s * (bpt.x1 - a.x1), a.x2 + s * (bpt.x2 - a.x2),
                     a.x3 + s * (bpt.x3 - a.x3))
            try:
                vals.append(elliptic_coordinates(q, ell).lam3)
            except BilliardError:
                continue
    if len(vals) < 3:
        return 0
    span = max(vals) - min(vals)
    if span <= 1e-9 * max(ell.a1, ell.a3):
        return 0    # lam3 pinned (double caustic: segments on the ruled quadric)
    reversals = 0
    prev_sign = 0
    for i in range(1, len(vals)):
        d = vals[i] - vals[i - 1]
        if abs(d) <= 1e-14:
            continue
        sgn = 1 if d > 0 else -1
        if prev_sign != 0 and sgn != prev_sign:
            reversals += 1
        prev_sign = sgn
    return (reversals + 1) // 2


def detect_period(traj: Trajectory, tol: float = RETURN_TOL_DEFAULT) -> PeriodSignature | None:
    """Smallest bounce count with a joint position/direction return.

    Returns the signature (n, m1, n1, n2): cap bounces, belt bounces (tropic
    events already appear as one of each in the record list) and the number
    of completed lam3 oscillations over the period.
    """
    if traj.error is not None or not traj.bounces:
        return None
    ell = traj.ellipsoid
    scale = ell.scale()
    recs = traj.bounces

    def state(i: int) -> tuple[Vec3, Vec3]:
        return recs[i].point, recs[i].outgoing.euclid_normalized()

    def is_dual_twin(i: int) -> bool:
        # second record of a tropic event: same point and outgoing as its pair
        return (i > 0 and recs[i].point == recs[i - 1].point
                and recs[i].outgoing == recs[i - 1].outgoing)

    p0, d0 = state(0)
    for n in range(1, len(recs)):
        if is_dual_twin(n):
            continue
        pn, dn = state(n)
        dp = math.sqrt((pn.x1 - p0.x1) ** 2 + (pn.x2 - p0.x2) ** 2 + (pn.x3 - p0.x3) ** 2)
        dd = math.sqrt((dn.x1 - d0.x1) ** 2 + (dn.x2 - d0.x2) ** 2 + (dn.x3 - d0.x3) ** 2)
        if dp <= tol * scale and dd <= tol:
            m1 = sum(1 for r in recs[:n]
                     if r.component in (SurfaceComponent.CAP_NORTH, SurfaceComponent.CAP_SOUTH))
            n1 = sum(1 for r in recs[:n] if r.component is SurfaceComponent.BELT)
            n2 = _lambda3_sweep_count(traj, n)
            return PeriodSignature(n, m1, n1, n2)
    return None


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
