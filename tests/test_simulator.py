import math
import random
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkbilliards import (
    CausticCase,
    CausticPair,
    Ellipsoid,
    LineType,
    SurfaceComponent,
    Vec3,
    chasles_residual,
    classify_case,
    classify_direction,
    classify_surface_point,
    detect_period,
    elliptic_coordinates,
    line_caustics,
    mink_dot,
    next_impact,
    parity_ok,
    reflect_at,
    reflect_direction,
    surface_normal,
    tangent_line_for_caustics,
    trace,
)
from minkbilliards.errors import (
    BilliardError,
    DegeneratePointError,
    InconsistentConfigurationError,
    InvalidToleranceError,
    LightLikeNormalError,
    NoForwardIntersectionError,
    UndefinedReflectionError,
    ZeroVectorError,
)
from minkbilliards.simulator import (
    IMPACT_RESIDUAL_TOL,
    RETURN_TOL_DEFAULT,
    TROPIC_TOL,
    PeriodSignature,
    _lambda3_event_count,
)
from conftest import (
    TROPIC_MARGIN,
    admissible_trace,
    random_direction,
    random_interior_point,
    ref_lambda3_sweep_count,
    tropic_margin,
)


def tropic_point(e421) -> Vec3:
    # on the surface with <n,n> = 0: x2 = 0, x1 = 4 x3, 5 x3^2 = 1
    x3 = 1.0 / math.sqrt(5.0)
    return Vec3(4.0 * x3, 0.0, x3)


def test_surface_normal(e421):
    assert surface_normal(Vec3(2, 0, 0), e421).as_tuple() == (1.0, 0.0, 0.0)
    n = surface_normal(Vec3(0, 0, 1), e421)
    assert n.as_tuple() == (0.0, 0.0, -2.0)
    assert mink_dot(n, n) == -4.0          # pole lies on a polar cap


def test_surface_normal_orthogonal_to_tangents(e421):
    rng = random.Random(7)
    for _ in range(20):
        # random surface point by scaling
        p = random_interior_point(rng, e421)
        t = 1.0 / math.sqrt(p.x1 ** 2 / 4 + p.x2 ** 2 / 2 + p.x3 ** 2)
        p = t * p
        n = surface_normal(p, e421)
        # explicit tangent basis from the Euclidean gradient
        g = Vec3(2 * p.x1 / 4, 2 * p.x2 / 2, 2 * p.x3)
        ref = Vec3(1, 0, 0) if abs(g.x1) < 0.9 * g.euclid_norm() else Vec3(0, 1, 0)
        t1 = Vec3(g.x2 * ref.x3 - g.x3 * ref.x2, g.x3 * ref.x1 - g.x1 * ref.x3,
                  g.x1 * ref.x2 - g.x2 * ref.x1)
        t2 = Vec3(g.x2 * t1.x3 - g.x3 * t1.x2, g.x3 * t1.x1 - g.x1 * t1.x3,
                  g.x1 * t1.x2 - g.x2 * t1.x1)
        for tg in (t1, t2):
            assert abs(mink_dot(n, tg)) <= 1e-12 * n.euclid_norm() * tg.euclid_norm()


def test_classify_surface_point(e421):
    assert classify_surface_point(Vec3(0, 0, 1), e421) is SurfaceComponent.CAP_NORTH
    assert classify_surface_point(Vec3(0, 0, -1), e421) is SurfaceComponent.CAP_SOUTH
    assert classify_surface_point(Vec3(2, 0, 0), e421) is SurfaceComponent.BELT
    assert classify_surface_point(tropic_point(e421), e421) is SurfaceComponent.TROPIC


def test_next_impact_axis_shots(e421):
    hit, t = next_impact(Vec3(0, 0, 0), Vec3(1, 0, 0), e421)
    assert t == pytest.approx(2.0, abs=1e-12)
    assert (hit - Vec3(2, 0, 0)).euclid_norm() <= 1e-12
    hit, t = next_impact(Vec3(0, 0, 0), Vec3(0, 0, 1), e421)
    assert t == pytest.approx(1.0, abs=1e-12)


def test_next_impact_residual(e421):
    rng = random.Random(8)
    for _ in range(100):
        p = random_interior_point(rng, e421)
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        hit, t = next_impact(p, v, e421)
        assert abs(e421.surface_residual(hit)) <= 1e-12
        # oracle: bisection on the residual along the ray
        lo, hi = 0.0, t * 1.5
        assert e421.surface_residual(Vec3(p.x1 + hi * v.x1, p.x2 + hi * v.x2,
                                          p.x3 + hi * v.x3)) > 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            q = Vec3(p.x1 + mid * v.x1, p.x2 + mid * v.x2, p.x3 + mid * v.x3)
            if e421.surface_residual(q) < 0:
                lo = mid
            else:
                hi = mid
        assert t == pytest.approx(0.5 * (lo + hi), abs=1e-19 + 1e-10 * t)


def test_next_impact_no_forward(e421):
    with pytest.raises(NoForwardIntersectionError):
        next_impact(Vec3(2, 0, 0), Vec3(1, 0, 0), e421)     # pointing outward


def test_reflect_at_pole_and_belt(e421):
    out = reflect_at(Vec3(0, 0, 1), Vec3(0, 0, 1), e421)
    assert (out + Vec3(0, 0, 1)).euclid_norm() <= 1e-14
    v = Vec3(0.3, 0.2, -0.5)
    out = reflect_at(Vec3(2, 0, 0), v, e421)
    assert abs(mink_dot(out, out) - mink_dot(v, v)) <= 1e-9 * v.euclid_norm2()


def test_reflect_at_tropic(e421):
    p = tropic_point(e421)
    with pytest.raises(UndefinedReflectionError):
        reflect_at(p, Vec3(1, 0, 0), e421)        # transversal
    # along the normal, which lies in the tangent plane: no chord runs
    # there, and the reflection is not defined either
    with pytest.raises(UndefinedReflectionError):
        reflect_at(p, surface_normal(p, e421), e421)


def test_trace_chasles_and_type_preservation(e421):
    rng = random.Random(9)
    for lt in (LineType.SPACELIKE, LineType.TIMELIKE, LineType.LIGHTLIKE):
        t = admissible_trace(rng, e421, lt, 100)
        assert chasles_residual(t) <= 1e-8
        t0 = classify_direction(t.start_direction)
        for b in t.bounces:
            assert classify_direction(b.outgoing, tol=1e-9) is t0


_SIGNED_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.tuples(_SIGNED_UNIT, _SIGNED_UNIT, _SIGNED_UNIT), st.floats(0.0, 0.9),
       st.sampled_from(list(LineType)), st.floats(0.0, 2.0 * math.pi), st.floats(-0.9, 0.9))
def test_chasles_invariance_property(w, rho, lt, theta, s):
    # drawn next to the seeded sampler above: a point at relative radius
    # rho <= 0.9 of (4, 2, 1) and a direction of each line type, away from
    # the light cone or built on it; every admissible 200-bounce trace keeps
    # its caustics to 1e-8
    e421 = Ellipsoid(4.0, 2.0, 1.0)
    norm = math.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2)
    assume(norm >= 1e-3)
    p = Vec3(2.0 * rho * w[0] / norm, math.sqrt(2.0) * rho * w[1] / norm, rho * w[2] / norm)
    c, sn = math.cos(theta), math.sin(theta)
    if lt is LineType.SPACELIKE:
        v = Vec3(c, sn, s)
    elif lt is LineType.TIMELIKE:
        v = Vec3(s * c, s * sn, 1.0)
    else:
        v = Vec3(c, sn, math.copysign(math.hypot(c, sn), s))
    assert classify_direction(v) is lt
    traj = trace(p, v, e421, 200)
    assume(traj.error is None and len(traj.bounces) == 200)
    assume(tropic_margin(traj) >= TROPIC_MARGIN)
    assert chasles_residual(traj) <= 1e-8


def test_trace_caustics_per_segment(e421):
    # every segment of a trace touches the same two quadrics
    rng = random.Random(10)
    t = admissible_trace(rng, e421, LineType.SPACELIKE, 50)
    cp = t.caustics
    segs = [(t.start_point, t.start_direction)] + [(b.point, b.outgoing) for b in t.bounces[:-1]]
    for (sp, sv) in segs[::7]:
        got = line_caustics(sp, sv, e421)
        assert got.gamma1 == pytest.approx(cp.gamma1, abs=1e-8)
        assert got.gamma2 == pytest.approx(cp.gamma2, abs=1e-8)


def test_trace_lightlike_sentinel(e421):
    rng = random.Random(11)
    t = admissible_trace(rng, e421, LineType.LIGHTLIKE, 30)
    assert t.caustics is not None and t.caustics.gamma2 is None
    assert t.case is CausticCase.LIGHT


def test_chasles_sensitivity(e421):
    from minkbilliards.confocal import tangency_residual
    rng = random.Random(12)
    t = admissible_trace(rng, e421, LineType.SPACELIKE, 40)
    cp = t.caustics
    b = t.bounces[5]
    # corrupt one bounce point by 1e-3 and re-evaluate that segment's residual
    bad_point = Vec3(b.point.x1 + 1e-3, b.point.x2, b.point.x3)
    r = max(tangency_residual(bad_point, b.outgoing, e421, cp.gamma1),
            tangency_residual(bad_point, b.outgoing, e421, cp.gamma2))
    assert r > 1e-6


def test_axial_period_two(e421):
    t = trace(Vec3(0, 0, 0), Vec3(0, 0, 1), e421, 8)
    assert t.error is None
    sig = detect_period(t)
    assert sig is not None
    assert (sig.n, sig.m1, sig.n1) == (2, 2, 0)
    comps = {b.component for b in t.bounces}
    assert comps == {SurfaceComponent.CAP_NORTH, SurfaceComponent.CAP_SOUTH}


def test_tropic_transversal_flags_trajectory(e421):
    p = tropic_point(e421)
    # a chord ending exactly at the tropic point, transversal
    v = Vec3(-p.x1, 0.05 - p.x2, -p.x3)   # towards an interior point
    start = Vec3(p.x1 + v.x1, p.x2 + v.x2, p.x3 + v.x3)
    t = trace(start, Vec3(-v.x1, -v.x2, -v.x3), e421, 5)
    assert t.error is not None and "reflection" in t.error


def _near_tropic_chords(rng: random.Random, e421, count: int):
    """Chords from seeded interior points of (4, 2, 1) to points at most
    1e-7 relative off its tropic curve 5 x3^2 = 1 + x2^2/2,
    x1^2 = 4 (4 - 3 x2^2)/5, some of them on it to the last bit."""
    for _ in range(count):
        x2 = rng.uniform(-1.0, 1.0) * math.sqrt(4.0 / 3.0)
        x1 = rng.choice((-2.0, 2.0)) * math.sqrt((4.0 - 3.0 * x2 * x2) / 5.0)
        x3 = rng.choice((-1.0, 1.0)) * math.sqrt((1.0 + x2 * x2 / 2.0) / 5.0)
        rel = rng.choice((0.0, 1e-13, 1e-10, 1e-7))
        q = Vec3(x1 * (1.0 + rel * rng.uniform(-1.0, 1.0)), x2 + rel * rng.uniform(-1.0, 1.0),
                 x3 * (1.0 + rel * rng.uniform(-1.0, 1.0)))
        s = random_interior_point(rng, e421)
        yield s, q - s


def test_a_tropic_impact_ends_the_trajectory(e421):
    # one row per reflection: no two consecutive rows share an impact point;
    # a tropic row is the last one, with the incoming direction as outgoing
    # and the error of an undefined reflection
    rng = random.Random(30)
    trajs = [admissible_trace(rng, e421, lt, 60)
             for lt in (LineType.SPACELIKE, LineType.TIMELIKE, LineType.LIGHTLIKE)]
    trajs += [trace(s, v, e421, 8) for s, v in _near_tropic_chords(rng, e421, 400)]
    ended = 0
    for traj in trajs:
        rows = traj.rows
        assert all(a[0:3] != b[0:3] for a, b in zip(rows, rows[1:]))
        for i, row in enumerate(rows):
            if row[9] is SurfaceComponent.TROPIC:
                assert i == len(rows) - 1 and row[6:9] == row[3:6]
                assert traj.error.startswith("reflection: ")
                ended += 1
    assert 0 < ended < len(trajs) - 3


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_detect_period_refuses_a_tolerance_not_finite_and_positive(tol):
    # on the exact 4-periodic start a tolerance <= 0 or nan would close
    # nothing and inf would close at once
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    p, v = tangent_line_for_caustics(ell, CausticPair(0.75, -3.0, LineType.SPACELIKE, -1))
    traj = trace(p, v, ell, 12)
    assert detect_period(traj) == PeriodSignature(4, 1, 3, 2)
    with pytest.raises(InvalidToleranceError, match="tol must be finite and > 0"):
        detect_period(traj, tol)


def test_lambda_oscillation_turning_points(e421):
    # each elliptic coordinate, sampled densely, turns only near its
    # interval endpoints
    rng = random.Random(13)
    t = admissible_trace(rng, e421, LineType.SPACELIKE, 25)
    from minkbilliards import interval_partition
    part = interval_partition(t.caustics, e421)
    (c1, _), (_, b1), (b2, b3) = part.motion_intervals()
    bounds = [(c1, 0.0), (0.0, b1), (b2, b3)]
    samples = [[], [], []]
    segs = [(t.start_point, t.start_direction)] + [(b.point, b.outgoing) for b in t.bounces[:-1]]
    for (sp, sv), bn in zip(segs, t.bounces):
        for j in range(80):
            s = (j + 0.5) / 80 * bn.param_t
            q = Vec3(sp.x1 + s * sv.x1, sp.x2 + s * sv.x2, sp.x3 + s * sv.x3)
            try:
                c = elliptic_coordinates(q, e421)
            except DegeneratePointError:
                continue
            for i, lam in enumerate(c.as_tuple()):
                samples[i].append(lam)
        # the bounce point itself is the endpoint touch of one coordinate
        if bn.coords is not None:
            for i, lam in enumerate(bn.coords.as_tuple()):
                samples[i].append(lam)
    for i, vals in enumerate(samples):
        lo, hi = bounds[i]
        width = hi - lo
        for k in range(1, len(vals) - 1):
            d1, d2 = vals[k] - vals[k - 1], vals[k + 1] - vals[k]
            if d1 * d2 < 0 and min(abs(d1), abs(d2)) > 1e-12:
                # interior turning point: must hug an interval endpoint
                dist = min(abs(vals[k] - lo), abs(vals[k] - hi))
                assert dist <= 1e-2 * width


def test_parity_laws_on_detected_periods(e421):
    sig = PeriodSignature(4, 1, 3, 2)
    assert parity_ok(sig, CausticCase.S1)
    assert not parity_ok(PeriodSignature(4, 1, 3, 3), CausticCase.S1)   # n2 odd
    assert not parity_ok(PeriodSignature(5, 3, 2, 2), CausticCase.S2)   # m1 odd
    assert parity_ok(PeriodSignature(5, 2, 3, 2), CausticCase.S2)
    assert not parity_ok(PeriodSignature(4, 2, 3, 2), CausticCase.S1)   # n != m1+n1


def test_nonperiodic_returns_none(e421):
    rng = random.Random(14)
    t = admissible_trace(rng, e421, LineType.SPACELIKE, 60)
    assert detect_period(t, tol=1e-9) is None


def test_chasles_single_segment_is_zero(e421):
    t = trace(Vec3(0.1, 0.2, 0.05), Vec3(1.0, 0.3, 0.2), e421, 1)
    assert chasles_residual(t) == 0.0


def test_caustic_touch_along_trace(e421):
    # coordinates approach each caustic parameter that bounds a motion
    # interval; caustics outside the intervals are touched outside the
    # ellipsoid and are exempt
    from minkbilliards import interval_partition
    rng = random.Random(15)
    t = admissible_trace(rng, e421, LineType.SPACELIKE, 40)
    cp = t.caustics
    part = interval_partition(cp, e421)
    (c1, _), (_, b1), (b2, b3) = part.motion_intervals()
    slot_caustics = [g for g in (cp.gamma1, cp.gamma2) if g in (c1, b1, b2, b3)]
    assert slot_caustics
    best = {g: math.inf for g in slot_caustics}
    segs = [(t.start_point, t.start_direction)] + [(b.point, b.outgoing) for b in t.bounces[:-1]]
    for (sp, sv), bn in zip(segs, t.bounces):
        for j in range(64):
            s = (j + 0.5) / 64 * bn.param_t
            q = Vec3(sp.x1 + s * sv.x1, sp.x2 + s * sv.x2, sp.x3 + s * sv.x3)
            try:
                c = elliptic_coordinates(q, e421)
            except DegeneratePointError:
                continue
            for g in slot_caustics:
                best[g] = min(best[g], min(abs(lam - g) for lam in c.as_tuple()))
    for g, d in best.items():
        assert d <= 1e-4, (g, d)


# -- the Vec3 loop that trace ran before its float kernels, kept as the
# reference they must reproduce bit for bit ---------------------------------

def _ref_unit(v: Vec3) -> Vec3:
    n = v.euclid_norm()
    if n == 0.0:
        raise ZeroVectorError("cannot normalize zero vector")
    return Vec3(v.x1 / n, v.x2 / n, v.x3 / n)


def _ref_normal(p: Vec3, ell) -> Vec3:
    return Vec3(2.0 * p.x1 / ell.a1, 2.0 * p.x2 / ell.a2, -2.0 * p.x3 / ell.a3)


def _ref_classify(p: Vec3, ell) -> SurfaceComponent:
    n = _ref_normal(p, ell)
    nn = mink_dot(n, n)
    if abs(nn) <= TROPIC_TOL * n.euclid_norm2():
        return SurfaceComponent.TROPIC
    if nn < 0.0:
        return SurfaceComponent.CAP_NORTH if p.x3 >= 0.0 else SurfaceComponent.CAP_SOUTH
    return SurfaceComponent.BELT


def _ref_next_impact(p: Vec3, v: Vec3, ell) -> tuple[Vec3, float]:
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


def _ref_reflect_at(p: Vec3, v: Vec3, ell) -> Vec3:
    n = _ref_normal(p, ell)
    nn = mink_dot(n, n)
    if abs(nn) <= TROPIC_TOL * n.euclid_norm2():
        raise UndefinedReflectionError("transversal impact on the tropic curve")
    if n.euclid_norm2() == 0.0:
        raise ZeroVectorError("reflection normal is zero")
    if mink_dot(n, n) == 0.0:
        raise LightLikeNormalError("reflection in a light-like normal is not defined")
    coef = 2.0 * mink_dot(v, n) / nn
    return v - coef * n


def _ref_coords(p: Vec3, ell):
    try:
        return elliptic_coordinates(p, ell)
    except DegeneratePointError:
        return None


def _ref_trace(p: Vec3, v: Vec3, ell, max_bounces: int):
    """(records, error) of the old loop; a record is (point, incoming,
    outgoing, component, param_t, coords)."""
    recs, error = [], None
    try:
        classify_case(line_caustics(p, v, ell), ell)
    except InconsistentConfigurationError:
        pass
    except BilliardError as exc:
        return recs, f"caustics: {exc}"
    cur_p, cur_v = p, v
    while len(recs) < max_bounces:
        try:
            hit, t = _ref_next_impact(cur_p, cur_v, ell)
        except BilliardError as exc:
            error = f"impact: {exc}"
            break
        comp = _ref_classify(hit, ell)
        try:
            out = _ref_reflect_at(hit, cur_v, ell)
        except BilliardError as exc:
            recs.append((hit, cur_v, cur_v, comp, t, _ref_coords(hit, ell)))
            error = f"reflection: {exc}"
            break
        recs.append((hit, cur_v, out, comp, t, _ref_coords(hit, ell)))
        cur_p, cur_v = hit, out
    return recs, error


def _ref_tangency_coefficients(p: Vec3, v: Vec3, ell) -> tuple[float, float, float]:
    a1, a2, a3 = ell.a1, ell.a2, ell.a3
    v1s, v2s, v3s = v.x1 * v.x1, v.x2 * v.x2, v.x3 * v.x3
    j12 = p.x1 * v.x2 - p.x2 * v.x1
    j13 = p.x1 * v.x3 - p.x3 * v.x1
    j23 = p.x2 * v.x3 - p.x3 * v.x2
    t0 = (v1s * a2 * a3 + v2s * a1 * a3 + v3s * a1 * a2
          - j12 * j12 * a3 - j13 * j13 * a2 - j23 * j23 * a1)
    t1 = (v1s * (a2 - a3) + v2s * (a1 - a3) - v3s * (a1 + a2)
          - j12 * j12 + j13 * j13 + j23 * j23)
    t2 = -(v1s + v2s - v3s)
    return (t0, t1, t2)


def _ref_chasles_residual(traj) -> float:
    if traj.caustics is None or len(traj.bounces) < 2:
        return 0.0
    worst = 0.0
    segs = [(traj.start_point, traj.start_direction)]
    segs += [(b.point, b.outgoing) for b in traj.bounces[:-1]]
    for (sp, sv) in segs:
        for g in (traj.caustics.gamma1, traj.caustics.gamma2):
            t0, t1, t2 = _ref_tangency_coefficients(sp, _ref_unit(sv), traj.ellipsoid)
            scale0 = abs(t0) + abs(t1) + abs(t2)
            if scale0 == 0.0:
                r = 0.0
            elif g is None:
                r = abs(t2) / scale0
            else:
                ag = abs(g)
                scale = abs(t2) * max(1.0, ag * ag) + abs(t1) * max(1.0, ag) + abs(t0)
                r = abs((t2 * g + t1) * g + t0) / scale
            worst = max(worst, r)
    return worst


def _ref_detect_period(traj, tol: float = RETURN_TOL_DEFAULT):
    if traj.error is not None or not traj.bounces:
        return None
    scale = traj.ellipsoid.scale()
    recs = traj.bounces

    def state(i):
        return recs[i].point, _ref_unit(recs[i].outgoing)

    p0, d0 = state(0)
    for n in range(1, len(recs)):
        pn, dn = state(n)
        dp = math.sqrt((pn.x1 - p0.x1) ** 2 + (pn.x2 - p0.x2) ** 2 + (pn.x3 - p0.x3) ** 2)
        dd = math.sqrt((dn.x1 - d0.x1) ** 2 + (dn.x2 - d0.x2) ** 2 + (dn.x3 - d0.x3) ** 2)
        if dp <= tol * scale and dd <= tol:
            m1 = sum(1 for r in recs[:n]
                     if r.component in (SurfaceComponent.CAP_NORTH, SurfaceComponent.CAP_SOUTH))
            n1 = sum(1 for r in recs[:n] if r.component is SurfaceComponent.BELT)
            return PeriodSignature(n, m1, n1, _lambda3_event_count(traj, n))
    return None


def _reference_starts():
    """Seeded space-, time- and light-like starts (admissible or not), the
    exact 4-periodic starts, the axis shots and a transversal tropic chord."""
    e421 = Ellipsoid(4.0, 2.0, 1.0)
    rng = random.Random(2024)
    starts = []
    for lt in (LineType.SPACELIKE, LineType.TIMELIKE, LineType.LIGHTLIKE):
        for _ in range(6):
            starts.append((e421, random_interior_point(rng, e421), random_direction(rng, lt), 60))
    e_exact = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    cp_exact = CausticPair(0.75, -3.0, LineType.SPACELIKE, -1)
    for k in range(8):
        p, v = tangent_line_for_caustics(e_exact, cp_exact, seed=k)
        starts.append((e_exact, p, v, 12))
    for d in (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1), Vec3(0, 0, -1)):
        starts.append((e421, Vec3(0, 0, 0), d, 6))
    p = tropic_point(e421)
    v = Vec3(-p.x1, 0.05 - p.x2, -p.x3)
    starts.append((e421, Vec3(p.x1 + v.x1, p.x2 + v.x2, p.x3 + v.x3), -1.0 * v, 5))
    return starts


_REFERENCE_STARTS = _reference_starts()


@pytest.mark.parametrize("k", range(len(_REFERENCE_STARTS)))
def test_trace_matches_vec3_reference_loop(k):
    ell, p, v, bounces = _REFERENCE_STARTS[k]
    traj = trace(p, v, ell, bounces)
    ref, ref_error = _ref_trace(p, v, ell, bounces)
    # repr of a float round-trips and tells -0.0 from 0.0: equal text is
    # equal bits
    got = [(b.point, b.incoming, b.outgoing, b.component, b.param_t) for b in traj.bounces]
    assert repr(got) == repr([r[:5] for r in ref])
    assert traj.error == ref_error
    assert repr(chasles_residual(traj)) == repr(_ref_chasles_residual(traj))
    for tol in (RETURN_TOL_DEFAULT, 1e-9):
        assert detect_period(traj, tol) == _ref_detect_period(traj, tol)
    # coordinates computed on access equal the old eager ones
    assert repr([b.coords for b in traj.bounces]) == repr([r[5] for r in ref])


def test_trace_op_builds_no_record_and_no_vec3_per_bounce(monkeypatch):
    # trace, detect_period and chasles_residual build no BounceRecord, and
    # as many Vec3 at 200 bounces as at 20; len(traj.bounces) builds neither
    from minkbilliards import simulator
    e421 = Ellipsoid(4.0, 2.0, 1.0)
    seeded = admissible_trace(random.Random(31), e421, LineType.SPACELIKE, 200)
    ell_x = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    cp_x = CausticPair(0.75, -3.0, LineType.SPACELIKE, -1)
    starts = [(e421, seeded.start_point, seeded.start_direction, None),
              (ell_x, *tangent_line_for_caustics(ell_x, cp_x, seed=0), PeriodSignature(4, 1, 3, 2))]
    built = Counter()
    for cls in (simulator.BounceRecord, simulator.Vec3):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)

    def op(ell, p, v, bounces):
        built.clear()
        traj = trace(p, v, ell, bounces)
        sig = detect_period(traj)
        chasles_residual(traj)
        return traj, sig, Counter(built)

    for ell, p, v, want in starts:
        traj, sig, long_run = op(ell, p, v, 200)
        _, _, short_run = op(ell, p, v, 20)
        assert traj.error is None and sig == want
        assert long_run["BounceRecord"] == 0 and long_run == short_run
        built.clear()
        assert len(traj.bounces) == 200 and not built
    built.clear()
    list(traj.bounces)
    assert built["BounceRecord"] == 200


def test_bounce_view_reads_the_rows_as_records(e421):
    # a read-only sequence: len, negative indices and slices as on the list
    # of records the loop built, and iteration equal to indexing; on a trace,
    # iteration shares each outgoing Vec3 with the next record's incoming
    ell, p, v, bounces = _REFERENCE_STARTS[-1]
    traced = [admissible_trace(random.Random(32), e421, LineType.TIMELIKE, 30),
              trace(p, v, ell, bounces)]
    assert traced[1].error.startswith("reflection")
    for traj in traced:
        view = traj.bounces
        assert isinstance(view, Sequence) and not hasattr(view, "append")
        recs = list(view)
        by_index = [view[i] for i in range(len(view))]
        assert len(view) == len(traj.rows) == len(recs)
        assert recs == by_index and repr(recs) == repr(by_index)
        assert repr(view[-1]) == repr(recs[-1]) and repr(view[-len(view)]) == repr(recs[0])
        for cut in (slice(None, -1), slice(1, 4), slice(None, None, -2), slice(4, 1)):
            assert repr(view[cut]) == repr(recs[cut])
        with pytest.raises(IndexError):
            view[len(view)]
        with pytest.raises(TypeError):
            view[0] = recs[0]
    for traj in traced:
        recs = list(traj.bounces)
        assert recs[0].incoming == traj.start_direction
        assert all(b.incoming is a.outgoing for a, b in zip(recs, recs[1:]))


def test_reference_starts_cover_every_path():
    kinds = set()
    for ell, p, v, bounces in _REFERENCE_STARTS:
        traj = trace(p, v, ell, bounces)
        kinds.add(traj.linetype)
        if traj.error is not None:
            kinds.add(traj.error.split(":")[0])
        if detect_period(traj) is not None:
            kinds.add("period")
        if any(b.coords is None for b in traj.bounces):
            kinds.add("degenerate coords")
    assert kinds >= {LineType.SPACELIKE, LineType.TIMELIKE, LineType.LIGHTLIKE,
                     "reflection", "period", "degenerate coords"}


def test_coords_computed_on_access(e421):
    rng = random.Random(21)
    trajs = [admissible_trace(rng, e421, lt, 30)
             for lt in (LineType.SPACELIKE, LineType.TIMELIKE, LineType.LIGHTLIKE)]
    trajs.append(trace(Vec3(0, 0, 0), Vec3(0, 0, 1), e421, 4))    # axial: degenerate
    seen_none = False
    for t in trajs:
        for b in t.bounces:
            try:
                want = elliptic_coordinates(b.point, e421)
            except DegeneratePointError:
                want = None
            assert b.coords == want
            seen_none = seen_none or want is None
    assert seen_none


def test_newton_polish_keeps_the_finiteness_check():
    # the first Newton step overflows the point; the old loop's checked
    # intermediate Vec3 raised, and the float kernel must raise the same error
    ell = Ellipsoid(1e230, 1e229, 1e-238)
    p, v = Vec3(0.9, -0.8, -0.5), Vec3(-0.3, -0.5, 3e-196)
    with pytest.raises(ValueError) as ref:
        _ref_next_impact(p, v, ell)
    with pytest.raises(ValueError) as got:
        next_impact(p, v, ell)
    assert "non-finite component" in str(ref.value)
    assert str(got.value) == str(ref.value)


def test_reflection_keeps_the_product_check():
    # coef * normal overflows: the old Vec3 product raised before v - coef*n
    v, n = Vec3(1e300, 0.0, 0.0), Vec3(1.0, 0.0, 1.0000000000000002)
    with pytest.raises(ValueError) as ref:
        v - (2.0 * mink_dot(v, n) / mink_dot(n, n)) * n
    with pytest.raises(ValueError) as got:
        reflect_direction(v, n, tol=0.0)
    assert "non-finite component" in str(ref.value)
    assert str(got.value) == str(ref.value)


def test_trace_keeps_the_finiteness_checks(monkeypatch, e421):
    # a non-finite impact point or outgoing direction raises the Vec3
    # ValueError from trace, as the Vec3 the loop built did; finite
    # components whose sum overflows pass
    from minkbilliards import simulator
    p, v = Vec3(0.1, 0.2, 0.05), Vec3(1.0, 0.3, 0.2)
    for name, value in (("_impact", (math.inf, 0.0, 0.0, 1.0)),
                        ("_reflect", (1.0, math.nan, 0.0))):
        with monkeypatch.context() as m:
            m.setattr(simulator, name, lambda *args, value=value: value)
            with pytest.raises(ValueError) as got:
                trace(p, v, e421, 3)
        with pytest.raises(ValueError) as ref:
            Vec3(*value[:3])
        assert str(got.value) == str(ref.value)
    monkeypatch.setattr(simulator, "_reflect", lambda *args: (1e308, 1e308, 0.0))
    assert trace(p, v, e421, 1).rows[0][6:9] == (1e308, 1e308, 0.0)


def _lambda3_events(traj, n: int) -> list[list[float]]:
    """Per segment between the first n + 1 bounces, the sorted parameters
    t in (0, 1) of its caustic tangencies and coordinate-plane crossings."""
    ell, cp = traj.ellipsoid, traj.caustics
    gammas = [g for g in (cp.gamma1, cp.gamma2) if g is not None]
    pts = [b.point for b in traj.bounces[:n + 1]]
    out = []
    for a, b in zip(pts, pts[1:]):
        x, d = a.as_tuple(), (b - a).as_tuple()
        ts = [-xi / di for xi, di in zip(x, d) if di != 0.0]
        for g in gammas:
            dens = (ell.a1 - g, ell.a2 - g, ell.a3 + g)
            if 0.0 in dens:
                continue
            aa = sum(di * di / e for di, e in zip(d, dens))
            bb = sum(xi * di / e for xi, di, e in zip(x, d, dens))
            if aa != 0.0:
                ts.append(-bb / aa)
        out.append(sorted(t for t in ts if 0.0 < t < 1.0))
    return out


def _events_apart(traj, n: int, gap: float) -> bool:
    """Whether every segment's events lie at least ``gap`` apart and from
    the segment ends."""
    for ts in _lambda3_events(traj, n):
        ends = [0.0, *ts, 1.0]
        if any(hi - lo < gap for lo, hi in zip(ends, ends[1:])):
            return False
    return True


DENSE_SAMPLES = 2048    # two samples inside any sub-interval of width >= 1e-3


# (table, random starts per line type, compared traces to exceed); lam3's
# interval [b2, b3] ends at other parameters on the last three tables
_ORACLE_TABLES = [((4.0, 2.0, 1.0), 2, 25), ((3.0, 1.0, 2.0), 6, 12),
                  ((1.0, 6.0 / 7.0, 6.0), 6, 12), ((2.0, 1.9, 0.1), 6, 12)]


def test_lambda3_sweep_matches_vec3_reference():
    # on each table, the event count equals the Vec3 sweep at a dense sample
    # count on non-periodic traces of every line type (and, on (4, 2, 1), on
    # the starts of the reference loop, axial and tropic ones included), over
    # 4 bounces or to past the end of a shorter trace, wherever the events
    # lie >= 1e-3 apart and from the segment ends, so that the dense sweep
    # sees every turning point; the counts themselves cover prefixes up to
    # past the end, and the compared traces at least five caustic cases
    for a, per_type, least in _ORACLE_TABLES:
        ell = Ellipsoid(*a)
        rng = random.Random(44)
        trajs = [admissible_trace(rng, ell, lt, 40)
                 for lt in (LineType.SPACELIKE, LineType.TIMELIKE, LineType.LIGHTLIKE)
                 for _ in range(per_type)]
        if a == (4.0, 2.0, 1.0):
            trajs += [trace(p, v, e, bounces) for e, p, v, bounces in _REFERENCE_STARTS]
        counts, cases, compared = set(), set(), 0
        for traj in trajs:
            for n in (0, 1, 2, 5, 13, 30, len(traj.bounces) + 3):
                counts.add(_lambda3_event_count(traj, n))
            if traj.caustics is not None and _events_apart(traj, 4, 1e-3):
                got = _lambda3_event_count(traj, 4)
                assert got == ref_lambda3_sweep_count(traj, 4, DENSE_SAMPLES), (a, traj.start_point)
                cases.add(traj.case)
                compared += 1
        assert len(counts) > 5 and compared > least and len(cases) >= 5, a


def _long_traces():
    """200-bounce admissible traces of each line type."""
    e421 = Ellipsoid(4.0, 2.0, 1.0)
    rng = random.Random(46)
    return [admissible_trace(rng, e421, lt, 200)
            for lt in (LineType.SPACELIKE, LineType.TIMELIKE, LineType.LIGHTLIKE)]


@pytest.mark.parametrize("traj", _long_traces(), ids=["space", "time", "light"])
def test_readers_match_the_reference_bit_for_bit(traj):
    # the one-pass Chasles residual and period scan return the reference
    # values; the loose tolerances make the scan close on records far from
    # the start
    assert repr(chasles_residual(traj)) == repr(_ref_chasles_residual(traj))
    assert chasles_residual(traj) > 0.0
    closed = 0
    for tol in (RETURN_TOL_DEFAULT, 1e-9, 0.05, 0.3, 1.0):
        sig = detect_period(traj, tol)
        assert sig == _ref_detect_period(traj, tol)
        closed += sig is not None
    assert closed


def test_lambda3_event_count_sees_a_turn_next_to_a_bounce():
    # reference start 6 (T4): its segment from bounce 0 crosses x1 = 0 at
    # t = 1.15e-4, where lam3 reaches a1 and turns.  The sweeps at 32 and
    # 8192 samples per segment put at most one sample before the turn and
    # see lam3 fall monotonically from it; the event count samples twice on
    # either side
    ell, p, v, bounces = _REFERENCE_STARTS[6]
    traj = trace(p, v, ell, bounces)
    assert traj.case is CausticCase.T4
    a, b = traj.bounces[0].point, traj.bounces[1].point
    tc = -a.x1 / (b.x1 - a.x1)
    assert 1.1e-4 < tc < 1.2e-4

    def lam3(t):
        return elliptic_coordinates(a + t * (b - a), ell).lam3

    assert lam3(tc / 4) < lam3(tc / 2) < lam3(3 * tc / 4)          # rises to the crossing
    assert lam3(5 * tc / 4) > lam3(3 * tc / 2) > lam3(7 * tc / 4)  # and falls after it
    assert ref_lambda3_sweep_count(traj, 1) == ref_lambda3_sweep_count(traj, 1, 8192) == 0
    assert _lambda3_event_count(traj, 1) == 1


def test_exact_four_periodic_set_counts_two_lambda3_oscillations():
    # a = (1, 6/7, 6), gamma = (3/4, -3): every tangent line closes after 4
    # bounces with signature (4, 1, 3, 2)
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    cp = CausticPair(0.75, -3.0, LineType.SPACELIKE, -1)
    for k in range(8):
        p, v = tangent_line_for_caustics(ell, cp, seed=k)
        assert detect_period(trace(p, v, ell, 12)) == PeriodSignature(4, 1, 3, 2)

