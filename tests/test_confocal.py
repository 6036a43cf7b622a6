import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkbilliards import (
    CausticCase,
    CausticPair,
    Ellipsoid,
    LineType,
    QuadricType,
    Vec3,
    classify_case,
    elliptic_coordinates,
    interval_partition,
    line_caustics,
    point_from_elliptic,
    quadric_residual,
    quadric_type,
)
from minkbilliards.confocal import (
    EllipticCoords,
    tangency_coefficients,
    tangency_residual,
)
from minkbilliards.errors import (
    DegenerateParameterError,
    DegeneratePointError,
    InconsistentConfigurationError,
    NoInteriorIntersectionError,
    OutsideDomainError,
)
from conftest import random_interior_point


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(2, 2, 1)
    with pytest.raises(ValueError):
        Ellipsoid(4, 2, 0)
    with pytest.raises(ValueError):
        Ellipsoid(2, 4, 1)
    # non-finite parameters are refused as Vec3 refuses them
    for bad in ((4, 2, math.inf), (math.inf, 2, 1), (4, 2, math.nan), (math.nan, 2, 1),
                (4, -math.inf, 1)):
        with pytest.raises(ValueError, match="finite"):
            Ellipsoid(*bad)


def test_quadric_type_intervals(e421):
    assert quadric_type(0.0, e421) is QuadricType.ELLIPSOID
    assert quadric_type(3.0, e421) is QuadricType.HYPERBOLOID_1SHEET_X2
    assert quadric_type(2.0, e421) is QuadricType.PLANE_X2
    assert quadric_type(-5.0, e421) is QuadricType.HYPERBOLOID_1SHEET_X3
    assert quadric_type(7.0, e421) is QuadricType.HYPERBOLOID_2SHEET
    assert quadric_type(4.0, e421) is QuadricType.PLANE_X1
    assert quadric_type(-1.0, e421) is QuadricType.PLANE_X3
    assert quadric_type(math.inf, e421) is QuadricType.PLANE_AT_INFINITY


def test_quadric_residual(e421):
    assert quadric_residual(0.0, Vec3(2, 0, 0), e421) == pytest.approx(0.0, abs=1e-15)
    assert quadric_residual(0.0, Vec3(0, 0, 0), e421) == -1.0
    with pytest.raises(DegenerateParameterError):
        quadric_residual(4.0, Vec3(1, 1, 1), e421)


def test_elliptic_coordinates_bracketing_and_residuals(e421):
    rng = random.Random(2)
    grid_oracle_checked = 0
    for _ in range(300):
        p = random_interior_point(rng, e421, slack=0.05)
        c = elliptic_coordinates(p, e421)
        assert -1 < c.lam1 < 0 < c.lam2 < 2 < c.lam3 < 4
        for lam in c.as_tuple():
            assert abs(quadric_residual(lam, p, e421)) <= 1e-10
        grid_oracle_checked += 1
    assert grid_oracle_checked == 300


def test_elliptic_coordinates_against_scan_oracle(e421):
    # independent oracle: sign-change scan of the residual + bisection
    p = Vec3(0.5, 0.5, 0.2)
    intervals = [(-1.0, 0.0), (0.0, 2.0), (2.0, 4.0)]
    oracle = []
    for (lo, hi) in intervals:
        step = 1e-4 * (hi - lo)
        x = lo + step
        prev = quadric_residual(x, p, e421)
        found = None
        while x < hi - step:
            nxt = quadric_residual(x + step, p, e421)
            if prev == 0.0 or prev * nxt < 0:
                a, b = x, x + step
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    if quadric_residual(a, p, e421) * quadric_residual(mid, p, e421) <= 0:
                        b = mid
                    else:
                        a = mid
                found = 0.5 * (a + b)
                break
            prev = nxt
            x += step
        oracle.append(found)
    c = elliptic_coordinates(p, e421)
    for got, expect in zip(c.as_tuple(), oracle):
        assert expect is not None
        assert got == pytest.approx(expect, abs=1e-9)


def test_point_on_surface_has_zero_coordinate(e421):
    p = Vec3(0.9, 0.7, 0.0)
    # project to the surface along the radius
    t = 1.0 / math.sqrt(p.x1 ** 2 / 4 + p.x2 ** 2 / 2)
    p = Vec3(p.x1 * t, p.x2 * t, 0.31)
    t = 1.0 / math.sqrt(p.x1 ** 2 / 4 + p.x2 ** 2 / 2 + p.x3 ** 2)
    p = Vec3(p.x1 * t, p.x2 * t, p.x3 * t)
    c = elliptic_coordinates(p, e421)
    assert min(abs(c.lam1), abs(c.lam2)) <= 1e-10


def test_elliptic_coordinates_errors(e421):
    # the type and message of each error, at the default surface tolerance
    # and a loose one: vertices and points on two coordinate planes collide
    # with a pole, and a point just outside is refused only at the default
    cases = [
        (Vec3(2, 0, 0), 1e-8, DegeneratePointError,
         "elliptic coordinate 2.0 collides with degenerate parameter 2.0"),
        (Vec3(5, 0, 0), 1e-8, OutsideDomainError, "point outside ellipsoid, residual 5.250e+00"),
        (Vec3(5, 0, 0), 0.05, OutsideDomainError, "point outside ellipsoid, residual 5.250e+00"),
        (Vec3(0, 0, 0), 1e-8, DegeneratePointError,
         "elliptic coordinate 4.0 collides with degenerate parameter 4.0"),
        (Vec3(0, 0.3, 0), 0.05, DegeneratePointError,
         "elliptic coordinate 4.0 collides with degenerate parameter 4.0"),
        (Vec3(2.02, 0.0, 0.1), 1e-8, OutsideDomainError,
         "point outside ellipsoid, residual 3.010e-02"),
        (Vec3(2.02, 0.0, 0.1), 0.05, DegeneratePointError,
         "elliptic coordinate 2.0 collides with degenerate parameter 2.0"),
    ]
    for p, tol, error, msg in cases:
        with pytest.raises(error) as info:
            elliptic_coordinates(p, e421, surface_tol=tol)
        assert str(info.value) == msg, p
    with pytest.raises(OutsideDomainError):
        elliptic_coordinates(Vec3(5, 0, 0), e421)
    assert elliptic_coordinates(Vec3(1.0, 0.5, 0.2), e421, surface_tol=0.05) \
        == elliptic_coordinates(Vec3(1.0, 0.5, 0.2), e421)


def test_point_from_elliptic_round_trip(e421):
    rng = random.Random(3)
    worst = 0.0
    n = 0
    while n < 1000:
        p = random_interior_point(rng, e421, slack=0.02)
        try:
            c = elliptic_coordinates(p, e421)
        except DegeneratePointError:
            continue
        n += 1
        signs = (1 if p.x1 >= 0 else -1, 1 if p.x2 >= 0 else -1, 1 if p.x3 >= 0 else -1)
        q = point_from_elliptic(c, signs, e421)
        worst = max(worst, (p - q).euclid_norm() / max(p.euclid_norm(), 1.0))
    assert worst <= 1e-9


# components and radii kept off 0, where the filters below would reject
# most draws (a zero component lies on a coordinate plane)
_SIGNED_UNIT = st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)


@settings(max_examples=200, deadline=None)
@given(st.tuples(_SIGNED_UNIT, _SIGNED_UNIT, _SIGNED_UNIT), st.floats(1e-3, 1.0))
def test_point_from_elliptic_round_trip_property(w, rho):
    # drawn next to the seeded round trip above: a point at relative radius
    # rho <= 1 of (4, 2, 1), off the coordinate planes (where the octant
    # signs are ambiguous) and off the degenerate loci, comes back from its
    # coordinates and signs
    e421 = Ellipsoid(4.0, 2.0, 1.0)
    norm = math.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2)
    assume(norm >= 1e-3)
    p = Vec3(2.0 * rho * w[0] / norm, math.sqrt(2.0) * rho * w[1] / norm, rho * w[2] / norm)
    assume(min(abs(x) for x in p.as_tuple()) >= 1e-6 * e421.scale())
    try:
        c = elliptic_coordinates(p, e421)
    except DegeneratePointError:
        assume(False)
    q = point_from_elliptic(c, tuple(1 if x > 0 else -1 for x in p.as_tuple()), e421)
    assert (p - q).euclid_norm() <= 1e-9 * e421.scale()


def test_point_from_elliptic_sign_symmetry(e421):
    c = EllipticCoords(-0.5, 1.0, 3.0)
    q = point_from_elliptic(c, (1, 1, 1), e421)
    q2 = point_from_elliptic(c, (-1, -1, -1), e421)
    assert (q + q2).euclid_norm() <= 1e-14


def test_point_on_caustic_slot(e421):
    # coords with lam2 pinned at a caustic parameter land on that quadric
    g = 1.3
    q = point_from_elliptic(EllipticCoords(-0.4, g, 3.1), (1, 1, 1), e421)
    assert abs(quadric_residual(g, q, e421)) <= 1e-9


def test_line_caustics_types(e421):
    p = Vec3(0.1, 0.2, 0.05)
    sp = line_caustics(p, Vec3(1.0, 0.1, 0.0), e421)
    assert sp.linetype is LineType.SPACELIKE
    assert sp.gamma2 < 0 < sp.gamma1 < 4
    assert sp.epsilon == -1

    tm = line_caustics(p, Vec3(0.2, 0.1, 1.0), e421)
    assert tm.linetype is LineType.TIMELIKE
    assert 0 < tm.gamma1 <= tm.gamma2
    assert tm.epsilon == +1

    lt = line_caustics(p, Vec3(1.0, 0.0, 1.0), e421)
    assert lt.linetype is LineType.LIGHTLIKE
    assert lt.gamma2 is None and lt.is_lightlike
    assert 0 < lt.gamma1 < 4


def test_line_caustics_tangency_residual(e421):
    rng = random.Random(4)
    for _ in range(50):
        p = random_interior_point(rng, e421)
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        try:
            cp = line_caustics(p, v, e421)
        except NoInteriorIntersectionError:
            continue
        for g in (cp.gamma1, cp.gamma2):
            assert tangency_residual(p, v, e421, g) <= 1e-9


def test_line_caustics_lightlike_leading_coefficient(e421):
    p = Vec3(0.3, -0.2, 0.1)
    v = Vec3(1.0, 0.5, math.hypot(1.0, 0.5))
    t0, t1, t2 = tangency_coefficients(p, v.euclid_normalized(), e421)
    assert abs(t2) <= 1e-14 * (abs(t0) + abs(t1))
    cp = line_caustics(p, v, e421)
    assert cp.gamma2 is None


def test_line_caustics_misses_interior(e421):
    with pytest.raises(NoInteriorIntersectionError):
        line_caustics(Vec3(10, 0, 0), Vec3(0, 0, 1), e421)


def test_interval_partition_counts(e421):
    p = Vec3(0.1, 0.2, 0.05)
    sp = interval_partition(line_caustics(p, Vec3(1.0, 0.1, 0.0), e421), e421)
    assert (sp.p, sp.q) == (3, 2)
    tm = interval_partition(line_caustics(p, Vec3(0.2, 0.1, 1.0), e421), e421)
    assert (tm.p, tm.q) == (4, 1)
    lt = interval_partition(line_caustics(p, Vec3(1.0, 0.0, 1.0), e421), e421)
    assert (lt.p, lt.q) == (4, 1)
    assert lt.has_infinite_b and lt.c == (-1.0,)


def test_classify_case_table(e421):
    mk = lambda g1, g2, lt, eps: CausticPair(g1, g2, lt, eps)
    S, T = LineType.SPACELIKE, LineType.TIMELIKE
    assert classify_case(mk(1.0, -0.5, S, -1), e421) is CausticCase.S1
    assert classify_case(mk(1.0, -1.5, S, -1), e421) is CausticCase.S2
    assert classify_case(mk(3.0, -1.5, S, -1), e421) is CausticCase.S3
    assert classify_case(mk(3.0, -0.5, S, -1), e421) is CausticCase.S4
    assert classify_case(mk(1.0, 3.0, T, 1), e421) is CausticCase.T1
    assert classify_case(mk(1.0, 5.0, T, 1), e421) is CausticCase.T2
    assert classify_case(mk(2.5, 3.5, T, 1), e421) is CausticCase.T3
    assert classify_case(mk(2.5, 5.0, T, 1), e421) is CausticCase.T4
    assert classify_case(mk(3.0, 3.0, T, 1), e421) is CausticCase.DOUBLE
    assert classify_case(mk(1.0, None, LineType.LIGHTLIKE, 1), e421) is CausticCase.LIGHT
    with pytest.raises(InconsistentConfigurationError):
        classify_case(mk(-0.5, 3.0, T, -1), e421)    # time-like requires 0 < gamma1


def test_classify_case_stability(e421):
    # perturbing far below the gap to the nearest boundary never changes the case
    base = CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)
    got = classify_case(base, e421)
    for d1 in (-1e-13, 1e-13):
        for d2 in (-1e-13, 1e-13):
            cp = CausticPair(1.0 + d1, -0.5 + d2, LineType.SPACELIKE, -1)
            assert classify_case(cp, e421) is got
