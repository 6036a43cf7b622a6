import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkbilliards import (
    LineType,
    Vec3,
    classify_direction,
    mink_dot,
    mink_quadrance,
    reflect_direction,
)
from minkbilliards.errors import LightLikeNormalError, ZeroVectorError


def test_mink_dot_examples():
    assert mink_dot(Vec3(1, 2, 3), Vec3(4, 5, 6)) == 4 + 10 - 18 == -4
    assert mink_dot(Vec3(1, 0, 1), Vec3(1, 0, 1)) == 0      # light-like self-orthogonality
    assert mink_dot(Vec3(0, 0, 1), Vec3(0, 0, 1)) == -1     # time axis sign


def test_mink_dot_bilinear_symmetric():
    rng = random.Random(0)
    for _ in range(50):
        u = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        w = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        a = rng.uniform(-2, 2)
        assert mink_dot(u, v) == pytest.approx(mink_dot(v, u), abs=1e-14)
        lhs = mink_dot(u + a * v, w)
        rhs = mink_dot(u, w) + a * mink_dot(v, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_quadrance_examples():
    x = Vec3(0, 0, 0)
    assert mink_quadrance(x, x) == 0
    assert mink_quadrance(x, Vec3(0, 0, 2)) == -4
    assert mink_quadrance(x, Vec3(3, 0, 0)) == 9


def test_vec3_rejects_nonfinite():
    with pytest.raises(ValueError):
        Vec3(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Vec3(0, math.inf, 0)


def test_classify_examples():
    assert classify_direction(Vec3(1, 0, 1), tol=0.0) is LineType.LIGHTLIKE
    assert classify_direction(Vec3(1, 0, 0), tol=0.0) is LineType.SPACELIKE
    assert classify_direction(Vec3(0, 1, 2), tol=0.0) is LineType.TIMELIKE


def test_classify_zero_vector():
    with pytest.raises(ZeroVectorError):
        classify_direction(Vec3(0, 0, 0))


def test_reflect_examples():
    out = reflect_direction(Vec3(0, 0, 1), Vec3(0, 0, 1))
    assert out.as_tuple() == (0, 0, -1)          # v orthogonal to the plane
    out = reflect_direction(Vec3(1, 0, 0), Vec3(0, 0, 1))
    assert out.as_tuple() == (1, 0, 0)           # v contained in the plane
    with pytest.raises(LightLikeNormalError):
        reflect_direction(Vec3(1, 2, 3), Vec3(1, 0, 1))


def test_reflect_involution_and_preservation():
    rng = random.Random(1)
    trials = 0
    while trials < 200:
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if n.euclid_norm2() == 0 or abs(mink_dot(n, n)) <= 1e-6 * n.euclid_norm2():
            continue
        trials += 1
        w = reflect_direction(v, n)
        back = reflect_direction(w, n)
        # reflection near the light cone amplifies |w| by ~1/margin, so the
        # round-trip error scales with the intermediate magnitude
        amp = max(v.euclid_norm(), w.euclid_norm(), 1.0)
        assert (back - v).euclid_norm() <= 1e-12 * amp
        if abs(mink_dot(n, n)) > 1e-2 * n.euclid_norm2():
            assert (back - v).euclid_norm() <= 1e-12 * max(v.euclid_norm(), 1.0)
        assert abs(mink_dot(w, w) - mink_dot(v, v)) <= 1e-9 * max(v.euclid_norm2(), w.euclid_norm2())
        # type preservation away from the light cone
        if abs(mink_dot(v, v)) > 1e-9 * v.euclid_norm2():
            assert classify_direction(w) is classify_direction(v)


_COMPONENT = st.floats(-1e3, 1e3)
_VECTOR = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT)


@settings(max_examples=200, deadline=None)
@given(_VECTOR, _VECTOR, st.booleans())
def test_reflect_involution_property(vt, nt, light):
    # drawn next to the seeded sampler above: in a normal at least 0.1 off
    # the light cone, reflecting twice gives v back within 1e-12 of the larger
    # of |v| and |v'|, and v' has the line type of v (a light-like v is built
    # on the cone; a space- or time-like one stays 1e-6 off it)
    if light:
        h = math.hypot(vt[0], vt[1])
        v = Vec3(vt[0], vt[1], math.copysign(h, vt[2]))
    else:
        v = Vec3(*vt)
    n = Vec3(*nt)
    assume(v.euclid_norm() >= 1e-3 and n.euclid_norm() >= 1e-3)
    assume(abs(mink_dot(n, n)) >= 0.1 * n.euclid_norm2())
    w = reflect_direction(v, n)
    back = reflect_direction(w, n)
    assert (back - v).euclid_norm() <= 1e-12 * max(v.euclid_norm(), w.euclid_norm())
    if light:
        assert classify_direction(w, tol=1e-9) is LineType.LIGHTLIKE
    else:
        assume(abs(mink_dot(v, v)) >= 1e-6 * v.euclid_norm2())
        assert classify_direction(w) is classify_direction(v)


def test_reflect_exact_on_rational_inputs():
    # rationally representable data reflects exactly
    v = Vec3(3, 4, 5)
    n = Vec3(0, 0, 2)
    w = reflect_direction(v, n)
    assert w.as_tuple() == (3, 4, -5)
