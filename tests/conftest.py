"""Shared fixtures and samplers for the test suite."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from minkbilliards import Ellipsoid, LineType, Vec3, elliptic_coordinates, mink_dot, trace
from minkbilliards.errors import BilliardError
from minkbilliards.simulator import surface_normal

# trajectories approaching the tropic curve closer than this (relative
# |<n,n>| at a bounce) are excluded from "random admissible starts": the
# reflection is undefined on the curve itself and its conditioning degrades
# like the inverse of this margin.
TROPIC_MARGIN = 2e-3


@pytest.fixture()
def e421() -> Ellipsoid:
    return Ellipsoid(4.0, 2.0, 1.0)


def random_interior_point(rng: random.Random, ell: Ellipsoid, slack: float = 0.1) -> Vec3:
    while True:
        p = Vec3(rng.uniform(-1, 1) * math.sqrt(ell.a1),
                 rng.uniform(-1, 1) * math.sqrt(ell.a2),
                 rng.uniform(-1, 1) * math.sqrt(ell.a3))
        if ell.surface_residual(p) < -slack:
            return p


def random_direction(rng: random.Random, linetype: LineType) -> Vec3:
    while True:
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        q = mink_dot(v, v)
        if linetype is LineType.SPACELIKE and q > 0.1 * v.euclid_norm2():
            return v
        if linetype is LineType.TIMELIKE and q < -0.1 * v.euclid_norm2():
            return v
        if linetype is LineType.LIGHTLIKE:
            h = math.hypot(v.x1, v.x2)
            if h > 1e-9:
                return Vec3(v.x1, v.x2, math.copysign(h, v.x3))


def tropic_margin(traj) -> float:
    """Smallest relative |<n,n>| over the trajectory's bounce normals."""
    m = math.inf
    for b in traj.bounces:
        n = surface_normal(b.point, traj.ellipsoid)
        m = min(m, abs(mink_dot(n, n)) / n.euclid_norm2())
    return m


def admissible_trace(rng: random.Random, ell: Ellipsoid, linetype: LineType,
                     bounces: int, margin: float = TROPIC_MARGIN):
    """A random trace that stays clear of the tropic curve (resampling)."""
    for _ in range(200):
        p = random_interior_point(rng, ell)
        v = random_direction(rng, linetype)
        t = trace(p, v, ell, bounces)
        if t.error is None and len(t.bounces) == bounces and tropic_margin(t) >= margin:
            return t
    raise AssertionError("could not sample an admissible start")


def ref_lambda3_sweep_count(traj, n: int, samples_per_segment: int = 32) -> int:
    """The lam3 sweep through checked ``Vec3`` samples and the public
    ``elliptic_coordinates``, as it ran before the float kernel."""
    ell = traj.ellipsoid
    vals = []
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
        return 0
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


def rank_by_minors(rows_in: list[list[Fraction]]) -> int:
    """Exhaustive-minor rank (oracle; exponential, for small blocks only)."""
    if not rows_in or not rows_in[0]:
        return 0
    nrows, ncols = len(rows_in), len(rows_in[0])

    def det(idx_r: tuple[int, ...], idx_c: tuple[int, ...]) -> Fraction:
        k = len(idx_r)
        if k == 1:
            return rows_in[idx_r[0]][idx_c[0]]
        total = Fraction(0)
        sign = 1
        for j in range(k):
            sub = det(idx_r[1:], idx_c[:j] + idx_c[j + 1:])
            total += sign * rows_in[idx_r[0]][idx_c[j]] * sub
            sign = -sign
        return total

    for k in range(min(nrows, ncols), 0, -1):
        for ir in combinations(range(nrows), k):
            for ic in combinations(range(ncols), k):
                if det(ir, ic) != 0:
                    return k
    return 0
