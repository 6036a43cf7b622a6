"""Parameter search for periodic configurations and the cross-validation
pipeline tying the numeric simulator to the exact conditions engine.

Periodicity at period n is one condition per branch of the case, a rank-
deficient r x (r-1) Hankel block, measured on floats by the block's
smallest singular value (``_residual``).  At n = s + 2 the block is 2 x 1,
its two named coefficients pin both caustic parameters, and the search is a
grid scan plus damped 2-D Newton on that pair.  Roots are generically
irrational; candidates carry the float root, its bounded-denominator
rationalization, the exact rank-test verdict at the rationalized point
(almost always false, since the exact conditions hold only at the algebraic
root) and the residual that the validation report uses instead.

The conditions have one evaluator, ``conditions.condition_vector``: the exact
engine's series kernel run on other number types.  The grid scan passes
numpy arrays of caustic parameters and evaluates every grid point in one
call.  Newton refinement runs every seed in lock-step (``_newton_batch``):
per iteration one array call on the forward-difference points of all live
seeds, one on their full Newton steps, and one on the 39 shorter step
lengths of the seeds whose full step does not descend, for at most
``_NEWTON_ITMAX`` iterations.  The 2 x 2 Newton step is Cramer's rule on
the batch arrays, so each seed ends at the same point, bit for bit, as the
loop run on it alone.  A seed that steps out of the escape box (the case
rectangle widened by its own width on every side) ends there, since no root
outside the rectangle is kept.  The 1-D bisection, candidate residuals and
cross-validation pass floats.  Each scanned search logs one DEBUG record
on this module's logger, with a ``search`` attribute counting grid cells,
seeds, Newton outcomes and rejected roots.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .conditions import (
    _CASE_KINDS,
    _branches,
    _check_gamma1_range,
    _deficient_branch,
    _degenerate_params,
    _start,
    _without_condition,
    HyperellipticParams,
    cayley_test,
    condition_vector,
    darboux_integrals,
)
from .confocal import (
    _CASE_INTERVALS,
    CausticCase,
    CausticPair,
    Ellipsoid,
    EllipticCoords,
    _placed,
    classify_case,
    interval_partition,
    line_caustics,
    point_from_elliptic,
    tangency_coefficients,
)
from .errors import (
    BilliardError,
    EmptyRangeError,
    GammaOutOfRangeError,
    InvalidToleranceError,
    NoConvergenceError,
)
from .minkowski import Vec3, mink_dot
from .pell import _VARIANT_KINDS, PellSolution, PellVariant, _kernel_solution, verify_pell
from .series import SeriesKind
from .simulator import (
    PeriodSignature,
    Trajectory,
    _lambda3_event_count,
    _period,
    chasles_residual,
    closure_error_at,
    parity_ok,
    trace,
)

SEARCH_RESIDUAL_TOL = 1e-9
CLOSURE_TOL = 1e-6

_log = logging.getLogger(__name__)


# the name the benchmark's grid replay (bench/wl_search.py) probes; it goes
# once a benchmark-only change points the replay at condition_vector
condition_vector_floats = condition_vector


def _scan_rect(intervals):
    return lambda e: tuple((max(lo, -6.0 * e.a3), min(hi, 6.0 * e.a1))
                           for lo, hi in intervals(e.a1, e.a2, e.a3))


# the case intervals clipped to the scan window [-6 a3, 6 a1], as functions of
# the ellipsoid; the benchmark's grid replay (bench/wl_search.py) probes this name
_CASE_RECTS = {case: _scan_rect(intervals) for case, (_, intervals) in _CASE_INTERVALS.items()}


def _check_period(n: int) -> None:
    if n < 3:
        raise EmptyRangeError(f"period n={n} is below 3, where no periodicity condition applies")


def _search_kind(case: CausticCase, n: int) -> SeriesKind | None:
    """The branch searched at (case, n): the first of the case's branches at
    n whose block is 2 x 1 (n = s + 2).  None without a branch at n;
    EmptyRangeError below n = 3, or where every branch at n has a larger
    block."""
    _check_period(n)
    kinds = _branches(case, n)
    kind = next((k for k in kinds if n == _start(k) + 2), None)
    if kind is None and kinds:
        raise EmptyRangeError(f"period n={n} is not supported by the condition search (use 4, 5 or 6)")
    return kind


def _residual(coeffs) -> float:
    """Smallest singular value of the r x (r-1) Hankel block of the
    coefficients s, ..., n - 1 of ``condition_vector``, or inf where one is
    not finite.  Taken by SVD, not from the Gram matrix, whose eigenvalues
    square the conditioning."""
    c = np.array(coeffs, dtype=float)
    if not np.isfinite(c).all():
        return math.inf
    r = len(c) // 2 + 1
    return float(np.linalg.svd(c[np.add.outer(range(r), range(r - 1))], compute_uv=False)[-1])


@dataclass(frozen=True)
class SearchSpec:
    """Search request: ellipsoid, case, period, gamma rectangle and grid."""

    ellipsoid: tuple[float, float, float]
    case: CausticCase
    n: int
    g1_range: tuple[float, float] | None = None
    g2_range: tuple[float, float] | None = None
    grid: int = 48
    refine_tol: float = 1e-13


@dataclass(frozen=True)
class PeriodicCandidate:
    """A refined root of the periodicity conditions."""

    gamma1: float
    gamma2: float | None
    case: CausticCase
    n: int
    condition_residual: float
    rational_params: HyperellipticParams
    exact_cayley: bool


# per-seed outcomes of _newton_batch; only CONVERGED seeds are roots
CONVERGED, STALLED, SINGULAR, CAPPED, ESCAPED = range(5)
_OUTCOME_NAMES = ("converged", "stalled", "singular", "iteration_cap", "escaped")
_SHORT_STEPS = np.array([0.5 ** k for k in range(1, 40)])    # exact powers of two
_NEWTON_ITMAX = 60


def _newton_batch(func, seeds, tol: float, box=None):
    """Damped Newton on F: R^2 -> R^2 from every seed at once.

    ``func`` maps a (k, 2) array of points to a (k, 2) array of values.
    The step length is the first of 1, 1/2, ..., 2^-39 that lowers max|f|.
    Each iteration calls ``func`` on the forward-difference points of the
    live seeds' Jacobians and on their full Newton steps; only the seeds
    whose full step does not descend go on to one more call, on the 39
    shorter lengths.  The step solves J dx = -f by Cramer's rule, forward
    stable for 2 x 2 systems.  The kernel and the solve act element by
    element and ``1.0 * dx == dx``, so every seed follows the iterates of
    the same loop run on that seed alone, bit for bit.
    ``func`` returns nan or inf outside its domain instead of raising; a
    non-finite value fails the descent test.
    ``box`` = ((lo1, hi1), (lo2, hi2)), when given, is the escape box: a
    seed that an accepted step puts outside it stops there.  Ending a seed
    leaves the others' iterates as they were, bit for bit.
    Returns the final points and an outcome per seed: CONVERGED (max|f| <
    tol), STALLED (no step length descends; a nan or inf Jacobian ends
    here), SINGULAR (the Jacobian's determinant is exactly 0), ESCAPED
    (stepped out of ``box``) or CAPPED (still above tol after
    ``_NEWTON_ITMAX`` iterations).
    """
    x = np.array(seeds, dtype=float).reshape(-1, 2)
    if box is not None:
        lo, hi = np.array(box, dtype=float).T
    outcome = np.full(len(x), CAPPED)
    if not len(x):
        return x, outcome
    with np.errstate(all="ignore"):
        fx = func(x)
        mx = np.max(np.abs(fx), axis=1)
        live = np.ones(len(x), dtype=bool)
        for _ in range(_NEWTON_ITMAX):
            done = live & (mx < tol)
            outcome[done] = CONVERGED
            live &= ~done
            idx = np.flatnonzero(live)
            if not idx.size:
                break
            xl, fl = x[idx], fx[idx]
            step = 1e-7 * np.maximum(1.0, np.abs(xl))
            # row j of xp[s] moves coordinate j of seed s by its step
            xp = np.repeat(xl[:, None, :], 2, axis=1)
            xp[:, 0, 0] += step[:, 0]
            xp[:, 1, 1] += step[:, 1]
            fp = func(xp.reshape(-1, 2)).reshape(-1, 2, 2)
            # column j of the Jacobian [[a, b], [c, d]] is row j of fp's slope
            (a, c), (b, d) = ((fp - fl[:, None, :]) / step[:, :, None]).transpose(1, 2, 0)
            det = a * d - b * c
            dx = np.column_stack(((b * fl[:, 1] - d * fl[:, 0]) / det,
                                  (c * fl[:, 0] - a * fl[:, 1]) / det))
            singular = det == 0.0
            outcome[idx[singular]] = SINGULAR
            live[idx[singular]] = False
            idx, xl, dx = idx[~singular], xl[~singular], dx[~singular]
            if not idx.size:
                break
            xn = xl + dx
            fn = func(xn)
            mn = np.max(np.abs(fn), axis=1)
            won = mn < mx[idx]
            back = np.flatnonzero(~won)
            if back.size:
                # backtrack: the first shorter length that descends wins
                xs = xl[back, None, :] + _SHORT_STEPS[None, :, None] * dx[back, None, :]
                fs = func(xs.reshape(-1, 2)).reshape(back.size, len(_SHORT_STEPS), 2)
                ms = np.max(np.abs(fs), axis=2)
                better = ms < mx[idx[back], None]
                won[back] = better.any(axis=1)
                rows, first = np.arange(back.size), better.argmax(axis=1)
                xn[back], fn[back], mn[back] = xs[rows, first], fs[rows, first], ms[rows, first]
            outcome[idx[~won]] = STALLED
            live[idx[~won]] = False
            idx = idx[won]
            x[idx], fx[idx], mx[idx] = xn[won], fn[won], mn[won]
            if box is not None:
                xi = x[idx]
                out = idx[~((lo <= xi) & (xi <= hi)).all(axis=1)]
                outcome[out] = ESCAPED
                live[out] = False
    outcome[live & (mx < tol)] = CONVERGED
    return x, outcome


def find_periodic(spec: SearchSpec) -> list[PeriodicCandidate]:
    """Locate roots of the periodicity conditions inside the case rectangle.

    Grid scan of |f1| + |f2| followed by damped Newton on the pair from the
    most promising cells, all seeds in one batch; converged roots are
    deduplicated, checked for case placement, rationalized, and re-checked
    with the exact rank test.  A scanned search logs its counts at DEBUG.
    A grid of fewer than 2 points per axis spans no scan range, a
    ``g1_range`` or ``g2_range`` without lo < hi (a NaN end included) clips
    to nothing, and a ``refine_tol`` that is not finite and positive accepts
    no root (or every point): all raise instead of answering with no
    candidates.
    """
    if spec.grid < 2:
        raise EmptyRangeError(f"a grid of {spec.grid} points per axis spans no scan range")
    for key in ("g1_range", "g2_range"):
        rng = getattr(spec, key)
        if rng is not None and not rng[0] < rng[1]:
            raise EmptyRangeError(f"{key} needs lo < hi, got {tuple(rng)}")
    if not (math.isfinite(spec.refine_tol) and spec.refine_tol > 0):
        raise InvalidToleranceError(f"refine_tol must be finite and > 0, got {spec.refine_tol}")
    ell = Ellipsoid(*spec.ellipsoid)
    case, n = spec.case, spec.n
    if case not in _CASE_RECTS:
        raise EmptyRangeError(
            f"case {case.value} has no search rectangle: with the ellipsoid fixed its "
            "periodicity conditions are two equations in the one unknown gamma1, so "
            "roots are non-generic; scan gamma1 with search.scan_singular_condition "
            "and check the second coefficient at each root")
    kind = _search_kind(case, n)
    if kind is None:
        return []    # no branch at n: odd n without odd periods, or n = 4 without B
    (g1lo, g1hi), (g2lo, g2hi) = _CASE_RECTS[case](ell)
    if spec.g1_range is not None:
        g1lo, g1hi = max(g1lo, spec.g1_range[0]), min(g1hi, spec.g1_range[1])
    if spec.g2_range is not None:
        g2lo, g2hi = max(g2lo, spec.g2_range[0]), min(g2hi, spec.g2_range[1])
    if not (g1lo < g1hi and g2lo < g2hi):
        raise EmptyRangeError("empty gamma scan rectangle")

    a = spec.ellipsoid
    pad1 = 0.02 * (g1hi - g1lo)
    pad2 = 0.02 * (g2hi - g2lo)
    g1s = np.linspace(g1lo + pad1, g1hi - pad1, spec.grid)
    g2s = np.linspace(g2lo + pad2, g2hi - pad2, spec.grid)
    # g1-major point order, which fixes the order of equal-valued seeds
    g1s, g2s = np.repeat(g1s, spec.grid), np.tile(g2s, spec.grid)
    with np.errstate(all="ignore"):
        f1, f2 = condition_vector(a, kind, n, g1s, g2s)
        vals = np.abs(f1) + np.abs(f2)
    vals[~np.isfinite(vals)] = math.inf

    order = np.argsort(vals)
    seeds = [(float(g1s[i]), float(g2s[i])) for i in order[: max(12, spec.grid // 2)]
             if math.isfinite(vals[i])]

    cands, counts = _refine_candidates(spec, kind, (g1lo, g1hi), (g2lo, g2hi), seeds)
    if _log.isEnabledFor(logging.DEBUG):
        stats = {"kind": kind.value, "grid_points": int(vals.size),
                 "nonfinite": int(np.count_nonzero(np.isinf(vals))),
                 "seeds": len(seeds), **counts, "candidates": len(cands)}
        _log.debug("find_periodic %s n=%d: %s", case.value, n, stats, extra={"search": stats})
    return cands


def _refine_candidates(spec: SearchSpec, kind: SeriesKind,
                       g1b: tuple[float, float], g2b: tuple[float, float],
                       seeds: list[tuple[float, float]]
                       ) -> tuple[list[PeriodicCandidate], dict[str, int]]:
    """Refine every seed in one Newton batch and keep the distinct converged
    roots inside the rectangle and the case placement, in seed order, as
    sorted candidates; the counts say what became of the seeds.  The
    placement rejects the mirror image of a root in a case whose rectangle
    is symmetric (T3).  A seed that steps out of the escape box, the case
    rectangle widened on every side by its own width, ends there."""
    a = spec.ellipsoid
    case, n = spec.case, spec.n
    g1lo, g1hi = g1b
    g2lo, g2hi = g2b
    box = [(lo - (hi - lo), hi + (hi - lo)) for lo, hi in _CASE_RECTS[case](Ellipsoid(*a))]

    def fun(pts: np.ndarray) -> np.ndarray:
        return np.column_stack(condition_vector(a, kind, n, pts[:, 0], pts[:, 1]))

    xs, outcome = _newton_batch(fun, seeds, spec.refine_tol, box=box)
    counts = {name: int(np.count_nonzero(outcome == code))
              for code, name in enumerate(_OUTCOME_NAMES)}
    counts.update(outside=0, duplicates=0)
    roots: list[tuple[float, float]] = []
    for (g1, g2) in xs[outcome == CONVERGED].tolist():
        if not (g1lo < g1 < g1hi and g2lo < g2 < g2hi and _placed(case, *a, g1, g2)):
            counts["outside"] += 1
        elif any(abs(g1 - r1) < 1e-9 and abs(g2 - r2) < 1e-9 for (r1, r2) in roots):
            counts["duplicates"] += 1
        else:
            roots.append((g1, g2))

    out = []
    for (g1, g2) in sorted(roots):
        residual = _residual(condition_vector(a, kind, n, g1, g2))
        params = HyperellipticParams.from_floats(*a, g1, g2)
        try:
            exact = cayley_test(params, case, n)
        except (BilliardError, ValueError):
            exact = False
        out.append(PeriodicCandidate(g1, g2, case, n, residual, params, exact))
    return out, counts


def scan_singular_condition(a: tuple[float, float, float], case: CausticCase, n: int,
                            g_range: tuple[float, float]) -> list[tuple[float, float]]:
    """1-D scan for the degenerate cases, where only gamma1 is free.

    Brackets sign changes of the first named condition coefficient between
    400 evenly spaced samples of the range, bisects each bracket to machine
    width, and returns (root, value of the second coefficient there).  Both
    coefficients vanish only at a true root of the degenerate periodicity
    condition, so callers must check the second value (or the exact test)
    before trusting a root.

    The exact side's rules apply in ``conditions._deficient_branch``'s
    order: the period (``_search_kind``), then the range, whose ends must
    both lie in the case's gamma1 range (``GammaOutOfRangeError``) and which
    for the light-like case may not contain a2, then the empty answer where
    the case has no branch at n or the no-condition rule holds.
    """
    if case not in (CausticCase.DOUBLE, CausticCase.LIGHT):
        raise EmptyRangeError("the 1-D scan applies to the double and light-like cases")
    kind = _search_kind(case, n)
    lo, hi = g_range
    if not lo < hi:
        raise EmptyRangeError("empty gamma scan range")
    params = _degenerate_params(a, lo, case)
    _check_gamma1_range(a, hi, case)
    if case is CausticCase.LIGHT and lo < a[1] < hi:
        raise GammaOutOfRangeError(f"light caustic scan range ({lo}, {hi}) contains a2={a[1]}")
    if kind is None or _without_condition(params, n):
        return []

    def f1(g: float) -> float:
        return condition_vector(a, kind, n, g, None)[0]

    gs = np.linspace(lo, hi, 400)
    with np.errstate(all="ignore"):
        vals = f1(gs).tolist()
    out = []
    for i, (va, vb) in enumerate(zip(vals, vals[1:])):
        if not (math.isfinite(va) and math.isfinite(vb)) or va * vb > 0.0:
            continue
        x0, x1 = float(gs[i]), float(gs[i + 1])
        f0 = va
        for _ in range(80):
            xm = 0.5 * (x0 + x1)
            fm = f1(xm)
            if f0 * fm <= 0.0:
                x1 = xm
            else:
                x0, f0 = xm, fm
        root = 0.5 * (x0 + x1)
        out.append((root, condition_vector(a, kind, n, root, None)[1]))
    return out


# -- constructive tangent line --------------------------------------------------

def _tangent_basis(grad: Vec3) -> tuple[Vec3, Vec3]:
    g = grad.euclid_normalized()
    ref = Vec3(1.0, 0.0, 0.0) if abs(g.x1) < 0.9 else Vec3(0.0, 1.0, 0.0)
    e1 = Vec3(g.x2 * ref.x3 - g.x3 * ref.x2,
              g.x3 * ref.x1 - g.x1 * ref.x3,
              g.x1 * ref.x2 - g.x2 * ref.x1).euclid_normalized()
    e2 = Vec3(g.x2 * e1.x3 - g.x3 * e1.x2,
              g.x3 * e1.x1 - g.x1 * e1.x3,
              g.x1 * e1.x2 - g.x2 * e1.x1)
    return e1, e2


def tangent_line_for_caustics(ell: Ellipsoid, cp: CausticPair,
                              seed: int = 0) -> tuple[Vec3, Vec3]:
    """Construct a line inside the ellipsoid with the prescribed caustics.

    Picks a point on the first caustic through its elliptic-coordinate slot,
    then solves the one remaining quadratic condition (tangency to the second
    caustic, light-cone membership, or the asymptotic-direction condition for
    the double caustic) for a direction in the caustic's tangent plane.  The
    construction is closed-form; candidates are verified against
    ``line_caustics`` and the free interior parameters are rescanned on
    failure.
    """
    part = interval_partition(cp, ell)
    (c1, _), (_, b1), (b2, b3) = part.motion_intervals()
    # the coordinate slot (1 or 2) whose motion interval has gamma1 as an
    # endpoint: gamma1 > 0 in every case, so it is never slot 0's c1 <= 0
    if cp.gamma1 == b1:
        slot1 = 1
    elif cp.gamma1 in (b2, b3):
        slot1 = 2
    else:
        raise NoConvergenceError(f"gamma1={cp.gamma1} is not an interval endpoint")

    fracs = [0.41, 0.63, 0.27, 0.52, 0.74, 0.36, 0.58, 0.47]
    offset = seed % len(fracs)

    def interval_value(slot: int, f: float) -> float:
        if slot == 0:
            return c1 + f * (0.0 - c1)
        if slot == 1:
            return 0.0 + f * b1
        return b2 + f * (b3 - b2)

    def quad_form_tangency(x: Vec3, v: Vec3, gamma: float | None) -> float:
        if gamma is None:
            return mink_dot(v, v)
        if cp.is_double:
            # asymptotic direction of the ruled caustic
            return (v.x1 * v.x1 / (ell.a1 - gamma) + v.x2 * v.x2 / (ell.a2 - gamma)
                    + v.x3 * v.x3 / (ell.a3 + gamma))
        t0, t1, t2 = tangency_coefficients(x, v, ell)
        return (t2 * gamma + t1) * gamma + t0

    target2 = cp.gamma1 if cp.is_double else cp.gamma2

    # (fa, fb, sgn) attempts made one at a time, as the loop asks for them
    rotated = fracs[offset:] + fracs[:offset]
    attempts = product(rotated, rotated, ((1, 1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, -1),
                                          (-1, -1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1)))

    g = cp.gamma1
    for (fa, fb, sgn) in attempts:
        lam = [0.0, 0.0, 0.0]
        lam[slot1] = g
        free = [s for s in (0, 1, 2) if s != slot1]
        lam[free[0]] = interval_value(free[0], fa)
        lam[free[1]] = interval_value(free[1], fb)
        try:
            x = point_from_elliptic(EllipticCoords(*sorted(lam)), sgn, ell)
        except BilliardError:
            continue
        grad = Vec3(2.0 * x.x1 / (ell.a1 - g), 2.0 * x.x2 / (ell.a2 - g),
                    2.0 * x.x3 / (ell.a3 + g))
        e1, e2 = _tangent_basis(grad)
        qa = quad_form_tangency(x, e1, target2)
        qc = quad_form_tangency(x, e2, target2)
        qb = (quad_form_tangency(x, e1 + e2, target2) - qa - qc) / 2.0
        disc = qb * qb - qa * qc
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        dirs = []
        for num, den in (((-qb + sq), qa), ((-qb - sq), qa)):
            if abs(den) > 1e-300:
                # e1, e2 orthonormal: |t e1 + e2|^2 = t^2 + 1
                dirs.append((num / den * e1 + e2).euclid_normalized())
        if abs(qa) <= 1e-14:
            dirs.append(e1)
        for v in dirs:
            try:
                got = line_caustics(x, v, ell)
            except BilliardError:
                continue
            if got.linetype is not cp.linetype:
                continue
            scale = max(abs(cp.gamma1), 1.0)
            if abs(got.gamma1 - cp.gamma1) > 1e-9 * scale:
                continue
            if cp.gamma2 is None:
                if got.gamma2 is not None:
                    continue
            else:
                if got.gamma2 is None or abs(got.gamma2 - cp.gamma2) > 1e-9 * max(abs(cp.gamma2), 1.0):
                    continue
            return x, v
    raise NoConvergenceError(f"no {cp.linetype.value}-like tangent line found for caustics "
                             f"gamma1={cp.gamma1}, gamma2={cp.gamma2}")


# -- cross validation -----------------------------------------------------------

_KIND_VARIANTS = {kind: variant for variant, kind in _VARIANT_KINDS.items()}


def pell_variants_for(case: CausticCase, n: int) -> list[PellVariant]:
    """Pell variants of the case's kinds with the parity of n, in table
    order; a variant below its period threshold is listed too, and
    ``solve_pell`` raises ThresholdViolationError for it."""
    return [_KIND_VARIANTS[kind] for kind in _CASE_KINDS[case] if _start(kind) % 2 == n % 2]


@dataclass
class ValidationReport:
    ellipsoid: tuple[float, float, float]
    case: CausticCase
    n: int
    gamma1: float
    gamma2: float | None
    # what nothing measured reads; cross_validate fills in what it measures
    cayley_pass: bool = False
    condition_residual: float = math.inf
    pell_certificate: PellSolution | None = None
    closure_error: float = math.inf
    signature: PeriodSignature | None = None
    signatures_agree: bool = False
    parity_pass: bool = False
    darboux_residuals: tuple[float, float] = (math.inf, math.inf)
    chasles_residual: float = math.inf
    failures: list[tuple[str, str]] = field(default_factory=list)

    def fail(self, stage: str, error) -> None:
        """Record that ``stage`` failed with ``error``."""
        self.failures.append((stage, str(error)))

    @property
    def failure_stage(self) -> str | None:
        """The last failure as "stage: error", or None when nothing failed."""
        return ": ".join(self.failures[-1]) if self.failures else None

    def gates(self) -> list[tuple[str, object, object, bool]]:
        """(name, value, bound, passed) of the six checks ``valid`` reads."""
        conditions_ok = self.cayley_pass or self.condition_residual <= SEARCH_RESIDUAL_TOL
        darboux = self.darboux_residuals
        return [
            ("conditions", self.condition_residual, SEARCH_RESIDUAL_TOL, conditions_ok),
            ("closure", self.closure_error, CLOSURE_TOL, self.closure_error <= CLOSURE_TOL),
            ("signature", self.signature, "a closed start", self.signature is not None),
            ("parity", self.parity_pass, True, self.parity_pass),
            ("signatures_agree", self.signatures_agree, True, self.signatures_agree),
            ("darboux", darboux, CLOSURE_TOL, all(r <= CLOSURE_TOL for r in darboux)),
        ]

    @property
    def valid(self) -> bool:
        return all(passed for *_, passed in self.gates())

    def to_json_dict(self) -> dict:
        return {
            "ellipsoid": list(self.ellipsoid),
            "case": self.case.value,
            "n": self.n,
            "gamma1": self.gamma1,
            "gamma2": "inf" if self.gamma2 is None else self.gamma2,
            "cayley_pass": self.cayley_pass,
            "condition_residual": self.condition_residual,
            "pell_certificate": (None if self.pell_certificate is None
                                 else self.pell_certificate.to_json_dict()),
            "closure_error": self.closure_error,
            "signature": None if self.signature is None else asdict(self.signature),
            "signatures_agree": self.signatures_agree,
            "parity_pass": self.parity_pass,
            "darboux_residuals": list(self.darboux_residuals),
            "chasles_residual": self.chasles_residual,
            "valid": self.valid,
            "failure_stage": self.failure_stage,
            "failures": [{"stage": stage, "error": error} for stage, error in self.failures],
        }


def cross_validate(ell: Ellipsoid, cp: CausticPair, n: int) -> ValidationReport:
    """Full pipeline: exact verdict, Pell certificate, tracing from three
    starts (seeds 0, 1, 2), period detection, parity, Chasles and the
    winding-number residuals; below n = 3 it raises as ``find_periodic`` does.

    The exact verdict names the deficient branch of the case at n, if any,
    with its exact series and kernel; only then is the certificate built,
    once, for that branch's variant from that kernel.
    The condition residual is the smallest ``_residual`` over the case's
    branches at n, the blocks the exact verdict ranks; a case with no branch
    at n records a ``condition`` failure.  All three starts must close and
    give the same (n, m1, n1), so a start whose tangent line or trace fails
    fails the ``signatures_agree`` gate;
    the report's signature is the first closed start's, and its lam3
    oscillation count n2 is counted on that start alone, once per report.
    Each gate of ``ValidationReport.gates`` that fails is recorded as stage
    ``gate``."""
    case = classify_case(cp, ell)
    _check_period(n)
    kinds = _branches(case, n)
    g2 = cp.gamma1 if cp.is_double else cp.gamma2    # snap the double caustic
    params = HyperellipticParams.from_floats(ell.a1, ell.a2, ell.a3, cp.gamma1, g2)
    report = ValidationReport((ell.a1, ell.a2, ell.a3), case, n, cp.gamma1, g2)

    # exact side
    found = None
    try:
        found = _deficient_branch(params, case, n)
    except (BilliardError, ValueError) as exc:
        report.fail("cayley", exc)
    report.cayley_pass = found is not None
    try:
        if kinds:
            report.condition_residual = min(
                _residual(condition_vector(report.ellipsoid, kind, n, cp.gamma1, g2))
                for kind in kinds)
        else:
            report.fail("condition", f"case {case.value} has no condition branch at n={n}")
    except (BilliardError, ValueError, ZeroDivisionError) as exc:
        report.fail("condition", exc)
    if found is not None:
        kind, series, kernel = found
        variant = _KIND_VARIANTS[kind]
        try:
            sol = _kernel_solution(params, n, variant, series, kernel)
            if sol is not None and verify_pell(sol):
                report.pell_certificate = sol
        except (BilliardError, ValueError) as exc:
            report.fail("pell", f"{variant.value}: {exc}")

    # numeric side: three distinct starting tangent lines, same caustics
    closed: list[tuple[tuple[int, int, int], Trajectory]] = []    # (n, m1, n1), start
    closures: list[float] = []
    chasles: list[float] = []
    for k in range(3):
        try:
            x, v = tangent_line_for_caustics(ell, cp, seed=k)
        except NoConvergenceError as exc:
            report.fail("tangent line", exc)
            continue
        traj = trace(x, v, ell, max_bounces=2 * n + 5)
        if traj.error is not None:
            report.fail("trace", traj.error)
            continue
        closures.append(closure_error_at(traj, n))
        chasles.append(chasles_residual(traj))
        period = _period(traj, CLOSURE_TOL)
        if period is not None:
            closed.append((period, traj))
    if closures:
        report.closure_error = max(closures)
        report.chasles_residual = max(chasles)
    if closed:
        # all three starts must close and agree on (n, m1, n1); the report
        # keeps the first closed start's signature, so only that start's lam3
        # is counted
        (per, m1, n1), first = closed[0]
        report.signature = PeriodSignature(per, m1, n1, _lambda3_event_count(first, per))
        report.signatures_agree = len(closed) == 3 and all(p == closed[0][0] for p, _ in closed)
        report.parity_pass = parity_ok(report.signature, case)

    # winding-number relation
    if report.signature is not None:
        sig = report.signature
        part = interval_partition(cp, ell)
        residuals = []
        for k in (0, 1):
            try:
                i1, i2, i3 = darboux_integrals(
                    (ell.a1, ell.a2, ell.a3, cp.gamma1, g2), part, k)
                if k == 0 and case is CausticCase.DOUBLE:
                    # lam3 is pinned on the ruled caustic, so its count cannot
                    # be read off the coordinate; infer it from the k=0
                    # relation with the vanishing-cycle limit integral and let
                    # k=1 check it
                    n2 = round((sig.m1 * i1 + sig.n1 * i2) / i3)
                    sig = PeriodSignature(sig.n, sig.m1, sig.n1, n2)
                    report.signature = sig
                scale = max(abs(i1), abs(i2), abs(i3))
                residuals.append(abs(sig.m1 * i1 + sig.n1 * i2 - sig.n2 * i3) / scale)
            except BilliardError as exc:
                residuals.append(math.inf)
                report.fail("darboux", exc)
        report.darboux_residuals = (residuals[0], residuals[1])

    # every failing gate is recorded once both sides have run.  A failed
    # condition stage (no condition at this period) is itself the reason, and
    # stays the last failure; without a traced start (every start failed and
    # said why) the numeric gates judge nothing
    if closures and all(stage != "condition" for stage, _ in report.failures):
        for name, value, bound, passed in report.gates():
            if not passed:
                report.fail("gate", f"{name}: {value} vs {bound}")
    return report
