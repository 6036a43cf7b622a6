import itertools
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkbilliards import (
    CausticCase,
    CausticPair,
    Ellipsoid,
    LineType,
    SearchSpec,
    chasles_residual,
    classify_case,
    cross_validate,
    darboux_integrals,
    detect_period,
    find_periodic,
    interval_partition,
    line_caustics,
    mink_dot,
    parity_ok,
    tangent_line_for_caustics,
    trace,
)
from minkbilliards import search
from minkbilliards.conditions import HyperellipticParams, cayley_test
from minkbilliards.errors import (
    BilliardError,
    EmptyRangeError,
    InvalidToleranceError,
    NoConvergenceError,
    ThresholdViolationError,
)
from minkbilliards.search import (
    closure_error_at,
    condition_vector_floats,
    scan_singular_condition,
)
from minkbilliards.series import SeriesKind
from conftest import admissible_trace


def test_find_periodic_s1_n4(e421):
    spec = SearchSpec(ellipsoid=(4.0, 2.0, 1.0), case=CausticCase.S1, n=4, grid=32)
    cands = find_periodic(spec)
    assert len(cands) >= 1
    c = cands[0]
    assert 0 < c.gamma1 < 2 and -1 < c.gamma2 < 0
    assert c.condition_residual <= 1e-12
    # the root is algebraic (irrational), so the exact test at the
    # rationalized point is expected to fail
    assert c.exact_cayley is False


def test_find_periodic_s2_n5(e421):
    spec = SearchSpec(ellipsoid=(4.0, 2.0, 1.0), case=CausticCase.S2, n=5, grid=32)
    cands = find_periodic(spec)
    assert len(cands) >= 1
    assert all(c.gamma2 < -1 < 0 < c.gamma1 < 2 for c in cands)


def test_find_periodic_parity_exclusion(e421):
    for case in (CausticCase.S3, CausticCase.T4):
        spec = SearchSpec(ellipsoid=(4.0, 2.0, 1.0), case=case, n=5, grid=8)
        assert find_periodic(spec) == []


def test_find_periodic_grid_refinement_keeps_roots(e421):
    coarse = find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=24))
    fine = find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=48))
    assert coarse and fine
    for c in coarse:
        assert any(abs(c.gamma1 - f.gamma1) < 1e-9 and abs(c.gamma2 - f.gamma2) < 1e-9
                   for f in fine)


@pytest.mark.parametrize("grid", [32, 128])
def test_find_periodic_t3_rejects_mirrored_roots(grid):
    # T3's rectangle (a2, a1)^2 is symmetric and so is its B condition; the
    # mirror (gamma2, gamma1) of a root converges too but breaks gamma1 < gamma2
    cands = find_periodic(SearchSpec((3.0, 1.0, 2.0), CausticCase.T3, 4, grid=grid))
    assert len(cands) == 1
    assert 1.0 < cands[0].gamma1 < cands[0].gamma2 < 3.0


def _searched_specs() -> list[tuple[CausticCase, int]]:
    """(case, n) pairs that find_periodic scans (accepted, not parity-excluded)."""
    out = []
    for case in search._CASE_RECTS:
        for n in (4, 5, 6):
            try:
                if search._search_kind(case, n) is not None:
                    out.append((case, n))
            except EmptyRangeError:
                pass
    return out


_SEARCHED = _searched_specs()


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_SEARCHED), st.floats(0.5, 3.0), st.floats(0.2, 3.0),
       st.floats(0.3, 3.0))
def test_find_periodic_candidates_keep_the_case_placement(case_n, a2, gap, a3):
    case, n = case_n
    ell = (a2 + gap, a2, a3)
    spacelike = case.value.startswith("S")
    for c in find_periodic(SearchSpec(ell, case, n, grid=10)):
        cp = CausticPair(c.gamma1, c.gamma2,
                         LineType.SPACELIKE if spacelike else LineType.TIMELIKE,
                         -1 if spacelike else +1)
        assert classify_case(cp, Ellipsoid(*ell)) is case


def test_find_periodic_odd_period_past_six_raises(e421):
    # S1 admits odd periods (branches C and D), so an empty list at n = 7
    # would read as a parity exclusion
    with pytest.raises(EmptyRangeError):
        find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 7, grid=8))


def test_find_periodic_odd_period_excluded_without_odd_branch(e421):
    assert find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S3, 7, grid=8)) == []


def test_find_periodic_empty_range(e421):
    spec = SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, g1_range=(1.0, 0.5))
    with pytest.raises(EmptyRangeError):
        find_periodic(spec)


def test_tangent_line_recovery_roundtrip(e421):
    # caustics sampled from actual traced lines are recovered constructively
    rng = random.Random(30)
    successes = 0
    trials = 0
    for lt in (LineType.SPACELIKE, LineType.TIMELIKE, LineType.LIGHTLIKE):
        for _ in range(12):
            t = admissible_trace(rng, e421, lt, 3)
            cp = t.caustics
            trials += 1
            x, v = tangent_line_for_caustics(e421, cp, seed=0)
            got = line_caustics(x, v, e421)
            assert abs(got.gamma1 - cp.gamma1) <= 1e-9 * max(1.0, abs(cp.gamma1))
            if cp.gamma2 is None:
                assert got.gamma2 is None
            else:
                assert abs(got.gamma2 - cp.gamma2) <= 1e-9 * max(1.0, abs(cp.gamma2))
            successes += 1
    assert successes == trials


def test_tangent_line_lightlike_direction(e421):
    cp = CausticPair(1.2, None, LineType.LIGHTLIKE, +1)
    x, v = tangent_line_for_caustics(e421, cp)
    assert abs(mink_dot(v, v)) <= 1e-12 * v.euclid_norm2()


def test_tangent_lines_distinct_seeds(e421):
    cp = CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)
    lines = [tangent_line_for_caustics(e421, cp, seed=k) for k in range(3)]
    pts = [x.as_tuple() for x, _ in lines]
    assert len({tuple(round(c, 6) for c in p) for p in pts}) == 3


def _eager_attempts(seed: int) -> list:
    """The tangent-line attempts (fa, fb, sgn) of ``seed`` as one list of 512,
    built before the first is tried."""
    fracs = [0.41, 0.63, 0.27, 0.52, 0.74, 0.36, 0.58, 0.47]
    offset = seed % len(fracs)
    attempts = []
    for i in range(len(fracs)):
        for j in range(len(fracs)):
            for sgn in ((1, 1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, -1),
                        (-1, -1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1)):
                attempts.append((fracs[(i + offset) % len(fracs)],
                                 fracs[(j + offset) % len(fracs)], sgn))
    return attempts


@pytest.mark.parametrize("case,cp", [
    ("S1", CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)),
    ("S2", CausticPair(1.0, -2.0, LineType.SPACELIKE, -1)),
    ("T1", CausticPair(1.0, 3.0, LineType.TIMELIKE, +1)),
    ("T3", CausticPair(2.5, 3.5, LineType.TIMELIKE, +1)),
], ids=["S1", "S2", "T1", "T3"])
def test_tangent_line_attempts_match_eager_list(monkeypatch, e421, case, cp):
    # the attempts are made on demand, in the eager list's order, and give
    # the line the eager list gives
    assert classify_case(cp, e421).value == case
    for seed in range(8):
        made = []

        def counted(*pools):
            for attempt in itertools.product(*pools):
                made.append(attempt)
                yield attempt

        monkeypatch.setattr(search, "product", counted)
        lazy = tangent_line_for_caustics(e421, cp, seed=seed)
        eager_list = _eager_attempts(seed)
        monkeypatch.setattr(search, "product", lambda *pools: eager_list)
        assert lazy == tangent_line_for_caustics(e421, cp, seed=seed)
        assert made == eager_list[:len(made)] and len(made) < len(eager_list)


def test_cross_validate_exact_vector_full_pipeline():
    # the exact rational n=4 configuration validates end to end: exact rank
    # test true, Pell certificate verifies, trajectory closes in 4 bounces
    # from three distinct starts with odd cap/belt counts
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    cp = CausticPair(0.75, -3.0, LineType.SPACELIKE, -1)
    rep = cross_validate(ell, cp, 4)
    assert rep.cayley_pass is True
    assert rep.pell_certificate is not None
    assert rep.closure_error <= 1e-9
    assert rep.signature is not None and rep.signature.n == 4
    assert rep.signature.m1 % 2 == 1 and rep.signature.n1 % 2 == 1
    assert rep.signatures_agree and rep.parity_pass
    assert max(rep.darboux_residuals) <= 1e-6
    assert rep.valid
    doc = rep.to_json_dict()
    assert doc["valid"] is True and doc["case"] == "S1"


def _reference_cross_validate(ell, cp, n, starts=3):
    """cross_validate with detect_period, lam3 sweep included, on every
    start, for a two-caustic case.  The exact side is cross_validate's own,
    run without starts; the numeric side and the Darboux relations follow
    the report's rules."""
    report = cross_validate(ell, cp, n, starts=0)
    signatures, closures, chasles = [], [], []
    for k in range(starts):
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
        sig = detect_period(traj, tol=search.CLOSURE_TOL)
        if sig is not None:
            signatures.append(sig)
    if closures:
        report.closure_error, report.chasles_residual = max(closures), max(chasles)
    if signatures:
        sig = report.signature = signatures[0]
        report.signatures_agree = len(signatures) == len(closures) and all(
            (s.n, s.m1, s.n1) == (sig.n, sig.m1, sig.n1) for s in signatures)
        report.parity_pass = parity_ok(sig, report.case)
        part = interval_partition(cp, ell)
        residuals = []
        for k in (0, 1):
            i1, i2, i3 = darboux_integrals((ell.a1, ell.a2, ell.a3, cp.gamma1, cp.gamma2),
                                           part, k)
            residuals.append(abs(sig.m1 * i1 + sig.n1 * i2 - sig.n2 * i3)
                             / max(abs(i1), abs(i2), abs(i3)))
        report.darboux_residuals = tuple(residuals)
    return report


@pytest.mark.parametrize("case,n", [(CausticCase.S1, 4), (CausticCase.S2, 5),
                                    (CausticCase.S1, 6), (CausticCase.S3, 6)])
def test_cross_validate_sweeps_one_start_as_the_reference_sweeps_all(e421, case, n):
    # sweeping lam3 on the first closed start alone leaves every report
    # as the sweep of every start made it
    cands = find_periodic(SearchSpec((4.0, 2.0, 1.0), case, n, grid=32))
    assert cands
    for c in cands:
        cp = CausticPair(c.gamma1, c.gamma2, LineType.SPACELIKE, -1)
        assert repr(cross_validate(e421, cp, n)) == repr(_reference_cross_validate(e421, cp, n))


def test_find_and_validate_s4_n5(e421):
    # the other odd branch (conditions on the gamma2-divided series): the
    # searched root closes in 5 bounces with the S4 parity law (belt and
    # sweep counts even)
    cands = find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S4, 5, grid=40))
    assert cands
    cp = CausticPair(cands[0].gamma1, cands[0].gamma2, LineType.SPACELIKE, -1)
    rep = cross_validate(e421, cp, 5)
    assert rep.closure_error <= 1e-6
    assert rep.signature is not None and rep.signature.n == 5
    assert rep.signature.n1 % 2 == 0 and rep.signature.n2 % 2 == 0
    assert rep.valid


def test_cross_validate_double_caustic_exact_vector():
    # ruling-line trajectories on the double caustic: exact rank test true,
    # 4-bounce closure, and the two winding relations consistent with the
    # vanishing-cycle limit integral (the k=0 relation fixes the sweep count,
    # k=1 independently confirms it)
    ell = Ellipsoid(6.0, 1.5, 2.0)
    cp = CausticPair(2.0, 2.0, LineType.TIMELIKE, +1)
    rep = cross_validate(ell, cp, 4)
    assert rep.cayley_pass is True
    assert rep.pell_certificate is not None
    assert rep.closure_error <= 1e-9
    assert rep.signature is not None
    assert (rep.signature.n, rep.signature.m1, rep.signature.n1, rep.signature.n2) == (4, 2, 2, 1)
    assert max(rep.darboux_residuals) <= 1e-6
    assert rep.valid


def test_cross_validate_perturbed_gamma_fails(e421):
    cands = find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=32))
    c = cands[0]
    cp_bad = CausticPair(c.gamma1 + 1e-3, c.gamma2, LineType.SPACELIKE, -1)
    rep = cross_validate(e421, cp_bad, 4)
    assert rep.cayley_pass is False
    assert rep.condition_residual > 1e-6
    assert rep.closure_error > 1e-3
    assert not rep.valid


def test_scan_singular_lightlike_empty_for_baseline(e421):
    # the odd light-like condition has no root over the baseline shape: the
    # first coefficient stays positive on the whole ellipsoid-caustic range
    roots = scan_singular_condition((4.0, 2.0, 1.0), CausticCase.LIGHT, 5, (0.05, 1.95))
    assert roots == []
    # oracle: a fine exact-sign scan agrees that there is no sign change
    vals = [condition_vector_floats((4.0, 2.0, 1.0), SeriesKind.LIGHT_B, 5, g, None)[0]
            for g in [0.02 + k * (1.96 / 799) for k in range(800)]]
    assert all(v > 0 for v in vals)


def test_scan_singular_double_bracket():
    # manufactured single-condition root: the double-caustic B-condition's
    # first coefficient does vanish inside (a2, a1) for this flat ellipsoid
    a = (6.0, 1.5, 2.0)
    roots = scan_singular_condition(a, CausticCase.DOUBLE, 4, (1.55, 5.9))
    # gamma1 = 2 solves both coefficients exactly on this ellipsoid
    assert any(abs(g - 2.0) < 1e-9 and abs(second) < 1e-12 for (g, second) in roots)
    for (g, second) in roots:
        v = condition_vector_floats(a, SeriesKind.DOUBLE_B, 4, g, None)
        assert abs(v[0]) <= 1e-10


def test_grid_scan_matches_pointwise(monkeypatch):
    # the whole-grid array evaluation inside find_periodic against the same
    # kernel run point by point on Python floats: same finite cells, same
    # values, same seed order, same candidates; the pointwise evaluator also
    # serves the batched Newton calls
    spec = SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=32)
    base = find_periodic(spec)
    grids = []

    def pointwise(a, kind, n, g1, g2):
        if np.ndim(g1) == 0:
            return condition_vector_floats(a, kind, n, g1, g2)
        with np.errstate(all="ignore"):
            arr = np.array(condition_vector_floats(a, kind, n, g1, g2))
        out = np.full((2, g1.size), np.nan)
        for i, (x, y) in enumerate(zip(g1.tolist(), g2.tolist())):
            try:
                out[:, i] = condition_vector_floats(a, kind, n, x, y)
            except (BilliardError, ZeroDivisionError):
                pass
        grids.append((arr, out))
        return list(out)

    monkeypatch.setattr(search, "condition_vector", pointwise)
    scalar = find_periodic(spec)
    # the first array call is the grid; the later ones are Newton's
    arr, out = grids[0]
    assert arr.shape == out.shape == (2, spec.grid ** 2)
    finite = np.isfinite(arr).all(axis=0)
    assert np.array_equal(finite, np.isfinite(out).all(axis=0))
    assert np.array_equal(arr[:, finite], out[:, finite])

    def seed_order(v):
        vals = np.abs(v[0]) + np.abs(v[1])
        vals[~np.isfinite(vals)] = np.inf
        return np.argsort(vals)[: max(12, spec.grid // 2)]

    assert np.array_equal(seed_order(arr), seed_order(out))
    assert base and [(c.gamma1, c.gamma2) for c in base] == [(c.gamma1, c.gamma2) for c in scalar]


def test_cross_validate_reports_condition_stage(e421):
    # the float condition search covers n = 4, 5, 6 only; at n=8 the
    # residual stays unknown and the report names the stage that failed
    cp = CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)
    rep = cross_validate(e421, cp, 8)
    assert rep.condition_residual == float("inf")
    assert rep.failure_stage is not None and rep.failure_stage.startswith("condition: ")
    assert not rep.valid


def test_cross_validate_keeps_every_failed_stage(e421):
    # below the period thresholds both the exact test and the float
    # condition search reject n=2: the report keeps both failures in order,
    # and failure_stage is still the last of them
    cp = CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)
    rep = cross_validate(e421, cp, 2)
    assert [stage for stage, _ in rep.failures] == ["cayley", "condition"]
    assert rep.failures[0][1] == "period must be at least 3"
    assert rep.failure_stage == "condition: " + rep.failures[1][1]
    doc = rep.to_json_dict()
    assert doc["failures"] == [{"stage": s, "error": e} for s, e in rep.failures]
    assert doc["failure_stage"] == rep.failure_stage
    assert not rep.valid


@pytest.mark.parametrize("cp,n", [(CausticPair(1.0, -3.5, LineType.SPACELIKE, -1), 4),
                                  (CausticPair(3.0, -3.5, LineType.SPACELIKE, -1), 5)])
def test_cross_validate_names_a_missing_branch(e421, cp, n):
    # S2 has no branch at n = 4 and S3 none at odd n: the report says so
    rep = cross_validate(e421, cp, n)
    case = classify_case(cp, e421).value
    assert ("condition", f"case {case} has no condition branch at n={n}") in rep.failures
    assert rep.condition_residual == float("inf") and not rep.valid


def test_cross_validate_without_failures(e421):
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    rep = cross_validate(ell, CausticPair(0.75, -3.0, LineType.SPACELIKE, -1), 4)
    assert rep.failures == [] and rep.failure_stage is None
    assert rep.to_json_dict()["failures"] == []


@pytest.mark.parametrize("case", [CausticCase.DOUBLE, CausticCase.LIGHT])
def test_find_periodic_degenerate_cases_explain_missing_rectangle(case):
    spec = SearchSpec((4.0, 2.0, 1.0), case, 4 if case is CausticCase.DOUBLE else 6, grid=8)
    with pytest.raises(EmptyRangeError) as info:
        find_periodic(spec)
    msg = str(info.value)
    assert f"case {case.value} has no search rectangle" in msg
    assert "one unknown gamma1" in msg and "non-generic" in msg
    assert "scan_singular_condition" in msg


def _reference_newton(func, x0, tol, itmax=60, accepted=None):
    """The per-seed damped Newton loop that _newton_batch replaces, run on
    one-row arrays of ``func`` so its arithmetic is the batch's own."""
    def f(x):
        with np.errstate(all="ignore"):
            return func(x[None, :])[0]

    x = np.array(x0, dtype=float)
    fx = f(x)
    for _ in range(itmax):
        if np.max(np.abs(fx)) < tol:
            return x, True
        h = 1e-7
        jac = np.zeros((2, 2))
        for j in range(2):
            xp = x.copy()
            xp[j] += h * max(1.0, abs(x[j]))
            jac[:, j] = (f(xp) - fx) / (h * max(1.0, abs(x[j])))
        try:
            dx = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            return x, False
        lam = 1.0
        improved = False
        for _ in range(40):
            xn = x + lam * dx
            fn = f(xn)
            if np.max(np.abs(fn)) < np.max(np.abs(fx)):
                x, fx = xn, fn
                improved = True
                if accepted is not None:
                    accepted.append(lam)
                break
            lam *= 0.5
        if not improved:
            return x, np.max(np.abs(fx)) < tol
    return x, np.max(np.abs(fx)) < tol


def _assert_matches_reference(func, seeds, tol, accepted=None):
    xs, outcome = search._newton_batch(func, seeds, tol)
    assert xs.shape == (len(seeds), 2) and outcome.shape == (len(seeds),)
    for seed, x, out in zip(seeds, xs, outcome):
        ref_x, ref_ok = _reference_newton(func, seed, tol, accepted=accepted)
        assert ref_x.tobytes() == x.tobytes(), (seed, ref_x, x)
        assert bool(ref_ok) == (out == search.CONVERGED), (seed, ref_ok, out)
    return xs, outcome


@pytest.mark.parametrize("case,n", [(CausticCase.S1, 4), (CausticCase.T3, 4),
                                    (CausticCase.T1, 5), (CausticCase.T1, 6)])
def test_newton_batch_matches_per_seed_loop(monkeypatch, case, n):
    # every seed of find_periodic's batch ends at the per-seed loop's point,
    # bit for bit, with the same converged flag
    calls = []
    newton_batch = search._newton_batch

    def recording(func, seeds, tol, itmax=60, box=None):
        calls.append((func, seeds, tol))
        return newton_batch(func, seeds, tol, itmax, box)

    monkeypatch.setattr(search, "_newton_batch", recording)
    find_periodic(SearchSpec((4.0, 2.0, 1.0), case, n, grid=32))
    [(func, seeds, tol)] = calls
    assert len(seeds) == 16
    monkeypatch.setattr(search, "_newton_batch", newton_batch)
    accepted = []
    _, outcome = _assert_matches_reference(func, seeds, tol, accepted)
    # the runs cover every way out of the line search: a full step that
    # descends, a shorter length after a full step that does not, and no
    # length that descends (STALLED); on S1, n=4 every step is a full one
    assert 1.0 in accepted
    backtracked = any(lam < 1.0 for lam in accepted)
    stalled = bool(np.any(outcome == search.STALLED))
    if (case, n) == (CausticCase.S1, 4):
        assert not backtracked and not stalled
    else:
        assert backtracked and stalled


def test_newton_batch_empty_seed_list():
    def never(pts):
        raise AssertionError("no seed, no evaluation")

    xs, outcome = search._newton_batch(never, [], 1e-13)
    assert xs.shape == (0, 2) and outcome.shape == (0,)
    spec = SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=8)
    cands, counts = search._refine_candidates(spec, SeriesKind.B, (0.0, 2.0), (-1.0, 0.0), [])
    assert cands == [] and set(counts.values()) == {0}


def test_newton_batch_singular_jacobian_stops_seed():
    # the second seed's Jacobian has two equal rows, so its solve raises
    # and it stops where it started; the first seed still converges
    def func(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack((x - 1.0, np.where(y > 0.0, y - 2.0, x - 1.0)))

    seeds = [(0.5, 1.0), (0.5, -1.0)]
    xs, outcome = _assert_matches_reference(func, seeds, 1e-13)
    assert outcome.tolist() == [search.CONVERGED, search.SINGULAR]
    assert xs[0].tolist() == [1.0, 2.0] and xs[1].tolist() == [0.5, -1.0]


def test_newton_batch_stalls_at_nan_boundary():
    # the root (3, 1) lies where the function is nan: every step length
    # that crosses x = 2 fails the descent test, the seed creeps up to the
    # boundary and stalls there, not converged
    def func(pts):
        x, y = pts[:, 0], pts[:, 1]
        inside = x < 2.0
        return np.column_stack((np.where(inside, x - 3.0, np.nan),
                                np.where(inside, y - 1.0, np.nan)))

    xs, outcome = _assert_matches_reference(func, [(1.5, 0.5)], 1e-13)
    assert outcome.tolist() == [search.STALLED]
    assert 1.999 < xs[0, 0] < 2.0


def test_newton_batch_escape_box_ends_seed():
    # the full Newton step from (0.5, 0.5) lands next to the root (10, 0.5),
    # outside the box: the seed ends there, while the batch without the box
    # polishes it to the root; a seed whose root (0.75, 0.5) lies inside
    # the box still converges
    box = ((0.0, 1.0), (0.0, 1.0))

    def far(pts):
        return np.column_stack((pts[:, 0] - 10.0, pts[:, 1] - 0.5))

    def near(pts):
        return np.column_stack((pts[:, 0] - 0.75, pts[:, 1] - 0.5))

    xs, outcome = search._newton_batch(far, [(0.5, 0.5)], 1e-13, box=box)
    free_xs, free_outcome = search._newton_batch(far, [(0.5, 0.5)], 1e-13)
    assert outcome.tolist() == [search.ESCAPED] and free_outcome.tolist() == [search.CONVERGED]
    assert 9.0 < xs[0, 0] != free_xs[0, 0] and abs(free_xs[0, 0] - 10.0) < 1e-12
    xs, outcome = search._newton_batch(near, [(0.5, 0.5)], 1e-13, box=box)
    free_xs, _ = search._newton_batch(near, [(0.5, 0.5)], 1e-13)
    assert outcome.tolist() == [search.CONVERGED] and xs.tobytes() == free_xs.tobytes()


def test_escape_box_keeps_every_root_on_the_search_runs(monkeypatch):
    # on every scanned (case, n) of (4, 2, 1) at grids 32 and 128, and on
    # (3, 1, 2) T3 at n = 4: each seed that stays in the escape box ends
    # where the batch without the box leaves it, bit for bit, and no seed
    # that escaped would have converged inside the case rectangle
    runs = [((4.0, 2.0, 1.0), case, n, grid) for grid in (32, 128) for case, n in _SEARCHED]
    runs.append(((3.0, 1.0, 2.0), CausticCase.T3, 4, 32))
    assert len(runs) == 31
    calls = []
    newton_batch = search._newton_batch

    def recording(func, seeds, tol, itmax=60, box=None):
        calls.append((func, seeds, tol, box))
        return newton_batch(func, seeds, tol, itmax, box)

    monkeypatch.setattr(search, "_newton_batch", recording)
    escaped = 0
    for ell, case, n, grid in runs:
        find_periodic(SearchSpec(ell, case, n, grid=grid))
        func, seeds, tol, box = calls.pop()
        xs, outcome = newton_batch(func, seeds, tol, box=box)
        free_xs, free_outcome = newton_batch(func, seeds, tol)
        kept = outcome != search.ESCAPED
        assert xs[kept].tobytes() == free_xs[kept].tobytes(), (case, n, grid)
        assert np.array_equal(outcome[kept], free_outcome[kept]), (case, n, grid)
        (g1lo, g1hi), (g2lo, g2hi) = search._CASE_RECTS[case](Ellipsoid(*ell))
        for (g1, g2), out in zip(free_xs[~kept].tolist(), free_outcome[~kept].tolist()):
            assert not (out == search.CONVERGED and g1lo < g1 < g1hi and g2lo < g2 < g2hi)
        escaped += int(np.count_nonzero(~kept))
    assert escaped > 0


@pytest.mark.parametrize("case", [CausticCase.S2, CausticCase.S3, CausticCase.S4,
                                  CausticCase.T1, CausticCase.T2, CausticCase.T4])
def test_find_periodic_without_b_branch_is_empty_at_n4(case):
    # branch A starts at n = 6 and only S1 and T3 have a B branch, so the
    # exact test is False at n = 4 and the search is empty
    ell = (4.0, 2.0, 1.0)
    (g1lo, g1hi), (g2lo, g2hi) = search._CASE_RECTS[case](Ellipsoid(*ell))
    params = HyperellipticParams.from_floats(*ell, (g1lo + g1hi) / 2, (g2lo + g2hi) / 2)
    assert cayley_test(params, case, 4) is False
    assert search._search_kind(case, 4) is None
    assert find_periodic(SearchSpec(ell, case, 4, grid=8)) == []


@pytest.mark.parametrize("grid", [-1, 0, 1])
def test_find_periodic_refuses_a_grid_below_two_points(grid):
    # a grid of fewer than 2 points per axis spans no scan range; it used to
    # answer "no candidates"
    with pytest.raises(EmptyRangeError, match="grid"):
        find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=grid))


@pytest.mark.parametrize("tol", [0.0, -1e-13, math.nan, math.inf])
def test_find_periodic_refuses_a_tolerance_not_finite_and_positive(tol):
    # no seed meets a tolerance <= 0 or nan, and every seed meets inf
    with pytest.raises(InvalidToleranceError, match="refine_tol"):
        find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=8, refine_tol=tol))


def test_scan_singular_lightlike_is_empty_at_n4():
    # the light-like even branch starts at n = 6
    assert search._search_kind(CausticCase.LIGHT, 4) is None
    assert scan_singular_condition((4.0, 2.0, 1.0), CausticCase.LIGHT, 4, (0.05, 1.95)) == []


def test_find_periodic_debug_record(caplog):
    spec = SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=32)
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.search"):
        cands = find_periodic(spec)
        assert find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S3, 5, grid=8)) == []
    [record] = [r for r in caplog.records if r.name == "minkbilliards.search"]
    assert record.levelno == logging.DEBUG
    stats = record.search
    assert list(stats) == ["kind", "grid_points", "nonfinite", "seeds", "converged",
                           "stalled", "singular", "iteration_cap", "escaped", "outside",
                           "duplicates", "candidates"]
    assert stats["kind"] == "B" and stats["grid_points"] == 32 ** 2
    assert stats["seeds"] == 16 == (stats["converged"] + stats["stalled"]
                                    + stats["singular"] + stats["iteration_cap"]
                                    + stats["escaped"])
    assert stats["converged"] == stats["outside"] + stats["duplicates"] + stats["candidates"]
    assert stats["candidates"] == len(cands) == 1


def test_cross_validate_records_failed_pell_variants(monkeypatch):
    # a variant that does not apply at this n is skipped; any other failure
    # of the Pell stage is recorded with its variant
    def fails(params, n, variant):
        if variant.value == "evenA":
            raise ThresholdViolationError("evenA needs n >= 6")
        raise ValueError("no nullspace")

    monkeypatch.setattr(search, "solve_pell", fails)
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    rep = cross_validate(ell, CausticPair(0.75, -3.0, LineType.SPACELIKE, -1), 4)
    assert rep.pell_certificate is None
    assert rep.failures == [("pell", "evenB: no nullspace")]
    assert rep.valid
