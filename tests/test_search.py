import dataclasses
import itertools
import logging
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkbilliards import (
    CausticCase,
    CausticPair,
    Ellipsoid,
    LineType,
    PellVariant,
    PeriodSignature,
    SearchSpec,
    chasles_residual,
    classify_case,
    condition_vector,
    cross_validate,
    darboux_integrals,
    detect_period,
    find_periodic,
    interval_partition,
    line_caustics,
    mink_dot,
    parity_ok,
    solve_pell,
    tangent_line_for_caustics,
    trace,
)
from minkbilliards import conditions, search
from minkbilliards.conditions import HyperellipticParams, cayley_test
from minkbilliards.errors import (
    BilliardError,
    EmptyRangeError,
    GammaOutOfRangeError,
    InvalidToleranceError,
    NoConvergenceError,
)
from minkbilliards.search import (
    closure_error_at,
    condition_vector_floats,
    scan_singular_condition,
)
from minkbilliards.series import ModP, SeriesKind
from conftest import admissible_trace, ref_lambda3_sweep_count


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


def test_cross_validate_exact_odd_vector():
    # the exact rational n=5 configuration on an ellipsoid with a3 > a2: the
    # float pair classifies as S2 and validates end to end
    ell = Ellipsoid(4.0, 2.0, 3.0)
    cp = CausticPair(96 / 49, -32 / 5, LineType.SPACELIKE, -1)
    assert classify_case(cp, ell) is CausticCase.S2
    rep = cross_validate(ell, cp, 5)
    assert rep.cayley_pass and rep.pell_certificate is not None
    sig = rep.signature
    assert (sig.n, sig.m1, sig.n1, sig.n2) == (5, 2, 3, 2)
    assert rep.valid


_NUMERIC_FIELDS = ("closure_error", "signature", "signatures_agree", "parity_pass",
                   "darboux_residuals", "chasles_residual")


def _reference_cross_validate(ell, cp, n):
    """cross_validate with detect_period, lam3 sweep included, on every
    start, for a two-caustic case.  The exact side is cross_validate's own:
    its report with the numeric fields and records reset, which the numeric
    side and the Darboux relations then fill in by the report's rules."""
    full = cross_validate(ell, cp, n)
    report = dataclasses.replace(
        full, failures=[(s, e) for s, e in full.failures if s in ("cayley", "condition", "pell")],
        **{f.name: f.default for f in dataclasses.fields(full) if f.name in _NUMERIC_FIELDS})
    signatures, closures, chasles = [], [], []
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
        sig = detect_period(traj, tol=search.CLOSURE_TOL)
        if sig is not None:
            signatures.append(sig)
    if closures:
        report.closure_error, report.chasles_residual = max(closures), max(chasles)
    if signatures:
        sig = report.signature = signatures[0]
        report.signatures_agree = len(signatures) == 3 and all(
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


def test_cross_validate_double_caustic_one_darboux_call_per_k(monkeypatch):
    # the k=0 integrals both fix the sweep count and give the k=0 residual
    ell = Ellipsoid(6.0, 1.5, 2.0)
    cp = CausticPair(2.0, 2.0, LineType.TIMELIKE, +1)
    expected = repr(cross_validate(ell, cp, 4))
    calls = []

    def counted(params, part, k):
        calls.append(k)
        return darboux_integrals(params, part, k)

    monkeypatch.setattr(search, "darboux_integrals", counted)
    assert repr(cross_validate(ell, cp, 4)) == expected
    assert calls == [0, 1]

    def failing_at_0(params, part, k):
        if k == 0:
            raise NoConvergenceError("k=0 quadrature")
        return darboux_integrals(params, part, k)

    monkeypatch.setattr(search, "darboux_integrals", failing_at_0)
    rep = cross_validate(ell, cp, 4)
    assert [stage for stage, _ in rep.failures].count("darboux") == 1
    assert rep.darboux_residuals[0] == math.inf


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
    # at n = 8 the S1 branches A and B have 3 x 2 and 4 x 3 blocks: the
    # residual is the smallest singular value over both, here the one of the
    # blocks of the exact coefficients, so the conditions gate fails and no
    # condition stage is recorded
    cp = CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)
    rep = cross_validate(e421, cp, 8)

    def sigma_min(kind):
        c = [float(x) for x in condition_vector((F(4), F(2), F(1)), kind, 8, F(1), F(-1, 2))]
        r = len(c) // 2 + 1
        block = [[c[i + j] for j in range(r - 1)] for i in range(r)]
        return np.linalg.svd(np.array(block), compute_uv=False)[-1]

    assert rep.condition_residual == pytest.approx(
        min(sigma_min(SeriesKind.A), sigma_min(SeriesKind.B)), rel=1e-12)
    assert rep.condition_residual > 0.05
    assert rep.failures[0] == ("gate", f"conditions: {rep.condition_residual} vs 1e-09")
    assert all(stage != "condition" for stage, _ in rep.failures)
    assert not rep.valid


def test_residual_is_the_smallest_singular_value_of_the_block():
    # a 2 x 1 block reads its 2-norm; the 4 x 3 block of a geometric
    # sequence has rank 1; a non-finite coefficient has no residual
    assert search._residual([3.0, -4.0]) == 5.0
    assert search._residual([2.0 ** k for k in range(6)]) <= 1e-14
    assert search._residual([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]) == 1.0
    assert search._residual([1.0, math.nan]) == search._residual([math.inf, 0.0]) == math.inf


def test_cross_validate_keeps_every_failed_stage(e421, monkeypatch):
    # below n = 3 no stage applies: cross_validate raises the search's
    # EmptyRangeError before any work instead of returning a partial report
    # of failed stages
    with pytest.raises(EmptyRangeError) as searched:
        find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 2, grid=8))

    def never(*args, **kwargs):
        raise AssertionError("no work below n = 3")

    monkeypatch.setattr(search, "_deficient_branch", never)
    monkeypatch.setattr(search, "tangent_line_for_caustics", never)
    with pytest.raises(EmptyRangeError) as validated:
        cross_validate(e421, CausticPair(1.0, -0.5, LineType.SPACELIKE, -1), 2)
    assert str(validated.value) == str(searched.value)


def test_cross_validate_records_a_missing_condition_only_when_the_exact_verdict_fails(e421):
    # the S1 set (1, 6/7, 6), (3/4, -3) is periodic at n = 8 and 12, where
    # its blocks are larger than 2 x 1: the exact verdict holds, the float
    # residual reads the deficient block at rounding level, and the report
    # reads valid with no failure.  At n = 3 S1 has no branch, the verdict
    # fails, and the missing condition is the recorded reason
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    cp = CausticPair(0.75, -3.0, LineType.SPACELIKE, -1)
    for n in (8, 12):
        rep = cross_validate(ell, cp, n)
        assert rep.cayley_pass and rep.condition_residual <= 1e-14
        assert rep.valid and rep.failures == [] and rep.failure_stage is None
    rep = cross_validate(ell, cp, 3)
    assert not rep.cayley_pass and rep.condition_residual == math.inf and not rep.valid
    assert rep.failures == [("condition", "case S1 has no condition branch at n=3")]


def test_cross_validate_records_failed_starts(monkeypatch):
    # a start whose tangent line is not found, or whose trace truncates, is
    # recorded with its stage and leaves the others traced, and fails the
    # signatures_agree gate; with no traced start the numeric gates judge
    # nothing and record no gate
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    cp = CausticPair(0.75, -3.0, LineType.SPACELIKE, -1)
    tangent_line, real_trace = search.tangent_line_for_caustics, search.trace

    def lost_line(seeds):
        def line(ell, cp, seed=0):
            if seed in seeds:
                raise NoConvergenceError(f"seed {seed} lost")
            return tangent_line(ell, cp, seed=seed)
        return line

    def truncated(x, v, ell, max_bounces):
        traj = real_trace(x, v, ell, max_bounces)
        traj.error = "impact: cut short"
        return traj

    monkeypatch.setattr(search, "tangent_line_for_caustics", lost_line({1}))
    rep = cross_validate(ell, cp, 4)
    assert rep.failures == [("tangent line", "seed 1 lost"),
                            ("gate", "signatures_agree: False vs True")]
    assert rep.closure_error <= 1e-9 and rep.signature.n == 4 and not rep.signatures_agree
    assert not rep.valid

    monkeypatch.setattr(search, "tangent_line_for_caustics", lost_line({0, 2}))
    monkeypatch.setattr(search, "trace", truncated)
    rep = cross_validate(ell, cp, 4)
    assert rep.failures == [("tangent line", "seed 0 lost"), ("trace", "impact: cut short"),
                            ("tangent line", "seed 2 lost")]
    assert rep.failure_stage == "tangent line: seed 2 lost"
    assert rep.closure_error == math.inf and rep.signature is None and not rep.valid


@pytest.mark.parametrize("cp,n", [(CausticPair(1.0, -3.5, LineType.SPACELIKE, -1), 4),
                                  (CausticPair(3.0, -3.5, LineType.SPACELIKE, -1), 5)])
def test_cross_validate_names_a_missing_branch(e421, cp, n):
    # S2 has no branch at n = 4 and S3 none at odd n: the report says so
    rep = cross_validate(e421, cp, n)
    case = classify_case(cp, e421).value
    assert ("condition", f"case {case} has no condition branch at n={n}") in rep.failures
    assert rep.condition_residual == float("inf") and not rep.valid


@pytest.mark.parametrize("a, case, n, g_range, bad", [
    # the first coefficient changes sign at -3, below the double range
    # (a2, a1) = (3/2, 6)
    ((6.0, 1.5, 2.0), CausticCase.DOUBLE, 4, (-10.0, 50.0), -10.0),
    # across the pole at 0, where the second coefficient is ~4.5e104
    ((4.0, 2.0, 1.0), CausticCase.LIGHT, 5, (-0.9, 3.9), -0.9),
    # an infinite end, whose samples are not finite
    ((4.0, 2.0, 1.0), CausticCase.DOUBLE, 4, (-math.inf, 3.0), -math.inf),
], ids=["double-root-below-a2", "light-pole-at-0", "double-from-minus-inf"])
def test_scan_singular_refuses_a_range_outside_the_case(a, case, n, g_range, bad):
    # both ends of the scan range must lie in the case's gamma1 range, with
    # the message of the exact side's range check
    with pytest.raises(GammaOutOfRangeError) as info:
        scan_singular_condition(a, case, n, g_range)
    assert str(info.value) == f"gamma1={bad} is not in the {case.value} caustic range"


def test_scan_singular_follows_the_exact_order(e421):
    # the period is checked before the range, and the range before the
    # empty answer; a light-like range may not contain a2, and an odd
    # light-like period above a2 has no condition
    a = (4.0, 2.0, 1.0)
    with pytest.raises(EmptyRangeError, match="below 3"):
        scan_singular_condition(a, CausticCase.LIGHT, 2, (-0.9, 3.9))
    with pytest.raises(GammaOutOfRangeError):
        scan_singular_condition(a, CausticCase.LIGHT, 4, (-0.9, 1.9))    # no branch at 4
    with pytest.raises(GammaOutOfRangeError, match="contains a2=2.0"):
        scan_singular_condition(a, CausticCase.LIGHT, 6, (1.5, 2.5))
    assert scan_singular_condition(a, CausticCase.LIGHT, 5, (2.05, 3.95)) == []
    assert not cayley_test(HyperellipticParams(4, 2, 1, 3, None), CausticCase.LIGHT, 5)


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
def test_periods_below_three_raise(e421, n):
    # below n = 3 no periodicity condition starts: the searches and
    # cross_validate raise one message; n = 3 is a period at which S1 has no
    # branch, so the search is empty and a report records a condition failure
    spec = SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, n, grid=8)
    cp = CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)
    if n < 3:
        message = f"period n={n} is below 3, where no periodicity condition applies"
        for run in (lambda: find_periodic(spec),
                    lambda: scan_singular_condition((4.0, 2.0, 1.0), CausticCase.LIGHT, n,
                                                    (0.05, 1.95)),
                    lambda: cross_validate(e421, cp, n)):
            with pytest.raises(EmptyRangeError) as info:
                run()
            assert str(info.value) == message
    else:
        rep = cross_validate(e421, cp, n)
        assert find_periodic(spec) == []
        assert rep.failure_stage == "condition: case S1 has no condition branch at n=3"
        assert not rep.valid


def test_closure_below_one_bounce_is_infinite(e421):
    # bounce 0 against itself, or a negative index read from the end, is no
    # closure; bounce 1 against bounce 0 is a finite mismatch
    x, v = tangent_line_for_caustics(e421, CausticPair(1.0, -0.5, LineType.SPACELIKE, -1), seed=0)
    traj = trace(x, v, e421, max_bounces=6)
    assert closure_error_at(traj, 0) == closure_error_at(traj, -1) == float("inf")
    assert math.isfinite(closure_error_at(traj, 1))


_FAILED_GATES = {
    # the S1 root of the B branch at n = 6 to nine digits: its block is 3 x 2,
    # the residual reads it, and every gate passes
    (1.925821435, -0.703266336, 6): [],
    # an S1 pair that is not periodic at n = 8 and whose starts close at no
    # period: every stage runs and all six gates fail
    (1.0, -0.5, 8): [
        "conditions", "closure", "signature", "parity", "signatures_agree", "darboux"],
}


@pytest.mark.parametrize("g1,g2,n", list(_FAILED_GATES))
def test_cross_validate_records_every_failed_gate(e421, g1, g2, n):
    # the report records each failed gate, in gate order, and nothing else
    failed = _FAILED_GATES[g1, g2, n]
    rep = cross_validate(e421, CausticPair(g1, g2, LineType.SPACELIKE, -1), n)
    assert rep.valid == (failed == [])
    assert [name for name, *_, passed in rep.gates() if not passed] == failed
    assert rep.failures == [("gate", f"{name}: {value} vs {bound}")
                            for name, value, bound, passed in rep.gates() if not passed]
    assert rep.to_json_dict()["failures"] == [{"stage": "gate", "error": error}
                                              for _, error in rep.failures]


# S1 roots on (4, 2, 1) whose branch block is 3 x 2: B at n = 6, C and D at
# n = 7 (the last D root lies 2.8e-6 from the gamma2 = -a3 edge)
_LARGER_BLOCK_ROOTS = [
    (1.0235135991298971, -0.9993785624362365, 6),
    (1.9258214354947611, -0.7032663355905583, 6),
    (1.9963954083682, -0.9999893470990707, 6),
    (1.0963481616653419, -0.9531580856363109, 7),
    (1.9341435592353509, -0.5431486910967038, 7),
    (1.9972460835802306, -0.9931846734646187, 7),
    (0.7643364201537943, -0.9996166127608759, 7),
    (1.519573799137701, -0.7803381276812918, 7),
    (1.873580081284757, -0.9999971713475146, 7),
]


@pytest.mark.parametrize("g1,g2,n", _LARGER_BLOCK_ROOTS)
def test_cross_validate_judges_roots_of_larger_blocks(e421, g1, g2, n):
    # the residual reads the block the exact test ranks at every branch, so
    # a root of a 3 x 2 block reads valid, and moving gamma1 by 1e-4 of
    # itself fails the conditions gate
    rep = cross_validate(e421, CausticPair(g1, g2, LineType.SPACELIKE, -1), n)
    assert rep.valid and rep.failures == []
    assert rep.condition_residual <= search.SEARCH_RESIDUAL_TOL
    off = cross_validate(e421, CausticPair(g1 * (1 + 1e-4), g2, LineType.SPACELIKE, -1), n)
    assert not off.valid
    assert "conditions" in [name for name, *_, passed in off.gates() if not passed]
    assert ("gate", f"conditions: {off.condition_residual} vs 1e-09") in off.failures


def test_cross_validate_residual_covers_every_branch_at_n(e421):
    # an S1 root of the D branch at n = 5: the search scans C, the first
    # branch there, but the report's residual is the smallest over C and D
    rep = cross_validate(e421, CausticPair(1.409901832, -0.998751589, LineType.SPACELIKE, -1), 5)
    assert rep.condition_residual <= search.SEARCH_RESIDUAL_TOL
    assert rep.signature == PeriodSignature(5, 1, 4, 2)
    assert rep.valid and rep.failures == []


def test_cross_validate_without_failures(e421):
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    rep = cross_validate(ell, CausticPair(0.75, -3.0, LineType.SPACELIKE, -1), 4)
    assert rep.failures == [] and rep.failure_stage is None
    assert rep.to_json_dict()["failures"] == []


def test_event_count_leaves_every_search_report_unchanged(e421, monkeypatch):
    # every candidate of the search benchmark (the specs that scan a grid, at
    # grids 32 and 128) gets the report that the lam3 sweep at 32 samples per
    # segment gave, repr for repr
    pairs = []
    for (case, n), grid in itertools.product(_SEARCHED, (32, 128)):
        for c in find_periodic(SearchSpec((4.0, 2.0, 1.0), case, n, grid=grid)):
            if case.value.startswith("S"):
                pairs.append((CausticPair(c.gamma1, c.gamma2, LineType.SPACELIKE, -1), n))
            else:
                pairs.append((CausticPair(c.gamma1, c.gamma2, LineType.TIMELIKE, +1), n))
    assert len(pairs) == 16
    got = [repr(cross_validate(e421, cp, n)) for cp, n in pairs]
    monkeypatch.setattr(search, "_lambda3_event_count", ref_lambda3_sweep_count)
    assert [repr(cross_validate(e421, cp, n)) for cp, n in pairs] == got


@pytest.mark.parametrize("case", [CausticCase.DOUBLE, CausticCase.LIGHT])
def test_find_periodic_degenerate_cases_explain_missing_rectangle(case):
    spec = SearchSpec((4.0, 2.0, 1.0), case, 4 if case is CausticCase.DOUBLE else 6, grid=8)
    with pytest.raises(EmptyRangeError) as info:
        find_periodic(spec)
    msg = str(info.value)
    assert f"case {case.value} has no search rectangle" in msg
    assert "one unknown gamma1" in msg and "non-generic" in msg
    assert "scan_singular_condition" in msg


def _reference_newton(func, x0, tol, accepted=None):
    """The per-seed damped Newton loop that _newton_batch replaces, run on
    one-row arrays of ``func`` so its arithmetic is the batch's own."""
    def f(x):
        with np.errstate(all="ignore"):
            return func(x[None, :])[0]

    x = np.array(x0, dtype=float)
    fx = f(x)
    for _ in range(search._NEWTON_ITMAX):
        if np.max(np.abs(fx)) < tol:
            return x, True
        h = 1e-7
        jac = np.zeros((2, 2))
        for j in range(2):
            xp = x.copy()
            xp[j] += h * max(1.0, abs(x[j]))
            jac[:, j] = (f(xp) - fx) / (h * max(1.0, abs(x[j])))
        (a, b), (c, d) = jac
        with np.errstate(all="ignore"):
            det = a * d - b * c
            dx = np.array([(b * fx[1] - d * fx[0]) / det, (c * fx[0] - a * fx[1]) / det])
        if det == 0.0:
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

    def recording(func, seeds, tol, box=None):
        calls.append((func, seeds, tol))
        return newton_batch(func, seeds, tol, box)

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


def test_newton_batch_closed_form_step():
    # the step is Cramer's rule on the forward-difference Jacobian.  On
    # random affine systems with condition number up to 1e6 it agrees with
    # LAPACK's solve of that Jacobian within a few units of kappa * eps, the
    # forward error bound both solves meet; where kappa <= 1e3 that is 1e-12
    def rotation(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    rng = np.random.default_rng(35)
    eps = np.finfo(float).eps
    worst = 0.0
    for _ in range(300):
        th, ph = rng.uniform(0.0, 2.0 * math.pi, 2)
        sing = np.diag([1.0, 10.0 ** -rng.uniform(0.0, 6.0)])
        (a, b), (c, d) = rotation(th) @ sing @ rotation(ph).T * 10.0 ** rng.uniform(-3.0, 3.0)
        f0 = rng.uniform(-1.0, 1.0, 2)
        calls = []

        def affine(pts):
            calls.append(pts.copy())
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack((a * x + b * y + f0[0], c * x + d * y + f0[1]))

        search._newton_batch(affine, [(0.0, 0.0)], 1e-300)
        # calls: the seed, its two forward-difference points, its full step
        fx = affine(calls[0])[0]
        jac = ((affine(calls[1]) - fx) / 1e-7).T
        kappa = np.linalg.cond(jac)
        assert kappa < 1.1e6
        dx = calls[2][0]    # the seed is the origin, so the full step is dx
        ref = np.linalg.solve(jac, -fx)
        err = np.max(np.abs(dx - ref)) / np.max(np.abs(ref))
        assert err <= 4.0 * kappa * eps, (kappa, err)
        if kappa <= 1e3:
            worst = max(worst, err)
    assert worst < 1e-12

    # f does not depend on y: the Jacobian's second column is 0, its
    # determinant a * 0 - 0 * c is exactly 0, and the seed stays put
    def flat(pts):
        x = pts[:, 0]
        return np.column_stack((x - 1.0, 2.0 * x + 1.0))

    xs, outcome = _assert_matches_reference(flat, [(0.5, 0.25)], 1e-13)
    assert outcome.tolist() == [search.SINGULAR] and xs[0].tolist() == [0.5, 0.25]

    # f is finite at the seed but nan or inf at its forward-difference point
    # in x: the determinant and the step are nan, no length descends, and
    # the seed stalls where it started
    for bad in (math.nan, math.inf):
        def edge(pts, bad=bad):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack((np.where(x > 1.0, bad, x - 3.0),
                                    np.where(x > 1.0, bad, y - 1.0)))

        xs, outcome = _assert_matches_reference(edge, [(1.0, 0.5)], 1e-13)
        assert outcome.tolist() == [search.STALLED] and xs[0].tolist() == [1.0, 0.5]


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

    def recording(func, seeds, tol, box=None):
        calls.append((func, seeds, tol, box))
        return newton_batch(func, seeds, tol, box)

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


def _certificate_calls(monkeypatch) -> list:
    calls = []
    real = search._kernel_solution

    def counted(params, n, variant, series, kernel):
        calls.append(variant.value)
        return real(params, n, variant, series, kernel)

    monkeypatch.setattr(search, "_kernel_solution", counted)
    return calls


def test_cross_validate_solves_pell_only_for_the_deficient_branch(monkeypatch):
    calls = _certificate_calls(monkeypatch)
    # the searched S1 root is irrational: NOT SATISFIED at its
    # rationalization, so no certificate is built
    [c] = find_periodic(SearchSpec((4.0, 2.0, 1.0), CausticCase.S1, 4, grid=32))
    rep = cross_validate(Ellipsoid(4.0, 2.0, 1.0),
                         CausticPair(c.gamma1, c.gamma2, LineType.SPACELIKE, -1), 4)
    assert rep.cayley_pass is False and rep.pell_certificate is None
    assert calls == []
    # the exact S1 pair at n = 4: its B block is deficient, solved once as evenB
    rep = cross_validate(Ellipsoid(1.0, 6.0 / 7.0, 6.0),
                         CausticPair(0.75, -3.0, LineType.SPACELIKE, -1), 4)
    assert rep.cayley_pass is True and rep.pell_certificate.variant.value == "evenB"
    assert calls == ["evenB"]


def test_cross_validate_records_failed_pell_variants(monkeypatch):
    # a failure of the Pell stage is recorded with its variant
    def fails(params, n, variant, series, kernel):
        raise ValueError("no certificate")

    monkeypatch.setattr(search, "_kernel_solution", fails)
    ell = Ellipsoid(1.0, 6.0 / 7.0, 6.0)
    rep = cross_validate(ell, CausticPair(0.75, -3.0, LineType.SPACELIKE, -1), 4)
    assert rep.pell_certificate is None
    assert rep.failures == [("pell", "evenB: no certificate")]
    assert rep.valid


@pytest.mark.parametrize("case,g1,g2", [(CausticCase.S1, F(28, 19), F(-14, 15)),
                                        (CausticCase.S3, F(10, 3), F(-20, 19))])
def test_cross_validate_decides_and_certifies_on_one_exact_path(case, g1, g2, caplog,
                                                                monkeypatch):
    # the verdict's series and kernel are the certificate's: one series
    # build mod p, one exact build and one exact elimination per report
    builds = []
    real = conditions.series_sqrt

    def counted(f, order):
        builds.append(type(f[0]))
        return real(f, order)

    monkeypatch.setattr(conditions, "series_sqrt", counted)
    ell = Ellipsoid(4.0, 2.0, 1.0)
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        rep = cross_validate(ell, CausticPair(float(g1), float(g2), LineType.SPACELIKE, -1), 6)
    exact = [r.decision for r in caplog.records
             if hasattr(r, "decision") and r.decision["path"] == "exact"]
    assert classify_case(CausticPair(float(g1), float(g2), LineType.SPACELIKE, -1), ell) is case
    assert rep.cayley_pass is True and rep.pell_certificate is not None
    assert (builds.count(ModP), builds.count(F)) == (1, 1)
    assert len(exact) == 1
    params = HyperellipticParams(F(4), F(2), F(1), g1, g2)
    assert rep.pell_certificate.to_json_dict() == solve_pell(
        params, 6, PellVariant.EVEN_A).to_json_dict()


def test_no_tangent_line_error_states_plain_values(e421):
    # a time-like pair with S1 parameters has no line
    with pytest.raises(NoConvergenceError) as err:
        tangent_line_for_caustics(e421, CausticPair(1.0, -0.5, LineType.TIMELIKE, 1))
    message = str(err.value)
    assert "gamma1=1.0" in message and "gamma2=-0.5" in message and "time" in message
    assert not any(leak in message for leak in ("<", "LineType.", "PellVariant."))
