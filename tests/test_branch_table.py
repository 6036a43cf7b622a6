"""The series-kind table of ``conditions`` against the per-module dispatch it
replaced (frozen in ``frozen_dispatch``): condition branches, Pell weights,
constant signs, parameter and range checks; and the internal names that the
benchmark's per-layer replays resolve."""

import importlib
import logging
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

import frozen_dispatch as frozen
from minkbilliards import (
    CausticCase,
    CausticPair,
    Ellipsoid,
    HyperellipticParams,
    LineType,
    PellSolution,
    PellVariant,
    RatPoly,
    SeriesKind,
    cayley_test,
    classify_case,
    compose_pell,
    divided_series,
    solve_pell,
    solve_pell_singular,
    sqrt_series,
    verify_pell,
)
from minkbilliards import conditions, pell, search
from minkbilliards.confocal import _placed
from minkbilliards.errors import (
    EmptyRangeError,
    GammaOutOfRangeError,
    InconsistentConfigurationError,
    SingularCurveError,
)
from minkbilliards.pell import _VARIANT_KINDS, variant_degrees
from test_conditions import EXACT_DOUBLE, EXACT_LIGHT, EXACT_N6, EXACT_S1_N4

PERIODS = range(1, 15)
A421 = (4.0, 2.0, 1.0)
TWO_CAUSTIC = [case for case in CausticCase
               if case not in (CausticCase.DOUBLE, CausticCase.LIGHT)]


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:    # noqa: BLE001 - the type is what is compared
        return type(exc)


@pytest.mark.parametrize("case", list(CausticCase))
def test_search_kind_and_pell_variants_match_frozen(case):
    for n in PERIODS:
        if n < 3:
            # no periodicity condition starts below n = 3
            with pytest.raises(EmptyRangeError, match=f"n={n} is below 3"):
                search._search_kind(case, n)
        else:
            assert _outcome(search._search_kind, case, n) == _outcome(frozen.search_kind, case, n)
        assert search.pell_variants_for(case, n) == frozen.pell_variants_for(case, n)


@pytest.mark.parametrize("variant", list(PellVariant))
def test_variant_degrees_match_frozen(variant):
    assert _VARIANT_KINDS[variant] is frozen.variant_series_kind(variant)
    for n in PERIODS:
        assert _outcome(variant_degrees, variant, n) == _outcome(frozen.variant_degrees, variant, n)


def _seeded_pairs(case: CausticCase, rng: random.Random, count: int):
    """``count`` caustic pairs of the case on (4,2,1), 1e9-rationalized."""
    ell = Ellipsoid(*A421)
    out = []
    while len(out) < count:
        if case is CausticCase.DOUBLE:
            g = rng.uniform(2.0, 4.0)
            g1, g2 = g, g
        elif case is CausticCase.LIGHT:
            # the ellipsoid caustic (odd periods) and the hyperboloid one
            g1, g2 = rng.choice([rng.uniform(-1.0, 2.0), rng.uniform(2.0, 4.0)]), None
        else:
            (lo1, hi1), (lo2, hi2) = search._CASE_RECTS[case](ell)
            g1, g2 = rng.uniform(lo1, hi1), rng.uniform(lo2, hi2)
            if not frozen.PLACEMENTS[case](*A421, g1, g2):
                continue
        try:
            out.append(HyperellipticParams.from_floats(*A421, g1, g2))
        except Exception:    # noqa: BLE001 - a singular draw is redrawn
            continue
    return out


def _exact_configurations():
    """(params, case) of the suite's exact sets, each in its own case."""
    (a, g), (al, gl) = EXACT_DOUBLE, EXACT_LIGHT
    return [(EXACT_S1_N4, CausticCase.S1),
            (HyperellipticParams(*a, g, g), CausticCase.DOUBLE),
            (HyperellipticParams(*al, gl, None), CausticCase.LIGHT)]


@pytest.mark.parametrize("case", list(CausticCase))
def test_cayley_verdicts_match_frozen_on_seeded_pairs(case):
    rng = random.Random(1600 + list(CausticCase).index(case))
    for params in _seeded_pairs(case, rng, 2):
        for n in range(3, 17):
            assert cayley_test(params, case, n) is frozen.cayley_test(params, case, n)


def _decisions(caplog, run) -> list:
    """The verdict and the ordered (shape, rank, coeff_bits) of every exact
    decision: the package's one exact decision is a nullspace of the
    column-reversed block where the frozen test ranked the block itself."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        verdict = run()
    return [verdict] + [(d["shape"], d["rank"], d["coeff_bits"])
                        for d in (r.decision for r in caplog.records if hasattr(r, "decision"))
                        if d["path"] == "exact"]


def test_cayley_verdicts_and_decisions_match_frozen_on_exact_sets(caplog):
    satisfied = 0
    for params, case in _exact_configurations():
        for n in range(3, 17):
            new = _decisions(caplog, lambda: cayley_test(params, case, n))
            old = _decisions(caplog, lambda: frozen.cayley_test(params, case, n))
            assert new == old, (case, n)
            # a SATISFIED verdict is an exact decision
            assert len(new) > 1 or not new[0], (case, n)
            satisfied += new[0]
    # n = 4k for the S1 and double sets, n = 6 and 12 for the light-like set
    assert satisfied >= 10


def test_hankel_blocks_match_frozen_on_the_n6_set():
    # EXACT_N6 fits no caustic placement: compare every block directly
    for kind, frozen_block in ((SeriesKind.A, frozen.hankel_A), (SeriesKind.B, frozen.hankel_B),
                               (SeriesKind.C, frozen.hankel_CD), (SeriesKind.D, frozen.hankel_CD)):
        base = sqrt_series(EXACT_N6, 18)
        series = base if kind is SeriesKind.A else divided_series(base, kind, EXACT_N6)
        for n in range(3, 17):
            if conditions._is_branch(kind, n):
                assert conditions._deficient(kind, series, n) is frozen_block(series, n // 2)
    assert conditions._deficient(SeriesKind.A, sqrt_series(EXACT_N6, 8), 6) is True


@pytest.mark.parametrize("case", list(CausticCase))
def test_dispatch_matches_frozen_when_every_block_is_deficient(case, monkeypatch):
    # with every Hankel block deficient the verdict is decided by the branch
    # rule and the range and placement checks alone
    for name in ("hankel_A", "hankel_B", "hankel_CD"):
        monkeypatch.setattr(frozen, name, lambda series, m: True)
    # every block deficient mod p, and every kernel nonempty over Q
    monkeypatch.setattr(conditions, "_deficient", lambda kind, series, n: True)
    monkeypatch.setattr(conditions, "nullspace", lambda rows, ncols: [[F(1)] * ncols])
    rng = random.Random(1700 + list(CausticCase).index(case))
    for params in _seeded_pairs(case, rng, 4):
        for n in range(3, 17):
            assert cayley_test(params, case, n) is frozen.cayley_test(params, case, n)
    if case is CausticCase.LIGHT:
        # odd light-like periods need the ellipsoid caustic, gamma1 < a2
        a = (F(4), F(2), F(1))
        assert conditions._branches(case, 7) == (SeriesKind.LIGHT_B,)
        assert conditions.lightlike_test(a, F(1, 2), 7) is True
        assert conditions.lightlike_test(a, F(3), 7) is False
        assert conditions.lightlike_test(a, F(3), 6) is True


# -- the Pell weights, constant signs and parameter checks -----------------------

def _pell_params(rng: random.Random, count: int) -> list[HyperellipticParams]:
    """``count`` seeded rational parameter sets of every caustic shape: two
    distinct caustics with each sign of each gamma, a double caustic inside
    and outside (a2, a1), and the light-like sentinel."""
    def rational(lo: int, hi: int) -> F:
        return F(rng.randint(lo, hi), rng.randint(1, 9))

    out = []
    while len(out) < count:
        a2, a3 = rational(1, 40), rational(1, 40)
        a1 = a2 + rational(1, 40)
        g1 = rng.choice([-1, 1]) * rational(1, 60)
        shape = len(out) % 4
        if shape == 0:
            g2 = rng.choice([-1, 1]) * rational(1, 60)
        elif shape == 1:
            g1 = a2 + (a1 - a2) * F(rng.randint(1, 99), 100)
            g2 = g1
        elif shape == 2:
            g2 = g1
        else:
            g2 = None
        try:
            out.append(HyperellipticParams(a1, a2, a3, g1, g2))
        except Exception:    # noqa: BLE001 - a singular draw is redrawn
            continue
    return out


def _pell_inputs():
    rng = random.Random(1900)
    exact = [EXACT_S1_N4, EXACT_N6,
             HyperellipticParams(*EXACT_DOUBLE[0], EXACT_DOUBLE[1], EXACT_DOUBLE[1]),
             HyperellipticParams(*EXACT_LIGHT[0], EXACT_LIGHT[1], None)]
    return exact + _pell_params(rng, 96)


def _lightlike_out_of_range(params: HyperellipticParams) -> bool:
    g = params.gamma1
    return params.is_lightlike and (not 0 < g < params.a1 or g == params.a2)


@pytest.mark.parametrize("variant", list(PellVariant))
def test_pell_weights_signs_and_checks_match_frozen(variant):
    shapes = set()
    for params in _pell_inputs():
        # the frozen check let a light-like gamma1 outside (0, a1), or at
        # a2, through to the solve; it is now out of range as in cayley_test
        # and solve_pell_singular
        want = _outcome(frozen.validate_params_for_variant, variant, params)
        if want is None and _lightlike_out_of_range(params):
            want = GammaOutOfRangeError
        assert _outcome(pell._validate_params_for_variant, variant, params) == want
        fits = _outcome(pell._check_shape, variant, params) is None
        assert fits == (_outcome(frozen.validate_params_for_variant, variant, params)
                        is not SingularCurveError)
        shapes.add((params.base_kind, fits))
        if not fits:
            continue
        u, v = pell.weight_polys(variant, params)
        assert (u, v) == frozen.weight_polys(variant, params)
        assert (1 if u.coeffs[0] > 0 else -1) == frozen.expected_rhs_sign(variant, params)
    # every shape was sampled, and mismatched ones were among them
    assert {kind for kind, _ in shapes} == {SeriesKind.A, SeriesKind.DOUBLE_A, SeriesKind.LIGHT_A}
    assert {fits for _, fits in shapes} == {True, False}


def _exact_solutions() -> list[PellSolution]:
    (a, g), (al, gl) = EXACT_DOUBLE, EXACT_LIGHT
    even_b = solve_pell(EXACT_S1_N4, 4, PellVariant.EVEN_B)
    return [even_b, compose_pell(even_b),
            solve_pell(EXACT_N6, 6, PellVariant.EVEN_A),
            solve_pell_singular(a, g, 4, PellVariant.DOUBLE_B),
            solve_pell_singular(al, gl, 6, PellVariant.LIGHT_EVEN)]


def test_verify_pell_matches_frozen_on_solutions_and_corruptions():
    rng = random.Random(1901)
    solutions = _exact_solutions()
    valid = 0
    for sol in solutions:
        p = list(sol.p.coeffs)
        p[rng.randrange(len(p))] += F(1, 7)
        candidates = [sol, replace(sol, rhs=-sol.rhs), replace(sol, rhs=2 * sol.rhs),
                      replace(sol, p=RatPoly.of(p)), replace(sol, n=sol.n + 1),
                      replace(sol, n=sol.n + 2), replace(sol, q=sol.q * sol.q)]
        for cand in candidates:
            assert verify_pell(cand) is frozen.verify_pell(cand)
            valid += verify_pell(cand)
    assert valid == len(solutions)     # only the unaltered solutions hold


# -- the degenerate-case range checks --------------------------------------------

def _degenerate_gammas(a) -> list[F]:
    """Caustic parameters across every boundary of the double and light-like
    ranges of the ellipsoid ``a``, the boundaries themselves included."""
    a1, a2, a3 = a
    marks = sorted({-a3, a2, a1, F(0)})
    out = set(marks) | {marks[0] - 1, marks[-1] + 1}
    out |= {(lo + hi) / 2 for lo, hi in zip(marks, marks[1:])}
    return sorted(out)


@pytest.mark.parametrize("a", [(F(4), F(2), F(1)), EXACT_DOUBLE[0], EXACT_LIGHT[0]])
def test_degenerate_range_checks_match_frozen(a):
    light = (PellVariant.LIGHT_EVEN, PellVariant.LIGHT_ODD)
    for g in _degenerate_gammas(a):
        # the frozen light-like checks took (-a3, 0) in; the light-like range
        # is now (0, a1), as classify_case has it
        light_out = -a[2] < g < 0
        for n in (4, 5, 6, 7):
            assert (_outcome(conditions.double_caustic_test, a, g, n)
                    == _outcome(frozen.double_caustic_test, a, g, n))
            for variant in (PellVariant.DOUBLE_A, PellVariant.DOUBLE_B, *light):
                want = _outcome(frozen.solve_pell_singular, a, g, n, variant)
                if light_out and variant in light:
                    want = GammaOutOfRangeError
                assert _outcome(solve_pell_singular, a, g, n, variant) == want
            if g != 0:
                want = (GammaOutOfRangeError if light_out
                        else _outcome(frozen.lightlike_test, a, g, n))
                assert _outcome(conditions.lightlike_test, a, g, n) == want


def test_lightlike_gamma_zero_is_out_of_range():
    # the light-like range excludes 0 for the rank test as for the Pell
    # solve (the rank test used to raise SingularCurveError there)
    a = (F(4), F(2), F(1))
    for n in (5, 6):
        with pytest.raises(GammaOutOfRangeError):
            conditions.lightlike_test(a, F(0), n)
        with pytest.raises(GammaOutOfRangeError):
            solve_pell_singular(a, F(0), n, PellVariant.LIGHT_EVEN)


# -- the caustic-case table -------------------------------------------------------

# (a1, a2, a3) with a3 below a2, between a2 and a1, and above a1
CASE_ELLIPSOIDS = [(4.0, 2.0, 1.0), (4.0, 2.0, 3.0), (4.0, 2.0, 5.0),
                   (1.0, 6.0 / 7.0, 6.0), (6.0, 1.5, 2.0)]


def _boundary_gammas(a, rng: random.Random) -> list[float]:
    """Caustic parameters across every boundary of the case intervals of the
    ellipsoid ``a``: the boundaries 0, -a3, a2 and a1 and their float
    neighbours, the midpoints, points beyond (up to the largest finite
    floats), and seeded draws."""
    a1, a2, a3 = a
    marks = sorted({-a3, 0.0, a2, a1})
    out = set(marks) | {marks[0] - 1.0, marks[-1] + 1.0, -sys.float_info.max, sys.float_info.max}
    out |= {math.nextafter(m, d) for m in marks for d in (-math.inf, math.inf)}
    out |= {(lo + hi) / 2 for lo, hi in zip(marks, marks[1:])}
    out |= {rng.uniform(2 * marks[0], 2 * marks[-1]) for _ in range(4)}
    return sorted(out)


def _float_pairs(a, rng: random.Random):
    gammas = _boundary_gammas(a, rng)
    return [(g1, g2) for g1 in gammas for g2 in gammas + [-math.inf, math.inf, math.nan]]


@pytest.mark.parametrize("a", CASE_ELLIPSOIDS)
def test_classify_case_matches_frozen(a):
    # equal pairs (the double caustic and its range) are among the pairs, and
    # a light-like line with a finite gamma2 is rejected as before; the one
    # difference is gamma2 = -inf, which the quadric types called S2 or S3
    ell = Ellipsoid(*a)
    rng = random.Random(2100)
    cases = set()
    pairs = _float_pairs(a, rng)
    lines = [CausticPair(g1, g2, lt, -1 if lt is LineType.SPACELIKE else 1)
             for g1, g2 in pairs for lt in LineType]
    lines += [CausticPair(g1, None, LineType.LIGHTLIKE, 1) for g1, _ in pairs]
    for cp in lines:
        got = _outcome(classify_case, cp, ell)
        want = _outcome(frozen.classify_case, cp, ell)
        if cp.gamma2 == -math.inf and cp.linetype is LineType.SPACELIKE:
            assert want in (CausticCase.S2, CausticCase.S3, InconsistentConfigurationError)
            want = InconsistentConfigurationError
        assert got == want, (cp, a)
        cases.add(got)
    assert cases == set(CausticCase) | {InconsistentConfigurationError}


def test_classify_case_rejects_infinite_gamma2():
    # CausticPair's sentinel for the plane at infinity is None, never an
    # IEEE infinity: both infinities are rejected (the quadric types took
    # gamma2 = -inf as a one-sheeted hyperboloid)
    ell = Ellipsoid(*A421)
    for g1, case in ((1.0, CausticCase.S2), (3.0, CausticCase.S3)):
        cp = CausticPair(g1, -math.inf, LineType.SPACELIKE, -1)
        assert frozen.classify_case(cp, ell) is case
        with pytest.raises(InconsistentConfigurationError):
            classify_case(cp, ell)
    for g1 in (1.0, 3.0):
        cp = CausticPair(g1, math.inf, LineType.TIMELIKE, 1)
        with pytest.raises(InconsistentConfigurationError):
            frozen.classify_case(cp, ell)
        with pytest.raises(InconsistentConfigurationError):
            classify_case(cp, ell)


def _fraction_gammas(a) -> list[F]:
    """``_degenerate_gammas`` and their neighbours at distance 1e-9."""
    eps = F(1, 10 ** 9)
    return sorted({g + d for g in _degenerate_gammas(a) for d in (-eps, 0, eps)})


@pytest.mark.parametrize("a", CASE_ELLIPSOIDS)
def test_placed_matches_frozen_placements(a):
    # over Fractions the placements agree everywhere; over floats they
    # differ only at an infinite gamma, which the table's open intervals
    # never hold
    fa = tuple(F(x) for x in a)
    exact = _fraction_gammas(fa)
    floats = _float_pairs(a, random.Random(2101))
    placed = 0
    for case in TWO_CAUSTIC:
        for g1 in exact:
            for g2 in exact:
                got = _placed(case, *fa, g1, g2)
                assert got is frozen.PLACEMENTS[case](*fa, g1, g2), (case, fa, g1, g2)
                placed += got
        for g1, g2 in floats:
            want = frozen.PLACEMENTS[case](*a, g1, g2) and math.isfinite(g1 + g2)
            assert _placed(case, *a, g1, g2) is want, (case, a, g1, g2)
    assert placed > 0


def test_case_rects_are_the_clipped_table():
    assert list(search._CASE_RECTS) == list(frozen.CASE_RECTS) == TWO_CAUSTIC
    for a in CASE_ELLIPSOIDS + [(7.5, 0.25, 0.125), (1e6, 1e-3, 3e5)]:
        ell = Ellipsoid(*a)
        for case in TWO_CAUSTIC:
            rect = search._CASE_RECTS[case](ell)
            assert rect == frozen.CASE_RECTS[case](ell)
            assert all(type(x) is float for side in rect for x in side)


# -- the names the benchmark probes ---------------------------------------------

def _probe(dotted: str):
    """Resolve ``module.name`` inside the package as the benchmark's
    ``Ctx.probe`` does; a missing name fails here."""
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(f"minkbilliards.{module}"), name)


def test_benchmark_probes_resolve_and_keep_their_call_shape():
    # the exact replay: one series at _required_order(n) = n - 1, the last
    # coefficient a block reads, then the A and B blocks named by
    # _EVEN_BRANCHES through _test_A and _test_B at m = n/2
    required_order = _probe("conditions._required_order")
    branches = _probe("conditions._EVEN_BRANCHES")
    block_tests = {"A": _probe("conditions._test_A"), "B": _probe("conditions._test_B")}
    frozen_tests = {"A": frozen.hankel_A, "B": frozen.hankel_B}
    assert branches == frozen.EVEN_BRANCHES
    assert all(isinstance(b, str) for bs in branches.values() for b in bs)
    rng = random.Random(1601)
    for case in TWO_CAUSTIC:
        for params in _seeded_pairs(case, rng, 1) + [EXACT_S1_N4] * (case is CausticCase.S1):
            for n in (4, 8, 16):
                assert required_order(n) == n - 1
                base = sqrt_series(params, required_order(n))
                for branch in branches[case]:
                    series = base if branch == "A" else divided_series(base, SeriesKind.B, params)
                    assert (block_tests[branch](series, n // 2)
                            is frozen_tests[branch](series, n // 2))
    b = divided_series(sqrt_series(EXACT_S1_N4, 6), SeriesKind.B, EXACT_S1_N4)
    assert block_tests["B"](b, 2) is True

    # the exact workload's Pell variants per (case, n)
    variants_for = _probe("search.pell_variants_for")
    for case in CausticCase:
        for n in (16, 24, 32):
            assert variants_for(case, n) == frozen.pell_variants_for(case, n)

    # the search replay: _search_kind(case, n), _CASE_RECTS[case](ell) and
    # condition_vector_floats(a, kind, n, g1, g2) on floats
    search_kind = _probe("search._search_kind")
    case_rects = _probe("search._CASE_RECTS")
    grid_eval = _probe("search.condition_vector_floats")
    ell = Ellipsoid(*A421)
    for case in TWO_CAUSTIC:
        (lo1, hi1), (lo2, hi2) = case_rects[case](ell)
        for n in (4, 5, 6):
            kind = search_kind(case, n)
            assert kind == frozen.search_kind(case, n)
            if kind is not None:
                f1, f2 = grid_eval(A421, kind, n, lo1 + 0.4 * (hi1 - lo1), lo2 + 0.6 * (hi2 - lo2))
                assert isinstance(f1, float) and math.isfinite(abs(f1) + abs(f2))
