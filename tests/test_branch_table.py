"""The series-kind table of ``conditions`` against the per-module dispatch it
replaced (frozen in ``frozen_dispatch``), and the internal names that the
benchmark's per-layer replays resolve."""

import importlib
import logging
import math
import random
from fractions import Fraction as F

import pytest

import frozen_dispatch as frozen
from minkbilliards import (
    CausticCase,
    Ellipsoid,
    HyperellipticParams,
    PellVariant,
    SeriesKind,
    cayley_test,
    divided_series,
    sqrt_series,
)
from minkbilliards import conditions, search
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
            if not conditions._PLACEMENTS[case](*A421, g1, g2):
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


def _decisions(caplog, run) -> list[dict]:
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        verdict = run()
    return [verdict] + [r.decision for r in caplog.records if hasattr(r, "decision")]


def test_cayley_verdicts_and_decisions_match_frozen_on_exact_sets(caplog):
    satisfied = 0
    for params, case in _exact_configurations():
        for n in range(3, 17):
            new = _decisions(caplog, lambda: cayley_test(params, case, n))
            old = _decisions(caplog, lambda: frozen.cayley_test(params, case, n))
            assert new == old, (case, n)
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
    monkeypatch.setattr(conditions, "_deficient", lambda kind, series, n: True)
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


# -- the names the benchmark probes ---------------------------------------------

def _probe(dotted: str):
    """Resolve ``module.name`` inside the package as the benchmark's
    ``Ctx.probe`` does; a missing name fails here."""
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(f"minkbilliards.{module}"), name)


def test_benchmark_probes_resolve_and_keep_their_call_shape():
    # the exact replay: one series at _required_order(n), then the A and B
    # blocks named by _EVEN_BRANCHES through _test_A and _test_B at m = n/2
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
                assert required_order(n) == n + 2
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
