import json
import logging
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkbilliards import (
    HyperellipticParams,
    PellSolution,
    PellVariant,
    RatPoly,
    cayley_test,
    compose_pell,
    solve_pell,
    solve_pell_singular,
    verify_pell,
)
from minkbilliards import conditions, search
from minkbilliards.conditions import (
    divided_series,
    double_caustic_test,
    lightlike_test,
    sqrt_series,
)
from minkbilliards.confocal import CausticCase, Ellipsoid, _placed
from minkbilliards.errors import (
    GammaOutOfRangeError,
    InsufficientOrderError,
    ThresholdViolationError,
    UnverifiedInputError,
)
from minkbilliards.pell import _VARIANT_KINDS, variant_degrees, weight_polys
from minkbilliards.search import pell_variants_for
from minkbilliards.series import MODULUS, SeriesKind
from test_conditions import EXACT_DOUBLE, EXACT_LIGHT, EXACT_N6, EXACT_S1_N4, EXACT_S2_N5


def test_ratpoly_ops():
    f = RatPoly.of([F(-1), F(0), F(1)])          # x^2 - 1
    g = RatPoly.of([F(2), F(3)])
    assert (f * g).coeffs == (F(-2), F(-3), F(2), F(3))
    assert (f + (-f)).is_zero
    assert f.reciprocal(2).coeffs == (F(1), F(0), F(-1))    # s^2((1/s)^2 - 1) = 1 - s^2
    assert (f * g).degree == f.degree + g.degree
    assert f.eval(F(3)) == 8


def test_variant_degrees_and_thresholds():
    assert variant_degrees(PellVariant.EVEN_A, 6) == (3, 0)
    assert variant_degrees(PellVariant.EVEN_B, 4) == (1, 0)
    assert variant_degrees(PellVariant.ODD_C, 5) == (2, 0)
    with pytest.raises(ThresholdViolationError):
        variant_degrees(PellVariant.EVEN_A, 4)
    with pytest.raises(ThresholdViolationError):
        variant_degrees(PellVariant.ODD_C, 3)
    with pytest.raises(ThresholdViolationError):
        variant_degrees(PellVariant.EVEN_A, 5)   # parity


def test_solve_even_a_exact_vector():
    sol = solve_pell(EXACT_N6, 6, PellVariant.EVEN_A)
    assert sol is not None
    assert (sol.p.degree, sol.q.degree) == (3, 0)
    assert sol.rhs == 1
    assert verify_pell(sol)


def test_solve_even_b_exact_vector():
    sol = solve_pell(EXACT_S1_N4, 4, PellVariant.EVEN_B)
    assert sol is not None
    assert (sol.p.degree, sol.q.degree) == (1, 0)
    assert verify_pell(sol)
    assert sol.rhs < 0     # sign of the caustic product in the S1 placement


# the variant that certifies each kind's condition
_KIND_VARIANTS = {kind: variant for variant, kind in _VARIANT_KINDS.items()}


def _exact_kind_series(params, kind, order):
    """The exact series of the kind, built here from its public pieces."""
    base = sqrt_series(params, order)
    return base if kind is base.kind else divided_series(base, kind, params)


def _rational_pairs(case, rng, count):
    """``count`` small-height rational pairs of the case on (4,2,1)."""
    (lo1, hi1), (lo2, hi2) = (tuple(F(x) for x in side)
                              for side in search._CASE_RECTS[case](Ellipsoid(4.0, 2.0, 1.0)))
    out = []
    while len(out) < count:
        g1 = lo1 + (hi1 - lo1) * F(rng.randint(1, 99), 100)
        g2 = lo2 + (hi2 - lo2) * F(rng.randint(1, 99), 100)
        if _placed(case, F(4), F(2), F(1), g1, g2):
            out.append(HyperellipticParams(F(4), F(2), F(1), g1, g2))
    return out


# the suite's exact sets with a generic variant and the period it certifies
_EXACT_SOLVES = [(EXACT_S1_N4, 4, PellVariant.EVEN_B), (EXACT_S1_N4, 8, PellVariant.EVEN_A),
                 (EXACT_N6, 6, PellVariant.EVEN_A), (EXACT_S2_N5, 5, PellVariant.ODD_C)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_EXACT_SOLVES),
       st.fractions(min_value=F(1, 50), max_value=50, max_denominator=60))
def test_compose_pell_verifies_on_scaled_exact_sets(solve, t):
    # scaling a and gamma together by t > 0 scales coefficient k of every
    # normalized series by t^-k, which keeps each block's rank: the scaled
    # set solves its variant, and the composition verifies at period 2n
    # with degrees (n, n - 3)
    params, n, variant = solve
    scaled = HyperellipticParams(*(t * x for x in (params.a1, params.a2, params.a3,
                                                   params.gamma1, params.gamma2)))
    sol = solve_pell(scaled, n, variant)
    assert sol is not None and verify_pell(sol)
    comp = compose_pell(sol)
    assert comp.n == 2 * n and (comp.p.degree, comp.q.degree) == (n, n - 3)
    assert verify_pell(comp)


def test_equivalence_solve_iff_rank():
    # for every branch of every two-caustic case at n = 3..12, the nullspace
    # is nontrivial exactly when the kind's block is deficient
    rng = random.Random(20)
    configs = [(case, params, range(3, 13))
               for case in conditions._CASE_INTERVALS for params in _rational_pairs(case, rng, 3)]
    configs += [(CausticCase.S1, EXACT_S1_N4, (4, 8, 12)), (CausticCase.S2, EXACT_S2_N5, (5,))]
    satisfied = 0
    for case, params, periods in configs:
        for n in periods:
            found = False
            for kind in conditions._branches(case, n):
                deficient = conditions._deficient(kind, _exact_kind_series(params, kind, n - 1), n)
                sol = solve_pell(params, n, _KIND_VARIANTS[kind])
                assert (sol is not None) == deficient, (case, params, n, kind)
                assert sol is None or verify_pell(sol)
                found = found or deficient
            assert cayley_test(params, case, n) == found
            satisfied += found
    assert satisfied == 4      # the exact vectors, and none of the seeded pairs
    # EXACT_N6 fits no placement: its A block directly
    assert conditions._deficient(SeriesKind.A, _exact_kind_series(EXACT_N6, SeriesKind.A, 5), 6)
    assert solve_pell(EXACT_N6, 6, PellVariant.EVEN_A) is not None


# (params, kinds) whose series the exact sets build: two-caustic, double and
# light-like with an ellipsoid caustic
_KIND_PARAMS = [
    (EXACT_S1_N4, (SeriesKind.A, SeriesKind.B, SeriesKind.C, SeriesKind.D)),
    (HyperellipticParams(*EXACT_DOUBLE[0], EXACT_DOUBLE[1], EXACT_DOUBLE[1]),
     (SeriesKind.DOUBLE_A, SeriesKind.DOUBLE_B)),
    (HyperellipticParams(*EXACT_LIGHT[0], EXACT_LIGHT[1], None),
     (SeriesKind.LIGHT_A, SeriesKind.LIGHT_B)),
]


@pytest.mark.parametrize("params,kinds", _KIND_PARAMS)
def test_required_order_is_tight(params, kinds):
    # order n - 1 builds every branch's block and the p* of its variant;
    # one coefficient fewer leaves the block short
    for n in range(3, 17):
        assert conditions._required_order(n) == n - 1
        for kind in kinds:
            if not conditions._is_branch(kind, n):
                continue
            series = _exact_kind_series(params, kind, n - 1)
            block = conditions._block(kind, series, n)
            assert block[-1][-1] == series[n - 1]
            dp, _ = variant_degrees(_KIND_VARIANTS[kind], n)
            assert dp <= series.order
            with pytest.raises(InsufficientOrderError):
                conditions._block(kind, _exact_kind_series(params, kind, n - 2), n)


@pytest.mark.parametrize("n", [5, 7])
def test_light_odd_with_a_hyperboloid_caustic_builds_no_series(n, caplog, monkeypatch):
    # gamma1 = 3 in (a2, a1): odd light-like periods have no condition, so
    # solve_pell returns None before building a series, like the rank test
    # and the singular solve
    a = (F(4), F(2), F(1))
    params = HyperellipticParams(*a, F(3), None)

    def no_series(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(conditions, "sqrt_series", no_series)
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        assert solve_pell(params, n, PellVariant.LIGHT_ODD) is None
        assert lightlike_test(a, F(3), n) is False
        assert solve_pell_singular(a, F(3), n, PellVariant.LIGHT_ODD) is None
    assert not [r for r in caplog.records if r.name == "minkbilliards.series"]


def test_solve_odd_c_exact_vector():
    # the exact odd period: the S2 pair satisfies the n=5 rank test, its oddC
    # certificate verifies, and the composition verifies at n=10
    assert cayley_test(EXACT_S2_N5, CausticCase.S2, 5)
    sol = solve_pell(EXACT_S2_N5, 5, PellVariant.ODD_C)
    assert sol is not None and verify_pell(sol)
    assert sol.rhs == F(-49, 96)
    assert sol.p.coeffs == (F(1), F(-16, 5), F(-128, 5))
    assert sol.q.coeffs == (F(128, 5),)
    comp = compose_pell(sol)
    assert comp.n == 10 and verify_pell(comp)


def test_verify_rejects_perturbation():
    sol = solve_pell(EXACT_S1_N4, 4, PellVariant.EVEN_B)
    bad_p = RatPoly.of([c + (F(1, 10 ** 6) if i == 0 else 0)
                        for i, c in enumerate(sol.p.coeffs)])
    bad = PellSolution(bad_p, sol.q, sol.variant, sol.n, sol.params, sol.rhs)
    assert not verify_pell(bad)


def test_verify_rejects_degenerate_shape():
    triv = PellSolution(RatPoly.const(1), RatPoly.zero(), PellVariant.EVEN_A, 6,
                        EXACT_N6, F(1))
    assert not verify_pell(triv)


def test_compose_even_a():
    sol = solve_pell(EXACT_N6, 6, PellVariant.EVEN_A)
    comp = compose_pell(sol)
    assert comp.variant is PellVariant.EVEN_A
    # p_hat = 2 p^2 - 1, q_hat = 2 p q
    two_p2 = (sol.p * sol.p).scale(2)
    assert comp.p == two_p2 - RatPoly.const(1)
    assert comp.q == (sol.p * sol.q).scale(2)
    assert (comp.p.degree, comp.q.degree) == (6, 3)
    assert verify_pell(comp)


def test_compose_even_b_degrees_and_verify():
    sol = solve_pell(EXACT_S1_N4, 4, PellVariant.EVEN_B)
    comp = compose_pell(sol)
    assert (comp.p.degree, comp.q.degree) == (4, 1)
    assert comp.rhs == 1
    assert verify_pell(comp)
    # the composed pair satisfies the plain even identity with the full
    # degree-6 weight
    u, v = weight_polys(PellVariant.EVEN_A, sol.params)
    expansion = u * (comp.p * comp.p) - v * (comp.q * comp.q)
    assert expansion.degree == 0 and expansion.coeffs[0] == 1


def test_compose_requires_verified_input():
    sol = solve_pell(EXACT_S1_N4, 4, PellVariant.EVEN_B)
    bad = PellSolution(sol.p, sol.q, sol.variant, sol.n, sol.params, sol.rhs + 1)
    with pytest.raises(UnverifiedInputError):
        compose_pell(bad)


def test_solve_absent_for_nonperiodic():
    p = HyperellipticParams(F(4), F(2), F(1), F(1, 2), F(-1, 3))
    assert solve_pell(p, 4, PellVariant.EVEN_B) is None
    assert solve_pell(p, 6, PellVariant.EVEN_A) is None
    assert solve_pell(p, 5, PellVariant.ODD_C) is None
    assert solve_pell(p, 5, PellVariant.ODD_D) is None


def test_singular_double():
    a, g = EXACT_DOUBLE
    sol = solve_pell_singular(a, g, 4, PellVariant.DOUBLE_B)
    assert sol is not None and verify_pell(sol)
    assert sol.rhs > 0
    assert double_caustic_test(a, g, 4)
    # odd n -> absent
    assert solve_pell_singular(a, g, 5, PellVariant.DOUBLE_B) is None
    assert solve_pell_singular(a, g, 5, PellVariant.DOUBLE_A) is None
    with pytest.raises(GammaOutOfRangeError):
        solve_pell_singular(a, F(1, 3), 4, PellVariant.DOUBLE_B)


def test_singular_light():
    a, g = EXACT_LIGHT
    sol = solve_pell_singular(a, g, 6, PellVariant.LIGHT_EVEN)
    assert sol is not None and verify_pell(sol)
    assert sol.rhs == 1
    assert lightlike_test(a, g, 6)
    # light-odd with a hyperboloid caustic is absent
    assert solve_pell_singular((F(4), F(2), F(1)), F(3), 5, PellVariant.LIGHT_ODD) is None
    # parity mismatches are absent
    assert solve_pell_singular(a, g, 5, PellVariant.LIGHT_EVEN) is None


@pytest.mark.parametrize("n", [1, 3])
def test_singular_light_odd_threshold_before_no_condition(n):
    # below its threshold lightOdd raises for a hyperboloid caustic as for an
    # ellipsoid one, in solve_pell_singular as in solve_pell: the period is
    # checked before the no-condition rule
    a = (F(4), F(2), F(1))
    for g in (F(3), F(1, 2)):
        with pytest.raises(ThresholdViolationError):
            solve_pell_singular(a, g, n, PellVariant.LIGHT_ODD)
        with pytest.raises(ThresholdViolationError):
            solve_pell(HyperellipticParams(*a, g, None), n, PellVariant.LIGHT_ODD)


@pytest.mark.parametrize("g", [F(5), F(-3, 2)])
def test_solve_pell_checks_the_lightlike_range(g):
    # gamma1 beyond a1 or below -a3 is no light-like caustic parameter, for
    # solve_pell as for cayley_test and solve_pell_singular
    params = HyperellipticParams(F(4), F(2), F(1), g, None)
    for variant, n in ((PellVariant.LIGHT_EVEN, 6), (PellVariant.LIGHT_ODD, 5)):
        with pytest.raises(GammaOutOfRangeError):
            solve_pell(params, n, variant)
    with pytest.raises(GammaOutOfRangeError):
        cayley_test(params, CausticCase.LIGHT, 6)


def test_singular_light_equivalence():
    # light-even solvability tracks the degenerate rank test
    rng = random.Random(21)
    for _ in range(10):
        g = F(rng.randint(1, 13), 2)
        if g in (F(7), F(8)) or not (0 < g < 8):
            continue
        a = (F(8), F(7), F(15))
        ok_rank = lightlike_test(a, g, 6)
        sol = solve_pell_singular(a, g, 6, PellVariant.LIGHT_EVEN)
        assert (sol is not None) == ok_rank


def test_certificate_round_trip():
    sol = solve_pell(EXACT_S1_N4, 4, PellVariant.EVEN_B)
    doc = json.loads(sol.to_json())
    assert set(doc) == {"variant", "n", "params", "p_coeffs", "q_coeffs"}
    assert all("/" in c for c in doc["p_coeffs"])
    back = PellSolution.from_json_dict(doc)
    assert verify_pell(back)
    assert back.p == sol.p and back.q == sol.q and back.rhs == sol.rhs


def test_certificate_with_a_non_constant_identity_loads_with_rhs_zero():
    sol = solve_pell(EXACT_S1_N4, 4, PellVariant.EVEN_B)
    doc = json.loads(sol.to_json())
    doc["p_coeffs"][0] = str(F(doc["p_coeffs"][0]) + 1)
    back = PellSolution.from_json_dict(doc)
    assert back.rhs == 0 and not verify_pell(back)


# one exact solution per sign rule of the constant R = U(0) p(0)^2 that the
# suite's rational sets reach; no rational odd-period set is known to it
SIGN_RULE_SOLUTIONS = {
    "U = 1": lambda: solve_pell(EXACT_N6, 6, PellVariant.EVEN_A),
    "U = 1, light-like": lambda: solve_pell_singular(*EXACT_LIGHT, 6, PellVariant.LIGHT_EVEN),
    "U = (s-1/g1)(s-1/g2), g1 g2 < 0": lambda: solve_pell(EXACT_S1_N4, 4, PellVariant.EVEN_B),
    "U = (s-1/g1)^2": lambda: solve_pell_singular(*EXACT_DOUBLE, 4, PellVariant.DOUBLE_B),
}


@pytest.mark.parametrize("rule", list(SIGN_RULE_SOLUTIONS))
def test_verify_pell_rejects_the_negated_constant(rule):
    sol = SIGN_RULE_SOLUTIONS[rule]()
    u, _ = weight_polys(sol.variant, sol.params)
    assert verify_pell(sol) and (sol.rhs > 0) == (u.eval(F(0)) > 0)
    assert not verify_pell(replace(sol, rhs=-sol.rhs))


# -- verdict agreement and the modular certificate ---------------------------

# caustic placements on (4,2,1): gamma1 range, gamma2 range
PLACEMENTS = {
    CausticCase.S1: ((0.0, 2.0), (-1.0, 0.0)),
    CausticCase.S2: ((0.0, 2.0), (-6.0, -1.0)),
    CausticCase.S4: ((2.0, 4.0), (-1.0, 0.0)),
    CausticCase.T1: ((0.0, 2.0), (2.0, 4.0)),
}


def _pell_solutions(params, case, n):
    """solve_pell for every variant of the case that is defined at n."""
    sols = []
    for variant in pell_variants_for(case, n):
        try:
            variant_degrees(variant, n)
        except ThresholdViolationError:
            continue
        sols.append(solve_pell(params, n, variant))
    return sols


def _paths(caplog) -> set[str]:
    return {r.decision["path"] for r in caplog.records if hasattr(r, "decision")}


@pytest.mark.parametrize("n", [16, 24, 32])
def test_rationalized_pairs_not_satisfied_modularly(n, caplog):
    # 1e9-rationalized generic pairs: NOT SATISFIED and no Pell solution,
    # both decided by full rank mod p without building the exact series.
    # This guards the choice of ``MODULUS``: a prime that divided a
    # denominator or a minor of the common case would send it to Bareiss
    rng = random.Random(300 + n)
    for case, (r1, r2) in [item for item in PLACEMENTS.items() for _ in range(4)]:
        params = HyperellipticParams.from_floats(4.0, 2.0, 1.0, rng.uniform(*r1), rng.uniform(*r2))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
            verdict = cayley_test(params, case, n)
            sols = _pell_solutions(params, case, n)
        assert verdict is False and sols and all(s is None for s in sols)
        assert verdict == any(s is not None for s in sols)
        assert _paths(caplog) == {"modular"}
        assert all(r.decision["coeff_bits"] is None for r in caplog.records)


def test_large_period_not_satisfied_modularly(caplog):
    # S1 at n = 64: blocks of 32 rows, each decided by full rank mod p
    params = HyperellipticParams.from_floats(4, 2, 1, 1.234567, -0.456789)
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        verdict = cayley_test(params, CausticCase.S1, 64)
        decisions = len(caplog.records)
        sols = [solve_pell(params, 64, v) for v in (PellVariant.EVEN_A, PellVariant.EVEN_B)]
    assert verdict is False and decisions > 0
    assert sols == [None, None]
    assert _paths(caplog) == {"modular"}


@pytest.mark.parametrize("n", [4, 8, 32])
def test_satisfied_verdicts_come_from_the_exact_path(n, caplog):
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        verdict = cayley_test(EXACT_S1_N4, CausticCase.S1, n)
        sols = _pell_solutions(EXACT_S1_N4, CausticCase.S1, n)
    assert verdict is True
    assert verdict == any(s is not None for s in sols)
    assert all(verify_pell(s) for s in sols if s is not None)
    assert "exact" in _paths(caplog)


def test_satisfied_n6_block_comes_from_the_exact_path(caplog):
    # EXACT_N6 fits no caustic placement, so its A block is tested directly
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        kind, _, kernel = conditions._exact_kernel(EXACT_N6, (SeriesKind.A,), 6)
        sol = solve_pell(EXACT_N6, 6, PellVariant.EVEN_A)
    assert kind is SeriesKind.A and kernel and sol is not None and verify_pell(sol)
    assert _paths(caplog) == {"exact"}


def test_non_unit_parameters_fall_back_to_exact(caplog):
    # parameters that are multiples of p have no series mod p, and the exact
    # series then has p in its denominators: only the exact Bareiss elimination decides
    params = HyperellipticParams(F(4 * MODULUS), F(2 * MODULUS), F(1), F(MODULUS), F(-1, 2))
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        assert cayley_test(params, CausticCase.S1, 8) is False
        assert _pell_solutions(params, CausticCase.S1, 8) == [None, None]
    assert _paths(caplog) == {"exact"}
    # gamma1 = 1/p has no reduction either: though the exact series is
    # p-integral, its blocks go straight to the exact kernel, as every block
    # does that the series mod p cannot rank
    params = HyperellipticParams(F(4), F(2), F(1), F(1, MODULUS), F(-1, 2))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        assert cayley_test(params, CausticCase.S1, 8) is False
        assert _pell_solutions(params, CausticCase.S1, 8) == [None, None]
    assert _paths(caplog) == {"exact"}
    assert all(r.decision["coeff_bits"] > MODULUS.bit_length() for r in caplog.records)


def test_singular_variant_error_states_the_plain_value():
    with pytest.raises(ValueError) as err:
        solve_pell_singular((F(4), F(2), F(1)), F(3), 6, PellVariant.EVEN_A)
    message = str(err.value)
    assert message == "not a singular variant: evenA"
    assert not any(leak in message for leak in ("<", "LineType.", "PellVariant."))
