import math
from fractions import Fraction as F

import numpy as np
import pytest

from minkbilliards import (
    CausticCase,
    CausticPair,
    HyperellipticParams,
    LineType,
    cayley_test,
    condition_vector,
    darboux_integrals,
    divided_series,
    double_caustic_test,
    interval_partition,
    lightlike_test,
    rationalize,
    sqrt_series,
)
from minkbilliards import conditions
from minkbilliards.conditions import adaptive_gauss_legendre, gauss_legendre
from minkbilliards.errors import (
    BilliardError,
    CaseMismatchError,
    GammaOutOfRangeError,
    NonpositiveIntegrandError,
    QuadratureError,
    SingularCurveError,
)
from minkbilliards.series import SeriesKind, poly_mul_frac, series_sqrt

# exact rational parameter sets satisfying rank conditions (constructed via
# the reverse polynomial method and verified symbolically):
#   - two-caustic even block at n=4, placement S1
EXACT_S1_N4 = HyperellipticParams(F(1), F(6, 7), F(6), F(3, 4), F(-3))
#   - plain even block at n=6 (algebraically valid; the placement matches no
#     trajectory type, so only the branch tests see it)
EXACT_N6 = HyperellipticParams(F(4), F(2), F(1), F(-2), F(-4, 3))
#   - double caustic, n=4
EXACT_DOUBLE = ((F(6), F(3, 2), F(2)), F(2))
#   - light-like even, n=6
EXACT_LIGHT = ((F(8), F(7), F(15)), F(840, 169))
#   - two-caustic odd block (gamma1-divided series) at n=5, placement S2
EXACT_S2_N5 = HyperellipticParams(F(4), F(2), F(3), F(96, 49), F(-32, 5))


def params421(g1, g2) -> HyperellipticParams:
    return HyperellipticParams(F(4), F(2), F(1), F(g1), None if g2 is None else F(g2))


def test_params_validation():
    with pytest.raises(SingularCurveError):
        params421(2, -F(1, 2))          # gamma1 at a pole
    with pytest.raises(SingularCurveError):
        params421(F(1, 2), -1)          # gamma2 = -a3
    with pytest.raises(SingularCurveError):
        HyperellipticParams(F(2), F(4), F(1), F(1), F(-1, 2))
    p = params421(F(1, 2), -F(1, 2))
    assert p.epsilon == -1
    assert params421(F(1, 2), F(3)).epsilon == +1


def test_sqrt_series_contract():
    p = params421(F(3, 2), -F(1, 2))
    s = sqrt_series(p, 10)
    assert s.kind is SeriesKind.A
    assert s[0] == 1
    f = p.branch_poly_normalized()
    assert s[1] == f[1] / 2
    sq = poly_mul_frac(list(s.coeffs), list(s.coeffs))[:11]
    for k in range(11):
        assert sq[k] == (f[k] if k < len(f) else F(0))


def test_divided_series_identities():
    p = params421(F(3, 2), -F(1, 2))
    base = sqrt_series(p, 10)
    b = divided_series(base, SeriesKind.B, p)
    c = divided_series(base, SeriesKind.C, p)
    d = divided_series(base, SeriesKind.D, p)
    # multiplying back recovers the base series
    lin1 = [F(1), F(-1) / p.gamma1]
    lin2 = [F(1), F(-1) / p.gamma2]
    back = poly_mul_frac(poly_mul_frac(list(b.coeffs), lin1)[:11], lin2)[:11]
    assert back == list(base.coeffs)
    # C divided by the gamma2 factor equals B
    from minkbilliards.series import series_div
    assert series_div(list(c.coeffs), lin2, 10) == list(b.coeffs)
    # A = C * (1 - x/g1) coefficientwise
    assert poly_mul_frac(list(c.coeffs), lin1)[:11] == list(base.coeffs)
    # D mirrors C with the other caustic
    assert series_div(list(d.coeffs), lin1, 10) == list(b.coeffs)


def test_double_series_limit_matches_divided():
    # doubleB at gamma equals the B construction with coinciding caustics
    a = (F(6), F(3, 2), F(2))
    g = F(2)
    dbl = HyperellipticParams(a[0], a[1], a[2], g, g)
    base = sqrt_series(dbl, 8)
    db = divided_series(base, SeriesKind.DOUBLE_B, dbl)
    # independently: sqrt((a1-x)(a2-x)(a3+x))/ (normalized gamma factor)
    from minkbilliards.series import normalized_branch_poly, series_div, series_sqrt
    k = normalized_branch_poly([a[0], a[1], -a[2]])
    s = series_sqrt(k, 8)
    lin = [F(1), F(-1) / g]
    expect = series_div(s, lin, 8)
    assert list(db.coeffs) == expect


def test_cayley_exact_vector_s1_n4():
    assert cayley_test(EXACT_S1_N4, CausticCase.S1, 4) is True
    # small-matrix agreement: the n=4 test is the joint vanishing of the two
    # named coefficients of the divided series
    p = EXACT_S1_N4
    v = condition_vector((p.a1, p.a2, p.a3), SeriesKind.B, 4, p.gamma1, p.gamma2)
    assert v == [F(0), F(0)]
    # perturbing gamma1 breaks it
    near = HyperellipticParams(F(1), F(6, 7), F(6), F(3, 4) + F(1, 10 ** 7), F(-3))
    assert cayley_test(near, CausticCase.S1, 4) is False


def test_cayley_below_threshold_and_parity():
    assert cayley_test(EXACT_S1_N4, CausticCase.S1, 3) is False   # odd below 5
    p = params421(F(3), -F(3, 2))      # S3 placement
    assert cayley_test(p, CausticCase.S3, 5) is False             # odd impossible
    assert cayley_test(p, CausticCase.S3, 7) is False


def test_cayley_case_mismatch():
    p = params421(F(3, 2), -F(1, 2))   # S1 placement
    with pytest.raises(CaseMismatchError):
        cayley_test(p, CausticCase.S2, 4)
    with pytest.raises(CaseMismatchError):
        cayley_test(p, CausticCase.T1, 4)


def test_cayley_case_needs_its_caustic_shape():
    # a light-like case needs gamma2 at infinity, and a two-caustic case two
    # distinct finite caustics; the message names the case, not its enum repr
    with pytest.raises(CaseMismatchError, match="at-infinity sentinel"):
        cayley_test(params421(F(1), -F(1, 2)), CausticCase.LIGHT, 6)
    for gamma2 in (None, F(1)):
        p = HyperellipticParams(F(4), F(2), F(1), F(1), gamma2)
        with pytest.raises(CaseMismatchError,
                           match="^case S1 needs two distinct finite caustics$"):
            cayley_test(p, CausticCase.S1, 4)


def test_divided_series_rejects_the_undivided_kind_by_name():
    p = params421(F(3, 2), -F(1, 2))
    with pytest.raises(ValueError, match="^not a divided kind: A$"):
        divided_series(sqrt_series(p, 6), SeriesKind.A, p)


def test_cayley_order_independence():
    # ranks computed from exact coefficients cannot depend on how far the
    # series is extended once the block fits
    from minkbilliards.series import hankel_rank
    p = params421(F(3, 2), -F(1, 2))
    for extra in (0, 3, 7):
        base = sqrt_series(p, 8 + extra)
        b = divided_series(base, SeriesKind.B, p)
        assert hankel_rank(base, 4, 2, 1) == 1      # n=6 plain even block
        assert hankel_rank(b, 2, 2, 1) == 1         # n=4 two-caustic block
    exact_long = sqrt_series(EXACT_S1_N4, 14)
    b_long = divided_series(exact_long, SeriesKind.B, EXACT_S1_N4)
    assert hankel_rank(b_long, 2, 2, 1) == 0        # deficient at any order


def test_double_caustic_test():
    a, g = EXACT_DOUBLE
    assert double_caustic_test(a, g, 4) is True
    assert double_caustic_test(a, g, 5) is False            # odd -> false
    assert double_caustic_test(a, g + F(1, 100), 4) is False
    with pytest.raises(GammaOutOfRangeError):
        double_caustic_test(a, F(1, 2), 4)                  # not between a2 and a1


def test_lightlike_test():
    a, g = EXACT_LIGHT
    assert lightlike_test(a, g, 6) is True
    assert lightlike_test(a, g + F(1, 97), 6) is False
    # odd n with a hyperboloid caustic is impossible
    assert lightlike_test((F(4), F(2), F(1)), F(3), 5) is False
    assert lightlike_test((F(4), F(2), F(1)), F(3), 7) is False
    with pytest.raises(GammaOutOfRangeError):
        lightlike_test((F(4), F(2), F(1)), F(5), 5)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_degenerate_tests_reject_periods_below_three(n):
    # the double and light-like tests ask cayley_test, so a period below 3
    # raises ValueError as it does there, and is no plain False
    for test, (a, g), case in ((double_caustic_test, EXACT_DOUBLE, CausticCase.DOUBLE),
                               (lightlike_test, EXACT_LIGHT, CausticCase.LIGHT)):
        with pytest.raises(ValueError):
            test(a, g, n)
        with pytest.raises(ValueError):
            cayley_test(conditions._degenerate_params(a, g, case), case, n)


def test_deficient_branch_checks_in_one_order():
    # n < 3 first, then the case's shape or range, then the no-condition
    # rule, then the first deficient branch of the case at n
    light = HyperellipticParams(F(4), F(2), F(1), F(5), None)     # gamma1 > a1
    with pytest.raises(ValueError, match="at least 3"):
        conditions._deficient_branch(light, CausticCase.S1, 2)
    with pytest.raises(CaseMismatchError):
        conditions._deficient_branch(light, CausticCase.DOUBLE, 6)
    with pytest.raises(GammaOutOfRangeError):
        conditions._deficient_branch(light, CausticCase.LIGHT, 5)
    hyperboloid = HyperellipticParams(F(4), F(2), F(1), F(3), None)
    assert conditions._deficient_branch(hyperboloid, CausticCase.LIGHT, 5) is None
    assert conditions._deficient_branch(EXACT_S1_N4, CausticCase.S1, 4)[0] is SeriesKind.B
    assert conditions._deficient_branch(EXACT_S1_N4, CausticCase.S1, 8)[0] is SeriesKind.A
    double = conditions._degenerate_params(*EXACT_DOUBLE, CausticCase.DOUBLE)
    assert conditions._deficient_branch(double, CausticCase.DOUBLE, 4)[0] is SeriesKind.DOUBLE_B


def test_condition_vector_float_matches_exact():
    # the float evaluator used by the search agrees with the exact one
    from minkbilliards.search import condition_vector_floats
    import random
    rng = random.Random(6)
    pairs = []
    for _ in range(25):
        g1 = F(rng.randint(1, 15), 8)
        g2 = F(-rng.randint(1, 15), 8)
        try:
            p = params421(g1, g2)
        except SingularCurveError:
            continue
        pairs.append((p, g1, g2))
        for kind, n in ((SeriesKind.B, 4), (SeriesKind.C, 5), (SeriesKind.D, 5),
                        (SeriesKind.A, 6)):
            exact = condition_vector((p.a1, p.a2, p.a3), kind, n, p.gamma1, p.gamma2)
            approx = condition_vector_floats((4.0, 2.0, 1.0), kind, n,
                                             float(g1), float(g2))
            for e_, a_ in zip(exact, approx):
                assert abs(float(e_) - a_) <= 1e-10 * max(1.0, abs(a_))
    # ndarray input: every pair above in one call
    g1s = np.array([float(g1) for _, g1, _ in pairs])
    g2s = np.array([float(g2) for _, _, g2 in pairs])
    for kind, n in ((SeriesKind.B, 4), (SeriesKind.C, 5), (SeriesKind.D, 5),
                    (SeriesKind.A, 6)):
        approx = condition_vector_floats((4.0, 2.0, 1.0), kind, n, g1s, g2s)
        for i, (p, _, _) in enumerate(pairs):
            exact = condition_vector((p.a1, p.a2, p.a3), kind, n, p.gamma1, p.gamma2)
            for e_, a_ in zip(exact, approx):
                assert abs(float(e_) - a_[i]) <= 1e-10 * max(1.0, abs(a_[i]))
    # degenerate kinds
    for kind, n, g in ((SeriesKind.DOUBLE_B, 4, F(5, 2)), (SeriesKind.DOUBLE_A, 6, F(5, 2)),
                       (SeriesKind.LIGHT_B, 5, F(3, 2)), (SeriesKind.LIGHT_A, 6, F(3, 2))):
        if kind in (SeriesKind.DOUBLE_A, SeriesKind.DOUBLE_B):
            p = HyperellipticParams(F(4), F(2), F(1), g, g)
        else:
            p = HyperellipticParams(F(4), F(2), F(1), g, None)
        exact = condition_vector((p.a1, p.a2, p.a3), kind, n, p.gamma1, p.gamma2)
        approx = condition_vector_floats((4.0, 2.0, 1.0), kind, n, float(g), None)
        for e_, a_ in zip(exact, approx):
            assert abs(float(e_) - a_) <= 1e-10 * max(1.0, abs(a_))


def test_rationalize_bound():
    x = math.pi
    fr = rationalize(x)
    assert fr.denominator <= 10 ** 9
    assert abs(float(fr) - x) < 1e-12


def test_darboux_positive_and_convergent(e421):
    cp = CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)
    part = interval_partition(cp, e421)
    i1, i2, i3 = darboux_integrals((4, 2, 1, 1.0, -0.5), part, 0)
    # with the closure orientation the first integral runs downhill
    assert i1 < 0 < i2 and i3 > 0
    j1, j2, j3 = darboux_integrals((4, 2, 1, 1.0, -0.5), part, 0, abs_tol=1e-12)
    assert abs(i1 - j1) < 1e-9 and abs(i2 - j2) < 1e-9 and abs(i3 - j3) < 1e-9
    k1, k2, k3 = darboux_integrals((4, 2, 1, 1.0, -0.5), part, 1)
    assert k1 > 0 and k2 > 0 and k3 > 0


def test_darboux_wrong_interval_raises(e421):
    cp = CausticPair(1.0, -0.5, LineType.SPACELIKE, -1)
    part = interval_partition(cp, e421)
    with pytest.raises(NonpositiveIntegrandError):
        # flipped sign of the caustic product makes P negative inside
        darboux_integrals((4, 2, 1, 1.0, 0.5), part, 0)


# mpmath references (40 digits) on the ellipsoid (4,2,1): another branch
# point 1e-6 outside an interval end, or a caustic 1e-6 from an ellipsoid
# axis.  scipy's quad raised NonpositiveIntegrandError on the last row.
DARBOUX_REFERENCES = [
    ((3.998, -1.0000000000287557e-06), LineType.SPACELIKE, 0,
     (-3.5364181209077616e-04, 0.7910951565848997, 0.49696544744725385)),
    ((2e-06, 3.0), LineType.TIMELIKE, 1,
     (0.22677669359442432, 7.698004102402782e-10, 2.216472545868755)),
    ((0.002, -0.999999), LineType.SPACELIKE, 0,
     (-4.418529751662524, 0.03159649216047266, 0.4895522210558987)),
    ((1.999998, 2.002), LineType.TIMELIKE, 0,
     (-0.21983011108842798, 87.74805641794387, 88.3545686138169)),
]


@pytest.mark.parametrize("gammas,linetype,k,expected", DARBOUX_REFERENCES)
def test_darboux_near_branch_points_matches_mpmath(e421, gammas, linetype, k, expected):
    g1, g2 = gammas
    eps = -1 if linetype is LineType.SPACELIKE else +1
    part = interval_partition(CausticPair(g1, g2, linetype, eps), e421)
    got = darboux_integrals((4.0, 2.0, 1.0, g1, g2), part, k)
    for value, ref in zip(got, expected):
        assert abs(value - ref) <= 1e-12 * abs(ref)


def test_gauss_legendre_rule():
    for n in (2, 16, 32):
        rule = gauss_legendre(n)
        assert len(rule) == n
        assert abs(math.fsum(w for _, w in rule) - 2.0) <= 1e-14
        # exact for polynomials of degree 2n - 1
        for deg in range(2 * n):
            got = math.fsum(w * x ** deg for x, w in rule)
            assert abs(got - (2.0 / (deg + 1) if deg % 2 == 0 else 0.0)) <= 1e-14
    with pytest.raises(ValueError):
        gauss_legendre(15)


def test_adaptive_gauss_legendre_converges_and_orients():
    assert abs(adaptive_gauss_legendre(math.exp, 0.0, 1.0) - (math.e - 1.0)) <= 1e-15
    # reversed limits change the sign
    assert abs(adaptive_gauss_legendre(math.exp, 1.0, 0.0) + (math.e - 1.0)) <= 1e-15
    # a singularity 1e-9 outside the interval is resolved by bisection
    exact = 2.0 * (math.sqrt(1.0 + 1e-9) - math.sqrt(1e-9))
    got = adaptive_gauss_legendre(lambda x: 1.0 / math.sqrt(x + 1e-9), 0.0, 1.0)
    assert abs(got - exact) <= 1e-14 * exact


def test_adaptive_gauss_legendre_panel_cap_raises():
    # 1/x is not integrable on [0, 1]: the panel next to 0 never converges
    with pytest.raises(QuadratureError, match="did not converge"):
        adaptive_gauss_legendre(lambda x: 1.0 / x, 0.0, 1.0)
    assert issubclass(QuadratureError, BilliardError)


def _full_order_condition_vector(a, kind, n, g1, g2):
    """The coefficients s, ..., n - 1 read off the series built through
    order n + 2: longer than ``_required_order(n)``."""
    caustics, divisors, first = conditions._KINDS[kind]
    order = n + 2
    s = series_sqrt(conditions._branch_poly(a, caustics, (g1, g2)), order)
    s = conditions._divide(s, divisors, (g1, g2), order)
    return s[first:n]


# per kind: a period that reads it and caustic parameters on (4, 2, 1),
# gamma2 None for the double and light-like kinds
_KIND_POINTS = [
    (SeriesKind.A, 6, F(3, 4), F(-1, 3)),
    (SeriesKind.B, 4, F(3, 4), F(-1, 3)),
    (SeriesKind.C, 5, F(3, 4), F(-5, 2)),
    (SeriesKind.D, 5, F(5, 2), F(-1, 3)),
    (SeriesKind.DOUBLE_A, 6, F(5, 2), None),
    (SeriesKind.DOUBLE_B, 4, F(5, 2), None),
    (SeriesKind.LIGHT_A, 6, F(3, 4), None),
    (SeriesKind.LIGHT_B, 5, F(3, 4), None),
]


@pytest.mark.parametrize("kind,n,g1,g2", _KIND_POINTS)
def test_condition_vector_equals_full_order_series(kind, n, g1, g2):
    # the block's coefficients depend only on lower-order ones, so the series
    # built through the last of them gives the same values as a longer one:
    # equal Fractions at the 2 x 1 block (m = n) and the 3 x 2 block
    # (m = n + 2), and the same bits on float scalars and grid arrays
    a = (F(4), F(2), F(1))
    for m in (n, n + 2):
        assert (condition_vector(a, kind, m, g1, g2)
                == _full_order_condition_vector(a, kind, m, g1, g2))
    # no block, no vector: the wrong parity, or below the kind's threshold
    for m in (n + 1, n - 2):
        with pytest.raises(ValueError, match=f"no condition branch at n={m}"):
            condition_vector(a, kind, m, g1, g2)
    af = (4.0, 2.0, 1.0)
    g2f = None if g2 is None else float(g2)
    got = condition_vector(af, kind, n, float(g1), g2f)
    want = _full_order_condition_vector(af, kind, n, float(g1), g2f)
    assert repr(got) == repr(want)
    g1s = float(g1) * np.linspace(0.5, 1.5, 41)
    g2s = None if g2 is None else float(g2) * np.linspace(1.5, 0.5, 41)
    with np.errstate(all="ignore"):
        got = condition_vector(af, kind, n, g1s, g2s)
        want = _full_order_condition_vector(af, kind, n, g1s, g2s)
    assert all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(got, want))
