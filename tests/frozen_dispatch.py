"""Frozen copy of the per-module (case, n) -> condition-branch dispatch that
the series-kind table in ``conditions`` replaced: the even/odd branch tables
and the three Hankel test bodies, the searched-branch table, the Pell
variant table and degree arithmetic, and the per-variant Pell weights,
constant signs, parameter and range checks and verification.  Also the
per-module caustic-case placements that the case-interval table in
``confocal`` replaced: the quadric-type classification, the exact placement
inequalities and the search rectangles.  And its own copy of the rank
tests' old certificate, ``_certified`` (rank mod p first, then the exact
rank), which the package replaced with one exact decision shared with the
Pell solve, ``conditions._exact_kernel``.
``test_branch_table`` checks that the tables give the same answers.
Nothing in the package imports this module; the Hankel rank, series
builds and Pell solve are the package's own.
"""

from __future__ import annotations

from fractions import Fraction

from minkbilliards.conditions import (
    HyperellipticParams,
    _check_case_consistency,
    divided_series,
    sqrt_series,
)
from minkbilliards.confocal import CausticCase, CausticPair, Ellipsoid, QuadricType, quadric_type
from minkbilliards.errors import (
    EmptyRangeError,
    GammaOutOfRangeError,
    InconsistentConfigurationError,
    SingularCurveError,
    ThresholdViolationError,
)
from minkbilliards.minkowski import LineType
from minkbilliards.pell import PellVariant, RatPoly, solve_pell
from minkbilliards.series import ModP, NonUnitError, SeriesKind, hankel_rank

_TWO_CAUSTIC = (CausticCase.S1, CausticCase.S2, CausticCase.S3, CausticCase.S4,
                CausticCase.T1, CausticCase.T2, CausticCase.T3, CausticCase.T4)

# -- conditions ----------------------------------------------------------------

EVEN_BRANCHES: dict[CausticCase, tuple[str, ...]] = {
    CausticCase.S1: ("A", "B"),
    CausticCase.S2: ("A",),
    CausticCase.S3: ("A",),
    CausticCase.S4: ("A",),
    CausticCase.T1: ("A",),
    CausticCase.T2: ("A",),
    CausticCase.T3: ("A", "B"),
    CausticCase.T4: ("A",),
}

ODD_BRANCHES: dict[CausticCase, tuple[str, ...]] = {
    CausticCase.S1: ("C", "D"),
    CausticCase.S2: ("C",),
    CausticCase.S3: (),
    CausticCase.S4: ("D",),
    CausticCase.T1: ("C",),
    CausticCase.T2: ("C",),
    CausticCase.T3: (),
    CausticCase.T4: (),
}


def _required_order(n: int) -> int:
    # the order the dispatch built its series to, three past the last
    # coefficient any block reads
    return n + 2


def _certified(deficient) -> bool:
    """Exact answer of a Hankel test ``deficient(number)``, mod p first:
    False where full rank mod p proves it (no reduction proves nothing),
    else ``deficient(Fraction)``."""
    try:
        if not deficient(ModP):
            return False
    except NonUnitError:
        pass
    return deficient(Fraction)


def hankel_A(series, m: int) -> bool:
    return hankel_rank(series, 4, m - 1, m - 2) < m - 2


def hankel_B(series, m: int) -> bool:
    return hankel_rank(series, 2, m, m - 1) < m - 1


def hankel_CD(series, m: int) -> bool:
    return hankel_rank(series, 3, m, m - 1) < m - 1


def cayley_test(params: HyperellipticParams, case: CausticCase, n: int) -> bool:
    if n < 3:
        raise ValueError("period must be at least 3")
    _check_case_consistency(params, case)
    if case is CausticCase.DOUBLE:
        return double_caustic_test((params.a1, params.a2, params.a3), params.gamma1, n)
    if case is CausticCase.LIGHT:
        return lightlike_test((params.a1, params.a2, params.a3), params.gamma1, n)
    return _certified(lambda number: _generic_deficient(params, case, n, number))


def _generic_deficient(params, case, n, number) -> bool:
    base = sqrt_series(params, _required_order(n), number)
    if n % 2 == 0:
        m = n // 2
        for branch in EVEN_BRANCHES[case]:
            if branch == "A" and n >= 6 and hankel_A(base, m):
                return True
            if branch == "B" and n >= 4 and hankel_B(divided_series(base, SeriesKind.B, params), m):
                return True
        return False
    m = (n - 1) // 2
    if n < 5:
        return False
    for branch in ODD_BRANCHES[case]:
        kind = SeriesKind.C if branch == "C" else SeriesKind.D
        if hankel_CD(divided_series(base, kind, params), m):
            return True
    return False


def double_caustic_test(a, gamma1, n: int) -> bool:
    a1, a2, a3 = a
    if not (a2 < gamma1 < a1):
        raise GammaOutOfRangeError(f"double caustic needs gamma1 in ({a2}, {a1})")
    if n % 2 != 0:
        return False
    m = n // 2
    params = HyperellipticParams(a1, a2, a3, gamma1, gamma1)

    def deficient(number) -> bool:
        base = sqrt_series(params, _required_order(n), number)
        return ((n >= 6 and hankel_A(base, m))
                or (n >= 4 and hankel_B(divided_series(base, SeriesKind.DOUBLE_B, params), m)))

    return _certified(deficient)


def lightlike_test(a, gamma1, n: int) -> bool:
    a1, a2, a3 = a
    if not (-a3 < gamma1 < a2 or a2 < gamma1 < a1):
        raise GammaOutOfRangeError(f"gamma1={gamma1} is not a non-degenerate caustic parameter")
    params = HyperellipticParams(a1, a2, a3, gamma1, None)
    order = _required_order(n)
    if n % 2 == 0:
        m = n // 2
        return n >= 6 and _certified(lambda number: hankel_A(sqrt_series(params, order, number), m))
    if not (-a3 < gamma1 < a2):
        return False
    if n < 5:
        return False
    m = (n - 1) // 2
    return _certified(lambda number: hankel_CD(
        divided_series(sqrt_series(params, order, number), SeriesKind.LIGHT_B, params), m))


# -- search --------------------------------------------------------------------

SEARCH_KIND: dict[tuple[CausticCase, int], SeriesKind] = {
    (CausticCase.S1, 4): SeriesKind.B,
    (CausticCase.T3, 4): SeriesKind.B,
    (CausticCase.S1, 5): SeriesKind.C,
    (CausticCase.S2, 5): SeriesKind.C,
    (CausticCase.T1, 5): SeriesKind.C,
    (CausticCase.T2, 5): SeriesKind.C,
    (CausticCase.S4, 5): SeriesKind.D,
    (CausticCase.DOUBLE, 4): SeriesKind.DOUBLE_B,
    (CausticCase.DOUBLE, 6): SeriesKind.DOUBLE_A,
    (CausticCase.LIGHT, 5): SeriesKind.LIGHT_B,
    (CausticCase.LIGHT, 6): SeriesKind.LIGHT_A,
}


def search_kind(case: CausticCase, n: int) -> SeriesKind | None:
    if (case, n) in SEARCH_KIND:
        return SEARCH_KIND[(case, n)]
    if n == 6 and case in _TWO_CAUSTIC:
        return SeriesKind.A
    if n == 4:
        return None
    has_odd = case is CausticCase.LIGHT or bool(ODD_BRANCHES.get(case))
    if n % 2 == 1 and (n < 7 or not has_odd):
        return None
    raise EmptyRangeError(f"period n={n} is not supported by the condition search (use 4, 5 or 6)")


PELL_VARIANTS: dict[tuple[CausticCase, int], list[PellVariant]] = {}
for _case in (CausticCase.S1, CausticCase.T3):
    PELL_VARIANTS[(_case, 0)] = [PellVariant.EVEN_A, PellVariant.EVEN_B]
for _case in (CausticCase.S2, CausticCase.S3, CausticCase.S4,
              CausticCase.T1, CausticCase.T2, CausticCase.T4):
    PELL_VARIANTS[(_case, 0)] = [PellVariant.EVEN_A]
for _case, _v in ((CausticCase.S1, [PellVariant.ODD_C, PellVariant.ODD_D]),
                  (CausticCase.S2, [PellVariant.ODD_C]),
                  (CausticCase.S4, [PellVariant.ODD_D]),
                  (CausticCase.T1, [PellVariant.ODD_C]),
                  (CausticCase.T2, [PellVariant.ODD_C])):
    PELL_VARIANTS[(_case, 1)] = _v


def pell_variants_for(case: CausticCase, n: int) -> list[PellVariant]:
    if case is CausticCase.DOUBLE:
        return [PellVariant.DOUBLE_A, PellVariant.DOUBLE_B] if n % 2 == 0 else []
    if case is CausticCase.LIGHT:
        return [PellVariant.LIGHT_EVEN] if n % 2 == 0 else [PellVariant.LIGHT_ODD]
    return PELL_VARIANTS.get((case, n % 2), [])


# -- pell ----------------------------------------------------------------------

EVEN_VARIANTS = {PellVariant.EVEN_A, PellVariant.EVEN_B,
                 PellVariant.DOUBLE_A, PellVariant.DOUBLE_B, PellVariant.LIGHT_EVEN}


def variant_series_kind(variant: PellVariant) -> SeriesKind:
    return {
        PellVariant.EVEN_A: SeriesKind.A,
        PellVariant.EVEN_B: SeriesKind.B,
        PellVariant.ODD_C: SeriesKind.C,
        PellVariant.ODD_D: SeriesKind.D,
        PellVariant.DOUBLE_A: SeriesKind.DOUBLE_A,
        PellVariant.DOUBLE_B: SeriesKind.DOUBLE_B,
        PellVariant.LIGHT_EVEN: SeriesKind.LIGHT_A,
        PellVariant.LIGHT_ODD: SeriesKind.LIGHT_B,
    }[variant]


def variant_degrees(variant: PellVariant, n: int) -> tuple[int, int]:
    if variant in EVEN_VARIANTS:
        if n % 2 != 0:
            raise ThresholdViolationError(f"{variant.value} needs even n, got {n}")
        m = n // 2
        if variant in (PellVariant.EVEN_A, PellVariant.DOUBLE_A, PellVariant.LIGHT_EVEN):
            if n < 6:
                raise ThresholdViolationError(f"{variant.value} needs n >= 6")
            return (m, m - 3)
        if n < 4:
            raise ThresholdViolationError(f"{variant.value} needs n >= 4")
        return (m - 1, m - 2)
    if n % 2 != 1:
        raise ThresholdViolationError(f"{variant.value} needs odd n, got {n}")
    if n < 5:
        raise ThresholdViolationError(f"{variant.value} needs n >= 5")
    m = (n - 1) // 2
    return (m, m - 2)


def weight_polys(variant: PellVariant, params: HyperellipticParams) -> tuple[RatPoly, RatPoly]:
    s_ = RatPoly((Fraction(0), Fraction(1)))
    lin = RatPoly.monic_linear
    base3 = lin(1 / params.a1) * lin(1 / params.a2) * lin(-1 / params.a3)
    g1 = params.gamma1
    if variant is PellVariant.EVEN_A:
        assert params.gamma2 is not None
        return (RatPoly.const(1), s_ * base3 * lin(1 / g1) * lin(1 / params.gamma2))
    if variant is PellVariant.EVEN_B:
        assert params.gamma2 is not None
        return (lin(1 / g1) * lin(1 / params.gamma2), s_ * base3)
    if variant is PellVariant.ODD_C:
        assert params.gamma2 is not None
        return (lin(1 / g1), s_ * base3 * lin(1 / params.gamma2))
    if variant is PellVariant.ODD_D:
        assert params.gamma2 is not None
        return (lin(1 / params.gamma2), s_ * base3 * lin(1 / g1))
    if variant is PellVariant.DOUBLE_A:
        return (RatPoly.const(1), s_ * base3 * lin(1 / g1) * lin(1 / g1))
    if variant is PellVariant.DOUBLE_B:
        return (lin(1 / g1) * lin(1 / g1), s_ * base3)
    if variant is PellVariant.LIGHT_EVEN:
        return (RatPoly.const(1), s_ * s_ * base3 * lin(1 / g1))
    if variant is PellVariant.LIGHT_ODD:
        return (lin(1 / g1), s_ * s_ * base3)
    raise ValueError(variant)


def expected_rhs_sign(variant: PellVariant, params: HyperellipticParams) -> int:
    if variant in (PellVariant.EVEN_A, PellVariant.DOUBLE_A,
                   PellVariant.LIGHT_EVEN, PellVariant.DOUBLE_B):
        return +1
    if variant is PellVariant.EVEN_B:
        return params.epsilon
    if variant in (PellVariant.ODD_C, PellVariant.LIGHT_ODD):
        return -1 if params.gamma1 > 0 else +1
    if variant is PellVariant.ODD_D:
        assert params.gamma2 is not None
        return -1 if params.gamma2 > 0 else +1
    raise ValueError(variant)


def validate_params_for_variant(variant: PellVariant, params: HyperellipticParams) -> None:
    if variant in (PellVariant.EVEN_A, PellVariant.EVEN_B, PellVariant.ODD_C, PellVariant.ODD_D):
        if params.gamma2 is None or params.is_double:
            raise SingularCurveError(f"{variant.value} needs two distinct finite caustics")
        if variant is PellVariant.ODD_C and params.gamma1 <= 0:
            raise GammaOutOfRangeError("the odd gamma1-variant requires gamma1 > 0")
        if variant is PellVariant.ODD_D and params.gamma2 >= 0:
            raise GammaOutOfRangeError("the odd gamma2-variant requires gamma2 < 0")
    elif variant in (PellVariant.DOUBLE_A, PellVariant.DOUBLE_B):
        if not params.is_double:
            raise SingularCurveError(f"{variant.value} needs gamma2 == gamma1")
        if not (params.a2 < params.gamma1 < params.a1):
            raise GammaOutOfRangeError("double caustic must lie between a2 and a1")
    else:
        if not params.is_lightlike:
            raise SingularCurveError(f"{variant.value} needs the light-like sentinel")


def verify_pell(sol) -> bool:
    try:
        dp, dq = variant_degrees(sol.variant, sol.n)
    except ThresholdViolationError:
        return False
    if sol.p.degree != dp or sol.q.degree > dq:
        return False
    u, v = weight_polys(sol.variant, sol.params)
    expansion = u * (sol.p * sol.p) - v * (sol.q * sol.q)
    const = expansion.coeffs[0] if expansion.degree == 0 else None
    if const is None or const != sol.rhs:
        return False
    return (1 if const > 0 else -1) == expected_rhs_sign(sol.variant, sol.params)


def solve_pell_singular(a, gamma1, n: int, which: PellVariant):
    if which in (PellVariant.DOUBLE_A, PellVariant.DOUBLE_B):
        if not (a[1] < gamma1 < a[0]):
            raise GammaOutOfRangeError("double caustic must lie between a2 and a1")
        gamma2 = gamma1
    elif which in (PellVariant.LIGHT_EVEN, PellVariant.LIGHT_ODD):
        if not (-a[2] < gamma1 < a[0]) or gamma1 == a[1] or gamma1 == 0:
            raise GammaOutOfRangeError("light-like caustic parameter out of range")
        gamma2 = None
    else:
        raise ValueError(f"not a singular variant: {which}")
    if n % 2 != (0 if which in EVEN_VARIANTS else 1):
        return None
    if which is PellVariant.LIGHT_ODD and not (-a[2] < gamma1 < a[1]):
        return None
    return solve_pell(HyperellipticParams(a[0], a[1], a[2], gamma1, gamma2), n, which)


# -- caustic-case placements ----------------------------------------------------

def classify_case(cp: CausticPair, ell: Ellipsoid) -> CausticCase:
    a1, a2, a3 = ell.a1, ell.a2, ell.a3
    if cp.is_lightlike:
        if 0.0 < cp.gamma1 < a1 and cp.gamma1 != a2:
            return CausticCase.LIGHT
        raise InconsistentConfigurationError(f"light-like gamma1={cp.gamma1} out of range")
    g1, g2 = cp.gamma1, cp.gamma2
    assert g2 is not None
    if cp.is_double:
        if a2 < g1 < a1 and a2 < g2 < a1:
            return CausticCase.DOUBLE
        raise InconsistentConfigurationError(
            f"double caustic {g1} must lie in ({a2}, {a1})")

    def qt(g: float) -> QuadricType:
        return quadric_type(g, ell)

    if cp.linetype is LineType.SPACELIKE:
        if not (g2 < 0.0 < g1 < a1):
            raise InconsistentConfigurationError(
                f"space-like pair ({g1}, {g2}) violates gamma2 < 0 < gamma1 < a1")
        t1_, t2_ = qt(g1), qt(g2)
        if t1_ is QuadricType.ELLIPSOID and t2_ is QuadricType.ELLIPSOID:
            return CausticCase.S1
        if t1_ is QuadricType.ELLIPSOID and t2_ is QuadricType.HYPERBOLOID_1SHEET_X3:
            return CausticCase.S2
        if t1_ is QuadricType.HYPERBOLOID_1SHEET_X2 and t2_ is QuadricType.HYPERBOLOID_1SHEET_X3:
            return CausticCase.S3
        if t1_ is QuadricType.HYPERBOLOID_1SHEET_X2 and t2_ is QuadricType.ELLIPSOID:
            return CausticCase.S4
        raise InconsistentConfigurationError(
            f"space-like caustic types ({t1_}, {t2_}) match no case")
    if cp.linetype is LineType.TIMELIKE:
        if not (0.0 < g1 < g2):
            raise InconsistentConfigurationError(
                f"time-like pair ({g1}, {g2}) violates 0 < gamma1 < gamma2")
        t1_, t2_ = qt(g1), qt(g2)
        if t1_ is QuadricType.ELLIPSOID and t2_ is QuadricType.HYPERBOLOID_1SHEET_X2:
            return CausticCase.T1
        if t1_ is QuadricType.ELLIPSOID and t2_ is QuadricType.HYPERBOLOID_2SHEET:
            return CausticCase.T2
        if t1_ is QuadricType.HYPERBOLOID_1SHEET_X2 and t2_ is QuadricType.HYPERBOLOID_1SHEET_X2:
            return CausticCase.T3
        if t1_ is QuadricType.HYPERBOLOID_1SHEET_X2 and t2_ is QuadricType.HYPERBOLOID_2SHEET:
            return CausticCase.T4
        raise InconsistentConfigurationError(
            f"time-like caustic types ({t1_}, {t2_}) match no case")
    raise InconsistentConfigurationError("light-like pair must carry the sentinel")


PLACEMENTS = {
    CausticCase.S1: lambda a1, a2, a3, g1, g2: -a3 < g2 < 0 < g1 < a2,
    CausticCase.S2: lambda a1, a2, a3, g1, g2: g2 < -a3 and 0 < g1 < a2,
    CausticCase.S3: lambda a1, a2, a3, g1, g2: g2 < -a3 and a2 < g1 < a1,
    CausticCase.S4: lambda a1, a2, a3, g1, g2: -a3 < g2 < 0 and a2 < g1 < a1,
    CausticCase.T1: lambda a1, a2, a3, g1, g2: 0 < g1 < a2 < g2 < a1,
    CausticCase.T2: lambda a1, a2, a3, g1, g2: 0 < g1 < a2 < a1 < g2,
    CausticCase.T3: lambda a1, a2, a3, g1, g2: a2 < g1 < g2 < a1,
    CausticCase.T4: lambda a1, a2, a3, g1, g2: a2 < g1 < a1 < g2,
}

CASE_RECTS = {
    CausticCase.S1: lambda e: ((0.0, e.a2), (-e.a3, 0.0)),
    CausticCase.S2: lambda e: ((0.0, e.a2), (-6.0 * e.a3, -e.a3)),
    CausticCase.S3: lambda e: ((e.a2, e.a1), (-6.0 * e.a3, -e.a3)),
    CausticCase.S4: lambda e: ((e.a2, e.a1), (-e.a3, 0.0)),
    CausticCase.T1: lambda e: ((0.0, e.a2), (e.a2, e.a1)),
    CausticCase.T2: lambda e: ((0.0, e.a2), (e.a1, 6.0 * e.a1)),
    CausticCase.T3: lambda e: ((e.a2, e.a1), (e.a2, e.a1)),
    CausticCase.T4: lambda e: ((e.a2, e.a1), (e.a1, 6.0 * e.a1)),
}
