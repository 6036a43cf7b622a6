"""Frozen copy of the per-module (case, n) -> condition-branch dispatch that
the series-kind table in ``conditions`` replaced: the even/odd branch tables
and the three Hankel test bodies, the searched-branch table, the Pell
variant table and the Pell degree arithmetic.  ``test_branch_table`` checks
that the table gives the same answers.  Nothing in the package imports this
module; the Hankel rank, series builds and the modular certificate are the
package's own.
"""

from __future__ import annotations

from minkbilliards.conditions import (
    HyperellipticParams,
    _certified,
    _check_case_consistency,
    _required_order,
    divided_series,
    sqrt_series,
)
from minkbilliards.confocal import CausticCase
from minkbilliards.errors import EmptyRangeError, GammaOutOfRangeError, ThresholdViolationError
from minkbilliards.pell import PellVariant
from minkbilliards.series import SeriesKind, hankel_rank

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
