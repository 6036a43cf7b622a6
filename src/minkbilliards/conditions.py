"""Rank-type periodicity conditions and the winding-number integral relation.

The branch polynomial of a caustic pair (gamma1, gamma2) on the ellipsoid
(a1, a2, a3) is

    P(x) = eps (a1-x)(a2-x)(a3+x)(gamma1-x)(gamma2-x),   eps = sign(g1*g2),

so P(0) > 0.  The rank tests decide exactly (the series kernel is
number-generic, so ``condition_vector`` also serves the float search).  They
act on normalized series of a few kinds: A = sqrt(P/P(0)) and

    B = A / ((1-x/g1)(1-x/g2)),   C = A / (1-x/g1),   D = A / (1-x/g2),

with doubleA/doubleB and lightA/lightB the same construction on the
degenerate branch polynomials (gamma repeated, or the quartic without
gamma2).  ``_CASE_KINDS`` lists the kinds each caustic case admits, and one
rule turns a kind into its condition at period n.  Let s be the kind's start
index, its first named coefficient: 4 for A, doubleA and lightA, 2 for B and
doubleB, 3 for C, D and lightB.  The kind is a branch at n iff n = s (mod 2)
and n >= s + 2.  Its Hankel block is r x (r-1) from coefficient s, with
r = (n - s)/2 + 1, and the condition holds iff that block has rank < r - 1.
The block ends at coefficient n - 1; the Pell solve reads it too.  Every
exact test asks ``_deficient_branch``, which checks in one order: n >= 3,
the case's placement or degenerate gamma1 range, the one no-condition rule
(odd light-like periods need an ellipsoid caustic), and then names the
first branch of the case at n whose block is deficient.

Each block is ranked once on the series modulo the prime p of
``series.MODULUS``, where full rank proves full rank over Q.  The branches
deficient mod p (all, when a parameter is not a p-unit) go on to the exact
series, built once: a block is deficient iff the nullspace of its reversed
columns, the q-part of the Pell solution, is not empty (``_exact_kernel``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .confocal import _CASE_INTERVALS, _DEGENERATE_RANGES, CausticCase, IntervalPartition, _placed
from .errors import (
    CaseMismatchError,
    GammaOutOfRangeError,
    NonpositiveIntegrandError,
    QuadratureError,
    SingularCurveError,
)
from .series import (
    ModP,
    NonUnitError,
    NormalizedSeries,
    SeriesKind,
    hankel_block,
    hankel_rank,
    normalized_branch_poly,
    nullspace,
    series_div,
    series_sqrt,
)

RATIONALIZE_DENOMINATOR_BOUND = 10 ** 9


def rationalize(x: float) -> Fraction:
    """Continued-fraction rational approximation with denominator at most
    ``RATIONALIZE_DENOMINATOR_BOUND`` (10^9), the only bound: the prime
    ``series.MODULUS`` > 10^9 divides no denominator it returns."""
    return Fraction(x).limit_denominator(RATIONALIZE_DENOMINATOR_BOUND)


@dataclass(frozen=True)
class HyperellipticParams:
    """Exact rational curve data; gamma2 is None for the light-like limit
    and equal to gamma1 for the double caustic."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    gamma1: Fraction
    gamma2: Fraction | None

    def __post_init__(self) -> None:
        # ints would turn into floats in the number-generic series kernel
        for name in ("a1", "a2", "a3", "gamma1", "gamma2"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, Fraction(value))
        if not (self.a1 > self.a2 > 0 and self.a3 > 0):
            raise SingularCurveError("invalid ellipsoid: need a1 > a2 > 0 and a3 > 0, "
                                     f"got ({self.a1}, {self.a2}, {self.a3})")
        specials = {self.a1, self.a2, -self.a3}
        gammas = [self.gamma1] + ([] if self.gamma2 is None else [self.gamma2])
        for g in gammas:
            if g in specials or g == 0:
                raise SingularCurveError(f"caustic parameter {g} makes the curve singular")

    @property
    def is_lightlike(self) -> bool:
        return self.gamma2 is None

    @property
    def is_double(self) -> bool:
        return self.gamma2 is not None and self.gamma2 == self.gamma1

    @property
    def epsilon(self) -> int:
        if self.gamma2 is None:
            return +1    # neutral placeholder; the light-like tests never read it
        return 1 if self.gamma1 * self.gamma2 > 0 else -1

    @classmethod
    def from_floats(cls, a1: float, a2: float, a3: float,
                    gamma1: float, gamma2: float | None) -> "HyperellipticParams":
        """The parameters, each ``rationalize``d: every denominator is at most
        10^9, so the modular rank certificate's ``series.MODULUS`` applies."""
        return cls(rationalize(a1), rationalize(a2), rationalize(a3), rationalize(gamma1),
                   None if gamma2 is None else rationalize(gamma2))

    @property
    def base_kind(self) -> SeriesKind:
        """Kind of the undivided square-root series of these parameters."""
        if self.is_double:
            return SeriesKind.DOUBLE_A
        return SeriesKind.LIGHT_A if self.is_lightlike else SeriesKind.A

    def values(self, number=Fraction) -> tuple[tuple, tuple]:
        """((a1, a2, a3), (gamma1, gamma2)) converted by ``number``: Fraction
        for the exact series, ModP for its reduction mod p."""
        return (tuple(number(x) for x in (self.a1, self.a2, self.a3)),
                (number(self.gamma1), None if self.gamma2 is None else number(self.gamma2)))

    def branch_poly_normalized(self, number=Fraction) -> list:
        """P(x)/P(0) (or its degenerate limit) as a polynomial over ``number``."""
        a, gammas = self.values(number)
        return _branch_poly(a, _KINDS[self.base_kind][0], gammas)


# kind -> (caustic roots of the branch polynomial, caustic factors
# (1 - x/gamma) divided out of its normalized square root, start index s: the
# first named coefficient, where every Hankel block of the kind starts);
# caustics are indices into the pair (gamma1, gamma2)
_KINDS: dict[SeriesKind, tuple[tuple[int, ...], tuple[int, ...], int]] = {
    SeriesKind.A: ((0, 1), (), 4),
    SeriesKind.B: ((0, 1), (0, 1), 2),
    SeriesKind.C: ((0, 1), (0,), 3),
    SeriesKind.D: ((0, 1), (1,), 3),
    SeriesKind.DOUBLE_A: ((0, 0), (), 4),
    SeriesKind.DOUBLE_B: ((0, 0), (0, 0), 2),
    SeriesKind.LIGHT_A: ((0,), (), 4),
    SeriesKind.LIGHT_B: ((0,), (0,), 3),
}


def _branch_poly(a, caustics: tuple[int, ...], gammas) -> list:
    a1, a2, a3 = a
    return normalized_branch_poly([a1, a2, -a3, *(gammas[i] for i in caustics)])


def _divide(coeffs: list, divisors: tuple[int, ...], gammas, order: int) -> list:
    for i in divisors:
        coeffs = series_div(coeffs, [1, -1 / gammas[i]], order)
    return coeffs


def sqrt_series(params: HyperellipticParams, order: int,
                number=Fraction) -> NormalizedSeries:
    """Normalized square-root series of the branch polynomial.

    Generic parameters give the A kind; the double caustic gives the series
    of (gamma1-x) sqrt((a1-x)(a2-x)(a3+x)) and the light-like limit the
    series of sqrt((a1-x)(a2-x)(a3+x)(gamma1-x)), each normalized to 1 at 0.
    With ``number=ModP`` the same kernel gives the reduction of that series
    mod p, or raises ``NonUnitError`` when it has no reduction.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return NormalizedSeries(params.base_kind,
                            tuple(series_sqrt(params.branch_poly_normalized(number), order)))


def divided_series(base: NormalizedSeries, kind: SeriesKind,
                   params: HyperellipticParams) -> NormalizedSeries:
    """Divide the base series by the normalized caustic factor(s) of ``kind``."""
    caustics, divisors, _ = _KINDS[kind]
    if not divisors:
        raise ValueError(f"not a divided kind: {kind.value}")
    if _KINDS[base.kind][:2] != (caustics, ()):
        raise ValueError(f"{kind.value} series divides the undivided series of the "
                         f"same branch polynomial, not {base.kind.value}")
    if params.gamma2 is None and 1 in divisors:
        raise ValueError(f"{kind.value} series divides by the gamma2 factor")
    # the caustic factors in the base series' own number type
    _, gammas = params.values(type(base.coeffs[0]))
    out = _divide(list(base.coeffs), divisors, gammas, base.order)
    return NormalizedSeries(kind, tuple(out))


# -- branches and Hankel tests ------------------------------------------------

# the series kinds each caustic case admits; every branch, Hankel block and
# period threshold below, the search's branch and the Pell variants follow
# from these and the kinds' start indices
_CASE_KINDS: dict[CausticCase, tuple[SeriesKind, ...]] = {
    CausticCase.S1: (SeriesKind.A, SeriesKind.B, SeriesKind.C, SeriesKind.D),
    CausticCase.S2: (SeriesKind.A, SeriesKind.C),
    CausticCase.S3: (SeriesKind.A,),
    CausticCase.S4: (SeriesKind.A, SeriesKind.D),
    CausticCase.T1: (SeriesKind.A, SeriesKind.C),
    CausticCase.T2: (SeriesKind.A, SeriesKind.C),
    CausticCase.T3: (SeriesKind.A, SeriesKind.B),
    CausticCase.T4: (SeriesKind.A,),
    CausticCase.DOUBLE: (SeriesKind.DOUBLE_A, SeriesKind.DOUBLE_B),
    CausticCase.LIGHT: (SeriesKind.LIGHT_A, SeriesKind.LIGHT_B),
}


def _start(kind: SeriesKind) -> int:
    """Start index s of the kind: its first named coefficient."""
    return _KINDS[kind][2]


def _is_branch(kind: SeriesKind, n: int) -> bool:
    """Whether the kind's condition applies at period n: n = s (mod 2) and
    n >= s + 2."""
    s = _start(kind)
    return n % 2 == s % 2 and n >= s + 2


def _branches(case: CausticCase, n: int) -> tuple[SeriesKind, ...]:
    """The kinds of the case that are branches at n, in table order."""
    return tuple(kind for kind in _CASE_KINDS[case] if _is_branch(kind, n))


def _shape(kind: SeriesKind, n: int) -> tuple[int, int]:
    """(s, r) with s = _start(kind) and r = (n - s)/2 + 1."""
    s = _start(kind)
    return s, (n - s) // 2 + 1


def _block(kind: SeriesKind, series: NormalizedSeries, n: int) -> tuple[tuple, ...]:
    """The kind's Hankel block at period n, r x (r-1) from coefficient s
    (``_shape``); its column-reversed form is the q-part of the Pell system."""
    s, r = _shape(kind, n)
    return hankel_block(series, s, r, r - 1).entries


def _deficient(kind: SeriesKind, series: NormalizedSeries, n: int) -> bool:
    """Whether the kind's block at period n, r x (r-1), has rank < r - 1."""
    s, r = _shape(kind, n)
    return hankel_rank(series, s, r, r - 1) < r - 1


def _required_order(n: int) -> int:
    """n - 1: the last coefficient that a block at period n or p* reads."""
    return n - 1


def _kind_series(params: HyperellipticParams, kinds, n: int, number=Fraction):
    """The series of each kind in ``kinds`` at period n, as it is read: the
    square root to ``_required_order(n)`` once, divided as the kind needs."""
    base = sqrt_series(params, _required_order(n), number)
    for kind in kinds:
        yield base if kind is base.kind else divided_series(base, kind, params)


def _exact_kernel(params: HyperellipticParams, kinds, n: int
                  ) -> tuple[SeriesKind, NormalizedSeries, list[list[Fraction]]] | None:
    """(kind, exact series, kernel) of the first kind in ``kinds`` whose
    block at period n is deficient, or None; mod p first, as the module
    docstring says."""
    try:
        kinds = [kind for kind, series in zip(kinds, _kind_series(params, kinds, n, ModP))
                 if _deficient(kind, series, n)]
    except NonUnitError:
        pass    # no reduction mod p: every kind goes on
    for kind, series in zip(kinds, _kind_series(params, kinds, n)):
        block = _block(kind, series, n)
        kernel = nullspace([row[::-1] for row in block], len(block[0]))
        if kernel:
            return kind, series, kernel
    return None


def condition_vector(a, kind: SeriesKind, n: int, g1, g2) -> list:
    """The coefficients s, ..., n - 1 of the kind's series: the entries of
    its r x (r-1) Hankel block at period n, whose rank deficiency is the
    kind's condition there.  At n = s + 2 the block is 2 x 1 and the vector
    is the pair that must vanish: (B2, B3) at n = 4, (C3, C4) at n = 5, (A4,
    A5) at n = 6.  ``a`` is the ellipsoid triple and ``g2`` is None for the
    double and light-like kinds.  This is the one evaluator of the
    conditions for every number type: Fractions give the exact
    coefficients, floats the ones that Newton refinement and the residuals
    of ``search`` read, and numpy arrays of caustic parameters the values
    over a whole search grid in one call.  The series is built through
    ``_required_order(n)``, as the exact test builds it.  A period at which
    the kind is no branch has no block and raises ``ValueError``.
    """
    if not _is_branch(kind, n):
        raise ValueError(f"{kind.value} is no condition branch at n={n}")
    caustics, divisors, first = _KINDS[kind]
    order = _required_order(n)
    s = series_sqrt(_branch_poly(a, caustics, (g1, g2)), order)
    return _divide(s, divisors, (g1, g2), order)[first:]


# Views of the table under the names the benchmark's per-layer replay
# (bench/wl_exact.py) probes: a missing name would null its metrics.  They go
# once a benchmark-only change points the replay at the table.
_EVEN_BRANCHES = {case: tuple(k.value for k in _CASE_KINDS[case] if _start(k) % 2 == 0)
                  for case in _CASE_INTERVALS}


def _test_A(series: NormalizedSeries, m: int) -> bool:
    return _deficient(SeriesKind.A, series, 2 * m)


def _test_B(series: NormalizedSeries, m: int) -> bool:
    return _deficient(SeriesKind.B, series, 2 * m)


def _check_gamma1_range(a, gamma1: Fraction, case: CausticCase) -> None:
    """Raise ``GammaOutOfRangeError`` unless gamma1 is in the degenerate
    case's range of ``confocal._DEGENERATE_RANGES``."""
    if not _DEGENERATE_RANGES[case](*a, gamma1):
        raise GammaOutOfRangeError(f"gamma1={gamma1} is not in the {case.value} caustic range")


def _check_case_consistency(params: HyperellipticParams, case: CausticCase) -> None:
    if case is CausticCase.LIGHT and not params.is_lightlike:
        raise CaseMismatchError("light case needs the at-infinity sentinel")
    if case is CausticCase.DOUBLE and not params.is_double:
        raise CaseMismatchError("double case needs gamma2 == gamma1")
    if case in (CausticCase.LIGHT, CausticCase.DOUBLE):
        _check_gamma1_range((params.a1, params.a2, params.a3), params.gamma1, case)
    elif params.gamma2 is None or params.is_double:
        raise CaseMismatchError(f"case {case.value} needs two distinct finite caustics")
    elif not _placed(case, params.a1, params.a2, params.a3, params.gamma1, params.gamma2):
        raise CaseMismatchError(f"parameters do not satisfy the {case.value} placement")


def _without_condition(params: HyperellipticParams, n: int) -> bool:
    """The no-condition rule: an odd light-like period needs an ellipsoid
    caustic (gamma1 < a2)."""
    return params.is_lightlike and n % 2 == 1 and params.gamma1 > params.a2


def _deficient_branch(params: HyperellipticParams, case: CausticCase, n: int
                      ) -> tuple[SeriesKind, NormalizedSeries, list[list[Fraction]]] | None:
    """(kind, exact series, kernel) of the first branch of the case at n
    whose block is deficient, or None, after the checks in the module
    docstring's order (see ``_exact_kernel``)."""
    if n < 3:
        raise ValueError("period must be at least 3")
    _check_case_consistency(params, case)
    if _without_condition(params, n):
        return None
    return _exact_kernel(params, _branches(case, n), n)


def cayley_test(params: HyperellipticParams, case: CausticCase, n: int) -> bool:
    """Exact rank-type periodicity test for the given case and period.

    True iff the Hankel block of some branch of the case at n is deficient
    (see the module docstring); a case with no branch at n, by parity or
    below every period threshold, is False.
    """
    return _deficient_branch(params, case, n) is not None


def _degenerate_params(a: tuple[Fraction, Fraction, Fraction], gamma1: Fraction,
                       case: CausticCase) -> HyperellipticParams:
    """Range-checked curve data of the double or light-like case."""
    _check_gamma1_range(a, gamma1, case)
    return HyperellipticParams(*a, gamma1, gamma1 if case is CausticCase.DOUBLE else None)


def double_caustic_test(a: tuple[Fraction, Fraction, Fraction], gamma1: Fraction, n: int) -> bool:
    """Periodicity test for a trajectory along the double caustic.

    Even n only; the doubleA block (n >= 6) acts on the series of
    (gamma1-x) sqrt((a1-x)(a2-x)(a3+x)) and the doubleB block (n >= 4) on
    sqrt((a1-x)(a2-x)(a3+x)) / (gamma1-x), both normalized.
    """
    return cayley_test(_degenerate_params(a, gamma1, CausticCase.DOUBLE), CausticCase.DOUBLE, n)


def lightlike_test(a: tuple[Fraction, Fraction, Fraction], gamma1: Fraction, n: int) -> bool:
    """Periodicity test for light-like trajectories with caustic Q_gamma1.

    Even n >= 6: the lightA block on sqrt((a1-x)(a2-x)(a3+x)(gamma1-x)).
    Odd n >= 5 with an ellipsoid caustic only: the lightB block (rows from
    B3) on sqrt((a1-x)(a2-x)(a3+x)/(gamma1-x)).
    """
    return cayley_test(_degenerate_params(a, gamma1, CausticCase.LIGHT), CausticCase.LIGHT, n)


# -- winding-number integrals -------------------------------------------------

QUAD_ORDER = 16
QUAD_REL_TOL = 1e-12
QUAD_MAX_PANELS = 400
_ROUNDOFF_ULPS = 16


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [-1, 1].

    Each positive node is a Newton root of P_n from the asymptotic guess
    cos(pi (i - 1/4) / (n + 1/2)), with P_n and P_n' from the three-term
    recurrence; the weight is 2 / ((1 - x^2) P_n'(x)^2).
    """
    if n < 2 or n % 2:
        raise ValueError("the rule order must be even and at least 2")

    def legendre(x: float) -> tuple[float, float]:
        p0, p1 = 1.0, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    rule = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        _, dp = legendre(x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        rule += [(-x, w), (x, w)]
    return tuple(sorted(rule))


def _panel(f, lo: float, hi: float, rule) -> tuple[float, float]:
    """Gauss-Legendre value of f on [lo, hi] and the sum of |w f| (the
    scale of its rounding error)."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    total = size = 0.0
    for t, w in rule:
        v = w * f(c + h * t)
        total += v
        size += abs(v)
    return h * total, abs(h) * size


def adaptive_gauss_legendre(f, lo: float, hi: float, abs_tol: float = 1e-10) -> float:
    """Integral of f over [lo, hi] by adaptive bisection with a 16-point
    Gauss-Legendre rule.

    A panel's 16-point value is checked against the 32-point composite value
    on its two halves.  The panel is accepted when the two agree within its
    share (width / (hi - lo)) of max(abs_tol, 1e-12 |estimate|), or within
    a few ulps of the sum of |w f| over its nodes (the rounding floor, which
    no bisection can beat); otherwise each half is checked the same way,
    starting from the value just computed for it.  The nodes are interior,
    so f is never evaluated at lo or hi, but f must be bounded: a panel
    next to an endpoint singularity never meets its share, so a singular
    endpoint has to be substituted away first.  Raises ``QuadratureError`` when
    more than ``QUAD_MAX_PANELS`` panels are bisected or a panel becomes too
    narrow to split: no unconverged value is returned.
    """
    if hi == lo:
        return 0.0
    rule = gauss_legendre(QUAD_ORDER)
    width = hi - lo
    floor = _ROUNDOFF_ULPS * sys.float_info.epsilon
    tol = None
    accepted = []
    pending = [(lo, hi, _panel(f, lo, hi, rule)[0])]
    for _ in range(QUAD_MAX_PANELS):
        a, b, coarse = pending.pop()
        m = 0.5 * (a + b)
        if not (a < m < b or a > m > b):
            raise QuadratureError(f"quadrature on [{lo}, {hi}] did not converge: the "
                                  f"panel [{a}, {b}] is too narrow to split")
        left, left_size = _panel(f, a, m, rule)
        right, right_size = _panel(f, m, b, rule)
        fine = left + right
        if tol is None:
            tol = max(abs_tol, QUAD_REL_TOL * abs(fine))
        if abs(fine - coarse) <= max(tol * (b - a) / width,
                                     floor * (left_size + right_size)):
            accepted.append(fine)
            if not pending:
                return math.fsum(accepted)
        else:
            pending += [(m, b, right), (a, m, left)]
    raise QuadratureError(f"quadrature on [{lo}, {hi}] did not converge within "
                          f"{QUAD_MAX_PANELS} panels")


def darboux_integrals(params_real: tuple[float, float, float, float, float | None],
                      partition: IntervalPartition, k: int,
                      abs_tol: float = 1e-10) -> tuple[float, float, float]:
    """The three integrals of lam^k d lam / sqrt(P) over the motion intervals.

    Orientations follow the closure relation: I1 runs 0 -> c1 (downward),
    I2 runs 0 -> b1 and I3 runs b2 -> b3 (upward), each on the positive
    branch of sqrt(P); a period with winding counts (m1, n1, n2) then
    satisfies m1*I1 + n1*I2 - n2*I3 = 0 for k in {0, 1}.

    Write P(x) = s prod_i (r_i - x) over the branch points r_i.  On the half
    of an interval next to a branch point r_j the substitution
    x = r_j +/- u^2 removes the inverse-square-root singularity: the factor
    (r_j - x) = -/+ u^2 cancels against dx = 2u du, and every other factor is
    evaluated as (r_i - r_j) -/+ u^2, so no value is lost to cancellation
    near u = 0.  Each half is integrated by ``adaptive_gauss_legendre``.
    """
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    a1, a2, a3, g1, g2 = params_real
    eps = 1.0
    roots = [a1, a2, -a3, g1]
    if g2 is not None:
        eps = math.copysign(1.0, g1 * g2)
        roots.append(g2)
    sign = -eps     # P(x) = sign * prod (r - x); the factor (a3 + x) is -(-a3 - x)

    def P(x: float) -> float:
        acc = sign
        for r in roots:
            acc *= r - x
        return acc

    def branch_index(x: float) -> int | None:
        for j, r in enumerate(roots):
            if abs(x - r) <= 1e-13 * max(1.0, abs(r)):
                return j
        return None

    def nonpositive(x: float) -> NonpositiveIntegrandError:
        return NonpositiveIntegrandError(
            f"branch polynomial not positive at {x} inside an integration interval")

    def plain(x: float) -> float:
        px = P(x)
        if px <= 0.0:
            raise nonpositive(x)
        return x ** k / math.sqrt(px)

    def substituted(r: float, j: int, side: float):
        """Integrand in u of x = r + side u^2 with the factor (r_j - x)
        divided out."""
        gaps = [ri - r for i, ri in enumerate(roots) if i != j]
        lead = -side * sign

        def f(u: float) -> float:
            v = side * u * u
            acc = lead
            for d in gaps:
                acc *= d - v
            if acc <= 0.0:
                raise nonpositive(r + v)
            return 2.0 * (r + v) ** k / math.sqrt(acc)
        return f

    def half(end: float, mid: float) -> float:
        """Integral of x^k / sqrt(P) from ``end`` to ``mid``, signed."""
        j = branch_index(end)
        if j is None:
            return adaptive_gauss_legendre(plain, end, mid, abs_tol)
        side = 1.0 if mid > end else -1.0
        return side * adaptive_gauss_legendre(substituted(end, j, side), 0.0,
                                              math.sqrt(abs(mid - end)), abs_tol)

    def integrate(lo: float, hi: float) -> float:
        """Integral of x^k/sqrt(P) over [lo, hi] ascending, positive branch."""
        if hi <= lo:
            return 0.0
        mid = 0.5 * (lo + hi)
        if P(mid) <= 0.0:
            raise NonpositiveIntegrandError(
                f"branch polynomial not positive inside [{lo}, {hi}]")
        return half(lo, mid) - half(hi, mid)

    (c1, _), (_, b1), (b2, b3) = partition.motion_intervals()
    i1 = -integrate(c1, 0.0)     # oriented 0 -> c1
    i2 = integrate(0.0, b1)
    if abs(b3 - b2) <= 1e-12 * max(abs(b2), 1.0):
        # double caustic: the third interval collapses but its cycle integral
        # has a finite limit, pi x^k / sqrt(-eps K(x)) at the double root
        kk = eps * (a1 - b2) * (a2 - b2) * (a3 + b2)
        if kk >= 0.0:
            raise NonpositiveIntegrandError("degenerate interval is not a vanishing cycle")
        i3 = math.pi * b2 ** k / math.sqrt(-kk)
    else:
        i3 = integrate(b2, b3)
    return (i1, i2, i3)
