"""Exact rational polynomial arithmetic and the Pell-type periodicity identities.

Solutions are constructed in x-coordinates, where the periodicity condition
is a clean lower-triangular statement: p*(x) + q*(x) S(x) must vanish to
order n at x = 0, with S the normalized square-root series of the variant.
Multiplying by the conjugate and passing to s = 1/x transports the solution
to the Pell form

    U(s) p(s)^2 - V(s) q(s)^2 = R,

with U, V the monic weight factors of the variant and R a nonzero rational
constant.  The weights come from the entry (caustics, divisors, start) of
the variant's series kind in ``conditions._KINDS``: U is the product of the
factors (s - 1/gamma_i) over the divisors, and V is s^(3 - #caustics)
(s-1/a1)(s-1/a2)(s+1/a3) times those of the caustics left once the divisors
are removed.  V(0) = 0, so R = U(0) p(0)^2 and sign(R) = sign U(0).  Working
with the normalized series absorbs the irrational factor sqrt(P(0)) into q,
so p, q and R are exactly rational; p* monic makes p(0) = 1, so R = U(0).

The q-part of the vanishing system, orders deg p + 1 .. n - 1, is the Hankel
block ``conditions._block`` of the variant's kind with its columns reversed,
on the series built to ``conditions._required_order(n)`` = n - 1.  A solve
checks the parameters (a degenerate range as the rank test does) and the
period, applies the rank test's no-condition rule, and then builds p* and q*
from the rank test's own decision, ``conditions._exact_kernel``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    GammaOutOfRangeError,
    SingularCurveError,
    ThresholdViolationError,
    UnverifiedInputError,
)
from .confocal import CausticCase
from .conditions import (
    _CASE_KINDS,
    _KINDS,
    HyperellipticParams,
    _check_case_consistency,
    _degenerate_params,
    _exact_kernel,
    _is_branch,
    _start,
    _without_condition,
)
from .series import NormalizedSeries, SeriesKind, poly_mul_frac


# -- exact polynomial arithmetic ---------------------------------------------

@dataclass(frozen=True)
class RatPoly:
    """Polynomial with exact rational coefficients, ascending degree.

    Canonical form: trailing zero coefficients are stripped; the zero
    polynomial is the empty tuple.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(vals: list[Fraction] | tuple[Fraction, ...]) -> "RatPoly":
        c = list(vals)
        while c and c[-1] == 0:
            c.pop()
        return RatPoly(tuple(c))

    @staticmethod
    def const(v: Fraction | int) -> "RatPoly":
        return RatPoly.of([Fraction(v)])

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1   # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return RatPoly.of(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if self.is_zero or other.is_zero:
            return RatPoly.zero()
        return RatPoly.of(poly_mul_frac(self.coeffs, other.coeffs))

    def scale(self, s: Fraction | int) -> "RatPoly":
        s = Fraction(s)
        if s == 0:
            return RatPoly.zero()
        return RatPoly(tuple(c * s for c in self.coeffs))

    def eval(self, v: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def reciprocal(self, deg: int) -> "RatPoly":
        """s^deg * self(1/s): coefficient reversal padded to the given degree."""
        if deg < self.degree:
            raise ValueError("reciprocal degree below polynomial degree")
        padded = list(self.coeffs) + [Fraction(0)] * (deg + 1 - len(self.coeffs))
        return RatPoly.of(list(reversed(padded)))

    @staticmethod
    def monic_linear(root_reciprocal: Fraction) -> "RatPoly":
        """The factor (s - root_reciprocal)."""
        return RatPoly((Fraction(-1) * root_reciprocal, Fraction(1)))


class PellVariant(Enum):
    EVEN_A = "evenA"        # p_m, q_{m-3}; RHS 1
    EVEN_B = "evenB"        # p_{m-1}, q_{m-2}; RHS sign = sign(g1 g2)
    ODD_C = "oddC"          # p_m, q_{m-2}; RHS -1/g1 (negative)
    ODD_D = "oddD"          # p_m, q_{m-2}; RHS -1/g2 (positive)
    DOUBLE_A = "doubleA"    # squared caustic factor; RHS 1
    DOUBLE_B = "doubleB"    # RHS positive
    LIGHT_EVEN = "lightEven"  # s^2 weight; RHS 1
    LIGHT_ODD = "lightOdd"    # RHS -1/g1


# the series kind whose condition each variant certifies, one to one
_VARIANT_KINDS: dict[PellVariant, SeriesKind] = {
    PellVariant.EVEN_A: SeriesKind.A,
    PellVariant.EVEN_B: SeriesKind.B,
    PellVariant.ODD_C: SeriesKind.C,
    PellVariant.ODD_D: SeriesKind.D,
    PellVariant.DOUBLE_A: SeriesKind.DOUBLE_A,
    PellVariant.DOUBLE_B: SeriesKind.DOUBLE_B,
    PellVariant.LIGHT_EVEN: SeriesKind.LIGHT_A,
    PellVariant.LIGHT_ODD: SeriesKind.LIGHT_B,
}

# the case of each double or light-like kind, whose gamma1 range a solve checks
_DEGENERATE_CASES = {kind: case for case in (CausticCase.DOUBLE, CausticCase.LIGHT)
                     for kind in _CASE_KINDS[case]}


def variant_degrees(variant: PellVariant, n: int) -> tuple[int, int]:
    """(deg p, deg q) = ((n+s)/2 - 2, (n-s)/2 - 1) for the variant at period
    n, with s the start index of its series kind; raises below threshold,
    where the kind is no branch at n."""
    kind = _VARIANT_KINDS[variant]
    s = _start(kind)
    if not _is_branch(kind, n):
        raise ThresholdViolationError(
            f"{variant.value} needs {'odd' if s % 2 else 'even'} n >= {s + 2}, got {n}")
    return ((n + s) // 2 - 2, (n - s) // 2 - 1)


def weight_polys(variant: PellVariant, params: HyperellipticParams) -> tuple[RatPoly, RatPoly]:
    """Monic weight factors (U, V) of the variant's identity U p^2 - V q^2 = R,
    read from its kind's caustics and divisors as the module docstring says."""
    caustics, divisors, _ = _KINDS[_VARIANT_KINDS[variant]]
    gammas = (params.gamma1, params.gamma2)
    rest = (Counter(caustics) - Counter(divisors)).elements()
    u = RatPoly.const(1)
    v = RatPoly.of([Fraction(0)] * (3 - len(caustics)) + [Fraction(1)])
    for g in [gammas[i] for i in divisors]:
        u = u * RatPoly.monic_linear(1 / g)
    for root in [params.a1, params.a2, -params.a3] + [gammas[i] for i in rest]:
        v = v * RatPoly.monic_linear(1 / root)
    return u, v


def _pell_constant(u: RatPoly, v: RatPoly, p: RatPoly, q: RatPoly) -> Fraction | None:
    """The constant U p^2 - V q^2, or None when that expansion is zero or
    not constant."""
    expansion = u * (p * p) - v * (q * q)
    return expansion.coeffs[0] if expansion.degree == 0 else None


@dataclass(frozen=True)
class PellSolution:
    """Exact solution of a Pell-type identity, with its verified constant."""

    p: RatPoly
    q: RatPoly
    variant: PellVariant
    n: int
    params: HyperellipticParams
    rhs: Fraction

    def to_json_dict(self) -> dict:
        def fr(v: Fraction | None) -> str | None:
            return None if v is None else f"{v.numerator}/{v.denominator}"

        return {
            "variant": self.variant.value,
            "n": self.n,
            "params": {
                "a1": fr(self.params.a1), "a2": fr(self.params.a2), "a3": fr(self.params.a3),
                "gamma1": fr(self.params.gamma1), "gamma2": fr(self.params.gamma2),
            },
            "p_coeffs": [fr(c) for c in self.p.coeffs],
            "q_coeffs": [fr(c) for c in self.q.coeffs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(d: dict) -> "PellSolution":
        """The certificate that ``to_json_dict`` wrote: its parameters and
        coefficients are "p/q" strings, and only gamma2 may be null; a
        document of any other shape raises ValueError."""
        def fr(s: str) -> Fraction:
            if type(s) is not str:
                raise ValueError(f"a certificate number is a 'p/q' string, got {s!r}")
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise ValueError(f"a certificate number has a zero denominator: {s!r}") from None

        if not (type(d) is dict and type(d["n"]) is int and type(d["params"]) is dict
                and all(type(d[k]) is list for k in ("p_coeffs", "q_coeffs"))):
            raise ValueError("a certificate is an object with an integer 'n', an object "
                             "'params' and lists 'p_coeffs', 'q_coeffs'")
        ps = d["params"]
        params = HyperellipticParams(fr(ps["a1"]), fr(ps["a2"]), fr(ps["a3"]), fr(ps["gamma1"]),
                                     None if ps["gamma2"] is None else fr(ps["gamma2"]))
        p = RatPoly.of([fr(c) for c in d["p_coeffs"]])
        q = RatPoly.of([fr(c) for c in d["q_coeffs"]])
        variant = PellVariant(d["variant"])
        _check_shape(variant, params)
        rhs = _pell_constant(*weight_polys(variant, params), p, q)
        return PellSolution(p, q, variant, d["n"], params, Fraction(0) if rhs is None else rhs)


def _check_shape(variant: PellVariant, params: HyperellipticParams) -> None:
    """Raise SingularCurveError unless the parameters have the caustic roots
    of the variant's branch polynomial."""
    want, got = (_KINDS[kind][0] for kind in (_VARIANT_KINDS[variant], params.base_kind))
    if want != got:
        names = [", ".join(f"gamma{i + 1}" for i in roots) for roots in (want, got)]
        raise SingularCurveError(f"{variant.value} needs the caustic roots ({names[0]}), "
                                 f"got ({names[1]})")


def _validate_params_for_variant(variant: PellVariant, params: HyperellipticParams) -> None:
    """Raise unless the parameters fit the variant, at any period n."""
    _check_shape(variant, params)
    if variant is PellVariant.ODD_C and params.gamma1 <= 0:
        raise GammaOutOfRangeError("the odd gamma1-variant requires gamma1 > 0")
    if variant is PellVariant.ODD_D and params.gamma2 >= 0:
        raise GammaOutOfRangeError("the odd gamma2-variant requires gamma2 < 0")
    case = _DEGENERATE_CASES.get(_VARIANT_KINDS[variant])
    if case is not None:
        _check_case_consistency(params, case)


def solve_pell(params: HyperellipticParams, n: int,
               variant: PellVariant) -> PellSolution | None:
    """Solve the variant's identity at period n, or return None.

    Forces p*(x) + q*(x) S(x) to vanish to order n at 0: the kernel of its
    q-part comes from the rank test's decision on the variant's block,
    mod p first and then exactly (see the module docstring).  A value is
    returned iff the corresponding rank-type periodicity condition holds,
    which a degenerate case may lack at n.
    """
    _validate_params_for_variant(variant, params)
    variant_degrees(variant, n)
    if _without_condition(params, n):
        return None
    found = _exact_kernel(params, (_VARIANT_KINDS[variant],), n)
    return None if found is None else _kernel_solution(params, n, variant, *found[1:])


def _kernel_solution(params: HyperellipticParams, n: int, variant: PellVariant,
                     s: NormalizedSeries, kernel: list[list[Fraction]]) -> PellSolution | None:
    """The solution from the kind's exact series ``s`` and its block's kernel
    at period n: the first basis vector (q of minimal degree) as q*, p*
    made monic, transported to s = 1/x."""
    dp, dq = variant_degrees(variant, n)
    # the reduced row echelon basis ends each vector at its own free column,
    # and the free columns ascend: the first vector's q has the least degree
    qvec = kernel[0]

    # p* kills orders 0..dp
    pvec = [-sum(qvec[j] * s[k - j] for j in range(min(k, dq) + 1)) for k in range(dp + 1)]
    pstar = RatPoly.of(pvec)
    qstar = RatPoly.of(qvec)
    lead = pvec[dp]
    if lead != 0:
        pstar = pstar.scale(1 / lead)
        qstar = qstar.scale(1 / lead)

    p_s = pstar.reciprocal(dp)
    q_s = qstar.reciprocal(dq)
    rhs = _pell_constant(*weight_polys(variant, params), p_s, q_s)
    if rhs is None:
        return None     # defensive: vanishing order was insufficient
    return PellSolution(p_s, q_s, variant, n, params, rhs)


def verify_pell(sol: PellSolution) -> bool:
    """Exact check of the variant identity, the degrees and the stated constant."""
    try:
        dp, dq = variant_degrees(sol.variant, sol.n)
    except ThresholdViolationError:
        return False
    if sol.p.degree != dp or sol.q.degree > dq:
        return False
    u, v = weight_polys(sol.variant, sol.params)
    const = _pell_constant(u, v, sol.p, sol.q)
    # no sign check: the constant is nonzero, V(0) = 0 and U(0) != 0, so
    # R = U(0) p(0)^2 always has the sign of U(0)
    return const is not None and const == sol.rhs


def compose_pell(sol: PellSolution) -> PellSolution:
    """Composed plain-even solution of degrees (n, n-3) from a verified generic one.

    With the input identity U p^2 - V q^2 = R and W = U V the plain even
    weight, the pair p_hat = (2 U p^2 - R)/R, q_hat = 2 p q / R satisfies
    p_hat^2 - W q_hat^2 = 1 exactly, with deg p_hat = n and deg q_hat = n-3.
    In the plain-even degree pattern this is the identity at the doubled
    period 2n (an n-periodic pair is in particular 2n-periodic), which is
    what the returned solution records.
    """
    if sol.variant not in (PellVariant.EVEN_A, PellVariant.EVEN_B,
                           PellVariant.ODD_C, PellVariant.ODD_D):
        raise UnverifiedInputError(
            f"composition is defined for the four generic variants, not {sol.variant.value}")
    if not verify_pell(sol):
        raise UnverifiedInputError("input solution does not verify")
    u, _ = weight_polys(sol.variant, sol.params)
    r = sol.rhs
    p_hat = (u * (sol.p * sol.p)).scale(Fraction(2) / r) - RatPoly.const(1)
    q_hat = (sol.p * sol.q).scale(Fraction(2) / r)
    return PellSolution(p_hat, q_hat, PellVariant.EVEN_A, 2 * sol.n, sol.params, Fraction(1))


def solve_pell_singular(a: tuple[Fraction, Fraction, Fraction], gamma1: Fraction, n: int,
                        which: PellVariant) -> PellSolution | None:
    """Degenerate-weight solve for the double-caustic and light-like variants:
    None where the parity does not match the variant, else ``solve_pell``."""
    kind = _VARIANT_KINDS[which]
    case = _DEGENERATE_CASES.get(kind)
    if case is None:
        raise ValueError(f"not a singular variant: {which.value}")
    params = _degenerate_params(a, gamma1, case)
    return None if n % 2 != _start(kind) % 2 else solve_pell(params, n, which)
