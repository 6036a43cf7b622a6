"""Exact rational polynomial arithmetic and the Pell-type periodicity identities.

Solutions are constructed in x-coordinates, where the periodicity condition
is a clean lower-triangular statement: p*(x) + q*(x) S(x) must vanish to
order n at x = 0, with S the normalized square-root series of the variant.
Multiplying by the conjugate and passing to s = 1/x transports the solution
to the Pell form

    U(s) p(s)^2 - V(s) q(s)^2 = R,

with U, V the monic weight factors of the variant (e.g. U = 1 and
V = s (s-1/a1)(s-1/a2)(s+1/a3)(s-1/gamma1)(s-1/gamma2) for the plain even
variant) and R a nonzero rational constant.  Working with the normalized
series absorbs the irrational factor sqrt(P(0)) into q, so p, q and R are
exactly rational; with p* monic the plain even and light-even variants give
R = 1 and the odd variants give R = -1/gamma (sign as in the source
identities), while the two-caustic even variant gives sign(R) = sign of the
caustic product.

The solve is decided mod p first.  The q-part of the linear system is built
from the series modulo the prime p of ``series.MODULUS``; when its columns
are independent mod p they are independent over Q, no solution exists and
``solve_pell`` returns None without building the rational series.  Only a
dependent system mod p (or a parameter that is not a p-unit) goes on to the
exact nullspace, and every returned solution comes from that exact path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    GammaOutOfRangeError,
    SingularCurveError,
    ThresholdViolationError,
    UnverifiedInputError,
)
from .conditions import HyperellipticParams, _is_branch, _start, divided_series, sqrt_series
from .series import ModP, NonUnitError, SeriesKind, matrix_rank, nullspace, poly_mul_frac


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

    def leading(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

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
    """Monic weight factors (U, V) of the variant's identity U p^2 - V q^2 = R."""
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


def _expected_rhs_sign(variant: PellVariant, params: HyperellipticParams) -> int:
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
        def fr(s: str | None) -> Fraction | None:
            return None if s is None else Fraction(s)

        params = HyperellipticParams(
            fr(d["params"]["a1"]), fr(d["params"]["a2"]), fr(d["params"]["a3"]),
            fr(d["params"]["gamma1"]), fr(d["params"]["gamma2"]))
        p = RatPoly.of([fr(c) for c in d["p_coeffs"]])
        q = RatPoly.of([fr(c) for c in d["q_coeffs"]])
        variant = PellVariant(d["variant"])
        u, v = weight_polys(variant, params)
        expansion = u * (p * p) - v * (q * q)
        rhs = expansion.coeffs[0] if expansion.degree == 0 else Fraction(0)
        return PellSolution(p, q, variant, int(d["n"]), params, rhs)


def _variant_series(variant: PellVariant, params: HyperellipticParams, order: int,
                    number=Fraction):
    base = sqrt_series(params, order, number)
    kind = _VARIANT_KINDS[variant]
    if kind is base.kind:
        return base
    return divided_series(base, kind, params)


def _q_rows(s, dp: int, dq: int, n: int) -> list[list]:
    """q-only part of the triangular system: orders dp+1 .. n-1."""
    zero = s[0] - s[0]
    return [[s[k - j] if 0 <= k - j else zero for j in range(dq + 1)]
            for k in range(dp + 1, n)]


def _validate_params_for_variant(variant: PellVariant, params: HyperellipticParams) -> None:
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


def solve_pell(params: HyperellipticParams, n: int,
               variant: PellVariant) -> PellSolution | None:
    """Solve the variant's identity at period n, or return None.

    Builds the linear system forcing p*(x) + q*(x) S(x) to vanish to order n
    at 0, first mod p (independent columns: None) and then exactly: computes
    the rational nullspace, picks the solution with q of minimal degree,
    makes p* monic, and transports to s = 1/x.  A value is returned iff the
    corresponding rank-type periodicity condition holds.
    """
    _validate_params_for_variant(variant, params)
    dp, dq = variant_degrees(variant, n)
    try:
        modular = _variant_series(variant, params, n, ModP).coeffs
        if matrix_rank(_q_rows(modular, dp, dq, n)) == dq + 1:
            return None     # independent columns mod p, hence over Q
    except NonUnitError:
        pass
    s = _variant_series(variant, params, n).coeffs
    kernel = nullspace(_q_rows(s, dp, dq, n), dq + 1)
    if not kernel:
        return None
    qvec = min(kernel, key=lambda v: max((j for j, x in enumerate(v) if x != 0), default=-1))

    # p* kills orders 0..dp
    pvec = [-sum(qvec[j] * s[k - j] for j in range(min(k, dq) + 1)) for k in range(dp + 1)]
    pstar = RatPoly.of(pvec)
    qstar = RatPoly.of(qvec)
    if pstar.is_zero or qstar.is_zero:
        return None
    lead = pvec[dp]
    if lead != 0:
        pstar = pstar.scale(1 / lead)
        qstar = qstar.scale(1 / lead)

    p_s = pstar.reciprocal(dp)
    q_s = qstar.reciprocal(dq)
    u, v = weight_polys(variant, params)
    expansion = u * (p_s * p_s) - v * (q_s * q_s)
    if expansion.degree != 0:
        return None     # defensive: vanishing order was insufficient
    return PellSolution(p_s, q_s, variant, n, params, expansion.coeffs[0])


def verify_pell(sol: PellSolution) -> bool:
    """Exact check of the variant identity, degrees and the sign of the constant."""
    try:
        dp, dq = variant_degrees(sol.variant, sol.n)
    except ThresholdViolationError:
        return False
    if sol.p.degree != dp or sol.q.degree > dq:
        return False
    u, v = weight_polys(sol.variant, sol.params)
    expansion = u * (sol.p * sol.p) - v * (sol.q * sol.q)
    if expansion.degree != 0 or expansion.is_zero:
        return False
    const = expansion.coeffs[0]
    if const != sol.rhs:
        return False
    return (1 if const > 0 else -1) == _expected_rhs_sign(sol.variant, sol.params)


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
    """Degenerate-weight solve for the double-caustic and light-like variants.

    Absent (None) when the parity does not match the variant, and for the
    odd light-like variant when the caustic is not an ellipsoid.
    """
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
    if n % 2 != _start(_VARIANT_KINDS[which]) % 2:
        return None
    if which is PellVariant.LIGHT_ODD and not (-a[2] < gamma1 < a[1]):
        return None     # odd periods need an ellipsoid caustic
    return solve_pell(HyperellipticParams(a[0], a[1], a[2], gamma1, gamma2), n, which)
