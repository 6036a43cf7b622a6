"""Exact rational Taylor series of the normalized square root of the quintic,
its divided variants, and the exact linear algebra of the Hankel tests.

All series are normalized so the constant coefficient is 1: the branch-point
polynomial is divided by its value at 0 before taking the square root, which
removes the common irrational factor.  Rank conditions are invariant under
scaling the whole series, so the normalized coefficients carry exactly the
same Hankel ranks as the raw ones.

Polynomials and series are lists of coefficients in ascending degree.  The
kernel (products, square root, quotient) uses only + - * / and takes its
zeros and ones from its input, so the same code runs on Fractions (the
exact engine), on floats (Newton refinement), on numpy arrays holding one
value per grid point (the search's grid scan) and on ``ModP`` residues
modulo the prime p = 2^30 - 35, the largest prime below 2^30: a residue is
one CPython digit and a product of two is two, and p is above the 1e9 bound
``HyperellipticParams.from_floats`` puts on denominators.  Exact input gives
exact output: no float ever enters a Fraction series.

Exact ranks carry a modular certificate.  A rational matrix whose entries
are p-integral has rank mod p at most its rank over Q, so full rank mod p
proves full rank over Q; that decides the common NOT-SATISFIED verdict on
plain Python ints.  On residues the square-root recurrence sums its
products as ints and reduces once per coefficient, and the elimination mod
p updates only the columns right of each pivot and reduces an entry only
when it reads it.  Every other case (deficient mod p, a denominator
divisible by p) falls back to the one exact elimination over Q: the
fraction-free Bareiss echelon form, whose pivots give the rank and whose
rows give the nullspace by back-substitution.  ``nullspace`` always
eliminates exactly: the Hankel tests ask for it only once a block is
deficient mod p or has no reduction.  A series built from ``ModP``
input is the reduction of the exact one as long as every division is by a
p-unit; ``ModP`` raises ``NonUnitError`` otherwise, and the caller takes the
exact path.  Each exact decision is logged at DEBUG on this module's logger.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InsufficientOrderError, ZeroGammaError

_log = logging.getLogger(__name__)

# the largest prime below 2^30: a residue fits one 30-bit CPython digit, and
# p > 1e9 divides no denominator of a 1e9-rationalized parameter
MODULUS = 2 ** 30 - 35


class NonUnitError(ArithmeticError):
    """A value is not invertible modulo ``MODULUS``: the modular certificate
    does not apply and the exact path decides."""


def _residue(x) -> int:
    """The residue in [0, p) of an int, a p-integral Fraction or a ModP."""
    if type(x) is ModP:
        return x.v
    if isinstance(x, int):
        return x % MODULUS
    if not isinstance(x, Fraction):
        raise TypeError(f"no residue modulo p for {type(x).__name__}")
    den = x.denominator % MODULUS
    if den == 0:
        raise NonUnitError(f"denominator of {x} is divisible by the modulus")
    return x.numerator * pow(den, -1, MODULUS) % MODULUS


def _modp(v: int) -> "ModP":
    out = object.__new__(ModP)
    out.v = v
    return out


class ModP:
    """Element of GF(p), p = ``MODULUS``, for the number-generic series kernel.

    Built from an int or a Fraction (its reduction); mixes with both in
    + - * / and ==.  Division by a non-unit raises ``NonUnitError``.
    """

    __slots__ = ("v",)

    def __init__(self, x) -> None:
        self.v = _residue(x)

    # the kernel mostly combines two residues: skip the conversion call then
    def __add__(self, other) -> "ModP":
        return _modp((self.v + (other.v if type(other) is ModP else _residue(other))) % MODULUS)

    __radd__ = __add__

    def __sub__(self, other) -> "ModP":
        return _modp((self.v - (other.v if type(other) is ModP else _residue(other))) % MODULUS)

    def __rsub__(self, other) -> "ModP":
        return _modp((_residue(other) - self.v) % MODULUS)

    def __neg__(self) -> "ModP":
        return _modp(-self.v % MODULUS)

    def __mul__(self, other) -> "ModP":
        return _modp(self.v * (other.v if type(other) is ModP else _residue(other)) % MODULUS)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ModP":
        return self * _inverse(_residue(other))

    def __rtruediv__(self, other) -> "ModP":
        return _modp(_residue(other) * _inverse(self.v) % MODULUS)

    def __pow__(self, e: int) -> "ModP":
        if e < 0:
            raise ValueError("ModP powers take exponents >= 0")
        return _modp(pow(self.v, e, MODULUS))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ModP, int, Fraction)):
            return NotImplemented
        return self.v == _residue(other)

    def __repr__(self) -> str:
        return f"ModP({self.v})"


def _inverse(v: int) -> int:
    if v == 0:
        raise NonUnitError("division by a multiple of the modulus")
    return pow(v, -1, MODULUS)


class SeriesKind(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    DOUBLE_A = "doubleA"
    DOUBLE_B = "doubleB"
    LIGHT_A = "lightA"
    LIGHT_B = "lightB"


@dataclass(frozen=True)
class NormalizedSeries:
    kind: SeriesKind
    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]


def poly_mul_frac(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    zero = a[0] - a[0]
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _not_one(c) -> bool:
    """True when the constant term c differs from 1 anywhere: an array of
    grid values answers through ``.any()``, a scalar through ``bool``."""
    ne = c != 1
    return bool(ne.any()) if hasattr(ne, "any") else bool(ne)


def _sum_of_products(s: list, k: int, zero):
    """sum_{i=1}^{k-1} s_i s_{k-i}, the convolution term of ``series_sqrt``.

    Residues are summed as plain ints and reduced once; that arithmetic is
    exact, so the symmetric terms s_i s_{k-i} = s_{k-i} s_i are paired.
    """
    if type(zero) is ModP:
        v = [x.v for x in s[:k]]
        h = (k - 1) // 2
        acc = 2 * sum(map(operator.mul, v[1:h + 1], v[k - 1:k - 1 - h:-1]))
        if k % 2 == 0:
            acc += v[k // 2] * v[k // 2]
        return _modp(acc % MODULUS)
    # an explicit loop, not sum(): from Python 3.12 sum() of floats is
    # compensated, which would round scalars and arrays differently
    acc = zero
    for i in range(1, k):
        acc = acc + s[i] * s[k - i]
    return acc


def series_sqrt(f: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of sqrt(f) through the given order; requires f[0] = 1.

    Recurrence from squaring: 2 s_k = f_k - sum_{i=1}^{k-1} s_i s_{k-i}.
    Halving is a multiplication by f[0] / 2, computed once: an exact scaling
    on floats and arrays, and one modular inverse per series on residues.
    """
    if not f or _not_one(f[0]):
        raise ValueError("series_sqrt requires constant term 1")
    zero = f[0] - f[0]
    half = f[0] / 2
    s = [f[0]] + [zero] * order
    for k in range(1, order + 1):
        fk = f[k] if k < len(f) else zero
        s[k] = (fk - _sum_of_products(s, k, zero)) * half
    return s


def series_div(a: list[Fraction], d: list[Fraction], order: int) -> list[Fraction]:
    """Series quotient a / d through the given order; requires d[0] = 1."""
    if not d or _not_one(d[0]):
        raise ValueError("series_div requires divisor constant term 1")
    zero = a[0] - a[0]
    out = [zero] * (order + 1)
    for k in range(order + 1):
        acc = a[k] if k < len(a) else zero
        for j in range(1, min(k, len(d) - 1) + 1):
            acc = acc - d[j] * out[k - j]
        out[k] = acc
    return out


def normalized_branch_poly(roots: list[Fraction]) -> list[Fraction]:
    """Product of (1 - x/r) over the roots r, as a polynomial.

    This is P(x)/P(0) for the branch polynomial with the given roots; roots
    must be nonzero and, for a non-singular curve, pairwise distinct (a
    double root is listed twice).  The constant term is the first root's own
    1, so exact roots give an exact polynomial.

    Each factor 1 + c x, c = -1/r, updates the coefficients by two terms,
    out[k] = poly[k-1] c + poly[k], in the operand order of
    ``poly_mul_frac(poly, [1, c])``.  The new leading term is added to zero,
    as that product adds it, so no coefficient is ever -0.0 and the result
    equals the product bit for bit on floats and arrays, and exactly on
    Fractions and ``ModP``.
    """
    poly = [roots[0] ** 0]
    zero = poly[0] - poly[0]
    for root in roots:
        try:
            c = -1 / root
        except ZeroDivisionError:
            raise ZeroGammaError("branch root at 0 is not admissible") from None
        poly = [poly[0], *(q * c + p for p, q in zip(poly[1:], poly)), zero + poly[-1] * c]
    return poly


@dataclass(frozen=True)
class HankelMatrix:
    """Hankel block entry(i, j) = coeffs[start + i + j] of a series."""

    entries: tuple[tuple[Fraction, ...], ...]
    start: int

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def hankel_block(series: NormalizedSeries, start: int, rows: int, cols: int) -> HankelMatrix:
    if start + rows + cols - 2 > series.order:
        raise InsufficientOrderError(
            f"need coefficients through {start + rows + cols - 2}, have {series.order}")
    ent = tuple(tuple(series.coeffs[start + i + j] for j in range(cols)) for i in range(rows))
    return HankelMatrix(ent, start)


def _echelon(rows_in: list[list[Fraction]]) -> tuple[list[int], list[list[int]]]:
    """Pivot columns and integer row echelon form over Q, by Bareiss
    fraction-free elimination.

    Rows are scaled to integers first (the row space is invariant under row
    scaling); the Bareiss pivoting scheme keeps intermediate entries
    divisor-exact.  Row i of the result has its first nonzero entry at the
    i-th pivot column; the rows past the last pivot are zero.
    """
    if not rows_in or not rows_in[0]:
        return [], []
    m = []
    for row in rows_in:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        m.append([int(x * den) for x in row])
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    prev_pivot = 1
    pr = 0
    for pc in range(ncols):
        piv = None
        for r in range(pr, nrows):
            if m[r][pc] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        pivot = m[pr][pc]
        for r in range(pr + 1, nrows):
            for c in range(pc + 1, ncols):
                m[r][c] = (m[r][c] * pivot - m[r][pc] * m[pr][c]) // prev_pivot
            m[r][pc] = 0
        prev_pivot = pivot
        pr += 1
        pivots.append(pc)
        if pr == nrows:
            break
    return pivots, m


def matrix_rank_fraction_free(rows_in: list[list[Fraction]]) -> int:
    """Exact rank over Q: the number of pivots of ``_echelon``."""
    return len(_echelon(rows_in)[0])


def rank_mod_p(rows_in: list[list]) -> int | None:
    """Rank over GF(p) of a matrix of ints, Fractions or ModP residues, by
    Gaussian elimination on Python ints; None when an entry has a
    denominator divisible by p, so the matrix has no reduction.

    The elimination is lazy: each step keeps only the columns right of the
    pivot, and an entry is reduced mod p only when it is tested for zero or
    made a pivot or a row multiplier.  The pivot row is reduced and
    normalized once, so an update x - f y adds less than p^2 to x, and the
    entries stay a few CPython digits long between pivots.
    """
    try:
        rows = [[x.v if type(x) is ModP else _residue(x) for x in row] for row in rows_in]
    except NonUnitError:
        return None
    rank = 0
    # ``rows`` holds the rows not yet pivoted, each from the current column on
    for _ in range(len(rows[0]) if rows else 0):
        piv = next((i for i, row in enumerate(rows) if row[0] % MODULUS), None)
        if piv is None:
            rows = [row[1:] for row in rows]
            continue
        prow = rows.pop(piv)
        inv = pow(prow[0] % MODULUS, -1, MODULUS)
        prow = [x * inv % MODULUS for x in prow[1:]]
        new = []
        for row in rows:
            f = row[0] % MODULUS
            new.append([x - f * y for x, y in zip(row[1:], prow)] if f else row[1:])
        rows = new
        rank += 1
        if not rows:
            break
    return rank


def _log_decision(what: str, rows_in: list[list], rank: int, path: str) -> None:
    if not _log.isEnabledFor(logging.DEBUG):
        return
    shape = (len(rows_in), len(rows_in[0]) if rows_in else 0)
    entries = [x for row in rows_in for x in row]
    # residues stand for a rational series that was never built
    bits = None if any(type(x) is ModP for x in entries) else max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in entries), default=0)
    _log.debug("%s %dx%d: rank %d, coefficient bits %s, decided by %s",
               what, shape[0], shape[1], rank, "-" if bits is None else bits, path,
               extra={"decision": {"what": what, "shape": shape, "rank": rank,
                                   "coeff_bits": bits, "path": path}})


def matrix_rank(rows_in: list[list]) -> int:
    """Rank over the field of the entries: Q for Fractions, GF(p) for ModP.

    Rational matrices try the modular certificate first (full rank mod p is
    full rank over Q) and fall back to Bareiss.  A full rank mod p of a ModP
    matrix is logged as a decision over Q, since such a matrix is the
    reduction of a rational one; a deficient one decides nothing.
    """
    rank = rank_mod_p(rows_in)
    if rank == (min(len(rows_in), len(rows_in[0])) if rows_in else 0):
        _log_decision("rank", rows_in, rank, "modular")
        return rank
    if rows_in and type(rows_in[0][0]) is ModP:
        return rank
    rank = matrix_rank_fraction_free(rows_in)
    _log_decision("rank", rows_in, rank, "exact")
    return rank


def hankel_rank(series: NormalizedSeries, row_lo: int, rows: int, cols: int) -> int:
    """Rank of the Hankel block starting at coefficient ``row_lo``, over the
    field of the series' coefficients (see ``matrix_rank``)."""
    block = hankel_block(series, row_lo, rows, cols)
    return matrix_rank([list(r) for r in block.entries])


def nullspace(rows_in: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the exact nullspace of the (rows x ncols) rational system,
    with no modular shortcut (its caller ranks mod p first): one vector per
    free column of ``_echelon``, in ascending order, 1 at its own free
    column, 0 at the others, and the pivot entries by back-substitution.
    That is the reduced row echelon basis.
    """
    pivots, m = _echelon(rows_in)
    _log_decision("nullspace", rows_in, len(pivots), "exact")
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in reversed(list(enumerate(pivots))):
            vec[pc] = Fraction(-sum(m[i][j] * vec[j] for j in range(pc + 1, ncols)), m[i][pc])
        basis.append(vec)
    return basis
