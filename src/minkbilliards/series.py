"""Exact rational Taylor series of the normalized square root of the quintic,
its divided variants, and Hankel rank computation.

All series are normalized so the constant coefficient is 1: the branch-point
polynomial is divided by its value at 0 before taking the square root, which
removes the common irrational factor.  Rank conditions are invariant under
scaling the whole series, so the normalized coefficients carry exactly the
same Hankel ranks as the raw ones.

Polynomials and series are lists of coefficients in ascending degree.  The
kernel (products, square root, quotient) uses only + - * / and takes its
zeros and ones from its input, so the same code runs on Fractions (the
exact engine), on floats (Newton refinement) and on numpy arrays holding
one value per grid point (the search's grid scan).  Exact input gives
exact output: no float ever enters a Fraction series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import InsufficientOrderError, ZeroGammaError


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


def series_sqrt(f: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of sqrt(f) through the given order; requires f[0] = 1.

    Recurrence from squaring: 2 s_k = f_k - sum_{i=1}^{k-1} s_i s_{k-i}.
    """
    if not f or np.any(f[0] != 1):
        raise ValueError("series_sqrt requires constant term 1")
    zero = f[0] - f[0]
    s = [f[0]] + [zero] * order
    for k in range(1, order + 1):
        fk = f[k] if k < len(f) else zero
        acc = sum((s[i] * s[k - i] for i in range(1, k)), zero)
        s[k] = (fk - acc) / 2
    return s


def series_div(a: list[Fraction], d: list[Fraction], order: int) -> list[Fraction]:
    """Series quotient a / d through the given order; requires d[0] = 1."""
    if not d or np.any(d[0] != 1):
        raise ValueError("series_div requires divisor constant term 1")
    zero = a[0] - a[0]
    out = [zero] * (order + 1)
    for k in range(order + 1):
        acc = a[k] if k < len(a) else zero
        for j in range(1, min(k, len(d) - 1) + 1):
            acc = acc - d[j] * out[k - j]
        out[k] = acc
    return out


def series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    zero = a[0] - a[0]
    out = [zero] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] = out[i + j] + ai * bj
    return out


def normalized_branch_poly(factors: list[tuple[Fraction, int]]) -> list[Fraction]:
    """Product of (1 - x/r)^m over (r, m) pairs, as a polynomial.

    This is P(x)/P(0) for the branch polynomial with the given roots; roots
    must be nonzero and, for a non-singular curve, pairwise distinct.  The
    constant term is the first root's own 1, so exact roots give an exact
    polynomial.
    """
    poly = [factors[0][0] ** 0]
    for root, mult in factors:
        try:
            lin = [1, -1 / root]
        except ZeroDivisionError:
            raise ZeroGammaError("branch root at 0 is not admissible") from None
        for _ in range(mult):
            poly = poly_mul_frac(poly, lin)
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


def matrix_rank_fraction_free(rows_in: list[list[Fraction]]) -> int:
    """Exact rank over Q by Bareiss fraction-free elimination.

    Rows are scaled to integers first (rank is invariant under row scaling);
    the Bareiss pivoting scheme keeps intermediate entries divisor-exact.
    """
    if not rows_in or not rows_in[0]:
        return 0
    m = []
    for row in rows_in:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        m.append([int(x * den) for x in row])
    nrows, ncols = len(m), len(m[0])
    rank = 0
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
        rank += 1
        if pr == nrows:
            break
    return rank


def hankel_rank(series: NormalizedSeries, row_lo: int, rows: int, cols: int) -> int:
    """Exact rank of the Hankel block starting at coefficient ``row_lo``."""
    block = hankel_block(series, row_lo, rows, cols)
    return matrix_rank_fraction_free([list(r) for r in block.entries])


def rank_by_minors(rows_in: list[list[Fraction]]) -> int:
    """Exhaustive-minor rank (oracle; exponential, for small blocks only)."""
    from itertools import combinations

    if not rows_in or not rows_in[0]:
        return 0
    nrows, ncols = len(rows_in), len(rows_in[0])

    def det(idx_r: tuple[int, ...], idx_c: tuple[int, ...]) -> Fraction:
        k = len(idx_r)
        if k == 1:
            return rows_in[idx_r[0]][idx_c[0]]
        total = Fraction(0)
        sign = 1
        for j in range(k):
            sub = det(idx_r[1:], idx_c[:j] + idx_c[j + 1:])
            total += sign * rows_in[idx_r[0]][idx_c[j]] * sub
            sign = -sign
        return total

    for k in range(min(nrows, ncols), 0, -1):
        for ir in combinations(range(nrows), k):
            for ic in combinations(range(ncols), k):
                if det(ir, ic) != 0:
                    return k
    return 0
