import logging
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from minkbilliards import HyperellipticParams, condition_vector, divided_series, sqrt_series
from minkbilliards.conditions import RATIONALIZE_DENOMINATOR_BOUND, _start
from minkbilliards.errors import InsufficientOrderError
from minkbilliards.series import (
    MODULUS,
    ModP,
    NonUnitError,
    NormalizedSeries,
    SeriesKind,
    hankel_block,
    hankel_rank,
    matrix_rank,
    matrix_rank_fraction_free,
    normalized_branch_poly,
    nullspace,
    poly_mul_frac,
    rank_mod_p,
    series_div,
    series_sqrt,
)
from conftest import rank_by_minors


def test_series_sqrt_squares_back():
    f = normalized_branch_poly([F(4), F(2), F(-1), F(3, 2), F(-1, 2)])
    order = 12
    s = series_sqrt(f, order)
    assert s[0] == 1
    sq = poly_mul_frac(s, s)[:order + 1]
    for k in range(order + 1):
        expect = f[k] if k < len(f) else F(0)
        assert sq[k] == expect


def test_series_sqrt_first_coefficient_is_half_log_derivative():
    f = normalized_branch_poly([F(4), F(2), F(-1), F(3, 2), F(-1, 2)])
    s = series_sqrt(f, 3)
    assert s[1] == f[1] / 2     # P'(0)/(2 P(0)) for the normalized polynomial


def test_series_div_inverse():
    f = normalized_branch_poly([F(4), F(2), F(-1)])
    d = [F(1), F(-2, 3)]
    q = series_div(list(f), d, 10)
    back = poly_mul_frac(q, d)[:11]
    for k in range(11):
        expect = f[k] if k < len(f) else F(0)
        assert back[k] == expect


def test_constant_term_guards_on_every_number_type():
    import numpy as np

    for one in (F(1), 1.0, ModP(1), np.ones(3)):
        assert np.all(series_sqrt([one, one - one + 2], 2)[1] == 1)
        assert np.all(series_div([one, one], [one, one - one], 2)[0] == 1)
    # a grid with one cell whose constant term is not 1 is rejected as a whole
    for bad in (F(2), 2.0, ModP(2), np.array([1.0, 2.0, 1.0])):
        with pytest.raises(ValueError):
            series_sqrt([bad, bad], 2)
        with pytest.raises(ValueError):
            series_div([bad, bad], [bad, bad], 2)


def test_hankel_block_structure():
    coeffs = tuple(F(k * k + 1) for k in range(12))
    s = NormalizedSeries(SeriesKind.A, coeffs)
    blk = hankel_block(s, 3, 3, 4)
    for i in range(3):
        for j in range(4):
            assert blk.entries[i][j] == coeffs[3 + i + j]
    with pytest.raises(InsufficientOrderError):
        hankel_block(s, 8, 3, 3)


def test_rank_trivial_cases():
    zero = [[F(0)] * 3 for _ in range(3)]
    assert matrix_rank_fraction_free(zero) == 0
    # rank-1 outer-product Hankel block (geometric sequence)
    geo = [[F(2) ** (i + j) for j in range(4)] for i in range(3)]
    assert matrix_rank_fraction_free(geo) == 1


def test_rank_against_minor_oracle():
    rng = random.Random(42)
    for trial in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        start = rng.randint(0, 3)
        # random rational Hankel block, with occasional low-rank structure
        if trial % 3 == 0:
            base = F(rng.randint(1, 5), rng.randint(1, 4))
            coeffs = [F(rng.randint(1, 9)) * base ** k for k in range(start + rows + cols)]
        else:
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(start + rows + cols)]
        m = [[coeffs[start + i + j] for j in range(cols)] for i in range(rows)]
        assert matrix_rank_fraction_free([r[:] for r in m]) == rank_by_minors(m)


def test_hankel_rank_scaling_invariance():
    rng = random.Random(5)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(12)]
    s1 = NormalizedSeries(SeriesKind.A, tuple(coeffs))
    s2 = NormalizedSeries(SeriesKind.A, tuple(F(7, 3) * c for c in coeffs))
    for start, r, c in ((2, 3, 3), (4, 2, 2), (3, 4, 2)):
        assert hankel_rank(s1, start, r, c) == hankel_rank(s2, start, r, c)


def test_poly_mul_frac():
    a = [F(1), F(2)]
    b = [F(3), F(0), F(1)]
    assert poly_mul_frac(a, b) == [F(3), F(6), F(1), F(2)]


def _branch_poly_by_products(roots):
    """normalized_branch_poly as the general product by each linear factor."""
    poly = [roots[0] ** 0]
    for root in roots:
        poly = poly_mul_frac(poly, [1, -1 / root])
    return poly


@pytest.mark.parametrize("seed", range(6))
def test_normalized_branch_poly_equals_the_general_product(seed):
    # the two-term update per factor gives the product's coefficients:
    # exactly on Fractions and residues, bit for bit on floats and arrays;
    # each root list has a pair r, -r, whose product cancels a coefficient
    # to an exact zero, and one root three times (twice in a row)
    import numpy as np

    rng = random.Random(seed)
    roots = [F(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 9)) for _ in range(4)]
    roots.append(-roots[0])
    pairs = [(r, 1) for r in roots] + [(roots[1], 2)]
    rng.shuffle(pairs)
    factors = [r for r, mult in pairs for _ in range(mult)]
    for number in (F, ModP):
        fs = [number(r) for r in factors]
        assert normalized_branch_poly(fs) == _branch_poly_by_products(fs)
    fs = [float(r) for r in factors]
    got, ref = normalized_branch_poly(fs), _branch_poly_by_products(fs)
    assert np.array(got).tobytes() == np.array(ref).tobytes()
    # arrays: one column per grid point, with the exact roots in column 0
    grid = [np.array([float(r), *(rng.uniform(-9.0, 9.0) for _ in range(7))]) for r in factors]
    got, ref = normalized_branch_poly(grid), _branch_poly_by_products(grid)
    assert len(got) == len(ref)
    assert all(np.asarray(g).tobytes() == np.asarray(r).tobytes() for g, r in zip(got, ref))


def test_generic_kernel_stays_exact():
    # Fraction input gives Fraction output, also past the input's degree,
    # where a kernel seeding its zeros from float or int literals would
    # return 0.0 or 0 (and Fraction(0) == 0.0 hides that from comparisons)
    outputs = [
        series_sqrt([F(1)], 3),
        series_sqrt([F(1), F(-2, 5)], 7),
        series_div([F(3, 2)], [F(1), F(-2, 3)], 4),
        series_div([F(1), F(1, 7)], [1, F(5)], 6),
        normalized_branch_poly([F(4), F(-1), F(-1)]),
    ]
    # int-valued parameters are read as rationals
    for p in (HyperellipticParams(4, 2, 1, F(3, 2), F(-1, 2)),
              HyperellipticParams(6, F(3, 2), 2, 2, 2),
              HyperellipticParams(4, 2, 1, F(3, 2), None)):
        a = (p.a1, p.a2, p.a3)
        outputs.append(list(sqrt_series(p, 8).coeffs))
        kinds = {SeriesKind.A: (SeriesKind.A, SeriesKind.B, SeriesKind.C, SeriesKind.D),
                 SeriesKind.DOUBLE_A: (SeriesKind.DOUBLE_A, SeriesKind.DOUBLE_B),
                 SeriesKind.LIGHT_A: (SeriesKind.LIGHT_A, SeriesKind.LIGHT_B)}[p.base_kind]
        for kind in kinds:
            # at n = s + 2 the kind is a branch
            outputs.append(condition_vector(a, kind, _start(kind) + 2, p.gamma1, p.gamma2))
    for coeffs in outputs:
        assert coeffs and all(type(c) is F for c in coeffs), coeffs


@given(st.lists(st.fractions(-10, 10, max_denominator=20), max_size=6),
       st.integers(0, 10))
def test_series_sqrt_squares_back_property(tail, order):
    f = [F(1)] + tail
    s = series_sqrt(f, order)
    assert all(type(c) is F for c in s)
    assert poly_mul_frac(s, s)[:order + 1] == [f[k] if k < len(f) else 0 for k in range(order + 1)]


# -- modular certificate ------------------------------------------------------

_ENTRY = st.fractions(-4, 4, max_denominator=5)


@st.composite
def rational_blocks(draw):
    """Small rational matrices, half of them products of two thin factors so
    that deficient ranks are common."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return [[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)]
    k = draw(st.integers(1, min(rows, cols)))
    left = [[draw(_ENTRY) for _ in range(k)] for _ in range(rows)]
    right = [[draw(_ENTRY) for _ in range(cols)] for _ in range(k)]
    return [[sum((left[i][t] * right[t][j] for t in range(k)), F(0)) for j in range(cols)]
            for i in range(rows)]


@given(rational_blocks())
def test_certified_rank_matches_bareiss_and_minors(block):
    rank = matrix_rank(block)
    assert rank == matrix_rank_fraction_free(block) == rank_by_minors(block)
    kernel = nullspace(block, len(block[0]))
    assert len(kernel) == len(block[0]) - rank
    for vec in kernel:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in block)
    # reduced row echelon normal form: each vector's last nonzero entry sits
    # at its own free column, where it is 1, and is 0 at the other free
    # columns; the free columns ascend
    free = [max(j for j, x in enumerate(vec) if x != 0) for vec in kernel]
    assert all(f < g for f, g in zip(free, free[1:]))
    for vec, f in zip(kernel, free):
        assert vec[f] == 1 and all(vec[g] == 0 for g in free if g != f)


def _paths(caplog) -> list[str]:
    return [r.decision["path"] for r in caplog.records if hasattr(r, "decision")]


@pytest.mark.parametrize("block", [
    [[F(MODULUS), F(1)], [F(0), F(MODULUS)]],   # full rank over Q, rank 1 mod p
    [[F(1, MODULUS), F(1)], [F(1), F(1)]],      # a denominator divisible by p
])
def test_certificate_falls_back_to_exact(block, caplog):
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        assert matrix_rank(block) == 2
        assert nullspace(block, 2) == []
    assert _paths(caplog) == ["exact", "exact"]


def test_modulus_is_a_one_digit_prime_above_the_denominator_bound():
    # one 30-bit CPython digit per residue, and no 1e9-bounded denominator
    # from ``HyperellipticParams.from_floats`` is divisible by it
    assert RATIONALIZE_DENOMINATOR_BOUND < MODULUS < 2 ** 30
    assert all(MODULUS % d for d in range(2, math.isqrt(MODULUS) + 1))


def test_rank_mod_p_is_rank_of_the_reduction():
    assert rank_mod_p([[MODULUS, 1], [0, MODULUS]]) == 1
    assert rank_mod_p([[F(1, 3), F(2, 3)], [F(1), F(2)]]) == 1
    assert rank_mod_p([[ModP(F(1, 3)), ModP(F(2, 5))], [ModP(1), ModP(0)]]) == 2
    assert rank_mod_p([[F(1, MODULUS)]]) is None


def test_rank_mod_p_tests_reduced_values_for_zero():
    # 1 - 2 (p+1)/2 = -p is a nonzero int but zero mod p
    assert rank_mod_p([[1, (MODULUS + 1) // 2], [2, 1]]) == 1
    assert rank_mod_p([[1, (MODULUS + 1) // 2, 0], [2, 1, 0], [0, MODULUS + 3, 3]]) == 2


def _eager_rank_mod_p(rows_in):
    """Oracle for ``rank_mod_p``: Gaussian elimination mod p that reduces
    every entry of every row update, over whole rows."""
    m = [[x % MODULUS for x in row] for row in rows_in]
    nrows = len(m)
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, nrows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, MODULUS)
        prow = [x * inv % MODULUS for x in m[rank]]
        for r in range(rank + 1, nrows):
            f = m[r][c]
            if f != 0:
                m[r] = [(x - f * y) % MODULUS for x, y in zip(m[r], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


# residues below p, and unreduced ints well above it
_RESIDUE_ENTRY = st.one_of(st.sampled_from([0, 1, MODULUS - 1, MODULUS, MODULUS + 1]),
                           st.integers(0, MODULUS - 1), st.integers(MODULUS, MODULUS ** 2))


@st.composite
def int_matrices(draw):
    """Int matrices up to 8 x 8 with entries at and around p, some rows
    combinations of others so that deficient ranks are common."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    m = []
    for _ in range(rows):
        if m and draw(st.booleans()):
            picks = draw(st.lists(st.tuples(st.integers(0, len(m) - 1), _RESIDUE_ENTRY),
                                  min_size=1, max_size=3))
            m.append([sum(c * m[i][j] for i, c in picks) for j in range(cols)])
        else:
            m.append([draw(_RESIDUE_ENTRY) for _ in range(cols)])
    order = draw(st.permutations(range(rows)))
    return [m[i] for i in order]


@given(int_matrices())
def test_rank_mod_p_matches_eager_elimination(m):
    assert rank_mod_p(m) == _eager_rank_mod_p(m)
    assert rank_mod_p([[ModP(x) for x in row] for row in m]) == _eager_rank_mod_p(m)


def _sqrt_by_halving(f, order):
    """The square-root recurrence with a left-to-right sum and a division
    by 2 per coefficient."""
    zero = f[0] - f[0]
    s = [f[0]] + [zero] * order
    for k in range(1, order + 1):
        fk = f[k] if k < len(f) else zero
        acc = zero
        for i in range(1, k):
            acc = acc + s[i] * s[k - i]
        s[k] = (fk - acc) / 2
    return s


@pytest.mark.parametrize("seed", range(4))
def test_series_sqrt_matches_the_halving_recurrence(seed):
    # bit for bit on floats and arrays, exactly on Fractions and residues
    import numpy as np

    rng = random.Random(seed)
    tail = [rng.uniform(-3.0, 3.0) * 10.0 ** rng.randint(-8, 8) for _ in range(6)]
    order = 24
    got, ref = series_sqrt([1.0, *tail], order), _sqrt_by_halving([1.0, *tail], order)
    assert np.array(got).tobytes() == np.array(ref).tobytes()
    grid = [np.ones(5)] + [np.array([t, *(rng.uniform(-9.0, 9.0) for _ in range(4))])
                           for t in tail]
    got, ref = series_sqrt(grid, order), _sqrt_by_halving(grid, order)
    assert all(np.asarray(g).tobytes() == np.asarray(r).tobytes() for g, r in zip(got, ref))
    exact = [F(1)] + [F(t).limit_denominator(10 ** 6) for t in tail]
    assert series_sqrt(exact, order) == _sqrt_by_halving(exact, order)
    residues = [ModP(x) for x in exact]
    assert series_sqrt(residues, order) == _sqrt_by_halving(residues, order)


def test_decision_records(caplog):
    with caplog.at_level(logging.DEBUG, logger="minkbilliards.series"):
        assert matrix_rank([[F(1), F(2)], [F(3), F(-4, 7)]]) == 2
        assert matrix_rank([[F(1), F(2)], [F(3), F(6)]]) == 1
        # a residue block of full rank decides; a deficient one does not
        assert matrix_rank([[ModP(1), ModP(2)], [ModP(3), ModP(5)]]) == 2
        assert matrix_rank([[ModP(1), ModP(2)], [ModP(3), ModP(6)]]) == 1
    decisions = [r.decision for r in caplog.records]
    assert decisions == [
        {"what": "rank", "shape": (2, 2), "rank": 2, "coeff_bits": 3, "path": "modular"},
        {"what": "rank", "shape": (2, 2), "rank": 1, "coeff_bits": 3, "path": "exact"},
        {"what": "rank", "shape": (2, 2), "rank": 2, "coeff_bits": None, "path": "modular"},
    ]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)


def test_modp_field_operations():
    a, b = ModP(F(3, 7)), ModP(-5)
    assert a * 7 == 3 and 7 * a == F(3)
    assert (a + b) - b == a and 2 - a == ModP(F(11, 7))
    assert b / a * a == b and 1 / a == F(7, 3) and -a + a == 0
    assert a ** 0 == 1 and a ** 2 == F(9, 49) and a != b
    with pytest.raises(NonUnitError):
        ModP(F(1, MODULUS))
    with pytest.raises(NonUnitError):
        a / ModP(MODULUS)
    with pytest.raises(NonUnitError):
        1 / ModP(0)
    with pytest.raises(TypeError):
        a + 0.5


_POSITIVE = st.fractions(F(1, 20), 20, max_denominator=30)
_CAUSTIC = st.fractions(-20, 20, max_denominator=30)
_DIVIDED = {SeriesKind.A: (SeriesKind.B, SeriesKind.C, SeriesKind.D),
            SeriesKind.DOUBLE_A: (SeriesKind.DOUBLE_B,),
            SeriesKind.LIGHT_A: (SeriesKind.LIGHT_B,)}


@given(_POSITIVE, _POSITIVE, _POSITIVE, _CAUSTIC, _CAUSTIC, st.integers(1, 24))
def test_modular_series_is_reduction_of_exact(a2, gap, a3, g1, g2, order):
    a = (a2 + gap, a2, a3)
    assume(g1 != g2 and all(g not in (a[0], a[1], -a[2], 0) for g in (g1, g2)))
    for params in (HyperellipticParams(*a, g1, g2), HyperellipticParams(*a, g1, g1),
                   HyperellipticParams(*a, g1, None)):
        exact = sqrt_series(params, order)
        modular = sqrt_series(params, order, ModP)
        pairs = [(exact, modular)] + [
            (divided_series(exact, kind, params), divided_series(modular, kind, params))
            for kind in _DIVIDED[exact.kind]]
        for e, m in pairs:
            assert m.kind is e.kind
            assert all(type(c) is ModP for c in m.coeffs)
            assert m.coeffs == tuple(ModP(c) for c in e.coeffs)


def test_modular_series_rejects_non_units():
    # gamma1 = p reduces to 0, so the branch factor 1 - x/gamma1 has no reduction
    params = HyperellipticParams(4, 2, 1, MODULUS, F(-1, 2))
    with pytest.raises(NonUnitError):
        sqrt_series(params, 6, ModP)
    with pytest.raises(NonUnitError):
        sqrt_series(HyperellipticParams(4, 2, 1, F(1, MODULUS), F(-1, 2)), 6, ModP)
