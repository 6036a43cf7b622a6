"""`exact` workload: one op gives one exact verdict (`cayley_test`) and tries
to build a Pell certificate (`solve_pell` for every variant of the case).

Inputs are caustic pairs in the S1, S2, S4 and T1 placements on (4,2,1),
rationalized at the search's denominator bound of 1e9, so the series
coefficients reach about 1.1k-1.6k bits.  The verdict is NOT-SATISFIED:
this is the common path a modular-rank shortcut would take.
"""

from __future__ import annotations

import random

import minkbilliards as mb
from minkbilliards.errors import BilliardError

from common import Ctx, Op

A = (4.0, 2.0, 1.0)
E421 = mb.Ellipsoid(*A)
CASES = (mb.CausticCase.S1, mb.CausticCase.S2, mb.CausticCase.S4, mb.CausticCase.T1)
PERIODS = (16, 24, 32)
# one round: every (case, n) once
ROUND = [(case, n) for n in PERIODS for case in CASES]
ROUNDS_PREPARED = 16
# the generic even-n variants, solved for every case when the package no
# longer says which belong to a case
EVEN_VARIANTS = (mb.PellVariant.EVEN_A, mb.PellVariant.EVEN_B)
SERIES_METRICS = ("series.sqrt_series_ms", "series.coeff_bits", "series.divided_series_ms",
                  "series.hankel_rank_ms", "series.blocks_ranked", "series.rank_deficient_ratio")
BLOCK_METRICS = SERIES_METRICS[2:]


def _pair(rng: random.Random, case: mb.CausticCase) -> mb.HyperellipticParams:
    """A seeded caustic pair that classify_case places in ``case`` on (4,2,1),
    rationalized at the search's denominator bound of 1e9."""
    spacelike = case.value.startswith("S")
    lt = mb.LineType.SPACELIKE if spacelike else mb.LineType.TIMELIKE
    while True:
        g1 = rng.uniform(0.0, A[0])
        g2 = rng.uniform(-6.0 * A[2], 0.0) if spacelike else rng.uniform(g1, 6.0 * A[0])
        try:
            placed = mb.classify_case(mb.CausticPair(g1, g2, lt, -1 if spacelike else 1), E421)
        except BilliardError:
            continue
        if placed is case:
            return mb.HyperellipticParams.from_floats(*A, g1, g2)


class Workload:
    name = "exact"

    def __init__(self, seed: int, ctx: Ctx) -> None:
        self.seed = seed
        self.ctx = ctx
        variants_for = ctx.probe("search.pell_variants_for", ())
        if variants_for is None:
            ctx.remarks.append("search.pell_variants_for not found; solve_pell runs for "
                               "evenA and evenB in every case")
        variants = {(case, n): EVEN_VARIANTS if variants_for is None
                    else tuple(variants_for(case, n)) for case, n in ROUND}
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(ROUNDS_PREPARED):
            ops = [Op("n%d" % n, (case, n, _pair(rng, case), variants[(case, n)]))
                   for case, n in ROUND]
            rng.shuffle(ops)
            self.rounds.append(ops)
        # the replay runs the rank test block by block, as cayley_test does
        self.required_order = ctx.probe("conditions._required_order", SERIES_METRICS)
        self.branches = ctx.probe("conditions._EVEN_BRANCHES", BLOCK_METRICS)
        self.block_tests = {"A": ctx.probe("conditions._test_A", BLOCK_METRICS),
                            "B": ctx.probe("conditions._test_B", BLOCK_METRICS)}

    def round(self, r: int) -> list[Op]:
        return self.rounds[r % ROUNDS_PREPARED]

    def _first(self, case: mb.CausticCase, n: int) -> Op:
        return next(op for op in self.rounds[0] if op.args[:2] == (case, n))

    def warmup(self) -> Op:
        return self._first(mb.CausticCase.S2, 16)

    def coverage(self) -> list[Op]:
        """One n=16 op of each case."""
        return [self._first(case, 16) for case in CASES]

    def execute(self, op: Op, tr):
        case, n, params, variants = op.args
        with tr.span("conditions.cayley_test"):
            verdict = mb.cayley_test(params, case, n)
        sols = []
        for variant in variants:
            with tr.span("pell.solve_pell"):
                sols.append(mb.solve_pell(params, n, variant))
        tr.count("conditions.cayley_calls")
        tr.count("conditions.satisfied", verdict)
        tr.count("pell.solve_calls", len(sols))
        tr.count("pell.solutions", sum(s is not None for s in sols))
        return verdict, sols

    def check(self, op: Op, result) -> list[str]:
        verdict, sols = result
        bad = []
        found = any(s is not None for s in sols)
        if verdict != found:
            bad.append(f"cayley_test says {verdict}, solve_pell found a solution: {found}")
        if not all(mb.verify_pell(s) for s in sols if s is not None):
            bad.append("a Pell solution fails verify_pell")
        return bad

    def replay(self, op: Op, result, tr) -> None:
        """Series build, divided series and the rank test of each Hankel block
        of the case (conditions._test_A/_test_B: hankel_rank of the block
        against its full rank), on the op's own parameters."""
        case, n, params, _ = op.args
        if self.required_order is None:
            return
        with tr.span("series.sqrt_series"):
            base = mb.sqrt_series(params, self.required_order(n))
        tr.count("series.coeff_bits", max(max(c.numerator.bit_length(), c.denominator.bit_length())
                                          for c in base.coeffs))
        tr.count("series.builds")
        if self.branches is None or None in self.block_tests.values():
            return
        # n >= 16 clears the period thresholds of both blocks (A: n >= 6, B: n >= 4)
        for branch in self.branches[case]:
            series = base
            if branch == "B":
                with tr.span("series.divided_series"):
                    series = mb.divided_series(base, mb.SeriesKind.B, params)
            with tr.span("series.hankel_rank"):
                deficient = self.block_tests[branch](series, n // 2)
            tr.count("series.blocks_ranked")
            tr.count("series.rank_deficient", deficient)
